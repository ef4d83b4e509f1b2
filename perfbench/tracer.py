"""In-memory span tracer that wraps pswm's public functions from outside.

Each function is wrapped under the name its caller looks it up by (`cli`
imports `build_syntax_tree`, `ranker` and `training` import `forward`), so
calls made inside pswm are caught, not only the benchmark's own. A span is
(name, layer, start ns, end ns, parent span index, operation id, counts);
counts are taken at the same boundary, after the span's clock stops.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from contextlib import contextmanager

LAYERS = ("query", "corpus", "scoring", "neural", "ranker", "training", "cli")

_NAME, _LAYER, _START, _END, _PARENT, _OP, _COUNTS = range(7)


def _tree_counts(args, result):
    return {"tokens": len(result.leaves)}


def _analyze_counts(args, result):
    tree, index = args[0], args[1]
    postings = sum(len(index.postings.get(t, ())) for t in set(tree.leaves))
    return {"candidates": len(result), "postings": postings}


def _format_counts(args, result):
    ranked, cutoff = args[0], args[1]
    return {"candidates": len(ranked), "survivors": sum(r.probability >= cutoff for r in ranked),
            "shown": len(result.results)}


def _build_index_counts(args, result):
    return {"distinct_tokens": len(result.postings),
            "postings_entries": sum(len(p) for p in result.postings.values())}


def _save_index_counts(args, result):
    return {"bytes": os.path.getsize(args[1])}


def _train_counts(args, result):
    return {"steps": len(args[1]) * args[2]}


def patch_points():
    """(module, attribute, layer, count function) for every wrapped name."""
    from pswm import cli, corpus, neural, query, ranker, scoring, training

    return [
        (query, "build_syntax_tree", "query", _tree_counts),
        (cli, "build_syntax_tree", "query", _tree_counts),
        (training, "build_syntax_tree", "query", _tree_counts),
        (corpus, "parse_corpus_file", "corpus", None),
        (corpus, "build_index", "corpus", _build_index_counts),
        (corpus, "save_index", "corpus", _save_index_counts),
        (corpus, "load_index", "corpus", None),
        (scoring, "analyze", "scoring", _analyze_counts),
        (training, "syntactic_score", "scoring", None),
        (training, "semantic_score", "scoring", None),
        (neural, "init_weights", "neural", None),
        (neural, "train", "neural", _train_counts),
        (neural, "save_model", "neural", None),
        (neural, "load_model", "neural", None),
        (ranker, "forward", "neural", None),
        (training, "forward", "neural", None),
        (ranker, "attach_probabilities", "ranker", None),
        (ranker, "format_results", "ranker", _format_counts),
        (ranker, "render", "ranker", None),
        (training, "parse_judgments_file", "training", None),
        (training, "judgments_to_examples", "training", None),
        (training, "evaluate", "training", None),
    ]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._originals: list[tuple] = []
        self.op = None

    def _open(self, name: str, layer: str) -> list:
        rec = [name, layer, 0, 0, self._stack[-1] if self._stack else -1, self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[_START] = time.perf_counter_ns()
        return rec

    def _close(self, rec: list) -> None:
        rec[_END] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, layer: str):
        rec = self._open(name, layer)
        try:
            yield rec
        finally:
            self._close(rec)

    def install(self) -> None:
        for module, attr, layer, count in patch_points():
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, f"{layer}.{original.__name__}", layer, count))
            self._originals.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def _wrap(self, fn, name: str, layer: str, count):
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            rec = open_(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(rec)
            if count is not None:
                rec[_COUNTS] = count(args, result)
            return result

        return traced

    def write(self, path) -> None:
        keys = ("name", "layer", "start_ns", "end_ns", "parent", "op", "counts")
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")

    def self_ns(self) -> list[int]:
        """Each span's duration minus the time its direct children cover."""
        own = [rec[_END] - rec[_START] for rec in self.spans]
        for rec in self.spans:
            if rec[_PARENT] >= 0:
                own[rec[_PARENT]] -= rec[_END] - rec[_START]
        return own

    def layer_self_s(self, ops=None) -> dict[str, float]:
        """Self time per layer in seconds, over spans of `ops` (all spans when None)."""
        totals = dict.fromkeys(LAYERS, 0)
        for rec, own in zip(self.spans, self.self_ns()):
            if rec[_LAYER] in totals and (ops is None or rec[_OP] in ops):
                totals[rec[_LAYER]] += own
        return {layer: ns / 1e9 for layer, ns in totals.items()}

    def durations_s(self, name: str) -> list[float]:
        return [(r[_END] - r[_START]) / 1e9 for r in self.spans if r[_NAME] == name]

    def counts(self, name: str) -> list[dict]:
        return [r[_COUNTS] for r in self.spans if r[_NAME] == name]


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); the value itself for one sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_layer_metrics(tracer: Tracer, ops: set, n_ops: int, overhead_s_per_op: float) -> dict:
    """Every per-layer metric with its unit, from a traced set-up and `n_ops` traced ops with ids in `ops`."""
    med = lambda name: statistics.median(tracer.durations_s(name))  # noqa: E731
    total = lambda name, key: sum(c[key] for c in tracer.counts(name))  # noqa: E731
    analyze_ms = [d * 1e3 for d in tracer.durations_s("scoring.analyze")]
    attach_ms = [d * 1e3 for d in tracer.durations_s("ranker.attach_probabilities")]
    candidates = total("ranker.format_results", "candidates")
    # Results are counted as at least one so the waste ratio stays finite.
    shown = max(total("ranker.format_results", "shown"), 1)
    index = tracer.counts("corpus.build_index")[-1]
    cli_self = [own / 1e6 for rec, own in zip(tracer.spans, tracer.self_ns()) if rec[_LAYER] == "cli"]
    metrics = {
        "query.build_syntax_tree_us": (med("query.build_syntax_tree") * 1e6, "us"),
        "query.tokens_per_query": (statistics.mean(c["tokens"] for c in tracer.counts("query.build_syntax_tree")),
                                   "tokens"),
        "corpus.parse_corpus_file_s": (med("corpus.parse_corpus_file"), "s"),
        "corpus.build_index_s": (med("corpus.build_index"), "s"),
        "corpus.save_index_s": (med("corpus.save_index"), "s"),
        "corpus.load_index_s": (med("corpus.load_index"), "s"),
        "corpus.index_bytes": (tracer.counts("corpus.save_index")[-1]["bytes"], "bytes"),
        "corpus.distinct_tokens": (index["distinct_tokens"], "count"),
        "corpus.postings_entries": (index["postings_entries"], "count"),
        "scoring.analyze_ms_p50": (statistics.median(analyze_ms), "ms"),
        "scoring.analyze_ms_p95": (percentile(analyze_ms, 95), "ms"),
        "scoring.candidates_per_query": (total("scoring.analyze", "candidates") / len(analyze_ms), "count"),
        "scoring.postings_per_query": (total("scoring.analyze", "postings") / len(analyze_ms), "count"),
        "scoring.candidates_per_result": (candidates / shown, "ratio"),
        "ranker.attach_probabilities_ms_p50": (statistics.median(attach_ms), "ms"),
        "ranker.attach_probabilities_ms_p95": (percentile(attach_ms, 95), "ms"),
        "ranker.format_results_ms": (med("ranker.format_results") * 1e3, "ms"),
        "ranker.render_ms": (med("ranker.render") * 1e3, "ms"),
        "ranker.results_per_candidate": (total("ranker.format_results", "survivors") / max(candidates, 1),
                                         "ratio"),
        "neural.train_s": (med("neural.train"), "s"),
        "neural.train_step_us": (sum(tracer.durations_s("neural.train")) * 1e6
                                 / total("neural.train", "steps"), "us"),
        "neural.init_weights_ms": (med("neural.init_weights") * 1e3, "ms"),
        "neural.save_model_ms": (med("neural.save_model") * 1e3, "ms"),
        "neural.load_model_ms": (med("neural.load_model") * 1e3, "ms"),
        "training.parse_judgments_file_ms": (med("training.parse_judgments_file") * 1e3, "ms"),
        "training.judgments_to_examples_ms": (med("training.judgments_to_examples") * 1e3, "ms"),
        "training.evaluate_ms": (med("training.evaluate") * 1e3, "ms"),
        "cli.self_ms": (statistics.median(cli_self), "ms"),
    }
    for layer, seconds in tracer.layer_self_s().items():
        metrics[f"{layer}.self_s"] = (seconds, "s")
    metrics["trace.overhead_ms_per_op"] = (overhead_s_per_op * 1e3, "ms")
    metrics["trace.spans_per_op"] = (sum(r[_OP] in ops for r in tracer.spans) / n_ops, "count")
    return {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()}
