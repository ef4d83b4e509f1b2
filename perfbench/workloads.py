"""The three workloads: what each sets up, times and checks.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned. pswm is driven from outside, through
its public module functions (looked up on the module at call time, so the
tracer's wrappers apply) and through in-process `pswm.cli.main(argv)` calls.
Work files live in the current directory; paths handed to pswm are bare
file names so its stdout does not depend on where the run happens.
"""

from __future__ import annotations

import hashlib
import io
import os
import statistics
import time
from contextlib import redirect_stdout

import oracle
from gen import TOP_K, Generator, Query, write_corpus, write_judgments
from tracer import percentile
from pswm import cli, corpus, neural, query, ranker, scoring, training

CUTOFF = ranker.DEFAULT_CUTOFF
HIDDEN = cli.DEFAULT_HIDDEN
LEARNING_RATE = cli.DEFAULT_LR
TRAIN_SEED = cli.DEFAULT_SEED
# Epochs of the model that search-warm and ingest-cold train during set-up:
# enough for accuracy near the 0.9 ceiling that label noise allows.
SETUP_EPOCHS = 30


class CommandFailed(Exception):
    pass


class Workload:
    """Base: subclasses set the class attributes and implement the hooks."""

    name = ""
    docs_count = 0
    judgments_count = 0
    # Operations a timed run makes whatever its length; the digest covers them.
    min_ops = 1
    # A timed phase stops only after a whole number of passes of this many ops.
    pass_ops = 1
    # Operations a traced run traces (a fixed count, so its totals compare
    # across commits); as many run untraced for the overhead estimate.
    trace_ops = 1

    def __init__(self, seed: int):
        self.gen = Generator(seed)
        self.tracer = None

    def pswm(self, *argv: str) -> str:
        """Run one pswm command in-process; returns its stdout."""
        buf = io.StringIO()
        with redirect_stdout(buf):
            if self.tracer is None:
                code = cli.main(list(argv))
            else:
                with self.tracer.span(f"cli.{argv[0]}", "cli"):
                    code = cli.main(list(argv))
        if code != 0:
            raise CommandFailed(f"pswm {argv[0]} exited with {code}")
        return buf.getvalue()

    def generate(self) -> None:
        """Write corpus.jsonl and judgments.tsv; keep the documents for the oracle."""
        self.docs = self.gen.docs(self.docs_count)
        self.judgments = self.gen.judgments(self.docs, self.judgments_count)
        write_corpus(self.docs, "corpus.jsonl")
        write_judgments(self.judgments, "judgments.tsv")

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, i: int):
        raise NotImplementedError

    def check(self, records: list, report) -> None:
        """Check every record (None marks a failed op, already counted)."""
        raise NotImplementedError

    def digest(self, records: list) -> str:
        """SHA-256 of the CLI stdout and artifact bytes of set-up and the first ops."""
        raise NotImplementedError

    def detail(self, records: list, latencies: list[float], wall: float) -> dict:
        """Per-command timings under the names users know them by, with units."""
        raise NotImplementedError

    def index_ratio(self) -> float:
        return os.path.getsize("index.pswm") / os.path.getsize("corpus.jsonl")

    def roundtrip(self, report) -> None:
        """save(load(f)) must reproduce the index and model files byte for byte."""
        for path, load, save in (("index.pswm", corpus.load_index, corpus.save_index),
                                 ("model.pswm", neural.load_model, neural.save_model)):
            save(load(path), path + ".resave")
            report(f"{path} round trip", [] if _read(path) == _read(path + ".resave")
                   else [f"save(load({path})) differs from {path}"])


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _sha(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode() if isinstance(part, str) else part)
    return h.hexdigest()


def _rows(page) -> list[tuple]:
    return [(r.doc_id, r.probability, r.syntactic, r.semantic) for r in page.results]


def _rounded(rows) -> list[tuple]:
    return [(d, *(float(f"{v:.4f}") for v in vals)) for d, *vals in rows]


def _train_model(index):
    """Train, save and reload model.pswm from judgments.tsv; returns (net, evaluate report)."""
    judgments = training.parse_judgments_file("judgments.tsv")
    examples = training.judgments_to_examples(judgments, index)
    net = neural.init_weights([2, HIDDEN, 1], TRAIN_SEED)
    net, _ = neural.train(net, examples, SETUP_EPOCHS, LEARNING_RATE, TRAIN_SEED)
    neural.save_model(net, "model.pswm")
    net = neural.load_model("model.pswm")
    return net, training.evaluate(net, judgments, index)


def _evaluation_errors(report: dict, judgments, docs: oracle.Corpus, model: oracle.Model) -> list[str]:
    count, mean_error, accuracy = docs.evaluation(judgments, model)
    if (report["count"], report["accuracy_at_0.5"]) != (count, accuracy) \
            or abs(report["mean_error"] - mean_error) > oracle.PROBABILITY_TOLERANCE:
        return [f"evaluate gave {report}, oracle ({count}, {mean_error}, {accuracy})"]
    return []


class SearchWarm(Workload):
    name = "search-warm"
    docs_count = 10_000
    judgments_count = 300
    # The queries are one stratified set of pass_ops, replayed: each timed
    # phase covers whole passes, so its latency percentiles do not depend on
    # which slice of a stream it happened to reach.
    pass_ops = 128
    min_ops = 128
    trace_ops = 256

    def generate(self) -> None:
        super().generate()
        self.queries = self.gen.queries("warm", self.pass_ops)

    def setup(self) -> None:
        self.ingest_out = self.pswm("ingest", "--corpus", "corpus.jsonl", "--index", "index.pswm")
        self.index = corpus.load_index("index.pswm")
        self.net, self.report = _train_model(self.index)

    def op(self, i: int):
        q = self.queries[i % len(self.queries)]
        tree = query.build_syntax_tree(q.text)
        candidates = scoring.analyze(tree, self.index)
        ranked = ranker.attach_probabilities(candidates, self.net)
        page = ranker.format_results(ranked, CUTOFF, q.top_k, query=q.text)
        out = ranker.render(page, q.fmt)
        # The first pass keeps its candidates for the brute-force oracle.
        sample = (candidates, ranked) if i < self.pass_ops else None
        return q, page, out, sample

    def check(self, records, report) -> None:
        model = oracle.Model(_read("model.pswm").decode())
        docs = oracle.Corpus(self.docs)
        report("set-up evaluate", _evaluation_errors(self.report, self.judgments, docs, model))
        for i, rec in enumerate(records):
            if rec is None:
                continue
            errors = self._query_errors(*rec, docs, model)
            first = records[i % self.pass_ops]
            if first is not None and rec[2] != first[2]:
                errors.append(f"replayed query {rec[0].text!r} rendered differently")
            report(f"query {i}", errors)
        self.roundtrip(report)

    @staticmethod
    def _query_errors(q, page, out, sample, docs, model) -> list[str]:
        rows = _rows(page)
        errors = oracle.page_errors([(d, p) for d, p, _, _ in rows], CUTOFF, q.top_k)
        try:
            rendered = oracle.parse_rendered(out, q.fmt)
        except (ValueError, KeyError, IndexError) as exc:
            return errors + [f"unparseable {q.fmt} output for {q.text!r}: {exc}"]
        if rendered != (rows if q.fmt == "machine" else _rounded(rows)):
            errors.append(f"{q.fmt} rendering of {q.text!r} disagrees with its page")
        if sample is not None:
            candidates, ranked = sample
            feats = docs.features(q.text)
            if [(c.doc_id, c.syntactic, c.semantic) for c in candidates] != feats:
                errors.append(f"analyze({q.text!r}) disagrees with brute force")
            off = [r.doc_id for r in ranked if abs(r.probability - model.probability(r.syntactic, r.semantic))
                   > oracle.PROBABILITY_TOLERANCE]
            if off:
                errors.append(f"{len(off)} probabilities for {q.text!r} are off, first {off[0]}")
            errors += oracle.search_errors(rows, True, feats, model, CUTOFF, q.top_k)
        return errors

    def digest(self, records) -> str:
        outs = [rec[2] for rec in records[:self.min_ops] if rec is not None]
        return _sha([self.ingest_out, _read("index.pswm"), _read("model.pswm"), *outs])

    def detail(self, records, latencies, wall) -> dict:
        ms = [t * 1e3 for t in latencies]
        return {
            "search_p50_ms": {"value": statistics.median(ms), "unit": "ms"},
            "search_p95_ms": {"value": percentile(ms, 95), "unit": "ms"},
            "search_qps": {"value": len(ms) / wall, "unit": "queries/s"},
        }


def _search_errors(docs, model, q, out: str, cutoff: float) -> list[str]:
    """Check one `pswm search` stdout against the oracle."""
    try:
        rows = oracle.parse_rendered(out.rstrip("\n"), q.fmt)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"unparseable {q.fmt} output for {q.text!r}: {exc}"]
    return oracle.search_errors(rows, q.fmt == "machine", docs.features(q.text), model, cutoff, q.top_k)


class IngestCold(Workload):
    name = "ingest-cold"
    docs_count = 10_000
    judgments_count = 300
    searches_per_op = 2
    min_ops = 2
    trace_ops = 2

    def generate(self) -> None:
        super().generate()
        self.queries = self.gen.queries("cold", 256, lead_tag=True)

    def setup(self) -> None:
        _, self.report = _train_model(corpus.build_index(corpus.parse_corpus_file("corpus.jsonl")))

    def op(self, i: int):
        """One `pswm ingest`, then `searches_per_op` cold `pswm search` calls."""
        t0 = time.perf_counter()
        ingest = self.pswm("ingest", "--corpus", "corpus.jsonl", "--index", "index.pswm")
        timings = [time.perf_counter() - t0]
        searches = []
        for k in range(self.searches_per_op):
            q = self.queries[(i * self.searches_per_op + k) % len(self.queries)]
            t0 = time.perf_counter()
            searches.append((q, self.pswm(*q.argv("index.pswm", "model.pswm"))))
            timings.append(time.perf_counter() - t0)
        return ingest, searches, timings

    def check(self, records, report) -> None:
        model = oracle.Model(_read("model.pswm").decode())
        docs = oracle.Corpus(self.docs)
        report("set-up evaluate", _evaluation_errors(self.report, self.judgments, docs, model))
        want_ingest = (f"ingested {len(self.docs)} documents, {docs.distinct_tokens()} distinct tokens\n"
                       "saved index -> index.pswm\n")
        for i, rec in enumerate(records):
            if rec is None:
                continue
            ingest, searches, _ = rec
            errors = [] if ingest == want_ingest else [f"ingest printed {ingest!r}"]
            for q, out in searches:
                errors += _search_errors(docs, model, q, out, CUTOFF)
            report(f"cycle {i}", errors)
        self.roundtrip(report)

    def digest(self, records) -> str:
        outs = [out for rec in records[:self.min_ops] if rec is not None
                for out in (rec[0], *(o for _, o in rec[1]))]
        return _sha([*outs, _read("index.pswm"), _read("model.pswm")])

    def detail(self, records, latencies, wall) -> dict:
        done = [rec[2] for rec in records if rec is not None]
        return {
            "ingest_s": {"value": statistics.median(t[0] for t in done), "unit": "s"},
            "cold_search_s": {"value": statistics.median(s for t in done for s in t[1:]), "unit": "s"},
        }


class TrainEval(Workload):
    name = "train-eval"
    docs_count = 2_000
    judgments_count = 400
    epochs = 80
    min_ops = 2
    trace_ops = 2

    def generate(self) -> None:
        super().generate()
        self.queries = [Query(text, "machine", TOP_K)
                        for text in self.gen.query_texts("try", 256, lead_tag=True)]

    def setup(self) -> None:
        self.ingest_out = self.pswm("ingest", "--corpus", "corpus.jsonl", "--index", "index.pswm")

    def op(self, i: int):
        """`pswm train`, `pswm eval`, then one search to try the new model."""
        files = ("--index", "index.pswm", "--model", "model.pswm")
        t0 = time.perf_counter()
        train = self.pswm("train", *files, "--judgments", "judgments.tsv", "--epochs", str(self.epochs))
        t1 = time.perf_counter()
        evaluation = self.pswm("eval", *files, "--judgments", "judgments.tsv")
        t2 = time.perf_counter()
        q = self.queries[i % len(self.queries)]
        search = self.pswm(*q.argv("index.pswm", "model.pswm"), "--cutoff", "0")
        t3 = time.perf_counter()
        return train, _read("model.pswm"), evaluation, q, search, (t1 - t0, t2 - t1, t3 - t2)

    def check(self, records, report) -> None:
        docs = oracle.Corpus(self.docs)
        first_model = next((rec[1] for rec in records if rec is not None), None)
        for i, rec in enumerate(records):
            if rec is None:
                continue
            train, model_bytes, evaluation, q, search, _ = rec
            model = oracle.Model(model_bytes.decode())
            count, mean_error, accuracy = docs.evaluation(self.judgments, model)
            errors = []
            if not train.startswith(f"trained on {count} examples for {self.epochs} epochs\n"):
                errors.append(f"train printed {train!r}")
            if model_bytes != first_model:
                errors.append("training with the same seed gave a different model file")
            want = f"count: {count}\nmean error: {mean_error:.6f}\naccuracy@0.5: {accuracy:.4f}\n"
            if evaluation != want:
                errors.append(f"eval printed {evaluation!r}, oracle {want!r}")
            errors += _search_errors(docs, model, q, search, 0.0)
            report(f"cycle {i}", errors)
        self.roundtrip(report)

    def digest(self, records) -> str:
        outs = [part for rec in records[:self.min_ops] if rec is not None
                for part in (rec[0], rec[1], rec[2], rec[4])]
        return _sha([self.ingest_out, *outs, _read("index.pswm")])

    def detail(self, records, latencies, wall) -> dict:
        done = [rec[5] for rec in records if rec is not None]
        return {"train_s": {"value": statistics.median(t[0] for t in done), "unit": "s"},
                "eval_s": {"value": statistics.median(t[1] for t in done), "unit": "s"}}


WORKLOADS = {w.name: w for w in (SearchWarm, IngestCold, TrainEval)}
