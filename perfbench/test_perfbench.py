"""Self-tests of the benchmark: run with ``python3 -m pytest perfbench -q``.

They check the benchmark, not pswm: the generator is deterministic, the
checks catch a wrong score and a truncated index (injected into the
benchmark's own copies), and the metric names printed are the ones
BENCHMARK.json declares.
"""

from __future__ import annotations

import copy
import json
import os
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
from gen import Generator, write_corpus, write_judgments  # noqa: E402
from pswm import corpus  # noqa: E402
from workloads import SearchWarm, TrainEval, _read  # noqa: E402


class SmallSearchWarm(SearchWarm):
    docs_count = 300
    judgments_count = 300
    pass_ops = 32
    min_ops = 32
    trace_ops = 32


class SmallTrainEval(TrainEval):
    docs_count = 200
    judgments_count = 40
    epochs = 3


@pytest.fixture
def workdir(tmp_path):
    cwd = os.getcwd()
    os.chdir(tmp_path)
    yield tmp_path
    os.chdir(cwd)


def _files(seed: int, where: Path) -> dict[str, bytes]:
    g = Generator(seed)
    docs = g.docs(200)
    write_corpus(docs, where / "corpus.jsonl")
    write_judgments(g.judgments(docs, 50), where / "judgments.tsv")
    (where / "queries.txt").write_text("\n".join(map(repr, g.queries("warm", 100))))
    return {p.name: p.read_bytes() for p in where.iterdir()}


def test_generator_is_deterministic(tmp_path):
    for name in ("a", "b", "c"):
        (tmp_path / name).mkdir()
    assert _files(5, tmp_path / "a") == _files(5, tmp_path / "b")
    assert _files(5, tmp_path / "a") != _files(6, tmp_path / "c")


def _warm_setup():
    w = SmallSearchWarm(3)
    w.generate()
    w.setup()
    return w, oracle.Corpus(w.docs), oracle.Model(_read("model.pswm").decode())


def _sampled_ops(w):
    """First-pass records (they carry candidates for the oracle) that have candidates."""
    records = [w.op(i) for i in range(w.pass_ops)]
    return [rec for rec in records if rec[3][0]]


def test_checks_pass_on_correct_output(workdir):
    w, docs, model = _warm_setup()
    for rec in _sampled_ops(w):
        assert w._query_errors(*rec, docs, model) == []


def test_checks_catch_a_wrong_score(workdir):
    w, docs, model = _warm_setup()
    q, page, out, (candidates, ranked) = next(rec for rec in _sampled_ops(w) if rec[1].results)
    bad = copy.deepcopy(candidates)
    bad[0].semantic += 0.125
    assert any("brute force" in e for e in w._query_errors(q, page, out, (bad, ranked), docs, model))
    bad_page = copy.deepcopy(page)
    for r in bad_page.results:
        r.syntactic /= 2
    assert w._query_errors(q, bad_page, out, (candidates, ranked), docs, model)


def test_checks_catch_a_truncated_index(workdir):
    w, docs, model = _warm_setup()
    lines = Path("corpus.jsonl").read_text().splitlines(keepends=True)
    Path("corpus.jsonl").write_text("".join(lines[: len(lines) // 2]))
    w.pswm("ingest", "--corpus", "corpus.jsonl", "--index", "index.pswm")
    w.index = corpus.load_index("index.pswm")
    assert any(w._query_errors(*rec, docs, model) for rec in _sampled_ops(w))


def test_a_cut_index_file_fails_the_op(workdir):
    w, _, _ = _warm_setup()
    Path("index.pswm").write_bytes(_read("index.pswm")[:1000])

    class ColdSearch:
        pass_ops = 1

        def op(self, i):
            return w.pswm(*w.queries[i].argv("index.pswm", "model.pswm"))

    checker = run.Checker()
    records, _, _ = run.phase(ColdSearch(), checker, 1)
    assert records == [None] and (checker.attempted, checker.failed) == (1, 1)


def test_metric_names_match_benchmark_json(workdir):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert set(run.WORKLOAD_NAMES) == {w["name"] for w in spec["workloads"]}

    for cls in (SmallSearchWarm, SmallTrainEval):
        w = cls(1)
        w.generate()
        checker = run.Checker()
        metrics, _ = run.run_untraced(w, 0.0, checker)
        assert {k: m["unit"] for k, m in metrics.items()} == declared
        assert all(m["value"] > 0 for m in metrics.values())
        metrics, _ = run.run_traced(w, checker, workdir / "trace.jsonl")
        assert {k: m["unit"] for k, m in metrics.items()} == per_layer
        assert checker.failed == 0
