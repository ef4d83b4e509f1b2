#!/usr/bin/env python3
"""pswm benchmark: run one workload on inputs generated from a seed.

    python3 perfbench/run.py --workload search-warm --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Run from the repository root; pswm is imported from ``src/``. The last
stdout line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; with ``--trace 0`` the metrics are the end-to-end ones of
BENCHMARK.json, with ``--trace 1`` the per-layer ones. The line before it
holds provenance, the output digest and per-command timings. Every output
is checked against a brute-force oracle outside the timed region; any
failed check makes the exit status 1. ``--workload all`` runs each
workload in a child process and prints every metric by name and unit.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

from tracer import Tracer, per_layer_metrics, percentile

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("search-warm", "ingest-cold", "train-eval")
# Set-up is repeated and its median reported, so one slow repetition does not count.
SETUP_REPS = 3

UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "index_bytes_per_corpus_byte": "ratio",
}


class Checker:
    """Counts checked operations and failed ones; failures go to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def report(self, what: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            print(f"CHECK FAILED {what}: " + "; ".join(errors[:3]), file=sys.stderr)

    def op_failed(self) -> None:
        self.attempted += 1
        self.failed += 1


def phase(w, checker: Checker, count: int, seconds: float = 0.0, tracer=None, first: int = 0):
    """Run ops first, first + 1, ... until `count` are done and about `seconds` have passed.

    It stops only after a whole number of the workload's passes (`w.pass_ops`
    ops), so every phase has the same mix of operations, and at the pass
    boundary nearest to `seconds`, judged by the last pass's length, so
    phases of long operations do not overrun. Returns (records, latencies of
    successful ops in s, wall time in s). A record is None for an op that
    raised.
    """
    records, latencies = [], []
    gc.collect()
    start = pass_start = time.perf_counter()
    i = first
    while True:
        if (i - first) % w.pass_ops == 0:
            now = time.perf_counter()
            if i - first >= count and now - start + (now - pass_start) / 2 >= seconds:
                break
            pass_start = now
        t0 = time.perf_counter()
        try:
            if tracer is None:
                rec = w.op(i)
            else:
                tracer.op = i
                with tracer.span("bench.op", "bench"):
                    rec = w.op(i)
        except Exception:  # an op failure is counted, the run goes on
            traceback.print_exc()
            checker.op_failed()
            rec = None
        else:
            latencies.append(time.perf_counter() - t0)
        records.append(rec)
        i += 1
    return records, latencies, time.perf_counter() - start


def run_untraced(w, seconds: float, checker: Checker):
    """Set-up and a block of timed ops, SETUP_REPS times.

    Splitting the timed ops into one block after each set-up spreads both
    measurements over the whole run, so host speed that drifts during a run,
    as on a shared machine, is averaged into every metric.
    """
    setup_times, records, latencies, wall = [], [], [], 0.0
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        w.setup()
        setup_times.append(time.perf_counter() - t0)
        block = phase(w, checker, -(-w.min_ops // SETUP_REPS), seconds / SETUP_REPS, first=len(records))
        records += block[0]
        latencies += block[1]
        wall += block[2]
    w.check(records, checker.report)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p95_ms": percentile(latencies, 95) * 1e3,
        "ops_per_s": len(latencies) / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "index_bytes_per_corpus_byte": w.index_ratio(),
    }
    info = {"ops": len(records), "detail": w.detail(records, latencies, wall),
            "digest": w.digest(records)}
    return {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}, info


def run_traced(w, checker: Checker, trace_path: Path):
    """Traced set-up, then the first `trace_ops` ops untraced and traced in turn.

    After one untimed warm-up, half the ops run untraced, the same half
    traced, twice over, so neither first-run effects nor host speed drift fall
    on one side of the tracing-overhead difference only.
    """
    tracer = Tracer()
    tracer.op = "setup"
    with tracing(w, tracer):
        w.setup()
    half = w.trace_ops // 2
    records, _, _ = phase(w, checker, half)
    traced_records, wall, traced_wall = [], 0.0, 0.0
    for _ in range(2):
        block = phase(w, checker, half)
        records += block[0]
        wall += block[2]
        with tracing(w, tracer):
            block = phase(w, checker, half, tracer=tracer)
        traced_records += block[0]
        traced_wall += block[2]
    w.check(records + traced_records, checker.report)
    ops = set(range(half))
    n = len(traced_records)
    metrics = per_layer_metrics(tracer, ops, n, (traced_wall - wall) / n)
    shares = {layer: s / traced_wall for layer, s in tracer.layer_self_s(ops).items()}
    tracer.write(trace_path)
    info = {"ops": n, "layer_share_of_traced_ops": shares, "digest": w.digest(records)}
    return metrics, info


@contextmanager
def tracing(w, tracer: Tracer):
    tracer.install()
    w.tracer = tracer
    try:
        yield
    finally:
        tracer.uninstall()
        w.tracer = None


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git; 'unknown' if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int) -> dict:
    import numpy

    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "commit": git_commit(), "seed": seed, "src_lines": src_lines}


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    w = WORKLOADS[name](seed)
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    checker = Checker()
    os.chdir(work)
    try:
        w.generate()
        if trace:
            trace_file = WORK / f"{name}-{seed}.trace.jsonl"
            metrics, info = run_traced(w, checker, trace_file)
            info["trace_file"] = str(trace_file.relative_to(ROOT))
        else:
            metrics, info = run_untraced(w, seconds, checker)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work)
    info = {"workload": name, "trace": int(trace), "provenance": provenance(seed),
            "failed_ratio": checker.failed / max(checker.attempted, 1), **info}
    print(json.dumps(info))
    print(json.dumps({"correct": checker.failed == 0, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0 if checker.failed == 0 else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so peak RSS and caches stay separate."""
    results = {}
    status = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        info, result = json.loads(lines[-2]), json.loads(lines[-1])
        results[name] = result
        for metric, m in {**info.get("detail", {}), **result["metrics"]}.items():
            print(f"{name:12} {metric:36} {m['value']:14.6g} {m['unit']}")
        print(f"{name:12} {'failed_ratio':36} {info['failed_ratio']:14.6g} failed/attempted")
    print(json.dumps({
        "correct": status == 0 and all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pswm" / "__init__.py").is_file():
        print(f"error: no pswm source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
