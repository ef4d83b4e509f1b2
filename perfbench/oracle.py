"""Brute-force reference answers and output checks.

Nothing here calls pswm: candidates and both feature scores are recomputed
from the generated documents, probabilities from the model file's text, so a
wrong score, a truncated index or a mis-sorted page shows as a mismatch.
"""

from __future__ import annotations

import json
import math
import re

from gen import Doc, effective_tags

# Reported probabilities may differ from this module's plain-Python forward
# pass by summation order only; anything beyond this is a wrong answer.
PROBABILITY_TOLERANCE = 1e-9
_TOKEN_RE = re.compile(r"[^\W_]+")


def tokens(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


class Corpus:
    """Per-document token and tag sets of the generated documents."""

    def __init__(self, docs: list[Doc]):
        self.docs = {d.id: (frozenset(tokens(d.body)), frozenset(effective_tags(d))) for d in docs}

    def distinct_tokens(self) -> int:
        return len(set().union(*(body for body, _ in self.docs.values())))

    def doc_features(self, query: str, doc_id: str) -> tuple[float, float]:
        q = set(tokens(query))
        body, tags = self.docs[doc_id]
        return len(q & body) / len(q), len(q & tags) / len(q | tags)

    def features(self, query: str) -> list[tuple[str, float, float]]:
        """(doc_id, syntactic, semantic) of every candidate, ascending doc id."""
        q = set(tokens(query))
        return sorted((doc_id, *self.doc_features(query, doc_id))
                      for doc_id, (body, _) in self.docs.items() if q & body)

    def evaluation(self, judgments, model: Model) -> tuple[int, float, float]:
        """(count, mean error, accuracy at 0.5) of `model` on `judgments`."""
        total_error = 0.0
        correct = 0
        for query, doc_id, label in judgments:
            p = model.probability(*self.doc_features(query, doc_id))
            total_error += 0.5 * (p - label) ** 2
            correct += (p >= 0.5) == (label >= 0.5)
        return len(judgments), total_error / len(judgments), correct / len(judgments)


class Model:
    """A 2-H-1 model read from its file text, evaluated in plain Python."""

    def __init__(self, text: str):
        lines = text.splitlines()
        sizes = [int(s) for s in lines[1].split()]
        if len(sizes) != 3 or sizes[0] != 2 or sizes[2] != 1:
            raise ValueError(f"oracle handles 2-H-1 models only, got {sizes}")
        rows = [[float(v) for v in line.split()] for line in lines[2:]]
        self.hidden = rows[:3]
        self.output = [r[0] for r in rows[3:]]

    def probability(self, syntactic: float, semantic: float) -> float:
        h = [_sigmoid(syntactic * a + semantic * b + c)
             for a, b, c in zip(*self.hidden)]
        return _sigmoid(sum(x * w for x, w in zip(h, self.output)) + self.output[-1])


def _sigmoid(x: float) -> float:
    return 1.0 / (1.0 + math.exp(-x))


def expected_page(feats, model: Model, cutoff: float, top_k):
    """Doc ids the page should show, in order, from oracle features and probabilities."""
    scored = [(model.probability(s, m), d) for d, s, m in feats]
    shown = sorted(((p, d) for p, d in scored if p >= cutoff), key=lambda pd: (-pd[0], pd[1]))
    return [d for _, d in shown[:top_k]]


def page_errors(results, cutoff: float, top_k, exact: bool = True) -> list[str]:
    """Structural checks on one page given as [(doc_id, probability), ...].

    With `exact` false the probabilities are rounded for display, so equal
    values may appear in any id order.
    """
    errors = []
    if top_k is not None and len(results) > top_k:
        errors.append(f"{len(results)} results exceed top_k {top_k}")
    for doc_id, p in results:
        if p < cutoff:
            errors.append(f"{doc_id} has probability {p} below cutoff {cutoff}")
    keys = [(-p, d) if exact else -p for d, p in results]
    if keys != sorted(keys) or len({d for d, _ in results}) != len(results):
        errors.append("page not sorted by (probability desc, doc id) or repeats a doc")
    return errors


def parse_rendered(text: str, fmt: str):
    """Rows (doc_id, probability, syntactic, semantic) from `render` output.

    Text-table probabilities carry four decimals; machine output is exact.
    """
    if fmt == "machine":
        payload = json.loads(text)
        return [(r["doc_id"], r["probability"], r["syntactic"], r["semantic"])
                for r in payload["results"]]
    lines = text.rstrip("\n").split("\n")
    rows = [line.split() for line in lines[1:-1]]
    if lines[-1] != f"{len(rows)} results":
        raise ValueError(f"text page footer {lines[-1]!r} disagrees with {len(rows)} rows")
    return [(r[1], float(r[2]), float(r[3]), float(r[4])) for r in rows]


def search_errors(rows, exact: bool, feats, model: Model, cutoff: float, top_k) -> list[str]:
    """Compare one page's rows (doc_id, probability, syntactic, semantic) with the oracle.

    `exact` rows carry full-precision floats; otherwise they are the text
    table's four-decimal rendering.
    """
    errors = page_errors([(d, p) for d, p, _, _ in rows], cutoff, top_k, exact)
    by_id = {d: (s, m) for d, s, m in feats}
    for doc_id, p, s, m in rows:
        if doc_id not in by_id:
            errors.append(f"{doc_id} is not a candidate")
            continue
        want_s, want_m = by_id[doc_id]
        want_p = model.probability(want_s, want_m)
        if exact:
            ok = (s, m) == (want_s, want_m) and abs(p - want_p) <= PROBABILITY_TOLERANCE
        else:
            ok = (s, m, p) == tuple(float(f"{v:.4f}") for v in (want_s, want_m, want_p))
        if not ok:
            errors.append(f"{doc_id}: got ({s}, {m}, {p}), want ({want_s}, {want_m}, {want_p})")
    want = expected_page(feats, model, cutoff, top_k)
    if [d for d, _, _, _ in rows] != want:
        got = [d for d, *_ in rows]
        errors.append(f"page ids differ from oracle: {len(got)} vs {len(want)} results, "
                      f"first difference at rank {next(k for k, (a, b) in enumerate(zip(got + [None], want + [None])) if a != b) + 1}")
    return errors
