"""Second-level analysis: attach probabilities, cutoff-filter, and render.

Each candidate's (syntactic, semantic) pair runs through the trained
network and the single output activation is attached as its relevance
probability. Pages are sorted by probability (ties broken by ascending doc
id), trimmed below the cutoff, and rendered as text or JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .neural import Network, forward
from .scoring import CandidateFeatures

DEFAULT_CUTOFF = 0.5


@dataclass(slots=True)
class RankedResult(CandidateFeatures):
    probability: float


@dataclass
class ResultPage:
    query: str
    results: list[RankedResult] = field(default_factory=list)
    cutoff: float = DEFAULT_CUTOFF
    total_candidates: int = 0


def check_ranking_shape(net: Network) -> None:
    """Raise ValueError unless `net` maps the two features to one output."""
    if net.layer_sizes[0] != 2 or net.layer_sizes[-1] != 1:
        raise ValueError(f"ranking network must map 2 features to 1 output, got {net.layer_sizes}")


def attach_probabilities(candidates: list[CandidateFeatures], net: Network) -> list[RankedResult]:
    """Label every candidate with the network's output for its feature pair.

    Order-preserving and pointwise. Raises ValueError unless the network
    maps two inputs to one output. Sigmoid overflow is not reported.
    """
    check_ranking_shape(net)
    ranked: list[RankedResult] = []
    for cand in candidates:
        probability = forward(net, [cand.syntactic, cand.semantic])[-1][0]
        ranked.append(RankedResult(cand.doc_id, cand.syntactic, cand.semantic, probability))
    return ranked


def format_results(ranked: list[RankedResult], cutoff: float,
                   top_k: int | None = None, query: str = "") -> ResultPage:
    """Filter out results below `cutoff`, sort, and truncate to `top_k`.

    Sort order is non-increasing probability with ties broken by ascending
    doc id. `total_candidates` records the pre-filter count.
    """
    if not 0.0 <= cutoff <= 1.0:
        raise ValueError(f"cutoff must be in [0, 1], got {cutoff}")
    if top_k is not None and top_k < 1:
        raise ValueError(f"top_k must be positive, got {top_k}")
    survivors = [r for r in ranked if r.probability >= cutoff]
    survivors.sort(key=lambda r: (-r.probability, r.doc_id))
    if top_k is not None:
        survivors = survivors[:top_k]
    return ResultPage(query=query, results=survivors, cutoff=cutoff, total_candidates=len(ranked))


def _render_text(page: ResultPage) -> str:
    id_width = max([len("doc_id")] + [len(r.doc_id) for r in page.results])
    lines = [
        f"{'rank':>4}  {'doc_id':<{id_width}}  {'probability':>11}  {'syntactic':>9}  {'semantic':>8}"
    ]
    for rank, r in enumerate(page.results, start=1):
        lines.append(
            f"{rank:>4}  {r.doc_id:<{id_width}}  {r.probability:>11.4f}  "
            f"{r.syntactic:>9.4f}  {r.semantic:>8.4f}"
        )
    lines.append(f"{len(page.results)} results")
    return "\n".join(lines)


def _render_machine(page: ResultPage) -> str:
    payload = {
        "query": page.query,
        "cutoff": page.cutoff,
        "total_candidates": page.total_candidates,
        "results": [
            {
                "rank": rank,
                "doc_id": r.doc_id,
                "probability": r.probability,
                "syntactic": r.syntactic,
                "semantic": r.semantic,
            }
            for rank, r in enumerate(page.results, start=1)
        ],
    }
    return json.dumps(payload, ensure_ascii=False)


def render(page: ResultPage, mode: str = "text") -> str:
    """Render a page as an aligned text table or a single JSON object."""
    if mode == "text":
        return _render_text(page)
    if mode == "machine":
        return _render_machine(page)
    raise ValueError(f"unknown render mode {mode!r} (expected 'text' or 'machine')")
