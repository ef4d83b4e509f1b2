"""First-level analysis: syntactic candidates and their feature scores.

Candidates are the documents sharing at least one token with the query
(OR semantics over the syntax-tree leaves). Each candidate gets two scores
in [0, 1] that together form the probability network's input vector:

  syntactic -- fraction of distinct query tokens present in the body
  semantic  -- Jaccard overlap between the query tokens and the document's
               metadata tags (keywords plus concept tags whose weight is at
               least ``CONCEPT_WEIGHT_THRESHOLD``)

A tag is one whole lowercased string, so it counts only when it equals a query
token: "semantic web" or "e-commerce" never matches, yet enlarges the union.

`analyze` takes both candidates and syntactic scores from the index's
per-token posting lists: a candidate's syntactic score is the number of
distinct query tokens whose list holds it, over the number of distinct query
tokens. These are the two integers `syntactic_score` divides, so the results
are equal bit for bit, and no candidate body is tokenized again.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain

from .corpus import Document, InvertedIndex, MetaRecord
from .query import QuerySyntaxTree, tokenize

# Concept tags at or above this weight count as metadata tags for matching.
CONCEPT_WEIGHT_THRESHOLD = 0.5


@dataclass(slots=True)
class CandidateFeatures:
    doc_id: str
    syntactic: float
    semantic: float


def syntactic_score(tree: QuerySyntaxTree, doc: Document) -> float:
    """Fraction of distinct query tokens that occur in the document body."""
    wanted = set(tree.leaves)
    if not wanted:
        return 0.0
    matched = wanted & set(tokenize(doc.body))
    return len(matched) / len(wanted)


def _meta_tags(meta: MetaRecord) -> set[str]:
    tags = set(meta.keywords)
    for tag, weight in meta.concepts.items():
        if weight >= CONCEPT_WEIGHT_THRESHOLD:
            tags.add(tag)
    return tags


def semantic_score(tree: QuerySyntaxTree, meta: MetaRecord) -> float:
    """Jaccard overlap between query tokens and metadata tags (0 when both empty)."""
    q = set(tree.leaves)
    k = _meta_tags(meta)
    union = q | k
    if not union:
        return 0.0
    return len(q & k) / len(union)


def analyze(tree: QuerySyntaxTree, index: InvertedIndex) -> list[CandidateFeatures]:
    """Score every syntactic candidate, in ascending doc-id order.

    Zero-semantic candidates are kept; rejection is the probability stage's
    job, not this one's.
    """
    wanted = dict.fromkeys(tree.leaves)  # first-occurrence order: the same lookups under any hash seed
    hits = Counter(chain.from_iterable(index.posting(token) for token in wanted))
    return [
        CandidateFeatures(doc_id, hits[doc_id] / len(wanted), semantic_score(tree, index.docs[doc_id].meta))
        for doc_id in sorted(hits)
    ]
