"""Seeded input generator: corpus, judgments and query stream.

Everything here is derived from one integer seed through `random.Random`,
so equal seeds give byte-identical files. The program under test only ever
sees the files written here and the argv built from the query stream.

Shape of the data:

- body vocabulary: synthetic six-letter words drawn from a Zipf(1) law, so a
  handful of tokens are in most documents and the long tail is rare; one
  word length keeps file sizes, and so parse and load costs, alike across
  seeds;
- metadata: keywords and concept tags drawn from the head of the vocabulary
  (ranks ``TAG_BAND``), concept weights uniform in [0.2, 0.8] so they straddle
  the 0.5 threshold; a tagged document usually mentions its tags in the body;
- queries: 1-3 tokens, about a third of them metadata tags, the rest spread
  log-uniformly by rank over the mid band ``BODY_BAND`` of the vocabulary;
- judgments: (query, doc, label) where the label is "tags overlap the query"
  with ``LABEL_NOISE`` of the labels flipped.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass

VOCAB_SIZE = 20_000
TAG_BAND = (30, 300)
BODY_BAND = (300, 3_000)
TAG_SHARE = 1 / 3
LABEL_NOISE = 0.1
TOP_K = 10

# Multipliers of the query stream's Weyl sequences: square roots of distinct
# primes, so the sequences are jointly equidistributed.
_WEYL = tuple(math.sqrt(p) % 1.0 for p in (2, 3, 5, 7, 11, 13, 17))
_CONSONANTS = "bcdfghjklmnprstvwz"
_VOWELS = "aeiou"


@dataclass(frozen=True)
class Doc:
    id: str
    body: str
    keywords: tuple[str, ...]
    concepts: tuple[tuple[str, float], ...]

    def record(self) -> dict:
        return {
            "id": self.id,
            "url": f"http://example.org/{self.id}",
            "title": f"document {self.id}",
            "body": self.body,
            "meta": {"keywords": list(self.keywords), "concepts": dict(self.concepts)},
        }


@dataclass(frozen=True)
class Query:
    text: str
    fmt: str
    top_k: int | None

    def argv(self, index: str, model: str) -> list[str]:
        argv = ["search", self.text, "--index", index, "--model", model, "--format", self.fmt]
        if self.top_k is not None:
            argv += ["--top-k", str(self.top_k)]
        return argv


class Generator:
    """All inputs of one workload run, derived from `seed`."""

    def __init__(self, seed: int):
        self.seed = seed
        rng = random.Random(f"vocab-{seed}")
        words: list[str] = []
        seen: set[str] = set()
        while len(words) < VOCAB_SIZE:
            word = "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(3))
            if word not in seen:
                seen.add(word)
                words.append(word)
        self.vocab = words
        self._cum_weights = list(itertools.accumulate(1.0 / r for r in range(1, VOCAB_SIZE + 1)))

    def docs(self, count: int, body_tokens: tuple[int, int] = (40, 80)) -> list[Doc]:
        rng = random.Random(f"docs-{self.seed}-{count}")
        docs: list[Doc] = []
        for i in range(count):
            body = rng.choices(self.vocab, cum_weights=self._cum_weights,
                               k=rng.randint(*body_tokens))
            tags = rng.sample(self.vocab[TAG_BAND[0]:TAG_BAND[1]], rng.randint(2, 6))
            n_kw = rng.randint(1, len(tags) - 1)
            keywords = tuple(tags[:n_kw])
            concepts = tuple((t, round(rng.uniform(0.2, 0.8), 3)) for t in tags[n_kw:])
            for tag in tags:
                if rng.random() < 0.7:
                    body.insert(rng.randrange(len(body) + 1), tag)
            docs.append(Doc(f"d{i:05d}", " ".join(body), keywords, concepts))
        return docs

    def query_texts(self, stream: str, count: int, lead_tag: bool = False) -> list[str]:
        """`count` queries of 1-3 tokens; with `lead_tag` the first token is always a tag.

        Token count, tag-or-body choice and vocabulary rank of query k come
        from Weyl sequences frac(offset + k * sqrt(p)), so every prefix of the
        stream covers the query mix evenly. The offsets depend on the stream,
        not the seed: each seed's queries hit the same Zipf ranks (with its own
        words, documents and tags), so query cost, and with it a run's latency
        percentiles, hardly depends on the seed.
        """
        rng = random.Random(f"queries-{stream}")
        offsets = [rng.random() for _ in _WEYL]

        def u(slot: int, k: int) -> float:
            return (offsets[slot] + k * _WEYL[slot]) % 1.0

        texts = []
        for k in range(count):
            tokens = []
            for j in range(1 + int(3 * u(0, k))):
                tag = (lead_tag and j == 0) or u(1 + 2 * j, k) < TAG_SHARE
                lo, hi = TAG_BAND if tag else BODY_BAND
                tokens.append(self.vocab[int(lo * (hi / lo) ** u(2 + 2 * j, k))])
            texts.append(" ".join(tokens))
        return texts

    def queries(self, stream: str, count: int, lead_tag: bool = False) -> list[Query]:
        """`count` search requests mixing text/machine output, with and without top-k."""
        rng = random.Random(f"formats-{self.seed}-{stream}")
        return [
            Query(text, rng.choice(("text", "machine")), rng.choice((None, TOP_K)))
            for text in self.query_texts(stream, count, lead_tag)
        ]

    def judgments(self, docs: list[Doc], count: int) -> list[tuple[str, str, int]]:
        """Judgments whose label is tag overlap, flipped with probability LABEL_NOISE.

        Two fifths pick a document tagged with a query token, two fifths a
        document mentioning one in its body, the rest any document.
        """
        rng = random.Random(f"judgments-{self.seed}-{len(docs)}")
        tagged: dict[str, list[Doc]] = {}
        mentioned: dict[str, list[Doc]] = {}
        for doc in docs:
            for tag in effective_tags(doc):
                tagged.setdefault(tag, []).append(doc)
            for token in set(doc.body.split()):
                mentioned.setdefault(token, []).append(doc)
        out = []
        for text in self.query_texts(f"judged-{len(docs)}", count):
            tokens = text.split()
            pick = rng.random()
            pool = tagged if pick < 0.4 else mentioned if pick < 0.8 else None
            choices = pool.get(rng.choice(tokens)) if pool is not None else None
            doc = rng.choice(choices) if choices else rng.choice(docs)
            label = int(bool(set(tokens) & effective_tags(doc)))
            if rng.random() < LABEL_NOISE:
                label = 1 - label
            out.append((text, doc.id, label))
        return out


def effective_tags(doc: Doc) -> set[str]:
    """Keywords plus concepts at or above the 0.5 weight threshold."""
    return set(doc.keywords) | {t for t, w in doc.concepts if w >= 0.5}


def write_corpus(docs: list[Doc], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            fh.write(json.dumps(doc.record(), sort_keys=True) + "\n")


def write_judgments(judgments: list[tuple[str, str, int]], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for query, doc_id, label in judgments:
            fh.write(f"{query}\t{doc_id}\t{label}\n")
