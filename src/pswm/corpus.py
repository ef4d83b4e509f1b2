"""Corpus ingestion and the inverted index.

Corpus files are UTF-8 with one JSON record per line:

    {"id": "d1", "body": "plain text ...",
     "url": "http://...", "title": "...",
     "meta": {"keywords": ["web", "mining"], "concepts": {"search": 0.8}}}

`id` and `body` are required; `url`, `title`, and `meta` are optional.

Index files (format v2) are UTF-8 text. Line 1 is the magic
``PSWM-INDEX v2``, line 2 is ``{"doc_count": N}`` (so truncation shows),
then exactly N document records, one per line, in strictly ascending id
order. Postings are not stored: an index derives a posting list from the
bodies on each lookup, and the full postings once lookups have tokenized as
many bodies as the index holds. An older ``PSWM-INDEX v1`` file is
rejected: re-ingest its corpus.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

from .errors import DataError
from .fileio import read_lines, write_text_atomic
from .query import tokenize

INDEX_MAGIC = "PSWM-INDEX v2"
_INDEX_MAGIC_V1 = "PSWM-INDEX v1"


@dataclass
class MetaRecord:
    """Keyword and weighted concept tags describing what a document means."""

    keywords: set[str] = field(default_factory=set)
    concepts: dict[str, float] = field(default_factory=dict)

    @classmethod
    def from_raw(cls, keywords, concepts) -> MetaRecord:
        """Build a normalized record from raw tag data.

        Keywords and concept tags are stripped and lowercased; empty tags are
        dropped. Raises ValueError on non-string tags or concept weights
        outside [0, 1].
        """
        norm_kw: set[str] = set()
        for kw in keywords:
            if not isinstance(kw, str):
                raise ValueError(f"keyword is not a string: {kw!r}")
            kw = kw.strip().lower()
            if kw:
                norm_kw.add(kw)
        norm_concepts: dict[str, float] = {}
        for tag, weight in concepts.items():
            if not isinstance(tag, str):
                raise ValueError(f"concept tag is not a string: {tag!r}")
            if isinstance(weight, bool) or not isinstance(weight, (int, float)):
                raise ValueError(f"concept weight for {tag!r} is not a number: {weight!r}")
            if not 0 <= weight <= 1:  # before float(): an int may exceed the float range
                raise ValueError(f"concept weight for {tag!r} outside [0, 1]: {weight}")
            w = float(weight)
            tag = tag.strip().lower()
            if tag:
                norm_concepts[tag] = w
        return cls(keywords=norm_kw, concepts=norm_concepts)


@dataclass
class Document:
    """One searchable item: identifier, display fields, body text, metadata."""

    id: str
    url: str = ""
    title: str = ""
    body: str = ""
    meta: MetaRecord = field(default_factory=MetaRecord)


@dataclass
class InvertedIndex:
    """Immutable-by-convention token index over a document set.

    `docs` maps ids to documents and is the index's only field; postings
    are derived from it on demand, so they cannot disagree with `docs`
    unless `docs` is changed after a read. Only `docs` is saved (index
    format v2).

    `posting(token)` gives one token's ascending id list. Until the full
    view exists, each lookup lowercases every body, tokenizes those that
    contain the token as a substring, and adds their number to a count.
    `postings` is the full view, built by tokenizing every body; a lookup
    builds it once the count has reached `doc_count`. One lookup may pass
    every body, so lookups tokenize at most ``2 * doc_count - 1`` bodies
    before the build tokenizes `doc_count` more. No command reads
    `postings` itself (`ingest` counts distinct tokens with `tokenize`
    alone); a cold `search` reaches the switch only with a query of many
    tokens common in the bodies.
    """

    docs: dict[str, Document] = field(default_factory=dict)

    @property
    def doc_count(self) -> int:
        return len(self.docs)

    @cached_property
    def postings(self) -> dict[str, list[str]]:
        postings: dict[str, list[str]] = {}
        for doc_id in sorted(self.docs):
            for token in set(tokenize(self.docs[doc_id].body)):
                postings.setdefault(token, []).append(doc_id)
        return postings

    def posting(self, token: str) -> list[str]:
        """The ascending ids of the documents whose body has `token`: ``postings.get(token, [])``."""
        tokenized = vars(self).get("_bodies_tokenized", 0)
        if "postings" in vars(self) or tokenized >= self.doc_count:
            return self.postings.get(token, [])
        # Every token of a body is a substring of its lowered text, so this test only filters.
        passed = [doc_id for doc_id, doc in self.docs.items() if token in doc.body.lower()]
        vars(self)["_bodies_tokenized"] = tokenized + len(passed)
        return sorted(doc_id for doc_id in passed if token in tokenize(self.docs[doc_id].body))


def _parse_record(obj, line_no: int) -> Document:
    if not isinstance(obj, dict):
        raise DataError(f"line {line_no}: record is not a JSON object")
    doc_id = obj.get("id")
    if not isinstance(doc_id, str) or not doc_id:
        raise DataError(f"line {line_no}: missing or empty 'id'")
    body = obj.get("body")
    if not isinstance(body, str):
        raise DataError(f"line {line_no}: missing 'body' string")
    url = obj.get("url", "")
    title = obj.get("title", "")
    if not isinstance(url, str) or not isinstance(title, str):
        raise DataError(f"line {line_no}: 'url' and 'title' must be strings")
    raw_meta = obj.get("meta", {})
    if not isinstance(raw_meta, dict):
        raise DataError(f"line {line_no}: 'meta' must be an object")
    keywords = raw_meta.get("keywords", [])
    concepts = raw_meta.get("concepts", {})
    if not isinstance(keywords, list) or not isinstance(concepts, dict):
        raise DataError(
            f"line {line_no}: 'meta.keywords' must be an array and 'meta.concepts' an object"
        )
    try:
        meta = MetaRecord.from_raw(keywords, concepts)
    except ValueError as exc:
        raise DataError(f"line {line_no}: {exc}") from exc
    return Document(id=doc_id, url=url, title=title, body=body, meta=meta)


def _json_line(line: str, line_no: int):
    """Decode one JSON record line; DataError naming the line if it is malformed, too deep or has an over-long int."""
    try:
        return json.loads(line)
    except (ValueError, RecursionError) as exc:
        raise DataError(f"line {line_no}: invalid JSON: {exc}") from exc


def parse_corpus_file(path) -> list[Document]:
    """Read a line-delimited corpus file into documents, in file order.

    Blank lines are skipped. Raises DataError on unreadable files, malformed
    lines (naming the line number), or duplicate ids (naming the id).
    """
    docs: list[Document] = []
    seen: set[str] = set()
    for line_no, line in enumerate(read_lines(path, "corpus"), start=1):
        if not line.strip():
            continue
        doc = _parse_record(_json_line(line, line_no), line_no)
        if doc.id in seen:
            raise DataError(f"line {line_no}: duplicate document id {doc.id!r}")
        seen.add(doc.id)
        docs.append(doc)
    return docs


def build_index(docs: list[Document]) -> InvertedIndex:
    """Build the inverted index over `docs`.

    Maps each id to its document; postings are derived on lookup (see
    `InvertedIndex`). Raises ValueError on a duplicate id.
    """
    doc_map: dict[str, Document] = {}
    for doc in docs:
        if doc.id in doc_map:
            raise ValueError(f"duplicate document id {doc.id!r}")
        doc_map[doc.id] = doc
    return InvertedIndex(docs=doc_map)


_RECORD_ENCODER = json.JSONEncoder(ensure_ascii=False, sort_keys=True, separators=(",", ":"))


def _doc_to_json(doc: Document) -> str:
    payload = {
        "id": doc.id,
        "url": doc.url,
        "title": doc.title,
        "body": doc.body,
        "meta": {
            "keywords": sorted(doc.meta.keywords),
            "concepts": doc.meta.concepts,
        },
    }
    return _RECORD_ENCODER.encode(payload)


def save_index(index: InvertedIndex, path) -> None:
    """Write `index` to `path` in index format v2 (see module doc), replacing the file atomically."""
    lines = [INDEX_MAGIC, json.dumps({"doc_count": index.doc_count})]
    for doc_id in sorted(index.docs):
        lines.append(_doc_to_json(index.docs[doc_id]))
    write_text_atomic(path, "\n".join(lines) + "\n")


def load_index(path) -> InvertedIndex:
    """Read an index written by `save_index`; its postings are derived when looked up.

    Raises DataError on a bad magic line, a bad doc_count, fewer or more
    records than it announces, ids not strictly ascending, or a malformed
    record; never returns a partially loaded index.
    """
    lines = read_lines(path, "index")
    if lines and lines[0] == _INDEX_MAGIC_V1:
        raise DataError(f"{path} is a {_INDEX_MAGIC_V1} file; re-ingest the corpus to write {INDEX_MAGIC}")
    if not lines or lines[0] != INDEX_MAGIC:
        raise DataError(f"not a {INDEX_MAGIC} file: {path}")
    if len(lines) < 2:
        raise DataError("truncated index file: expected doc count header at line 2")

    header = _json_line(lines[1], 2)
    doc_count = header.get("doc_count") if isinstance(header, dict) else None
    if type(doc_count) is not int or doc_count < 0:
        raise DataError(f"line 2: invalid doc_count {doc_count!r}")
    records = lines[2:]
    if len(records) < doc_count:
        raise DataError(f"truncated index file: expected {doc_count} document records, found {len(records)}")
    if any(line.strip() for line in records[doc_count:]):
        raise DataError(f"trailing content after line {doc_count + 2}: more than {doc_count} document records")

    docs: dict[str, Document] = {}
    last_id = None
    for line_no, line in enumerate(records[:doc_count], start=3):
        doc = _parse_record(_json_line(line, line_no), line_no)
        if last_id is not None and doc.id <= last_id:
            raise DataError(f"line {line_no}: document id {doc.id!r} is not above {last_id!r}; ids must ascend")
        docs[doc.id] = doc
        last_id = doc.id
    return InvertedIndex(docs=docs)
