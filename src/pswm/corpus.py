"""Corpus ingestion and the inverted index.

Corpus files are UTF-8 with one JSON record per line:

    {"id": "d1", "body": "plain text ...",
     "url": "http://...", "title": "...",
     "meta": {"keywords": ["web", "mining"], "concepts": {"search": 0.8}}}

`id` and `body` are required; `url`, `title`, and `meta` are optional. An
`id` may not hold a TAB, CR or LF, which would split its judgments line.

Index files (format v3) are UTF-8 text. Line 1 is the magic
``PSWM-INDEX v3``, line 2 is ``{"doc_count": N}`` (so truncation shows),
then exactly N document records, one per line, in strictly ascending id
order. A record is a positional JSON array, without key names:

    ["d1", "http://...", "...", "plain text ...", ["mining", "web"], {"search": 0.8}]

that is ``[id, url, title, body, keywords, concepts]``, keywords sorted.
Corpus and index records pass the same field checks. Postings are not
stored: an index derives a posting list from the bodies on each lookup, and
the full postings once lookups have tokenized as many bodies as the index
holds. An older ``PSWM-INDEX v1`` or ``v2`` file is rejected: re-ingest its
corpus.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import cached_property

from .errors import DataError
from .fileio import read_lines, write_text_atomic
from .query import tokenize

INDEX_MAGIC = "PSWM-INDEX v3"
_OLD_INDEX_MAGICS = ("PSWM-INDEX v1", "PSWM-INDEX v2")
_LONE_SURROGATE = re.compile("[\ud800-\udfff]")
# A judgments line splits on these, so no id may hold one.
_ID_BREAK = re.compile("[\t\r\n]")


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
            # A str tag with a float weight in [0, 1], the usual case, needs no further check or conversion.
            if type(weight) is not float or type(tag) is not str or not 0.0 <= weight <= 1.0:
                if not isinstance(tag, str):
                    raise ValueError(f"concept tag is not a string: {tag!r}")
                if isinstance(weight, bool) or not isinstance(weight, (int, float)):
                    raise ValueError(f"concept weight for {tag!r} is not a number: {weight!r}")
                if not 0 <= weight <= 1:  # before float(): an int may exceed the float range
                    raise ValueError(f"concept weight for {tag!r} outside [0, 1]: {weight}")
                weight = float(weight)
            tag = tag.strip().lower()
            if tag:
                norm_concepts[tag] = weight
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
    format v3).

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


def _parse_record(line: str, line_no: int) -> Document:
    """One corpus line, a JSON object, as a Document; DataError naming the line if it is invalid."""
    obj = _json_line(line, line_no)
    if not isinstance(obj, dict):
        raise DataError(f"line {line_no}: record is not a JSON object")
    raw_meta = obj.get("meta", {})
    if not isinstance(raw_meta, dict):
        raise DataError(f"line {line_no}: 'meta' must be an object")
    return _document(line, line_no, obj.get("id"), obj.get("url", ""), obj.get("title", ""), obj.get("body"),
                     raw_meta.get("keywords", []), raw_meta.get("concepts", {}))


def _parse_index_record(line: str, line_no: int) -> Document:
    """One index line, ``[id, url, title, body, keywords, concepts]``, as a Document; DataError naming the line."""
    fields = _json_line(line, line_no)
    if not isinstance(fields, list) or len(fields) != 6:
        raise DataError(f"line {line_no}: record is not an array [id, url, title, body, keywords, concepts]")
    return _document(line, line_no, *fields)


def _document(line: str, line_no: int, doc_id, url, title, body, keywords, concepts) -> Document:
    """The checks corpus and index records share: field types, tags, weights and lone surrogates."""
    if not isinstance(doc_id, str) or not doc_id:
        raise DataError(f"line {line_no}: missing or empty 'id'")
    if not isinstance(body, str):
        raise DataError(f"line {line_no}: missing 'body' string")
    if not isinstance(url, str) or not isinstance(title, str):
        raise DataError(f"line {line_no}: 'url' and 'title' must be strings")
    if not isinstance(keywords, list) or not isinstance(concepts, dict):
        raise DataError(
            f"line {line_no}: 'meta.keywords' must be an array and 'meta.concepts' an object"
        )
    try:
        meta = MetaRecord.from_raw(keywords, concepts)
    except ValueError as exc:
        raise DataError(f"line {line_no}: {exc}") from exc
    # No UTF-8 writer can encode a lone surrogate. The line was decoded as strict UTF-8,
    # so only a \u escape can have put one in a string: a line without a backslash has none.
    # Strict JSON holds no raw control character either, so the same holds for an id's TAB, CR or LF.
    if "\\" in line:
        if _ID_BREAK.search(doc_id):
            raise DataError(f"line {line_no}: 'id' holds a TAB, CR or LF: {doc_id!r}")
        for text in (doc_id, body, url, title, *meta.keywords, *meta.concepts):
            if not text.isascii() and (surrogate := _LONE_SURROGATE.search(text)):
                raise DataError(f"line {line_no}: string holds a lone surrogate {surrogate.group()!r}")
    return Document(id=doc_id, url=url, title=title, body=body, meta=meta)


_SCAN = json.JSONDecoder().scan_once


def _json_line(line: str, line_no: int):
    """Decode one JSON record line; DataError naming the line if it is malformed, too deep or has an over-long int.

    One scan decodes a line that is a single JSON value with no surrounding
    whitespace; any other line, and any line the scan rejects, goes to
    `json.loads`, so values and error messages are those of `json.loads`.
    """
    try:
        value, end = _SCAN(line, 0)
        if end == len(line):
            return value
    except (StopIteration, ValueError, RecursionError):
        pass
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
        doc = _parse_record(line, line_no)
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


def save_index(index: InvertedIndex, path) -> None:
    """Write `index` to `path` in index format v3 (see module doc), replacing the file atomically.

    Raises ValueError, writing nothing, if an id holds a TAB, CR or LF, which `load_index` rejects.
    """
    if _ID_BREAK.search("".join(index.docs)):
        bad = next(doc_id for doc_id in index.docs if _ID_BREAK.search(doc_id))
        raise ValueError(f"document id {bad!r} holds a TAB, CR or LF")
    lines = [INDEX_MAGIC, json.dumps({"doc_count": index.doc_count})]
    for doc_id in sorted(index.docs):
        doc = index.docs[doc_id]
        lines.append(_RECORD_ENCODER.encode(
            [doc.id, doc.url, doc.title, doc.body, sorted(doc.meta.keywords), doc.meta.concepts]
        ))
    write_text_atomic(path, "\n".join(lines) + "\n")


def load_index(path) -> InvertedIndex:
    """Read an index written by `save_index`; its postings are derived when looked up.

    Raises DataError on a bad magic line, a bad doc_count, fewer or more
    records than it announces, ids not strictly ascending, or a malformed
    record; never returns a partially loaded index.
    """
    lines = read_lines(path, "index")
    if lines and lines[0] in _OLD_INDEX_MAGICS:
        raise DataError(f"{path} is a {lines[0]} file; re-ingest the corpus to write {INDEX_MAGIC}")
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
        doc = _parse_index_record(line, line_no)
        if last_id is not None and doc.id <= last_id:
            raise DataError(f"line {line_no}: document id {doc.id!r} is not above {last_id!r}; ids must ascend")
        docs[doc.id] = doc
        last_id = doc.id
    return InvertedIndex(docs=docs)
