"""Query parsing: raw strings to flat syntax trees of search tokens."""

from __future__ import annotations

import re
from dataclasses import dataclass

# Alphanumeric runs (unicode-aware); underscore is a separator, not a token char.
_TOKEN_RE = re.compile(r"[^\W_]+")

# The same rule on ASCII bytes: A-Z fold to a-z, 0-9 and a-z stay, every other byte becomes a space.
_ASCII_FOLD = bytes(b if chr(b).isalnum() and b < 128 else 32 for b in range(256)).lower()


def tokenize(text: str) -> list[str]:
    """Lowercase `text` and split it into alphanumeric runs.

    Queries and document bodies share it, so matching and scoring agree on
    what a token is; metadata tags are never tokenized, only stripped and
    lowercased whole. Empty input yields an empty list.

    ASCII text takes a faster route with the same result: one byte
    translation folds case and turns every non-alphanumeric byte into a
    space, then a whitespace split. On ASCII, `isalnum` is exactly
    ``[0-9A-Za-z]`` and `lower` maps only ``A-Z``. Any other text, such as
    ``\u212a`` (Kelvin sign, which lowercases to ``k``), goes through the regex.
    """
    if text.isascii():
        return text.encode().translate(_ASCII_FOLD).decode().split()
    return _TOKEN_RE.findall(text.lower())


@dataclass
class QuerySyntaxTree:
    """Root of a parsed query: its ordered leaf tokens."""

    leaves: list[str]


def build_syntax_tree(query: str) -> QuerySyntaxTree:
    """Parse `query` into a syntax tree whose leaves are its tokens.

    Raises ValueError when the query contains no searchable tokens.
    """
    leaves = tokenize(query)
    if not leaves:
        raise ValueError("empty query: no searchable tokens")
    return QuerySyntaxTree(leaves=leaves)
