"""Query parsing: raw strings to flat syntax trees of search tokens."""

from __future__ import annotations

import re
from dataclasses import dataclass

# Alphanumeric runs (unicode-aware); underscore is a separator, not a token char.
_TOKEN_RE = re.compile(r"[^\W_]+")


def tokenize(text: str) -> list[str]:
    """Lowercase `text` and split it into alphanumeric runs.

    Queries and document bodies share it, so matching and scoring agree on
    what a token is; metadata tags are never tokenized, only stripped and
    lowercased whole. Empty input yields an empty list.
    """
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
