"""Tokenizer and query syntax tree."""

import numpy as np
import pytest

from pswm import QuerySyntaxTree, build_syntax_tree, tokenize


class TestTokenize:
    def test_basic_query(self):
        assert tokenize("Semantic Web Mining") == ["semantic", "web", "mining"]

    def test_punctuation_splits(self):
        assert tokenize("Web-Mining,  2024!") == ["web", "mining", "2024"]

    def test_underscore_is_a_separator(self):
        assert tokenize("foo_bar") == ["foo", "bar"]

    def test_digits_kept(self):
        assert tokenize("ipv6 addr 2001") == ["ipv6", "addr", "2001"]

    def test_empty_and_symbol_only(self):
        assert tokenize("") == []
        assert tokenize("   \t\n") == []
        assert tokenize("!!! ### ,,,") == []

    def test_unicode_letters(self):
        assert tokenize("Ünïcode søk") == ["ünïcode", "søk"]

    def test_preserves_order_and_duplicates(self):
        assert tokenize("web web mining web") == ["web", "web", "mining", "web"]

    def test_idempotent_on_own_output(self):
        # joining tokens with spaces and re-tokenizing must be a fixed point
        rng = np.random.default_rng(11)
        alphabet = list("abc XYZ 012,.;:-_!?/()\"'éÜßİ \t")
        for _ in range(300):
            text = "".join(rng.choice(alphabet) for _ in range(int(rng.integers(0, 40))))
            once = tokenize(text)
            assert tokenize(" ".join(once)) == once

    def test_tokens_are_lowercase(self):
        for token in tokenize("MIXED Case ÉTÉ"):
            assert token == token.lower()


class TestBuildSyntaxTree:
    def test_leaves_and_raw(self):
        tree = build_syntax_tree("Semantic Web Mining")
        assert isinstance(tree, QuerySyntaxTree)
        assert tree.leaves == ["semantic", "web", "mining"]

    def test_empty_query_rejected(self):
        with pytest.raises(ValueError, match="no searchable tokens"):
            build_syntax_tree("")

    def test_symbol_only_query_rejected(self):
        with pytest.raises(ValueError):
            build_syntax_tree("??? !!!")

    def test_single_token(self):
        assert build_syntax_tree("mining").leaves == ["mining"]
