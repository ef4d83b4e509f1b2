"""Tokenizer and query syntax tree."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pswm import QuerySyntaxTree, build_syntax_tree, tokenize

# Criterion 6's character-level definition: maximal runs of `isalnum` characters of the lowered text.
from test_acceptance import naive_tokens


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
        # Non-ASCII that lowercases to ASCII: KELVIN SIGN to "k"; "İ" to "i" and a combining dot, a separator.
        assert tokenize("\u212aelvin \u0130stanbul") == ["kelvin", "i", "stanbul"]

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

    def test_every_ascii_character_matches_the_reference(self):
        for ch in map(chr, range(128)):
            # alone, between two letters, and at each end
            for text in (ch, f"aB{ch}Cd", f"{ch}xY", f"Xy{ch}"):
                assert tokenize(text) == naive_tokens(text), repr(text)

    @settings(max_examples=300, deadline=None)
    @given(text=st.text(st.characters(max_codepoint=127) | st.sampled_from("\u212a\u0130\u00df\u03a3\u00b2_")))
    def test_equals_the_reference_on_mixed_text(self, text):
        assert tokenize(text) == naive_tokens(text)


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
