"""Candidate matching and the two feature scores."""

import pytest

from pswm import (
    CandidateFeatures,
    Document,
    InvertedIndex,
    MetaRecord,
    QuerySyntaxTree,
    analyze,
    build_index,
    build_syntax_tree,
    semantic_score,
    syntactic_score,
)
from pswm.scoring import CONCEPT_WEIGHT_THRESHOLD


class TestSyntacticScore:
    def test_full_match(self):
        tree = build_syntax_tree("semantic web mining")
        doc = Document(id="x", body="Semantic web mining rocks")
        assert syntactic_score(tree, doc) == 1.0

    def test_partial_match(self):
        tree = build_syntax_tree("semantic web mining")
        doc = Document(id="x", body="the web")
        assert syntactic_score(tree, doc) == pytest.approx(1 / 3)

    def test_distinct_tokens_counted_once(self):
        # a repeated query token must not change the denominator
        tree = build_syntax_tree("web web mining")
        doc = Document(id="x", body="web")
        assert syntactic_score(tree, doc) == 0.5

    def test_no_match(self):
        tree = build_syntax_tree("quantum")
        doc = Document(id="x", body="classical physics")
        assert syntactic_score(tree, doc) == 0.0

    def test_empty_body(self):
        tree = build_syntax_tree("semantic web mining")
        assert syntactic_score(tree, Document(id="x", body="")) == 0.0

    def test_body_frequency_is_irrelevant(self):
        tree = build_syntax_tree("web mining")
        doc = Document(id="x", body="web web web web")
        assert syntactic_score(tree, doc) == 0.5

    def test_empty_leaves_scores_zero(self):
        tree = QuerySyntaxTree(leaves=[])
        assert syntactic_score(tree, Document(id="x", body="anything")) == 0.0


class TestSemanticScore:
    def test_exact_overlap(self):
        tree = build_syntax_tree("semantic web mining")
        meta = MetaRecord.from_raw(["semantic", "web", "mining"], {})
        assert semantic_score(tree, meta) == 1.0

    def test_jaccard_partial(self):
        # Q = {a, b}, K = {b, c} -> 1/3
        tree = build_syntax_tree("a b")
        meta = MetaRecord.from_raw(["b", "c"], {})
        assert semantic_score(tree, meta) == pytest.approx(1 / 3)

    def test_jaccard_quarter(self):
        # Q = {semantic, web, mining}, K = {web, ontology} -> 1/4
        tree = build_syntax_tree("semantic web mining")
        meta = MetaRecord.from_raw(["web", "ontology"], {})
        assert semantic_score(tree, meta) == 0.25

    def test_concept_at_threshold_included(self):
        tree = build_syntax_tree("graph")
        meta = MetaRecord.from_raw([], {"graph": CONCEPT_WEIGHT_THRESHOLD})
        assert semantic_score(tree, meta) == 1.0

    def test_concept_below_threshold_excluded(self):
        tree = build_syntax_tree("graph")
        meta = MetaRecord.from_raw([], {"graph": 0.49})
        assert semantic_score(tree, meta) == 0.0

    def test_keywords_and_concepts_union(self):
        # Q = {a, b}, K = {a} | {b} -> Jaccard 1.0
        tree = build_syntax_tree("a b")
        meta = MetaRecord.from_raw(["a"], {"b": 0.9})
        assert semantic_score(tree, meta) == 1.0

    def test_no_metadata_scores_zero(self):
        tree = build_syntax_tree("anything")
        assert semantic_score(tree, MetaRecord()) == 0.0

    def test_empty_query_and_empty_meta(self):
        tree = QuerySyntaxTree(leaves=[])
        assert semantic_score(tree, MetaRecord()) == 0.0

    def test_duplicate_query_tokens_counted_once(self):
        tree = build_syntax_tree("web web")
        meta = MetaRecord.from_raw(["web"], {})
        assert semantic_score(tree, meta) == 1.0


class TestAnalyze:
    def test_fixture_walkthrough_query(self, fixture_index):
        tree = build_syntax_tree("semantic web mining")
        cands = analyze(tree, fixture_index)
        assert [c.doc_id for c in cands] == ["d01", "d13", "d14", "d15"]
        by_id = {c.doc_id: c for c in cands}
        assert by_id["d01"] == CandidateFeatures("d01", 1.0, 1.0)
        assert by_id["d13"].syntactic == pytest.approx(1 / 3)
        assert by_id["d13"].semantic == 0.0
        assert by_id["d15"] == CandidateFeatures("d15", 1.0, 0.0)

    def test_zero_semantic_candidates_kept(self, fixture_index):
        tree = build_syntax_tree("semantic web mining")
        cands = analyze(tree, fixture_index)
        assert any(c.semantic == 0.0 for c in cands)

    def test_no_candidates(self, fixture_index):
        tree = build_syntax_tree("zzzunseen")
        assert analyze(tree, fixture_index) == []

    def test_any_single_token_suffices(self):
        index = build_index([Document(id="a", body="alpha beta"), Document(id="b", body="gamma")])
        tree = build_syntax_tree("beta gamma")
        assert analyze(tree, index) == [CandidateFeatures("a", 0.5, 0.0), CandidateFeatures("b", 0.5, 0.0)]

    def test_partial_query_coverage_still_matches(self):
        index = build_index(
            [Document(id="d1", body="semantic web"), Document(id="d2", body="cooking")]
        )
        tree = build_syntax_tree("semantic web mining")
        assert analyze(tree, index) == [CandidateFeatures("d1", 2 / 3, 0.0)]

    def test_token_in_every_doc_matches_all(self):
        index = build_index(
            [Document(id=f"d{i}", body=f"common filler {i}") for i in range(5)]
        )
        tree = build_syntax_tree("common")
        assert analyze(tree, index) == [CandidateFeatures(f"d{i}", 1.0, 0.0) for i in range(5)]

    def test_looks_tokens_up_once_in_first_occurrence_order(self, monkeypatch):
        index = build_index([Document(id="a", body="alpha beta"), Document(id="b", body="gamma")])
        looked_up = []

        def spy(token):
            looked_up.append(token)
            return InvertedIndex.posting(index, token)

        monkeypatch.setattr(index, "posting", spy)
        analyze(build_syntax_tree("web zeta alpha web mining gamma beta zeta delta omega"), index)
        assert looked_up == ["web", "zeta", "alpha", "mining", "gamma", "beta", "delta", "omega"]

    def test_ascending_doc_id_order(self, fixture_index):
        tree = build_syntax_tree("web network index data")
        ids = [c.doc_id for c in analyze(tree, fixture_index)]
        assert ids == sorted(ids)

    def test_scores_in_unit_interval(self, fixture_index):
        for query in ("semantic web mining", "neural network training", "the data web"):
            for c in analyze(build_syntax_tree(query), fixture_index):
                assert 0.0 <= c.syntactic <= 1.0
                assert 0.0 <= c.semantic <= 1.0

    def test_candidates_always_have_positive_syntactic(self, fixture_index):
        # membership came from a posting hit, so the body shares >= 1 token
        for query in ("semantic web mining", "data index", "mining layers web"):
            for c in analyze(build_syntax_tree(query), fixture_index):
                assert c.syntactic > 0.0
