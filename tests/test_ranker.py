"""Probability attachment, cutoff filtering, and rendering."""

import json
import math

import numpy as np
import pytest

from pswm import (
    CandidateFeatures,
    Network,
    RankedResult,
    ResultPage,
    attach_probabilities,
    format_results,
    forward,
    init_weights,
    render,
)
from pswm.ranker import DEFAULT_CUTOFF


def make_results(pairs):
    return [RankedResult(doc_id=d, syntactic=0.0, semantic=0.0, probability=p) for d, p in pairs]


def test_candidates_and_results_carry_no_instance_dict():
    # One is built per candidate of every query; slots keep them small.
    for obj in (CandidateFeatures("a", 0.25, 0.75), RankedResult("a", 0.25, 0.75, 0.5)):
        assert not hasattr(obj, "__dict__")


class TestAttachProbabilities:
    def test_probability_is_network_output(self):
        net = init_weights([2, 3, 1], 17)
        cands = [CandidateFeatures("a", 0.25, 0.75), CandidateFeatures("b", 1.0, 0.0)]
        ranked = attach_probabilities(cands, net)
        for cand, res in zip(cands, ranked):
            expected = forward(net, [cand.syntactic, cand.semantic])[-1][0]
            assert res.probability == expected
            assert res.doc_id == cand.doc_id
            assert res.syntactic == cand.syntactic
            assert res.semantic == cand.semantic

    def test_order_preserved(self):
        net = init_weights([2, 2, 1], 3)
        cands = [CandidateFeatures(d, 0.5, 0.5) for d in ("z", "a", "m")]
        assert [r.doc_id for r in attach_probabilities(cands, net)] == ["z", "a", "m"]

    def test_probabilities_in_unit_interval(self):
        net = init_weights([2, 4, 1], 29)
        cands = [CandidateFeatures(str(i), s, m) for i, (s, m) in
                 enumerate([(0.0, 0.0), (1.0, 1.0), (0.3, 0.9)])]
        for r in attach_probabilities(cands, net):
            assert 0.0 < r.probability < 1.0

    def test_empty_input(self):
        assert attach_probabilities([], init_weights([2, 1], 0)) == []

    def test_zero_weight_network_yields_half(self):
        net = Network([2, 2, 1], [[[0.0] * 3, [0.0] * 3], [[0.0] * 3]])
        cands = [CandidateFeatures("a", 0.1, 0.9), CandidateFeatures("b", 1.0, 0.0)]
        assert [r.probability for r in attach_probabilities(cands, net)] == [0.5, 0.5]

    def test_hand_set_network_oracle(self):
        # single unit: sigmoid(1.0 * 0.3 + 1.0 * 0.4 + 0.1) for candidate (1, 1)
        net = Network([2, 1], [[[0.3, 0.4, 0.1]]])
        (res,) = attach_probabilities([CandidateFeatures("d", 1.0, 1.0)], net)
        assert res.probability == pytest.approx(1.0 / (1.0 + math.exp(-0.8)), rel=1e-14)

    def test_wrong_input_width_rejected(self):
        with pytest.raises(ValueError, match="2 features"):
            attach_probabilities([], init_weights([3, 1], 0))

    def test_wrong_output_width_rejected(self):
        with pytest.raises(ValueError, match="1 output"):
            attach_probabilities([], init_weights([2, 2], 0))


class TestFormatResults:
    def test_sorts_by_probability_descending(self):
        page = format_results(make_results([("a", 0.2), ("b", 0.9), ("c", 0.5)]), cutoff=0.0)
        assert [r.doc_id for r in page.results] == ["b", "c", "a"]

    def test_ties_break_by_doc_id(self):
        page = format_results(make_results([("z", 0.7), ("a", 0.7), ("m", 0.7)]), cutoff=0.0)
        assert [r.doc_id for r in page.results] == ["a", "m", "z"]

    def test_cutoff_is_inclusive(self):
        page = format_results(make_results([("a", 0.5), ("b", 0.4999)]), cutoff=0.5)
        assert [r.doc_id for r in page.results] == ["a"]

    def test_hand_filter_and_sort(self):
        ranked = make_results([("p", 0.2), ("q", 0.9), ("r", 0.5)])
        page = format_results(ranked, cutoff=0.4)
        assert [(r.doc_id, r.probability) for r in page.results] == [("q", 0.9), ("r", 0.5)]

    def test_total_candidates_counts_prefilter(self):
        page = format_results(make_results([("a", 0.9), ("b", 0.1)]), cutoff=0.5)
        assert page.total_candidates == 2
        assert len(page.results) == 1

    def test_top_k_truncates_after_sort(self):
        ranked = make_results([("a", 0.2), ("b", 0.9), ("c", 0.5)])
        page = format_results(ranked, cutoff=0.0, top_k=2)
        assert [r.doc_id for r in page.results] == ["b", "c"]

    def test_top_k_none_keeps_all(self):
        page = format_results(make_results([("a", 0.6), ("b", 0.7)]), cutoff=0.0, top_k=None)
        assert len(page.results) == 2

    def test_input_list_not_reordered(self):
        ranked = make_results([("a", 0.2), ("b", 0.9)])
        format_results(ranked, cutoff=0.0)
        assert [r.doc_id for r in ranked] == ["a", "b"]

    def test_query_recorded(self):
        page = format_results([], cutoff=0.5, query="semantic web mining")
        assert page.query == "semantic web mining"
        assert page.cutoff == 0.5
        assert page.results == []

    def test_default_cutoff_constant(self):
        assert DEFAULT_CUTOFF == 0.5

    def test_cutoff_out_of_range(self):
        with pytest.raises(ValueError, match="cutoff"):
            format_results([], cutoff=-0.1)
        with pytest.raises(ValueError, match="cutoff"):
            format_results([], cutoff=1.01)

    def test_bad_top_k(self):
        with pytest.raises(ValueError, match="top_k"):
            format_results([], cutoff=0.5, top_k=0)


class TestRenderText:
    def test_table_layout(self):
        page = ResultPage(
            query="q",
            results=make_results([("doc-a", 0.875), ("b", 0.25)]),
            cutoff=0.0,
            total_candidates=2,
        )
        text = render(page, "text")
        lines = text.splitlines()
        assert lines[0] == "rank  doc_id  probability  syntactic  semantic"
        assert lines[1] == "   1  doc-a        0.8750     0.0000    0.0000"
        assert lines[2] == "   2  b            0.2500     0.0000    0.0000"
        assert lines[3] == "2 results"

    def test_empty_page(self):
        text = render(ResultPage(query="q"), "text")
        assert text.splitlines()[-1] == "0 results"

    def test_id_column_grows_with_long_ids(self):
        page = ResultPage(query="q", results=make_results([("averylongdocumentid", 0.5)]))
        header, row, _ = render(page, "text").splitlines()
        assert "averylongdocumentid" in row
        assert len(header) == len(row)
        # right-aligned columns end at the same character position
        assert header.index("probability") + len("probability") == row.index("0.5000") + len("0.5000")

    def test_default_mode_is_text(self):
        page = ResultPage(query="q")
        assert render(page) == render(page, "text")


class TestRenderMachine:
    def test_payload_shape(self):
        page = ResultPage(
            query="semantic web mining",
            results=[RankedResult("d01", 1.0, 1.0, 0.9961)],
            cutoff=0.5,
            total_candidates=4,
        )
        payload = json.loads(render(page, "machine"))
        assert payload == {
            "query": "semantic web mining",
            "cutoff": 0.5,
            "total_candidates": 4,
            "results": [
                {"rank": 1, "doc_id": "d01", "probability": 0.9961, "syntactic": 1.0, "semantic": 1.0}
            ],
        }

    def test_single_line(self):
        page = ResultPage(query="q", results=make_results([("a", 0.5), ("b", 0.4)]))
        assert "\n" not in render(page, "machine")

    def test_parse_back_equals_page(self):
        page = format_results(
            make_results([("b", 0.7), ("a", 0.7), ("c", 0.2)]), cutoff=0.5, query="two ties"
        )
        payload = json.loads(render(page, "machine"))
        assert payload["query"] == page.query
        assert payload["cutoff"] == page.cutoff
        assert payload["total_candidates"] == page.total_candidates
        assert [(r["doc_id"], r["probability"]) for r in payload["results"]] == [
            (r.doc_id, r.probability) for r in page.results
        ]

    def test_ranks_are_one_based_and_sequential(self):
        page = ResultPage(query="q", results=make_results([("a", 0.9), ("b", 0.8), ("c", 0.7)]))
        payload = json.loads(render(page, "machine"))
        assert [r["rank"] for r in payload["results"]] == [1, 2, 3]

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="render mode"):
            render(ResultPage(query="q"), "xml")


class TestRoundTripThroughNetwork:
    def test_pipeline_shape(self):
        rng = np.random.default_rng(101)
        net = init_weights([2, 4, 1], 55)
        cands = [
            CandidateFeatures(f"d{i:03d}", float(rng.uniform()), float(rng.uniform()))
            for i in range(25)
        ]
        ranked = attach_probabilities(cands, net)
        page = format_results(ranked, cutoff=0.0, top_k=10, query="q")
        assert len(page.results) == 10
        probs = [r.probability for r in page.results]
        assert probs == sorted(probs, reverse=True)
        assert page.total_candidates == 25
