"""Judgment parsing, example building, and model evaluation."""

import re

import pytest

from pswm import (
    DataError,
    Judgment,
    Network,
    build_index,
    build_syntax_tree,
    evaluate,
    judgments_to_examples,
    parse_judgments_file,
    semantic_score,
    syntactic_score,
)
from pswm.corpus import Document

from conftest import JUDGMENTS_PATH


def semantic_only_net(gain: float = 100.0) -> Network:
    # single layer driven by the semantic feature: near-1 when it is set,
    # near-0 when it is not
    return Network([2, 1], [[[0.0, gain, -gain / 2.0]]])


class TestParseJudgmentsFile:
    def test_fixture(self, fixture_judgments):
        assert len(fixture_judgments) == 26
        assert fixture_judgments[0] == Judgment("semantic web mining", "d01", 1)
        assert {j.label for j in fixture_judgments} == {0, 1}

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "j.tsv"
        path.write_text("# header\n\nq one\td1\t1\n   \nq two\td2\t0\n", encoding="utf-8")
        judgments = parse_judgments_file(path)
        assert [(j.query, j.doc_id, j.label) for j in judgments] == [
            ("q one", "d1", 1),
            ("q two", "d2", 0),
        ]

    def test_field_count_enforced(self, tmp_path):
        path = tmp_path / "j.tsv"
        path.write_text("q\td1\n", encoding="utf-8")
        with pytest.raises(DataError, match="line 1.*fields"):
            parse_judgments_file(path)
        path.write_text("q\td1\t1\textra\n", encoding="utf-8")
        with pytest.raises(DataError, match="4 fields"):
            parse_judgments_file(path)

    def test_label_must_be_binary(self, tmp_path):
        path = tmp_path / "j.tsv"
        path.write_text("q\td1\t2\n", encoding="utf-8")
        with pytest.raises(DataError, match="label"):
            parse_judgments_file(path)
        path.write_text("q\td1\tyes\n", encoding="utf-8")
        with pytest.raises(DataError, match="label"):
            parse_judgments_file(path)

    def test_empty_doc_id(self, tmp_path):
        path = tmp_path / "j.tsv"
        path.write_text("q\t\t1\n", encoding="utf-8")
        with pytest.raises(DataError, match="doc_id"):
            parse_judgments_file(path)

    @pytest.mark.parametrize("query", ["!!!", "", "_ - _"])
    def test_tokenless_query_names_its_line(self, tmp_path, query):
        path = tmp_path / "j.tsv"
        path.write_text(f"web\td01\t1\n{query}\td02\t0\n", encoding="utf-8")
        with pytest.raises(DataError, match=f"^line 2: query has no searchable tokens: {re.escape(repr(query))}$"):
            parse_judgments_file(path)

    def test_error_names_offending_line(self, tmp_path):
        path = tmp_path / "j.tsv"
        path.write_text("q\td1\t1\nq\td2\t5\n", encoding="utf-8")
        with pytest.raises(DataError, match="line 2"):
            parse_judgments_file(path)

    @pytest.mark.parametrize("text", ["", "# header\n\n   \n"], ids=["empty", "comments-and-blanks"])
    def test_file_without_judgments_is_data_error(self, tmp_path, text):
        path = tmp_path / "j.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DataError, match=f"^judgments file {re.escape(str(path))} contains no judgments$"):
            parse_judgments_file(path)

    def test_query_may_contain_spaces(self, tmp_path):
        path = tmp_path / "j.tsv"
        path.write_text("three word query\td9\t0\n", encoding="utf-8")
        (j,) = parse_judgments_file(path)
        assert j.query == "three word query"


class TestJudgmentsToExamples:
    def test_features_match_scoring(self, fixture_index, fixture_judgments):
        examples = judgments_to_examples(fixture_judgments, fixture_index)
        assert len(examples) == len(fixture_judgments)
        for j, ex in zip(fixture_judgments, examples):
            tree = build_syntax_tree(j.query)
            doc = fixture_index.docs[j.doc_id]
            assert ex.features == [syntactic_score(tree, doc), semantic_score(tree, doc.meta)]
            assert ex.desired == [float(j.label)]

    def test_walkthrough_features(self, fixture_index, fixture_judgments):
        examples = judgments_to_examples(fixture_judgments, fixture_index)
        by_pair = {
            (j.query, j.doc_id): ex.features for j, ex in zip(fixture_judgments, examples)
        }
        assert by_pair[("semantic web mining", "d01")] == [1.0, 1.0]
        assert by_pair[("semantic web mining", "d15")] == [1.0, 0.0]
        assert by_pair[("semantic web mining", "d13")] == [pytest.approx(1 / 3), 0.0]

    def test_non_candidate_docs_kept(self, fixture_index):
        # doc without any query token still yields a (0, semantic) example
        judgments = [Judgment("probability ranking cutoff", "d20", 0)]
        (ex,) = judgments_to_examples(judgments, fixture_index)
        assert ex.features == [0.0, 0.0]

    def test_unknown_doc_id(self, fixture_index):
        with pytest.raises(DataError, match="unknown doc id 'ghost'"):
            judgments_to_examples([Judgment("web", "ghost", 1)], fixture_index)

    def test_tokenless_query(self, fixture_index):
        # `parse_judgments_file` refuses such a line, so only a Judgment built in Python reaches this.
        with pytest.raises(ValueError, match="no searchable tokens"):
            judgments_to_examples([Judgment("!!!", "d01", 1)], fixture_index)

    def test_empty_input(self, fixture_index):
        assert judgments_to_examples([], fixture_index) == []


class TestEvaluate:
    def test_perfect_network(self, fixture_index, fixture_judgments):
        report = evaluate(semantic_only_net(), fixture_judgments, fixture_index)
        assert report["count"] == 26
        assert report["accuracy_at_0.5"] == 1.0
        assert report["mean_error"] == pytest.approx(0.0, abs=1e-10)

    def test_inverted_network_fails(self, fixture_index, fixture_judgments):
        report = evaluate(semantic_only_net(gain=-100.0), fixture_judgments, fixture_index)
        assert report["accuracy_at_0.5"] == 0.0

    def test_indifferent_network_predicts_relevant(self, fixture_index, fixture_judgments):
        # all-zero weights give exactly 0.5, which counts as relevant
        net = Network([2, 1], [[[0.0] * 3]])
        report = evaluate(net, fixture_judgments, fixture_index)
        positives = sum(1 for j in fixture_judgments if j.label == 1)
        assert report["accuracy_at_0.5"] == pytest.approx(positives / len(fixture_judgments))

    def test_mean_error_definition(self, fixture_index):
        judgments = [Judgment("semantic web mining", "d01", 1)]
        net = Network([2, 1], [[[0.0] * 3]])
        report = evaluate(net, judgments, fixture_index)
        # output is exactly 0.5 against desired 1.0
        assert report["mean_error"] == pytest.approx(0.5 * 0.25)

    def test_empty_judgments_rejected(self, fixture_index):
        with pytest.raises(ValueError, match="empty"):
            evaluate(semantic_only_net(), [], fixture_index)

    def test_training_does_not_hurt_accuracy(self, fixture_index, fixture_judgments):
        from pswm import init_weights, train

        examples = judgments_to_examples(fixture_judgments, fixture_index)
        net = init_weights([2, 4, 1], 42)
        untrained = evaluate(net, fixture_judgments, fixture_index)["accuracy_at_0.5"]
        net, _ = train(net, examples, epochs=300, learning_rate=0.5, seed=42)
        trained = evaluate(net, fixture_judgments, fixture_index)["accuracy_at_0.5"]
        assert trained >= untrained

    def test_unknown_doc_surfaces_as_data_error(self):
        index = build_index([Document(id="a", body="x")])
        with pytest.raises(DataError):
            evaluate(semantic_only_net(), [Judgment("x", "missing", 1)], index)
