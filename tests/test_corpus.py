"""Corpus parsing, index construction, and index persistence."""

import json

import pytest

from pswm import (
    DataError,
    Document,
    InvertedIndex,
    MetaRecord,
    analyze,
    build_index,
    build_syntax_tree,
    evaluate,
    init_weights,
    judgments_to_examples,
    load_index,
    parse_corpus_file,
    save_index,
)
from pswm.corpus import INDEX_MAGIC

from conftest import CORPUS_PATH


class TestMetaRecord:
    def test_normalizes_keywords(self):
        meta = MetaRecord.from_raw(["  Web ", "MINING", "web"], {})
        assert meta.keywords == {"web", "mining"}

    def test_drops_empty_keywords(self):
        meta = MetaRecord.from_raw(["", "   ", "ok"], {})
        assert meta.keywords == {"ok"}

    def test_normalizes_concept_tags(self):
        meta = MetaRecord.from_raw([], {" Search ": 0.8})
        assert meta.concepts == {"search": 0.8}

    def test_boundary_weights_accepted(self):
        meta = MetaRecord.from_raw([], {"a": 0.0, "b": 1.0, "c": 1})
        assert meta.concepts == {"a": 0.0, "b": 1.0, "c": 1.0}

    def test_non_string_keyword_rejected(self):
        with pytest.raises(ValueError, match="keyword"):
            MetaRecord.from_raw([42], {})

    def test_non_string_concept_tag_rejected(self):
        with pytest.raises(ValueError, match="concept tag"):
            MetaRecord.from_raw([], {3: 0.5})

    def test_bool_weight_rejected(self):
        with pytest.raises(ValueError, match="not a number"):
            MetaRecord.from_raw([], {"x": True})

    def test_string_weight_rejected(self):
        with pytest.raises(ValueError, match="not a number"):
            MetaRecord.from_raw([], {"x": "0.5"})

    def test_out_of_range_weight_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            MetaRecord.from_raw([], {"x": 1.5})
        with pytest.raises(ValueError, match="outside"):
            MetaRecord.from_raw([], {"x": -0.1})
        for huge in (10**400, -10**400):
            with pytest.raises(ValueError, match="outside"):
                MetaRecord.from_raw([], {"x": huge})


class TestParseCorpusFile:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("", encoding="utf-8")
        assert parse_corpus_file(path) == []

    def test_fixture_parses(self):
        docs = parse_corpus_file(CORPUS_PATH)
        assert len(docs) == 20
        assert [d.id for d in docs] == [f"d{i:02d}" for i in range(1, 21)]

    def test_optional_fields_default(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "a", "body": "text"}\n', encoding="utf-8")
        (doc,) = parse_corpus_file(path)
        assert doc == Document(id="a", body="text")
        assert doc.url == "" and doc.title == ""
        assert doc.meta == MetaRecord()

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            '{"id": "a", "body": "x"}\n\n   \n{"id": "b", "body": "y"}\n', encoding="utf-8"
        )
        docs = parse_corpus_file(path)
        assert [d.id for d in docs] == ["a", "b"]

    def test_unicode_line_separators_stay_inside_a_record(self, tmp_path):
        path = tmp_path / "c.jsonl"
        body = "semantic web\u2028mining\u2029and\x85more"
        path.write_text(json.dumps({"id": "a", "body": body}, ensure_ascii=False) + "\n", encoding="utf-8")
        assert parse_corpus_file(path) == [Document(id="a", body=body)]

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "a", "body": "x"}\n{oops\n', encoding="utf-8")
        with pytest.raises(DataError, match="line 2"):
            parse_corpus_file(path)

    def test_missing_id(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"body": "x"}\n', encoding="utf-8")
        with pytest.raises(DataError, match="line 1.*'id'"):
            parse_corpus_file(path)

    def test_missing_body(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "a"}\n', encoding="utf-8")
        with pytest.raises(DataError, match="'body'"):
            parse_corpus_file(path)

    def test_non_object_record(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('[1, 2]\n', encoding="utf-8")
        with pytest.raises(DataError, match="not a JSON object"):
            parse_corpus_file(path)

    def test_duplicate_id_names_both(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "a", "body": "x"}\n{"id": "a", "body": "y"}\n', encoding="utf-8")
        with pytest.raises(DataError, match="line 2.*duplicate document id 'a'"):
            parse_corpus_file(path)

    def test_bad_meta_shape(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "a", "body": "x", "meta": 7}\n', encoding="utf-8")
        with pytest.raises(DataError, match="'meta'"):
            parse_corpus_file(path)

    def test_keywords_not_an_array(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "a", "body": "x", "meta": {"keywords": "web"}}\n', encoding="utf-8")
        with pytest.raises(DataError, match="line 1: 'meta.keywords' must be an array"):
            parse_corpus_file(path)

    def test_bad_meta_weight_reported_with_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            '{"id": "a", "body": "x", "meta": {"concepts": {"t": 2.0}}}\n', encoding="utf-8"
        )
        with pytest.raises(DataError, match="line 1.*outside"):
            parse_corpus_file(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            parse_corpus_file(tmp_path / "nope.jsonl")

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_bytes(b"\xff\xfe\x00bad")
        with pytest.raises(DataError, match="cannot read"):
            parse_corpus_file(path)

    @pytest.mark.parametrize("escaped_id", [r"\t", r"a\rb", r"\n"])
    def test_id_with_tab_or_line_break_names_line(self, tmp_path, escaped_id):
        path = tmp_path / "c.jsonl"
        path.write_text(f'{{"id": "a", "body": "x"}}\n{{"id": "{escaped_id}", "body": "y"}}\n', encoding="utf-8")
        with pytest.raises(DataError, match="line 2: 'id' holds a TAB, CR or LF"):
            parse_corpus_file(path)


class TestBuildIndex:
    def test_postings_with_term_frequencies(self):
        docs = [
            Document(id="a", body="web mining web"),
            Document(id="b", body="Mining the WEB"),
        ]
        index = build_index(docs)
        assert index.doc_count == 2
        assert index.postings["web"] == ["a", "b"]
        assert index.postings["mining"] == ["a", "b"]
        assert index.postings["the"] == ["b"]

    def test_posting_lists_sorted_regardless_of_input_order(self):
        docs = [Document(id="z", body="tok"), Document(id="a", body="tok"), Document(id="m", body="tok")]
        index = build_index(docs)
        assert index.postings["tok"] == ["a", "m", "z"]

    def test_postings_ascend_however_docs_were_filled(self):
        docs = [Document(id="z", body="tok z"), Document(id="m", body="tok"), Document(id="a", body="tok a")]
        index = InvertedIndex(docs={d.id: d for d in docs})
        assert list(index.docs) == ["z", "m", "a"]
        assert index.postings == {"tok": ["a", "m", "z"], "z": ["z"], "a": ["a"]}
        assert index.postings == build_index(docs).postings

    def test_postings_cannot_be_set_apart_from_docs(self):
        with pytest.raises(TypeError):
            InvertedIndex(postings={"tok": ["a"]})

    def test_duplicate_ids_rejected(self):
        docs = [Document(id="a", body="x"), Document(id="a", body="y")]
        with pytest.raises(ValueError, match="duplicate"):
            build_index(docs)

    def test_empty_corpus(self):
        index = build_index([])
        assert index == InvertedIndex()

    def test_docs_map_complete(self, fixture_docs, fixture_index):
        assert set(fixture_index.docs) == {d.id for d in fixture_docs}
        assert fixture_index.doc_count == 20


class TestIndexPersistence:
    def test_roundtrip_fixture(self, fixture_index, tmp_path):
        path = tmp_path / "idx"
        save_index(fixture_index, path)
        loaded = load_index(path)
        assert loaded.doc_count == fixture_index.doc_count
        assert loaded.docs == fixture_index.docs
        assert loaded.postings == fixture_index.postings

    def test_cold_analyze_looks_up_only_its_tokens(self, fixture_index, fixture_judgments, tmp_path):
        path = tmp_path / "idx"
        save_index(fixture_index, path)
        loaded = load_index(path)
        judgments_to_examples(fixture_judgments, loaded)
        evaluate(init_weights([2, 4, 1], 0), fixture_judgments, loaded)
        assert list(vars(loaded)) == ["docs"]
        tree = build_syntax_tree("semantic web")
        candidates = analyze(tree, loaded)
        assert "postings" not in vars(loaded)
        built = load_index(path)
        assert built.postings == fixture_index.postings
        assert candidates == analyze(tree, built)

    def test_lookups_build_postings_once_they_have_tokenized_doc_count_bodies(self):
        index = build_index([Document(id="c", body="data"), Document(id="b", body="webs"),
                             Document(id="a", body="web mining")])
        assert index.posting("zzz") == []  # no body passes the substring filter: 0 bodies tokenized
        assert index.posting("web") == ["a"]  # "webs" passes the filter too: 2 bodies tokenized
        assert index.posting("web") == ["a"]  # a repeat below the doc count is derived again: 4 bodies
        assert vars(index)["_bodies_tokenized"] == 4
        assert "postings" not in vars(index)
        assert index.posting("mining") == ["a"]  # 4 bodies reach the doc count, 3: this lookup builds
        assert list(vars(index)) == ["docs", "_bodies_tokenized", "postings"]
        assert index.posting("webs") == ["b"]

    def test_save_is_deterministic(self, fixture_index, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        save_index(fixture_index, a)
        save_index(load_index(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_magic_line_first(self, fixture_index, tmp_path):
        path = tmp_path / "idx"
        save_index(fixture_index, path)
        assert path.read_text(encoding="utf-8").splitlines()[0] == INDEX_MAGIC

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "idx"
        path.write_text("WRONG v9\n", encoding="utf-8")
        with pytest.raises(DataError, match="not a"):
            load_index(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "idx"
        path.write_text("", encoding="utf-8")
        with pytest.raises(DataError):
            load_index(path)

    def test_bad_doc_count(self, tmp_path):
        path = tmp_path / "idx"
        for bad in ("-1", "true", "false", "1.0", '"1"', "null"):
            path.write_text(f'{INDEX_MAGIC}\n{{"doc_count": {bad}}}\n', encoding="utf-8")
            with pytest.raises(DataError, match="doc_count"):
                load_index(path)

    def test_doc_count_too_long_to_parse(self, tmp_path):
        path = tmp_path / "idx"
        path.write_text(f'{INDEX_MAGIC}\n{{"doc_count": 1{"0" * 5000}}}\n', encoding="utf-8")
        with pytest.raises(DataError, match="line 2: invalid JSON"):
            load_index(path)

    def test_magic_line_only(self, tmp_path):
        path = tmp_path / "idx"
        path.write_text(f"{INDEX_MAGIC}\n", encoding="utf-8")
        with pytest.raises(DataError, match="truncated index file: expected doc count header"):
            load_index(path)

    @pytest.mark.parametrize("old_file", [
        'PSWM-INDEX v1\n{"doc_count": 0}\n{"token_count": 0}\n',
        'PSWM-INDEX v2\n{"doc_count": 1}\n{"body":"x","id":"a","meta":{"concepts":{},"keywords":[]},"title":"","url":""}\n',
    ], ids=["v1", "v2"])
    def test_v1_index_asks_for_reingest(self, tmp_path, old_file):
        path = tmp_path / "idx"
        path.write_text(old_file, encoding="utf-8")
        with pytest.raises(DataError, match=f"is a {old_file.splitlines()[0]} file; re-ingest the corpus"):
            load_index(path)

    def test_truncated_documents(self, tmp_path):
        path = tmp_path / "idx"
        path.write_text(f'{INDEX_MAGIC}\n{{"doc_count": 3}}\n{{"id":"a","body":"x"}}\n', encoding="utf-8")
        with pytest.raises(DataError, match="truncated"):
            load_index(path)

    @staticmethod
    def saved_lines(tmp_path, *ids):
        path = tmp_path / "idx"
        save_index(build_index([Document(id=i, body=f"tok {i}") for i in ids]), path)
        return path, path.read_text(encoding="utf-8").splitlines()

    @staticmethod
    def write_lines(path, lines):
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def test_unsorted_records_rejected(self, tmp_path):
        path, lines = self.saved_lines(tmp_path, "a", "b")
        self.write_lines(path, [*lines[:2], lines[3], lines[2]])
        with pytest.raises(DataError, match="line 4.*ascend"):
            load_index(path)

    def test_duplicate_records_rejected(self, tmp_path):
        path, lines = self.saved_lines(tmp_path, "a", "b")
        self.write_lines(path, [*lines[:3], lines[2]])
        with pytest.raises(DataError, match="line 4.*'a'"):
            load_index(path)

    def test_more_records_than_doc_count_rejected(self, tmp_path):
        path, lines = self.saved_lines(tmp_path, "a", "b")
        self.write_lines(path, [lines[0], '{"doc_count": 1}', *lines[2:]])
        with pytest.raises(DataError, match="trailing content.*more than 1 document records"):
            load_index(path)

    def test_malformed_record_names_line(self, tmp_path):
        path, lines = self.saved_lines(tmp_path, "a", "b")
        self.write_lines(path, [*lines[:3], lines[3].replace('"tok b"', "5")])
        with pytest.raises(DataError, match="line 4: missing 'body' string"):
            load_index(path)

    @pytest.mark.parametrize("record", [
        '{"id":"b","url":"","title":"","body":"x","keywords":[],"concepts":{}}',
        '["b","","","x",[]]',
        '["b","","","x",[],{},"extra"]',
        '"b"',
        "null",
    ], ids=["object", "5-fields", "7-fields", "string", "null"])
    def test_record_not_an_array_of_six_names_line(self, tmp_path, record):
        path, lines = self.saved_lines(tmp_path, "a", "b")
        self.write_lines(path, [*lines[:3], record])
        with pytest.raises(DataError, match=r"line 4: record is not an array \[id, url, title, body"):
            load_index(path)

    def test_lone_surrogate_in_record_names_line(self, tmp_path):
        path, lines = self.saved_lines(tmp_path, "a", "b")
        self.write_lines(path, [*lines[:2], lines[2].replace('["a"', '["a\\ud800"'), lines[3]])
        with pytest.raises(DataError, match="line 3: string holds a lone surrogate"):
            load_index(path)

    @pytest.mark.parametrize("escaped_id", [r"\t", r"a\rb", r"\n"])
    def test_id_with_tab_or_line_break_names_line(self, tmp_path, escaped_id):
        path, lines = self.saved_lines(tmp_path, "a", "b")
        self.write_lines(path, [*lines[:3], lines[3].replace('["b"', f'["b{escaped_id}"')])
        with pytest.raises(DataError, match="line 4: 'id' holds a TAB, CR or LF"):
            load_index(path)

    @pytest.mark.parametrize("doc_id", ["\t", "a\rb", "\n"])
    def test_save_refuses_an_id_with_tab_or_line_break(self, tmp_path, doc_id):
        path = tmp_path / "idx"
        with pytest.raises(ValueError, match="holds a TAB, CR or LF"):
            save_index(build_index([Document(id="a", body="x"), Document(id=doc_id, body="y")]), path)
        assert list(tmp_path.iterdir()) == []

    def test_deeply_nested_record_is_data_error(self, tmp_path):
        path, lines = self.saved_lines(tmp_path, "a")
        self.write_lines(path, [*lines[:2], "[" * 100_000 + "]" * 100_000])
        with pytest.raises(DataError, match="line 3: invalid JSON"):
            load_index(path)

    def test_postings_rebuilt_from_loaded_bodies(self, tmp_path):
        path, lines = self.saved_lines(tmp_path, "a", "b")
        self.write_lines(path, [*lines[:3], lines[3].replace("tok b", "fresh b")])
        loaded = load_index(path)
        assert loaded.postings == {"tok": ["a"], "a": ["a"], "fresh": ["b"], "b": ["b"]}
        assert loaded == build_index(list(loaded.docs.values()))

    def test_trailing_content_rejected(self, fixture_index, tmp_path):
        path = tmp_path / "idx"
        save_index(fixture_index, path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"extra": 1}\n')
        with pytest.raises(DataError, match="trailing"):
            load_index(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_index(tmp_path / "nope")

    def test_saved_docs_sorted_and_json_per_line(self, fixture_index, tmp_path):
        path = tmp_path / "idx"
        save_index(fixture_index, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        n = json.loads(lines[1])["doc_count"]
        records = [json.loads(line) for line in lines[2 : 2 + n]]
        assert all(isinstance(record, list) and len(record) == 6 for record in records)
        ids = [record[0] for record in records]
        assert ids == sorted(ids)

    def test_record_is_a_positional_array_with_sorted_keywords(self, tmp_path):
        path = tmp_path / "idx"
        doc = Document(id="d1", url="u", title="T", body="web",
                       meta=MetaRecord.from_raw(["web", "Data"], {"b": 0.5, "a": 1}))
        save_index(build_index([doc]), path)
        assert path.read_text(encoding="utf-8").splitlines()[2] == '["d1","u","T","web",["data","web"],{"a":1.0,"b":0.5}]'

