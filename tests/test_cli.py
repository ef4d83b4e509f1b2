"""Command-line behavior: pipelines, output, exit codes."""

import errno
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import pswm
from pswm import DataError, build_index, cli, corpus, init_weights, load_index, load_model, save_model
from pswm.neural import MODEL_MAGIC

from conftest import CORPUS_PATH, JUDGMENTS_PATH


@pytest.fixture
def ingested(tmp_path):
    index_path = tmp_path / "idx"
    code = cli.main(["ingest", "--corpus", str(CORPUS_PATH), "--index", str(index_path)])
    assert code == cli.EXIT_OK
    return index_path


@pytest.fixture
def trained(tmp_path, ingested):
    model_path = tmp_path / "model"
    code = cli.main([
        "train",
        "--index", str(ingested),
        "--judgments", str(JUDGMENTS_PATH),
        "--model", str(model_path),
        "--epochs", "50",
    ])
    assert code == cli.EXIT_OK
    return model_path


class TestIngest:
    def test_reports_counts_and_writes_index(self, tmp_path, capsys):
        index_path = tmp_path / "idx"
        code = cli.main(["ingest", "--corpus", str(CORPUS_PATH), "--index", str(index_path)])
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK
        assert out.splitlines()[0] == "ingested 20 documents, 154 distinct tokens"
        assert f"saved index -> {index_path}" in out
        assert load_index(index_path).doc_count == 20

    def test_counts_tokens_without_building_postings(self, tmp_path, monkeypatch):
        built = []

        def spy(docs):
            built.append(build_index(docs))
            return built[-1]

        monkeypatch.setattr(corpus, "build_index", spy)
        assert cli.main(["ingest", "--corpus", str(CORPUS_PATH), "--index", str(tmp_path / "idx")]) == cli.EXIT_OK
        assert len(built) == 1
        assert "postings" not in vars(built[0])

    def test_1100_bodies_give_1101_distinct_tokens(self, tmp_path, capsys):
        corpus_path = tmp_path / "corpus"
        corpus_path.write_text("".join(json.dumps({"id": f"d{i:04d}", "body": f"w{i} Shared"}) + "\n"
                                       for i in range(1100)), encoding="utf-8")
        assert cli.main(["ingest", "--corpus", str(corpus_path), "--index", str(tmp_path / "idx")]) == cli.EXIT_OK
        assert capsys.readouterr().out.splitlines()[0] == "ingested 1100 documents, 1101 distinct tokens"

    def test_missing_corpus_is_data_error(self, tmp_path, capsys):
        code = cli.main(["ingest", "--corpus", str(tmp_path / "nope"), "--index", str(tmp_path / "idx")])
        assert code == cli.EXIT_DATA
        assert "error:" in capsys.readouterr().err

    def test_malformed_corpus_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n", encoding="utf-8")
        code = cli.main(["ingest", "--corpus", str(bad), "--index", str(tmp_path / "idx")])
        assert code == cli.EXIT_DATA
        assert "line 1" in capsys.readouterr().err

    def test_deeply_nested_corpus_line_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "deep.jsonl"
        bad.write_text('{"id": "a", "body": "x"}\n' + "[" * 100_000 + "]" * 100_000 + "\n", encoding="utf-8")
        code = cli.main(["ingest", "--corpus", str(bad), "--index", str(tmp_path / "idx")])
        assert code == cli.EXIT_DATA
        assert "line 2: invalid JSON" in capsys.readouterr().err
        assert not (tmp_path / "idx").exists()

    @pytest.mark.parametrize("line", [
        '{"id": "a", "body": "x", "meta": {"concepts": {"t": 1%s}}}' % ("0" * 400),
        '{"id": "a", "body": "x", "meta": {"concepts": {"t": 1%s}}}' % ("0" * 5000),
    ], ids=["beyond-float", "beyond-int-digits"])
    def test_huge_integer_in_corpus_is_data_error(self, tmp_path, capsys, line):
        bad = tmp_path / "huge.jsonl"
        bad.write_text(line + "\n", encoding="utf-8")
        code = cli.main(["ingest", "--corpus", str(bad), "--index", str(tmp_path / "idx")])
        err = capsys.readouterr().err
        assert code == cli.EXIT_DATA
        assert err.startswith("error: line 1: ")
        assert "Traceback" not in err
        assert not (tmp_path / "idx").exists()

    @pytest.mark.parametrize("target", ["missing/idx", "a_directory"])
    def test_failed_save_names_the_target(self, tmp_path, capsys, target):
        (tmp_path / "a_directory").mkdir()
        index_path = tmp_path / target
        code = cli.main(["ingest", "--corpus", str(CORPUS_PATH), "--index", str(index_path)])
        err = capsys.readouterr().err
        assert code == cli.EXIT_DATA
        assert f"'{index_path}'" in err
        assert ".tmp" not in err
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["a_directory"]

    @pytest.mark.parametrize("line", [
        '{"id": "a", "body": "web \\ud800 mining"}',
        '{"id": "a\\udfff", "body": "web"}',
        '{"id": "a", "body": "web", "url": "\\ud800"}',
        '{"id": "a", "body": "web", "title": "x\\udc00"}',
        '{"id": "a", "body": "web", "meta": {"keywords": ["\\ud800web"]}}',
        '{"id": "a", "body": "web", "meta": {"concepts": {"web\\ud800": 0.1}}}',
    ], ids=["body", "id", "url", "title", "keyword", "concept-tag"])
    def test_lone_surrogate_is_data_error_and_writes_no_index(self, tmp_path, capsys, line):
        bad = tmp_path / "c.jsonl"
        bad.write_text("\n".join(['{"id": "ok", "body": "web \\ud83d\\ude00"}', line]) + "\n", encoding="utf-8")
        code = cli.main(["ingest", "--corpus", str(bad), "--index", str(tmp_path / "idx")])
        assert code == cli.EXIT_DATA
        assert capsys.readouterr().err.startswith("error: line 2: string holds a lone surrogate")
        assert not (tmp_path / "idx").exists()

    def test_unicode_line_separator_in_body_survives_train_and_search(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text('{"id": "a", "body": "semantic web\\u2028mining"}\n', encoding="utf-8")
        judgments = tmp_path / "j.tsv"
        judgments.write_text("semantic web\ta\t1\n", encoding="utf-8")
        index, model = str(tmp_path / "idx"), str(tmp_path / "m")
        assert cli.main(["ingest", "--corpus", str(corpus), "--index", index]) == cli.EXIT_OK
        assert cli.main(["train", "--index", index, "--judgments", str(judgments), "--model", model,
                         "--epochs", "2"]) == cli.EXIT_OK
        capsys.readouterr()
        assert cli.main(["search", "web", "--cutoff", "0", "--format", "machine",
                         "--index", index, "--model", model]) == cli.EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["results"][0]["doc_id"] == "a"

    def test_concept_tags_that_normalize_to_one_are_data_error_and_write_no_index(self, tmp_path, capsys):
        corpus_path, index_path = tmp_path / "c.jsonl", tmp_path / "idx"
        corpus_path.write_text('{"id": "a", "body": "web"}\n'
                               '{"id": "b", "body": "web", "meta": {"concepts": {"web ": 0.2, "Web": 0.9}}}\n',
                               encoding="utf-8")
        code = cli.main(["ingest", "--corpus", str(corpus_path), "--index", str(index_path)])
        captured = capsys.readouterr()
        assert code == cli.EXIT_DATA
        assert captured.err == "error: line 2: concept tag 'web' appears twice after stripping and lowercasing\n"
        assert captured.out == ""
        assert not index_path.exists()

    def test_duplicate_id_corpus_names_offender(self, tmp_path, capsys):
        bad = tmp_path / "dup.jsonl"
        bad.write_text(
            '{"id": "dup1", "body": "x"}\n{"id": "dup1", "body": "y"}\n', encoding="utf-8"
        )
        code = cli.main(["ingest", "--corpus", str(bad), "--index", str(tmp_path / "idx")])
        assert code == cli.EXIT_DATA
        assert "dup1" in capsys.readouterr().err


class TestTrain:
    def test_trains_and_saves_model(self, tmp_path, ingested, capsys):
        model_path = tmp_path / "model"
        code = cli.main([
            "train",
            "--index", str(ingested),
            "--judgments", str(JUDGMENTS_PATH),
            "--model", str(model_path),
            "--epochs", "50",
        ])
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK
        assert "trained on 26 examples for 50 epochs" in out
        assert "initial mean error:" in out
        assert "final mean error:" in out
        assert f"saved model -> {model_path}" in out
        net = load_model(model_path)
        assert net.layer_sizes == [2, cli.DEFAULT_HIDDEN, 1]

    def test_default_fixture_model_matches_golden_hash(self, tmp_path, ingested):
        # The model's bits follow from the kernel's arithmetic, the C library's exp and Python's
        # seeded `random()` (see `pswm.neural`). Checked on x86-64, glibc, Python 3.10-3.13.
        model_path = tmp_path / "model"
        code = cli.main(["train", "--index", str(ingested), "--judgments", str(JUDGMENTS_PATH),
                         "--model", str(model_path)])
        assert code == cli.EXIT_OK
        assert hashlib.sha256(model_path.read_bytes()).hexdigest() == (
            "5ec3bdcae454d4814b915bf59502cd4b114eccebfb58bb38058baaa31893eced")

    def test_fixture_index_matches_golden_hash(self, ingested):
        # Index format v3's bytes for the fixture corpus: a change to the format or its encoder must be deliberate.
        assert hashlib.sha256(ingested.read_bytes()).hexdigest() == (
            "688ee7cec669abfc71a9a63d96bd614a12092da9f4477ec45de6c43449bf3f64")

    def test_hidden_flag_changes_architecture(self, tmp_path, ingested):
        model_path = tmp_path / "model"
        code = cli.main([
            "train", "--index", str(ingested), "--judgments", str(JUDGMENTS_PATH),
            "--model", str(model_path), "--epochs", "1", "--hidden", "7",
        ])
        assert code == cli.EXIT_OK
        assert load_model(model_path).layer_sizes == [2, 7, 1]

    def test_same_seed_same_model_file(self, tmp_path, ingested):
        a, b = tmp_path / "a", tmp_path / "b"
        for path in (a, b):
            code = cli.main([
                "train", "--index", str(ingested), "--judgments", str(JUDGMENTS_PATH),
                "--model", str(path), "--epochs", "20", "--seed", "9",
            ])
            assert code == cli.EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_zero_epochs_saves_initial_weights(self, tmp_path, ingested, capsys):
        model_path = tmp_path / "model"
        code = cli.main([
            "train", "--index", str(ingested), "--judgments", str(JUDGMENTS_PATH),
            "--model", str(model_path), "--epochs", "0",
        ])
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK
        assert "for 0 epochs" in out
        initial = out.split("initial mean error: ")[1].splitlines()[0]
        assert out.split("final mean error: ")[1].splitlines()[0] == initial
        assert model_path.exists()

    def test_empty_judgments_is_data_error(self, tmp_path, ingested, capsys):
        empty = tmp_path / "empty.tsv"
        empty.write_text("# nothing here\n", encoding="utf-8")
        code = cli.main([
            "train", "--index", str(ingested), "--judgments", str(empty),
            "--model", str(tmp_path / "model"),
        ])
        assert code == cli.EXIT_DATA
        assert "no judgments" in capsys.readouterr().err

    def test_zero_epochs_on_empty_judgments_is_data_error(self, tmp_path, ingested, capsys):
        empty = tmp_path / "empty.tsv"
        empty.write_text("# nothing here\n", encoding="utf-8")
        model_path = tmp_path / "model"
        code = cli.main([
            "train", "--index", str(ingested), "--judgments", str(empty),
            "--model", str(model_path), "--epochs", "0",
        ])
        captured = capsys.readouterr()
        assert code == cli.EXIT_DATA
        assert captured.err == f"error: judgments file {empty} contains no judgments\n"
        assert captured.out == ""
        assert not model_path.exists()

    def test_negative_lr_is_usage_error(self, tmp_path, ingested, capsys):
        code = cli.main([
            "train", "--index", str(ingested), "--judgments", str(JUDGMENTS_PATH),
            "--model", str(tmp_path / "m"), "--lr", "-0.5",
        ])
        assert code == cli.EXIT_USAGE
        capsys.readouterr()

    @pytest.mark.parametrize("lr", ["inf", "nan"])
    def test_non_finite_lr_is_usage_error(self, tmp_path, ingested, capsys, lr):
        model_path = tmp_path / "m"
        code = cli.main([
            "train", "--index", str(ingested), "--judgments", str(JUDGMENTS_PATH),
            "--model", str(model_path), "--lr", lr,
        ])
        assert code == cli.EXIT_USAGE
        assert "finite" in capsys.readouterr().err
        assert not model_path.exists()

    def test_huge_lr_trains_quietly_to_a_usable_model(self, tmp_path, ingested, capsys):
        # The weights end near 1e297, so search and eval overflow exp in the sigmoid.
        model_path = tmp_path / "m"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main([
                "train", "--index", str(ingested), "--judgments", str(JUDGMENTS_PATH),
                "--model", str(model_path), "--lr", "1e300", "--epochs", "20",
            ])
            assert code == cli.EXIT_OK
            assert capsys.readouterr().err == ""
            assert load_model(model_path).layer_sizes == [2, cli.DEFAULT_HIDDEN, 1]
            for argv in (
                ["search", "semantic web", "--cutoff", "0", "--index", str(ingested), "--model", str(model_path)],
                ["eval", "--index", str(ingested), "--model", str(model_path), "--judgments", str(JUDGMENTS_PATH)],
            ):
                assert cli.main(argv) == cli.EXIT_OK
                captured = capsys.readouterr()
                assert captured.err == ""
                assert captured.out

    def test_unknown_doc_in_judgments_is_data_error(self, tmp_path, ingested, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("web\tghost\t1\n", encoding="utf-8")
        code = cli.main([
            "train", "--index", str(ingested), "--judgments", str(bad),
            "--model", str(tmp_path / "m"),
        ])
        assert code == cli.EXIT_DATA
        assert "ghost" in capsys.readouterr().err

    @pytest.mark.parametrize("epochs", ["0", "1", "5"])
    def test_final_mean_error_is_the_saved_models_eval_mean_error(self, tmp_path, ingested, capsys, epochs):
        # And "initial mean error" is eval's mean error of the initial weights, which --epochs 0 saves.
        means = {}
        for run in ("0", epochs):
            model_path = tmp_path / f"m{run}"
            code = cli.main(["train", "--index", str(ingested), "--judgments", str(JUDGMENTS_PATH),
                             "--model", str(model_path), "--epochs", run])
            assert code == cli.EXIT_OK
            out = capsys.readouterr().out
            code = cli.main(["eval", "--index", str(ingested), "--model", str(model_path),
                             "--judgments", str(JUDGMENTS_PATH)])
            assert code == cli.EXIT_OK
            means[run] = capsys.readouterr().out.split("mean error: ")[1].splitlines()[0]
        assert out.split("initial mean error: ")[1].splitlines()[0] == means["0"]
        assert out.split("final mean error: ")[1].splitlines()[0] == means[epochs]

    def test_error_drops_during_training(self, tmp_path, ingested, capsys):
        code = cli.main([
            "train", "--index", str(ingested), "--judgments", str(JUDGMENTS_PATH),
            "--model", str(tmp_path / "m"), "--epochs", "300",
        ])
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK
        initial = float(out.split("initial mean error: ")[1].splitlines()[0])
        final = float(out.split("final mean error: ")[1].splitlines()[0])
        assert final < initial


class TestSearch:
    def test_text_output(self, tmp_path, ingested, trained, capsys):
        code = cli.main([
            "search", "semantic web mining",
            "--index", str(ingested), "--model", str(trained), "--cutoff", "0.0",
        ])
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK
        lines = out.splitlines()
        assert lines[0].startswith("rank")
        assert any("d01" in line for line in lines)
        assert lines[-1].endswith("results")

    def test_machine_output(self, tmp_path, ingested, trained, capsys):
        code = cli.main([
            "search", "semantic web mining",
            "--index", str(ingested), "--model", str(trained),
            "--cutoff", "0.0", "--format", "machine",
        ])
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK
        payload = json.loads(out)
        assert payload["query"] == "semantic web mining"
        assert payload["total_candidates"] == 4
        assert {r["doc_id"] for r in payload["results"]} == {"d01", "d13", "d14", "d15"}

    def test_top_k_limits_results(self, tmp_path, ingested, trained, capsys):
        code = cli.main([
            "search", "semantic web mining",
            "--index", str(ingested), "--model", str(trained),
            "--cutoff", "0.0", "--top-k", "1", "--format", "machine",
        ])
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK
        assert len(json.loads(out)["results"]) == 1

    def test_no_match_query_prints_zero_results(self, tmp_path, ingested, trained, capsys):
        code = cli.main([
            "search", "zzzunseen", "--index", str(ingested), "--model", str(trained),
        ])
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK
        assert out.splitlines()[-1] == "0 results"

    def test_cutoff_one_prints_zero_results(self, tmp_path, ingested, trained, capsys):
        code = cli.main([
            "search", "semantic web mining",
            "--index", str(ingested), "--model", str(trained), "--cutoff", "1.0",
        ])
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK
        assert out.splitlines()[-1] == "0 results"

    def test_missing_model_is_data_error(self, tmp_path, ingested, capsys):
        code = cli.main([
            "search", "web", "--index", str(ingested), "--model", str(tmp_path / "nope"),
        ])
        assert code == cli.EXIT_DATA
        capsys.readouterr()

    def test_corrupt_model_is_data_error(self, tmp_path, ingested, capsys):
        bad = tmp_path / "bad_model"
        bad.write_text("garbage\n", encoding="utf-8")
        code = cli.main(["search", "web", "--index", str(ingested), "--model", str(bad)])
        assert code == cli.EXIT_DATA
        assert MODEL_MAGIC in capsys.readouterr().err

    def test_cutoff_out_of_range_is_usage_error(self, tmp_path, ingested, trained, capsys):
        code = cli.main([
            "search", "web", "--index", str(ingested), "--model", str(trained),
            "--cutoff", "1.5",
        ])
        assert code == cli.EXIT_USAGE
        capsys.readouterr()


class TestEval:
    def test_reports_metrics(self, tmp_path, ingested, trained, capsys):
        code = cli.main([
            "eval", "--index", str(ingested), "--model", str(trained),
            "--judgments", str(JUDGMENTS_PATH),
        ])
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK
        assert "count: 26" in out
        assert "mean error:" in out
        assert "accuracy@0.5:" in out

    def test_unknown_doc_in_judgments_is_data_error(self, tmp_path, ingested, trained, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("web\tghost\t1\n", encoding="utf-8")
        code = cli.main([
            "eval", "--index", str(ingested), "--model", str(trained),
            "--judgments", str(bad),
        ])
        assert code == cli.EXIT_DATA
        assert "ghost" in capsys.readouterr().err

    def test_comment_only_judgments_is_data_error(self, tmp_path, ingested, trained, capsys):
        empty = tmp_path / "empty.tsv"
        empty.write_text("# nothing here\n", encoding="utf-8")
        code = cli.main([
            "eval", "--index", str(ingested), "--model", str(trained),
            "--judgments", str(empty),
        ])
        captured = capsys.readouterr()
        assert code == cli.EXIT_DATA
        assert "no judgments" in captured.err
        assert captured.out == ""


@pytest.mark.parametrize("command", ["train", "eval"])
def test_tokenless_judgment_query_is_data_error_naming_its_line(tmp_path, ingested, trained, capsys, command):
    judgments = tmp_path / "j.tsv"
    judgments.write_text("web\td01\t1\n!!!\td02\t0\n", encoding="utf-8")
    model_path = tmp_path / "new_model" if command == "train" else trained
    code = cli.main([command, "--index", str(ingested), "--judgments", str(judgments), "--model", str(model_path)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_DATA
    assert captured.err == "error: line 2: query has no searchable tokens: '!!!'\n"
    assert captured.out == ""
    assert model_path.exists() == (command == "eval")


class TestRankingModelShape:
    @pytest.mark.parametrize("sizes", [[3, 4, 1], [2, 4, 2]])
    @pytest.mark.parametrize("command", [
        ["search", "web"],
        ["eval", "--judgments", str(JUDGMENTS_PATH)],
    ])
    def test_wrong_shape_is_data_error(self, tmp_path, ingested, capsys, command, sizes):
        model_path = tmp_path / "wide_model"
        save_model(init_weights(sizes, 0), model_path)
        code = cli.main(command + ["--index", str(ingested), "--model", str(model_path)])
        captured = capsys.readouterr()
        assert code == cli.EXIT_DATA
        assert str(model_path) in captured.err
        assert str(sizes) in captured.err
        assert captured.out == ""


class TestGradcheck:
    def test_passes_by_default(self, capsys):
        code = cli.main(["gradcheck", "--seed", "5"])
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK
        assert "max relative error:" in out
        assert "gradient check passed" in out

    def test_failure_exits_three(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.neural, "gradient_check_suite", lambda seed: 0.5)
        code = cli.main(["gradcheck"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_CHECK
        assert "max relative error: 5.000e-01" in captured.out
        assert "FAILED" in captured.err


def _child_env(**changes) -> dict[str, str]:
    """The environment with pswm's source on PYTHONPATH and `changes` applied; a None value unsets a variable."""
    src = str(Path(pswm.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])), **changes}
    return {name: value for name, value in env.items() if value is not None}


def _fresh_imports(args, cwd) -> set[str]:
    """Modules that a fresh `python -X importtime <args>` imports: it writes one stderr line per module."""
    result = subprocess.run([sys.executable, "-X", "importtime", *args], cwd=cwd, env=_child_env(),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return {line.rsplit("|", 1)[1].strip() for line in result.stderr.splitlines() if line.startswith("import time:")}


# Modules that no command loads: numpy, and hashlib, which `secrets` loads.
UNLOADED = {"numpy", "hashlib"}


class TestNumpyImport:
    """No command imports numpy or hashlib: the seeded draws are the standard library's `random()`."""

    def test_import_ingest_search_and_eval_leave_numpy_unloaded(self, tmp_path, ingested, trained):
        runs = [
            ["-c", "import pswm"],
            ["-m", "pswm", "ingest", "--corpus", str(CORPUS_PATH), "--index", str(tmp_path / "idx2")],
            ["-m", "pswm", "search", "semantic web mining", "--index", str(ingested), "--model", str(trained),
             "--cutoff", "0"],
            ["-m", "pswm", "eval", "--index", str(ingested), "--model", str(trained),
             "--judgments", str(JUDGMENTS_PATH)],
        ]
        for args in runs:
            assert not UNLOADED & _fresh_imports(args, tmp_path), args

    def test_train_and_gradcheck_draw_without_numpy(self, tmp_path, ingested):
        runs = [
            ["-m", "pswm", "train", "--index", str(ingested), "--judgments", str(JUDGMENTS_PATH),
             "--model", str(tmp_path / "m"), "--epochs", "1"],
            ["-m", "pswm", "gradcheck"],
        ]
        for args in runs:
            assert not UNLOADED & _fresh_imports(args, tmp_path), args

    def test_the_check_sees_numpy_where_it_is_imported(self, tmp_path):
        # Positive control: the negative checks above cannot pass because the check sees nothing.
        assert {"numpy", "hashlib"} <= _fresh_imports(["-c", "import numpy, hashlib"], tmp_path)


def _pswm_process(args, cwd, stdout, **env_changes):
    """Run `python -m pswm <args>` in `_child_env(**env_changes)`; stderr is captured as text."""
    return subprocess.run([sys.executable, "-m", "pswm", *args], cwd=cwd, env=_child_env(**env_changes),
                          stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120)


class TestProcessStdout:
    """Output that stdout cannot take is exit 2 with one error line, as a failed save is."""

    def test_stdout_encoding_without_the_query_characters_is_exit_two_with_stdout_empty(
        self, tmp_path, ingested, trained
    ):
        result = _pswm_process(["search", "s\u00e9mantic web", "--index", str(ingested), "--model", str(trained),
                                "--format", "machine"], tmp_path, subprocess.PIPE, PYTHONIOENCODING="ascii")
        assert result.returncode == cli.EXIT_DATA
        assert result.stdout == ""
        [line] = result.stderr.splitlines()
        assert line.startswith("error: stdout's encoding ascii cannot write the output: ")

    @pytest.mark.parametrize("command, name", [
        (["ingest", "--corpus", str(CORPUS_PATH), "--index", "{name}"], "id\u00e9"),
        (["train", "--index", "{index}", "--judgments", str(JUDGMENTS_PATH), "--model", "{name}", "--epochs", "1"],
         "n\u00e9"),
    ], ids=["ingest", "train"])
    def test_output_path_that_stdout_cannot_print_is_exit_two_and_writes_no_file(
        self, tmp_path, ingested, command, name
    ):
        result = _pswm_process([arg.format(name=name, index=ingested) for arg in command], tmp_path, subprocess.PIPE,
                               PYTHONIOENCODING="ascii")
        assert result.returncode == cli.EXIT_DATA
        assert result.stdout == ""
        position = name.index("\u00e9")
        assert result.stderr.splitlines() == [
            "error: stdout's encoding ascii cannot write the output: 'ascii' codec can't encode character '\\xe9' "
            f"in position {position}: ordinal not in range(128)"
        ]
        assert not (tmp_path / name).exists()

    _SEARCH = ["search", "semantic web mining", "--index", "{index}", "--model", "{model}", "--cutoff", "0"]

    # argparse writes the help, then exits 0. Unbuffered, it drops its own failed write and exits 0 silently.
    @pytest.mark.parametrize("command, unbuffered", [
        (_SEARCH, None), (_SEARCH, "1"), (["ingest", "--corpus", "c", "--index", "i", "--help"], None),
    ], ids=["buffered", "unbuffered", "help-buffered"])
    def test_pipe_without_a_reader_is_exit_two_with_one_error_line(
        self, tmp_path, ingested, trained, command, unbuffered
    ):
        read_end, write_end = os.pipe()
        os.close(read_end)  # before the process starts, so that its first write to stdout fails
        try:
            result = _pswm_process([arg.format(index=ingested, model=trained) for arg in command], tmp_path,
                                   write_end, PYTHONUNBUFFERED=unbuffered)
        finally:
            os.close(write_end)
        assert result.returncode == cli.EXIT_DATA
        # One line: no traceback, and no "Exception ignored" from a second failed flush at exit.
        assert result.stderr.splitlines() == [f"error: [Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}"]


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert cli.main(["frobnicate"]) == cli.EXIT_USAGE
        capsys.readouterr()

    @pytest.mark.parametrize("argv, error", [
        ([], "pswm: error: the following arguments are required: command"),
        (["search", "q", "--index", "i", "--model", "m", "--cutoff", "2"],
         "pswm search: error: argument --cutoff: must be in [0, 1], got 2"),
        (["ingest", "--corpus", "x"], "pswm ingest: error: the following arguments are required: --index"),
        (["search", "q", "--index", "i", "--model", "m", "--cutoff", "abc"],
         "pswm search: error: argument --cutoff: invalid float value: 'abc'"),
        (["search", "q", "--index", "i", "--model", "m", "--top-k", "1.5"],
         "pswm search: error: argument --top-k: invalid int value: '1.5'"),
    ])
    def test_usage_error_prints_usage_then_the_error(self, capsys, argv, error):
        assert cli.main(argv) == cli.EXIT_USAGE
        out, err = capsys.readouterr()
        lines = err.splitlines()
        assert out == "" and lines[0].startswith("usage: pswm") and lines[-1] == error

    @pytest.mark.parametrize("command, error", [
        (["search", "???", "--index", "{missing}", "--model", "{missing}"],
         "error: empty query: no searchable tokens"),
        # Python decodes an argv byte that is not UTF-8, such as 0xFF, to a lone surrogate.
        (["search", "semantic\udcff", "--index", "{missing}", "--model", "{missing}", "--format", "machine"],
         "error: query 'semantic\\udcff' is not UTF-8 text"),
        # 3 x 10**15 doubles is about 21 PiB: the allocation fails at once.
        (["train", "--index", "{missing}", "--judgments", "{missing}", "--model", "{model}", "--hidden", str(10**15)],
         f"error: --hidden {10**15} is too large to allocate"),
    ], ids=["empty-query", "lone-surrogate", "hidden-too-large"])
    def test_command_line_is_refused_before_any_file_is_read(self, tmp_path, capsys, command, error):
        # Every input is missing, so reading one first would be a data error that names it.
        paths = {"missing": tmp_path / "missing", "model": tmp_path / "model"}
        code = cli.main([arg.format(**paths) for arg in command])
        out, err = capsys.readouterr()
        assert code == cli.EXIT_USAGE
        assert out == "" and err == error + "\n"
        assert not paths["model"].exists()

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == cli.EXIT_OK
        assert "ingest" in capsys.readouterr().out

    def test_subcommand_help_exits_zero(self, capsys):
        assert cli.main(["train", "--help"]) == cli.EXIT_OK
        capsys.readouterr()

    @pytest.mark.parametrize("command", [
        ["train", "--index", "i", "--judgments", "j", "--model", "m"],
        ["gradcheck"],
    ])
    def test_negative_seed_names_the_flag(self, capsys, command):
        assert cli.main(command + ["--seed", "-1"]) == cli.EXIT_USAGE
        assert "--seed" in capsys.readouterr().err


class TestOutputIsNotAnInput:
    @pytest.mark.parametrize("command, output, source", [
        (["ingest", "--corpus", "{corpus}", "--index", "{corpus}"], "--index", "--corpus"),
        (["train", "--index", "{index}", "--judgments", "{judgments}", "--model", "{index}"], "--model", "--index"),
        (["train", "--index", "{index}", "--judgments", "{judgments}", "--model", "{judgments}"],
         "--model", "--judgments"),
    ], ids=["ingest-index-corpus", "train-model-index", "train-model-judgments"])
    def test_output_naming_an_input_is_usage_error_and_leaves_the_input(
        self, tmp_path, ingested, capsys, command, output, source
    ):
        paths = {"corpus": tmp_path / "corpus.jsonl", "index": ingested, "judgments": tmp_path / "judgments.tsv"}
        paths["corpus"].write_bytes(CORPUS_PATH.read_bytes())
        paths["judgments"].write_bytes(JUDGMENTS_PATH.read_bytes())
        before = {name: path.read_bytes() for name, path in paths.items()}
        code = cli.main([arg.format(**paths) for arg in command])
        captured = capsys.readouterr()
        assert code == cli.EXIT_USAGE
        assert output in captured.err and source in captured.err
        assert captured.out == ""
        assert {name: path.read_bytes() for name, path in paths.items()} == before


class TestExceptionMapping:
    def test_data_error_maps_to_two(self, monkeypatch, capsys):
        def boom(args):
            raise DataError("synthetic data problem")

        monkeypatch.setattr(cli, "cmd_ingest", boom)
        code = cli.main(["ingest", "--corpus", "a", "--index", "b"])
        assert code == cli.EXIT_DATA
        assert "synthetic data problem" in capsys.readouterr().err

    def test_os_error_maps_to_two(self, monkeypatch, capsys):
        def boom(args):
            raise OSError("disk trouble")

        monkeypatch.setattr(cli, "cmd_ingest", boom)
        code = cli.main(["ingest", "--corpus", "a", "--index", "b"])
        assert code == cli.EXIT_DATA
        assert "disk trouble" in capsys.readouterr().err

    def test_value_error_maps_to_one(self, monkeypatch, capsys):
        def boom(args):
            raise ValueError("bad argument combination")

        monkeypatch.setattr(cli, "cmd_ingest", boom)
        code = cli.main(["ingest", "--corpus", "a", "--index", "b"])
        assert code == cli.EXIT_USAGE
        assert "bad argument" in capsys.readouterr().err

    def test_entry_raises_system_exit(self, monkeypatch):
        monkeypatch.setattr(cli, "main", lambda: 3)
        with pytest.raises(SystemExit) as exc:
            cli.entry()
        assert exc.value.code == 3
