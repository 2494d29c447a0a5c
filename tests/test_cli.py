import json
import shutil

import pytest

from aekit.cli import EXIT_CONFIG, EXIT_OK, main


@pytest.fixture
def workspace(tmp_path, mock_corpus_path, prepare_scripts_path):
    """A scratch dir with the mock corpus, scripts, and a pipeline config."""
    corpus = tmp_path / "corpus"
    shutil.copytree(mock_corpus_path, corpus)
    scripts = tmp_path / "scripts.json"
    shutil.copy(prepare_scripts_path, scripts)

    config = tmp_path / "pipeline.ini"
    config.write_text(
        "[embedding]\n"
        "kind = mock\n"
        "seed = 11\n"
        "dim = 48\n"
        "\n"
        "[chat]\n"
        "kind = scripted\n"
        f"script = {scripts}\n"
        "\n"
        "[rate]\n"
        "enabled = true\n"
        f"concept = {tmp_path / 'concept.json'}\n"
        f"cutoff = {tmp_path / 'cutoff.json'}\n"
        "\n"
        "[assess]\n"
        "enabled = true\n"
        f"bank = {tmp_path / 'bank.json'}\n"
        f"model = {tmp_path / 'model.json'}\n"
        "\n"
        "[prepare]\n"
        "enabled = true\n"
        "backend = local\n"
        f"workdir = {tmp_path / 'boxes'}\n"
        "max_iterations = 8\n"
        "command_timeout = 30\n"
        "\n"
        "[pipeline]\n"
        "gate = true\n"
        "seed = 0\n"
    )
    return tmp_path, corpus, config


def run_cli(*argv):
    return main([str(a) for a in argv])


def build_assets(tmp_path, corpus, config):
    assert run_cli(
        "--config", config, "extract-concept",
        "--corpus", corpus, "--n-train", "3",
        "--out-file", tmp_path / "concept.json",
    ) == EXIT_OK
    assert run_cli(
        "--config", config, "calibrate",
        "--corpus", corpus, "--concept", tmp_path / "concept.json",
        "--n-train", "3", "--out-file", tmp_path / "cutoff.json",
    ) == EXIT_OK
    assert run_cli(
        "--config", config, "assess-train",
        "--corpus", corpus, "--annotations", corpus / "ground_truth.csv",
        "--n-train", "3",
        "--bank-out", tmp_path / "bank.json", "--model-out", tmp_path / "model.json",
    ) == EXIT_OK


class TestAssetCommands:
    def test_extract_calibrate_and_train_produce_assets(self, workspace):
        tmp_path, corpus, config = workspace
        build_assets(tmp_path, corpus, config)
        concept = json.loads((tmp_path / "concept.json").read_text())
        assert concept["dim"] == 48
        assert concept["probe_count"] == 3
        cutoff = json.loads((tmp_path / "cutoff.json").read_text())
        assert cutoff["train_recall"] == 1.0
        bank = json.loads((tmp_path / "bank.json").read_text())
        assert len(bank["entries"]) == 10
        model = json.loads((tmp_path / "model.json").read_text())
        # 6 annotated papers can never reach 5 per class -> everything skipped
        assert all(c["status"] == "skipped_insufficient_data" for c in model["classifiers"])


class TestPipelineCommand:
    def test_pipeline_writes_reports_summary_and_transcripts(self, workspace):
        tmp_path, corpus, config = workspace
        build_assets(tmp_path, corpus, config)
        out = tmp_path / "out"
        assert run_cli("--config", config, "--out", out, "pipeline", "--corpus", corpus) == EXIT_OK
        lines = (out / "reports.jsonl").read_text().strip().splitlines()
        assert len(lines) == 6
        ids = [json.loads(l)["paper_id"] for l in lines]
        assert ids == sorted(ids)
        assert (out / "summary.txt").exists()
        transcripts = list((out / "transcripts").glob("*.json"))
        prepared = [json.loads(l) for l in lines if json.loads(l)["prepare"] is not None]
        assert len(transcripts) == len(prepared)

    def test_rate_command_overwrites_its_out_file(self, workspace):
        tmp_path, corpus, config = workspace
        build_assets(tmp_path, corpus, config)
        out_file = tmp_path / "verdicts.jsonl"
        args = (
            "--config", config, "rate", "--corpus", corpus,
            "--concept", tmp_path / "concept.json",
            "--cutoff", tmp_path / "cutoff.json",
            "--out-file", out_file,
        )
        assert run_cli(*args) == EXIT_OK
        first = out_file.read_text()
        assert run_cli(*args) == EXIT_OK
        assert out_file.read_text() == first
        ids = [json.loads(line)["paper_id"] for line in first.splitlines()]
        assert len(ids) == 5 and len(set(ids)) == 5

    def test_evaluate_on_rate_verdicts(self, workspace, capsys):
        tmp_path, corpus, config = workspace
        build_assets(tmp_path, corpus, config)
        out_file = tmp_path / "verdicts.jsonl"
        run_cli(
            "--config", config, "rate", "--corpus", corpus,
            "--concept", tmp_path / "concept.json",
            "--cutoff", tmp_path / "cutoff.json", "--out-file", out_file,
        )
        metrics_file = tmp_path / "metrics.json"
        assert run_cli(
            "evaluate", "--predictions", out_file,
            "--ground-truth", corpus / "ground_truth.csv",
            "--field", "rate", "--out-file", metrics_file,
        ) == EXIT_OK
        captured = capsys.readouterr().out
        assert "Accuracy:" in captured
        doc = json.loads(metrics_file.read_text())
        assert set(doc) == {"version", "accuracy", "precision", "recall", "f1", "f2"}

    def test_evaluate_rejects_a_paper_named_twice(self, workspace, capsys):
        tmp_path, corpus, config = workspace
        build_assets(tmp_path, corpus, config)
        out_file = tmp_path / "verdicts.jsonl"
        run_cli(
            "--config", config, "rate", "--corpus", corpus,
            "--concept", tmp_path / "concept.json",
            "--cutoff", tmp_path / "cutoff.json", "--out-file", out_file,
        )
        lines = out_file.read_text().splitlines()
        out_file.write_text("\n".join(lines + lines[1:2]) + "\n")
        capsys.readouterr()
        assert run_cli(
            "evaluate", "--predictions", out_file,
            "--ground-truth", corpus / "ground_truth.csv", "--field", "rate",
        ) == EXIT_CONFIG
        paper_id = json.loads(lines[1])["paper_id"]
        assert f"predictions name paper {paper_id!r} more than once" in capsys.readouterr().err

    def test_evaluate_on_pipeline_reports_matches_summary(self, workspace, capsys):
        tmp_path, corpus, config = workspace
        build_assets(tmp_path, corpus, config)
        out = tmp_path / "out"
        assert run_cli("--config", config, "--out", out, "pipeline", "--corpus", corpus) == EXIT_OK
        capsys.readouterr()
        assert run_cli(
            "evaluate", "--predictions", out / "reports.jsonl",
            "--ground-truth", corpus / "ground_truth.csv", "--field", "pipeline",
        ) == EXIT_OK
        printed = capsys.readouterr().out.splitlines()
        summary = (out / "summary.txt").read_text().splitlines()
        start = next(i for i, line in enumerate(summary) if line.startswith("Total"))
        table = summary[start:start + 5]
        assert table[-1].startswith("Accuracy:")
        assert printed[:5] == table


class TestPrepareCommand:
    def test_prepare_bundle_with_scripted_chat(self, workspace):
        tmp_path, corpus, config = workspace
        out_file = tmp_path / "prepare-p001.json"
        assert run_cli(
            "--config", config, "prepare",
            "--bundle", corpus / "p001", "--backend", "local",
            "--out-file", out_file,
        ) == EXIT_OK
        doc = json.loads(out_file.read_text())
        assert doc["status"] == "success"
        assert doc["snapshot_ref"]
        assert doc["transcript"]["steps"][0]["exit_code"] == 0

    def test_limits_file_overrides(self, workspace):
        tmp_path, corpus, config = workspace
        limits = tmp_path / "limits.json"
        limits.write_text(json.dumps({"max_iterations": 0}))
        out_file = tmp_path / "prepare-p001.json"
        assert run_cli(
            "--config", config, "prepare",
            "--bundle", corpus / "p001", "--backend", "local",
            "--limits", limits, "--out-file", out_file,
        ) == EXIT_OK
        assert json.loads(out_file.read_text())["status"] == "budget_exhausted"


class TestConfigErrors:
    def test_missing_config_file_exits_2(self, tmp_path):
        assert run_cli(
            "--config", tmp_path / "nope.ini", "pipeline", "--corpus", tmp_path
        ) == EXIT_CONFIG

    def test_enabled_stage_without_assets_exits_2(self, tmp_path, mock_corpus_path):
        config = tmp_path / "bad.ini"
        config.write_text("[rate]\nenabled = true\n")
        assert run_cli(
            "--config", config, "pipeline", "--corpus", mock_corpus_path
        ) == EXIT_CONFIG

    def test_calibration_split_without_both_labels_exits_2(self, workspace, capsys):
        tmp_path, corpus, config = workspace
        gt = corpus / "ground_truth.csv"
        rows = [line.split(",") for line in gt.read_text().splitlines()]
        column = rows[0].index("manually_runnable")
        for row in rows[1:]:
            row[column] = ""
        gt.write_text("\n".join(",".join(row) for row in rows) + "\n")
        assert run_cli(
            "--config", config, "extract-concept", "--corpus", corpus,
            "--n-train", "3", "--out-file", tmp_path / "concept.json",
        ) == EXIT_OK
        capsys.readouterr()
        assert run_cli(
            "--config", config, "calibrate", "--corpus", corpus,
            "--concept", tmp_path / "concept.json", "--n-train", "3",
            "--out-file", tmp_path / "cutoff.json",
        ) == EXIT_CONFIG
        assert "configuration error: calibration needs both" in capsys.readouterr().err
        assert not (tmp_path / "cutoff.json").exists()

    def test_bundle_without_source_ref_exits_2(self, workspace):
        tmp_path, corpus, config = workspace
        bundle = tmp_path / "empty-bundle"
        bundle.mkdir()
        (bundle / "paper.txt").write_text("text")
        assert run_cli(
            "--config", config, "prepare", "--bundle", bundle,
            "--backend", "local", "--out-file", tmp_path / "x.json",
        ) == EXIT_CONFIG
