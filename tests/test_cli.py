import contextlib
import errno
import json
import math
import shutil
import sys
from pathlib import Path

import pytest

from aekit import cli
from aekit.assess import AssessorModel, PitfallBank
from aekit.cli import EXIT_CONFIG, EXIT_OK, main
from aekit.gateway import MockEmbeddingProvider, ProviderConfig, RemoteEmbeddingProvider
from aekit.measure import ConceptVector
from aekit.pipeline import build_chat_factory
from aekit.prepare import OUTCOME_SUCCESS, AgentTranscript, PrepareOutcome
from aekit.rate import Cutoff

from conftest import VectorTransport, edited, train_pipeline_assets


DATA = Path(__file__).parent / "data"


def make_workspace(root, corpus_src, scripts_src):
    """The mock corpus, the chat scripts and a pipeline config under ``root``."""
    corpus = root / "corpus"
    shutil.copytree(corpus_src, corpus)
    scripts = root / "scripts.json"
    shutil.copy(scripts_src, scripts)

    config = root / "pipeline.ini"
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
        f"concept = {root / 'concept.json'}\n"
        f"cutoff = {root / 'cutoff.json'}\n"
        "\n"
        "[assess]\n"
        "enabled = true\n"
        f"bank = {root / 'bank.json'}\n"
        f"model = {root / 'model.json'}\n"
        "\n"
        "[prepare]\n"
        "enabled = true\n"
        "backend = local\n"
        f"workdir = {root / 'boxes'}\n"
        "max_iterations = 8\n"
        "command_timeout = 30\n"
        "\n"
        "[pipeline]\n"
        "gate = true\n"
        "seed = 0\n"
    )
    return root, corpus, config


@pytest.fixture
def workspace(tmp_path, mock_corpus_path, prepare_scripts_path):
    """A scratch dir with the mock corpus, scripts, and a pipeline config."""
    return make_workspace(tmp_path, mock_corpus_path, prepare_scripts_path)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A workspace whose concept, cutoff, bank and model are built once per module."""
    root, corpus, config = make_workspace(
        tmp_path_factory.mktemp("trained"), DATA / "mock_corpus", DATA / "prepare_scripts.json"
    )
    build_assets(root, corpus, config)
    return root, corpus, config


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
        assert len(concept["direction"]) == 48
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

    def test_evaluate_ignores_a_leading_byte_order_mark(self, workspace):
        tmp_path, corpus, _ = workspace
        text = b'{"paper_id": "p001", "pipeline_label": "runs"}\n{"paper_id": "p002", "pipeline_label": "runs"}\n'
        for name, content in (("plain", text), ("marked", b"\xef\xbb\xbf" + text)):
            (tmp_path / f"{name}.jsonl").write_bytes(content)
            assert run_cli(
                "evaluate", "--predictions", tmp_path / f"{name}.jsonl",
                "--ground-truth", corpus / "ground_truth.csv", "--out-file", tmp_path / f"{name}.json",
            ) == EXIT_OK
        assert (tmp_path / "marked.json").read_bytes() == (tmp_path / "plain.json").read_bytes()

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

    def test_evaluate_on_pipeline_reports_matches_summary(self, tmp_path, mock_corpus_path, prepare_scripts_path, capsys):
        # Criterion 7's run: summary.txt and `evaluate --field pipeline` count the same pairs.
        corpus, config = train_pipeline_assets(tmp_path, mock_corpus_path, prepare_scripts_path)
        out = tmp_path / "out"
        assert run_cli("--config", config, "--out", out, "pipeline", "--corpus", corpus) == EXIT_OK
        labels = [json.loads(line)["pipeline_label"] for line in (out / "reports.jsonl").read_text().splitlines()]
        assert {"runs", "not_runs", "skipped"} <= set(labels)
        capsys.readouterr()
        assert run_cli(
            "evaluate", "--predictions", out / "reports.jsonl", "--ground-truth", corpus / "ground_truth.csv",
            "--field", "pipeline", "--out-file", tmp_path / "metrics.json",
        ) == EXIT_OK
        printed = capsys.readouterr().out.splitlines()
        summary = (out / "summary.txt").read_text().splitlines()
        start = next(i for i, line in enumerate(summary) if line.startswith("Total"))
        table = summary[start:start + 5]
        assert table[0] == f"Total {len(labels):<6} Ground truth"
        assert table[-1].startswith("Accuracy:")
        assert printed[:5] == table
        accuracy = json.loads((tmp_path / "metrics.json").read_text())["accuracy"]
        assert summary[start + 5] == f"accuracy vs ground truth: {100.0 * accuracy:.2f}%"


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
        config.write_text(config.read_text().replace("max_iterations = 8\n", "max_iterations = 0\n"))
        out_file = tmp_path / "prepare-p001.json"
        assert run_cli(
            "--config", config, "prepare",
            "--bundle", corpus / "p001", "--backend", "local", "--out-file", out_file,
        ) == EXIT_OK
        assert json.loads(out_file.read_text())["status"] == "budget_exhausted"

    def test_backend_comes_from_the_config_unless_the_flag_is_given(self, workspace, monkeypatch):
        tmp_path, corpus, config = workspace
        config.write_text(config.read_text().replace("backend = local\n", "backend = container\n"))
        backends = []

        def recording_loop(bundle, spec, chat, limits):
            backends.append(spec.backend)
            transcript = AgentTranscript(bundle.paper_id, (), (), OUTCOME_SUCCESS, "ok")
            return PrepareOutcome(OUTCOME_SUCCESS, transcript, snapshot_ref="r")

        monkeypatch.setattr("aekit.cli.run_prepare_loop", recording_loop)
        for flag in ((), ("--backend", "local")):
            assert run_cli(
                "--config", config, "prepare", "--bundle", corpus / "p001", *flag,
                "--out-file", tmp_path / "x.json",
            ) == EXIT_OK
        assert backends == ["container", "local_process"]


    def test_local_backend_flag_over_a_denied_network_exits_2(self, workspace, capsys):
        tmp_path, corpus, config = workspace
        config.write_text(config.read_text().replace("backend = local\n", "backend = container\nnetwork = denied\n"))
        out_file = tmp_path / "x.json"
        assert run_cli(
            "--config", config, "prepare", "--bundle", corpus / "p001", "--backend", "local",
            "--out-file", out_file,
        ) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "configuration error: --backend local: network = denied needs backend = container\n"
        )
        assert not out_file.exists()


class TestCommandsCloseTheProvidersTheyBuild:
    @pytest.mark.parametrize(
        "command, code",
        [("extract-concept", EXIT_OK), ("calibrate", EXIT_OK), ("rate", EXIT_OK), ("assess-train", EXIT_OK),
         ("assess", EXIT_OK), ("extract-concept --n-train 1", EXIT_CONFIG)],
    )
    def test_each_embedding_command_closes_its_provider_once(self, trained, tmp_path, monkeypatch, command, code):
        root, corpus, config = trained
        closed = []

        class ClosingMock(MockEmbeddingProvider):
            def close(self):
                closed.append(self)

        monkeypatch.setattr(cli, "build_embedding_provider", lambda settings: ClosingMock(settings.seed, settings.dim))
        out = tmp_path / "out.json"
        if command == "assess-train":
            argv = ["assess-train", "--corpus", corpus, "--annotations", corpus / "ground_truth.csv",
                    "--n-train", "3", "--bank-out", tmp_path / "bank.json", "--model-out", tmp_path / "model.json"]
        else:
            name, *extra = command.split()
            argv = stage_argv(name, root, corpus, out) + extra
        assert run_cli("--config", config, *argv) == code
        assert len(closed) == 1

    @pytest.mark.parametrize("fails", [False, True], ids=["success", "error"])
    def test_prepare_closes_its_chat_factory_once(self, workspace, monkeypatch, fails):
        tmp_path, corpus, config = workspace
        closed = []

        def closing_factory(settings):
            factory = build_chat_factory(settings)

            def shared(paper_id):
                return factory(paper_id)

            shared.close = lambda: closed.append(settings)
            return shared

        def failing_loop(bundle, spec, chat, limits):
            raise RuntimeError("loop failed")

        monkeypatch.setattr(cli, "build_chat_factory", closing_factory)
        if fails:
            monkeypatch.setattr(cli, "run_prepare_loop", failing_loop)
        argv = ["--config", config, "prepare", "--bundle", corpus / "p001", "--out-file", tmp_path / "x.json"]
        with pytest.raises(RuntimeError, match="loop failed") if fails else contextlib.nullcontext():
            assert run_cli(*argv) == EXIT_OK
        assert len(closed) == 1


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

    @pytest.mark.parametrize(
        "content",
        [
            b"kind = mock\n",
            b"[embedding]\nkind = mock\n\n[embedding]\ndim = 8\n",
            b"[embedding]\nkind = mock\nkind = remote\n",
            b"[embedding]\nkind = mock\xff\n",
        ],
        ids=["no-section-header", "duplicate-section", "duplicate-key", "non-utf8"],
    )
    def test_malformed_config_exits_2(self, tmp_path, mock_corpus_path, capsys, content):
        config = tmp_path / "bad.ini"
        config.write_bytes(content)
        out = tmp_path / "out"
        assert run_cli(
            "--config", config, "--out", out, "pipeline", "--corpus", mock_corpus_path
        ) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"configuration error: config {config}: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "content, section, message",
        [
            ("[rating]\nenabled = true\n", "rating", "unknown section"),
            ("[embedding]\ndims = 8\n", "embedding", "unknown key 'dims' for kind = mock"),
            ("[chat]\nscripts = s.json\n", "chat", "unknown key 'scripts' for kind = scripted"),
            ("[rate]\nconcept_path = c.json\n", "rate", "unknown key 'concept_path'"),
            ("[assess]\nenable = true\n", "assess", "unknown key 'enable'"),
            ("[prepare]\nmax_iteration = 5\n", "prepare", "unknown key 'max_iteration'"),
            ("[pipeline]\noutput = out\n", "pipeline", "unknown key 'output'"),
            ("[rate]\nkind = remote\n", "rate", "unknown key 'kind'"),
            ("[embedding]\nkind = mock\nendpoint_url = http://x\n", "embedding",
             "unknown key 'endpoint_url' for kind = mock"),
            ("[chat]\nkind = remote\nendpoint_url = http://x\nmodel_name = m\nbatch_size = 4\n", "chat",
             "unknown key 'batch_size' for kind = remote"),
            ("[chat]\nkind = remote\nendpoint_url = http://x\nmodel_name = m\nembedding_dim = 7\n", "chat",
             "unknown key 'embedding_dim' for kind = remote"),
            ("[chat]\nkind = remote\nendpoint_url = http://x\nmodel_name = m\npooling = last\n", "chat",
             "unknown key 'pooling' for kind = remote"),
            ("[chat]\nkind = remote\nendpoint_url = http://x\nmodel_name = m\ncache_dir = /nowhere\n", "chat",
             "unknown key 'cache_dir' for kind = remote"),
            ("[embedding]\nkind = quantum\n", "embedding", "unknown kind 'quantum'"),
            # Values that parse but that no stage can use.
            ("[prepare]\ncommand_timeout = inf\n", "prepare",
             "command_timeout must be finite and positive, got inf"),
            ("[prepare]\ncommand_timeout = nan\n", "prepare",
             "command_timeout must be finite and positive, got nan"),
            ("[prepare]\ncommand_timeout = 0\n", "prepare",
             "command_timeout must be finite and positive, got 0.0"),
            ("[embedding]\nkind = remote\nendpoint_url = http://x\nmodel_name = m\nembedding_dim = 0\n",
             "embedding", "embedding_dim must be >= 1, got 0"),
            ("[embedding]\nkind = remote\nendpoint_url = http://x\nmodel_name = m\ntimeout = nan\n",
             "embedding", "timeout must be finite and positive, got nan"),
            ("[chat]\nkind = remote\nendpoint_url = http://x\nmodel_name = m\ntimeout = inf\n", "chat",
             "timeout must be finite and positive, got inf"),
            ("[prepare]\nbackend = local\nnetwork = denied\n", "prepare",
             "network = denied needs backend = container"),
            ("[prepare]\nworkdir =\n", "prepare",
             "workdir must not be empty; leave it out for the system's temporary directory"),
        ],
        ids=["section", "embedding", "chat", "rate", "assess", "prepare", "pipeline", "kind-in-rate",
             "embedding-mock-endpoint", "chat-remote-batch-size", "chat-remote-embedding-dim",
             "chat-remote-pooling", "chat-remote-cache-dir", "embedding-kind",
             "prepare-command-timeout-inf", "prepare-command-timeout-nan", "prepare-command-timeout-zero",
             "embedding-dim-zero", "embedding-timeout-nan", "chat-timeout-inf", "local-network-denied",
             "prepare-workdir-empty"],
    )
    def test_unknown_config_section_or_key_exits_2(
        self, tmp_path, mock_corpus_path, capsys, content, section, message
    ):
        config = tmp_path / "bad.ini"
        config.write_text(content)
        out = tmp_path / "out"
        assert run_cli(
            "--config", config, "--out", out, "pipeline", "--corpus", mock_corpus_path
        ) == EXIT_CONFIG
        assert capsys.readouterr().err == f"configuration error: config {config} [{section}]: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "model_line, message",
        [("", "missing 1 required positional argument: 'model_name'"),
         ("model_name =\n", "model_name must not be empty")],
        ids=["missing", "empty"],
    )
    def test_remote_embedding_without_model_name_exits_2(
        self, tmp_path, mock_corpus_path, capsys, model_line, message
    ):
        config = tmp_path / "bad.ini"
        config.write_text(f"[embedding]\nkind = remote\nendpoint_url = http://x\n{model_line}")
        assert run_cli("--config", config, "pipeline", "--corpus", mock_corpus_path) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: config {config} [embedding]: ") and message in err

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
        assert capsys.readouterr().err == (
            f"configuration error: corpus {corpus}: calibration needs both runs and not_runs examples\n"
        )
        assert not (tmp_path / "cutoff.json").exists()

    @pytest.mark.parametrize(
        "paper, source_ref",
        [(b"text", None), (b"text", b" \n\t"), (b"\xff\xfe text", b"https://example.org/repo\n")],
        ids=["missing", "whitespace", "non-utf8"],
    )
    def test_bundle_without_source_ref_exits_2(self, workspace, capsys, paper, source_ref):
        tmp_path, corpus, config = workspace
        bundle = tmp_path / "bad-bundle"
        bundle.mkdir()
        (bundle / "paper.txt").write_bytes(paper)
        if source_ref is not None:
            (bundle / "source.ref").write_bytes(source_ref)
        assert run_cli(
            "--config", config, "prepare", "--bundle", bundle,
            "--backend", "local", "--out-file", tmp_path / "x.json",
        ) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"configuration error: bundle {bundle}")
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize(
        "command, content, message",
        [
            ("evaluate", '{"paper_id": "p001", "pipeline_label": "runs"}\nnot json\n', "line 2 is not valid JSON"),
            ("evaluate", "[]\n", "line 1 is not a JSON object"),
            ("evaluate", '{"pipeline_label": "runs"}\n', "line 1 has no paper_id"),
            ("evaluate-rate", '{"paper_id": "p001", "rate": "runs"}\n',
             "line 1 has a rate that is not a JSON object"),
            ("evaluate", b"\xff\n", "can't decode byte 0xff"),
            ("evaluate", '{"paper_id": "p001", "pipeline_label": "runz"}\n', "line 1 has label 'runz'"),
            ("evaluate", '{"paper_id": "p001", "pipeline_label": 7}\n', "line 1 has label 7"),
            ("evaluate", '{"paper_id": "p001", "pipeline_label": "runs"}\n'
                         '{"paper_id": "unannotated", "pipeline_label": "runz"}\n', "line 2 has label 'runz'"),
            ("evaluate-rate", '{"paper_id": "p001", "label": "skipped"}\n', "line 1 has label 'skipped'"),
            ("evaluate-rate", '{"paper_id": "p001", "rate": {"label": "Runs"}}\n',
             "line 1 has label 'Runs'"),
            ("evaluate", '{"paper_id": 5, "pipeline_label": "runs"}\n',
             "line 1 has paper_id 5, which is not a string"),
            ("evaluate", '{"paper_id": "p001", "pipeline_label": "runs"}\n{"paper_id": ["a"], "pipeline_label": "runs"}\n',
             "line 2 has paper_id ['a'], which is not a string"),
            ("evaluate-rate", '{"paper_id": "p001", "rate": []}\n', "line 1 has a rate that is not a JSON object"),
            ("evaluate-rate", '{"paper_id": "p001", "rate": 0}\n', "line 1 has a rate that is not a JSON object"),
            ("evaluate-rate", '{"paper_id": "p001", "rate": false}\n', "line 1 has a rate that is not a JSON object"),
            ("evaluate-rate", '{"paper_id": "p001", "rate": ""}\n', "line 1 has a rate that is not a JSON object"),
            ("evaluate", '{"paper_id": "p001"}\n{"paper_id": "p001", "pipeline_label": "runs"}\n',
             "predictions name paper 'p001' more than once"),
        ],
        ids=["predictions-json", "predictions-array", "predictions-no-id", "predictions-rate-string",
             "predictions-utf8", "pipeline-label-unknown", "pipeline-label-number",
             "pipeline-label-unannotated-paper", "rate-label-skipped", "rate-label-case",
             "paper-id-number", "paper-id-list", "rate-empty-list", "rate-zero", "rate-false",
             "rate-empty-string", "paper-named-twice-once-unlabelled"],
    )
    def test_malformed_json_input_exits_2(self, workspace, capsys, command, content, message):
        tmp_path, corpus, config = workspace
        given = tmp_path / "input.json"
        given.write_bytes(content if isinstance(content, bytes) else content.encode())
        argv = ["evaluate", "--predictions", given, "--ground-truth", corpus / "ground_truth.csv",
                "--out-file", tmp_path / "x.json"]
        if command == "evaluate-rate":
            argv += ["--field", "rate"]
        assert run_cli(*argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and message in err
        assert str(given) in err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize(
        "command, artifact",
        [
            ("calibrate", "concept"), ("rate", "concept"), ("rate", "cutoff"),
            ("assess", "bank"), ("assess", "model"), ("pipeline", "concept"),
            ("pipeline", "cutoff"), ("pipeline", "bank"), ("pipeline", "model"),
        ],
    )
    @pytest.mark.parametrize(
        "content, message",
        [
            ("[]", "is not a JSON object"),
            ("{bad", "is not valid JSON"),
            ('{"version": NEWER}', "unsupported {kind} version: {newer}"),
            ('{"version": 1}', "missing field"),
        ],
        ids=["array", "json", "newer-version", "no-fields"],
    )
    def test_malformed_artifact_exits_2(
        self, trained, tmp_path, capsys, command, artifact, content, message
    ):
        root, corpus, config = trained
        files = {name: root / f"{name}.json" for name in ("concept", "cutoff", "bank", "model")}
        files[artifact] = given = tmp_path / f"{artifact}.json"
        cls = {"concept": ConceptVector, "cutoff": Cutoff, "bank": PitfallBank, "model": AssessorModel}[artifact]
        given.write_text(content.replace("NEWER", str(cls.VERSION + 1)))
        out = tmp_path / "out"
        if command == "pipeline":
            text = config.read_text().replace(str(root / f"{artifact}.json"), str(given))
            (tmp_path / "pipeline.ini").write_text(text)
            argv = ["--config", tmp_path / "pipeline.ini", "--out", out, "pipeline", "--corpus", corpus]
        else:
            argv = ["--config", config, command, "--corpus", corpus, "--out-file", out]
            argv += {
                "calibrate": ["--concept", files["concept"], "--n-train", "3"],
                "rate": ["--concept", files["concept"], "--cutoff", files["cutoff"]],
                "assess": ["--bank", files["bank"], "--model", files["model"]],
            }[command]
        assert run_cli(*argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and str(given) in err
        kind = {"concept": "concept vector", "cutoff": "cutoff", "bank": "pitfall bank",
                "model": "assessor model"}[artifact]
        assert message.format(kind=kind, newer=cls.VERSION + 1) in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "option, content, message",
        [
            ("--prompts", "{bad", "is not valid JSON"),
            ("--prompts", '{"positive": "a"}', "missing field 'negative'"),
            ("--prompts", '{"positive": 5, "negative": "b", "neutral": "c", "concept_name": "d"}',
             "positive: expected str, got int"),
            ("--prompts", '{"version": 7, "positive": "a", "negative": "b", "neutral": "c", "concept_name": "d"}',
             "unsupported PromptPair version: 7"),
            ("--pitfalls", "{bad", "is not valid JSON"),
            ("--pitfalls", "[]", "is not a JSON object"),
            ("--pitfalls", '{"pitfalls": [{"pitfall_id": "P1", "positive": "a", "negative": "b", '
                           '"neutral": "c"}]}', "missing field 'name'"),
            ("--pitfalls", '{"pitfalls": [{"pitfall_id": 3, "name": "n", "positive": "a", "negative": "b", '
                           '"neutral": "c"}]}', "pitfall_id must be a string, got 3"),
            ("--pitfalls", '{"pitfalls": [{"pitfall_id": "P1", "name": 5, "positive": "a", "negative": "b", '
                           '"neutral": "c"}]}', "name must be a string, got 5"),
            ("--pitfalls", '{"version": 7, "pitfalls": [{"pitfall_id": "P1", "name": "n", "positive": "a", '
                           '"negative": "b", "neutral": "c"}]}', "unsupported pitfalls version: 7"),
            ("script", "{bad", "is not valid JSON"),
            ("script", b"\xff\xfe{}", "can't decode byte 0xff"),
            ("script", '{"*": "ab"}', "every script must be a list of strings"),
        ],
        ids=["prompts-json", "prompts-no-negative", "prompts-positive-int", "prompts-version",
             "pitfalls-json", "pitfalls-array", "pitfalls-no-name", "pitfalls-id-int", "pitfalls-name-int",
             "pitfalls-version",
             "chat-script-json", "chat-script-utf8", "chat-script-string"],
    )
    def test_malformed_prompt_or_script_file_exits_2(
        self, trained, tmp_path, capsys, option, content, message
    ):
        root, corpus, config = trained
        given = tmp_path / "input.json"
        given.write_bytes(content if isinstance(content, bytes) else content.encode())
        out = tmp_path / "out.json"
        if option == "--prompts":
            argv = ["--config", config, "extract-concept", "--corpus", corpus, "--n-train", "3",
                    "--prompts", given, "--out-file", out]
        elif option == "--pitfalls":
            argv = ["--config", config, "assess-train", "--corpus", corpus,
                    "--annotations", corpus / "ground_truth.csv", "--n-train", "3",
                    "--pitfalls", given, "--bank-out", out, "--model-out", tmp_path / "model.json"]
        else:
            text = config.read_text().replace(str(root / "scripts.json"), str(given))
            (tmp_path / "pipeline.ini").write_text(text)
            argv = ["--config", tmp_path / "pipeline.ini", "prepare", "--bundle", corpus / "p001",
                    "--out-file", out]
        assert run_cli(*argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and str(given) in err and message in err
        assert not out.exists() and not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize(
        "command, n_train",
        [("extract-concept", 2), ("assess-train", 2), ("extract-concept", -1),
         ("calibrate", -1), ("assess-train", -1)],
    )
    def test_n_train_out_of_range_exits_2(self, trained, tmp_path, capsys, command, n_train):
        root, corpus, config = trained
        out = tmp_path / "out.json"
        argv = ["--config", config, command, "--corpus", corpus, "--n-train", n_train]
        argv += {
            "extract-concept": ["--out-file", out],
            "calibrate": ["--concept", root / "concept.json", "--out-file", out],
            "assess-train": ["--annotations", corpus / "ground_truth.csv",
                             "--bank-out", out, "--model-out", out],
        }[command]
        assert run_cli(*argv) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("configuration error: --n-train must be at least")
        assert not out.exists()

    @pytest.mark.parametrize(
        "command", ["evaluate", "pipeline", "extract-concept", "calibrate", "assess-train"]
    )
    @pytest.mark.parametrize(
        "row, message",
        [
            (b"p099,definitely,true,true", "cannot parse boolean 'definitely'"),
            (b"p099,true,true,\xff", "can't decode byte 0xff"),
            (b"p002,true,true,true", "duplicate annotation for 'p002'"),
            (b"p099,true", "the row ending on line 8 does not have one cell for each of the header's 8"),
            (b"p099,true,true,true,absent,absent,absent,absent,present,extra",
             "the row ending on line 8 does not have one cell for each of the header's 8"),
            # A pair of bytes rewrites the header instead.
            ((b",P3,", b",P2,"), "header column 7 is a second 'P2'"),
            ((b",P3,", b",,"), "header column 7 is blank"),
        ],
        ids=["bad-boolean", "non-utf8", "duplicate-id", "short-row", "long-row", "repeated-column",
             "blank-column"],
    )
    def test_malformed_ground_truth_exits_2(self, trained, tmp_path, capsys, command, row, message):
        root, corpus_src, config = trained
        corpus = tmp_path / "corpus"
        shutil.copytree(corpus_src, corpus)
        gt = corpus / "ground_truth.csv"
        text = gt.read_bytes()
        gt.write_bytes(text.replace(*row) if isinstance(row, tuple) else text + row + b"\n")
        out = tmp_path / "out"
        argv = {
            "evaluate": ["evaluate", "--predictions", tmp_path / "none.jsonl", "--ground-truth", gt,
                         "--out-file", out],
            "pipeline": ["--out", out, "pipeline", "--corpus", corpus],
            "extract-concept": ["extract-concept", "--corpus", corpus, "--n-train", "3", "--out-file", out],
            "calibrate": ["calibrate", "--corpus", corpus, "--concept", root / "concept.json",
                          "--n-train", "3", "--out-file", out],
            "assess-train": ["assess-train", "--corpus", corpus, "--annotations", gt, "--n-train", "3",
                             "--bank-out", out, "--model-out", out],
        }[command]
        (tmp_path / "none.jsonl").write_text("")
        assert run_cli("--config", config, *argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {gt}: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["wrong-kind", "under-a-file", "too-long"])
    @pytest.mark.parametrize(
        "option",
        ["--concept", "--cutoff", "--bank", "--model", "--prompts", "--pitfalls", "--predictions",
         "--annotations", "--ground-truth", "script", "--corpus", "--bundle", "--config", "--out-file",
         "--out", "cache_dir"],
    )
    def test_an_unusable_path_exits_2_naming_it(self, trained, tmp_path, capsys, option, kind):
        root, corpus, config = trained
        a_file = tmp_path / "a-file"
        a_file.write_text("")
        # A wrong-kind path is a regular file where a directory is named and
        # a directory where a file is.
        names_a_directory = option in ("--corpus", "--bundle", "--out", "cache_dir")
        given = {
            "wrong-kind": a_file if names_a_directory else tmp_path / "a-directory",
            "under-a-file": a_file / "x",
            "too-long": tmp_path / ("x" * 256),
        }[kind]
        if kind == "wrong-kind" and not names_a_directory:
            given.mkdir()
        out = tmp_path / "out.json"
        predictions = tmp_path / "predictions.jsonl"
        predictions.write_text('{"paper_id": "p001", "pipeline_label": "runs"}\n')
        gt = corpus / "ground_truth.csv"
        text = config.read_text()
        if option == "script":
            text = text.replace(str(root / "scripts.json"), str(given))
        if option == "cache_dir":
            text = text.replace("kind = mock\nseed = 11\ndim = 48\n", "kind = remote\nmodel_name = m\n"
                                f"endpoint_url = http://127.0.0.1:9\ncache_dir = {given}\n")
        config = tmp_path / "pipeline.ini"
        config.write_text(text)
        argv = {
            "--concept": ["rate", "--corpus", corpus, "--concept", given, "--cutoff", root / "cutoff.json",
                          "--out-file", out],
            "--cutoff": ["rate", "--corpus", corpus, "--concept", root / "concept.json", "--cutoff", given,
                         "--out-file", out],
            "--bank": ["assess", "--corpus", corpus, "--bank", given, "--model", root / "model.json",
                       "--out-file", out],
            "--model": ["assess", "--corpus", corpus, "--bank", root / "bank.json", "--model", given,
                        "--out-file", out],
            "--prompts": ["extract-concept", "--corpus", corpus, "--n-train", "3", "--prompts", given,
                          "--out-file", out],
            "--pitfalls": ["assess-train", "--corpus", corpus, "--annotations", gt, "--n-train", "3",
                           "--pitfalls", given, "--bank-out", out, "--model-out", out],
            "--annotations": ["assess-train", "--corpus", corpus, "--annotations", given, "--n-train", "3",
                              "--bank-out", out, "--model-out", out],
            "--predictions": ["evaluate", "--predictions", given, "--ground-truth", gt, "--out-file", out],
            "--ground-truth": ["evaluate", "--predictions", predictions, "--ground-truth", given,
                               "--out-file", out],
            "script": ["prepare", "--bundle", corpus / "p001", "--out-file", out],
            "--corpus": stage_argv("rate", root, given, out),
            "--bundle": ["prepare", "--bundle", given, "--out-file", out],
            "--config": stage_argv("rate", root, corpus, out),
            "--out-file": ["evaluate", "--predictions", predictions, "--ground-truth", gt, "--out-file", given],
            "--out": stage_argv("pipeline", root, corpus, given),
            "cache_dir": stage_argv("rate", root, corpus, out),
        }[option]
        before = sorted(tmp_path.rglob("*"))
        assert run_cli("--config", given if option == "--config" else config, *argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and str(given) in err
        assert sorted(tmp_path.rglob("*")) == before

    def test_annotations_without_the_training_papers_exit_2_and_write_nothing(
        self, trained, tmp_path, capsys, monkeypatch
    ):
        root, corpus, config = trained
        embedded = []

        class CountingMock(MockEmbeddingProvider):
            def embed_many(self, items):
                embedded.extend(items)
                return super().embed_many(items)

        monkeypatch.setattr(cli, "build_embedding_provider", lambda settings: CountingMock(settings.seed, settings.dim))
        annotations = tmp_path / "annotations.csv"
        annotations.write_text("paper_id,code_available,readme_present,manually_runnable,P1\n"
                               "elsewhere,true,true,true,present\n")
        bank, model = tmp_path / "bank.json", tmp_path / "model.json"
        assert run_cli(
            "--config", config, "assess-train", "--corpus", corpus, "--annotations", annotations,
            "--n-train", "3", "--bank-out", bank, "--model-out", model,
        ) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: annotations {annotations}: no annotation for paper")
        assert not bank.exists() and not model.exists()
        assert embedded == []

    def test_a_closed_stdout_is_not_reported_as_a_configuration_error(self, trained, tmp_path, capsys, monkeypatch):
        root, corpus, config = trained
        predictions = tmp_path / "predictions.jsonl"
        predictions.write_text('{"paper_id": "p001", "pipeline_label": "runs"}\n')

        class ClosedStdout:
            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, "Broken pipe")

            def flush(self):
                pass

        monkeypatch.setattr(sys, "stdout", ClosedStdout())
        with pytest.raises(BrokenPipeError):
            run_cli("evaluate", "--predictions", predictions, "--ground-truth", corpus / "ground_truth.csv")
        assert "configuration error" not in capsys.readouterr().err


def stage_argv(command, root, corpus, out):
    """Arguments of a corpus command over ``root``'s trained artifacts, writing to ``out``."""
    return {
        "extract-concept": ["extract-concept", "--corpus", corpus, "--n-train", "3", "--out-file", out],
        "calibrate": ["calibrate", "--corpus", corpus, "--concept", root / "concept.json",
                      "--n-train", "3", "--out-file", out],
        "rate": ["rate", "--corpus", corpus, "--concept", root / "concept.json",
                 "--cutoff", root / "cutoff.json", "--out-file", out],
        "assess": ["assess", "--corpus", corpus, "--bank", root / "bank.json",
                   "--model", root / "model.json", "--out-file", out],
        "pipeline": ["--out", out, "pipeline", "--corpus", corpus],
    }[command]


class TestStageCommands:
    def test_a_missing_annotated_readme_exits_2_and_writes_nothing(self, trained, tmp_path, capsys):
        root, corpus_src, config = trained
        corpus = tmp_path / "corpus"
        shutil.copytree(corpus_src, corpus)
        (corpus / "p002" / "readme.txt").unlink()
        out = tmp_path / "rate.jsonl"
        assert run_cli("--config", config, *stage_argv("rate", root, corpus, out)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: readme_present is true") and "p002" in err
        assert not out.exists()

    def test_pipeline_records_a_missing_annotated_readme_as_a_rate_error(self, trained, tmp_path):
        root, corpus_src, config = trained
        corpus = tmp_path / "corpus"
        shutil.copytree(corpus_src, corpus)
        (corpus / "p002" / "readme.txt").unlink()
        out = tmp_path / "out"
        assert run_cli("--config", config, *stage_argv("pipeline", root, corpus, out)) == EXIT_OK
        reports = {r["paper_id"]: r for r in map(json.loads, (out / "reports.jsonl").read_text().splitlines())}
        assert reports["p002"]["rate"] is None
        assert reports["p002"]["errors"] == ["rate: readme_present is true but readme.txt is missing or empty"]
        assert all(reports[p]["rate"] is not None for p in ("p001", "p003", "p004", "p006"))

    def test_rate_rates_unannotated_papers_with_a_readme(self, trained, tmp_path, capsys):
        root, corpus_src, config = trained
        corpus = tmp_path / "corpus"
        shutil.copytree(corpus_src, corpus)
        (corpus / "ground_truth.csv").unlink()
        outputs = []
        for name, source in (("annotated", corpus_src), ("unannotated", corpus)):
            out = tmp_path / f"{name}.jsonl"
            assert run_cli("--config", config, *stage_argv("rate", root, source, out)) == EXIT_OK
            assert capsys.readouterr().out.startswith("rated 5 papers")
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert len(outputs[1].splitlines()) == 5

    @pytest.mark.parametrize("command", ["extract-concept", "calibrate"])
    def test_training_papers_without_readme_text_exit_2(self, trained, tmp_path, capsys, command):
        root, corpus_src, config = trained
        corpus = tmp_path / "corpus"
        shutil.copytree(corpus_src, corpus)
        for readme in corpus.glob("*/readme.txt"):
            readme.write_text("")
        out = tmp_path / "out.json"
        assert run_cli("--config", config, *stage_argv(command, root, corpus, out)) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("configuration error: readme_present is true")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["assess", "pipeline"])
    def test_a_bank_and_model_that_do_not_match_exit_2(self, trained, tmp_path, capsys, command):
        root, corpus, config = trained
        model = json.loads((root / "model.json").read_text())
        model["classifiers"].pop()
        given = tmp_path / "model.json"
        given.write_text(json.dumps(model))
        out = tmp_path / "out"
        argv = stage_argv(command, root, corpus, out)
        if command == "pipeline":
            text = config.read_text().replace(str(root / "model.json"), str(given))
            config = tmp_path / "pipeline.ini"
            config.write_text(text)
            flags = ("bank ", "model ")
        else:
            argv[argv.index("--model") + 1] = given
            flags = ("--bank ", "--model ")
        assert run_cli("--config", config, *argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and "bank has 10 pitfalls, model has 9" in err
        assert f"{flags[0]}{root / 'bank.json'}" in err and f"{flags[1]}{given}" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, artifact, path, value, message",
        [
            ("assess", "model", ("classifiers", 0, "trained_on"), True,
             "classifiers[0].trained_on: expected int, got bool"),
            ("rate", "cutoff", ("n_train",), 2.9, "n_train: expected int, got float"),
            ("rate", "cutoff", ("threshold",), "0.5", "threshold: expected float, got str"),
            ("pipeline", "cutoff", ("threshold",), math.nan, "threshold: expected a finite float, got nan"),
            ("rate", "cutoff", ("version",), True, "unsupported cutoff version: True"),
            ("assess", "bank", ("entries", 0, "name"), 5, "entries[0].name: expected str, got int"),
            ("assess", "bank", ("entries", 0, "concept", "probe_count"), 3.0,
             "entries[0].concept.probe_count: expected int, got float"),
            ("assess", "model", ("classifiers", 0, "weights"), "0.5",
             "classifiers[0].weights: expected array, got str"),
            ("rate", "concept", ("direction", 3), "0.1", "direction[3]: expected float, got str"),
            ("pipeline", "bank", ("entries", 1, "concept"), [], "entries[1].concept: expected object, got array"),
            ("rate", "concept", ("probe_count",), None, "probe_count: expected int, got null"),
        ],
        ids=["int-bool", "int-float", "float-str", "float-nan", "version-bool", "str", "nested-int",
             "tuple", "direction-entry", "nested-object", "null"],
    )
    def test_a_wrong_typed_artifact_exits_2_naming_the_field(
        self, trained, tmp_path, capsys, command, artifact, path, value, message
    ):
        root, corpus, config = trained
        given = tmp_path / f"{artifact}.json"
        given.write_text(json.dumps(edited(json.loads((root / f"{artifact}.json").read_text()), path, value)))
        out = tmp_path / "out"
        argv = stage_argv(command, root, corpus, out)
        if command == "pipeline":
            text = config.read_text().replace(str(root / f"{artifact}.json"), str(given))
            config = tmp_path / "pipeline.ini"
            config.write_text(text)
        else:
            argv[argv.index(f"--{artifact}") + 1] = given
        assert run_cli("--config", config, *argv) == EXIT_CONFIG
        assert capsys.readouterr().err == f"configuration error: {given}: {message}\n"
        assert not out.exists()

    def test_a_bank_entry_without_a_field_exits_2(self, trained, tmp_path, capsys):
        root, corpus, config = trained
        bank = json.loads((root / "bank.json").read_text())
        del bank["entries"][0]["neutral_prompt"]
        given = tmp_path / "bank.json"
        given.write_text(json.dumps(bank))
        out = tmp_path / "out"
        argv = stage_argv("assess", root, corpus, out)
        argv[argv.index("--bank") + 1] = given
        assert run_cli("--config", config, *argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"configuration error: {given}: entries[0]: missing field 'neutral_prompt'\n"
        assert not out.exists()

    def test_a_file_in_place_of_the_transcripts_directory_exits_2_and_writes_nothing(
        self, trained, tmp_path, capsys
    ):
        root, corpus, config = trained
        out = tmp_path / "out"
        out.mkdir()
        (out / "transcripts").write_text("")
        assert run_cli("--config", config, *stage_argv("pipeline", root, corpus, out)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and str(out / "transcripts") in err
        assert [p.name for p in out.iterdir()] == ["transcripts"]

    @pytest.mark.parametrize("paper_dirs", [(), ("p001",)], ids=["empty", "no-paper-txt"])
    def test_pipeline_over_a_corpus_without_a_paper_exits_2_and_writes_nothing(
        self, trained, tmp_path, capsys, monkeypatch, paper_dirs
    ):
        root, _, config = trained
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for name in paper_dirs:
            (corpus / name).mkdir()
        monkeypatch.setattr(cli, "run_pipeline", lambda *args: pytest.fail("providers were built"))
        out = tmp_path / "out"
        assert run_cli("--config", config, *stage_argv("pipeline", root, corpus, out)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.endswith(f"configuration error: corpus {corpus} has no paper to run\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "command", ["extract-concept", "calibrate", "rate", "assess-train", "assess"]
    )
    def test_every_command_refuses_a_corpus_without_a_paper(self, trained, tmp_path, capsys, command):
        root, corpus_src, config = trained
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        out = tmp_path / "out"
        if command == "assess-train":
            argv = ["assess-train", "--corpus", corpus, "--annotations", corpus_src / "ground_truth.csv",
                    "--n-train", "3", "--bank-out", out, "--model-out", tmp_path / "model.json"]
        else:
            argv = stage_argv(command, root, corpus, out)
        assert run_cli("--config", config, *argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == f"configuration error: corpus {corpus} has no paper to run\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("command", ["assess", "pipeline"])
    @pytest.mark.parametrize("weights", [[], [0.5, -0.25]], ids=["none", "two"])
    def test_a_trained_classifier_with_the_wrong_weight_count_exits_2(
        self, trained, tmp_path, capsys, command, weights
    ):
        root, corpus, config = trained
        model = json.loads((root / "model.json").read_text())
        assert model["mode"] == "univariate"
        model["classifiers"][1].update(status="trained", weights=weights, bias=0.0, trained_on=10)
        given = tmp_path / "model.json"
        given.write_text(json.dumps(model))
        out = tmp_path / "out"
        argv = stage_argv(command, root, corpus, out)
        if command == "pipeline":
            text = config.read_text().replace(str(root / "model.json"), str(given))
            config = tmp_path / "pipeline.ini"
            config.write_text(text)
        else:
            argv[argv.index("--model") + 1] = given
        assert run_cli("--config", config, *argv) == EXIT_CONFIG
        pid = model["classifiers"][1]["pitfall_id"]
        assert capsys.readouterr().err == (
            f"configuration error: {given}: classifiers[1] ({pid}) has {len(weights)} weights; "
            "mode univariate needs 1\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["extract-concept", "rate", "assess", "pipeline"])
    def test_skipped_corpus_entries_are_named_on_stderr(self, trained, tmp_path, capsys, command):
        root, corpus_src, config = trained
        corpus = tmp_path / "corpus"
        shutil.copytree(corpus_src, corpus)
        (corpus / "p007").mkdir()
        outputs = []
        for name, source in (("clean", corpus_src), ("skipped", corpus)):
            out = tmp_path / name
            assert run_cli("--config", config, *stage_argv(command, root, source, out)) == EXIT_OK
            captured = capsys.readouterr()
            files = [out] if out.is_file() else [out / "reports.jsonl", out / "summary.txt"]
            outputs.append((captured.out.replace(str(out), "OUT"), captured.err,
                            [f.read_bytes() for f in files]))
        clean, skipped = outputs
        assert clean[1] == "" and skipped[1] == "skipped p007: missing paper.txt\n"
        assert skipped[0] == clean[0] and skipped[2] == clean[2]

    @pytest.mark.parametrize("command, items", [("rate", 5), ("assess", 6 * 10)])
    def test_remote_provider_sends_full_batches(self, trained, tmp_path, monkeypatch, command, items):
        root, corpus, config = trained
        monkeypatch.setenv("AEKIT_TEST_TOKEN", "t")
        transport = VectorTransport(dim=48)
        cfg = ProviderConfig("http://fake.test", "m", auth_token_env="AEKIT_TEST_TOKEN", batch_size=32)
        monkeypatch.setattr(cli, "build_embedding_provider", lambda settings: RemoteEmbeddingProvider(cfg, transport))
        out = tmp_path / "out.jsonl"
        assert run_cli("--config", config, *stage_argv(command, root, corpus, out)) == EXIT_OK
        assert [len(r) for r in transport.requests] == [32] * (items // 32) + [items % 32]
        assert len(transport.requests) == math.ceil(items / 32)
