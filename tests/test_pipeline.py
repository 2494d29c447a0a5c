import json
import os
import shutil
from dataclasses import replace

import numpy as np
import pytest

from aekit import pipeline
from aekit.assess import AssessorModel, PitfallBank, PitfallBankEntry, PitfallClassifier, STATUS_SKIPPED
from aekit.cli import EXIT_CONFIG, EXIT_OK, main as cli_main
from aekit.corpus import CorpusEntry, GroundTruthRecord, load_corpus
from aekit.gateway import (
    ChatMessage,
    MockEmbeddingProvider,
    ProviderConfig,
    RemoteChatProvider,
    RemoteEmbeddingProvider,
    ScriptedChatProvider,
)
from aekit.jsonio import canonical_dumps
from aekit.measure import ConceptVector
from aekit.metrics import ConfusionMatrix, paired_confusion, render_confusion_table
from aekit.pipeline import (
    AssessSettings,
    ConfigError,
    MockEmbedding,
    PipelineConfig,
    PIPELINE_NOT_RUNS,
    PIPELINE_RUNS,
    PIPELINE_SKIPPED,
    PrepareSettings,
    PrepareSummary,
    RateSettings,
    VerdictReport,
    build_chat_factory,
    build_embedding_provider,
    load_pipeline_config,
    render_report,
    run_pipeline,
)
from aekit.prepare import AgentTranscript, OUTCOME_SUCCESS, PrepareLimits, PrepareOutcome
from aekit.rate import Cutoff
from aekit.sandbox import SandboxSpec

from conftest import CountingMockProvider, VectorTransport, done_message, run_message, train_pipeline_assets


class MarkerProvider:
    """Vector depends on which paper marker appears in the document."""

    provider_id = "marker-test"

    def __init__(self, dim, markers):
        self.dim = dim
        self.markers = markers

    def embed(self, system_prompt, document):
        for marker, value in self.markers.items():
            if marker in document:
                vec = np.zeros(self.dim)
                vec[0] = value
                return vec
        return np.zeros(self.dim)


def entry(pid, marker, runnable=True, readme=True, source=True):
    return CorpusEntry(
        paper_id=pid,
        paper_text=f"paper body {marker}",
        readme_text=f"readme body {marker}" if readme else None,
        source_ref=f"https://example.org/{pid}.git" if source else None,
        ground_truth=GroundTruthRecord(
            pid, code_available=source, readme_present=readme and source,
            manually_runnable=runnable,
        ),
    )


def axis_concept_files(tmp_path, dim=4, threshold=1.0):
    direction = np.zeros(dim)
    direction[0] = 1.0
    concept = ConceptVector(direction, "reproducibility", "marker-test", "dg", 3)
    cutoff = Cutoff(threshold=threshold, train_recall=1.0, train_precision=0.5, n_train=4)
    concept_path = tmp_path / "concept.json"
    cutoff_path = tmp_path / "cutoff.json"
    concept_path.write_text(concept.to_json())
    cutoff_path.write_text(cutoff.to_json())
    return str(concept_path), str(cutoff_path)


def recording_prepare_fn(record):
    def prepare_fn(bundle, chat):
        record.append(bundle.paper_id)
        transcript = AgentTranscript(bundle.paper_id, (), (), OUTCOME_SUCCESS, "ok")
        return PrepareOutcome(
            status=OUTCOME_SUCCESS, transcript=transcript, snapshot_ref="ref"
        )

    return prepare_fn


def gate_fixture(tmp_path, gate=True, rate_enabled=True):
    concept_path, cutoff_path = axis_concept_files(tmp_path)
    config = PipelineConfig(
        rate=RateSettings(enabled=rate_enabled, concept_path=concept_path, cutoff_path=cutoff_path),
        prepare=__import__("aekit.pipeline", fromlist=["PrepareSettings"]).PrepareSettings(enabled=True),
        gate=gate,
        seed=7,
    )
    entries = [
        entry("hi1", "MARK-HI-1", runnable=True),
        entry("hi2", "MARK-HI-2", runnable=True),
        entry("lo1", "MARK-LO-1", runnable=False),
        entry("lo2", "MARK-LO-2", runnable=False),
    ]
    provider = MarkerProvider(
        4, {"MARK-HI-1": 2.0, "MARK-HI-2": 3.0, "MARK-LO-1": -1.0, "MARK-LO-2": -2.0}
    )
    return config, entries, provider


class TestGate:
    def test_exactly_two_prepare_invocations_for_gated_corpus(self, tmp_path):
        config, entries, provider = gate_fixture(tmp_path)
        invoked = []
        result = run_pipeline(
            config, entries, embedding_provider=provider,
            chat_factory=lambda pid: None, prepare_fn=recording_prepare_fn(invoked),
        )
        assert sorted(invoked) == ["hi1", "hi2"]
        by_id = {r.paper_id: r for r in result.reports}
        assert by_id["hi1"].pipeline_label == PIPELINE_RUNS
        assert by_id["lo1"].pipeline_label == PIPELINE_SKIPPED
        assert by_id["lo1"].prepare is None
        assert by_id["lo1"].rate.label == "not_runs"

    def test_gate_disabled_prepares_every_paper_with_code(self, tmp_path):
        config, entries, provider = gate_fixture(tmp_path, gate=False)
        invoked = []
        run_pipeline(
            config, entries, embedding_provider=provider,
            chat_factory=lambda pid: None, prepare_fn=recording_prepare_fn(invoked),
        )
        assert sorted(invoked) == ["hi1", "hi2", "lo1", "lo2"]

    def test_rate_disabled_prepares_every_paper_with_code(self, tmp_path):
        config, entries, provider = gate_fixture(tmp_path, rate_enabled=False)
        invoked = []
        result = run_pipeline(
            config, entries, embedding_provider=provider,
            chat_factory=lambda pid: None, prepare_fn=recording_prepare_fn(invoked),
        )
        assert sorted(invoked) == ["hi1", "hi2", "lo1", "lo2"]
        assert all(r.rate is None for r in result.reports)

    def test_paper_without_source_is_skipped(self, tmp_path):
        config, entries, provider = gate_fixture(tmp_path)
        entries.append(entry("nosrc", "MARK-HI-3", source=False, readme=False))
        invoked = []
        result = run_pipeline(
            config, entries, embedding_provider=provider,
            chat_factory=lambda pid: None, prepare_fn=recording_prepare_fn(invoked),
        )
        assert "nosrc" not in invoked
        by_id = {r.paper_id: r for r in result.reports}
        assert by_id["nosrc"].pipeline_label == PIPELINE_SKIPPED


class TestFaultIsolation:
    def test_one_papers_prepare_error_does_not_suppress_others(self, tmp_path):
        config, entries, provider = gate_fixture(tmp_path)

        def exploding_prepare(bundle, chat):
            if bundle.paper_id == "hi1":
                raise RuntimeError("engine exploded")
            transcript = AgentTranscript(bundle.paper_id, (), (), OUTCOME_SUCCESS, "ok")
            return PrepareOutcome(OUTCOME_SUCCESS, transcript, snapshot_ref="r")

        result = run_pipeline(
            config, entries, embedding_provider=provider,
            chat_factory=lambda pid: None, prepare_fn=exploding_prepare,
        )
        by_id = {r.paper_id: r for r in result.reports}
        assert len(result.reports) == 4
        assert any("engine exploded" in e for e in by_id["hi1"].errors)
        assert by_id["hi1"].pipeline_label == PIPELINE_SKIPPED  # nothing ran
        assert by_id["hi2"].pipeline_label == PIPELINE_RUNS

    def test_stage_errors_are_recorded_in_stage_order(self, tmp_path):
        # lo1's documents fail to embed, so its rate and assess stages fail;
        # with no verdict to gate on it is still prepared, and that fails too.
        config, entries, provider = gate_fixture(tmp_path)
        concept = ConceptVector(np.array([1.0, 0.0, 0.0, 0.0]), "pitfall", "marker-test", "dg", 3)
        bank = PitfallBank((PitfallBankEntry("P1", "one", "neutral", concept),))
        model = AssessorModel("univariate", (PitfallClassifier("P1", STATUS_SKIPPED),))
        bank_path, model_path = tmp_path / "bank.json", tmp_path / "model.json"
        bank_path.write_text(bank.to_json())
        model_path.write_text(model.to_json())
        config = replace(config, assess=AssessSettings(True, str(bank_path), str(model_path)))

        class FailingMarkerProvider(MarkerProvider):
            def embed(self, system_prompt, document):
                if "MARK-LO-1" in document:
                    raise RuntimeError("no vector for MARK-LO-1")
                return super().embed(system_prompt, document)

        def prepare_fn(bundle, chat):
            if bundle.paper_id == "lo1":
                raise RuntimeError("no sandbox for lo1")
            return recording_prepare_fn([])(bundle, chat)

        def run(workers):
            return run_pipeline(
                replace(config, workers=workers), entries,
                embedding_provider=FailingMarkerProvider(provider.dim, provider.markers),
                chat_factory=lambda pid: None, prepare_fn=prepare_fn,
            )

        result = run(1)
        assert [r.to_json() for r in result.reports] == [r.to_json() for r in run(2).reports]
        by_id = {r.paper_id: r for r in result.reports}
        assert [r.paper_id for r in result.reports] == ["hi1", "hi2", "lo1", "lo2"]
        assert by_id["lo1"].errors == (
            "rate: no vector for MARK-LO-1",
            "prepare: no sandbox for lo1",
            "assess: no vector for MARK-LO-1",
        )
        assert by_id["lo1"].rate is None and by_id["lo1"].prepare is None and by_id["lo1"].assess is None
        assert by_id["lo1"].pipeline_label == PIPELINE_SKIPPED
        assert by_id["lo2"].errors == () and by_id["lo2"].rate.label == "not_runs"
        assert by_id["lo2"].prepare is None and by_id["lo2"].pipeline_label == PIPELINE_SKIPPED
        assert by_id["lo2"].assess is not None
        for pid in ("hi1", "hi2"):
            assert by_id[pid].errors == () and by_id[pid].pipeline_label == PIPELINE_RUNS
        assert set(result.prepare_outcomes) == {"hi1", "hi2"}

    def test_invalid_config_aborts_before_any_stage(self, tmp_path):
        with pytest.raises(ConfigError):
            run_pipeline(PipelineConfig(rate=RateSettings(enabled=True)), [entry("a", "M")])

    def test_bank_and_model_that_do_not_match_abort_before_any_stage(self, tmp_path):
        config, entries, _ = gate_fixture(tmp_path)
        concept = ConceptVector(np.array([1.0, 0.0, 0.0, 0.0]), "pitfall", "marker-test", "dg", 3)
        bank = PitfallBank((PitfallBankEntry("P1", "one", "neutral", concept),))
        model = AssessorModel("univariate", (PitfallClassifier("P2", STATUS_SKIPPED),))
        bank_path, model_path = tmp_path / "bank.json", tmp_path / "model.json"
        bank_path.write_text(bank.to_json())
        model_path.write_text(model.to_json())
        config = replace(config, assess=AssessSettings(True, str(bank_path), str(model_path)))
        provider = CountingMockProvider(dim=4)
        invoked = []
        with pytest.raises(ConfigError) as exc_info:
            run_pipeline(
                config, entries, embedding_provider=provider,
                chat_factory=lambda pid: None, prepare_fn=recording_prepare_fn(invoked),
            )
        assert str(exc_info.value) == (
            f"bank {bank_path} and model {model_path}: bank/model order mismatch: P1 vs P2"
        )
        assert invoked == [] and provider.calls == []


class TestRealPrepareThroughPipeline:
    def test_scripted_end_to_end_prepare(self, tmp_path):
        config, entries, provider = gate_fixture(tmp_path)
        import dataclasses

        from aekit.pipeline import PrepareSettings
        from aekit.prepare import PrepareLimits
        from aekit.sandbox import SandboxSpec

        config = dataclasses.replace(
            config,
            prepare=PrepareSettings(
                enabled=True,
                sandbox=SandboxSpec(backend="local_process", workdir=str(tmp_path / "bx")),
                limits=PrepareLimits(max_iterations=5, command_timeout=20, output_cap=2048),
            ),
        )
        scripts = {
            "hi1": ScriptedChatProvider([run_message("true"), done_message()]),
            "hi2": ScriptedChatProvider([run_message("false"), ChatMessage("assistant", "ACTION: FAIL broken")]),
        }
        result = run_pipeline(
            config, entries, embedding_provider=provider,
            chat_factory=lambda pid: scripts[pid],
        )
        by_id = {r.paper_id: r for r in result.reports}
        assert by_id["hi1"].pipeline_label == PIPELINE_RUNS
        assert by_id["hi1"].prepare.snapshot is True
        assert by_id["hi2"].pipeline_label == PIPELINE_NOT_RUNS
        assert by_id["hi2"].prepare.failed_command == "false"
        assert by_id["hi2"].prepare.exit_code == 1
        assert set(result.prepare_outcomes) == {"hi1", "hi2"}


class TestWorkers:
    def test_parallel_workers_produce_identical_reports(self, tmp_path):
        import dataclasses

        config, entries, provider = gate_fixture(tmp_path)
        invoked = []
        serial = run_pipeline(
            config, entries, embedding_provider=provider,
            chat_factory=lambda pid: None, prepare_fn=recording_prepare_fn(invoked),
        )
        parallel = run_pipeline(
            dataclasses.replace(config, workers=3), entries, embedding_provider=provider,
            chat_factory=lambda pid: None, prepare_fn=recording_prepare_fn(invoked),
        )
        assert [r.to_json() for r in serial.reports] == [r.to_json() for r in parallel.reports]


class TestRenderReport:
    def make_reports(self):
        return [
            VerdictReport("b", seed=1, pipeline_label=PIPELINE_RUNS),
            VerdictReport("a", seed=1, pipeline_label=PIPELINE_NOT_RUNS),
            VerdictReport("c", seed=1, pipeline_label=PIPELINE_SKIPPED),
        ]

    def test_jsonl_sorted_by_paper_id(self):
        _, jsonl = render_report(self.make_reports())
        ids = [json.loads(line)["paper_id"] for line in jsonl.strip().splitlines()]
        assert ids == ["a", "b", "c"]

    def test_summary_contains_accuracy_with_ground_truth(self):
        gt = {
            "a": GroundTruthRecord("a", code_available=True, manually_runnable=False),
            "b": GroundTruthRecord("b", code_available=True, manually_runnable=True),
            "c": GroundTruthRecord("c", code_available=True, manually_runnable=False),
        }
        summary, _ = render_report(self.make_reports(), gt)
        assert "accuracy vs ground truth" in summary
        assert "Accuracy: 100.00%" in summary

    def test_empty_reports_rejected(self):
        with pytest.raises(ValueError):
            render_report([])

    def test_seed_recorded_in_every_line(self):
        _, jsonl = render_report(self.make_reports())
        for line in jsonl.strip().splitlines():
            assert json.loads(line)["seed"] == 1


class TestPipelineConfusion:
    def test_skipped_counts_as_predicted_not_runs(self):
        reports = [
            VerdictReport("a", 0, PIPELINE_SKIPPED),
            VerdictReport("b", 0, PIPELINE_RUNS),
        ]
        gt = {
            "a": GroundTruthRecord("a", code_available=True, manually_runnable=True),
            "b": GroundTruthRecord("b", code_available=True, manually_runnable=True),
        }
        summary, _ = render_report(reports, gt)
        expected = render_confusion_table(ConfusionMatrix(tp=1, fp=0, fn=1, tn=0))
        assert f"\n{expected}\naccuracy vs ground truth: 50.00%\n" in summary

    def test_unannotated_papers_ignored(self):
        reports = [VerdictReport("a", 0, PIPELINE_RUNS), VerdictReport("b", 0, PIPELINE_RUNS)]
        gt = {"a": GroundTruthRecord("a", code_available=True)}
        assert "Total" not in render_report(reports, gt)[0]
        assert paired_confusion({"a": True, "b": True, "c": None}, {"a": None, "c": True}).total == 0
        assert paired_confusion({"a": True, "b": False}, {"a": True, "c": False}).as_counts() == (1, 0, 0, 0)


class TestVerdictSerialization:
    def test_round_trip_with_all_sections(self, tmp_path):
        config, entries, provider = gate_fixture(tmp_path)
        invoked = []
        result = run_pipeline(
            config, entries, embedding_provider=provider,
            chat_factory=lambda pid: None, prepare_fn=recording_prepare_fn(invoked),
        )
        for report in result.reports:
            text = report.to_json()
            assert VerdictReport.from_json(text).to_json() == text

    def test_prepare_summary_round_trip(self):
        summary = PrepareSummary(
            outcome="failure", steps=3, snapshot=False,
            failed_command="make", exit_code=2, diagnosis="missing header",
        )
        assert PrepareSummary.from_dict(summary.to_dict()) == summary


class TestConfigFile:
    def test_load_minimal_config(self, tmp_path):
        path = tmp_path / "pipe.ini"
        path.write_text(
            "[embedding]\nkind = mock\nseed = 3\ndim = 32\n\n"
            "[pipeline]\ngate = false\nseed = 9\nworkers = 2\n"
        )
        config = load_pipeline_config(path)
        assert config.embedding == MockEmbedding(seed=3, dim=32)
        assert config.gate is False
        assert config.seed == 9
        assert config.workers == 2

    def test_a_leading_byte_order_mark_is_ignored(self, tmp_path):
        text = b"[embedding]\nkind = mock\nseed = 3\n\n[pipeline]\ngate = false\nworkers = 2\n"
        plain, marked = tmp_path / "plain.ini", tmp_path / "marked.ini"
        plain.write_bytes(text)
        marked.write_bytes(b"\xef\xbb\xbf" + text)
        assert load_pipeline_config(marked) == load_pipeline_config(plain)
        assert load_pipeline_config(plain).workers == 2

    def test_empty_sections_load_the_defaults(self, tmp_path):
        path = tmp_path / "pipe.ini"
        path.write_text("".join(
            f"[{name}]\n" for name in ("embedding", "chat", "rate", "assess", "prepare", "pipeline")
        ))
        assert load_pipeline_config(path) == PipelineConfig()

    def test_default_keys_apply_to_every_section_that_takes_them(self, tmp_path):
        path = tmp_path / "pipe.ini"
        path.write_text(
            "[DEFAULT]\nseed = 5\nroot = /data\n\n[embedding]\ndim = 16\n\n"
            "[rate]\nenabled = true\nconcept = %(root)s/c.json\ncutoff = %(root)s/k.json\n\n"
            "[pipeline]\nout = %(root)s/out\n"
        )
        config = load_pipeline_config(path)
        assert config.embedding.seed == 5 and config.seed == 5
        assert config.rate == RateSettings(True, "/data/c.json", "/data/k.json")
        assert config.out_dir == "/data/out"

    def test_a_default_key_that_no_section_takes_is_config_error(self, tmp_path):
        path = tmp_path / "pipe.ini"
        path.write_text("[DEFAULT]\nmax_iteration = 5\n\n[prepare]\nenabled = false\n")
        with pytest.raises(ConfigError) as info:
            load_pipeline_config(path)
        assert str(info.value) == f"config {path} [DEFAULT]: unknown key 'max_iteration'"

    def test_a_default_key_that_a_value_interpolates_is_accepted(self, tmp_path):
        path = tmp_path / "pipe.ini"
        path.write_text(
            "[DEFAULT]\nRoot = /data\nrun = %(root)s/run\nkind = mock\n\n"
            "[pipeline]\nout = %(run)s/out\n\n[embedding]\ndim = 8\n"
        )
        config = load_pipeline_config(path)
        assert config.out_dir == "/data/run/out" and config.embedding.dim == 8

    def test_mock_embedding_checks_its_dim(self):
        with pytest.raises(ConfigError):
            MockEmbedding(dim=0)

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            load_pipeline_config(tmp_path / "absent.ini")

    def test_enabled_rate_without_assets_is_config_error(self, tmp_path):
        path = tmp_path / "pipe.ini"
        path.write_text("[rate]\nenabled = true\n")
        with pytest.raises(ConfigError):
            load_pipeline_config(path)

    def test_unknown_embedding_kind_is_config_error(self, tmp_path):
        path = tmp_path / "pipe.ini"
        path.write_text("[embedding]\nkind = quantum\n")
        with pytest.raises(ConfigError):
            load_pipeline_config(path)

    @pytest.mark.parametrize(
        "text",
        [
            "[embedding]\nkind = remote\n",
            "[embedding]\nkind = remote\nendpoint_url = localhost:8000\nmodel_name = m\n",
            "[chat]\nkind = remote\n",
            "[embedding]\nkind = mock\ndim = 0\n",
        ],
        ids=["embedding-no-endpoint", "embedding-no-scheme", "chat-no-endpoint", "mock-dim-0"],
    )
    def test_section_that_cannot_build_a_provider_is_config_error(self, tmp_path, text):
        path = tmp_path / "pipe.ini"
        path.write_text(text)
        with pytest.raises(ConfigError):
            load_pipeline_config(path)

    def test_every_remote_and_prepare_key_lands_in_its_field(self, tmp_path):
        path = tmp_path / "pipe.ini"
        path.write_text(
            "[embedding]\nkind = remote\nendpoint_url = http://embed.test\nmodel_name = em\n"
            "auth_token_env = EMBED_TOKEN\ntimeout = 12.5\nmax_retries = 4\nembedding_dim = 256\n"
            "pooling = last\ncache_dir = /cache\nbatch_size = 7\n\n"
            "[chat]\nkind = remote\nendpoint_url = https://chat.test\nmodel_name = cm\n"
            "auth_token_env = CHAT_TOKEN\ntimeout = 30\nmax_retries = 0\n\n"
            "[prepare]\nenabled = true\nbackend = container\nbase_image = img:1\nnetwork = denied\n"
            "gpu = true\nworkdir = /boxes\nmax_iterations = 9\ncommand_timeout = 45.5\n"
            "output_cap = 1024\n"
        )
        config = load_pipeline_config(path)
        assert config.embedding == ProviderConfig(
            endpoint_url="http://embed.test", model_name="em", auth_token_env="EMBED_TOKEN",
            timeout=12.5, max_retries=4, embedding_dim=256, pooling="last", cache_dir="/cache",
            batch_size=7,
        )
        assert config.chat == ProviderConfig(
            endpoint_url="https://chat.test", model_name="cm", auth_token_env="CHAT_TOKEN",
            timeout=30.0, max_retries=0,
        )
        assert config.prepare == PrepareSettings(
            enabled=True,
            sandbox=SandboxSpec(backend="container", base_image="img:1", network="denied",
                                gpu=True, workdir="/boxes"),
            limits=PrepareLimits(max_iterations=9, command_timeout=45.5, output_cap=1024),
        )


class TestBuiltProviders:
    """Each provider section builds the provider its kind names."""

    def load(self, tmp_path, text):
        path = tmp_path / "pipe.ini"
        path.write_text(text)
        return load_pipeline_config(path)

    def test_mock_embedding(self, tmp_path):
        config = self.load(tmp_path, "[embedding]\nkind = mock\nseed = 3\ndim = 32\n")
        provider = build_embedding_provider(config.embedding)
        assert type(provider) is MockEmbeddingProvider
        assert provider.provider_id == "mock-embed-3-d32"

    def test_remote_embedding(self, tmp_path):
        config = self.load(tmp_path, "[embedding]\nkind = remote\nendpoint_url = http://e.test\n"
                                     "model_name = em\nembedding_dim = 8\n")
        provider = build_embedding_provider(config.embedding)
        try:
            assert type(provider) is RemoteEmbeddingProvider
            assert provider.cfg == config.embedding == ProviderConfig("http://e.test", "em", embedding_dim=8)
        finally:
            provider.close()

    def test_scripted_chat_gives_each_paper_a_fresh_provider(self, tmp_path):
        script = tmp_path / "script.json"
        script.write_text(json.dumps({"p1": ["one"], "*": ["any"]}))
        factory = build_chat_factory(self.load(tmp_path, f"[chat]\nkind = scripted\nscript = {script}\n").chat)
        first, second = factory("p1"), factory("p1")
        assert type(first) is ScriptedChatProvider and first is not second
        assert first.next_message([]).content == second.next_message([]).content == "one"
        assert factory("p2").next_message([]).content == "any"

    def test_remote_chat_is_one_provider_that_the_factory_closes(self, tmp_path, monkeypatch):
        closed = []
        monkeypatch.setattr(RemoteChatProvider, "close", lambda self: closed.append(self))
        config = self.load(tmp_path, "[chat]\nkind = remote\nendpoint_url = http://c.test\nmodel_name = cm\n")
        factory = build_chat_factory(config.chat)
        provider = factory("p1")
        assert type(provider) is RemoteChatProvider and provider.cfg == config.chat
        assert factory("p2") is provider
        factory.close()
        assert closed == [provider]


class TestReruns:
    def test_clean_reruns_write_the_same_transcripts(self, tmp_path, mock_corpus_path, prepare_scripts_path):
        # Snapshot names do not depend on the clock; only durations are wall time.
        corpus, config_path = train_pipeline_assets(tmp_path, mock_corpus_path, prepare_scripts_path)
        runs = []
        for _ in range(2):
            shutil.rmtree(tmp_path / "boxes", ignore_errors=True)
            shutil.rmtree(tmp_path / "out", ignore_errors=True)
            argv = ["--config", str(config_path), "--out", str(tmp_path / "out"), "pipeline", "--corpus", str(corpus)]
            assert cli_main(argv) == EXIT_OK
            transcripts = {}
            for path in sorted((tmp_path / "out" / "transcripts").glob("*.json")):
                doc = json.loads(path.read_text(encoding="utf-8"))
                for step in doc["transcript"]["steps"]:
                    step["duration"] = 0.0
                transcripts[path.name] = canonical_dumps(doc)
            runs.append(transcripts)
        assert runs[0] and runs[0] == runs[1]
        refs = [json.loads(text)["snapshot_ref"] for text in runs[0].values()]
        assert any(ref is not None and os.path.isfile(ref) for ref in refs), "no paper was snapshotted"

    def test_a_warm_disk_cache_sends_no_request_and_changes_no_report_byte(
        self, tmp_path, mock_corpus_path, prepare_scripts_path, monkeypatch
    ):
        corpus, config_path = train_pipeline_assets(tmp_path, mock_corpus_path, prepare_scripts_path)
        config = load_pipeline_config(config_path)
        config = replace(config, prepare=replace(config.prepare, enabled=False))
        entries = load_corpus(corpus).entries
        ground_truth = {e.paper_id: e.ground_truth for e in entries}
        monkeypatch.setenv("AEKIT_TEST_TOKEN", "t")

        def reports_jsonl(cache_dir):
            transport = VectorTransport(dim=48)
            cfg = ProviderConfig("http://fake.test", "m", auth_token_env="AEKIT_TEST_TOKEN", cache_dir=cache_dir)
            result = run_pipeline(config, entries, RemoteEmbeddingProvider(cfg, transport))
            return render_report(result.reports, ground_truth)[1], len(transport.requests)

        uncached, sent = reports_jsonl(None)
        assert sent > 0
        cache_dir = str(tmp_path / "cache")
        assert reports_jsonl(cache_dir) == (uncached, sent)
        assert reports_jsonl(cache_dir) == (uncached, 0)


class TestPreviousFormats:
    def test_version_1_concept_and_bank_files_give_the_same_outputs(
        self, tmp_path, mock_corpus_path, prepare_scripts_path, capsys
    ):
        corpus, config_path = train_pipeline_assets(tmp_path, mock_corpus_path, prepare_scripts_path)

        def outputs(name):
            shutil.rmtree(tmp_path / "boxes", ignore_errors=True)
            argv = ["--config", str(config_path), "--out", str(tmp_path / name), "pipeline", "--corpus", str(corpus)]
            assert cli_main(argv) == EXIT_OK
            return [(tmp_path / name / f).read_bytes() for f in ("reports.jsonl", "summary.txt")]

        def as_v1(concept):
            assert concept["version"] == 2 and not {"dim", "sign_convention"} & set(concept)
            dim = len(concept["direction"])
            return {**concept, "dim": dim, "sign_convention": "mean-positive", "version": 1}

        current = outputs("v2")
        concept_path, bank_path = tmp_path / "concept.json", tmp_path / "bank.json"
        concept_path.write_text(json.dumps(as_v1(json.loads(concept_path.read_text()))))
        bank = json.loads(bank_path.read_text())
        bank["entries"] = [{**e, "concept": as_v1(e["concept"])} for e in bank["entries"]]
        bank_path.write_text(json.dumps(bank))
        assert outputs("v1") == current

        concept_path.write_text(json.dumps({**json.loads(concept_path.read_text()), "version": 3}))
        argv = ["--config", str(config_path), "--out", str(tmp_path / "v3"), "pipeline", "--corpus", str(corpus)]
        capsys.readouterr()
        assert cli_main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"configuration error: {concept_path}: unsupported concept vector version: 3\n"
        assert not (tmp_path / "v3").exists()


class ClosingMarkerProvider(MarkerProvider):
    def __init__(self, closed, *args):
        super().__init__(*args)
        self.closed = closed

    def close(self):
        self.closed.append(self)


class TestOwnedProviders:
    """run_pipeline closes the providers it builds from its config, and no others."""

    def test_built_providers_are_closed_and_injected_ones_are_not(self, tmp_path, monkeypatch):
        config, entries, provider = gate_fixture(tmp_path)
        config = replace(config, chat=ProviderConfig("http://fake.test", "m"))
        closed = []
        monkeypatch.setattr(RemoteChatProvider, "close", lambda self: closed.append(self))
        built = ClosingMarkerProvider(closed, provider.dim, provider.markers)
        monkeypatch.setattr(pipeline, "build_embedding_provider", lambda settings: built)
        chats = []

        def prepare_fn(bundle, chat):
            chats.append(chat)
            return recording_prepare_fn([])(bundle, chat)

        run_pipeline(config, entries, prepare_fn=prepare_fn)
        (chat,) = set(chats)
        assert isinstance(chat, RemoteChatProvider)
        assert closed == [chat, built]

        closed.clear()
        injected = ClosingMarkerProvider(closed, provider.dim, provider.markers)
        run_pipeline(config, entries, embedding_provider=injected, chat_factory=lambda pid: chat,
                     prepare_fn=prepare_fn)
        assert closed == []

    def test_built_providers_are_closed_when_a_stage_cannot_start(self, tmp_path, monkeypatch):
        config, entries, provider = gate_fixture(tmp_path)
        (tmp_path / "bad.json").write_text("{")
        config = replace(config, rate=replace(config.rate, cutoff_path=str(tmp_path / "bad.json")))
        closed = []
        built = ClosingMarkerProvider(closed, provider.dim, provider.markers)
        monkeypatch.setattr(pipeline, "build_embedding_provider", lambda settings: built)
        with pytest.raises(ConfigError):
            run_pipeline(config, entries, chat_factory=lambda pid: None, prepare_fn=recording_prepare_fn([]))
        assert closed == [built]
