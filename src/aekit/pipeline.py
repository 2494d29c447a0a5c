"""Pipeline orchestration: corpus -> rate gate -> prepare -> assess.

Stages are individually toggleable.  When the gate is on, a paper rated
not-runnable skips environment preparation entirely (its label becomes
``skipped``); assessment is never gated because pitfalls are judged from
text alone.  Per-paper stage errors are recorded in that paper's report
without aborting the batch.
"""

from __future__ import annotations

import configparser
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence

from .assess import AssessorModel, PitfallBank, PitfallReport, assess_document
from .corpus import CorpusEntry, GroundTruthRecord
from .gateway import (
    DEFAULT_BATCH_SIZE,
    ChatMessage,
    ChatProvider,
    EmbeddingProvider,
    MockEmbeddingProvider,
    ProviderConfig,
    RemoteChatProvider,
    RemoteEmbeddingProvider,
    ScriptedChatProvider,
)
from .jsonio import canonical_dumps, dumps_jsonl, read_text
from .measure import ConceptVector
from .metrics import ConfusionMatrix, count_confusion, metric_set, render_confusion_table
from .prepare import (
    OUTCOME_SUCCESS,
    ArtifactBundle,
    PrepareLimits,
    PrepareOutcome,
    run_prepare_loop,
)
from .rate import (
    Cutoff,
    LABEL_NOT_RUNS,
    RateInput,
    RateVerdict,
    load_default_rate_prompts,
    rate_document,
)
from .sandbox import SandboxSpec

PIPELINE_RUNS = "runs"
PIPELINE_NOT_RUNS = "not_runs"
PIPELINE_SKIPPED = "skipped"


class ConfigError(ValueError):
    """Invalid or incomplete pipeline configuration."""


@dataclass(frozen=True)
class EmbeddingSettings:
    kind: str = "mock"
    seed: int = 0
    dim: int = 64
    remote: ProviderConfig | None = None


@dataclass(frozen=True)
class ChatSettings:
    kind: str = "scripted"
    script_path: str | None = None
    remote: ProviderConfig | None = None


@dataclass(frozen=True)
class RateSettings:
    enabled: bool = False
    concept_path: str | None = None
    cutoff_path: str | None = None


@dataclass(frozen=True)
class AssessSettings:
    enabled: bool = False
    bank_path: str | None = None
    model_path: str | None = None


@dataclass(frozen=True)
class PrepareSettings:
    enabled: bool = False
    sandbox: SandboxSpec = SandboxSpec()
    limits: PrepareLimits = PrepareLimits()


@dataclass(frozen=True)
class PipelineConfig:
    embedding: EmbeddingSettings = EmbeddingSettings()
    chat: ChatSettings = ChatSettings()
    rate: RateSettings = RateSettings()
    assess: AssessSettings = AssessSettings()
    prepare: PrepareSettings = PrepareSettings()
    gate: bool = True
    seed: int = 0
    out_dir: str = "out"
    workers: int = 1

    def validate(self) -> None:
        if self.rate.enabled and not (self.rate.concept_path and self.rate.cutoff_path):
            raise ConfigError("rate stage enabled but concept/cutoff paths missing")
        if self.assess.enabled and not (self.assess.bank_path and self.assess.model_path):
            raise ConfigError("assess stage enabled but bank/model paths missing")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")


def _provider_config(section: configparser.SectionProxy) -> ProviderConfig:
    return ProviderConfig(
        endpoint_url=section.get("endpoint_url", ""),
        model_name=section.get("model_name", ""),
        auth_token_env=section.get("auth_token_env", "AEKIT_API_TOKEN"),
        timeout=section.getfloat("timeout", 60.0),
        max_retries=section.getint("max_retries", 3),
        embedding_dim=section.getint("embedding_dim", fallback=None),
        pooling=section.get("pooling", "mean"),
        cache_dir=section.get("cache_dir", fallback=None),
    )


def load_pipeline_config(path: str | Path) -> PipelineConfig:
    """Parse the flat key-value config file (one section per stage)."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    try:
        embedding = EmbeddingSettings()
        if parser.has_section("embedding"):
            sec = parser["embedding"]
            kind = sec.get("kind", "mock")
            if kind == "mock":
                embedding = EmbeddingSettings(
                    kind="mock", seed=sec.getint("seed", 0), dim=sec.getint("dim", 64)
                )
            elif kind == "remote":
                remote = replace(
                    _provider_config(sec),
                    batch_size=sec.getint("batch_size", DEFAULT_BATCH_SIZE),
                )
                embedding = EmbeddingSettings(kind="remote", remote=remote)
            else:
                raise ConfigError(f"unknown embedding kind: {kind!r}")

        chat = ChatSettings()
        if parser.has_section("chat"):
            sec = parser["chat"]
            kind = sec.get("kind", "scripted")
            if kind == "scripted":
                chat = ChatSettings(kind="scripted", script_path=sec.get("script", fallback=None))
            elif kind == "remote":
                chat = ChatSettings(kind="remote", remote=_provider_config(sec))
            else:
                raise ConfigError(f"unknown chat kind: {kind!r}")

        rate = RateSettings()
        if parser.has_section("rate"):
            sec = parser["rate"]
            rate = RateSettings(
                enabled=sec.getboolean("enabled", False),
                concept_path=sec.get("concept", fallback=None),
                cutoff_path=sec.get("cutoff", fallback=None),
            )

        assess = AssessSettings()
        if parser.has_section("assess"):
            sec = parser["assess"]
            assess = AssessSettings(
                enabled=sec.getboolean("enabled", False),
                bank_path=sec.get("bank", fallback=None),
                model_path=sec.get("model", fallback=None),
            )

        prepare = PrepareSettings()
        if parser.has_section("prepare"):
            sec = parser["prepare"]
            backend = sec.get("backend", "local_process")
            if backend == "local":
                backend = "local_process"
            prepare = PrepareSettings(
                enabled=sec.getboolean("enabled", False),
                sandbox=SandboxSpec(
                    backend=backend,
                    base_image=sec.get("base_image", SandboxSpec().base_image),
                    network=sec.get("network", "allowed"),
                    gpu=sec.getboolean("gpu", False),
                    workdir=sec.get("workdir", fallback=None),
                ),
                limits=PrepareLimits(
                    max_iterations=sec.getint("max_iterations", 40),
                    command_timeout=sec.getfloat("command_timeout", 600.0),
                    output_cap=sec.getint("output_cap", 8192),
                ),
            )

        gate, seed, out_dir, workers = True, 0, "out", 1
        if parser.has_section("pipeline"):
            sec = parser["pipeline"]
            gate = sec.getboolean("gate", True)
            seed = sec.getint("seed", 0)
            out_dir = sec.get("out", "out")
            workers = sec.getint("workers", 1)
    except (ValueError, configparser.Error) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid config value: {exc}") from exc

    config = PipelineConfig(
        embedding=embedding,
        chat=chat,
        rate=rate,
        assess=assess,
        prepare=prepare,
        gate=gate,
        seed=seed,
        out_dir=out_dir,
        workers=workers,
    )
    config.validate()
    return config


def build_embedding_provider(settings: EmbeddingSettings) -> EmbeddingProvider:
    if settings.kind == "mock":
        return MockEmbeddingProvider(seed=settings.seed, dim=settings.dim)
    return RemoteEmbeddingProvider(settings.remote)


def build_chat_factory(settings: ChatSettings) -> Callable[[str], ChatProvider]:
    """Per-paper chat providers.

    Scripted: the script file maps paper ids to message lists ("*" is the
    fallback); each paper gets a fresh cursor.  Remote: one shared
    provider for all papers.
    """
    if settings.kind == "scripted":
        if not settings.script_path:
            raise ConfigError("scripted chat requires a script path")
        scripts = json.loads(read_text(settings.script_path))
        if not isinstance(scripts, dict):
            raise ConfigError("chat script file must map paper ids to message lists")

        def factory(paper_id: str) -> ChatProvider:
            script = scripts.get(paper_id, scripts.get("*"))
            if script is None:
                raise ConfigError(f"no chat script for paper {paper_id!r} and no '*' fallback")
            return ScriptedChatProvider([ChatMessage("assistant", m) for m in script])

        return factory

    provider = RemoteChatProvider(settings.remote)
    return lambda paper_id: provider


@dataclass(frozen=True)
class PrepareSummary:
    """Deterministic digest of a prepare run for the batch report.

    Durations and snapshot refs are wall-clock-dependent, so they stay in
    the full transcript; the summary carries only stable facts.
    """

    outcome: str
    steps: int
    snapshot: bool
    failed_command: str | None = None
    exit_code: int | None = None
    diagnosis: str | None = None

    @classmethod
    def from_outcome(cls, outcome: PrepareOutcome) -> "PrepareSummary":
        report = outcome.error_report
        return cls(
            outcome=outcome.status,
            steps=len(outcome.transcript.steps),
            snapshot=outcome.snapshot_ref is not None,
            failed_command=None if report is None else report.failed_command,
            exit_code=None if report is None else report.exit_code,
            diagnosis=None if report is None else report.diagnosis_text,
        )

    def to_dict(self) -> dict:
        return {
            "outcome": self.outcome,
            "steps": self.steps,
            "snapshot": self.snapshot,
            "failed_command": self.failed_command,
            "exit_code": self.exit_code,
            "diagnosis": self.diagnosis,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "PrepareSummary":
        return cls(
            outcome=doc["outcome"],
            steps=int(doc["steps"]),
            snapshot=bool(doc["snapshot"]),
            failed_command=doc.get("failed_command"),
            exit_code=doc.get("exit_code"),
            diagnosis=doc.get("diagnosis"),
        )


@dataclass(frozen=True)
class VerdictReport:
    paper_id: str
    seed: int
    pipeline_label: str
    rate: RateVerdict | None = None
    prepare: PrepareSummary | None = None
    assess: PitfallReport | None = None
    errors: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "paper_id": self.paper_id,
            "seed": self.seed,
            "pipeline_label": self.pipeline_label,
            "rate": None if self.rate is None else self.rate.to_dict(),
            "prepare": None if self.prepare is None else self.prepare.to_dict(),
            "assess": None if self.assess is None else self.assess.to_dict(),
            "errors": list(self.errors),
        }

    def to_json(self) -> str:
        return canonical_dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "VerdictReport":
        doc = json.loads(text)
        if doc.get("version") != 1:
            raise ValueError(f"unsupported verdict report version: {doc.get('version')}")
        return cls(
            paper_id=doc["paper_id"],
            seed=int(doc["seed"]),
            pipeline_label=doc["pipeline_label"],
            rate=None if doc["rate"] is None else RateVerdict.from_dict(doc["rate"]),
            prepare=None if doc["prepare"] is None else PrepareSummary.from_dict(doc["prepare"]),
            assess=None if doc["assess"] is None else PitfallReport.from_dict(doc["assess"]),
            errors=tuple(doc["errors"]),
        )


@dataclass(frozen=True)
class PipelineResult:
    reports: tuple[VerdictReport, ...]
    prepare_outcomes: dict[str, PrepareOutcome] = field(default_factory=dict)


# prepare_fn(bundle, chat) -> PrepareOutcome; injectable for tests.
PrepareFn = Callable[[ArtifactBundle, ChatProvider], PrepareOutcome]


def run_pipeline(
    config: PipelineConfig,
    entries: Sequence[CorpusEntry],
    embedding_provider: EmbeddingProvider | None = None,
    chat_factory: Callable[[str], ChatProvider] | None = None,
    prepare_fn: PrepareFn | None = None,
) -> PipelineResult:
    """Run the enabled stages over the corpus, one report per paper.

    Configuration problems abort before any stage runs; per-paper stage
    failures only mark that paper's report.
    """
    config.validate()
    if embedding_provider is None and (config.rate.enabled or config.assess.enabled):
        embedding_provider = build_embedding_provider(config.embedding)
    if chat_factory is None and config.prepare.enabled:
        chat_factory = build_chat_factory(config.chat)

    concept = cutoff = neutral = bank = model = None
    if config.rate.enabled:
        concept = ConceptVector.from_json(read_text(config.rate.concept_path))
        cutoff = Cutoff.from_json(read_text(config.rate.cutoff_path))
        neutral = load_default_rate_prompts().neutral
    if config.assess.enabled:
        bank = PitfallBank.from_json(read_text(config.assess.bank_path))
        model = AssessorModel.from_json(read_text(config.assess.model_path))

    if prepare_fn is None:
        def prepare_fn(bundle: ArtifactBundle, chat: ChatProvider) -> PrepareOutcome:
            return run_prepare_loop(
                bundle, config.prepare.sandbox, chat, config.prepare.limits
            )

    def process(entry: CorpusEntry) -> tuple[VerdictReport, PrepareOutcome | None]:
        errors: list[str] = []
        rate_verdict: RateVerdict | None = None
        if config.rate.enabled and entry.readme_text:
            try:
                rate_verdict = rate_document(
                    RateInput(entry.paper_id, entry.paper_text, entry.readme_text),
                    concept,
                    cutoff,
                    embedding_provider,
                    neutral_prompt=neutral,
                )
            except Exception as exc:
                errors.append(f"rate: {exc}")

        gated_out = (
            config.gate
            and rate_verdict is not None
            and rate_verdict.label == LABEL_NOT_RUNS
        )

        prepare_summary: PrepareSummary | None = None
        prepare_outcome: PrepareOutcome | None = None
        if config.prepare.enabled and not gated_out and entry.source_ref:
            try:
                bundle = ArtifactBundle(
                    paper_id=entry.paper_id,
                    paper_text=entry.paper_text,
                    source_ref=entry.source_ref,
                    readme_text=entry.readme_text,
                )
                prepare_outcome = prepare_fn(bundle, chat_factory(entry.paper_id))
                prepare_summary = PrepareSummary.from_outcome(prepare_outcome)
            except Exception as exc:
                errors.append(f"prepare: {exc}")

        assess_report: PitfallReport | None = None
        if config.assess.enabled:
            try:
                assess_report = assess_document(
                    entry.paper_text, bank, model, embedding_provider, paper_id=entry.paper_id
                )
            except Exception as exc:
                errors.append(f"assess: {exc}")

        if prepare_summary is not None:
            label = (
                PIPELINE_RUNS
                if prepare_summary.outcome == OUTCOME_SUCCESS
                else PIPELINE_NOT_RUNS
            )
        else:
            label = PIPELINE_SKIPPED

        report = VerdictReport(
            paper_id=entry.paper_id,
            seed=config.seed,
            pipeline_label=label,
            rate=rate_verdict,
            prepare=prepare_summary,
            assess=assess_report,
            errors=tuple(errors),
        )
        return report, prepare_outcome

    ordered = sorted(entries, key=lambda e: e.paper_id)
    if config.workers == 1:
        results = [process(e) for e in ordered]
    else:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            results = list(pool.map(process, ordered))

    reports = tuple(r for r, _ in results)
    outcomes = {r.paper_id: o for r, o in results if o is not None}
    return PipelineResult(reports=reports, prepare_outcomes=outcomes)


def pipeline_confusion(
    reports: Sequence[VerdictReport],
    ground_truth: dict[str, GroundTruthRecord],
) -> ConfusionMatrix | None:
    """Pipeline labels vs manual runnability.

    Gate-skipped papers count as predicted not-runnable (nothing was
    executed for them, which is the gate's prediction).  Papers without a
    runnability annotation are ignored.
    """
    pairs = []
    for report in reports:
        record = ground_truth.get(report.paper_id)
        if record is not None and record.manually_runnable is not None:
            pairs.append((report.pipeline_label == PIPELINE_RUNS, record.manually_runnable))
    cm = count_confusion(pairs)
    return cm if cm.total else None


def render_report(
    reports: Sequence[VerdictReport],
    ground_truth: dict[str, GroundTruthRecord] | None = None,
) -> tuple[str, str]:
    """Human-readable summary plus machine JSON-lines, ordered by paper id."""
    if not reports:
        raise ValueError("no reports to render")
    ordered = sorted(reports, key=lambda r: r.paper_id)
    jsonl = dumps_jsonl(r.to_dict() for r in ordered)

    counts: dict[str, int] = {}
    for r in ordered:
        counts[r.pipeline_label] = counts.get(r.pipeline_label, 0) + 1
    lines = [
        f"papers: {len(ordered)}",
        "labels: " + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())),
        f"seed: {ordered[0].seed}",
    ]
    error_count = sum(1 for r in ordered if r.errors)
    if error_count:
        lines.append(f"papers with stage errors: {error_count}")
    if ground_truth:
        cm = pipeline_confusion(ordered, ground_truth)
        if cm is not None:
            ms = metric_set(cm)
            lines.append("")
            lines.append(render_confusion_table(cm))
            if ms.accuracy is not None:
                lines.append(f"accuracy vs ground truth: {100.0 * ms.accuracy:.2f}%")
    return "\n".join(lines) + "\n", jsonl
