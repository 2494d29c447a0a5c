"""Pipeline orchestration: corpus -> rate gate -> prepare -> assess.

Stages are individually toggleable.  When the gate is on, a paper rated
not-runnable skips environment preparation entirely (its label becomes
``skipped``); assessment is never gated because pitfalls are judged from
text alone.  Per-paper stage errors are recorded in that paper's report
without aborting the batch.
"""

from __future__ import annotations

import configparser
import contextlib
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from .assess import (
    AssessorModel,
    PitfallBank,
    PitfallReport,
    assess_document,
    check_alignment,
)
from .corpus import README_MISSING, CorpusEntry, GroundTruthRecord, wants_rating
from .gateway import (
    ChatMessage,
    ChatProvider,
    EmbeddingProvider,
    MockEmbeddingProvider,
    ProviderConfig,
    RemoteChatProvider,
    RemoteEmbeddingProvider,
    ScriptedChatProvider,
)
from .jsonio import Artifact, ConfigError, checked_input, dumps_jsonl, json_object
from .jsonio import load_artifact, read_text
from .measure import ConceptVector
from .metrics import metric_set, paired_confusion, render_confusion_table
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
    rate_document,
)
from .sandbox import SandboxSpec

PIPELINE_RUNS = "runs"
PIPELINE_NOT_RUNS = "not_runs"
PIPELINE_SKIPPED = "skipped"


@dataclass(frozen=True)
class MockEmbedding:
    """``[embedding] kind = mock``: a :class:`MockEmbeddingProvider`'s seed and width."""

    seed: int = 0
    dim: int = 64

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ConfigError("mock embedding dim must be >= 1")


@dataclass(frozen=True)
class ScriptedChat:
    """``[chat] kind = scripted``: the file of per-paper chat scripts."""

    script_path: str | None = None


@dataclass(frozen=True)
class RateSettings:
    enabled: bool = False
    concept_path: str | None = None
    cutoff_path: str | None = None

    def __post_init__(self) -> None:
        if self.enabled and not (self.concept_path and self.cutoff_path):
            raise ConfigError("rate stage enabled but concept/cutoff paths missing")


@dataclass(frozen=True)
class AssessSettings:
    enabled: bool = False
    bank_path: str | None = None
    model_path: str | None = None

    def __post_init__(self) -> None:
        if self.enabled and not (self.bank_path and self.model_path):
            raise ConfigError("assess stage enabled but bank/model paths missing")


@dataclass(frozen=True)
class PrepareSettings:
    enabled: bool = False
    sandbox: SandboxSpec = SandboxSpec()
    limits: PrepareLimits = PrepareLimits()


@dataclass(frozen=True)
class PipelineConfig:
    embedding: MockEmbedding | ProviderConfig = MockEmbedding()
    chat: ScriptedChat | ProviderConfig = ScriptedChat()
    rate: RateSettings = RateSettings()
    assess: AssessSettings = AssessSettings()
    prepare: PrepareSettings = PrepareSettings()
    gate: bool = True
    seed: int = 0
    out_dir: str = "out"
    workers: int = 1

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")


_cp = configparser.ConfigParser
_STR, _INT, _FLOAT, _BOOL = _cp.get, _cp.getint, _cp.getfloat, _cp.getboolean
# What a remote chat provider reads; a remote embedding provider reads more.
_CHAT_KEYS = {"endpoint_url": _STR, "model_name": _STR, "auth_token_env": _STR, "timeout": _FLOAT,
              "max_retries": _INT}
_EMBEDDING_KEYS = {**_CHAT_KEYS, "embedding_dim": _INT, "pooling": _STR, "cache_dir": _STR,
                   "batch_size": _INT}
_SANDBOX_KEYS = {"backend": _STR, "base_image": _STR, "network": _STR, "gpu": _BOOL, "workdir": _STR}
_LIMITS_KEYS = {"max_iterations": _INT, "command_timeout": _FLOAT, "output_cap": _INT}
# INI keys whose field is named otherwise.
_FIELDS = {
    "script": "script_path", "concept": "concept_path", "cutoff": "cutoff_path",
    "bank": "bank_path", "model": "model_path", "out": "out_dir",
}


def _prepare(**values) -> PrepareSettings:
    sandbox = {k: values.pop(k) for k in _SANDBOX_KEYS if k in values}
    limits = {k: values.pop(k) for k in _LIMITS_KEYS if k in values}
    return PrepareSettings(**values, sandbox=SandboxSpec(**sandbox), limits=PrepareLimits(**limits))


# Per section and kind: what builds its settings from its values, and its
# key table, which maps each key the section takes to its typed getter.
_SECTIONS = {
    ("embedding", "mock"): (MockEmbedding, {"seed": _INT, "dim": _INT}),
    ("embedding", "remote"): (ProviderConfig, _EMBEDDING_KEYS),
    ("chat", "scripted"): (ScriptedChat, {"script": _STR}),
    ("chat", "remote"): (ProviderConfig, _CHAT_KEYS),
    ("rate", None): (RateSettings, {"enabled": _BOOL, "concept": _STR, "cutoff": _STR}),
    ("assess", None): (AssessSettings, {"enabled": _BOOL, "bank": _STR, "model": _STR}),
    ("prepare", None): (_prepare, {"enabled": _BOOL, **_SANDBOX_KEYS, **_LIMITS_KEYS}),
    ("pipeline", None): (dict, {"gate": _BOOL, "seed": _INT, "out": _STR, "workers": _INT}),
}
# The kind of a section with kinds that names none.
_DEFAULT_KIND = {"embedding": "mock", "chat": "scripted"}
# Every key some section takes; ``kind`` picks a section's key table.
_TAKEN = {"kind"}.union(*(keys for _, keys in _SECTIONS.values()))


def _check_defaults(parser: configparser.ConfigParser) -> None:
    """ConfigError for a ``[DEFAULT]`` key that no section takes and no value interpolates."""
    raw = [parser.get(name, key, raw=True) for name in parser.sections() for key in parser[name]]
    raw += parser.defaults().values()
    used = {parser.optionxform(m) for value in raw for m in re.findall(r"%\(([^)]*)\)s", value)}
    for key in parser.defaults():
        if key not in _TAKEN and key not in used:
            raise ConfigError(f"unknown key {key!r}")


def _read_section(parser: configparser.ConfigParser, name: str):
    """What section ``name`` builds from the keys its kind's table takes."""
    kinded = name in _DEFAULT_KIND
    kind = parser.get(name, "kind", fallback=_DEFAULT_KIND[name]) if kinded else None
    if (name, kind) not in _SECTIONS:
        raise ConfigError(f"unknown kind {kind!r}" if kinded else "unknown section")
    build, keys = _SECTIONS[name, kind]
    values = {}
    for key in parser[name]:
        if key in keys:
            try:
                values[_FIELDS.get(key, key)] = keys[key](parser, name, key)
            except ValueError as exc:
                raise ConfigError(f"{key}: {exc}") from exc
        elif key not in parser.defaults() and not (kinded and key == "kind"):
            raise ConfigError(f"unknown key {key!r}" + (f" for kind = {kind}" if kinded else ""))
    return build(**values)


def load_pipeline_config(path: str | Path) -> PipelineConfig:
    """The settings in the INI file at ``path``, one section per stage.

    A section's ``kind`` picks the keys it takes; an absent section or key
    keeps its dataclass's default, and a ``[DEFAULT]`` key applies to every
    section that takes it (one that none takes must be an interpolation
    variable, used as ``%(key)s``).  A file that is missing or not a
    well-formed UTF-8 INI, an unknown section or key and a value that does
    not parse or check raise ConfigError naming the file and section.
    """
    parser = configparser.ConfigParser()
    where = f"config {path}"
    try:
        parser.read_string(read_text(path), source=str(path))
        where = f"config {path} [DEFAULT]"
        _check_defaults(parser)
        settings = {}
        for name in parser.sections():
            where = f"config {path} [{name}]"
            settings[name] = _read_section(parser, name)
        where = f"config {path} [pipeline]"
        pipeline = settings.pop("pipeline", {})
        return PipelineConfig(**settings, **pipeline)
    except (OSError, configparser.Error, TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def build_embedding_provider(settings: MockEmbedding | ProviderConfig) -> EmbeddingProvider:
    if isinstance(settings, ProviderConfig):
        return RemoteEmbeddingProvider(settings)
    return MockEmbeddingProvider(seed=settings.seed, dim=settings.dim)


def build_chat_factory(settings: ScriptedChat | ProviderConfig) -> Callable[[str], ChatProvider]:
    """Per-paper chat providers.

    Scripted: the script file maps paper ids to message lists ("*" is the
    fallback); each paper gets a fresh cursor.  Remote: one shared
    provider for all papers, whose ``close`` the factory's ``close`` calls.
    """
    if not isinstance(settings, ProviderConfig):
        if not settings.script_path:
            raise ConfigError("scripted chat requires a script path")
        with checked_input(f"chat script {settings.script_path}"):
            scripts = json_object(read_text(settings.script_path))
            for script in scripts.values():
                if not isinstance(script, list) or not all(isinstance(m, str) for m in script):
                    raise ValueError("every script must be a list of strings")

        def factory(paper_id: str) -> ChatProvider:
            script = scripts.get(paper_id, scripts.get("*"))
            if script is None:
                raise ConfigError(f"no chat script for paper {paper_id!r} and no '*' fallback")
            return ScriptedChatProvider([ChatMessage("assistant", m) for m in script])

        return factory

    provider = RemoteChatProvider(settings)

    def shared(paper_id: str) -> ChatProvider:
        return provider

    shared.close = provider.close  # run_pipeline closes what it built
    return shared


@contextlib.contextmanager
def closing_built(provider):
    """``provider`` for the block, closed after it if it has a ``close`` (mocks and scripts have none)."""
    try:
        yield provider
    finally:
        getattr(provider, "close", lambda: None)()


@dataclass(frozen=True)
class PrepareSummary(Artifact):
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


@dataclass(frozen=True)
class VerdictReport(Artifact):
    KIND = "verdict report"

    paper_id: str
    seed: int
    pipeline_label: str
    rate: RateVerdict | None = None
    prepare: PrepareSummary | None = None
    assess: PitfallReport | None = None
    errors: tuple[str, ...] = ()


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
    """Run the enabled stages over the corpus, one report per paper, in paper-id order.

    Configuration problems (among them a bank and model that do not
    match) abort with ConfigError before any stage runs.  Providers built
    here from ``config`` are closed on return; injected ones are left open.

    Each paper runs rate, prepare and assess in that order.  A stage that
    raises marks only its paper: the report's ``errors`` gets
    ``"<stage>: <message>"``, in stage order, and the batch goes on.  The
    gate skips preparation only for a paper rated ``not_runs``; a paper
    whose rating failed has no verdict to gate on, so it is prepared.  The
    label is ``skipped`` when the paper has no prepare summary, else
    ``runs`` or ``not_runs`` by its outcome.  One worker runs the papers
    in the calling thread, so Ctrl-C stops the running paper at once; a
    pool stops only the queued ones and lets each running paper finish.
    """
    with contextlib.ExitStack() as built:
        if embedding_provider is None and (config.rate.enabled or config.assess.enabled):
            embedding_provider = build_embedding_provider(config.embedding)
            built.enter_context(closing_built(embedding_provider))
        if chat_factory is None and config.prepare.enabled:
            chat_factory = build_chat_factory(config.chat)
            built.enter_context(closing_built(chat_factory))

        concept = cutoff = bank = model = None
        if config.rate.enabled:
            concept = load_artifact(ConceptVector, config.rate.concept_path)
            cutoff = load_artifact(Cutoff, config.rate.cutoff_path)
        if config.assess.enabled:
            bank = load_artifact(PitfallBank, config.assess.bank_path)
            model = load_artifact(AssessorModel, config.assess.model_path)
            with checked_input(f"bank {config.assess.bank_path} and model {config.assess.model_path}"):
                check_alignment(bank, model)

        if prepare_fn is None:
            def prepare_fn(bundle: ArtifactBundle, chat: ChatProvider) -> PrepareOutcome:
                return run_prepare_loop(bundle, config.prepare.sandbox, chat, config.prepare.limits)

        def process(entry: CorpusEntry) -> tuple[VerdictReport, PrepareOutcome | None]:
            errors: list[str] = []

            def stage(name: str, call: Callable):
                """``call()``, or None with its error recorded as stage ``name``'s."""
                try:
                    return call()
                except Exception as exc:
                    errors.append(f"{name}: {exc}")
                    return None

            rate_verdict = outcome = assess_report = None
            if config.rate.enabled and entry.readme_text:
                rate_verdict = stage("rate", lambda: rate_document(
                    RateInput(entry.paper_id, entry.paper_text, entry.readme_text),
                    concept, cutoff, embedding_provider))
            elif config.rate.enabled and wants_rating(entry):
                errors.append(f"rate: {README_MISSING}")
            gated_out = config.gate and rate_verdict is not None and rate_verdict.label == LABEL_NOT_RUNS
            if config.prepare.enabled and not gated_out and entry.source_ref:
                outcome = stage("prepare", lambda: prepare_fn(
                    ArtifactBundle(entry.paper_id, entry.paper_text, entry.source_ref, entry.readme_text),
                    chat_factory(entry.paper_id)))
            if config.assess.enabled:
                assess_report = stage("assess", lambda: assess_document(
                    entry.paper_text, bank, model, embedding_provider, paper_id=entry.paper_id))

            summary = None if outcome is None else PrepareSummary.from_outcome(outcome)
            label = (PIPELINE_SKIPPED if summary is None
                     else PIPELINE_RUNS if summary.outcome == OUTCOME_SUCCESS else PIPELINE_NOT_RUNS)
            report = VerdictReport(
                paper_id=entry.paper_id,
                seed=config.seed,
                pipeline_label=label,
                rate=rate_verdict,
                prepare=summary,
                assess=assess_report,
                errors=tuple(errors),
            )
            return report, outcome

        ordered = sorted(entries, key=lambda e: e.paper_id)
        if config.workers == 1:
            results = [process(e) for e in ordered]
        else:
            with ThreadPoolExecutor(max_workers=config.workers) as pool:
                results = list(pool.map(process, ordered))
        reports = tuple(r for r, _ in results)
        outcomes = {r.paper_id: o for r, o in results if o is not None}
        return PipelineResult(reports=reports, prepare_outcomes=outcomes)


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
        # Gate-skipped papers count as predicted not-runnable: nothing was
        # executed for them, which is the gate's prediction.
        cm = paired_confusion(
            {r.paper_id: r.pipeline_label == PIPELINE_RUNS for r in ordered},
            {pid: record.manually_runnable for pid, record in ground_truth.items()},
        )
        if cm.total:
            lines.append("")
            lines.append(render_confusion_table(cm))
            lines.append(f"accuracy vs ground truth: {100.0 * metric_set(cm).accuracy:.2f}%")
    return "\n".join(lines) + "\n", jsonl
