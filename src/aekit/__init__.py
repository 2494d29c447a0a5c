"""aekit: partially automated evaluation of research code artifacts.

Three capabilities, usable independently or chained into a pipeline:
score how reproducible a submission reads (rate), let an agent set up
its execution environment in a sandbox (prepare), and flag common
methodological pitfalls (assess).
"""

from .assess import (
    AssessorModel,
    PitfallBank,
    PitfallReport,
    PitfallSpec,
    assess_document,
    assess_documents,
    build_pitfall_bank,
    featurize,
    fit_logistic,
    load_pitfall_specs,
    train_assessor,
)
from .corpus import (
    CorpusEntry,
    GroundTruthRecord,
    Split,
    filter_for_stage,
    load_corpus,
    seeded_split,
)
from .gateway import (
    ChatMessage,
    MockEmbeddingProvider,
    ProviderConfig,
    RemoteChatProvider,
    RemoteEmbeddingProvider,
    ScriptedChatProvider,
    mock_embed,
)
from .measure import (
    ConceptVector,
    PromptPair,
    ProbeSet,
    compute_deltas,
    extract_concept_vector,
    first_principal_component,
    project_score,
    score_documents,
)
from .metrics import ConfusionMatrix, MetricSet, count_confusion, f_beta, from_percentages, metric_set
from .pipeline import (
    PipelineConfig,
    VerdictReport,
    load_pipeline_config,
    render_report,
    run_pipeline,
)
from .prepare import (
    AgentTranscript,
    ArtifactBundle,
    PrepareLimits,
    PrepareOutcome,
    parse_action,
    run_prepare_loop,
)
from .rate import (
    ConceptRef,
    Cutoff,
    RateInput,
    RateVerdict,
    calibrate_cutoff,
    compose_rate_document,
    rate_document,
    rate_documents,
)
from .sandbox import CommandStep, SandboxSpec, open_sandbox

__version__ = "0.1.0"
