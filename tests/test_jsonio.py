import importlib
import inspect
import json
import pkgutil

import numpy as np
import pytest

import aekit
from aekit.assess import (
    AssessorModel,
    PitfallBank,
    PitfallBankEntry,
    PitfallClassifier,
    PitfallFinding,
    PitfallReport,
)
from aekit.gateway import ChatMessage
from aekit.jsonio import Artifact
from aekit.measure import ConceptVector, PromptPair
from aekit.metrics import MetricSet
from aekit.pipeline import PrepareSummary, VerdictReport
from aekit.prepare import AgentTranscript, ErrorReport, PrepareOutcome
from aekit.rate import Cutoff, RateVerdict
from aekit.sandbox import CommandStep


def aekit_classes():
    for info in pkgutil.iter_modules(aekit.__path__):
        module = importlib.import_module(f"aekit.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__:
                yield cls


def sample_artifacts() -> dict:
    """One instance of every artifact, with nested, optional and tuple fields filled."""
    concept = ConceptVector(
        direction=np.array([0.6, -0.8]), concept_name="c", provider_id="mock:3+mean",
        prompt_digest="d" * 64, probe_count=3,
    )
    cutoff = Cutoff(threshold=-0.125, train_recall=1.0, train_precision=0.75, n_train=4)
    step = CommandStep("make", 2, "out\n", "err", 0.25, True, False)
    transcript = AgentTranscript(
        "p1", (step,), (ChatMessage("system", ""), ChatMessage("user", "go")), "failure", "boom",
    )
    error = ErrorReport("make", 2, "boom")
    outcome = PrepareOutcome("failure", transcript, error_report=error)
    summary = PrepareSummary.from_outcome(outcome)
    verdict = RateVerdict("p1", 0.5, "runs", cutoff, "d" * 64, "mock:3+mean")
    report = PitfallReport(
        "p1", (PitfallFinding("P1", "present", 0.875, 1.5), PitfallFinding("P2", "skipped", None, -2.0)),
    )
    return {
        PromptPair: PromptPair("pos", "neg", "neutral", "c"),
        ConceptVector: concept,
        ChatMessage: ChatMessage("assistant", "ACTION: DONE ok"),
        CommandStep: step,
        Cutoff: cutoff,
        RateVerdict: verdict,
        PitfallBank: PitfallBank((PitfallBankEntry("P1", "leak", "neutral", concept),)),
        AssessorModel: AssessorModel("full_vector", (
            PitfallClassifier("P1", "trained", (0.5, -1.25), 0.125, 10),
            PitfallClassifier("P2", "skipped_insufficient_data"),
        )),
        PitfallReport: report,
        AgentTranscript: transcript,
        ErrorReport: error,
        PrepareOutcome: outcome,
        PrepareSummary: summary,
        VerdictReport: VerdictReport(
            "p1", 3, "not_runs", rate=verdict, prepare=summary, assess=report, errors=("x",),
        ),
        MetricSet: MetricSet(0.5, None, 1.0, 0.25, 0.125),
    }


def test_every_artifact_round_trips_byte_identically():
    samples = sample_artifacts()
    artifacts = {cls for cls in aekit_classes() if issubclass(cls, Artifact) and cls is not Artifact}
    assert artifacts == set(samples)
    for cls, instance in samples.items():
        text = instance.to_json()
        loaded = cls.from_json(text)
        assert loaded == instance, cls
        assert loaded.to_json() == text, cls


def test_only_concept_vector_and_rate_verdict_spell_out_their_format():
    spelled = {
        cls for cls in aekit_classes()
        if cls is not Artifact and {"to_dict", "from_dict", "to_json", "from_json"} & set(vars(cls))
    }
    assert spelled == {ConceptVector, RateVerdict}


def test_the_codec_coerces_numbers_and_requires_every_field():
    doc = json.loads(Cutoff(1.0, 1.0, 0.5, 2).to_json())
    doc["threshold"] = 1
    text = json.dumps(doc)
    assert '"threshold": 1,' in text
    assert Cutoff.from_json(text).to_json() == (
        '{"n_train":2,"threshold":1.0,"train_precision":0.5,"train_recall":1.0,"version":1}'
    )
    del doc["n_train"]
    with pytest.raises(KeyError, match="n_train"):
        Cutoff.from_dict(doc)


@pytest.mark.parametrize(
    "cls, kind",
    [
        (ConceptVector, "concept vector"),
        (Cutoff, "cutoff"),
        (PitfallBank, "pitfall bank"),
        (AssessorModel, "assessor model"),
        (AgentTranscript, "transcript"),
        (VerdictReport, "verdict report"),
        (PitfallReport, "pitfall report"),
        (RateVerdict, "rate verdict"),
        (PrepareOutcome, "prepare outcome"),
        (MetricSet, "metric set"),
    ],
)
def test_versioned_artifacts_reject_other_versions_and_non_objects(cls, kind):
    with pytest.raises(ValueError, match=f"^unsupported {kind} version: 2$"):
        cls.from_json('{"version": 2}')
    with pytest.raises(ValueError, match=f"^{kind} is not a JSON object$"):
        cls.from_json("[]")
