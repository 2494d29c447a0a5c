import importlib
import inspect
import json
import math
import pkgutil
import re

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
from aekit.jsonio import Artifact, FieldError
from aekit.measure import ConceptVector, PromptPair
from aekit.metrics import MetricSet
from aekit.pipeline import PrepareSummary, VerdictReport
from aekit.prepare import AgentTranscript, ErrorReport, PrepareOutcome
from aekit.rate import ConceptRef, Cutoff, RateVerdict
from aekit.sandbox import CommandStep

from conftest import DELETE, edited


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
    ref = ConceptRef("d" * 64, "mock:3+mean")
    verdict = RateVerdict("p1", 0.5, "runs", cutoff, ref)
    finding = PitfallFinding("P1", "present", 0.875, 1.5)
    report = PitfallReport("p1", (finding, PitfallFinding("P2", "skipped", None, -2.0)))
    entry = PitfallBankEntry("P1", "leak", "neutral", concept)
    classifier = PitfallClassifier("P1", "trained", (0.5, -1.25), 0.125, 10)
    return {
        PromptPair: PromptPair("pos", "neg", "neutral", "c"),
        ConceptVector: concept,
        ChatMessage: ChatMessage("assistant", "ACTION: DONE ok"),
        CommandStep: step,
        Cutoff: cutoff,
        ConceptRef: ref,
        RateVerdict: verdict,
        PitfallBankEntry: entry,
        PitfallBank: PitfallBank((entry,)),
        PitfallClassifier: classifier,
        AssessorModel: AssessorModel(
            "full_vector", (classifier, PitfallClassifier("P2", "skipped_insufficient_data")),
        ),
        PitfallFinding: finding,
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


def test_only_concept_vector_overrides_the_codec_and_only_for_dim():
    spelled = {
        cls for cls in aekit_classes()
        if cls is not Artifact and {"to_dict", "from_dict", "to_json", "from_json"} & set(vars(cls))
    }
    assert spelled == {ConceptVector}
    concept = sample_artifacts()[ConceptVector]
    doc = concept.to_dict()
    assert doc == {**Artifact.to_dict(concept), "dim": 2}
    assert ConceptVector.from_dict(doc) == Artifact.from_dict.__func__(ConceptVector, doc) == concept
    with pytest.raises(FieldError, match=r"^dim: expected 2, the direction's length, got True$"):
        ConceptVector.from_dict({**doc, "dim": True})
    with pytest.raises(KeyError, match="dim"):
        ConceptVector.from_dict({k: v for k, v in doc.items() if k != "dim"})


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


@pytest.mark.parametrize(
    "cls, path, value, message",
    [
        (CommandStep, ("truncated",), "false", "truncated: expected bool, got str"),
        (CommandStep, ("timed_out",), 0, "timed_out: expected bool, got int"),
        (CommandStep, ("exit_code",), True, "exit_code: expected int, got bool"),
        (Cutoff, ("threshold",), True, "threshold: expected float, got bool"),
        (Cutoff, ("threshold",), -math.inf, "threshold: expected a finite float, got -inf"),
        (Cutoff, ("threshold",), 10**400, "threshold: int too large to convert to float"),
        (MetricSet, ("f1",), "0.5", "f1: expected float, got str"),
        (RateVerdict, ("concept_ref", "provider_id"), 5, "concept_ref.provider_id: expected str, got int"),
        (RateVerdict, ("concept_ref",), None, "concept_ref: expected object, got null"),
        (RateVerdict, ("cutoff_used",), [], "cutoff_used: expected object, got array"),
        (RateVerdict, ("cutoff_used", "version"), 2, "cutoff_used: unsupported cutoff version: 2"),
        (VerdictReport, ("rate", "cutoff_used", "train_recall"), 2.0,
         "rate.cutoff_used: calibration metrics must lie in [0, 1]"),
        (VerdictReport, ("errors",), "x", "errors: expected array, got str"),
        (VerdictReport, ("errors", 0), None, "errors[0]: expected str, got null"),
        (PrepareOutcome, ("transcript", "steps", 0, "exit_code"), True,
         "transcript.steps[0].exit_code: expected int, got bool"),
        (PrepareOutcome, ("transcript", "messages", 1, "content"), None,
         "transcript.messages[1].content: expected str, got null"),
        (PitfallReport, ("findings", 1, "probability"), "0.5",
         "findings[1].probability: expected float, got str"),
        (PitfallBank, ("entries", 0, "concept", "direction", 1), "-0.8",
         "entries[0].concept.direction[1]: expected float, got str"),
        (PitfallBank, ("entries", 0, "concept", "direction"), [[0.6, -0.8]],
         "entries[0].concept.direction[0]: expected float, got array"),
        (PitfallBank, ("entries", 0, "concept", "dim"), 3,
         "entries[0].concept.dim: expected 2, the direction's length, got 3"),
        (ConceptVector, ("probe_count",), 3.0, "probe_count: expected int, got float"),
        (ConceptVector, ("direction", 0), math.nan, "direction[0]: expected a finite float, got nan"),
        (ConceptVector, ("direction", 1), True, "direction[1]: expected float, got bool"),
        (ConceptVector, ("direction",), "0.6", "direction: expected array, got str"),
        (AssessorModel, ("classifiers", 0, "weights"), {}, "classifiers[0].weights: expected array, got object"),
    ],
)
def test_the_reader_refuses_a_value_of_the_wrong_json_type(cls, path, value, message):
    doc = edited(sample_artifacts()[cls].to_dict(), path, value)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cls.from_dict(doc)


@pytest.mark.parametrize(
    "cls, path",
    [(ConceptVector, ("sign_convention",)), (PitfallBank, ("entries", 0, "concept", "probe_count")),
     (PitfallBank, ("entries", 0, "neutral_prompt"))],
)
def test_the_reader_requires_every_field_at_any_depth(cls, path):
    # A missing top-level field is the bare KeyError; a nested one is a
    # FieldError naming the path of the object that lacks it.
    *parents, name = path
    where = "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in parents).lstrip(".")
    error, message = (FieldError, f"{where}: missing field '{name}'") if parents else (KeyError, f"'{name}'")
    with pytest.raises(error) as caught:
        cls.from_dict(edited(sample_artifacts()[cls].to_dict(), path, DELETE))
    assert str(caught.value) == message
