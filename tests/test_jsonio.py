import importlib
import inspect
import pkgutil

import pytest

import aekit
from aekit.assess import AssessorModel, PitfallBank
from aekit.jsonio import Artifact, LoadableArtifact
from aekit.measure import ConceptVector
from aekit.pipeline import VerdictReport
from aekit.prepare import AgentTranscript
from aekit.rate import Cutoff


def aekit_classes():
    for info in pkgutil.iter_modules(aekit.__path__):
        module = importlib.import_module(f"aekit.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__:
                yield cls


def test_every_serialized_class_uses_the_shared_envelope():
    serialized = [
        cls for cls in aekit_classes()
        if cls not in (Artifact, LoadableArtifact)
        and {"to_dict", "to_json", "from_json"} & set(vars(cls))
    ]
    assert len(serialized) >= 14
    for cls in serialized:
        assert issubclass(cls, Artifact), cls
        assert cls.to_json is Artifact.to_json, cls
        if hasattr(cls, "from_dict"):
            assert issubclass(cls, LoadableArtifact), cls
            assert cls.from_json.__func__ is LoadableArtifact.from_json.__func__, cls
        else:
            assert not hasattr(cls, "from_json"), cls


@pytest.mark.parametrize(
    "cls, kind",
    [
        (ConceptVector, "concept vector"),
        (Cutoff, "cutoff"),
        (PitfallBank, "pitfall bank"),
        (AssessorModel, "assessor model"),
        (AgentTranscript, "transcript"),
        (VerdictReport, "verdict report"),
    ],
)
def test_versioned_artifacts_reject_other_versions_and_non_objects(cls, kind):
    with pytest.raises(ValueError, match=f"^unsupported {kind} version: 2$"):
        cls.from_json('{"version": 2}')
    with pytest.raises(ValueError, match=f"^{kind} is not a JSON object$"):
        cls.from_json("[]")
