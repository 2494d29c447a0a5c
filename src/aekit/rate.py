"""Text-based reproducibility rating.

Scores the concatenation of a paper's text and its Readme against a
reproducibility concept vector and converts the score into a
runs / not-runs verdict using a recall-calibrated cutoff.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from importlib import resources
from typing import Sequence

from .jsonio import Artifact, versioned
from .measure import ConceptVector, PromptPair, score_documents

LABEL_RUNS = "runs"
LABEL_NOT_RUNS = "not_runs"

PAPER_HEADER = "=== PAPER ==="
README_SEPARATOR = "=== README ==="


class DegenerateLabels(ValueError):
    """Calibration needs both label classes to be present."""


@dataclass(frozen=True)
class RateInput:
    paper_id: str
    paper_text: str
    readme_text: str

    def __post_init__(self) -> None:
        if not self.paper_text:
            raise ValueError("paper_text must be nonempty")
        if not self.readme_text:
            raise ValueError("readme_text must be nonempty; rating is only defined with a Readme")


@dataclass(frozen=True)
class Cutoff(Artifact):
    """Score threshold plus the calibration evidence behind it."""

    KIND = "cutoff"

    threshold: float
    train_recall: float
    train_precision: float
    n_train: int

    def __post_init__(self) -> None:
        if not (0.0 <= self.train_recall <= 1.0 and 0.0 <= self.train_precision <= 1.0):
            raise ValueError("calibration metrics must lie in [0, 1]")
        if self.n_train < 2:
            raise ValueError("calibration needs at least 2 training examples")


@dataclass(frozen=True)
class RateVerdict(Artifact):
    """A paper's score and label; its JSON nests the concept's provenance as ``concept_ref``."""

    paper_id: str
    score: float
    label: str
    cutoff_used: Cutoff
    prompt_digest: str
    provider_id: str

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "paper_id": self.paper_id,
            "score": self.score,
            "label": self.label,
            "cutoff_used": self.cutoff_used.to_dict(),
            "concept_ref": {
                "prompt_digest": self.prompt_digest,
                "provider_id": self.provider_id,
            },
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "RateVerdict":
        doc = versioned(doc, "rate verdict")
        return cls(
            paper_id=doc["paper_id"],
            score=float(doc["score"]),
            label=doc["label"],
            cutoff_used=Cutoff.from_dict(doc["cutoff_used"]),
            prompt_digest=doc["concept_ref"]["prompt_digest"],
            provider_id=doc["concept_ref"]["provider_id"],
        )


@functools.cache
def load_default_rate_prompts() -> PromptPair:
    """The versioned prompt asset shipped with the package, read once."""
    text = resources.files("aekit.assets").joinpath("rate_prompts.json").read_text("utf-8")
    return PromptPair.from_dict(json.loads(text))


def compose_rate_document(input: RateInput) -> str:
    """Deterministic concatenation: header, paper, separator, readme."""
    return (
        f"{PAPER_HEADER}\n{input.paper_text}\n{README_SEPARATOR}\n{input.readme_text}"
    )


def calibrate_cutoff(scores: Sequence[float], labels: Sequence[str]) -> Cutoff:
    """The lowest runs-class score, as a recall-first cutoff.

    The threshold keeps every runs example (train recall 1.0), and no
    higher threshold does; among the thresholds that reach recall 1.0 it
    admits the fewest not-runs examples, so it has the best precision.
    A score equal to the threshold counts as runs.

    Guarantee: if the scores of runs papers are exchangeable, a new runs
    paper scores at or above the lowest of m calibration runs scores with
    probability at least m/(m+1) (the split-conformal bound).  Nothing is
    promised about precision.
    """
    if len(scores) != len(labels):
        raise ValueError("scores and labels must align")
    for lab in labels:
        if lab not in (LABEL_RUNS, LABEL_NOT_RUNS):
            raise ValueError(f"unknown label: {lab!r}")
    runs_scores = [s for s, lab in zip(scores, labels) if lab == LABEL_RUNS]
    if not runs_scores or len(runs_scores) == len(labels):
        raise DegenerateLabels("calibration needs both runs and not_runs examples")

    threshold = min(runs_scores)
    admitted = sum(1 for s in scores if s >= threshold)
    return Cutoff(
        threshold=threshold,
        train_recall=1.0,
        train_precision=len(runs_scores) / admitted,
        n_train=len(scores),
    )


def rate_documents(
    inputs: Sequence[RateInput],
    concept: ConceptVector,
    cutoff: Cutoff,
    provider,
) -> list[RateVerdict]:
    """Score each paper+readme document and apply the cutoff rule, in input order.

    Every document is scored under the shipped neutral prompt through one
    :func:`score_documents` call, so each score is bitwise equal to the
    paper's score when it is rated alone.
    """
    neutral = load_default_rate_prompts().neutral
    documents = [compose_rate_document(i) for i in inputs]
    scores = score_documents(provider, neutral, documents, concept).tolist()
    return [
        RateVerdict(
            paper_id=input.paper_id,
            score=score,
            label=LABEL_RUNS if score >= cutoff.threshold else LABEL_NOT_RUNS,
            cutoff_used=cutoff,
            prompt_digest=concept.prompt_digest,
            provider_id=concept.provider_id,
        )
        for input, score in zip(inputs, scores)
    ]


def rate_document(input: RateInput, concept: ConceptVector, cutoff: Cutoff, provider) -> RateVerdict:
    """One paper's verdict: :func:`rate_documents` of one input."""
    return rate_documents([input], concept, cutoff, provider)[0]
