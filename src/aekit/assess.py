"""Methodological-pitfall assessment.

One concept vector is extracted per pitfall; a paper is then featurized
into a vector of projection scores (one per pitfall) and per-pitfall
logistic classifiers turn scores into presence probabilities.  Training
refuses to fit any pitfall with fewer than five examples in either class
and marks it skipped instead, so thin annotations never produce a
confidently wrong classifier.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from typing import Sequence

import numpy as np

from .jsonio import Artifact, check_version, checked_input, json_object, read_text
from .measure import (
    ConceptVector,
    ProbeSet,
    PromptPair,
    _score_items,
    extract_concept_vector,
)

MIN_PER_CLASS = 5

DEFAULT_L2 = 1e-3

# Newton's method on the regularized loss: stop once every gradient entry
# is below NEWTON_GRAD_TOL or after NEWTON_MAX_STEPS steps.  The Hessian
# gets NEWTON_JITTER on its diagonal, so that an unregularized fit on
# separable data (where the curvature vanishes as the weights grow)
# takes bounded steps and returns finite weights.
NEWTON_GRAD_TOL = 1e-10
NEWTON_MAX_STEPS = 100
NEWTON_JITTER = 1e-12
# Armijo line search: accept step t once the loss falls by at least
# ARMIJO_C * t * (directional derivative), give or take LOSS_RTOL of the
# loss; halve t at most ARMIJO_MAX_HALVINGS times.  Near the minimum a
# Newton step lowers the loss by less than its rounding error, so without
# the allowance the loss could no longer rank steps and the fit would
# stop short of NEWTON_GRAD_TOL.
ARMIJO_C = 1e-4
ARMIJO_MAX_HALVINGS = 60
LOSS_RTOL = 1e-13

STATUS_TRAINED = "trained"
STATUS_SKIPPED = "skipped_insufficient_data"

LABEL_PRESENT = "present"
LABEL_ABSENT = "absent"
LABEL_SKIPPED = "skipped"

MODE_UNIVARIATE = "univariate"
MODE_FULL_VECTOR = "full_vector"


class ClassImbalance(ValueError):
    """Fewer than the minimum examples in one class."""


class AlignmentMismatch(ValueError):
    """Features and annotations do not line up by paper id."""


class PitfallBankError(RuntimeError):
    """Extraction failed for one or more pitfalls."""

    def __init__(self, failed: dict[str, Exception]):
        self.failed = failed
        detail = ", ".join(f"{pid}: {exc}" for pid, exc in failed.items())
        super().__init__(f"concept extraction failed for {sorted(failed)} ({detail})")


@dataclass(frozen=True)
class PitfallSpec:
    pitfall_id: str
    name: str
    prompts: PromptPair

    def __post_init__(self) -> None:
        for name in ("pitfall_id", "name"):
            if type(getattr(self, name)) is not str:
                raise ValueError(f"{name} must be a string, got {getattr(self, name)!r}")
        if not self.pitfall_id:
            raise ValueError("pitfall_id must be nonempty")


def load_pitfall_specs(path: str | None = None) -> list[PitfallSpec]:
    """Pitfall prompt bank from a JSON file, defaulting to the shipped asset."""
    with checked_input(f"pitfalls {path or 'asset'}"):
        asset = resources.files("aekit.assets").joinpath("pitfalls.json")
        doc = json_object(asset.read_text("utf-8") if path is None else read_text(path))
        check_version(doc.get("version", 1), "pitfalls")
        specs = [
            PitfallSpec(
                pitfall_id=item["pitfall_id"],
                name=item["name"],
                prompts=PromptPair.from_dict(
                    {**item, "concept_name": f"pitfall-{item['pitfall_id']}-{item['name']}"}
                ),
            )
            for item in doc["pitfalls"]
        ]
        if len({s.pitfall_id for s in specs}) != len(specs):
            raise ValueError("pitfall_ids must be unique")
    return specs


@dataclass(frozen=True)
class PitfallBankEntry(Artifact):
    pitfall_id: str
    name: str
    neutral_prompt: str
    concept: ConceptVector


@dataclass(frozen=True)
class PitfallBank(Artifact):
    """Ordered per-pitfall concepts plus the neutral prompts used to score."""

    KIND = "pitfall bank"

    entries: tuple[PitfallBankEntry, ...]

    def __post_init__(self) -> None:
        ids = [e.pitfall_id for e in self.entries]
        if len(set(ids)) != len(ids):
            raise ValueError("pitfall_ids must be unique within a bank")
        object.__setattr__(self, "entries", tuple(self.entries))

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def pitfall_ids(self) -> list[str]:
        return [e.pitfall_id for e in self.entries]


def build_pitfall_bank(
    specs: Sequence[PitfallSpec], probes: ProbeSet, provider
) -> PitfallBank:
    """One concept vector per pitfall, order preserved.

    Extraction failures are collected and raised together so a single bad
    pitfall prompt does not hide the rest.
    """
    if not specs:
        raise ValueError("need at least one pitfall spec")
    entries: list[PitfallBankEntry] = []
    failed: dict[str, Exception] = {}
    for spec in specs:
        try:
            concept = extract_concept_vector(probes, spec.prompts, provider)
        except Exception as exc:
            failed[spec.pitfall_id] = exc
            continue
        entries.append(
            PitfallBankEntry(
                pitfall_id=spec.pitfall_id,
                name=spec.name,
                neutral_prompt=spec.prompts.neutral,
                concept=concept,
            )
        )
    if failed:
        raise PitfallBankError(failed)
    return PitfallBank(entries=tuple(entries))


@dataclass(frozen=True)
class PitfallFeatureVector:
    paper_id: str
    scores: tuple[float, ...]

    @property
    def m(self) -> int:
        return len(self.scores)


def _score_matrix(texts: Sequence[str], bank: PitfallBank, provider) -> np.ndarray:
    """Each text's score under each pitfall, as an (n, m) array in bank order.

    Every text is embedded under every pitfall's neutral prompt, text by
    text, through one :func:`_score_items` call; each score is one dot
    with that pitfall's direction, bitwise equal to :func:`project_score`
    of the embedding.
    """
    items = [(e.neutral_prompt, text) for text in texts for e in bank.entries]
    concepts = [e.concept for e in bank.entries] * len(texts)
    return _score_items(provider, items, concepts).reshape(len(texts), len(bank))


def featurize(
    paper_text: str, bank: PitfallBank, provider, paper_id: str = ""
) -> PitfallFeatureVector:
    """Project one paper onto every pitfall direction in bank order."""
    if len(bank) == 0:
        raise ValueError("pitfall bank is empty")
    scores = _score_matrix([paper_text], bank, provider)[0]
    return PitfallFeatureVector(paper_id=paper_id, scores=tuple(scores.tolist()))


# --------------------------------------------------------------------------
# Logistic regression (Newton's method with a line search, deterministic)
# --------------------------------------------------------------------------

def sigmoid(z: np.ndarray | float) -> np.ndarray | float:
    # Two-branch form avoids overflow for large |z|.
    arr = np.atleast_1d(np.asarray(z, dtype=np.float64))
    out = np.empty_like(arr)
    pos = arr >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    ez = np.exp(arr[~pos])
    out[~pos] = ez / (1.0 + ez)
    return float(out[0]) if np.ndim(z) == 0 else out


def logistic_loss(w: np.ndarray, b: float, xs: np.ndarray, ys: np.ndarray, l2: float) -> float:
    """Mean logistic loss plus (l2/2)*||w||^2; the bias is unregularized."""
    z = xs @ w + b
    # log(1 + exp(-y*z)) in the stable log1p(exp(-|t|)) + max(-t, 0) form
    t = np.where(ys == 1, z, -z)
    losses = np.log1p(np.exp(-np.abs(t))) + np.maximum(-t, 0.0)
    return float(losses.mean() + 0.5 * l2 * float(w @ w))


def logistic_gradient(
    w: np.ndarray, b: float, xs: np.ndarray, ys: np.ndarray, l2: float
) -> tuple[np.ndarray, float]:
    z = xs @ w + b
    residual = sigmoid(z) - ys
    grad_w = xs.T @ residual / len(ys) + l2 * w
    grad_b = float(residual.mean())
    return grad_w, grad_b


def _fit_logistic_nd(
    xs: np.ndarray, ys: np.ndarray, l2: float
) -> tuple[np.ndarray, float]:
    """Minimize logistic_loss over (w, b) by Newton's method; deterministic.

    Works on the design matrix [xs, 1] from a zero start.  Each step
    solves the (jittered) Hessian system for the Newton direction and
    backtracks along it until the Armijo condition holds.  The loss is
    convex, so a point where the gradient vanishes is its global
    minimum; the bias is unregularized.
    """
    if l2 < 0:
        raise ValueError("l2 must be nonnegative")
    n_pos = int(np.sum(ys == 1))
    n_neg = len(ys) - n_pos
    if n_pos < MIN_PER_CLASS or n_neg < MIN_PER_CLASS:
        raise ClassImbalance(
            f"need at least {MIN_PER_CLASS} examples per class, got {n_pos} / {n_neg}"
        )
    n, k = xs.shape
    design = np.hstack([xs, np.ones((n, 1))])
    penalty = np.full(k + 1, l2)
    penalty[k] = 0.0
    ridge = np.diag(penalty + NEWTON_JITTER)

    def loss(theta: np.ndarray) -> float:
        return logistic_loss(theta[:k], float(theta[k]), xs, ys, l2)

    theta = np.zeros(k + 1)
    current = loss(theta)
    for _ in range(NEWTON_MAX_STEPS):
        p = sigmoid(design @ theta)
        grad = design.T @ (p - ys) / n + penalty * theta
        if np.max(np.abs(grad)) < NEWTON_GRAD_TOL:
            break
        hessian = (design.T * (p * (1.0 - p))) @ design / n + ridge
        step = -np.linalg.solve(hessian, grad)
        slope = float(grad @ step)
        t = 1.0
        for _ in range(ARMIJO_MAX_HALVINGS):
            candidate = theta + t * step
            value = loss(candidate)
            if value <= current + ARMIJO_C * t * slope + LOSS_RTOL * current:
                break
            t *= 0.5
        else:
            break  # no decrease representable in float64: at the minimum
        theta, current = candidate, value
    return theta[:k], float(theta[k])


def fit_logistic(
    xs: Sequence[float], ys: Sequence[int], l2: float = DEFAULT_L2
) -> tuple[float, float]:
    """Univariate logistic fit: returns (weight, bias)."""
    x = np.asarray(xs, dtype=np.float64).reshape(-1, 1)
    y = np.asarray(ys, dtype=np.float64)
    if x.shape[0] != y.shape[0]:
        raise ValueError("xs and ys must align")
    w, b = _fit_logistic_nd(x, y, l2)
    return float(w[0]), b


# --------------------------------------------------------------------------
# Assessor model
# --------------------------------------------------------------------------

def _inputs(mode: str, i: int) -> slice:
    """The scores that pitfall i's classifier reads: all of them, or its own."""
    return slice(None) if mode == MODE_FULL_VECTOR else slice(i, i + 1)


@dataclass(frozen=True)
class PitfallClassifier(Artifact):
    """Per-pitfall trained record; a trained one has a weight per :func:`_inputs` score."""

    pitfall_id: str
    status: str
    weights: tuple[float, ...] = ()
    bias: float = 0.0
    trained_on: int = 0

    def __post_init__(self) -> None:
        if self.status not in (STATUS_TRAINED, STATUS_SKIPPED):
            raise ValueError(f"unknown status: {self.status!r}")
        if self.status == STATUS_TRAINED and self.trained_on < 2 * MIN_PER_CLASS:
            raise ValueError(
                f"trained classifier must have seen >= {2 * MIN_PER_CLASS} examples"
            )


@dataclass(frozen=True)
class AssessorModel(Artifact):
    """Ordered per-pitfall classifiers; order matches the bank."""

    KIND = "assessor model"

    mode: str
    classifiers: tuple[PitfallClassifier, ...]

    def __post_init__(self) -> None:
        if self.mode not in (MODE_UNIVARIATE, MODE_FULL_VECTOR):
            raise ValueError(f"unknown mode: {self.mode!r}")
        object.__setattr__(self, "classifiers", tuple(self.classifiers))
        pitfalls = range(len(self.classifiers))
        for i, clf in enumerate(self.classifiers):
            width = len(pitfalls[_inputs(self.mode, i)])
            if clf.status == STATUS_TRAINED and len(clf.weights) != width:
                raise ValueError(
                    f"classifiers[{i}] ({clf.pitfall_id}) has {len(clf.weights)} weights; "
                    f"mode {self.mode} needs {width}"
                )

    @property
    def pitfall_ids(self) -> list[str]:
        return [c.pitfall_id for c in self.classifiers]


def _binary_label(annotation: str) -> int | None:
    """present/partial -> 1, absent -> 0, unclear -> excluded."""
    if annotation in ("present", "partial"):
        return 1
    if annotation == "absent":
        return 0
    if annotation == "unclear":
        return None
    raise ValueError(f"unknown pitfall annotation: {annotation!r}")


def train_assessor(
    features: Sequence[PitfallFeatureVector],
    annotations: dict[str, dict[str, str]],
    pitfall_ids: Sequence[str],
    mode: str = MODE_UNIVARIATE,
    l2: float = DEFAULT_L2,
) -> AssessorModel:
    """Fit one classifier per pitfall, skipping under-annotated ones.

    annotations maps paper_id -> {pitfall_id -> value}.  Every feature
    vector must have an annotation record and the expected length.  Each
    pitfall's classifier is fit on the :func:`_inputs` columns of the
    papers whose annotation gives a label; a missing annotation counts as
    ``unclear``.  Where the fit raises :class:`ClassImbalance` (fewer than
    five examples in either class) the pitfall gets a skipped entry
    rather than a model.
    """
    if not features:
        raise AlignmentMismatch("no feature vectors given")
    if not annotations:
        raise AlignmentMismatch("no annotations given")
    for fv in features:
        if fv.paper_id not in annotations:
            raise AlignmentMismatch(f"no annotation for paper {fv.paper_id!r}")
        if fv.m != len(pitfall_ids):
            raise AlignmentMismatch(
                f"feature vector for {fv.paper_id!r} has length {fv.m}, expected {len(pitfall_ids)}"
            )

    scores = np.array([fv.scores for fv in features], dtype=np.float64)
    classifiers: list[PitfallClassifier] = []
    for i, pid in enumerate(pitfall_ids):
        labels = [_binary_label(annotations[fv.paper_id].get(pid, "unclear")) for fv in features]
        rows = [r for r, label in enumerate(labels) if label is not None]
        ys = np.array([labels[r] for r in rows], dtype=np.float64)
        try:
            w, b = _fit_logistic_nd(scores[rows, _inputs(mode, i)], ys, l2)
        except ClassImbalance:
            classifiers.append(PitfallClassifier(pid, STATUS_SKIPPED))
        else:
            classifiers.append(PitfallClassifier(pid, STATUS_TRAINED, tuple(w.tolist()), b, len(rows)))
    return AssessorModel(mode=mode, classifiers=tuple(classifiers))


@dataclass(frozen=True)
class PitfallFinding(Artifact):
    pitfall_id: str
    label: str
    probability: float | None
    score: float


@dataclass(frozen=True)
class PitfallReport(Artifact):
    KIND = "pitfall report"

    paper_id: str
    findings: tuple[PitfallFinding, ...]


def check_alignment(bank: PitfallBank, model: AssessorModel) -> None:
    """AlignmentMismatch unless the model has one classifier per bank pitfall, in bank order."""
    if len(bank) != len(model.classifiers):
        raise AlignmentMismatch(
            f"bank has {len(bank)} pitfalls, model has {len(model.classifiers)}"
        )
    for entry, clf in zip(bank.entries, model.classifiers):
        if entry.pitfall_id != clf.pitfall_id:
            raise AlignmentMismatch(
                f"bank/model order mismatch: {entry.pitfall_id} vs {clf.pitfall_id}"
            )


def _report(paper_id: str, scores: np.ndarray, model: AssessorModel) -> PitfallReport:
    """The per-pitfall classifiers applied to one paper's feature scores."""
    findings: list[PitfallFinding] = []
    for i, clf in enumerate(model.classifiers):
        probability = None
        if clf.status == STATUS_TRAINED:
            z = float(np.asarray(clf.weights) @ scores[_inputs(model.mode, i)] + clf.bias)
            probability = float(sigmoid(z))
        label = (
            LABEL_SKIPPED if probability is None
            else LABEL_PRESENT if probability >= 0.5 else LABEL_ABSENT
        )
        findings.append(PitfallFinding(clf.pitfall_id, label, probability, float(scores[i])))
    return PitfallReport(paper_id=paper_id, findings=tuple(findings))


def assess_documents(
    papers: Sequence[tuple[str, str]],
    bank: PitfallBank,
    model: AssessorModel,
    provider,
) -> list[PitfallReport]:
    """Featurize ``(paper_id, paper_text)`` pairs and apply the per-pitfall classifiers.

    Bank/model alignment is checked once, before anything is embedded.
    All papers are featurized together, so each score is bitwise equal to
    the paper's :func:`featurize` score.  Probability >= 0.5 labels the
    pitfall present; skipped classifiers produce skipped findings with no
    probability.  An empty bank yields empty reports.
    """
    check_alignment(bank, model)
    scores = _score_matrix([text for _, text in papers], bank, provider)
    return [_report(paper_id, row, model) for (paper_id, _), row in zip(papers, scores)]


def assess_document(
    paper_text: str,
    bank: PitfallBank,
    model: AssessorModel,
    provider,
    paper_id: str = "",
) -> PitfallReport:
    """One paper's report: :func:`assess_documents` of one paper."""
    return assess_documents([(paper_id, paper_text)], bank, model, provider)[0]
