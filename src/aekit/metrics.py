"""Confusion-matrix bookkeeping and derived metrics.

Counts can be reconstructed from published percentage cells plus a total:
nearest-integer rounding recovers the unique integer solution, and a
consistency re-check rejects cells that do not reproduce the printed
percentages.  Undefined metrics (zero denominators) are explicit
absences (None), never NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .jsonio import Artifact

PERCENT_CONSISTENCY_TOL = 0.005


class InconsistentPercentages(ValueError):
    """Percentage cells do not reconstruct to integer counts."""


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self) -> None:
        for name in ("tp", "fp", "fn", "tn"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    def as_counts(self) -> tuple[int, int, int, int]:
        return (self.tp, self.fp, self.fn, self.tn)

    def percentages(self) -> tuple[float, float, float, float]:
        if self.total == 0:
            raise ValueError("cannot derive percentages from an empty matrix")
        return tuple(100.0 * c / self.total for c in self.as_counts())


@dataclass(frozen=True)
class MetricSet(Artifact):
    """Derived metrics; None marks an undefined (zero-denominator) cell."""

    KIND = "metric set"

    accuracy: float | None
    precision: float | None
    recall: float | None
    f1: float | None
    f2: float | None


def paired_confusion(
    predicted: Mapping[str, bool | None], actual: Mapping[str, bool | None]
) -> ConfusionMatrix:
    """Each paper's predicted runs/not-runs against its annotation, paired by paper id.

    A paper counts only when both sides hold a label for it; a paper
    missing from either mapping, or None on either side, is left out.
    """
    tp = fp = fn = tn = 0
    for paper_id, predicted_runs in predicted.items():
        actually_runs = actual.get(paper_id)
        if predicted_runs is None or actually_runs is None:
            continue
        if predicted_runs and actually_runs:
            tp += 1
        elif predicted_runs:
            fp += 1
        elif actually_runs:
            fn += 1
        else:
            tn += 1
    return ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=tn)


def from_percentages(
    total: int, cells: tuple[float, float, float, float]
) -> ConfusionMatrix:
    """Reconstruct integer counts (tp, fp, fn, tn) from percentage cells.

    Each count is the nearest integer to p * total / 100.  The counts
    must sum to the total and re-derive every input percentage within
    0.005 points, otherwise the cells are inconsistent.
    """
    if total <= 0:
        raise ValueError("total must be positive")
    if len(cells) != 4:
        raise ValueError("expected exactly four percentage cells")
    if any(p < 0 for p in cells):
        raise ValueError("percentages must be nonnegative")
    counts = [int(math.floor(p * total / 100.0 + 0.5)) for p in cells]
    if sum(counts) != total:
        raise InconsistentPercentages(
            f"reconstructed counts {counts} sum to {sum(counts)}, expected {total}"
        )
    for p, c in zip(cells, counts):
        rederived = 100.0 * c / total
        if abs(rederived - p) > PERCENT_CONSISTENCY_TOL:
            raise InconsistentPercentages(
                f"count {c} re-derives to {rederived:.4f}%, given {p}%"
            )
    tp, fp, fn, tn = counts
    return ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=tn)


def f_beta(precision: float, recall: float, beta: float) -> float | None:
    """Weighted harmonic mean of precision and recall; None if both zero."""
    if not (0.0 <= precision <= 1.0 and 0.0 <= recall <= 1.0):
        raise ValueError("precision and recall must lie in [0, 1]")
    if beta <= 0:
        raise ValueError("beta must be positive")
    denominator = beta * beta * precision + recall
    if denominator == 0.0:
        return None
    return (1 + beta * beta) * precision * recall / denominator


def metric_set(cm: ConfusionMatrix) -> MetricSet:
    """Accuracy, precision, recall, F1 and F2 from raw counts."""
    if cm.total == 0:
        raise ValueError("cannot compute metrics on an empty matrix")
    accuracy = (cm.tp + cm.tn) / cm.total
    precision = cm.tp / (cm.tp + cm.fp) if cm.tp + cm.fp > 0 else None
    recall = cm.tp / (cm.tp + cm.fn) if cm.tp + cm.fn > 0 else None
    if precision is None or recall is None:
        f1 = f2 = None
    else:
        f1 = f_beta(precision, recall, 1.0)
        f2 = f_beta(precision, recall, 2.0)
    return MetricSet(accuracy=accuracy, precision=precision, recall=recall, f1=f1, f2=f2)


def render_confusion_table(
    cm: ConfusionMatrix, system_label: str = "Pipeline", truth_label: str = "Ground truth"
) -> str:
    """Two-by-two percentage table with an accuracy/precision/recall footer."""
    tp_p, fp_p, fn_p, tn_p = cm.percentages()
    ms = metric_set(cm)

    def fmt(value: float | None) -> str:
        return "n/a" if value is None else f"{100.0 * value:.2f}%"

    # Row labels are padded to one width, so the percentage columns line up.
    width = max(16, len(system_label + " not-runs"))
    lines = [
        f"Total {cm.total:<6} {truth_label}",
        f"{'':{width}}{'runs':>10} {'not-runs':>10}",
        f"{system_label + ' runs':<{width}}{tp_p:>9.2f}% {fp_p:>9.2f}%",
        f"{system_label + ' not-runs':<{width}}{fn_p:>9.2f}% {tn_p:>9.2f}%",
        f"Accuracy: {fmt(ms.accuracy)}  Precision: {fmt(ms.precision)}  Recall: {fmt(ms.recall)}",
    ]
    return "\n".join(lines)
