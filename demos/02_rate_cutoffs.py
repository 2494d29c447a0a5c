#!/usr/bin/env python3
"""Calibrating a recall-first runs/not-runs cutoff.

Given projection scores for a small training sample with known runnability
labels, the calibrator sets the threshold at the lowest score of a
runnable paper.  That keeps every runnable training paper (recall 1.0),
and no higher threshold does, so it is also the most precise threshold
with full recall.  A score equal to the threshold counts as runnable,
keeping the boundary inclusive.  If runnable papers' scores are
exchangeable, a new runnable paper clears the cutoff with probability at
least m/(m+1), for m runnable training papers.
"""

from aekit.rate import calibrate_cutoff

scores = [2.10, 1.45, 1.45, 0.80, 0.35, -0.20, -0.90]
labels = ["runs", "runs", "not_runs", "runs", "not_runs", "not_runs", "not_runs"]

print("training sample:")
for s, l in zip(scores, labels):
    print(f"  score {s:+.2f}  label {l}")
print()

cutoff = calibrate_cutoff(scores, labels)
print(f"chosen threshold: {cutoff.threshold}")
print(f"training recall:  {cutoff.train_recall:.3f}")
print(f"training precision: {cutoff.train_precision:.3f}")
print(f"training size:    {cutoff.n_train}")
print()

print("verdicts at this cutoff:")
for s in (1.45, 0.80, 0.79, -2.0):
    label = "runs" if s >= cutoff.threshold else "not_runs"
    marker = " (boundary: inclusive)" if s == cutoff.threshold else ""
    print(f"  score {s:+.2f} -> {label}{marker}")

print()
print("Recall-first calibration deliberately tolerates false positives:")
print("papers flagged 'runs' proceed to environment preparation, where a")
print("wrong guess costs compute; papers flagged 'not_runs' are dropped,")
print("where a wrong guess loses a reproducible artifact.")
