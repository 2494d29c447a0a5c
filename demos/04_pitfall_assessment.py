#!/usr/bin/env python3
"""Per-pitfall concept scoring plus supervised classification.

Each methodological pitfall gets its own concept vector (present pole vs
absent pole).  A paper is featurized into one projection score per
pitfall, and a per-pitfall logistic classifier turns scores into
presence probabilities.  Training refuses to fit a pitfall with fewer
than five examples in either class and marks it skipped instead.

Runs offline: mock embeddings for the bank, synthetic features for the
classifier training.
"""

from aekit.assess import (
    PitfallFeatureVector,
    assess_document,
    build_pitfall_bank,
    load_pitfall_specs,
    train_assessor,
)
from aekit.gateway import MockEmbeddingProvider
from aekit.measure import ProbeSet

provider = MockEmbeddingProvider(seed=200, dim=64)

specs = load_pitfall_specs()[:3]  # first three pitfalls keep the demo quick
print("pitfalls under assessment:")
for spec in specs:
    print(f"  {spec.pitfall_id}: {spec.name}")
print()

probes = ProbeSet((
    "We collect samples from a single honeypot and train on all of them.",
    "The dataset is stratified by source and rebalanced to match deployment.",
    "Labels come from an unverified blocklist snapshot from 2014.",
    "Two annotators labeled every sample; disagreements were adjudicated.",
))
bank = build_pitfall_bank(specs, probes, provider)
print(f"bank built: {len(bank)} concept vectors, dim {bank.entries[0].concept.dim}")
print()

# Synthetic, cleanly separable training features: pitfall 1 present papers
# score high on axis 0; pitfall 2 has too few annotations and must skip.
features, annotations = [], {}
for i in range(6):
    pid = f"present-{i}"
    features.append(PitfallFeatureVector(pid, (1.5 + 0.1 * i, 0.0, 0.0)))
    annotations[pid] = {"P1": "present", "P2": "present" if i < 2 else "absent"}
for i in range(6):
    pid = f"absent-{i}"
    features.append(PitfallFeatureVector(pid, (-1.5 - 0.1 * i, 0.0, 0.0)))
    annotations[pid] = {"P1": "absent", "P3": "absent" if i else "present"}

model = train_assessor(features, annotations, bank.pitfall_ids)
print("trained classifiers:")
for clf in model.classifiers:
    if clf.status == "trained":
        print(f"  {clf.pitfall_id}: weight {clf.weights[0]:+.3f}, bias {clf.bias:+.3f}, "
              f"trained on {clf.trained_on}")
    else:
        print(f"  {clf.pitfall_id}: skipped (fewer than 5 examples in one class)")
print()

report = assess_document(
    "We gather all traffic from one university network and report accuracy.",
    bank, model, provider, paper_id="demo-paper",
)
print("assessment of a new paper:")
for finding in report.findings:
    if finding.probability is None:
        print(f"  {finding.pitfall_id}: skipped (score {finding.score:+.3f})")
    else:
        print(f"  {finding.pitfall_id}: {finding.label} "
              f"(p={finding.probability:.3f}, score {finding.score:+.3f})")
