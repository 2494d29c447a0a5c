#!/usr/bin/env python3
"""Distilling a concept vector and scoring documents against it.

A concept is defined by two opposing prompts.  Feeding a handful of
probing texts through an embedding model under both prompts and taking
the leading principal component of the per-text embedding deltas yields
a unit direction: the concept vector.  New documents are scored by
projecting their embedding onto that direction.

Runs fully offline using the deterministic mock embedding provider.
"""

import numpy as np

from aekit.gateway import MockEmbeddingProvider
from aekit.measure import PromptPair, ProbeSet, extract_concept_vector, score_documents

prompts = PromptPair(
    positive="This text gives precise, complete instructions that anyone can follow.",
    negative="This text is vague and leaves out the details needed to act on it.",
    neutral="Read this text carefully.",
    concept_name="instruction-completeness",
)

probes = ProbeSet((
    "Install the toolchain with `make deps`, then run `make test`.",
    "Results may vary. Consult your local configuration for details.",
    "Step 1: download the dataset. Step 2: run train.py --config base.yaml.",
    "The approach is evaluated in the usual way on the usual benchmarks.",
    "Use Python 3.10; pinned requirements are in requirements.lock.",
))

provider = MockEmbeddingProvider(seed=100, dim=64)
concept = extract_concept_vector(probes, prompts, provider)

print(f"concept '{concept.concept_name}'")
print(f"  provider:      {concept.provider_id}")
print(f"  dimensions:    {concept.dim}")
print(f"  probes used:   {concept.probe_count}")
print(f"  prompt digest: {concept.prompt_digest[:16]}...")
print(f"  unit norm:     {np.linalg.norm(concept.direction):.12f}")
print()

documents = {
    "detailed readme": (
        "Clone the repo, run ./setup.sh, then ./run_all.sh regenerates every table. "
        "Tested on Ubuntu 22.04 with Python 3.10."
    ),
    "sparse readme": "Code for our paper. Good luck.",
    "medium readme": "Install dependencies with pip and run main.py with default settings.",
}

print("projection scores (higher = expresses the concept more strongly):")
scores = score_documents(provider, prompts.neutral, list(documents.values()), concept)
for name, score in zip(documents, scores):
    print(f"  {name:16} {score:+.4f}")

print()
print("The mock provider is seeded hashing, so rerunning this script")
print("reproduces the same concept vector and scores bit for bit.")
