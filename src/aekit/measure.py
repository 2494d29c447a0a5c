"""Concept-vector extraction and projection scoring.

The measurement instrument works in three steps: feed every probing text
through an embedding provider twice, once under each pole of a prompt
pair; take the elementwise absolute difference of each embedding pair;
and distill the leading principal component of the resulting delta
collection into a unit direction.  Projecting a new document's embedding
onto that direction yields a scalar score for how strongly the document
expresses the concept.

Embeddings and delta matrices are plain 1-D / 2-D float64 numpy arrays.
Only the distilled direction carries provenance metadata (see
:class:`ConceptVector`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .jsonio import Artifact

if TYPE_CHECKING:
    from .gateway import EmbeddingProvider

DEGENERATE_FROBENIUS_TOL = 1e-12
MIN_PROBES = 3
UNIT_NORM_TOL = 1e-9
# Items per provider call when scoring, so that a stage over many papers
# holds at most SCORE_CHUNK embeddings at once.  A multiple of
# gateway.DEFAULT_BATCH_SIZE, so that every chunk fills whole requests.
SCORE_CHUNK = 1024
# Lanczos (see _top_eigenvector) checks its top Ritz pair every
# LANCZOS_CHECK_EVERY steps and stops at a residual of LANCZOS_TOL_ULPS
# ulps of the matrix's largest absolute column sum.
LANCZOS_CHECK_EVERY = 8
LANCZOS_TOL_ULPS = 4.0


class DimensionMismatch(ValueError):
    """Operands live in embedding spaces of different dimension."""


class AllZeroDeltas(ValueError):
    """Every probe delta is (numerically) zero; no direction exists."""


@dataclass(frozen=True)
class PromptPair(Artifact):
    """The two poles defining a concept, plus the neutral scoring prompt."""

    positive: str
    negative: str
    neutral: str
    concept_name: str

    def __post_init__(self) -> None:
        for name in ("positive", "negative", "neutral", "concept_name"):
            if not getattr(self, name).strip():
                raise ValueError(f"PromptPair.{name} must be nonempty")
        if self.positive == self.negative:
            raise ValueError("positive and negative prompts must differ")

    def digest(self) -> str:
        """Stable sha256 over all four fields, hex-encoded."""
        payload = json.dumps(
            [self.concept_name, self.positive, self.negative, self.neutral],
            ensure_ascii=False,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ProbeSet:
    """Ordered probing texts used to train one concept vector."""

    probes: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.probes) < MIN_PROBES:
            raise ValueError(
                f"need at least {MIN_PROBES} probing texts for a nondegenerate spread, got {len(self.probes)}"
            )
        if any(not p.strip() for p in self.probes):
            raise ValueError("probing texts must be nonempty")
        object.__setattr__(self, "probes", tuple(self.probes))

    @property
    def count(self) -> int:
        return len(self.probes)


def as_embedding(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """Coerce to a finite 1-D float64 vector: one row under :func:`_as_block`'s rules."""
    return _as_block(np.asarray(values, dtype=np.float64)[np.newaxis])[0]


def _as_block(rows: Sequence[np.ndarray]) -> np.ndarray:
    """Coerce to an n x d float64 block of finite, nonempty 1-D embeddings.

    A float64 block is returned as itself, not copied, and a 2-D array's
    shape is checked once rather than row by row.
    """
    if isinstance(rows, np.ndarray) and rows.ndim == 2:
        shapes = [rows.shape[1:]] if len(rows) else []
    else:
        shapes = sorted({np.shape(row) for row in rows})
    if len(shapes) != 1:
        raise DimensionMismatch(f"need embeddings of one shape, got {shapes}")
    block = np.asarray(rows, dtype=np.float64)
    if block.ndim != 2 or block.shape[1] == 0:
        raise ValueError(f"embedding must be a nonempty 1-D vector, got shape {shapes[0]}")
    if not np.isfinite(block).all():
        raise ValueError("embedding contains non-finite entries")
    return block


def _embed_block(provider: "EmbeddingProvider", items: Sequence[tuple[str, str]]) -> np.ndarray:
    """Embed ``(system_prompt, document)`` pairs as one checked n x d block.

    One ``embed_many`` call where the provider has it, else one ``embed``
    per item.
    """
    embed_many = getattr(provider, "embed_many", None)
    if embed_many is None:
        return _as_block([provider.embed(prompt, doc) for prompt, doc in items])
    return _as_block(embed_many(items))


def compute_deltas(
    pos: Sequence[np.ndarray], neg: Sequence[np.ndarray]
) -> np.ndarray:
    """Elementwise absolute differences |pos_i - neg_i|, one row per probe.

    Both lists must have the same length (>= 3) and a uniform dimension.
    The absolute value is taken per coordinate, not as a vector norm, so
    the output is an n x d matrix with nonnegative entries.
    """
    if len(pos) != len(neg):
        raise ValueError(f"pole lists differ in length: {len(pos)} vs {len(neg)}")
    if len(pos) < 3:
        raise ValueError(f"need at least 3 probe pairs, got {len(pos)}")
    p, q = _as_block(pos), _as_block(neg)
    if p.shape != q.shape:
        raise DimensionMismatch(f"pole dimensions differ: {p.shape[1]} vs {q.shape[1]}")
    deltas = p - q
    return np.abs(deltas, out=deltas)  # in place: one n x d temporary fewer


def _top_eigenvector(sym: np.ndarray) -> np.ndarray:
    """Unit eigenvector of a symmetric PSD matrix's largest eigenvalue.

    Lanczos with full reorthogonalization (Golub & Van Loan, *Matrix
    Computations*, 4th ed., ch. 10), so ``eigh`` runs only on the small
    tridiagonal matrix.  The start vector is a seeded Gaussian, never the
    ones vector, which every centered Gram matrix maps to 0.  Each new
    basis vector is orthogonalized twice against all earlier ones: one
    pass loses orthogonality and returns a mix of eigenvectors.  Every
    :data:`LANCZOS_CHECK_EVERY` steps the loop stops once the top Ritz
    pair's residual beta_j * |s_j| is within :data:`LANCZOS_TOL_ULPS` ulps
    of the matrix's largest absolute column sum; it also stops when beta_j
    falls below that tolerance (the Krylov space is invariant) and after k
    steps (the Krylov space is the whole space, so the pair is exact).
    """
    k = sym.shape[0]
    tol = LANCZOS_TOL_ULPS * np.finfo(np.float64).eps * float(np.abs(sym).sum(axis=0).max())
    basis = np.empty((k, k))
    alpha = np.empty(k)
    beta = np.empty(k)
    q = np.random.default_rng(0).standard_normal(k)
    q /= np.linalg.norm(q)
    for j in range(k):
        basis[j] = q
        w = sym @ q
        alpha[j] = q @ w
        krylov = basis[: j + 1]
        for _ in range(2):
            w -= krylov.T @ (krylov @ w)
        beta[j] = np.linalg.norm(w)
        steps = j + 1
        invariant = beta[j] <= tol or steps == k
        if invariant or steps % LANCZOS_CHECK_EVERY == 0:
            off = beta[: steps - 1]
            tridiagonal = np.diag(alpha[:steps]) + np.diag(off, 1) + np.diag(off, -1)
            _, ritz = np.linalg.eigh(tridiagonal)
            if invariant or beta[j] * abs(ritz[-1, -1]) <= tol:
                break
        q = w / beta[j]
    vector = krylov.T @ ritz[:, -1]
    return vector / np.linalg.norm(vector)


def first_principal_component(deltas: np.ndarray) -> np.ndarray:
    """Unit leading principal component of a delta matrix, sign-fixed.

    Columns are mean-centered before forming the scatter matrix.  The
    top eigenvector of the smaller of the d x d scatter and the n x n Gram
    matrix (mapped back through the centered rows when n < d) comes from
    Lanczos (:func:`_top_eigenvector`), and the tests check it against an
    ``np.linalg.eigh`` oracle.  Lanczos stops on a residual, not on a step
    cap, so a small eigengap costs steps, not accuracy.  Its sign is
    flipped so that the mean projection of the *uncentered* rows is
    nonnegative.  Directions trained with the former full ``eigh`` differ
    from these in their last bits; like their dependence on the BLAS
    thread count, that falls outside the byte-identity of reruns.

    Degenerate spread (centered matrix ~ 0) falls back to the normalized
    mean row; if that is also ~ 0 the deltas carry no signal and
    :class:`AllZeroDeltas` is raised.
    """
    x = np.asarray(deltas, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"delta matrix must be 2-D, got shape {x.shape}")
    n, d = x.shape
    if n < 3 or d < 1:
        raise ValueError(f"delta matrix needs n >= 3 and d >= 1, got {n} x {d}")

    mean_row = x.mean(axis=0)
    centered = x - mean_row
    if np.linalg.norm(centered) < DEGENERATE_FROBENIUS_TOL:
        norm = np.linalg.norm(mean_row)
        if norm < DEGENERATE_FROBENIUS_TOL:
            raise AllZeroDeltas("all probe deltas are zero; concept is undetectable")
        return mean_row / norm

    if n < d:
        direction = centered.T @ _top_eigenvector(centered @ centered.T)
        direction /= np.linalg.norm(direction)
    else:
        direction = _top_eigenvector(centered.T @ centered)

    # Sign convention: uncentered rows are nonnegative, so a stable
    # orientation is the one their mean projects positively onto.
    if float(mean_row @ direction) < 0.0:
        direction = -direction
    return direction


@dataclass(frozen=True, eq=False)
class ConceptVector(Artifact):
    """A unit direction plus the provenance needed to reuse it; its file is its fields.

    Scores are only comparable when provider_id and prompt_digest match,
    so both are recorded in every verdict downstream.  Version 1 files
    also hold ``dim`` and ``sign_convention``, which reading ignores.
    """

    KIND = "concept vector"
    VERSION = 2

    direction: np.ndarray
    concept_name: str
    provider_id: str
    prompt_digest: str
    probe_count: int

    def __post_init__(self) -> None:
        vec = as_embedding(self.direction)
        if abs(np.linalg.norm(vec) - 1.0) > UNIT_NORM_TOL:
            raise ValueError("direction must have unit Euclidean norm")
        vec = vec.copy()
        vec.setflags(write=False)
        object.__setattr__(self, "direction", vec)

    @property
    def dim(self) -> int:
        return int(self.direction.size)


def extract_concept_vector(
    probes: ProbeSet, prompts: PromptPair, provider: "EmbeddingProvider"
) -> ConceptVector:
    """Full extraction pipeline: embed under both poles, delta, PCA.

    Both poles go to the provider in one call of 2n items, positives
    first, so a provider that encodes each distinct document once per
    call encodes each probe once.
    """
    n = probes.count
    poles = _embed_block(
        provider,
        [(prompts.positive, p) for p in probes.probes]
        + [(prompts.negative, p) for p in probes.probes],
    )
    deltas = compute_deltas(poles[:n], poles[n:])
    # Free the 2n pole embeddings before the PCA allocates its matrices,
    # so extraction peaks at the embeddings, not at both.
    del poles
    direction = first_principal_component(deltas)
    return ConceptVector(
        direction=direction,
        concept_name=prompts.concept_name,
        provider_id=provider.provider_id,
        prompt_digest=prompts.digest(),
        probe_count=probes.count,
    )


def _require_dim(dim: int, concept: ConceptVector) -> None:
    if dim != concept.dim:
        raise DimensionMismatch(f"embedding dim {dim} does not match concept dim {concept.dim}")


def project_score(embedding: np.ndarray, concept: ConceptVector) -> float:
    """Dot product with the stored unit direction.

    The direction is pre-normalized, so no division is needed; the score
    is unbounded and linear in the embedding.
    """
    vec = as_embedding(embedding)
    _require_dim(vec.size, concept)
    return float(vec @ concept.direction)


def score_documents(
    provider: "EmbeddingProvider",
    system_prompt: str,
    documents: Sequence[str],
    concept: ConceptVector,
) -> np.ndarray:
    """The one scoring path: embed each document under a prompt, then project.

    Each score is bitwise equal to :func:`project_score` of the document's
    embedding.  One matrix-vector product over the block would round
    differently, so a score would depend on its batch and could cross a
    cutoff between calibration and rating; hence one dot per row.
    """
    items = [(system_prompt, doc) for doc in documents]
    return _score_items(provider, items, [concept] * len(items))


def _score_items(
    provider: "EmbeddingProvider",
    items: Sequence[tuple[str, str]],
    concepts: Sequence[ConceptVector],
) -> np.ndarray:
    """Embed ``(system_prompt, document)`` pairs, then project.

    Items are embedded in blocks of at most :data:`SCORE_CHUNK`, one
    provider call each.  Row i is dotted with ``concepts[i]``, one dot per
    row, so each score is bitwise equal to :func:`project_score` whatever
    the chunking (see :func:`score_documents`).
    """
    scores = np.empty(len(items))
    for start in range(0, len(items), SCORE_CHUNK):
        block = _embed_block(provider, items[start:start + SCORE_CHUNK])
        for i, row in enumerate(block, start):
            _require_dim(row.size, concepts[i])
            scores[i] = row @ concepts[i].direction
    return scores
