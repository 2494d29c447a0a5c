
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aekit import measure
from aekit.gateway import DEFAULT_BATCH_SIZE, MockEmbeddingProvider, ProviderConfig, RemoteEmbeddingProvider
from aekit.measure import (
    AllZeroDeltas,
    ConceptVector,
    DimensionMismatch,
    PromptPair,
    ProbeSet,
    _as_block,
    compute_deltas,
    extract_concept_vector,
    first_principal_component,
    project_score,
    score_documents,
)

from conftest import CountingMockProvider, FixedEmbeddingProvider, VectorTransport


def oracle_leading_direction(deltas):
    """Brute-force eigendecomposition of the centered scatter, sign-fixed."""
    x = np.asarray(deltas, dtype=float)
    centered = x - x.mean(axis=0)
    _, vecs = np.linalg.eigh(centered.T @ centered)
    lead = vecs[:, -1]
    if x.mean(axis=0) @ lead < 0:
        lead = -lead
    return lead


PAIR = PromptPair("easy pole", "hard pole", "plain reading", "test-concept")


class TestComputeDeltas:
    def test_elementwise_absolute_difference(self):
        # Pad with zero rows to satisfy the minimum probe count; the first
        # row exercises the (1,-2) vs (0,1) -> (1,3) case.
        pos = [np.array([1.0, -2.0]), np.zeros(2), np.zeros(2)]
        neg = [np.array([0.0, 1.0]), np.zeros(2), np.zeros(2)]
        deltas = compute_deltas(pos, neg)
        assert np.array_equal(deltas[0], [1.0, 3.0])

    def test_identical_poles_give_zero_matrix(self):
        rows = [np.array([1.0, 2.0, 3.0])] * 4
        assert np.array_equal(compute_deltas(rows, rows), np.zeros((4, 3)))

    def test_matches_per_entry_oracle_on_random_input(self):
        rng = np.random.default_rng(7)
        pos = [rng.normal(size=4) for _ in range(5)]
        neg = [rng.normal(size=4) for _ in range(5)]
        deltas = compute_deltas(pos, neg)
        for i in range(5):
            for j in range(4):
                assert deltas[i, j] == abs(pos[i][j] - neg[i][j])

    def test_nonnegative_entries(self):
        rng = np.random.default_rng(3)
        deltas = compute_deltas(
            [rng.normal(size=6) for _ in range(4)],
            [rng.normal(size=6) for _ in range(4)],
        )
        assert np.all(deltas >= 0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compute_deltas([np.zeros(2)] * 3, [np.zeros(2)] * 4)

    def test_dimension_mismatch_rejected(self):
        pos = [np.zeros(2), np.zeros(2), np.zeros(3)]
        with pytest.raises(DimensionMismatch):
            compute_deltas(pos, [np.zeros(2)] * 3)

    def test_non_finite_or_non_vector_rows_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            compute_deltas([np.zeros(2), np.zeros(2), np.array([0.0, np.nan])], [np.zeros(2)] * 3)
        with pytest.raises(ValueError, match="1-D"):
            compute_deltas([np.zeros((2, 2))] * 3, [np.zeros((2, 2))] * 3)


class TestFirstPrincipalComponent:
    def test_degenerate_spread_falls_back_to_mean_row(self):
        rows = np.array([[2.0, 0.0, 0.0]] * 4)
        assert np.allclose(first_principal_component(rows), [1.0, 0.0, 0.0])

    def test_all_zero_deltas_rejected(self):
        with pytest.raises(AllZeroDeltas):
            first_principal_component(np.zeros((4, 3)))

    def test_matches_eigendecomposition_oracle(self):
        rows = np.array([[1.0, 0.0], [3.0, 0.0], [1.0, 0.1], [3.0, 0.1]])
        direction = first_principal_component(rows)
        lead = oracle_leading_direction(rows)
        assert abs(abs(direction @ lead) - 1.0) < 1e-8
        assert np.allclose(direction, [1.0, 0.0], atol=1e-6)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(11)
        rows = rng.uniform(0, 1, size=(6, 5))
        base = first_principal_component(rows)
        permuted = first_principal_component(rows[::-1])
        assert np.allclose(base, permuted, atol=1e-12)

    def test_sign_convention_mean_projection_nonnegative(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            rows = np.abs(rng.normal(size=(5, 4)))
            direction = first_principal_component(rows)
            assert rows.mean(axis=0) @ direction >= 0

    def test_gram_path_matches_oracle_when_n_below_d(self):
        rng = np.random.default_rng(17)
        rows = np.abs(rng.normal(size=(4, 9)))
        direction = first_principal_component(rows)
        lead = oracle_leading_direction(rows)
        assert abs(abs(direction @ lead) - 1.0) < 1e-8

    def test_near_degenerate_eigengap_matches_oracle(self):
        # The top two eigenvalues, 2 and 2 * 0.9994, differ by 0.06%: an
        # iterative solver that stops on a step cap lands between e1 and e2.
        b = np.sqrt(0.9994)
        rows = np.array([[1.0, 0, 0], [-1.0, 0, 0], [0, b, 0], [0, -b, 0]]) + 5.0
        direction = first_principal_component(rows)
        lead = oracle_leading_direction(rows)
        assert abs(lead[0]) == pytest.approx(1.0)
        assert 1.0 - abs(direction @ lead) < 1e-9

    def test_explained_variance_beats_random_directions(self):
        rng = np.random.default_rng(19)
        rows = np.abs(rng.normal(size=(8, 6)))
        centered = rows - rows.mean(axis=0)
        direction = first_principal_component(rows)
        var = np.sum((centered @ direction) ** 2)
        for _ in range(100):
            u = rng.normal(size=6)
            u /= np.linalg.norm(u)
            assert np.sum((centered @ u) ** 2) <= var + 1e-9


def centered_gram(n, d, seed):
    rows = np.abs(np.random.default_rng(seed).normal(size=(n, d)))
    centered = rows - rows.mean(axis=0)
    return centered @ centered.T


def train_sized_deltas():
    """Mock deltas of 300 probes at dim 1024, the shape of one train-stage PCA."""
    probes = [f"probe {i}: " + "setup and run notes " * (i % 7 + 1) for i in range(300)]
    provider = MockEmbeddingProvider(seed=3, dim=1024)
    poles = provider.embed_many([(PAIR.positive, p) for p in probes] + [(PAIR.negative, p) for p in probes])
    return compute_deltas(poles[:300], poles[300:])


def assert_matches_eigh(sym, vector, tol=1e-12):
    _, vecs = np.linalg.eigh(sym)
    assert abs(np.linalg.norm(vector) - 1.0) < 1e-12
    assert 1.0 - abs(vector @ vecs[:, -1]) < tol


class TestTopEigenvector:
    """Lanczos's top eigenvector against ``np.linalg.eigh`` as the oracle."""

    @pytest.mark.parametrize("n", [3, 12, 300])
    def test_centered_gram_matrix_with_ones_in_its_null_space(self, n):
        gram = centered_gram(n, 2 * n, seed=n)
        assert np.abs(gram @ np.ones(n)).max() < 1e-9 * np.abs(gram).max()
        assert_matches_eigh(gram, measure._top_eigenvector(gram))

    def test_rank_one_matrix_stops_once_its_krylov_space_is_invariant(self, monkeypatch):
        v = np.random.default_rng(7).normal(size=50)
        sym = 3.0 * np.outer(v, v)
        sizes = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: sizes.append(len(a)) or eigh(a))
        vector = measure._top_eigenvector(sym)
        monkeypatch.undo()
        assert sizes == [2]
        assert_matches_eigh(sym, vector)

    def test_repeated_top_eigenvalue_gives_an_exact_eigenpair(self):
        q, _ = np.linalg.qr(np.random.default_rng(5).normal(size=(40, 40)))
        values = np.concatenate([[3.0, 3.0], np.linspace(2.0, 0.0, 38)])
        sym = (q * values) @ q.T
        vector = measure._top_eigenvector(sym)
        assert abs(np.linalg.norm(vector) - 1.0) < 1e-12
        assert vector @ sym @ vector == pytest.approx(3.0, rel=1e-12)
        assert np.linalg.norm(sym @ vector - 3.0 * vector) < 1e-12

    @pytest.mark.parametrize("d", [1, 2])
    def test_scatter_branch_at_small_d(self, d):
        rows = np.abs(np.random.default_rng(d).normal(size=(6, d)))
        centered = rows - rows.mean(axis=0)
        scatter = centered.T @ centered
        assert_matches_eigh(scatter, measure._top_eigenvector(scatter))
        direction = first_principal_component(rows)
        assert 1.0 - abs(direction @ oracle_leading_direction(rows)) < 1e-12

    def test_train_sized_mock_deltas(self):
        deltas = train_sized_deltas()
        centered = deltas - deltas.mean(axis=0)
        gram = centered @ centered.T
        assert_matches_eigh(gram, measure._top_eigenvector(gram))
        direction = first_principal_component(deltas)
        assert 1.0 - abs(direction @ oracle_leading_direction(deltas)) < 1e-12

    def test_repeated_call_is_bitwise_equal(self):
        gram = centered_gram(60, 90, seed=1)
        assert np.array_equal(measure._top_eigenvector(gram), measure._top_eigenvector(gram))


class TestExtractConceptVector:
    def test_single_axis_difference_gives_basis_direction(self):
        # Poles differ only in coordinate 0 for every probe.
        probes = ProbeSet(("t1", "t2", "t3"))
        table = {}
        for i, text in enumerate(probes.probes):
            base = np.zeros(4)
            base[0] = 1.0 + i  # spread along e0 only
            table[("easy pole", text)] = base
            table[("hard pole", text)] = np.zeros(4)
        provider = FixedEmbeddingProvider(dim=4, table=table)
        concept = extract_concept_vector(probes, PAIR, provider)
        assert np.allclose(np.abs(concept.direction), [1.0, 0.0, 0.0, 0.0], atol=1e-9)
        assert concept.direction[0] > 0

    def test_deterministic_mock_gives_identical_vectors(self):
        probes = ProbeSet(("alpha", "beta", "gamma", "delta"))
        provider = MockEmbeddingProvider(seed=5, dim=12)
        first = extract_concept_vector(probes, PAIR, provider)
        second = extract_concept_vector(probes, PAIR, provider)
        assert first == second
        assert first.to_json() == second.to_json()

    def test_equals_manual_three_step_composition(self):
        probes = ProbeSet(("one", "two", "three", "four"))
        provider = MockEmbeddingProvider(seed=9, dim=8)
        concept = extract_concept_vector(probes, PAIR, provider)

        pos = [provider.embed(PAIR.positive, t) for t in probes.probes]
        neg = [provider.embed(PAIR.negative, t) for t in probes.probes]
        direction = first_principal_component(compute_deltas(pos, neg))
        assert np.array_equal(concept.direction, direction)
        assert concept.provider_id == provider.provider_id
        assert concept.prompt_digest == PAIR.digest()
        assert concept.probe_count == 4

    def test_pole_swap_gives_same_direction(self):
        probes = ProbeSet(("a", "b", "c", "d", "e"))
        provider = MockEmbeddingProvider(seed=21, dim=10)
        swapped = PromptPair(PAIR.negative, PAIR.positive, PAIR.neutral, PAIR.concept_name)
        v1 = extract_concept_vector(probes, PAIR, provider).direction
        v2 = extract_concept_vector(probes, swapped, provider).direction
        assert np.allclose(v1, v2, atol=1e-8)


class CountingProvider:
    """Wraps a provider and records the items of every call."""

    def __init__(self, inner):
        self.inner = inner
        self.provider_id = inner.provider_id
        self.calls = []

    def embed(self, system_prompt, document):
        self.calls.append([(system_prompt, document)])
        return self.inner.embed(system_prompt, document)

    def embed_many(self, items):
        self.calls.append(list(items))
        return self.inner.embed_many(items)


def remote_provider(monkeypatch, transport, **overrides):
    monkeypatch.setenv("AEKIT_TEST_TOKEN", "t")
    cfg = ProviderConfig("http://fake.test", "m", auth_token_env="AEKIT_TEST_TOKEN", **overrides)
    return RemoteEmbeddingProvider(cfg, transport)


class TestExtractionCalls:
    PROBES = ProbeSet(tuple(f"<probe {i:03d}>" for i in range(40)))

    def test_both_poles_go_in_one_call_positives_first(self):
        provider = CountingProvider(MockEmbeddingProvider(seed=4, dim=16))
        extract_concept_vector(self.PROBES, PAIR, provider)
        assert provider.calls == [
            [(PAIR.positive, p) for p in self.PROBES.probes]
            + [(PAIR.negative, p) for p in self.PROBES.probes]
        ]

    def test_direction_equals_two_separate_blocks(self):
        mock = MockEmbeddingProvider(seed=4, dim=16)
        concept = extract_concept_vector(self.PROBES, PAIR, mock)
        pos = mock.embed_many([(PAIR.positive, p) for p in self.PROBES.probes])
        neg = mock.embed_many([(PAIR.negative, p) for p in self.PROBES.probes])
        expected = first_principal_component(compute_deltas(pos, neg))
        assert concept.direction.tobytes() == expected.tobytes()

    def test_remote_provider_sends_both_poles_in_chunks(self, monkeypatch):
        transport = VectorTransport(dim=8)
        provider = remote_provider(monkeypatch, transport, batch_size=32)
        extract_concept_vector(self.PROBES, PAIR, provider)
        # ceil(80 / 32) requests; one call per pole would need 2 * ceil(40 / 32) = 4.
        assert [len(r) for r in transport.requests] == [32, 32, 16]


class TestProjectScore:
    def _concept(self, direction):
        direction = np.asarray(direction, dtype=float)
        return ConceptVector(direction, "c", "prov", "digest", 3)

    def test_self_projection_is_one(self):
        direction = np.array([0.6, 0.8])
        assert project_score(direction, self._concept(direction)) == pytest.approx(1.0)

    def test_orthogonal_projection_is_zero(self):
        concept = self._concept([1.0, 0.0])
        assert project_score(np.array([0.0, 5.0]), concept) == 0.0

    def test_axis_projection(self):
        concept = self._concept([1.0, 0.0])
        assert project_score(np.array([3.0, 4.0]), concept) == 3.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            project_score(np.zeros(3), self._concept([1.0, 0.0]))

    def test_linearity(self):
        rng = np.random.default_rng(23)
        direction = rng.normal(size=5)
        concept = self._concept(direction / np.linalg.norm(direction))
        u, w = rng.normal(size=5), rng.normal(size=5)
        a, b = 2.5, -1.25
        combined = project_score(a * u + b * w, concept)
        split = a * project_score(u, concept) + b * project_score(w, concept)
        assert abs(combined - split) < 1e-9

    def test_scale_invariance_after_renormalization(self):
        rng = np.random.default_rng(29)
        direction = rng.normal(size=6)
        direction /= np.linalg.norm(direction)
        doc = rng.normal(size=6)
        base = project_score(doc, self._concept(direction))
        for c in (1e-6, 0.5, 3.0, 1e6):
            rescaled = c * direction
            rescaled /= np.linalg.norm(rescaled)
            assert abs(project_score(doc, self._concept(rescaled)) - base) < 1e-12


class TestScoreDocuments:
    def test_each_score_is_the_single_document_projection_in_any_batch(self):
        # At dim 1024 one matrix-vector product over the block rounds
        # differently from the per-document dot product for most rows, so
        # this pins the scores to project_score bit for bit.
        rng = np.random.default_rng(41)
        direction = rng.normal(size=1024)
        concept = ConceptVector(direction / np.linalg.norm(direction), "c", "prov", "digest", 3)
        provider = MockEmbeddingProvider(seed=3, dim=1024)
        docs = [f"document {i}" for i in range(300)]
        batch = score_documents(provider, "neutral", docs, concept)
        assert batch.shape == (300,)
        assert score_documents(provider, "neutral", [], concept).shape == (0,)
        for doc, score in zip(docs, batch):
            assert score == project_score(provider.embed("neutral", doc), concept)
            assert score == score_documents(provider, "neutral", [doc], concept)[0]

    def test_dimension_mismatch(self):
        concept = ConceptVector(np.array([1.0, 0.0]), "c", "prov", "digest", 3)
        with pytest.raises(DimensionMismatch):
            score_documents(MockEmbeddingProvider(seed=1, dim=3), "p", ["doc"], concept)

    def test_chunks_fill_whole_remote_requests(self):
        assert measure.SCORE_CHUNK % DEFAULT_BATCH_SIZE == 0

    def test_embeds_at_most_score_chunk_items_per_call_with_the_same_bits(self, monkeypatch):
        rng = np.random.default_rng(43)
        direction = rng.normal(size=64)
        concept = ConceptVector(direction / np.linalg.norm(direction), "c", "prov", "digest", 3)
        docs = [f"document {i}" for i in range(20)]
        whole = CountingMockProvider(seed=3, dim=64)
        expected = score_documents(whole, "neutral", docs, concept)
        monkeypatch.setattr(measure, "SCORE_CHUNK", 7)
        chunked = CountingMockProvider(seed=3, dim=64)
        got = score_documents(chunked, "neutral", docs, concept)
        assert whole.calls == [20]
        assert chunked.calls == [7, 7, 6]
        assert got.tobytes() == expected.tobytes()


def row_walking_block(rows):
    """``_as_block``'s rule written out row by row, as the oracle for its 2-D shortcut."""
    shapes = sorted({np.shape(row) for row in rows})
    if len(shapes) != 1:
        raise DimensionMismatch(f"need embeddings of one shape, got {shapes}")
    block = np.asarray(rows, dtype=np.float64)
    if block.ndim != 2 or block.shape[1] == 0:
        raise ValueError(f"embedding must be a nonempty 1-D vector, got shape {shapes[0]}")
    if not np.isfinite(block).all():
        raise ValueError("embedding contains non-finite entries")
    return block


class TestAsBlock:
    def test_a_float64_block_is_returned_as_itself(self):
        block = np.arange(12.0).reshape(3, 4)
        assert _as_block(block) is block

    @pytest.mark.parametrize(
        "rows",
        [
            np.arange(12, dtype=np.float32).reshape(3, 4),
            np.arange(12).reshape(4, 3),
            [np.ones(3), np.zeros(3)],
            [np.ones(3), np.zeros(4)],
            [[1.0, 2.0], [3.0]],
            np.array([[1.0, np.nan], [0.0, 1.0]]),
            np.array([[1.0, 2.0], [np.inf, 1.0]]),
            [np.ones(2), np.array([1.0, -np.inf])],
            np.empty((0, 4)),
            [],
            np.empty((3, 0)),
            np.ones((2, 3, 4)),
            np.ones(4),
        ],
        ids=["float32", "int", "list", "ragged", "ragged-lists", "nan", "inf", "list-inf",
             "zero-rows", "empty-list", "zero-columns", "3-d", "1-d"],
    )
    def test_same_block_or_error_as_walking_the_rows(self, rows):
        try:
            expected = row_walking_block(rows)
        except ValueError as exc:
            with pytest.raises(type(exc)) as raised:
                _as_block(rows)
            assert str(raised.value) == str(exc)
        else:
            got = _as_block(rows)
            assert got.dtype == np.float64 and got.tobytes() == expected.tobytes()
            assert got.shape == expected.shape


class TestTypes:
    def test_prompt_pair_rejects_equal_poles(self):
        with pytest.raises(ValueError):
            PromptPair("same", "same", "n", "c")

    def test_prompt_pair_rejects_empty_fields(self):
        with pytest.raises(ValueError):
            PromptPair("", "neg", "n", "c")

    def test_probe_set_minimum_size(self):
        with pytest.raises(ValueError):
            ProbeSet(("a", "b"))

    def test_concept_vector_requires_unit_norm(self):
        with pytest.raises(ValueError):
            ConceptVector(np.array([1.0, 1.0]), "c", "p", "d", 3)

    def test_serialization_round_trip_is_byte_identical(self):
        provider = MockEmbeddingProvider(seed=31, dim=7)
        probes = ProbeSet(("x", "y", "z"))
        concept = extract_concept_vector(probes, PAIR, provider)
        text = concept.to_json()
        assert ConceptVector.from_json(text).to_json() == text


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_property_pca_beats_random_directions(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 12))
    d = int(rng.integers(1, 10))
    rows = np.abs(rng.normal(size=(n, d)))
    try:
        direction = first_principal_component(rows)
    except AllZeroDeltas:
        return
    centered = rows - rows.mean(axis=0)
    var = np.sum((centered @ direction) ** 2)
    u = rng.normal(size=d)
    norm = np.linalg.norm(u)
    if norm == 0:
        return
    u /= norm
    assert np.sum((centered @ u) ** 2) <= var + 1e-9
