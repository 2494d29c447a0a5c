import math

import numpy as np
import pytest

from aekit import measure
from aekit.gateway import MockEmbeddingProvider, ProviderConfig, RemoteEmbeddingProvider
from aekit.measure import ConceptVector
from aekit.rate import (
    ConceptRef,
    Cutoff,
    DegenerateLabels,
    LABEL_NOT_RUNS,
    LABEL_RUNS,
    RateInput,
    RateVerdict,
    calibrate_cutoff,
    compose_rate_document,
    load_default_rate_prompts,
    rate_document,
    rate_documents,
)

from conftest import FixedEmbeddingProvider, VectorTransport


def oracle_best_cutoff(scores, labels):
    """Independent brute force: evaluate every candidate from scratch."""
    candidates = sorted(set(scores)) + [min(scores) - 1.0]
    evaluated = []
    for t in candidates:
        tp = fp = fn = 0
        for s, lab in zip(scores, labels):
            predicted_runs = s >= t
            if predicted_runs and lab == LABEL_RUNS:
                tp += 1
            elif predicted_runs:
                fp += 1
            elif lab == LABEL_RUNS:
                fn += 1
        recall = tp / (tp + fn)
        precision = tp / (tp + fp) if tp + fp else 0.0
        evaluated.append((recall, precision, t))
    return max(evaluated)


class TestComposeDocument:
    def test_ordering(self):
        doc = compose_rate_document(RateInput("P1", "abc", "xyz"))
        assert doc.index("abc") < doc.index("=== README ===") < doc.index("xyz")

    def test_deterministic(self):
        inp = RateInput("P1", "paper body", "readme body")
        assert compose_rate_document(inp) == compose_rate_document(inp)

    def test_length_is_sum_plus_fixed_overhead(self):
        a = compose_rate_document(RateInput("a", "xx", "yy"))
        b = compose_rate_document(RateInput("b", "xxxx", "yyy"))
        overhead_a = len(a) - (2 + 2)
        overhead_b = len(b) - (4 + 3)
        assert overhead_a == overhead_b

    def test_empty_readme_rejected_upstream(self):
        with pytest.raises(ValueError):
            RateInput("P1", "paper", "")


class TestCalibrateCutoff:
    def test_clean_separation_threshold_is_lowest_runs_score(self):
        cutoff = calibrate_cutoff(
            [0.9, 0.8, 0.2, 0.1], [LABEL_RUNS, LABEL_RUNS, LABEL_NOT_RUNS, LABEL_NOT_RUNS]
        )
        assert cutoff.threshold == 0.8
        assert cutoff.train_recall == 1.0
        assert cutoff.train_precision == 1.0
        assert cutoff.n_train == 4

    def test_tie_case_threshold_is_lowest_runs_score(self):
        cutoff = calibrate_cutoff([0.5, 0.5, 0.4], [LABEL_RUNS, LABEL_NOT_RUNS, LABEL_RUNS])
        assert cutoff.threshold == 0.4
        assert cutoff.train_recall == 1.0
        assert cutoff.train_precision == pytest.approx(2 / 3)

    @pytest.mark.parametrize("label", [LABEL_RUNS, LABEL_NOT_RUNS])
    def test_single_class_rejected(self, label):
        with pytest.raises(DegenerateLabels):
            calibrate_cutoff([0.1, 0.2], [label, label])

    def test_matches_enumeration_oracle_on_random_sets(self):
        rng = np.random.default_rng(101)
        draws = (
            lambda n: rng.integers(0, 8, size=n) / 4.0,  # duplicates on purpose to provoke ties
            lambda n: rng.normal(size=n),  # continuous: no ties
        )
        for draw in draws:
            for _ in range(100):
                n = int(rng.integers(2, 40))
                scores = [float(x) for x in draw(n)]
                labels = [LABEL_RUNS if rng.uniform() < 0.5 else LABEL_NOT_RUNS for _ in range(n)]
                if len(set(labels)) < 2:
                    continue
                cutoff = calibrate_cutoff(scores, labels)
                recall, precision, threshold = oracle_best_cutoff(scores, labels)
                assert cutoff.threshold == threshold
                assert cutoff.train_recall == recall
                assert cutoff.train_precision == precision

    def test_training_set_recall_is_reproduced_exactly(self):
        rng = np.random.default_rng(55)
        scores = [float(s) for s in rng.normal(size=30)]
        labels = [LABEL_RUNS if rng.uniform() < 0.4 else LABEL_NOT_RUNS for _ in scores]
        if len(set(labels)) < 2:
            pytest.skip("degenerate draw")
        cutoff = calibrate_cutoff(scores, labels)
        tp = sum(1 for s, l in zip(scores, labels) if s >= cutoff.threshold and l == LABEL_RUNS)
        fn = sum(1 for s, l in zip(scores, labels) if s < cutoff.threshold and l == LABEL_RUNS)
        assert tp / (tp + fn) == cutoff.train_recall


def _axis_concept(dim=4):
    direction = np.zeros(dim)
    direction[0] = 1.0
    return ConceptVector(direction, "reproducibility", "fixed-test", "digest", 3)


def _provider_for(doc_vectors, dim=4):
    neutral = load_default_rate_prompts().neutral
    table = {}
    for paper_id, (paper, readme, vec) in doc_vectors.items():
        doc = compose_rate_document(RateInput(paper_id, paper, readme))
        table[(neutral, doc)] = vec
    return FixedEmbeddingProvider(dim=dim, table=table)


class TestRateDocument:
    CUTOFF = Cutoff(threshold=1.0, train_recall=1.0, train_precision=0.5, n_train=4)

    def test_score_above_threshold_is_runs(self):
        docs = {"A": ("paper a", "readme a", np.array([2.0, 0, 0, 0]))}
        provider = _provider_for(docs)
        verdict = rate_document(
            RateInput("A", "paper a", "readme a"), _axis_concept(), self.CUTOFF, provider
        )
        assert verdict.score == 2.0
        assert verdict.label == LABEL_RUNS

    def test_score_below_threshold_is_not_runs(self):
        docs = {"B": ("paper b", "readme b", np.array([-0.5, 0, 0, 0]))}
        provider = _provider_for(docs)
        verdict = rate_document(
            RateInput("B", "paper b", "readme b"), _axis_concept(), self.CUTOFF, provider
        )
        assert verdict.score == -0.5
        assert verdict.label == LABEL_NOT_RUNS

    def test_boundary_score_counts_as_runs(self):
        docs = {"C": ("paper c", "readme c", np.array([1.0, 0, 0, 0]))}
        provider = _provider_for(docs)
        verdict = rate_document(
            RateInput("C", "paper c", "readme c"), _axis_concept(), self.CUTOFF, provider
        )
        assert verdict.score == self.CUTOFF.threshold
        assert verdict.label == LABEL_RUNS

    def test_verdict_monotonicity(self):
        rng = np.random.default_rng(77)
        concept = _axis_concept()
        scored = []
        for i in range(20):
            vec = np.zeros(4)
            vec[0] = rng.normal()
            docs = {f"p{i}": (f"paper {i}", f"readme {i}", vec)}
            provider = _provider_for(docs)
            verdict = rate_document(
                RateInput(f"p{i}", f"paper {i}", f"readme {i}"), concept, self.CUTOFF, provider
            )
            scored.append(verdict)
        runs_scores = [v.score for v in scored if v.label == LABEL_RUNS]
        not_runs_scores = [v.score for v in scored if v.label == LABEL_NOT_RUNS]
        if runs_scores and not_runs_scores:
            assert min(runs_scores) > max(not_runs_scores)

    def test_concept_reference_recorded(self):
        docs = {"A": ("p", "r", np.array([2.0, 0, 0, 0]))}
        provider = _provider_for(docs)
        verdict = rate_document(RateInput("A", "p", "r"), _axis_concept(), self.CUTOFF, provider)
        assert verdict.concept_ref == ConceptRef(prompt_digest="digest", provider_id="fixed-test")

    def test_verdict_serialization_round_trip(self):
        verdict = RateVerdict(
            paper_id="A",
            score=1.25,
            label=LABEL_RUNS,
            cutoff_used=self.CUTOFF,
            concept_ref=ConceptRef(prompt_digest="digest", provider_id="prov"),
        )
        text = verdict.to_json()
        assert RateVerdict.from_dict(__import__("json").loads(text)).to_json() == text


def _random_concept(dim, seed):
    direction = np.random.default_rng(seed).normal(size=dim)
    return ConceptVector(direction / np.linalg.norm(direction), "reproducibility", "prov", "digest", 3)


RATE_INPUTS = [RateInput(f"p{i:03d}", f"paper {i} " * (i % 5 + 1), f"readme {i}") for i in range(72)]


class TestRateDocuments:
    CUTOFF = Cutoff(threshold=0.0, train_recall=1.0, train_precision=0.5, n_train=4)

    def test_equals_rating_each_paper_alone_across_chunk_boundaries(self, monkeypatch):
        monkeypatch.setattr(measure, "SCORE_CHUNK", 7)
        provider = MockEmbeddingProvider(seed=4, dim=64)
        concept = _random_concept(64, 8)
        verdicts = rate_documents(RATE_INPUTS, concept, self.CUTOFF, provider)
        alone = [rate_document(i, concept, self.CUTOFF, provider) for i in RATE_INPUTS]
        assert [v.to_json() for v in verdicts] == [v.to_json() for v in alone]
        assert {v.label for v in verdicts} == {LABEL_RUNS, LABEL_NOT_RUNS}

    def test_no_inputs_give_no_verdicts(self):
        provider = MockEmbeddingProvider(seed=4, dim=8)
        assert rate_documents([], _random_concept(8, 1), self.CUTOFF, provider) == []

    def test_remote_provider_sends_full_batches(self, monkeypatch):
        monkeypatch.setenv("AEKIT_TEST_TOKEN", "t")
        cfg = ProviderConfig("http://fake.test", "m", auth_token_env="AEKIT_TEST_TOKEN", batch_size=32)
        concept = _random_concept(16, 2)
        batched, alone = VectorTransport(dim=16), VectorTransport(dim=16)
        verdicts = rate_documents(RATE_INPUTS, concept, self.CUTOFF, RemoteEmbeddingProvider(cfg, batched))
        one_by_one = [
            rate_document(i, concept, self.CUTOFF, RemoteEmbeddingProvider(cfg, alone)) for i in RATE_INPUTS
        ]
        assert len(batched.requests) == math.ceil(len(RATE_INPUTS) / 32) == 3
        assert len(alone.requests) == len(RATE_INPUTS)
        assert [v.to_json() for v in verdicts] == [v.to_json() for v in one_by_one]


class TestCutoffSerialization:
    def test_round_trip(self):
        cutoff = Cutoff(threshold=0.125, train_recall=0.75, train_precision=0.5, n_train=12)
        assert Cutoff.from_json(cutoff.to_json()).to_json() == cutoff.to_json()

    def test_rejects_out_of_range_metrics(self):
        with pytest.raises(ValueError):
            Cutoff(threshold=0.0, train_recall=1.5, train_precision=0.5, n_train=5)
