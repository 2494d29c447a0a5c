import json
import math
from importlib import resources

import numpy as np
import pytest

from aekit import measure
from aekit.assess import (
    DEFAULT_L2,
    MIN_PER_CLASS,
    AlignmentMismatch,
    AssessorModel,
    ClassImbalance,
    LABEL_ABSENT,
    LABEL_PRESENT,
    LABEL_SKIPPED,
    MODE_FULL_VECTOR,
    PitfallBank,
    PitfallBankEntry,
    PitfallClassifier,
    PitfallBankError,
    PitfallFeatureVector,
    PitfallReport,
    PitfallSpec,
    STATUS_SKIPPED,
    STATUS_TRAINED,
    assess_document,
    assess_documents,
    build_pitfall_bank,
    featurize,
    fit_logistic,
    load_pitfall_specs,
    logistic_gradient,
    logistic_loss,
    sigmoid,
    _binary_label,
    _fit_logistic_nd,
    train_assessor,
)
from aekit.gateway import MockEmbeddingProvider, ProviderConfig, RemoteEmbeddingProvider
from aekit.jsonio import ConfigError
from aekit.measure import ConceptVector, ProbeSet, PromptPair, project_score

from conftest import CountingMockProvider, FixedEmbeddingProvider, VectorTransport, document_encodings

PROBES = ProbeSet(("probe one", "probe two", "probe three", "probe four"))


def make_specs(n=2):
    return [
        PitfallSpec(
            pitfall_id=f"P{i+1}",
            name=f"pitfall-{i+1}",
            prompts=PromptPair(
                positive=f"flaw {i+1} is present in this paper",
                negative=f"flaw {i+1} is absent from this paper",
                neutral=f"read the paper with flaw {i+1} in mind",
                concept_name=f"pitfall-{i+1}",
            ),
        )
        for i in range(n)
    ]


def axis_bank(m, dim):
    """Bank whose i-th concept is the i-th basis direction."""
    entries = []
    for i in range(m):
        direction = np.zeros(dim)
        direction[i] = 1.0
        entries.append(
            PitfallBankEntry(
                pitfall_id=f"P{i+1}",
                name=f"axis-{i+1}",
                neutral_prompt=f"neutral {i+1}",
                concept=ConceptVector(direction, f"axis-{i+1}", "fixed-test", f"d{i}", 3),
            )
        )
    return PitfallBank(entries=tuple(entries))


class TestBuildBank:
    def test_two_specs_give_two_distinct_concepts(self):
        provider = MockEmbeddingProvider(seed=1, dim=16)
        bank = build_pitfall_bank(make_specs(2), PROBES, provider)
        assert len(bank) == 2
        digests = {e.concept.prompt_digest for e in bank.entries}
        assert len(digests) == 2
        assert bank.pitfall_ids == ["P1", "P2"]

    def test_empty_spec_list_rejected(self):
        with pytest.raises(ValueError):
            build_pitfall_bank([], PROBES, MockEmbeddingProvider())

    def test_deterministic_repeat(self):
        provider = MockEmbeddingProvider(seed=3, dim=16)
        first = build_pitfall_bank(make_specs(3), PROBES, provider)
        second = build_pitfall_bank(make_specs(3), PROBES, provider)
        assert first.to_json() == second.to_json()

    def test_partial_failures_collected(self):
        class FlakyProvider:
            provider_id = "flaky"

            def embed(self, system_prompt, document):
                if "flaw 2" in system_prompt:
                    raise RuntimeError("backend down")
                return MockEmbeddingProvider(seed=0, dim=8).embed(system_prompt, document)

        with pytest.raises(PitfallBankError) as exc_info:
            build_pitfall_bank(make_specs(3), PROBES, FlakyProvider())
        assert set(exc_info.value.failed) == {"P2"}

    @pytest.mark.parametrize("index", [0, 3])
    def test_mock_encodes_each_probe_once_for_the_whole_bank(self, monkeypatch, index):
        provider = MockEmbeddingProvider(seed=1, dim=16)
        probe = PROBES.probes[index]
        call = lambda: build_pitfall_bank(make_specs(10), PROBES, provider)  # noqa: E731
        assert document_encodings(monkeypatch, probe, call) == 1

    def test_bank_serialization_round_trip(self):
        provider = MockEmbeddingProvider(seed=5, dim=8)
        bank = build_pitfall_bank(make_specs(2), PROBES, provider)
        assert PitfallBank.from_json(bank.to_json()).to_json() == bank.to_json()

    def test_shipped_pitfall_specs_load(self):
        specs = load_pitfall_specs()
        assert len(specs) == 10
        assert len({s.pitfall_id for s in specs}) == 10

    @pytest.mark.parametrize("version", [1, None, 2, 0, "1"], ids=["1", "absent", "2", "0", "string"])
    def test_a_pitfalls_file_is_version_1_or_has_no_version(self, tmp_path, version):
        doc = json.loads(resources.files("aekit.assets").joinpath("pitfalls.json").read_text("utf-8"))
        doc = {**doc, "version": version} if version is not None else {"pitfalls": doc["pitfalls"]}
        path = tmp_path / "pitfalls.json"
        path.write_text(json.dumps(doc))
        if version in (1, None):
            assert load_pitfall_specs(str(path)) == load_pitfall_specs()
        else:
            with pytest.raises(ConfigError, match=f"^pitfalls {path}: unsupported pitfalls version: {version}$"):
                load_pitfall_specs(str(path))


class TestFeaturize:
    def test_vector_length_matches_bank(self):
        bank = axis_bank(3, 6)
        provider = FixedEmbeddingProvider(dim=6, default=np.arange(6.0))
        fv = featurize("some paper", bank, provider, paper_id="X")
        assert fv.m == 3
        assert fv.paper_id == "X"

    def test_orthogonal_embedding_gives_zero_scores(self):
        bank = axis_bank(2, 4)
        orthogonal = np.array([0.0, 0.0, 1.0, 1.0])  # no mass on axes 0,1
        provider = FixedEmbeddingProvider(dim=4, default=orthogonal)
        fv = featurize("paper", bank, provider)
        assert fv.scores == (0.0, 0.0)

    def test_matches_manual_recomposition(self):
        provider = MockEmbeddingProvider(seed=9, dim=12)
        bank = build_pitfall_bank(make_specs(3), PROBES, provider)
        fv = featurize("target paper", bank, provider, paper_id="Y")
        for entry, got in zip(bank.entries, fv.scores):
            expected = project_score(
                provider.embed(entry.neutral_prompt, "target paper"), entry.concept
            )
            assert abs(got - expected) < 1e-12

    def test_remote_provider_gets_one_request_per_paper(self, monkeypatch):
        monkeypatch.setenv("AEKIT_TEST_TOKEN", "t")
        bank = build_pitfall_bank(make_specs(10), PROBES, MockEmbeddingProvider(seed=2, dim=32))
        transport = VectorTransport(dim=32)
        cfg = ProviderConfig("http://fake.test", "m", auth_token_env="AEKIT_TEST_TOKEN")
        fv = featurize("a paper", bank, RemoteEmbeddingProvider(cfg, transport))
        assert len(transport.requests) == 1
        assert len(transport.requests[0]) == 10
        for entry, got in zip(bank.entries, fv.scores):
            vector = transport.vector(f"{entry.neutral_prompt}\n\na paper")
            assert got == project_score(vector, entry.concept)

    def test_remote_provider_without_a_cache_never_encodes_the_paper(self, monkeypatch):
        # Only disk-cache keys JSON-encode the paper.
        monkeypatch.setenv("AEKIT_TEST_TOKEN", "t")
        bank = build_pitfall_bank(make_specs(10), PROBES, MockEmbeddingProvider(seed=2, dim=32))
        paper = "a paper, " * 1000
        transport = VectorTransport(dim=32)
        transport.vector = lambda text: np.ones(32)  # mock_embed would count too
        cfg = ProviderConfig("http://fake.test", "m", auth_token_env="AEKIT_TEST_TOKEN")
        provider = RemoteEmbeddingProvider(cfg, transport)
        assert document_encodings(monkeypatch, paper, lambda: featurize(paper, bank, provider)) == 0
        assert len(transport.requests) == 1

    def test_embed_only_provider_gives_the_same_scores(self):
        mock = MockEmbeddingProvider(seed=9, dim=12)

        class EmbedOnly:
            provider_id = mock.provider_id

            def embed(self, system_prompt, document):
                return mock.embed(system_prompt, document)

        bank = build_pitfall_bank(make_specs(3), PROBES, mock)
        assert featurize("target", bank, EmbedOnly()) == featurize("target", bank, mock)
        assert build_pitfall_bank(make_specs(3), PROBES, EmbedOnly()) == bank

    def test_entry_dimension_checked(self):
        bank = axis_bank(2, 4)
        with pytest.raises(ValueError):
            featurize("paper", bank, FixedEmbeddingProvider(dim=5, default=np.ones(5)))


class TestFitLogistic:
    def test_symmetric_fixture_zero_bias_positive_weight(self):
        xs = [1.0] * 5 + [-1.0] * 5
        ys = [1] * 5 + [0] * 5
        weight, bias = fit_logistic(xs, ys)
        assert abs(bias) < 1e-3
        assert weight > 0

    def test_gradient_matches_central_finite_differences(self):
        rng = np.random.default_rng(42)
        h = 1e-5
        for _ in range(20):
            xs = rng.normal(size=(10, 1))
            ys = (rng.uniform(size=10) < 0.5).astype(float)
            w = rng.normal(size=1)
            b = float(rng.normal())
            l2 = float(rng.uniform(0, 1))
            grad_w, grad_b = logistic_gradient(w, b, xs, ys, l2)
            fd_w = (
                logistic_loss(w + h, b, xs, ys, l2) - logistic_loss(w - h, b, xs, ys, l2)
            ) / (2 * h)
            fd_b = (
                logistic_loss(w, b + h, xs, ys, l2) - logistic_loss(w, b - h, xs, ys, l2)
            ) / (2 * h)
            assert abs(grad_w[0] - fd_w) < 1e-5
            assert abs(grad_b - fd_b) < 1e-5

    def test_huge_l2_crushes_the_slope(self):
        xs = [1.0] * 5 + [-1.0] * 5
        ys = [1] * 5 + [0] * 5
        weight, _ = fit_logistic(xs, ys, l2=1e6)
        assert abs(weight) < 1e-3

    def test_fit_is_a_stationary_point_of_the_regularized_loss(self):
        # The regularized loss is convex, so a vanishing gradient makes the
        # fitted (w, b) its global minimizer.
        rng = np.random.default_rng(31)
        for _ in range(50):
            k = int(rng.integers(1, 4))
            n = int(rng.integers(10, 41))
            ys = np.concatenate([np.ones(5), np.zeros(5), rng.integers(0, 2, size=n - 10)])
            xs = rng.normal(size=(n, k))
            l2 = float(rng.uniform(1e-3, 2.0))
            features = [PitfallFeatureVector(f"p{i}", tuple(xs[i])) for i in range(n)]
            annotations = {f"p{i}": {"P0": "present" if ys[i] else "absent"} for i in range(n)}
            ids = [f"P{j}" for j in range(k)]
            model = train_assessor(features, annotations, ids, mode=MODE_FULL_VECTOR, l2=l2)
            clf = model.classifiers[0]
            grad_w, grad_b = logistic_gradient(np.asarray(clf.weights), clf.bias, xs, ys, l2)
            assert max(np.max(np.abs(grad_w)), abs(grad_b)) < 1e-8

    def test_unregularized_fit_on_separable_data_is_finite(self):
        # With l2 = 0 the loss has no minimizer on separable data and its
        # curvature vanishes as the weights grow; the fit must still stop.
        weight, bias = fit_logistic([1.0 + i for i in range(5)] + [-1.0 - i for i in range(5)],
                                    [1] * 5 + [0] * 5, l2=0.0)
        assert np.isfinite(weight) and np.isfinite(bias)
        assert weight > 0
        # A feature that is zero throughout leaves the Hessian singular too.
        features, annotations = separable_features(m=2)
        clf = train_assessor(features, annotations, ["P1", "P2"], mode=MODE_FULL_VECTOR, l2=0.0).classifiers[0]
        assert np.all(np.isfinite(clf.weights)) and np.isfinite(clf.bias)
        assert clf.weights[0] > 0

    def test_class_guard(self):
        with pytest.raises(ClassImbalance):
            fit_logistic([1.0] * 9 + [-1.0], [1] * 9 + [0])

    def test_sigmoid_extremes_are_stable(self):
        assert sigmoid(1000.0) == pytest.approx(1.0)
        assert sigmoid(-1000.0) == pytest.approx(0.0)
        assert sigmoid(0.0) == pytest.approx(0.5)


def separable_features(n_per_class=5, m=2, pitfall="P1", gap=2.0, start=0):
    """Feature vectors where the pitfall-present papers score high on axis 0."""
    features, annotations = [], {}
    for i in range(n_per_class):
        pid = f"pos{start + i}"
        features.append(PitfallFeatureVector(pid, (gap + 0.1 * i,) + (0.0,) * (m - 1)))
        annotations[pid] = {pitfall: "present"}
    for i in range(n_per_class):
        pid = f"neg{start + i}"
        features.append(PitfallFeatureVector(pid, (-gap - 0.1 * i,) + (0.0,) * (m - 1)))
        annotations[pid] = {pitfall: "absent"}
    return features, annotations


class TestTrainAssessor:
    def test_under_annotated_pitfall_is_skipped(self):
        features, annotations = [], {}
        for i in range(10):
            pid = f"p{i}"
            features.append(PitfallFeatureVector(pid, (float(i),)))
            annotations[pid] = {"P1": "present" if i < 9 else "absent"}
        model = train_assessor(features, annotations, ["P1"])
        assert model.classifiers[0].status == STATUS_SKIPPED

    def test_separable_pitfall_trains_to_perfect_training_accuracy(self):
        features, annotations = separable_features(m=1)
        model = train_assessor(features, annotations, ["P1"])
        clf = model.classifiers[0]
        assert clf.status == STATUS_TRAINED
        assert clf.trained_on == 10
        correct = 0
        for fv in features:
            prob = sigmoid(clf.weights[0] * fv.scores[0] + clf.bias)
            predicted = prob >= 0.5
            actual = annotations[fv.paper_id]["P1"] == "present"
            correct += predicted == actual
        assert correct == len(features)

    def test_partial_counts_as_present_and_unclear_is_excluded(self):
        features, annotations = [], {}
        for i in range(6):
            pid = f"pp{i}"
            features.append(PitfallFeatureVector(pid, (1.0 + i,)))
            annotations[pid] = {"P1": "present" if i < 3 else "partial"}
        for i in range(5):
            pid = f"aa{i}"
            features.append(PitfallFeatureVector(pid, (-1.0 - i,)))
            annotations[pid] = {"P1": "absent"}
        pid = "uu"
        features.append(PitfallFeatureVector(pid, (0.0,)))
        annotations[pid] = {"P1": "unclear"}
        model = train_assessor(features, annotations, ["P1"])
        clf = model.classifiers[0]
        assert clf.status == STATUS_TRAINED
        assert clf.trained_on == 11  # 6 present/partial + 5 absent, unclear dropped

    def test_empty_annotations_rejected(self):
        features, _ = separable_features()
        with pytest.raises(AlignmentMismatch):
            train_assessor(features, {}, ["P1"])

    def test_guard_soundness_no_trained_entry_below_minimum(self):
        rng = np.random.default_rng(8)
        features, annotations = [], {}
        for i in range(12):
            pid = f"p{i}"
            features.append(PitfallFeatureVector(pid, (float(rng.normal()), float(rng.normal()))))
            annotations[pid] = {
                "P1": "present" if i < 6 else "absent",   # 6/6 -> trained
                "P2": "present" if i < 4 else "absent",   # 4/8 -> skipped
            }
        model = train_assessor(features, annotations, ["P1", "P2"])
        by_id = {c.pitfall_id: c for c in model.classifiers}
        assert by_id["P1"].status == STATUS_TRAINED
        assert by_id["P2"].status == STATUS_SKIPPED
        for clf in model.classifiers:
            if clf.status == STATUS_TRAINED:
                assert clf.trained_on >= 10

    def test_full_vector_mode_trains_vector_weights(self):
        features, annotations = separable_features(m=3)
        model = train_assessor(features, annotations, ["P1", "P2", "P3"], mode=MODE_FULL_VECTOR)
        clf = model.classifiers[0]
        assert clf.status == STATUS_TRAINED
        assert len(clf.weights) == 3

    def test_model_serialization_round_trip(self):
        features, annotations = separable_features(m=1)
        model = train_assessor(features, annotations, ["P1"])
        assert AssessorModel.from_json(model.to_json()).to_json() == model.to_json()


def per_pitfall_loop(features, annotations, pitfall_ids, mode, l2=DEFAULT_L2):
    """Reference: list building and the five-per-class count, pitfall by pitfall."""
    classifiers = []
    for i, pid in enumerate(pitfall_ids):
        xs, ys = [], []
        for fv in features:
            value = annotations[fv.paper_id].get(pid)
            if value is None:
                continue
            label = _binary_label(value)
            if label is None:
                continue
            xs.append(fv.scores if mode == MODE_FULL_VECTOR else fv.scores[i])
            ys.append(label)
        n_pos = sum(ys)
        if n_pos < MIN_PER_CLASS or len(ys) - n_pos < MIN_PER_CLASS:
            classifiers.append(PitfallClassifier(pid, STATUS_SKIPPED))
            continue
        x = np.asarray(xs, dtype=np.float64)
        if x.ndim == 1:
            x = x.reshape(-1, 1)
        w, b = _fit_logistic_nd(x, np.asarray(ys, dtype=np.float64), l2)
        classifiers.append(
            PitfallClassifier(pid, STATUS_TRAINED, tuple(float(v) for v in w), b, len(ys))
        )
    return AssessorModel(mode, tuple(classifiers))


def mixed_annotations(n=40, seed=5):
    """Features for P1..P4 whose annotations mix every value and missing entries.

    P1 draws from present, partial, absent, unclear and missing; P2 has
    exactly 5 positive (present or partial) and 5 absent papers, P3 4 and
    6, P4 none.  Every other P2/P3 paper is unclear or unannotated.
    """
    rng = np.random.default_rng(seed)
    features, annotations = [], {}
    for r in range(n):
        pid = f"p{r:02d}"
        scores = rng.normal(size=4)
        features.append(PitfallFeatureVector(pid, tuple(scores.tolist())))
        record = {}
        value = rng.choice(["present", "partial", "absent", "absent", "unclear", ""])
        if value:
            record["P1"] = str(value)
        for pitfall, n_pos, n_neg in (("P2", 5, 5), ("P3", 4, 6)):
            if r < n_pos:
                record[pitfall] = "partial" if r % 2 else "present"
            elif r < n_pos + n_neg:
                record[pitfall] = "absent"
            elif r % 2:
                record[pitfall] = "unclear"
        annotations[pid] = record
    return features, annotations


class TestTrainAssessorReference:
    @pytest.mark.parametrize("mode", ["univariate", MODE_FULL_VECTOR])
    def test_equals_the_per_pitfall_loop_bitwise(self, mode):
        features, annotations = mixed_annotations()
        ids = ["P1", "P2", "P3", "P4"]
        model = train_assessor(features, annotations, ids, mode=mode)
        expected = per_pitfall_loop(features, annotations, ids, mode)
        assert model.to_json() == expected.to_json()
        for got, want in zip(model.classifiers, expected.classifiers):
            assert np.array(got.weights).tobytes() == np.array(want.weights).tobytes()
            assert np.float64(got.bias).tobytes() == np.float64(want.bias).tobytes()
        assert [c.status for c in model.classifiers] == [
            STATUS_TRAINED, STATUS_TRAINED, STATUS_SKIPPED, STATUS_SKIPPED
        ]
        labelled = sum(1 for a in annotations.values() if a.get("P1", "unclear") != "unclear")
        assert [c.trained_on for c in model.classifiers] == [labelled, 10, 0, 0]
        width = 4 if mode == MODE_FULL_VECTOR else 1
        assert [len(c.weights) for c in model.classifiers] == [width, width, 0, 0]

    def test_negative_l2_raises_even_when_every_pitfall_is_skipped(self):
        features, annotations = mixed_annotations()
        ids = ["P1", "P2", "P3", "P4"]
        thin = {pid: {"P3": a["P3"]} if "P3" in a else {} for pid, a in annotations.items()}
        skipped = per_pitfall_loop(features, thin, ids, "univariate", l2=-1.0)
        assert {c.status for c in skipped.classifiers} == {STATUS_SKIPPED}
        for given in (thin, annotations):
            with pytest.raises(ValueError, match="l2 must be nonnegative"):
                train_assessor(features, given, ids, l2=-1.0)


class TestAssessorModelWeights:
    @pytest.mark.parametrize(
        "mode, weights, width",
        [("univariate", (), 1), ("univariate", (0.5, -0.25), 1),
         (MODE_FULL_VECTOR, (0.5,), 2), (MODE_FULL_VECTOR, (0.5, 0.5, 0.5), 2)],
        ids=["univariate-none", "univariate-two", "full-one", "full-three"],
    )
    def test_a_trained_classifier_needs_one_weight_per_input(self, mode, weights, width):
        classifiers = (
            PitfallClassifier("P1", STATUS_SKIPPED),
            PitfallClassifier("P2", STATUS_TRAINED, weights, 0.0, 10),
        )
        message = rf"classifiers\[1\] \(P2\) has {len(weights)} weights; mode {mode} needs {width}$"
        with pytest.raises(ValueError, match=message):
            AssessorModel(mode, classifiers)

    @pytest.mark.parametrize("mode, width", [("univariate", 1), (MODE_FULL_VECTOR, 2)])
    def test_weights_that_fit_the_mode_are_accepted(self, mode, width):
        classifiers = (
            PitfallClassifier("P1", STATUS_SKIPPED),
            PitfallClassifier("P2", STATUS_TRAINED, (0.5,) * width, 0.0, 10),
        )
        model = AssessorModel(mode, classifiers)
        assert AssessorModel.from_json(model.to_json()) == model


class TestAssessDocument:
    def test_empty_bank_gives_empty_report(self):
        bank = PitfallBank(entries=())
        model = AssessorModel(mode="univariate", classifiers=())
        provider = FixedEmbeddingProvider(dim=2)
        report = assess_document("paper", bank, model, provider, paper_id="Z")
        assert report.findings == ()

    def test_saturated_score_gives_confident_present(self):
        bank = axis_bank(1, 2)
        model = AssessorModel(
            mode="univariate",
            classifiers=(
                PitfallClassifier("P1", STATUS_TRAINED, weights=(3.0,), bias=0.0, trained_on=10),
            ),
        )
        provider = FixedEmbeddingProvider(dim=2, default=np.array([50.0, 0.0]))
        report = assess_document("paper", bank, model, provider)
        finding = report.findings[0]
        assert finding.probability > 0.99
        assert finding.label == LABEL_PRESENT

    def test_skipped_classifier_gives_skipped_finding(self):
        bank = axis_bank(1, 2)
        model = AssessorModel(
            mode="univariate", classifiers=(PitfallClassifier("P1", STATUS_SKIPPED),)
        )
        provider = FixedEmbeddingProvider(dim=2, default=np.array([1.0, 0.0]))
        finding = assess_document("paper", bank, model, provider).findings[0]
        assert finding.label == LABEL_SKIPPED
        assert finding.probability is None

    def test_matches_featurize_sigmoid_oracle(self):
        provider = MockEmbeddingProvider(seed=12, dim=10)
        bank = build_pitfall_bank(make_specs(2), PROBES, provider)
        model = AssessorModel(
            mode="univariate",
            classifiers=(
                PitfallClassifier("P1", STATUS_TRAINED, weights=(1.5,), bias=-0.25, trained_on=10),
                PitfallClassifier("P2", STATUS_TRAINED, weights=(-0.5,), bias=0.1, trained_on=12),
            ),
        )
        report = assess_document("subject paper", bank, model, provider, paper_id="S")
        fv = featurize("subject paper", bank, provider, paper_id="S")
        for finding, score, clf in zip(report.findings, fv.scores, model.classifiers):
            expected = sigmoid(clf.weights[0] * score + clf.bias)
            assert finding.probability == pytest.approx(expected, abs=1e-12)
            assert finding.label == (LABEL_PRESENT if expected >= 0.5 else LABEL_ABSENT)
            assert finding.score == score

    def test_probability_monotone_in_score_for_positive_weight(self):
        bank = axis_bank(1, 2)
        model = AssessorModel(
            mode="univariate",
            classifiers=(
                PitfallClassifier("P1", STATUS_TRAINED, weights=(2.0,), bias=0.0, trained_on=10),
            ),
        )
        probs = []
        for s in (-2.0, -0.5, 0.0, 0.5, 2.0):
            provider = FixedEmbeddingProvider(dim=2, default=np.array([s, 0.0]))
            probs.append(assess_document("p", bank, model, provider).findings[0].probability)
        assert probs == sorted(probs)

    def test_label_probability_consistency_at_boundary(self):
        bank = axis_bank(1, 2)
        model = AssessorModel(
            mode="univariate",
            classifiers=(
                PitfallClassifier("P1", STATUS_TRAINED, weights=(1.0,), bias=0.0, trained_on=10),
            ),
        )
        provider = FixedEmbeddingProvider(dim=2, default=np.array([0.0, 0.0]))
        finding = assess_document("p", bank, model, provider).findings[0]
        assert finding.probability == 0.5
        assert finding.label == LABEL_PRESENT  # boundary inclusive

    def test_bank_model_order_mismatch_rejected(self):
        bank = axis_bank(1, 2)
        model = AssessorModel(
            mode="univariate", classifiers=(PitfallClassifier("P9", STATUS_SKIPPED),)
        )
        with pytest.raises(AlignmentMismatch):
            assess_document("p", bank, model, FixedEmbeddingProvider(dim=2))

    def test_report_serialization_round_trip(self):
        report = PitfallReport(
            paper_id="R",
            findings=(
                __import__("aekit.assess", fromlist=["PitfallFinding"]).PitfallFinding(
                    "P1", LABEL_PRESENT, 0.75, 1.5
                ),
            ),
        )
        text = report.to_json()
        assert PitfallReport.from_dict(__import__("json").loads(text)).to_json() == text


class TestSeparableCeiling:
    def test_f1_and_f2_reachable_on_separable_fixture(self):
        from aekit.metrics import ConfusionMatrix, metric_set

        train_features, train_annotations = separable_features(n_per_class=6, m=1)
        model = train_assessor(train_features, train_annotations, ["P1"])
        clf = model.classifiers[0]

        test_features, test_annotations = separable_features(n_per_class=10, m=1, start=100)
        tp = fp = fn = tn = 0
        for fv in test_features:
            prob = sigmoid(clf.weights[0] * fv.scores[0] + clf.bias)
            predicted = prob >= 0.5
            actual = test_annotations[fv.paper_id]["P1"] == "present"
            if predicted and actual:
                tp += 1
            elif predicted:
                fp += 1
            elif actual:
                fn += 1
            else:
                tn += 1
        ms = metric_set(ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=tn))
        assert ms.f1 >= 0.92
        assert ms.f2 >= 0.97
        assert ms.accuracy >= 0.90


PAPERS = [(f"p{i:03d}", f"paper {i} on topic {i % 7}") for i in range(72)]


def noisy_annotations(features, seed):
    """Labels that follow each pitfall's score with noise, so fits stay finite.

    P3 has fewer than five present papers, so its classifier is skipped.
    """
    rng = np.random.default_rng(seed)
    annotations = {}
    for fv in features:
        noisy = np.asarray(fv.scores) + rng.normal(scale=0.05, size=fv.m)
        annotations[fv.paper_id] = {
            "P1": "present" if noisy[0] > 0 else "absent",
            "P2": "present" if noisy[1] > 0 else "absent",
            "P3": "present" if fv.paper_id < "p003" else "absent",
        }
    return annotations


class TestAssessDocuments:
    @pytest.mark.parametrize("mode", ["univariate", MODE_FULL_VECTOR])
    def test_equals_assessing_each_paper_alone_across_chunk_boundaries(self, monkeypatch, mode):
        provider = MockEmbeddingProvider(seed=6, dim=16)
        bank = build_pitfall_bank(make_specs(3), PROBES, provider)
        features = [featurize(text, bank, provider, paper_id=pid) for pid, text in PAPERS]
        model = train_assessor(features, noisy_annotations(features, 3), bank.pitfall_ids, mode=mode)
        assert [c.status for c in model.classifiers] == [STATUS_TRAINED, STATUS_TRAINED, STATUS_SKIPPED]
        # Chunks of 7 items split papers' 3 items across provider calls.
        monkeypatch.setattr(measure, "SCORE_CHUNK", 7)
        reports = assess_documents(PAPERS, bank, model, provider)
        alone = [assess_document(text, bank, model, provider, paper_id=pid) for pid, text in PAPERS]
        assert [r.to_json() for r in reports] == [r.to_json() for r in alone]
        labels = {f.label for r in reports for f in r.findings}
        assert labels == {LABEL_PRESENT, LABEL_ABSENT, LABEL_SKIPPED}
        for report, fv in zip(reports, features):
            assert tuple(f.score for f in report.findings) == fv.scores

    def test_no_papers_give_no_reports(self):
        bank = axis_bank(2, 4)
        model = AssessorModel(
            mode="univariate", classifiers=tuple(PitfallClassifier(p, STATUS_SKIPPED) for p in ("P1", "P2"))
        )
        assert assess_documents([], bank, model, FixedEmbeddingProvider(dim=4)) == []

    @pytest.mark.parametrize("ids", [("P1",), ("P2", "P1")], ids=["count", "order"])
    def test_mismatch_is_raised_before_anything_is_embedded(self, ids):
        provider = CountingMockProvider(seed=1, dim=4)
        model = AssessorModel(mode="univariate", classifiers=tuple(PitfallClassifier(p, STATUS_SKIPPED) for p in ids))
        with pytest.raises(AlignmentMismatch):
            assess_documents(PAPERS, axis_bank(2, 4), model, provider)
        assert provider.calls == []

    def test_remote_provider_sends_full_batches(self, monkeypatch):
        monkeypatch.setenv("AEKIT_TEST_TOKEN", "t")
        bank = build_pitfall_bank(make_specs(10), PROBES, MockEmbeddingProvider(seed=2, dim=16))
        model = AssessorModel(
            mode="univariate", classifiers=tuple(PitfallClassifier(p, STATUS_SKIPPED) for p in bank.pitfall_ids)
        )
        cfg = ProviderConfig("http://fake.test", "m", auth_token_env="AEKIT_TEST_TOKEN", batch_size=32)
        batched, alone = VectorTransport(dim=16), VectorTransport(dim=16)
        reports = assess_documents(PAPERS, bank, model, RemoteEmbeddingProvider(cfg, batched))
        one_by_one = [
            assess_document(text, bank, model, RemoteEmbeddingProvider(cfg, alone), paper_id=pid)
            for pid, text in PAPERS
        ]
        assert len(batched.requests) == math.ceil(len(PAPERS) * len(bank) / 32) == 23
        assert len(alone.requests) == len(PAPERS)
        assert [r.to_json() for r in reports] == [r.to_json() for r in one_by_one]
