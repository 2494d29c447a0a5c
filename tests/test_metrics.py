import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aekit.metrics import (
    ConfusionMatrix,
    InconsistentPercentages,
    f_beta,
    from_percentages,
    metric_set,
    render_confusion_table,
)

# Reference evaluation tables used as regression fixtures: (total, cells)
# with cells ordered (tp, fp, fn, tn) and the expected reconstruction.
REFERENCE_TABLES = [
    # combined pipeline vs manual study, 126 papers
    (126, (7.14, 8.73, 19.05, 65.08), (9, 11, 24, 82), (0.7222, 0.4500, 0.2727)),
    # rating stage vs manual study, 130 papers
    (130, (40.77, 54.62, 2.31, 2.31), (53, 71, 3, 3), (0.4308, 0.4274, 0.9464)),
    # preparation stage vs manual study, 311 papers
    (311, (7.40, 14.79, 18.97, 58.84), (23, 46, 59, 183), (0.6624, 0.3333, 0.2805)),
]


class TestFromPercentages:
    @pytest.mark.parametrize("total,cells,counts,_", REFERENCE_TABLES)
    def test_reference_tables_reconstruct(self, total, cells, counts, _):
        cm = from_percentages(total, cells)
        assert cm.as_counts() == counts
        assert cm.total == total

    @pytest.mark.parametrize("total,cells,_,__", REFERENCE_TABLES)
    def test_percentage_round_trip_to_two_decimals(self, total, cells, _, __):
        cm = from_percentages(total, cells)
        for given_p, rederived in zip(cells, cm.percentages()):
            assert round(rederived, 2) == pytest.approx(given_p)

    def test_sum_mismatch_rejected(self):
        with pytest.raises(InconsistentPercentages):
            from_percentages(100, (30.0, 30.0, 30.0, 30.0))

    def test_percentage_deviation_rejected(self):
        # 50.6% of 10 rounds to 5, which re-derives to 50% (off by 0.6).
        with pytest.raises(InconsistentPercentages):
            from_percentages(10, (50.6, 9.4, 20.0, 20.0))

    def test_nonpositive_total_rejected(self):
        with pytest.raises(ValueError):
            from_percentages(0, (25.0, 25.0, 25.0, 25.0))


class TestMetricSet:
    @pytest.mark.parametrize("total,cells,_,footer", REFERENCE_TABLES)
    def test_reference_footers_reproduce_to_two_decimals(self, total, cells, _, footer):
        ms = metric_set(from_percentages(total, cells))
        accuracy, precision, recall = footer
        assert ms.accuracy == pytest.approx(accuracy, abs=5e-5)
        assert ms.precision == pytest.approx(precision, abs=5e-5)
        assert ms.recall == pytest.approx(recall, abs=5e-5)

    def test_f1_from_count_form(self):
        ms = metric_set(ConfusionMatrix(tp=9, fp=11, fn=24, tn=82))
        assert ms.f1 == pytest.approx(18 / 53)  # 2TP / (2TP + FP + FN)

    def test_absent_precision_when_no_predicted_positives(self):
        ms = metric_set(ConfusionMatrix(tp=0, fp=0, fn=3, tn=7))
        assert ms.precision is None
        assert ms.f1 is None and ms.f2 is None
        assert ms.accuracy == 0.7

    def test_class_swap_preserves_accuracy(self):
        cm = ConfusionMatrix(tp=9, fp=11, fn=24, tn=82)
        swapped = ConfusionMatrix(tp=cm.tn, fp=cm.fn, fn=cm.fp, tn=cm.tp)
        assert metric_set(cm).accuracy == metric_set(swapped).accuracy

    def test_serialized_absences_are_null_not_nan(self):
        ms = metric_set(ConfusionMatrix(tp=0, fp=0, fn=3, tn=7))
        doc = json.loads(ms.to_json())
        assert doc["precision"] is None
        assert "NaN" not in ms.to_json()


class TestFBeta:
    def test_fixed_point_when_precision_equals_recall(self):
        for p in (0.1, 0.5, 0.92):
            for beta in (0.5, 1.0, 2.0):
                assert f_beta(p, p, beta) == pytest.approx(p)

    def test_zero_recall_annihilates(self):
        assert f_beta(1.0, 0.0, 1.0) == 0.0

    def test_reference_value(self):
        assert f_beta(0.45, 0.2727, 1.0) == pytest.approx(0.3396, abs=1e-4)

    def test_both_zero_is_absent(self):
        assert f_beta(0.0, 0.0, 2.0) is None

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            f_beta(1.5, 0.5, 1.0)
        with pytest.raises(ValueError):
            f_beta(0.5, 0.5, 0.0)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=0, max_value=1),
    st.floats(min_value=0, max_value=1),
    st.floats(min_value=0.01, max_value=1),
    st.floats(min_value=0.25, max_value=4),
)
def test_property_f_beta_monotone(p, r, delta, beta):
    base = f_beta(p, r, beta)
    if base is None:
        return
    higher_p = f_beta(min(1.0, p + delta), r, beta)
    higher_r = f_beta(p, min(1.0, r + delta), beta)
    assert higher_p is None or higher_p >= base - 1e-12
    assert higher_r is None or higher_r >= base - 1e-12


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 500), st.integers(0, 500), st.integers(0, 500), st.integers(0, 500))
def test_property_round_trip_through_percentages(tp, fp, fn, tn):
    if tp + fp + fn + tn == 0:
        return
    cm = ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=tn)
    rebuilt = from_percentages(cm.total, cm.percentages())
    assert rebuilt == cm


class TestRenderTable:
    def test_contains_cells_and_footer(self):
        cm = ConfusionMatrix(tp=9, fp=11, fn=24, tn=82)
        table = render_confusion_table(cm)
        assert "Total 126" in table
        assert "7.14%" in table and "65.08%" in table
        assert "Accuracy: 72.22%" in table
        assert "Recall: 27.27%" in table

    @pytest.mark.parametrize("label", ["Pipeline", "Rate"])
    def test_percentage_columns_line_up_under_their_headers(self, label):
        table = render_confusion_table(ConfusionMatrix(tp=9, fp=11, fn=24, tn=82), system_label=label)
        header, runs, not_runs = table.splitlines()[1:4]
        column_ends = [header.index("runs") + len("runs"), len(header)]
        for row in (runs, not_runs):
            assert [i + 1 for i, ch in enumerate(row) if ch == "%"] == column_ends

    def test_a_rate_table_keeps_its_sixteen_character_labels(self):
        table = render_confusion_table(ConfusionMatrix(tp=9, fp=11, fn=24, tn=82), system_label="Rate")
        assert table == (
            "Total 126    Ground truth\n"
            "                      runs   not-runs\n"
            "Rate runs            7.14%      8.73%\n"
            "Rate not-runs       19.05%     65.08%\n"
            "Accuracy: 72.22%  Precision: 45.00%  Recall: 27.27%"
        )
