"""Metric computations over satisfaction vectors."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from streamelect import (
    MetricBundle,
    compute_metrics,
    relative_to_baseline,
    satisfaction,
)
from streamelect.metrics import FIELDS, HIGHER_BETTER, LOWER_BETTER


class TestComputeMetrics:
    def test_showcase_vector(self, showcase):
        bundle = compute_metrics(satisfaction(showcase, {2, 3, 5}))
        assert bundle.average_satisfaction == 4.0
        assert bundle.exclusion_ratio == 0.0
        assert bundle.bottom_quartile_mean == 2.0
        assert bundle.gini == pytest.approx(0.25)
        assert bundle.nash_welfare == pytest.approx(math.log(3) + math.log(7))

    def test_gini_half_and_half(self):
        assert compute_metrics((0, 0, 1, 1)).gini == pytest.approx(0.5)

    def test_gini_single_winner(self):
        assert compute_metrics((0, 0, 0, 1)).gini == pytest.approx(0.75)

    def test_gini_equal_vectors(self):
        assert compute_metrics((3, 3, 3)).gini == 0.0
        assert compute_metrics((0, 0, 0)).gini == 0.0

    def test_gini_matches_pairwise_definition(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            values = rng.uniform(0, 5, size=rng.integers(2, 12))
            pairwise = sum(abs(a - b) for a in values for b in values)
            expected = pairwise / (2 * values.size**2 * values.mean())
            assert compute_metrics(values).gini == pytest.approx(expected)

    def test_bottom_quartile_rounds_up(self):
        assert compute_metrics((5, 1, 4, 2, 3)).bottom_quartile_mean == 1.5
        assert compute_metrics((4, 3, 2, 1)).bottom_quartile_mean == 1.0
        assert compute_metrics((7,)).bottom_quartile_mean == 7.0

    def test_exclusion_ratio(self):
        assert compute_metrics((0, 2, 0, 5)).exclusion_ratio == 0.5

    def test_empty_vector_rejected(self):
        with pytest.raises(ValueError):
            compute_metrics(())

    def test_as_row_matches_fields(self):
        bundle = compute_metrics((1, 2, 3))
        row = bundle.as_row()
        assert len(row) == len(FIELDS)
        for name, value in zip(FIELDS, row):
            assert getattr(bundle, name) == value


class TestRelativeToBaseline:
    def test_directions_split_the_fields(self):
        assert sorted(HIGHER_BETTER + LOWER_BETTER) == sorted(FIELDS)

    def test_identity(self):
        bundle = compute_metrics((0, 1, 2, 3))
        rel = relative_to_baseline(bundle, bundle)
        assert rel.average_satisfaction == 1.0
        assert rel.exclusion_ratio == 0.0
        assert rel.bottom_quartile_mean == 1.0
        assert rel.gini == 0.0
        assert rel.nash_welfare == 1.0

    def test_ratios_and_differences(self):
        bundle = MetricBundle(4.0, 0.5, 1.0, 0.6, 8.0)
        baseline = MetricBundle(2.0, 0.25, 2.0, 0.1, 4.0)
        rel = relative_to_baseline(bundle, baseline)
        assert rel.average_satisfaction == 2.0
        assert rel.exclusion_ratio == 0.25
        assert rel.bottom_quartile_mean == 0.5
        assert rel.gini == 0.5
        assert rel.nash_welfare == 2.0

    def test_zero_baseline_conventions(self):
        bundle = MetricBundle(1.0, 0.0, 0.0, 0.0, 0.0)
        baseline = MetricBundle(0.0, 0.0, 0.0, 0.0, 0.0)
        rel = relative_to_baseline(bundle, baseline)
        assert rel.average_satisfaction == math.inf
        assert rel.bottom_quartile_mean == 1.0
        assert rel.nash_welfare == 1.0


# Satisfaction values with zeros and ties as well as arbitrary floats.
SATISFACTIONS = st.lists(
    st.one_of(st.integers(0, 3).map(float), st.floats(0.0, 200.0, allow_subnormal=False)),
    min_size=1,
    max_size=40,
)


class TestNaiveDefinitions:
    """compute_metrics and relative_to_baseline against their definitions,
    written out term by term."""

    @given(SATISFACTIONS)
    @settings(max_examples=200, deadline=None)
    def test_compute_metrics(self, values):
        n = len(values)
        mean = sum(values) / n
        pairwise = sum(abs(a - b) for a in values for b in values)
        smallest = sorted(values)[: math.ceil(n / 4)]
        bundle = compute_metrics(values)
        assert bundle.average_satisfaction == pytest.approx(mean, rel=1e-12)
        assert bundle.exclusion_ratio == sum(v == 0.0 for v in values) / n
        assert bundle.bottom_quartile_mean == pytest.approx(sum(smallest) / len(smallest), rel=1e-12)
        gini = pairwise / (2 * n * n * mean) if mean > 0 else 0.0
        assert bundle.gini == pytest.approx(gini, rel=1e-9, abs=1e-12)
        nash = sum(math.log1p(v) for v in values)
        assert bundle.nash_welfare == pytest.approx(nash, rel=1e-12, abs=1e-12)

    @given(SATISFACTIONS, SATISFACTIONS)
    @example([0.0], [0.0])
    @example([2.0, 0.0], [0.0, 0.0])
    @settings(max_examples=100, deadline=None)
    def test_relative_to_baseline(self, values, base_values):
        bundle, base = compute_metrics(values), compute_metrics(base_values)
        rel = relative_to_baseline(bundle, base)
        for name in ("average_satisfaction", "bottom_quartile_mean", "nash_welfare"):
            x, y = getattr(bundle, name), getattr(base, name)
            if y == 0.0:
                assert getattr(rel, name) == (1.0 if x == 0.0 else math.inf)
            else:
                assert getattr(rel, name) == x / y
        for name in ("exclusion_ratio", "gini"):
            assert getattr(rel, name) == getattr(bundle, name) - getattr(base, name)
