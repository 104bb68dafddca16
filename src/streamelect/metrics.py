"""Fairness and welfare statistics over satisfaction vectors."""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np


@dataclass(frozen=True)
class MetricBundle:
    """The evaluation metrics of one committee outcome.

    average_satisfaction: mean u_i(W); exclusion_ratio: fraction of voters
    with zero satisfaction; bottom_quartile_mean: mean of the ceil(n/4)
    smallest satisfactions; gini: mean absolute difference normalized by
    twice the mean (0 when the mean is 0); nash_welfare: sum_i log(1 + s_i).
    """

    average_satisfaction: float
    exclusion_ratio: float
    bottom_quartile_mean: float
    gini: float
    nash_welfare: float

    def as_row(self):
        return tuple(getattr(self, name) for name in FIELDS)


FIELDS = tuple(f.name for f in fields(MetricBundle))
# The satisfaction-scaled metrics, where higher is better, compare with a
# baseline as ratios; the bounded ones, where lower is better, as differences.
HIGHER_BETTER = ("average_satisfaction", "bottom_quartile_mean", "nash_welfare")
LOWER_BETTER = ("exclusion_ratio", "gini")


def compute_metrics(sat):
    """Compute all metrics of a satisfaction vector.

    gini = sum_{i,j} |s_i - s_j| / (2 n^2 mean), evaluated through the sorted
    form sum_k (2k - n + 1) s_(k); a vector of all zeros counts as perfectly
    equal (gini 0).

    Parameters
    ----------
    sat : array-like of per-voter satisfactions
    """
    values = np.asarray(sat, dtype=np.float64)
    n = values.size
    if n < 1:
        raise ValueError("need at least one voter")
    mean = float(values.mean())
    ordered = np.sort(values)
    if mean > 0.0:
        weights = 2.0 * np.arange(n) - n + 1.0
        gini = float((weights * ordered).sum()) / (n * n * mean)
    else:
        gini = 0.0
    quartile = ordered[: -(-n // 4)]
    return MetricBundle(
        average_satisfaction=mean,
        exclusion_ratio=float((values == 0.0).sum()) / n,
        bottom_quartile_mean=float(quartile.mean()),
        gini=gini,
        nash_welfare=float(np.log1p(values).sum()),
    )


def _relative(name, value, base):
    if name in LOWER_BETTER:
        return value - base
    if base == 0.0:
        return 1.0 if value == 0.0 else float("inf")
    return value / base


def relative_to_baseline(bundle, baseline):
    """Compare a bundle against a baseline bundle, componentwise: the
    HIGHER_BETTER metrics become ratios bundle/baseline with the conventions
    0/0 = 1 and x/0 = +inf for x > 0; the LOWER_BETTER metrics become
    differences bundle - baseline.
    """
    return MetricBundle(*map(_relative, FIELDS, bundle.as_row(), baseline.as_row()))
