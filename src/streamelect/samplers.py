"""Seeded generators for the synthetic voter cultures.

`sample` is a pure function of its SampleSpec: the same spec yields the
same election on every platform (generator contract in core.ORDER_GENERATOR).
CULTURE_TABLE names each culture's sampler and the parameters it reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Election, check_int, check_size, check_unread, members_of, seeded_rng

MEMORY_CAP = 10_000_000  # cap on n * m utility entries


@dataclass(frozen=True)
class SampleSpec:
    """Parameterization of one synthetic instance.

    culture: one of CULTURES. CULTURE_TABLE lists the fields each culture
    reads and what they mean; normalized-mallows reads phi as a normalized
    dispersion (see _sample_mallows). A field the culture does not read must
    keep its default, so that equal elections have equal instance ids.
    """

    culture: str
    num_voters: int
    num_candidates: int
    committee_size: int
    seed: int
    p: float | None = None
    phi: float | None = None
    x: float | None = None
    q: float | None = None
    noise: bool = True

    def __post_init__(self):
        if self.culture not in CULTURE_TABLE:
            raise ValueError(f"unknown culture: {self.culture!r}")
        check_size(self.num_voters, self.num_candidates, self.committee_size)
        check_int("seed", self.seed)
        _, reads = CULTURE_TABLE[self.culture]
        check_unread(self, reads, self.culture)
        if self.num_voters * self.num_candidates > MEMORY_CAP:
            raise ValueError(
                f"instance would hold {self.num_voters * self.num_candidates} utilities,"
                f" cap is {MEMORY_CAP}"
            )
        for name, described in reads.items():
            if described is None:
                continue
            meaning, interval = described
            value = getattr(self, name)
            if value is None or not (0.0 < value <= 1.0 or value == 0.0 and interval.startswith("[")):
                raise ValueError(f"{self.culture} needs {meaning} {name} in {interval}, got {value}")

    def instance_id(self):
        """culture-n<n>-m<m>-k<k>, the fields the culture reads, then s<seed>."""
        parts = [
            self.culture,
            f"n{self.num_voters}",
            f"m{self.num_candidates}",
            f"k{self.committee_size}",
        ]
        for name, described in CULTURE_TABLE[self.culture][1].items():
            value = getattr(self, name)
            if described is not None:
                parts.append(f"{name}{value:g}")
            elif not value:
                parts.append(f"no{name}")
        parts.append(f"s{self.seed}")
        return "-".join(parts)


def _sample_ic(rng, spec):
    """Impartial culture: per voter, an approval count from Binomial(m, p),
    uniformly chosen approved candidates, and per-approval utilities of
    round(Normal(150, 140)) clamped into [1, 200] (unapproved stay 0)."""
    n, m = spec.num_voters, spec.num_candidates
    matrix = np.zeros((n, m))
    for i in range(n):
        count = int(rng.binomial(m, spec.p))
        if count == 0:
            continue
        chosen = rng.choice(m, size=count, replace=False)
        scores = np.clip(np.rint(rng.normal(150.0, 140.0, size=count)), 1.0, 200.0)
        matrix[i, chosen] = scores
    return matrix


def expected_swap_distance(phi, m):
    """Expected swap distance of a Mallows ranking from the central order.

    Sum over insertion steps j = 1..m-1 of the expected inversions added:
    phi/(1-phi) - (j+1) phi^(j+1) / (1 - phi^(j+1)), or j/2 at phi = 1.
    """
    if phi == 1.0:
        return m * (m - 1) / 4.0
    total = 0.0
    for j in range(1, m):
        total += phi / (1.0 - phi) - (j + 1) * phi ** (j + 1) / (1.0 - phi ** (j + 1))
    return total


def dispersion_from_normalized(norm, m):
    """Invert the normalization: find phi whose expected swap distance is
    norm times the uniform expectation m(m-1)/4, by bisection (the
    expectation is strictly increasing in phi)."""
    if norm == 1.0:
        return 1.0
    target = norm * m * (m - 1) / 4.0
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = (lo + hi) / 2.0
        if expected_swap_distance(mid, m) < target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def _sample_mallows(rng, spec):
    """Mallows culture: rankings from repeated insertion around the identity
    order, item j landing at position p <= j with odds phi^(j-p) (row j - 1
    of `running` holds their running sums over p < j, +inf-padded); the
    rank-r candidate scores 200 (m - r) / (m - 1), r = 1 best, plus
    Uniform(-10, 10) jitter clamped into [0, 200] unless noise=False.
    For normalized-mallows, spec.phi is first mapped to the dispersion whose
    expected swap distance is that fraction of the uniform expectation."""
    n, m = spec.num_voters, spec.num_candidates
    phi = spec.phi
    if spec.culture == "normalized-mallows":
        phi = dispersion_from_normalized(phi, m)
    running = np.full((m - 1, m - 1), np.inf)
    totals = np.empty(m - 1)
    for j in range(1, m):
        odds = phi ** (j - np.arange(j + 1))
        totals[j - 1] = odds.sum()
        running[j - 1, :j] = odds.cumsum()[:-1]
    scores = 200.0 * (m - 1 - np.arange(m)) / (m - 1)
    matrix = np.zeros((n, m))
    for i in range(n):
        draws = rng.random(m - 1) * totals
        # the first position p < j whose running odds exceed the draw, else j
        positions = (running <= draws[:, None]).sum(axis=1)
        ranking = [0]
        for j, position in enumerate(positions.tolist(), start=1):
            ranking.insert(position, j)
        matrix[i, ranking] = scores
        if spec.noise:
            matrix[i] = np.clip(matrix[i] + rng.uniform(-10.0, 10.0, size=m), 0.0, 200.0)
    return matrix


def _sample_polarized(rng, spec):
    """Two-bloc approval culture: the first ceil(x n) voters approve every
    first-half candidate; the rest approve each second-half candidate
    independently with probability q."""
    n, m = spec.num_voters, spec.num_candidates
    half = m // 2
    group_a = math.ceil(spec.x * n - 1e-9)
    matrix = np.zeros((n, m))
    matrix[:group_a, :half] = 1.0
    if group_a < n:
        approvals = rng.random((n - group_a, m - half)) < spec.q
        matrix[group_a:, half:] = approvals.astype(np.float64)
    return matrix


def proportional_quota(spec, committee):
    """Representation owed to and received by group A on a polarized instance.

    deserved = floor(x k), the weakest reading of "at least an x-share of
    the committee"; received = committee members from the first half. The
    committee is a Committee or an iterable of candidate indices.

    Returns
    -------
    (deserved, received)
    """
    if spec.culture != "polarized":
        raise ValueError(f"spec has culture {spec.culture!r}, expected 'polarized'")
    half = spec.num_candidates // 2
    deserved = int(spec.x * spec.committee_size + 1e-9)
    received = sum(1 for c in members_of(committee) if c < half)
    return deserved, received


# Each culture's sampler, (rng, spec) -> utility matrix, and
# the SampleSpec fields it reads: each parameter with its meaning and its
# interval, which ends at 1 and holds 0 only if it opens with "[", and
# noise, a switch, with None.
CULTURE_TABLE = {
    "ic": (_sample_ic, {"p": ("approval probability", "[0, 1]")}),
    "mallows": (_sample_mallows, {"phi": ("dispersion", "(0, 1]"), "noise": None}),
    "normalized-mallows": (_sample_mallows, {"phi": ("dispersion", "(0, 1]"), "noise": None}),
    "polarized": (
        _sample_polarized,
        {"x": ("group-A share", "(0, 1]"), "q": ("approval rate", "(0, 1]")},
    ),
}
CULTURES = tuple(CULTURE_TABLE)


def sample(spec):
    """Draw the election described by a SampleSpec."""
    sampler, _ = CULTURE_TABLE[spec.culture]
    return Election(sampler(seeded_rng(spec.seed), spec), spec.committee_size)
