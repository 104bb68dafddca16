"""Seeded generators for the synthetic voter cultures.

Every sampler is a pure function of its SampleSpec: the same spec yields the
same election on every platform (generator contract in core.ORDER_GENERATOR).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Election, members_of, seeded_rng

# The SampleSpec parameters each culture reads; any other must stay None.
CULTURE_PARAMETERS = {
    "ic": ("p",),
    "mallows": ("phi",),
    "normalized-mallows": ("phi",),
    "polarized": ("x", "q"),
}
CULTURES = tuple(CULTURE_PARAMETERS)

MEMORY_CAP = 10_000_000  # cap on n * m utility entries


@dataclass(frozen=True)
class SampleSpec:
    """Parameterization of one synthetic instance.

    culture: one of CULTURES. p is the approval probability (ic); phi the
    dispersion (mallows) or the normalized dispersion (normalized-mallows,
    the value whose expected swap distance is that fraction of the uniform
    expectation); x the group-A voter share and q the group-B approval rate
    (polarized); noise toggles the per-candidate utility jitter of the
    Mallows cultures. A parameter the culture does not read must stay unset
    (noise True off the Mallows cultures), so that equal elections have
    equal instance ids.
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
        if self.culture not in CULTURES:
            raise ValueError(f"unknown culture: {self.culture!r}")
        for name in ("p", "phi", "x", "q"):
            if getattr(self, name) is not None and name not in CULTURE_PARAMETERS[self.culture]:
                raise ValueError(f"{self.culture} does not read {name}")
        if not self.noise and self.culture not in ("mallows", "normalized-mallows"):
            raise ValueError(f"{self.culture} has no noise to switch off")
        if self.num_voters * self.num_candidates > MEMORY_CAP:
            raise ValueError(
                f"instance would hold {self.num_voters * self.num_candidates} utilities,"
                f" cap is {MEMORY_CAP}"
            )
        if self.culture == "ic":
            if self.p is None or not 0.0 <= self.p <= 1.0:
                raise ValueError(f"ic needs approval probability p in [0, 1], got {self.p}")
        elif self.culture in ("mallows", "normalized-mallows"):
            if self.phi is None or not 0.0 < self.phi <= 1.0:
                raise ValueError(f"{self.culture} needs dispersion phi in (0, 1], got {self.phi}")
        else:
            if self.x is None or not 0.0 < self.x <= 1.0:
                raise ValueError(f"polarized needs group-A share x in (0, 1], got {self.x}")
            if self.q is None or not 0.0 < self.q <= 1.0:
                raise ValueError(f"polarized needs approval rate q in (0, 1], got {self.q}")

    def instance_id(self):
        parts = [
            self.culture,
            f"n{self.num_voters}",
            f"m{self.num_candidates}",
            f"k{self.committee_size}",
        ]
        for name in ("p", "phi", "x", "q"):
            value = getattr(self, name)
            if value is not None:
                parts.append(f"{name}{value:g}")
        if not self.noise:
            parts.append("nonoise")
        parts.append(f"s{self.seed}")
        return "-".join(parts)


def _sample_ic(spec):
    """Impartial culture: per voter, an approval count from Binomial(m, p),
    uniformly chosen approved candidates, and per-approval utilities of
    round(Normal(150, 140)) clamped into [1, 200] (unapproved stay 0)."""
    rng = seeded_rng(spec.seed)
    n, m = spec.num_voters, spec.num_candidates
    matrix = np.zeros((n, m))
    for i in range(n):
        count = int(rng.binomial(m, spec.p))
        if count == 0:
            continue
        chosen = rng.choice(m, size=count, replace=False)
        scores = np.clip(np.rint(rng.normal(150.0, 140.0, size=count)), 1.0, 200.0)
        matrix[i, chosen] = scores
    return Election(n, m, spec.committee_size, matrix, score_cap=200.0)


def _insertion_ranking(rng, m, phi):
    """One Mallows ranking (best first) around the identity central order via
    repeated insertion: item j lands at position p with odds phi^(j-p)."""
    ranking = [0]
    for j in range(1, m):
        weights = phi ** (j - np.arange(j + 1))
        total = weights.sum()
        draw = rng.random() * total
        acc = 0.0
        position = j
        for p in range(j + 1):
            acc += weights[p]
            if draw < acc:
                position = p
                break
        ranking.insert(position, j)
    return ranking


def _mallows_election(spec, phi):
    rng = seeded_rng(spec.seed)
    n, m = spec.num_voters, spec.num_candidates
    matrix = np.zeros((n, m))
    for i in range(n):
        ranking = _insertion_ranking(rng, m, phi)
        for idx, c in enumerate(ranking):
            matrix[i, c] = 200.0 * (m - 1 - idx) / (m - 1)
        if spec.noise:
            matrix[i] = np.clip(matrix[i] + rng.uniform(-10.0, 10.0, size=m), 0.0, 200.0)
    return Election(n, m, spec.committee_size, matrix, score_cap=200.0)


def _sample_mallows(spec):
    """Mallows culture: rankings from repeated insertion around the identity
    order; the rank-r candidate scores 200 (m - r) / (m - 1), r = 1 best,
    plus Uniform(-10, 10) jitter clamped into [0, 200] unless noise=False."""
    return _mallows_election(spec, spec.phi)


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


def _sample_normalized_mallows(spec):
    """Mallows culture with the dispersion given on the normalized scale:
    phi is mapped so the expected swap distance is spec.phi times the
    uniform expectation, then sampling proceeds as in _sample_mallows."""
    return _mallows_election(spec, dispersion_from_normalized(spec.phi, spec.num_candidates))


def _sample_polarized(spec):
    """Two-bloc approval culture: the first ceil(x n) voters approve every
    first-half candidate; the rest approve each second-half candidate
    independently with probability q."""
    rng = seeded_rng(spec.seed)
    n, m = spec.num_voters, spec.num_candidates
    half = m // 2
    group_a = math.ceil(spec.x * n - 1e-9)
    matrix = np.zeros((n, m))
    matrix[:group_a, :half] = 1.0
    if group_a < n:
        approvals = rng.random((n - group_a, m - half)) < spec.q
        matrix[group_a:, half:] = approvals.astype(np.float64)
    return Election(n, m, spec.committee_size, matrix, score_cap=1.0)


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


SAMPLERS = {
    "ic": _sample_ic,
    "mallows": _sample_mallows,
    "normalized-mallows": _sample_normalized_mallows,
    "polarized": _sample_polarized,
}


def sample(spec):
    """Draw the election described by a SampleSpec."""
    return SAMPLERS[spec.culture](spec)
