import collections
import itertools
import os

import numpy as np
import pytest
from hypothesis import settings

from streamelect import ArrivalOrder, Election

pytest_plugins = ["pytester"]

# On CI, draw the same examples on every run and print the reproduction blob
# of a failing one, so that a CI failure replays locally under the same
# profile (CI=1) or with @reproduce_failure.
settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")

SHOWCASE_ROWS = (
    (0.0, 1.0, 2.0, 0.0, 0.0, 0.0),
    (2.0, 0.0, 0.0, 3.0, 1.0, 3.0),
)


def showcase_election(k=3):
    """Two-voter, six-candidate election used as the worked example: a
    specialist voter concentrated on candidate 3 and a broader voter spread
    over the rest."""
    return Election([list(r) for r in SHOWCASE_ROWS], k)


@pytest.fixture
def showcase():
    return showcase_election()


@pytest.fixture
def showcase_k2():
    return showcase_election(k=2)


def random_approval_election(rng, max_voters=8, max_candidates=8, max_k=4):
    """Small random approval election; every voter approves at least one
    candidate so satisfaction can be positive."""
    n = int(rng.integers(2, max_voters + 1))
    m = int(rng.integers(3, max_candidates + 1))
    k = int(rng.integers(2, min(max_k, m - 1) + 1))
    matrix = (rng.random((n, m)) < 0.45).astype(float)
    for i in range(n):
        if not matrix[i].any():
            matrix[i, int(rng.integers(0, m))] = 1.0
    return Election(matrix, k)


def random_cardinal_election(rng, max_voters=10, max_candidates=10, max_k=4):
    n = int(rng.integers(2, max_voters + 1))
    m = int(rng.integers(3, max_candidates + 1))
    k = int(rng.integers(2, min(max_k, m - 1) + 1))
    matrix = np.round(rng.random((n, m)) * 10.0, 3)
    return Election(matrix, k)


def committee_counts(election, rule):
    """How many of the election's m! arrival orders make `rule(election,
    order)` elect each committee, keyed by member set. Only for small m."""
    return collections.Counter(
        rule(election, ArrivalOrder(permutation)).members
        for permutation in itertools.permutations(range(election.num_candidates))
    )

