"""Election model, arrival orders, utility accounting, and the streaming contract.

Candidates are 0-indexed throughout the library; file formats and CLI output
use 1-based indices. All core types are immutable after construction and all
operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# Name and version of the deterministic generator behind every seeded draw in
# this library. Philox is counter-based, so (seed -> stream) is reproducible
# across platforms; the permutation itself is a textbook Fisher-Yates driven
# by that stream. Changing either detail is a breaking change to recorded
# seeds and must bump this tag.
ORDER_GENERATOR = "philox4x64/fisher-yates/v1"


class InvalidCommitteeError(ValueError):
    """A committee references candidates outside the election or exceeds k."""


class InstanceTooLargeError(ValueError):
    """An exhaustive computation would exceed its configured cap."""


def seeded_rng(seed):
    """Return the library-wide deterministic generator for a non-negative seed."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return np.random.Generator(np.random.Philox(key=seed))


@dataclass(frozen=True)
class Election:
    """An election with cardinal ballots.

    Parameters
    ----------
    num_voters : int
        Number of voters n, at least 1.
    num_candidates : int
        Number of candidates m.
    committee_size : int
        Committee bound k with 2 <= k < m.
    utilities : array-like of shape (n, m)
        Non-negative finite utilities; ``utilities[i][j]`` is voter i's value
        for candidate j. Voter satisfaction is additive over committees.
    score_cap : float, optional
        Upper bound B on all utilities (range ballots), if any.
    """

    num_voters: int
    num_candidates: int
    committee_size: int
    utilities: np.ndarray
    score_cap: float | None = None

    def __post_init__(self):
        n, m, k = self.num_voters, self.num_candidates, self.committee_size
        if n < 1:
            raise ValueError(f"need at least one voter, got n={n}")
        if m < 1:
            raise ValueError(f"need at least one candidate, got m={m}")
        if not 2 <= k < m:
            raise ValueError(f"committee size must satisfy 2 <= k < m, got k={k}, m={m}")
        matrix = np.asarray(self.utilities, dtype=np.float64)
        if matrix.shape != (n, m):
            raise ValueError(f"utilities must have shape ({n}, {m}), got {matrix.shape}")
        if not np.all(np.isfinite(matrix)):
            raise ValueError("utilities must be finite")
        if np.any(matrix < 0):
            raise ValueError("utilities must be non-negative")
        if self.score_cap is not None:
            if not self.score_cap > 0:
                raise ValueError(f"score cap must be positive, got {self.score_cap}")
            if np.any(matrix > self.score_cap):
                raise ValueError(f"utilities exceed the score cap {self.score_cap}")
        matrix.setflags(write=False)
        object.__setattr__(self, "utilities", matrix)

    @classmethod
    def from_rows(cls, rows, committee_size, score_cap=None):
        """Build an election from a sequence of per-voter utility rows."""
        matrix = np.asarray(rows, dtype=np.float64)
        n, m = matrix.shape
        return cls(n, m, committee_size, matrix, score_cap)

    @cached_property
    def is_approval(self):
        """Whether every utility is 0 or 1, computed on first read."""
        return bool(np.all((self.utilities == 0.0) | (self.utilities == 1.0)))


@dataclass(frozen=True)
class ArrivalOrder:
    """A presentation order of candidates: a permutation of 0..m-1."""

    permutation: tuple

    def __post_init__(self):
        perm = tuple(int(c) for c in self.permutation)
        if sorted(perm) != list(range(len(perm))):
            raise ValueError("arrival order must be a permutation of 0..m-1")
        object.__setattr__(self, "permutation", perm)

    def __len__(self):
        return len(self.permutation)

    @classmethod
    def identity(cls, m):
        return cls(tuple(range(m)))


@dataclass(frozen=True)
class Decision:
    """One audit entry of an online rule: what happened at one arrival position.

    `payments` is a tuple of (voter, amount) pairs for rules that charge
    budgets, or None. `sample` is the sorted running sample after the step
    for rules that maintain one (ids at or beyond m are dummy sentinels), or
    None.
    """

    position: int
    candidate: int
    hired: bool
    reason: str
    payments: tuple | None = None
    sample: tuple | None = None


@dataclass(frozen=True)
class Committee:
    """A selected candidate set plus a rule-specific audit trail.

    For online rules the audit is a tuple of `Decision` entries covering every
    arrival position exactly once. Offline rules leave it empty: `mes` and
    `bos` return their `MesTrace` beside the committee instead.
    """

    members: frozenset
    audit: tuple = field(default=(), compare=False)

    def __post_init__(self):
        object.__setattr__(self, "members", frozenset(int(c) for c in self.members))

    def sorted_members(self):
        return tuple(sorted(self.members))


def members_of(committee):
    """The member set of a Committee or of an iterable of candidate indices."""
    return frozenset(getattr(committee, "members", committee))


def satisfaction(election, committee):
    """Per-voter satisfaction u_i(W) = sum of utilities over committee members.

    Parameters
    ----------
    election : Election
    committee : Committee or iterable of candidate indices

    Returns
    -------
    numpy.ndarray
        A fresh float64 array of shape (n,): the sum over the members' columns
        in ascending id order, zeros for an empty committee.
    """
    members = members_of(committee)
    if len(members) > election.committee_size:
        raise InvalidCommitteeError(
            f"committee has {len(members)} members, bound is {election.committee_size}"
        )
    for c in members:
        if not 0 <= c < election.num_candidates:
            raise InvalidCommitteeError(f"candidate index {c} out of range")
    if not members:
        return np.zeros(election.num_voters)
    return election.utilities[:, sorted(members)].sum(axis=1)


def stream(election, order):
    """Yield (position, candidate, utility column) in arrival order.

    Positions are 1-based. A consumer at position t has seen exactly the
    columns of the first t arrivals; columns are read-only views.
    """
    if len(order) != election.num_candidates:
        raise ValueError(
            f"order has length {len(order)}, election has {election.num_candidates} candidates"
        )
    for position, candidate in enumerate(order.permutation, start=1):
        yield position, candidate, election.utilities[:, candidate]


def random_order(m, seed):
    """Uniformly random arrival order, deterministic in (m, seed).

    Fisher-Yates shuffle driven by the generator named in ORDER_GENERATOR, so
    the same inputs produce the same permutation on every platform.
    """
    if m < 1:
        raise ValueError(f"cannot draw an order over {m} candidates")
    rng = seeded_rng(seed)
    perm = list(range(m))
    for i in range(m - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        perm[i], perm[j] = perm[j], perm[i]
    return ArrivalOrder(tuple(perm))
