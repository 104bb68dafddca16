"""Election model, arrival orders, utility accounting, and the streaming contract.

Candidates are 0-indexed throughout the library; file formats and CLI output
use 1-based indices. All core types are immutable after construction and all
operations are pure functions.
"""

from __future__ import annotations

import math
import operator
from dataclasses import MISSING, dataclass, field, fields
from functools import cached_property
from typing import NamedTuple

import numpy as np

# Name and version of the deterministic generator behind every seeded draw in
# this library. Philox is counter-based, so (seed -> stream) is reproducible
# across platforms; the permutation itself is a textbook Fisher-Yates whose
# m-1 swap indices come from one vector draw on that stream, which yields the
# same indices as one scalar draw per swap. Changing either detail is a
# breaking change to recorded seeds and must bump this tag.
ORDER_GENERATOR = "philox4x64/fisher-yates/v1"


class InvalidCommitteeError(ValueError):
    """A committee references candidates outside the election or exceeds k."""


class InstanceTooLargeError(ValueError):
    """An exhaustive computation would exceed its configured cap."""


def seeded_rng(seed):
    """Return the library-wide deterministic generator for a non-negative
    integer seed; a float or bool seed is refused, not truncated."""
    check_int("seed", seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return np.random.Generator(np.random.Philox(key=seed))


def check_int(name, value):
    """Refuse `value`, naming it `name`, unless it is an int or a numpy
    integer; a bool is refused too."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def check_size(n, m, k):
    """Refuse an election size unless n, m and k are integers with n >= 1,
    m >= 1 and 2 <= k < m."""
    for name, value in (("n", n), ("m", m), ("k", k)):
        check_int(name, value)
    if n < 1 or m < 1:
        raise ValueError(f"counts must be positive, got n={n}, m={m}")
    if not 2 <= k < m:
        raise ValueError(f"committee size must satisfy 2 <= k < m, got k={k}, m={m}")


def check_unread(settings, read, owner):
    """Refuse a field of the dataclass `settings` that has a default, is not
    in `read` (the fields `owner` reads) and is set away from its default."""
    for f in fields(settings):
        unread = f.default is not MISSING and f.name not in read
        if unread and getattr(settings, f.name) != f.default:
            raise ValueError(f"{owner} does not read {f.name}")


@dataclass(frozen=True, eq=False)
class Election:
    """An election with cardinal ballots. Elections compare and hash by
    identity, since their utility matrix is an array.

    Parameters
    ----------
    utilities : array-like of shape (n, m)
        Non-negative finite utilities; ``utilities[i][j]`` is voter i's value
        for candidate j. Voter satisfaction is additive over committees. The
        shape gives the number of voters `num_voters` (n, at least 1) and of
        candidates `num_candidates` (m).
    committee_size : int
        Committee bound k with 2 <= k < m.
    """

    utilities: np.ndarray
    committee_size: int
    num_voters: int = field(init=False)
    num_candidates: int = field(init=False)

    def __post_init__(self):
        matrix = np.asarray(self.utilities, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError(f"utilities must be a 2-D matrix, got shape {matrix.shape}")
        n, m = matrix.shape
        check_size(n, m, self.committee_size)
        if not np.all(np.isfinite(matrix)):
            raise ValueError("utilities must be finite")
        if np.any(matrix < 0):
            raise ValueError("utilities must be non-negative")
        matrix.setflags(write=False)
        object.__setattr__(self, "utilities", matrix)
        object.__setattr__(self, "num_voters", n)
        object.__setattr__(self, "num_candidates", m)

    @cached_property
    def is_approval(self):
        """Whether every utility is 0 or 1, computed on first read."""
        return bool(np.all((self.utilities == 0.0) | (self.utilities == 1.0)))

    @cached_property
    def ranking(self):
        """Every candidate id by descending total utility, ties toward the
        smaller id, computed on first read. Totals are exact (`math.fsum` per
        column), so equal totals tie in any voter order."""
        totals = [math.fsum(column.tolist()) for column in self.utilities.T]
        return tuple(sorted(range(self.num_candidates), key=lambda c: (-totals[c], c)))


@dataclass(frozen=True)
class ArrivalOrder:
    """A presentation order of candidates: a permutation of 0..m-1."""

    permutation: tuple

    def __post_init__(self):
        perm = as_ids(self.permutation)
        if sorted(perm) != list(range(len(perm))):
            raise ValueError("arrival order must be a permutation of 0..m-1")
        object.__setattr__(self, "permutation", perm)

    def __len__(self):
        return len(self.permutation)

    @classmethod
    def identity(cls, m):
        return cls(tuple(range(m)))


class Decision(NamedTuple):
    """One audit entry of an online rule: what happened at one arrival position.

    `payments` is a tuple of (voter, amount) pairs for rules that charge
    budgets, or None. `sample` is the sorted running sample after the step
    for rules that maintain one, or None; ids at or beyond m in it are the
    displacement rules' placeholders for reference seats left open.

    A named tuple, since the rules build one per arrival: it equals the
    plain tuple of its six fields, and `_replace` makes a changed copy.
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
        object.__setattr__(self, "members", frozenset(as_ids(self.members, InvalidCommitteeError)))

    def sorted_members(self):
        return tuple(sorted(self.members))


def as_ids(ids, error=ValueError):
    """`ids` as a tuple of ints, each read through `operator.index`; an id
    that is not an integer, a float or a bool say, is refused by name with
    `error`."""
    ids = tuple(ids)
    if bool not in map(type, ids):
        try:
            return tuple(map(operator.index, ids))
        except TypeError:
            pass
    bad = next(c for c in ids if isinstance(c, bool) or not isinstance(c, (int, np.integer)))
    raise error(f"candidate id {bad!r} is not an integer")


def members_of(committee):
    """The member set of a Committee or of an iterable of candidate indices;
    an index that is not an integer raises InvalidCommitteeError."""
    if isinstance(committee, Committee):  # its ids were read when it was built
        return committee.members
    return frozenset(as_ids(getattr(committee, "members", committee), InvalidCommitteeError))


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
    return election.utilities[:, sorted(members)].sum(axis=1)


def check_order(election, order):
    """Refuse an arrival order whose length is not the election's m."""
    if len(order) != election.num_candidates:
        raise ValueError(
            f"order has length {len(order)}, election has {election.num_candidates} candidates"
        )


def stream(election, order):
    """Yield (position, candidate, utility column) in arrival order.

    Positions are 1-based. A consumer at position t has seen exactly the
    columns of the first t arrivals; columns are read-only views.
    """
    check_order(election, order)
    for position, candidate in enumerate(order.permutation, start=1):
        yield position, candidate, election.utilities[:, candidate]


def random_order(m, seed):
    """Uniformly random arrival order, deterministic in (m, seed).

    Fisher-Yates shuffle driven by the generator named in ORDER_GENERATOR, so
    the same inputs produce the same permutation on every platform. The swap
    index j of position i = m-1, ..., 1 is uniform on 0..i; all m-1 of them
    come from one vector draw on the seed's stream, which gives the same
    indices as one scalar draw per position.
    """
    if m < 1:
        raise ValueError(f"cannot draw an order over {m} candidates")
    swaps = seeded_rng(seed).integers(0, np.arange(m, 1, -1)).tolist()
    perm = list(range(m))
    for i, j in zip(range(m - 1, 0, -1), swaps):
        perm[i], perm[j] = perm[j], perm[i]
    return ArrivalOrder(tuple(perm))
