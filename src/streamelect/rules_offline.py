"""Offline committee rules: equal shares, bounded overspending, utilitarian
top-k, and the exact Nash-welfare optimum.

These serve both as baselines and as subroutines of the online rules. All
rules share the budget convention of one unit of price per candidate and an
initial budget of k/n per voter.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import Committee, Election, InstanceTooLargeError, satisfaction

# Affordability slack: budgets accumulate float dust through repeated
# charges, so a supporter pool whose exact total should be 1 may show
# marginally less.
PAY_EPS = 1e-9

ENUMERATION_CAP = 10_000_000


@dataclass(frozen=True)
class MesRound:
    """One purchase: elected candidate, its payment rate, per-voter payments."""

    candidate: int
    rho: float
    payments: tuple


@dataclass(frozen=True)
class MesTrace:
    """Audit of an equal-shares style run.

    `rounds` lists purchases in election order; `completion_added` lists the
    candidates appended afterwards by utilitarian completion. The core
    committee (the part with proportionality guarantees) is exactly the
    candidates of `rounds`.
    """

    rounds: tuple
    completion_added: tuple

    def core_members(self):
        return frozenset(r.candidate for r in self.rounds)


def _rho(b, u):
    """Smallest rho with sum_i min(b_i, rho * u_i) = 1 over the supporters'
    budgets `b` and utilities `u`, as a float; the caller holds
    `np.errstate` and has checked that the total budget covers the price up
    to PAY_EPS.

    With supporters in increasing b_i/u_i order, the payment sum is linear
    in rho between consecutive breakpoints, and the segment starting at
    sorted position j solves to rho_j = (1 - paid_j) / rest_j, where paid_j
    is the budget of the j saturated supporters before it and rest_j the
    utility of the others. The answer is the first rho_j at which supporter
    j does not saturate (rho_j * u_j <= b_j). If there is none, the total
    budget is within PAY_EPS below 1 and everyone pays their all, at
    rho = max b_i/u_i.

    Every rho_j is computed at once, yet each is bit-identical to a walk over
    the voters one at a time: the stable argsort orders ties by voter index as
    Python's stable `sorted` does on the same float64 keys; `paid` is a
    sequential `cumsum` and `rest` a sequential `np.subtract.accumulate` from
    `uo.sum()`, the pairwise sum over the same contiguous array, so every
    partial sum is formed by the same operations in the same order. Entries
    past the answer, which a walk never reaches, may divide by a `rest` that
    rounded to zero or below; hence the caller's `np.errstate`.
    """
    ratio = b / u
    order = ratio.argsort(kind="stable")
    bo = b[order]
    uo = u[order]
    paid = np.concatenate(([0.0], bo[:-1])).cumsum()
    rest = np.subtract.accumulate(np.concatenate(([uo.sum()], uo[:-1])))
    rhos = (1.0 - paid) / rest
    fits = rhos * uo <= bo
    j = fits.argmax()
    return float(rhos[j] if fits[j] else ratio.max())


def _unit_rho(b):
    """`_rho(b, ones)` for supporters of a 0/1 column, bit for bit, without
    its dozen numpy calls: on the small pools of polarized elections those
    fixed costs, not the arithmetic, dominate the solve.

    At unit utilities b_i/u_i is b_i itself and the utility rest after j
    saturated supporters is the exact integer s - j, so the walk needs only
    the sorted budgets. `paid` is summed left to right as `_rho`'s sequential
    `cumsum` is. Zero budgets of either sign sort as equals, and adding
    either to `paid` (which starts at +0.0) or comparing against either gives
    the same bits, so the order among them does not matter. When no segment
    fits, the last budget walked is the largest, `_rho`'s `ratio.max()`. The
    caller has checked affordability with numpy's `b.sum()`, whose pairwise
    order a Python sum would not reproduce from 8 elements up.
    """
    rest = b.size
    paid = 0.0
    for budget in np.sort(b).tolist():
        rho = (1.0 - paid) / rest
        if rho <= budget:
            return rho
        paid += budget
        rest -= 1
    return budget


@dataclass
class _PathLevel:
    """One round of a winner path: the budgets before the round, the key
    solved there for each candidate seen so far (None when unelectable), and
    once a call elects someone here, its round and the budgets after it."""

    budgets: np.ndarray
    keys: dict = field(default_factory=dict)
    round: MesRound | None = None
    after: np.ndarray | None = None


def _round_key(b, u, overspend):
    """Ranking key of a candidate whose supporters hold budgets `b` and have
    utilities `u` (None for unit utilities): (0, rho) when affordable, (1,
    scaled rate) when only `overspend` can buy it, None when it cannot be
    elected this round. Unit utilities take `_unit_rho`; dividing by an
    explicit 1.0 would change no bit, so either form gives the same key."""
    total = float(b.sum())
    if total >= 1.0 - PAY_EPS:
        return (0, _unit_rho(b) if u is None else _rho(b, u))
    if overspend and total > 0.0:
        return (1, float((b if u is None else b / u).max()) / total)
    return None


def _charge(budgets, supporters, u, key):
    """The purchase at `key` from `_round_key`: each supporter pays
    min(b_i, rho * u_i) at tier 0 (u None meaning unit utilities), or their
    whole budget at tier 1 (an overspending purchase). Returns (payments over
    all voters, budgets after)."""
    tier, rate = key
    b = budgets[supporters]
    payments = np.zeros(len(budgets))
    payments[supporters] = np.minimum(b, rate if u is None else rate * u) if tier == 0 else b
    return payments, np.maximum(budgets - payments, 0.0)


class _EngineCache:
    """What the engine calls on one election with one engine may share.

    `levels` is the winner path, one `_PathLevel` per round (see
    `_equal_shares_engine`). `pool` maps each column any call has seen to
    (supporters, their utilities), with None for the utilities of a 0/1
    column, so that a column's supporter index is built once per cache and
    its rho solves take the unit kernel. The first call binds the cache to
    its election and engine; a call with another raises ValueError, since
    neither the budgets nor the keys carry over.
    """

    def __init__(self):
        self.election = None
        self.overspend = None
        self.levels = []
        self.pool = {}

    def bind(self, election, overspend):
        if self.election is None:
            self.election, self.overspend = election, overspend
        elif self.election is not election or self.overspend != overspend:
            raise ValueError("an engine cache serves one election and one engine")

    def column(self, c):
        """The pool entry of column `c`, built on first sight."""
        entry = self.pool.get(c)
        if entry is None:
            column = self.election.utilities[:, c]
            supporters = np.nonzero(column > 0.0)[0]
            u = column[supporters]
            entry = self.pool[c] = (supporters, None if (u == 1.0).all() else u)
        return entry


def _equal_shares_engine(election, cols, overspend, cache=None):
    """Round loop shared by mes, bos and both subset rules, on the columns
    `cols` (ascending ids) of an election; ids from num_candidates upward
    stand for zero-utility dummies.

    Candidates are electable while affordable (their supporters can jointly
    cover the unit price); with `overspend`, a candidate whose supporters
    cannot cover the price may still be bought by those supporters emptying
    their budgets, ranked by scaled rate (max_i b_i/u_i) / (total budget).
    Affordable candidates always take precedence over overspending ones, and
    ties break toward the smaller id, so the run coincides with plain equal
    shares whenever every selected candidate is affordable. Completion fills
    up to k members by descending column sum, ties toward the smaller id, so
    dummies (zero sum, largest ids) only enter there, after every real
    candidate.

    `cache`, an `_EngineCache`, lets consecutive calls on one election and
    engine reuse each other's work; without one, the call gets a fresh cache
    of its own. Its pool holds each column's supporters and utilities, built
    the first time any call sees the column; a 0/1 column solves rho with
    the exact unit kernel `_unit_rho`. Its winner path holds one level per
    round: the budgets before round r, the key solved there for every
    candidate seen by any call, and the winner elected there with its
    `MesRound` and the budgets after. The budgets before round r depend only
    on the winners of rounds 0..r-1, and a candidate's key only on those
    budgets and its own column, so a call reads level r as long as its
    winners agree with the path's, and solves only the keys the level lacks.
    A reused value is the output of the same computation on the same inputs,
    hence exact. Where the winner differs, the deeper levels are dropped, so
    the path holds at most one level per round, k in all. The keys depend on
    `overspend` and the budgets on the election, so a cache bound to another
    election or engine raises ValueError.

    Returns (members, MesTrace) in the id space of `cols`.
    """
    n, m, k = election.num_voters, election.num_candidates, election.committee_size
    utilities = election.utilities
    if cache is None:
        cache = _EngineCache()
    cache.bind(election, overspend)
    path = cache.levels
    # (candidate, supporters, their utilities or None) in ascending id
    # order, so that ties keep the smaller id.
    pool = []
    for c in cols:
        if c < m:
            supporters, u = cache.column(c)
            if supporters.size:
                pool.append((c, supporters, u))
    rounds = []
    with np.errstate(divide="ignore", invalid="ignore"):
        while len(rounds) < k:
            r = len(rounds)
            if r == len(path):
                path.append(_PathLevel(path[-1].after if path else np.full(n, k / n)))
            level = path[r]
            budgets, keys = level.budgets, level.keys
            best = None  # ((tier, rate), pool index)
            for index, (c, supporters, u) in enumerate(pool):
                if c in keys:
                    key = keys[c]
                else:
                    key = keys[c] = _round_key(budgets[supporters], u, overspend)
                if key is not None and (best is None or key < best[0]):
                    best = (key, index)
            if best is None:
                break
            key, index = best
            c, supporters, u = pool.pop(index)
            if level.round is None or level.round.candidate != c:
                del path[r + 1 :]
                payments, level.after = _charge(budgets, supporters, u, key)
                level.round = MesRound(c, key[1], tuple(payments))
            rounds.append(level.round)
    elected = {r.candidate for r in rounds}
    completion = ()
    if len(rounds) < k:
        remaining = [c for c in cols if c not in elected]
        remaining.sort(key=lambda c: (-utilities[:, c].sum() if c < m else 0.0, c))
        completion = tuple(remaining[: k - len(rounds)])
    return frozenset(elected | set(completion)), MesTrace(tuple(rounds), completion)


def equal_shares_subset(election, candidates, cache=None):
    """Run the equal-shares engine on a candidate subset of an election.

    `candidates` are original indices plus optional dummy sentinels: any id
    at or beyond num_candidates stands for a zero-utility dummy. Columns are
    taken in ascending id order, so index tie-breaking matches the full
    election and dummies (largest ids, zero total utility) can only enter via
    completion, after every real candidate. `cache`, an `_EngineCache` the
    caller keeps between calls on this election with this rule, lets each
    call reuse the supporter pools built and the rounds solved by earlier
    ones (see `_equal_shares_engine`); a cache used with another election or
    with `bounded_overspending_subset` raises ValueError. Returns (members,
    trace) in the caller's id space.
    """
    return _equal_shares_engine(election, sorted(candidates), False, cache)


def bounded_overspending_subset(election, candidates, cache=None):
    """As equal_shares_subset, with the bounded-overspending engine."""
    return _equal_shares_engine(election, sorted(candidates), True, cache)


def mes(election):
    """Method of equal shares with utilitarian completion.

    Voters start with k/n budget; a candidate c is rho-affordable when
    sum_i min(b_i, rho * u_i(c)) >= 1. Each round elects the unelected
    candidate with the smallest such rho (ties toward the smaller index) and
    charges each voter min(b_i, rho * u_i(c)). When nothing is affordable,
    utilitarian completion adds candidates by descending total utility (ties
    toward the smaller index) until k members are chosen.

    Returns
    -------
    (Committee, MesTrace)
        The trace comes beside the committee; the committee's audit is empty.
    """
    members, trace = _equal_shares_engine(election, range(election.num_candidates), False)
    return Committee(members), trace


def bos(election):
    """Equal shares with bounded overspending, utilitarian completion.

    Rounds where some candidate is exactly affordable behave like `mes`.
    When no candidate is affordable, the supporters of the candidate with the
    best scaled rate empty their remaining budgets to buy it (overspending:
    the shortfall between their total budget and the unit price is waived).
    Coincides with `mes` on every instance where each round's selected
    candidate is exactly affordable.

    Returns
    -------
    (Committee, MesTrace)
        As for `mes`, the committee's audit is empty.
    """
    members, trace = _equal_shares_engine(election, range(election.num_candidates), True)
    return Committee(members), trace


def utilitarian_topk(election):
    """The k candidates with the largest total utility, ties by smaller index.
    Totals are exact sums (math.fsum), so equal totals tie in any voter order."""
    sums = [math.fsum(column) for column in election.utilities.T]
    ranked = sorted(range(election.num_candidates), key=lambda c: (-sums[c], c))
    return Committee(frozenset(ranked[: election.committee_size]))


def nash_welfare(election, committee):
    """Nash welfare of a committee: sum_i log(1 + u_i(W)), natural log."""
    sat = satisfaction(election, committee)
    return float(np.log1p(sat).sum())


def nash_optimum_bruteforce(election):
    """Exhaustive Nash-welfare maximizer over all size-k committees.

    Enumeration is lexicographic over index combinations and ties keep the
    lexicographically smallest member set. Instances with more than
    ENUMERATION_CAP combinations are rejected.

    Returns
    -------
    (Committee, float)
    """
    m, k = election.num_candidates, election.committee_size
    total = math.comb(m, k)
    if total > ENUMERATION_CAP:
        raise InstanceTooLargeError(
            f"C({m},{k}) = {total} committees exceeds the enumeration cap of {ENUMERATION_CAP}"
        )
    utilities = election.utilities
    best_val = -1.0
    best_combo = None
    combos = itertools.combinations(range(m), k)
    while True:
        chunk = list(itertools.islice(combos, 4096))
        if not chunk:
            break
        idx = np.asarray(chunk)
        sats = utilities[:, idx].sum(axis=2)
        vals = np.log1p(sats).sum(axis=0)
        j = int(np.argmax(vals))
        if vals[j] > best_val:
            best_val = float(vals[j])
            best_combo = chunk[j]
    return Committee(frozenset(best_combo)), best_val
