"""The four streaming committee rules.

Each rule consumes the arrival stream of an election, decides hire or reject
irrevocably at every position, and returns a Committee of exactly k members
whose audit holds one Decision per arrival position. Greedy, online-mes and
online-bos share one seating loop, `_seat`: whenever the number of remaining
arrivals equals the number of open seats, everyone still in the stream is
hired as `safeguard`. Online-nash needs no safeguard, because each of its k
segments hires exactly one candidate.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .core import Committee, Decision, check_int, check_order, stream
from .rules_offline import (
    EngineCache,
    _charge,
    _round_key,
    bounded_overspending_subset,
    equal_shares_subset,
)


def _exploration_length(m, exploration):
    """Exploration-phase length t of the displacement rules: `exploration`,
    or by default floor(m/e), the length that maximizes the hiring
    probability of each reference winner. It must be an integer in [0, m)."""
    t = int(m / math.e) if exploration is None else exploration
    check_int("exploration", t)
    if not 0 <= t < m:
        raise ValueError(f"exploration length must lie in [0, m), got t={t} for m={m}")
    return t


def _seat(election, order, decide, snapshot=lambda: None):
    """The seating loop of greedy and the displacement rules: once k members
    are hired, every later arrival is rejected as `committee-full`; while the
    remaining arrivals equal the open seats, each is hired as `safeguard`.
    `decide(position, candidate, column)` returns the Decision on any other
    arrival, and `snapshot()` the running sample recorded on the two
    seating entries.
    """
    m = election.num_candidates
    k = election.committee_size
    members = []
    audit = []
    for position, c, column in stream(election, order):
        full = len(members) == k
        if full or m - position + 1 == k - len(members):
            reason = "committee-full" if full else "safeguard"
            decision = Decision(position, c, not full, reason, sample=snapshot())
        else:
            decision = decide(position, c, column)
        if decision.hired:
            members.append(c)
        audit.append(decision)
    return Committee(frozenset(members), tuple(audit))


def greedy_budgeting(election, order):
    """Pay-as-you-go hiring against equal voter budgets.

    Every voter starts with k/n. An arriving candidate is hired if its
    supporters (positive utility) jointly hold at least the unit price, which
    they then pay with the equal-or-all split: each supporter pays
    min(b_i, lam) for the lam solving sum min(b_i, lam) = 1. Otherwise the
    candidate is rejected. This is the purchase step of the equal-shares
    engine (`rules_offline._round_key` and `_charge`) with unit utilities,
    passed as None, so rho is solved by the engine's exact unit kernel
    `_unit_rho` whatever the column's own values.

    Returns
    -------
    Committee with one Decision per arrival.
    """
    n = election.num_voters
    k = election.committee_size
    budgets = np.full(n, k / n)

    def decide(position, c, column):
        nonlocal budgets
        supporters = np.nonzero(column > 0.0)[0]
        key = _round_key(budgets[supporters], None, False)
        if key is None:
            return Decision(position, c, False, "insufficient-budget")
        payments, budgets = _charge(budgets, supporters, None, key)
        paid = tuple(zip(supporters.tolist(), payments[supporters].tolist()))
        return Decision(position, c, True, "affordable", payments=paid)

    return _seat(election, order, decide)


def _displacement_rule(election, order, exploration, subset_rule, cache=None):
    """Exploration-then-displacement scheme shared by the equal-shares and
    bounded-overspending online rules.

    The first t arrivals are observed only; the subset rule on them yields
    the reference committee, plus placeholder ids m, m+1, ... for the k - t
    seats left open when t < k. Afterwards a running sample of k candidates
    is maintained: for each arrival c, the subset rule on sample + c (the
    placeholders left out) excludes one of them. If c itself is excluded it
    is rejected and nothing changes. Otherwise c takes the excluded
    candidate's slot in the sample, and is hired exactly when the displaced
    candidate still belonged to the reference committee. Hired candidates
    never re-enter the sample.

    All subset calls of one run, the reference call included, share one
    `rules_offline.EngineCache`: `cache` when given, else a fresh one. Its
    pool builds each column's supporter index once, its winner path caches
    each round's budgets and winner, and its key tables keep every key
    solved at each winner prefix (see `rules_offline._equal_shares_engine`).
    Consecutive calls share all but one column, so each resumes the previous
    call's rounds while its winners agree and solves only the keys its
    prefix has not seen. Reuse is exact: a cached value is the output of the
    same computation on the same inputs. A cache belongs to one election and
    one subset rule, but may outlive one run: a caller that runs many orders
    of an election passes the same cache to each, and a later order reads
    the keys the earlier ones solved.
    """
    m = election.num_candidates
    k = election.committee_size
    t = _exploration_length(m, exploration)
    arrivals = order.permutation
    placeholders = frozenset(range(m, m + k - t))
    reference = running = None
    if cache is None:
        cache = EngineCache()

    def snapshot():
        return tuple(sorted(running)) if running is not None else None

    def decide(position, c, _column):
        nonlocal reference, running
        if position <= t:
            return Decision(position, c, False, "exploration")
        if running is None:
            reference = subset_rule(election, arrivals[:t], cache)[0] | placeholders
            running = set(reference)
        winners, _ = subset_rule(election, tuple(running - placeholders) + (c,), cache)
        # While a placeholder is in the sample, at most k real candidates
        # remain and all of them win, so the largest placeholder is excluded.
        excluded = max((running | {c}) - winners)
        if excluded == c:
            return Decision(position, c, False, "self-excluded", sample=snapshot())
        hired = excluded in reference
        running.remove(excluded)
        running.add(c)
        reason = "displaced-reference" if hired else "displaced-running"
        return Decision(position, c, hired, reason, sample=snapshot())

    return _seat(election, order, decide, snapshot)


def winners_memo(subset_rule):
    """The displacement scheme over `subset_rule` at the default exploration
    length, as a rule `(election, order) -> Committee` for runs of many
    orders. Its subset calls share one `functools.cache` that lives as long
    as the returned rule: each (election, candidate set) is solved once, and
    only its winners are kept. The subset rules sort their candidates, so the
    set decides the winners. No payments or engine rounds are kept, so no
    rounds are shared between calls."""
    winners = functools.cache(lambda election, key: subset_rule(election, key)[0])

    def memoised(election, candidates, _cache):
        return winners(election, frozenset(candidates)), None

    return lambda election, order: _displacement_rule(election, order, None, memoised)


def online_mes(election, order, exploration=None, cache=None):
    """Online method of equal shares: displacement against an equal-shares
    reference committee built from the first `exploration` arrivals
    (default floor(m/e)). `cache`, an `EngineCache` of this election, may be
    shared by the runs of many orders, which then reuse each other's solved
    keys; without one, the run keeps a cache of its own."""
    return _displacement_rule(election, order, exploration, equal_shares_subset, cache)


def online_bos(election, order, exploration=None, cache=None):
    """Online bounded overspending: the displacement scheme with the
    overspending-capable subroutine for both reference and comparisons.
    `cache` is as for `online_mes`, but may not serve both rules."""
    return _displacement_rule(election, order, exploration, bounded_overspending_subset, cache)


def online_nash(election, order):
    """One hire per near-equal contiguous segment, by Nash-welfare gain.

    The stream is split into k contiguous segments with sizes as equal as
    possible (the first m mod k segments get the extra candidate). In each
    segment, the first floor(size/e) arrivals are observed to set a threshold
    of max Nash welfare of already-picked plus candidate; the first later
    candidate reaching the threshold is hired, or failing that, the last
    candidate of the segment.

    A segment's gains are scored together, in one (size, n) buffer whose
    rows each sum the same n values in the same order as a per-arrival
    `np.log1p(picked_sat + column).sum()`. The scoring depends only on the
    earlier segments' picks, and each decision reads only the gains up to
    its own position: the threshold from the observed arrivals, then its own
    gain.
    """
    n = election.num_voters
    m = election.num_candidates
    k = election.committee_size
    check_order(election, order)
    base, extra = divmod(m, k)
    sizes = [base + 1] * extra + [base] * (k - extra)
    columns = election.utilities.T
    members = []
    audit = []
    picked_sat = np.zeros(n)
    start = 0
    for size in sizes:
        ids = order.permutation[start : start + size]
        block = columns[list(ids)]
        np.add(block, picked_sat, out=block)
        gains = np.log1p(block, out=block).sum(axis=1).tolist()
        observe = int(size / math.e)
        threshold = max(gains[:observe], default=-math.inf)
        picked = None
        for j, (c, gain) in enumerate(zip(ids, gains)):
            position = start + j + 1
            if picked is not None:
                audit.append(Decision(position, c, False, "segment-filled"))
            elif j < observe:
                audit.append(Decision(position, c, False, "observation"))
            elif gain >= threshold:
                picked = c
                audit.append(Decision(position, c, True, "above-threshold"))
            elif j == size - 1:
                picked = c
                audit.append(Decision(position, c, True, "segment-fallback"))
            else:
                audit.append(Decision(position, c, False, "below-threshold"))
        members.append(picked)
        picked_sat += election.utilities[:, picked]
        start += size
    return Committee(frozenset(members), tuple(audit))


def run_rule(rule_id, election, order, exploration=None, cache=None):
    """Dispatch an online rule by id: greedy, online-mes, online-bos, online-nash.
    `exploration` and `cache` (an `EngineCache` whose keys, kept by winner
    prefix, may outlive this run) are passed to online-mes and online-bos;
    the other rules have no exploration phase and no engine calls, and raise
    ValueError when either is given."""
    if rule_id in ("greedy", "online-nash"):
        if exploration is not None:
            raise ValueError(f"{rule_id} has no exploration phase")
        if cache is not None:
            raise ValueError(f"{rule_id} makes no engine calls to cache")
    if rule_id == "greedy":
        return greedy_budgeting(election, order)
    if rule_id == "online-mes":
        return online_mes(election, order, exploration, cache)
    if rule_id == "online-bos":
        return online_bos(election, order, exploration, cache)
    if rule_id == "online-nash":
        return online_nash(election, order)
    raise ValueError(f"unknown online rule: {rule_id!r}")


ONLINE_RULE_IDS = ("greedy", "online-mes", "online-bos", "online-nash")
