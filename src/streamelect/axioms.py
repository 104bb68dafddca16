"""Checkers for representation axioms over cardinal ballots, and generators
for the adversarial instances showing that no online rule can satisfy the
stronger axioms.

A group of voters S is (alpha, T)-cohesive when |S|/n >= |T|/k and every
member values each c in T at least alpha(c). Exact extended justified
representation (EJR) demands some member of every such group reach
satisfaction sum_c alpha(c); the checked relaxations divide the demand by
beta, allow topping up with gamma extra candidates, or only constrain groups
with |S|/n >= delta |T|/k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ArrivalOrder, Election, InstanceTooLargeError, members_of, satisfaction

BRUTE_FORCE_VOTER_CAP = 15

# Violations must clear this much slack, so exact boundary satisfaction
# (achieved == required up to float dust) never counts as a violation.
CHECK_EPS = 1e-9


class BallotTypeError(ValueError):
    """A checker was given ballots outside its supported type."""


@dataclass(frozen=True)
class Witness:
    """One violating cohesive group: who, over which candidates, and how far
    short the outcome falls."""

    group: tuple
    candidates: tuple
    alphas: tuple
    required: float
    achieved: float


def _witness(group, candidate, required, achieved):
    """A one-candidate witness, whose single alpha is the required level."""
    return Witness(
        group=tuple(int(i) for i in group),
        candidates=(candidate,),
        alphas=(required,),
        required=required,
        achieved=achieved,
    )


@dataclass(frozen=True)
class AxiomReport:
    """Verdict of one axiom check.

    `violating_voter_share` is the fraction of voters belonging to at least
    one witness group; `shortfall` quantifies how badly the worst-off
    witnesses miss their requirement (axiom-specific, documented per
    checker).
    """

    axiom: str
    satisfied: bool
    witnesses: tuple
    violating_voter_share: float
    shortfall: float


def _report(axiom, witnesses, num_voters, shortfall=None):
    union = set()
    for w in witnesses:
        union.update(w.group)
    if shortfall is None:
        shortfall = max((w.required - w.achieved for w in witnesses), default=0.0)
    return AxiomReport(
        axiom=axiom,
        satisfied=not witnesses,
        witnesses=tuple(witnesses),
        violating_voter_share=len(union) / num_voters,
        shortfall=float(shortfall),
    )


def check_jr(election, committee):
    """Justified representation: no candidate may be valued positively by
    n/k voters who all end up with zero satisfaction.

    Witnesses list each such candidate with its maximal violating group;
    the recorded requirement is the group's smallest positive value for the
    candidate (the largest cohesive threshold).
    """
    sat = satisfaction(election, committee)
    n, k = election.num_voters, election.committee_size
    unserved = sat == 0.0
    counts = np.count_nonzero(election.utilities[unserved] > 0.0, axis=0)
    witnesses = []
    for c in np.nonzero(counts * k >= n)[0].tolist():
        column = election.utilities[:, c]
        group = np.nonzero((column > 0.0) & unserved)[0]
        witnesses.append(_witness(group, c, float(column[group].min()), 0.0))
    return _report("jr", witnesses, n)


def check_strong_jr(election, committee):
    """Strong justified representation: for every candidate c and threshold
    alpha, if n/k voters value c at least alpha, one of them must reach
    satisfaction alpha. Every distinct positive utility in c's column is
    tried as alpha."""
    sat = satisfaction(election, committee)
    n, k = election.num_voters, election.committee_size
    witnesses = []
    for c in range(election.num_candidates):
        column = election.utilities[:, c]
        for alpha in sorted({float(v) for v in column if v > 0.0}):
            group = np.nonzero(column >= alpha)[0]
            if group.size * k < n:
                continue
            achieved = float(sat[group].max())
            if achieved < alpha - CHECK_EPS:
                witnesses.append(_witness(group, c, alpha, achieved))
    return _report("strong-jr", witnesses, n)


def check_ejr_plus_approval(election, committee):
    """EJR+ for approval ballots: a non-winner c witnesses a violation at
    level ell when ell*n/k of its approvers each approve fewer than ell
    winners.

    The reported shortfall is the mean, over voters in at least one witness
    group, of their largest deficit ell - |approved winners|; the witness
    `alphas` carry the level ell.
    """
    if not election.is_approval:
        raise BallotTypeError("EJR+ check requires approval (0/1) ballots")
    n, k = election.num_voters, election.committee_size
    approved_winners = satisfaction(election, committee)
    approvals = election.utilities == 1.0
    # counts[c, ell - 1]: approvers of c who approve fewer than ell winners.
    counts = approvals.T.astype(np.int64) @ (approved_winners[:, None] < np.arange(1, k + 1))
    pairs = counts * k >= np.arange(1, k + 1) * n
    pairs[sorted(members_of(committee))] = False
    witnesses = []
    deficits = np.zeros(n)
    for c, level in zip(*np.nonzero(pairs)):
        ell = int(level) + 1
        group = np.nonzero(approvals[:, c] & (approved_winners < ell))[0]
        witnesses.append(_witness(group, int(c), float(ell), float(approved_winners[group].max())))
        deficits[group] = np.maximum(deficits[group], ell - approved_winners[group])
    violating = deficits > 0
    shortfall = float(deficits[violating].mean()) if violating.any() else 0.0
    return _report("ejr-plus", witnesses, n, shortfall=shortfall)


def _subset_tables(utilities, achieved):
    """Size, per-candidate minimum utility and best achievement of every
    subset of the given voters, indexed by bit mask (bit i is row i).

    Each mask extends the mask without its highest bit by that one voter, so
    the tables fill one bit at a time. The empty set holds the identities
    0, +inf and -inf.
    """
    p, m = utilities.shape
    size = np.zeros(1 << p, dtype=np.int64)
    alpha = np.full((1 << p, m), np.inf)
    best = np.full(1 << p, -np.inf)
    for i in range(p):
        top = 1 << i
        size[top : 2 * top] = size[:top] + 1
        np.minimum(alpha[:top], utilities[i], out=alpha[top : 2 * top])
        np.maximum(best[:top], achieved[i], out=best[top : 2 * top])
    return size, alpha, best


def check_ejr_bruteforce(election, committee, *, beta=None, gamma=None, delta=None):
    """Exhaustive check of EJR or one of its relaxations.

    Exactly one of `beta` (>= 1), `gamma` (integer >= 0), `delta` (in (0, k])
    may be given; none means exact EJR. All non-empty voter groups S are
    enumerated; for each, alpha is the group minimum per candidate and T the
    best admissible candidate set (largest alphas first among alpha > 0), so
    the check is exact. beta=1, gamma=0 and delta=1 all coincide with exact
    EJR.

    EJR checking is coNP-complete (Aziz et al., 2017), so all 2^n groups are
    visited, and n is capped at BRUTE_FORCE_VOTER_CAP. A group is a bit mask
    over the voters. The first L = min(n, 8) voters form the low part and
    the rest the high part, and each part gets subset tables of group size,
    alpha and best achievement (`_subset_tables`). For each high mask h in
    ascending order, one block combines the whole low tables with entry h
    of the high tables, so the masks (h << L) | low, and the witnesses, come
    in ascending mask order. Working memory is O((2^L + 2^(n-L)) m): the
    block buffers are allocated once per call, and no table of all 2^n
    groups is built.

    In each block a screen sums the t_max largest alphas of every group and
    keeps the groups whose best achievement falls short by a slack wider
    than any summation-order error. Only those groups are checked exactly,
    one at a time: T ranked by (-alpha, candidate id) and the requirement
    summed as `alpha[T].sum()`, in numpy's order. So the screen never
    decides a verdict, it only skips groups that cannot violate.
    """
    relaxations = {"beta": beta, "gamma": gamma, "delta": delta}
    given = [name for name, value in relaxations.items() if value is not None]
    if len(given) > 1:
        raise ValueError("give at most one of beta, gamma, delta")
    if beta is not None and not beta >= 1:
        raise ValueError(f"beta must be at least 1, got {beta}")
    if gamma is not None and (int(gamma) != gamma or gamma < 0):
        raise ValueError(f"gamma must be a non-negative integer, got {gamma}")
    if delta is not None and not 0 < delta <= election.committee_size:
        raise ValueError(f"delta must lie in (0, k], got {delta}")
    n, m, k = election.num_voters, election.num_candidates, election.committee_size
    if n > BRUTE_FORCE_VOTER_CAP:
        raise InstanceTooLargeError(
            f"brute-force EJR enumerates 2^n groups; n={n} exceeds the cap of"
            f" {BRUTE_FORCE_VOTER_CAP}"
        )
    utilities = election.utilities
    achieved = satisfaction(election, committee)
    if gamma:
        # k < m, so a valid committee always leaves a candidate outside.
        members = members_of(committee)
        outside = [c for c in range(m) if c not in members]
        topped = np.sort(utilities[:, outside], axis=1)[:, ::-1]
        achieved = achieved + topped[:, : int(gamma)].sum(axis=1)
    divisor = beta if beta is not None else 1.0
    # Largest admissible |T| for a group of each size.
    if delta is not None:
        t_max = [int(size * k / (delta * n) + CHECK_EPS) for size in range(n + 1)]
    else:
        t_max = [(size * k) // n for size in range(n + 1)]
    last = np.minimum(t_max, m) - 1
    low = min(n, 8)
    low_size, low_alpha, low_best = _subset_tables(utilities[:low], achieved[:low])
    high_size, high_alpha, high_best = _subset_tables(utilities[low:], achieved[low:])
    lanes = np.arange(1 << low)
    sorted_alphas = np.empty_like(low_alpha)
    # totals[:, t - 1] sums each group's t largest alphas, for t up to the
    # largest |T| any group may claim.
    width = int(last.max()) + 1
    totals = np.empty((1 << low, width))
    best = np.empty_like(low_best)
    witnesses = []
    voters = np.arange(n)
    for h in range(high_size.size):
        np.minimum(low_alpha, high_alpha[h], out=sorted_alphas)
        sorted_alphas.sort(axis=1)
        np.cumsum(sorted_alphas[:, ::-1][:, :width], axis=1, out=totals)
        np.maximum(low_best, high_best[h], out=best)
        lasts = last[low_size + high_size[h]]
        # The screen's sum differs from the exact one by at most 2 m ulps of
        # the total (about 1e-14 relative at m = 64), so the relative slack
        # keeps every violating group; an all-zero alpha screens at 0 and is
        # never kept.
        screen = totals[lanes, lasts] / divisor
        kept = (lasts >= 0) & (best < screen - CHECK_EPS + 1e-12 * screen)
        for j in kept.nonzero()[0].tolist():
            mask = (h << low) | j
            rows = np.flatnonzero((mask >> voters) & 1)
            alpha = utilities[rows].min(axis=0)
            positive = np.nonzero(alpha > 0.0)[0]
            ranked = sorted(positive, key=lambda c: (-alpha[c], c))[: t_max[rows.size]]
            required = float(alpha[ranked].sum()) / divisor
            achieved_best = float(achieved[rows].max())
            if achieved_best < required - CHECK_EPS:
                witnesses.append(
                    Witness(
                        group=tuple(int(i) for i in rows),
                        candidates=tuple(int(c) for c in ranked),
                        alphas=tuple(float(alpha[c]) for c in ranked),
                        required=required,
                        achieved=achieved_best,
                    )
                )
    return _report("-".join(["ejr", *given]), witnesses, n)


CONSTRUCTION_IDS = ("beta-ejr", "ejr-gamma", "delta-ejr", "strong-jr")


# Documented arrival orders for the tuned committee sizes. Each defeats as
# many online rules as any single order of its election does (checked by
# enumerating every order at the default epsilon):
#   beta-ejr:  online-mes and online-bos (no order defeats more than 2)
#   ejr-gamma: all four rules
#   delta-ejr, strong-jr: greedy, online-mes and online-bos (at most 3)
# The remaining pairs are defeated only by other orders of the same
# election. The displacement-based rules hire decoys while their reference
# is stale and then see later arrivals self-excluded; eager budget spending
# takes the early decoys except on beta-ejr, where greedy spends every
# budget on the b-block. Committee sizes without a tuned order fall back to
# index order.
DOCUMENTED_ORDERS = {
    ("beta-ejr", 3): (3, 4, 0, 5, 1, 2),
    ("ejr-gamma", 3): (0, 3, 6, 11, 4, 1, 10, 9, 8, 7, 2, 5),
    ("delta-ejr", 2): (1, 0, 2, 3),
    ("strong-jr", 2): (0, 1, 2),
}


def make_counterexample(construction, k=2, epsilon=0.1, beta=None):
    """Build the adversarial election for a construction id.

    `construction` is one of CONSTRUCTION_IDS, `k` the committee size (at
    least 2) and `epsilon` the perturbation in (0, 1); the fixed strong-jr
    instance reads neither. `beta` (at least 1, default 2.0) shapes only the
    beta-ejr instance: b-block utility beta/k. The relaxation levels of the
    other axioms belong to `check_ejr_bruteforce`, not to the instances.

    Candidates come in an a-block followed by a b-block. The returned
    arrival order is the documented staging for the construction (see
    DOCUMENTED_ORDERS); it is part of the fixture, chosen so that as many
    online rules as one order allows elect a committee the matching checker
    rejects. The beta-ejr order defeats online-mes and online-bos; the
    delta-ejr and strong-jr orders defeat greedy, online-mes and online-bos;
    the ejr-gamma order defeats all four rules. The other rules are defeated
    only by other orders of the same election.

    Returns
    -------
    (Election, ArrivalOrder)
    """
    if construction not in CONSTRUCTION_IDS:
        raise ValueError(f"unknown construction: {construction!r}")
    if construction != "strong-jr":
        if k < 2:
            raise ValueError("constructions need k >= 2")
        if not 0 < epsilon < 1:
            raise ValueError("epsilon must lie in (0, 1)")
    if beta is not None:
        if construction != "beta-ejr":
            raise ValueError(f"beta shapes only the beta-ejr instance, not {construction}")
        if not beta >= 1:
            raise ValueError(f"beta must be at least 1, got {beta}")
    if construction == "beta-ejr":
        beta = 2.0 if beta is None else beta
        rows = np.zeros((k, 2 * k))
        for i in range(k):
            rows[i, i] = 1.0 - epsilon
            rows[i, k:] = beta / k
        election = Election(rows, k)
    elif construction == "ejr-gamma":
        rows = np.zeros((k, k * k + k))
        for i in range(k):
            for j in range(k):
                rows[i, i * k + j] = (2.0**j) * epsilon
            rows[i, k * k :] = (2.0 ** (k + 1)) * epsilon
        election = Election(rows, k)
    elif construction == "delta-ejr":
        row = np.zeros((1, 2 * k))
        for j in range(k):
            row[0, j] = 1.0 + (j + 1) * epsilon
        row[0, k:] = 1.0 + epsilon * ((k + 1) / 2 + 1 / k)
        election = Election(row, k)
    else:
        election = Election([[1.0, 0.0, 0.0], [0.0, 1.0, 2.0]], 2)
    staged = DOCUMENTED_ORDERS.get((construction, election.committee_size))
    if staged is not None:
        return election, ArrivalOrder(staged)
    return election, ArrivalOrder.identity(election.num_candidates)
