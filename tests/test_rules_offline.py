import math
import struct
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from streamelect import (
    ArrivalOrder,
    Committee,
    Decision,
    Election,
    InstanceTooLargeError,
    bos,
    bounded_overspending_subset,
    check_ejr_bruteforce,
    equal_shares_subset,
    greedy_budgeting,
    mes,
    nash_optimum_bruteforce,
    nash_welfare,
    random_order,
    satisfaction,
    seeded_rng,
    utilitarian_topk,
)
from streamelect import rules_offline
from streamelect.rules_offline import PAY_EPS, EngineCache, _charge, _rho, _unit_rho

from conftest import random_approval_election, random_cardinal_election, showcase_election


def reference_exact_rho(budgets, column, supporters):
    """The voter-by-voter rho solve that `_rho` replaces, kept as its
    oracle: supporters sorted by b_i/u_i with Python's stable sort, then
    walked one segment at a time. Returns (rho, payments over all voters)."""
    order = sorted(supporters, key=lambda i: budgets[i] / column[i])
    paid = 0.0
    util_rest = float(column[order].sum()) if len(order) else 0.0
    rho = None
    for i in order:
        candidate_rho = (1.0 - paid) / util_rest
        if candidate_rho * column[i] <= budgets[i]:
            rho = candidate_rho
            break
        paid += budgets[i]
        util_rest -= column[i]
    if rho is None:
        # Total budget is within PAY_EPS below 1: everyone pays their all.
        rho = max(budgets[i] / column[i] for i in order)
    payments = np.zeros(len(budgets))
    payments[supporters] = np.minimum(budgets[supporters], rho * column[supporters])
    return rho, payments


def solve_and_charge(budgets, column, supporters):
    """`_rho` on the supporters, then the engine's purchase at that rate:
    (rho, payments over all voters), as `reference_exact_rho` returns."""
    u = column[supporters]
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = _rho(budgets[supporters], u)
    payments, _ = _charge(budgets, supporters, u, (0, rho))
    return rho, payments


UTILITY_VALUES = {
    "approval": st.sampled_from([0.0, 1.0]),
    "repeated": st.sampled_from([0.0, 0.5, 2.0]),
    "cardinal": st.one_of(st.just(0.0), st.floats(1e-6, 10.0)),
}


@st.composite
def rho_instances(draw):
    """(budgets, column, supporters) with zero and tied budgets, 0/1,
    repeated or arbitrary utilities, and the supporters' budgets rescaled to
    total at least 1 or just below it (the everyone-pays-all fallback)."""
    size = draw(st.integers(1, 40))
    budget = st.one_of(st.sampled_from([0.0, 0.1, 0.25, 0.4]), st.floats(1e-6, 1.0))
    budgets = np.array(draw(st.lists(budget, min_size=size, max_size=size)))
    values = UTILITY_VALUES[draw(st.sampled_from(sorted(UTILITY_VALUES)))]
    column = np.array(draw(st.lists(values, min_size=size, max_size=size)))
    supporters = np.flatnonzero(column > 0.0)
    assume(supporters.size > 0)
    total = budgets[supporters].sum()
    assume(total > 0.0)
    just_below_one = st.sampled_from([1 - 1e-12, 1 - 1e-10, 1 - PAY_EPS])
    scale = draw(st.one_of(st.floats(1.0, 4.0), just_below_one))
    return budgets * (scale / total), column, supporters


@st.composite
def large_rho_pools(draw):
    """(budgets, utilities) of 1 to 1,500 supporters, sizes at which numpy's
    default argsort runs its SIMD kernel. Up to 40 drawn (ratio, utility)
    pairs, zero ratios of both signs among them, are repeated to the drawn
    size and shuffled, and each supporter's utility is scaled by its own
    power of two, with the budget set to ratio * utility. Scaling by a power
    of two is exact, so the supporters of a pair tie exactly on b/u while
    their budgets differ, as (0.1, 1) and (0.2, 2) do, and the order of a
    tie decides the bits of the walk's partial sums. The budgets are
    rescaled, which keeps ties, to total at least 1 or to lie in
    [1 - PAY_EPS, 1), where the solve falls back to the largest ratio."""
    ratio = st.one_of(st.sampled_from([0.0, -0.0, 0.05, 0.1, 0.25]), st.floats(1e-6, 1.0))
    pairs = draw(st.lists(st.tuples(ratio, st.floats(1e-3, 10.0)), min_size=1, max_size=40))
    size = draw(st.integers(1, 1500))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    r, scale = np.resize(np.array(pairs), (size, 2))[rng.permutation(size)].T
    u = scale * 2.0 ** rng.integers(-1, 3, size)
    b = r * u
    total = b.sum()
    assume(total > 0.0)
    below_one = st.sampled_from([1 - 1e-12, 1 - 1e-10, 1 - PAY_EPS / 2])
    b = b * (draw(st.one_of(st.floats(1.0, 4.0), below_one)) / total)
    assume(b.sum() >= 1.0 - PAY_EPS)
    return b, u


def scaled_pool(b, u, budget):
    """The pool (b, u) with its budgets rescaled to total `budget`."""
    return b * (budget / b.sum()), u


# Every ratio is 0.002, above the first segment's 1 / 1,500.
FIRST_SEGMENT_FITS = scaled_pool(np.tile([0.002, 0.004], 500), np.tile([1.0, 2.0], 500), 3.0)
# Ratios 0.0, -0.0 and twice 0.001 from different (b, u), with a total
# budget just under 1.
EVERYONE_PAYS_ALL = scaled_pool(
    np.tile([0.0, -0.0, 0.001, 0.002], 500), np.tile([1.0, 1.0, 1.0, 2.0], 500), 1 - 1e-10
)
# 70,000 supporters, too many for 16-bit ranks.
WIDE_RANK_POOL = scaled_pool(
    np.tile([-0.0, 0.0, 1e-5, 2e-5, 3e-5], 14_000), np.tile([1.0, 2.0, 1.0, 2.0, 4.0], 14_000), 1.5
)


class TestExactRho:
    @given(rho_instances())
    @example((np.array([1.5]), np.array([3.0]), np.array([0])))
    @example((np.array([0.3, 1.5, 0.0]), np.array([0.0, 2.5, 0.0]), np.array([1])))
    @settings(max_examples=400, deadline=None)
    def test_matches_voter_walk_exactly(self, instance):
        budgets, column, supporters = instance
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            expected_rho, expected_payments = reference_exact_rho(budgets, column, supporters)
        rho, payments = solve_and_charge(budgets, column, supporters)
        assert rho == expected_rho
        assert np.array_equal(payments, expected_payments)

    @given(large_rho_pools())
    @example(FIRST_SEGMENT_FITS)
    @example(EVERYONE_PAYS_ALL)
    @example(WIDE_RANK_POOL)
    @settings(max_examples=150, deadline=None)
    def test_large_tied_pools_match_voter_walk_bit_for_bit(self, pool):
        b, u = pool
        supporters = np.arange(b.size)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            expected_rho, expected_payments = reference_exact_rho(b, u, supporters)
        rho, payments = solve_and_charge(b, u, supporters)
        assert bits(rho) == bits(expected_rho)
        assert np.array_equal(payments, expected_payments)

    def test_pool_examples_take_the_paths_they_name(self):
        b, u = FIRST_SEGMENT_FITS
        order = (b / u).argsort(kind="stable")
        assert (1.0 / u[order].sum()) * u[order[0]] <= b[order[0]]
        b, u = EVERYONE_PAYS_ALL
        assert 1.0 - PAY_EPS <= b.sum() < 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            assert _rho(b, u) == (b / u).max()
        b, _ = WIDE_RANK_POOL
        assert np.min_scalar_type(b.size) == np.uint32

    def test_rules_warn_nothing_when_rest_rounds_to_zero(self):
        # Candidate 0's utility sum 1 + 1e-17 rounds to 1, so the remaining
        # utility after voter 0 is 0: the solve sees 0/0 past its answer.
        e = Election([[1.0, 0.0, 1.0], [1e-17, 1.0, 0.0]], 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mes(e)
            bos(e)
            greedy_budgeting(e, ArrivalOrder((0, 1, 2)))

    def test_single_supporter(self):
        rho, payments = solve_and_charge(np.array([1.5]), np.array([3.0]), np.array([0]))
        assert rho == pytest.approx(1.0 / 3.0)
        assert payments[0] == pytest.approx(1.0)

    def test_two_supporters_unsaturated(self):
        # min(1, 2 rho) + min(0.5, rho) = 1 solves at rho = 1/3.
        rho, payments = solve_and_charge(
            np.array([1.0, 0.5]), np.array([2.0, 1.0]), np.array([0, 1])
        )
        assert rho == pytest.approx(1.0 / 3.0)
        assert payments[0] == pytest.approx(2.0 / 3.0)
        assert payments[1] == pytest.approx(1.0 / 3.0)

    def test_saturation_kicks_in(self):
        # Voter 1 saturates at 0.2, the rest falls on voter 0.
        rho, payments = solve_and_charge(
            np.array([2.0, 0.2]), np.array([1.0, 1.0]), np.array([0, 1])
        )
        assert rho == pytest.approx(0.8)
        assert payments[0] == pytest.approx(0.8)
        assert payments[1] == pytest.approx(0.2)

    def test_exactly_affordable_at_full_budgets(self):
        rho, payments = solve_and_charge(
            np.array([0.5, 0.5]), np.array([1.0, 1.0]), np.array([0, 1])
        )
        assert rho == pytest.approx(0.5)
        assert payments.sum() == pytest.approx(1.0)

    def test_full_budget_fallback_under_eps_shortfall(self):
        # Total budget 1 - 1e-10: everyone pays their whole budget.
        budgets = np.array([0.5, 0.5 - 1e-10])
        rho, payments = solve_and_charge(budgets, np.array([1.0, 1.0]), np.array([0, 1]))
        assert rho == pytest.approx(0.5)
        assert payments[0] == pytest.approx(0.5)
        assert payments[1] == pytest.approx(0.5)


def bits(x):
    """The IEEE-754 bytes of a float, so that 0.0 and -0.0 differ."""
    return struct.pack("<d", x)


@st.composite
def unit_budgets(draw):
    """Supporter budgets of a 0/1 column: 1 to 300 of them, past the 8
    elements from which numpy unrolls `sum`, with tied budgets and depleted
    ones of 0.0 and -0.0, rescaled to total at least 1 or to lie in
    [1 - PAY_EPS, 1), where the solve falls back to the largest budget.
    Up to 40 drawn values are repeated to the drawn size and shuffled, which
    keeps large examples cheap to draw and ties common."""
    budget = st.one_of(st.sampled_from([0.0, -0.0, 0.1, 0.25]), st.floats(1e-6, 1.0))
    values = draw(st.lists(budget, min_size=1, max_size=40))
    size = draw(st.integers(1, 300))
    shuffle = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(size)
    b = np.resize(np.array(values), size)[shuffle]
    total = b.sum()
    assume(total > 0.0)
    below_one = st.sampled_from([1 - 1e-12, 1 - 1e-10, 1 - PAY_EPS / 2])
    b = b * (draw(st.one_of(st.floats(1.0, 4.0), below_one)) / total)
    assume(b.sum() >= 1.0 - PAY_EPS)
    return b


class TestUnitRho:
    @given(unit_budgets())
    @example(np.array([1 - PAY_EPS / 2]))
    @example(np.array([0.0, -0.0, 0.5, 0.5 - 1e-10]))
    @example(np.full(300, 1.0 / 300))
    @example(np.concatenate((np.full(8, -0.0), np.full(8, 0.125))))
    @settings(max_examples=300, deadline=None)
    def test_matches_rho_and_voter_walk_bit_for_bit(self, b):
        s = b.size
        ones = np.ones(s)
        with np.errstate(divide="ignore", invalid="ignore"):
            expected = _rho(b, ones)
        walked, _ = reference_exact_rho(b, ones, np.arange(s))
        assert bits(_unit_rho(b)) == bits(expected) == bits(walked)


def reference_greedy(election, order):
    """Greedy budgeting written out on its own, charging each hire with the
    voter walk at unit utilities: the oracle for greedy's use of the
    engine's purchase step. Returns (members, audit)."""
    n, m, k = election.num_voters, election.num_candidates, election.committee_size
    budgets = np.full(n, k / n)
    members, audit = [], []
    for position, c in enumerate(order.permutation, start=1):
        if len(members) == k:
            audit.append(Decision(position, c, False, "committee-full"))
        elif m - position + 1 == k - len(members):
            members.append(c)
            audit.append(Decision(position, c, True, "safeguard"))
        else:
            supporters = np.flatnonzero(election.utilities[:, c] > 0.0)
            if supporters.size and budgets[supporters].sum() >= 1.0 - PAY_EPS:
                _, payments = reference_exact_rho(budgets, np.ones(n), supporters)
                budgets = np.maximum(budgets - payments, 0.0)
                members.append(c)
                paid = tuple((int(i), float(payments[i])) for i in supporters)
                audit.append(Decision(position, c, True, "affordable", payments=paid))
            else:
                audit.append(Decision(position, c, False, "insufficient-budget"))
    return frozenset(members), tuple(audit)


class TestGreedyPurchase:
    @given(
        seed=st.integers(0, 10_000),
        sampler=st.sampled_from([random_approval_election, random_cardinal_election]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_voter_walk_purchases(self, seed, sampler):
        rng = seeded_rng(seed)
        e = sampler(rng, max_voters=30, max_candidates=12, max_k=6)
        order = random_order(e.num_candidates, int(rng.integers(0, 10_000)))
        committee = greedy_budgeting(e, order)
        assert (committee.members, committee.audit) == reference_greedy(e, order)


# Columns 0-2 each total exactly 5.5, though numpy's column sum of this
# row-major matrix reads 5.500000000000001 for column 2.
FLOAT_TIE = Election(
    [
        list(row)
        for row in zip(
            [i / 10 for i in range(1, 11)],
            [0.8, 0.6, 0.5, 0.3, 1.0, 0.7, 0.2, 0.4, 0.1, 0.9],
            [0.2, 0.9, 0.3, 0.7, 0.1, 1.0, 0.6, 0.8, 0.4, 0.5],
            [0.0] * 10,
        )
    ],
    2,
)

# Equal-shares rounds elect 0 and 3, leaving one seat to completion. Columns
# 1 and 2 both total exactly 1.5, though a left-to-right float sum of column
# 2 reads 1.5000000000000002.
COMPLETION_TIE = Election(
    [[2, 0.5, 1, 0], [0, 0, 0.3, 0.5], [0.5, 1, 0, 1], [1, 0, 0.1, 1], [1, 0, 0.1, 0]], 3
)


class TestMes:
    def test_showcase_committee(self, showcase):
        committee, trace = mes(showcase)
        assert committee.sorted_members() == (2, 3, 5)
        assert [(r.candidate, r.rho) for r in trace.rounds] == [
            (3, pytest.approx(1.0 / 3.0)),
            (2, pytest.approx(0.5)),
        ]
        assert trace.completion_added == (5,)
        assert trace.core_members() == frozenset({2, 3})

    def test_showcase_k2(self, showcase_k2):
        committee, trace = mes(showcase_k2)
        assert committee.sorted_members() == (2, 3)
        assert trace.completion_added == ()

    def test_payments_within_budgets(self):
        rng = seeded_rng(11)
        for _ in range(40):
            e = random_approval_election(rng)
            _, trace = mes(e)
            spent = np.zeros(e.num_voters)
            for rnd in trace.rounds:
                vector = np.asarray(rnd.payments)
                spent += vector
                assert vector.sum() == pytest.approx(1.0)
            assert np.all(spent <= e.committee_size / e.num_voters + PAY_EPS)

    def test_exact_committee_size(self):
        rng = seeded_rng(12)
        for _ in range(60):
            e = random_cardinal_election(rng)
            committee, _ = mes(e)
            assert len(committee.members) == e.committee_size

    def test_tie_breaks_to_smaller_index(self):
        # Two identical single-supporter candidates: same rho, pick index 0.
        e = Election([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]], 2)
        _, trace = mes(e)
        assert trace.rounds[0].candidate == 0

    def test_cardinal_core_can_fail_ejr(self):
        # The core satisfies exact EJR on approval ballots only (see
        # tests/test_axioms.py::TestLattice); on these cardinal ballots
        # neither the core nor the completed committee reaches voter 1's
        # cohesive demand of 2.169 for candidate 3. Both satisfy EJR up to
        # one project, the guarantee on any ballots.
        e = Election([[0, 2.38, 2.381, 0], [1.498, 1.829, 0, 2.169]], 2)
        committee, trace = mes(e)
        assert committee.sorted_members() == (1, 2)
        assert trace.core_members() == frozenset({1})
        for outcome in (committee, Committee(trace.core_members())):
            assert not check_ejr_bruteforce(e, outcome).satisfied
            assert check_ejr_bruteforce(e, outcome, gamma=1).satisfied

    def test_completion_breaks_an_exact_tie_by_index(self):
        committee, trace = mes(COMPLETION_TIE)
        assert [r.candidate for r in trace.rounds] == [0, 3]
        assert trace.completion_added == (1,)
        assert committee == utilitarian_topk(COMPLETION_TIE)


class TestBos:
    def test_showcase_committee(self, showcase):
        committee, trace = bos(showcase)
        assert committee.sorted_members() == (2, 3, 5)
        # The third seat is filled in-round by overspending, not completion.
        assert [r.candidate for r in trace.rounds] == [3, 2, 5]
        assert trace.completion_added == ()

    def test_matches_mes_when_affordable(self):
        rng = seeded_rng(13)
        checked = 0
        for _ in range(1500):
            if checked >= 100:
                break
            e = random_approval_election(rng)
            m_committee, m_trace = mes(e)
            if m_trace.completion_added:
                continue
            b_committee, b_trace = bos(e)
            assert b_committee.members == m_committee.members
            assert [r.candidate for r in b_trace.rounds] == [
                r.candidate for r in m_trace.rounds
            ]
            checked += 1
        assert checked >= 100

    def test_engineered_exact_affordability(self):
        # Blocks of k/n-budget voters each exactly covering one candidate.
        for k, per in ((2, 3), (3, 4), (4, 2)):
            n = k * per
            m = k + 2
            matrix = np.zeros((n, m))
            for c in range(k):
                matrix[per * c : per * (c + 1), c] = 1.0
            e = Election(matrix, k)
            m_committee, m_trace = mes(e)
            b_committee, _ = bos(e)
            assert m_trace.completion_added == ()
            assert m_committee.members == b_committee.members == frozenset(range(k))

    def test_exact_committee_size(self):
        rng = seeded_rng(14)
        for _ in range(60):
            e = random_cardinal_election(rng)
            committee, _ = bos(e)
            assert len(committee.members) == e.committee_size


class TestUtilitarian:
    def test_showcase(self, showcase):
        assert utilitarian_topk(showcase).sorted_members() == (0, 3, 5)

    def test_showcase_k2(self, showcase_k2):
        assert utilitarian_topk(showcase_k2).sorted_members() == (3, 5)

    def test_tie_prefers_smaller_index(self):
        e = Election([[1.0, 1.0, 1.0, 0.0]], 2)
        assert utilitarian_topk(e).sorted_members() == (0, 1)

    def test_exact_tie_of_float_totals(self):
        assert utilitarian_topk(FLOAT_TIE).sorted_members() == (0, 1)


@st.composite
def tie_prone_elections(draw):
    """A seeded election with n <= 9 and m <= 8 on 0/1 ballots or on the
    one-decimal grid {0, .1, .3, .5, 1, 2}, where columns with equal exact
    totals are common."""
    rng = seeded_rng(draw(st.integers(0, 10_000)))
    n, m = int(rng.integers(1, 10)), int(rng.integers(3, 9))
    grid = [0.0, 1.0] if draw(st.booleans()) else [0.0, 0.1, 0.3, 0.5, 1.0, 2.0]
    return Election(rng.choice(grid, (n, m)), int(rng.integers(2, m)))


class TestRanking:
    @given(tie_prone_elections())
    @example(FLOAT_TIE)
    @settings(max_examples=300, deadline=None)
    def test_orders_by_exact_totals(self, e):
        # The exact sum of each column's floats, as a Fraction, rounded once.
        totals = [float(sum(map(Fraction, column.tolist()))) for column in e.utilities.T]
        assert e.ranking == tuple(sorted(range(e.num_candidates), key=lambda c: (-totals[c], c)))

    @given(tie_prone_elections(), st.integers(0, 10_000))
    @example(FLOAT_TIE, 0)
    @settings(max_examples=300, deadline=None)
    def test_ignores_the_voters_order(self, e, seed):
        rows = seeded_rng(seed).permutation(e.num_voters)
        assert Election(e.utilities[rows], e.committee_size).ranking == e.ranking

    @given(tie_prone_elections(), st.integers(0, 10_000))
    @example(COMPLETION_TIE, 0)
    @settings(max_examples=300, deadline=None)
    def test_completion_takes_the_first_open_ids(self, e, seed):
        everyone = range(e.num_candidates)
        draws = seeded_rng(seed).random(e.num_candidates)
        subset = [c for c in everyone if draws[c] < 0.7]
        runs = [(everyone, mes(e)[1]), (everyone, bos(e)[1])]
        runs += [(subset, rule(e, subset)[1]) for rule in (equal_shares_subset, bounded_overspending_subset)]
        for cols, trace in runs:
            open_ids = [c for c in e.ranking if c in cols and c not in trace.core_members()]
            assert trace.completion_added == tuple(open_ids[: e.committee_size - len(trace.rounds)])


class TestNash:
    def test_welfare_value(self, showcase):
        w = nash_welfare(showcase, frozenset({2, 3, 5}))
        assert w == pytest.approx(math.log(3.0) + math.log(7.0))

    def test_empty_committee_is_zero(self, showcase):
        assert nash_welfare(showcase, frozenset()) == 0.0

    def test_bruteforce_showcase(self, showcase):
        committee, value = nash_optimum_bruteforce(showcase)
        assert committee.sorted_members() == (2, 3, 5)
        assert value == pytest.approx(math.log(3.0) + math.log(7.0))

    def test_bruteforce_matches_enumeration(self):
        rng = seeded_rng(15)
        from itertools import combinations

        for _ in range(20):
            e = random_cardinal_election(rng, max_voters=5, max_candidates=7)
            best, value = nash_optimum_bruteforce(e)
            manual = max(
                (nash_welfare(e, frozenset(c)), tuple(c))
                for c in combinations(range(e.num_candidates), e.committee_size)
            )
            assert value == pytest.approx(manual[0])
            assert nash_welfare(e, best.members) == pytest.approx(manual[0])

    def test_tie_keeps_lexicographically_smallest(self):
        e = Election([[1.0, 1.0, 1.0]], 2)
        committee, _ = nash_optimum_bruteforce(e)
        assert committee.sorted_members() == (0, 1)

    def test_enumeration_cap(self):
        matrix = np.ones((2, 60))
        e = Election(matrix, 25)
        with pytest.raises(InstanceTooLargeError):
            nash_optimum_bruteforce(e)

    @given(seed=st.integers(0, 5_000))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_members(self, seed):
        rng = seeded_rng(seed)
        e = random_cardinal_election(rng)
        members = list(
            int(c)
            for c in rng.choice(e.num_candidates, size=e.committee_size, replace=False)
        )
        full = nash_welfare(e, frozenset(members))
        partial = nash_welfare(e, frozenset(members[:-1]))
        assert full >= partial - 1e-12


class TestSubsetRestriction:
    def test_subset_of_winners_only(self, showcase):
        members, _ = equal_shares_subset(showcase, (0, 1, 2, 3))
        assert members <= {0, 1, 2, 3}
        assert len(members) == 3

    @pytest.mark.parametrize("rule", [equal_shares_subset, bounded_overspending_subset])
    @pytest.mark.parametrize(
        "candidates, offending",
        [((0, 0, 1), [0]), ((-1, 0, 1, 2), [-1]), ((3, 5, 6, 7), [6, 7]), ((2, 9, 2), [9, 2])],
    )
    def test_refuses_repeated_or_foreign_ids(self, showcase, rule, candidates, offending):
        # Unchecked, (0, 0, 1) would buy candidate 0 twice and leave a seat
        # empty, and -1 would read candidate 5's column.
        with pytest.raises(ValueError, match=rf"distinct ids in 0\.\.5; offending ids \{offending}"):
            rule(showcase, candidates)


@st.composite
def subset_replays(draw):
    """An approval or cardinal election and a sequence of subsets of its
    candidates. Each subset after the first either swaps one id of the
    previous one, as a displacement step does, or is drawn afresh."""
    rng = seeded_rng(draw(st.integers(0, 10_000)))
    sampler = draw(st.sampled_from([random_approval_election, random_cardinal_election]))
    e = sampler(rng)
    ids = st.integers(0, e.num_candidates - 1)
    subset = draw(st.sets(ids, min_size=1))
    calls = [subset]
    for _ in range(draw(st.integers(1, 12))):
        if draw(st.booleans()):
            out = draw(st.sampled_from(sorted(subset)))
            subset = (subset - {out}) | {draw(ids)}
        else:
            subset = draw(st.sets(ids, min_size=1))
        calls.append(subset)
    return e, calls


class TestSharedPath:
    @given(subset_replays(), st.sampled_from([equal_shares_subset, bounded_overspending_subset]))
    @settings(max_examples=300, deadline=None)
    def test_replay_matches_fresh_calls(self, replay, rule):
        e, calls = replay
        cache = EngineCache()
        entries = {}
        solved = 0
        for subset in calls:
            with mock.patch.object(
                rules_offline, "_round_key", wraps=rules_offline._round_key
            ) as round_key:
                members, trace = rule(e, subset, cache)
            solved += round_key.call_count
            fresh_members, fresh_trace = rule(e, subset)
            assert members == fresh_members
            assert trace.completion_added == fresh_trace.completion_added
            assert [(r.candidate, r.rho, r.payments) for r in trace.rounds] == [
                (r.candidate, r.rho, r.payments) for r in fresh_trace.rounds
            ]
            assert len(cache.levels) <= e.committee_size
            # A column's pool entry is built once and kept for the cache's life.
            for c in subset:
                assert cache.pool[c] is entries.setdefault(c, cache.pool[c])
        # Each key is solved once per winner prefix and column, and kept
        # when the path drops the level that solved it.
        assert solved == sum(map(len, cache.keys.values()))
        assert set(cache.pool) == set(entries)
        for c, (supporters, u) in cache.pool.items():
            column = e.utilities[:, c]
            assert np.array_equal(supporters, np.nonzero(column > 0.0)[0])
            assert (u is None) == bool((column[supporters] == 1.0).all())

    @pytest.mark.parametrize(
        "rule, other_rule",
        [
            (equal_shares_subset, bounded_overspending_subset),
            (bounded_overspending_subset, equal_shares_subset),
        ],
    )
    def test_cache_serves_one_election_and_one_engine(self, showcase, rule, other_rule):
        cache = EngineCache()
        rule(showcase, (0, 1, 2, 3), cache)
        with pytest.raises(ValueError, match="one election and one rule"):
            other_rule(showcase, (0, 1, 2, 3), cache)
        with pytest.raises(ValueError, match="one election and one rule"):
            rule(showcase_election(), (0, 1, 2, 3), cache)
        members, _ = rule(showcase, (0, 1, 2, 3), cache)
        assert members == rule(showcase, (0, 1, 2, 3))[0]
