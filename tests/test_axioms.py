"""Axiom checkers and adversarial constructions."""

import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from streamelect import (
    BRUTE_FORCE_VOTER_CAP,
    ONLINE_RULE_IDS,
    ArrivalOrder,
    BallotTypeError,
    Committee,
    Election,
    InstanceTooLargeError,
    InvalidCommitteeError,
    Witness,
    check_ejr_bruteforce,
    check_ejr_plus_approval,
    check_jr,
    check_strong_jr,
    make_counterexample,
    mes,
    run_rule,
    sample,
    satisfaction,
)
from streamelect.axioms import CHECK_EPS, CONSTRUCTION_IDS, DOCUMENTED_ORDERS
from streamelect.samplers import SampleSpec, proportional_quota

from conftest import random_approval_election


def two_camps():
    # v0, v1 approve only c0; v2, v3 approve only c1
    return Election(
        [[1, 0, 0], [1, 0, 0], [0, 1, 0], [0, 1, 0]], 2
    )


@pytest.mark.parametrize(
    "checker", [check_jr, check_strong_jr, check_ejr_plus_approval, check_ejr_bruteforce]
)
@pytest.mark.parametrize(
    "members", [{0, 3}, {-1}, {0, 1, 2}], ids=["beyond-m", "negative", "k-plus-one"]
)
def test_checkers_reject_invalid_committees(checker, members):
    with pytest.raises(InvalidCommitteeError):
        checker(two_camps(), Committee(frozenset(members)))


POLARIZED = SampleSpec("polarized", 8, 6, 2, seed=3, x=0.5, q=0.5)


@pytest.mark.parametrize(
    "check",
    [
        check_jr,
        check_strong_jr,
        check_ejr_plus_approval,
        functools.partial(check_ejr_bruteforce, gamma=1),
        lambda _election, committee: proportional_quota(POLARIZED, committee),
    ],
    ids=["jr", "strong-jr", "ejr-plus", "ejr-gamma", "quota"],
)
def test_plain_iterable_committees(check):
    """A tuple of candidate indices is read like the matching Committee."""
    election = sample(POLARIZED)
    for members in ((0, 1), (3, 4), (2, 5), (5,)):
        assert check(election, members) == check(election, Committee(frozenset(members)))


class TestJr:
    def test_served_committee_passes(self, showcase):
        report = check_jr(showcase, Committee(frozenset({2, 3, 5})))
        assert report.axiom == "jr"
        assert report.satisfied
        assert report.witnesses == ()
        assert report.violating_voter_share == 0.0
        assert report.shortfall == 0.0

    def test_unserved_camp_is_a_witness(self):
        e = two_camps()
        report = check_jr(e, Committee(frozenset({1, 2})))
        assert not report.satisfied
        assert len(report.witnesses) == 1
        w = report.witnesses[0]
        assert w.group == (0, 1)
        assert w.candidates == (0,)
        assert w.required == 1.0
        assert w.achieved == 0.0
        assert report.violating_voter_share == 0.5
        assert report.shortfall == 1.0

    def test_both_camps_served(self):
        e = two_camps()
        assert check_jr(e, Committee(frozenset({0, 1}))).satisfied

    def test_cardinal_threshold_uses_group_minimum(self, showcase):
        # voter 1 alone meets the n/k quota; candidate 3 is worth 3 to them
        report = check_jr(showcase, Committee(frozenset({1})))
        assert not report.satisfied
        by_candidate = {w.candidates[0]: w for w in report.witnesses}
        assert set(by_candidate) == {0, 3, 4, 5}
        assert by_candidate[3].required == 3.0
        assert report.violating_voter_share == 0.5
        assert report.shortfall == 3.0

    def test_matches_naive_reimplementation(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            e = random_approval_election(rng)
            committee = Committee(frozenset(range(e.committee_size)))
            sat = satisfaction(e, committee)
            naive = True
            for c in range(e.num_candidates):
                group = [
                    i
                    for i in range(e.num_voters)
                    if e.utilities[i, c] > 0 and sat[i] == 0
                ]
                if len(group) * e.committee_size >= e.num_voters:
                    naive = False
            assert check_jr(e, committee).satisfied == naive


class TestStrongJr:
    # rows [[1, 0, 0], [0, 1, 2]] with k = 2: quota is one voter, so every
    # positive utility level becomes a binding threshold
    def fixture(self):
        election, _ = make_counterexample("strong-jr")
        return election

    def test_unique_satisfying_committee(self):
        e = self.fixture()
        verdicts = {
            members: check_strong_jr(e, Committee(frozenset(members))).satisfied
            for members in ((0, 1), (0, 2), (1, 2))
        }
        assert verdicts == {(0, 1): False, (0, 2): True, (1, 2): False}

    def test_witness_records_missed_level(self):
        e = self.fixture()
        report = check_strong_jr(e, Committee(frozenset({0, 1})))
        assert len(report.witnesses) == 1
        w = report.witnesses[0]
        assert w.candidates == (2,)
        assert w.alphas == (2.0,)
        assert w.required == 2.0
        assert w.achieved == 1.0
        assert report.shortfall == 1.0

    def test_jr_is_weaker(self):
        # the same committee passes plain JR: nobody is left at zero
        e = self.fixture()
        committee = Committee(frozenset({0, 1}))
        assert check_jr(e, committee).satisfied
        assert not check_strong_jr(e, committee).satisfied


class TestEjrPlusApproval:
    def test_rejects_cardinal_ballots(self, showcase):
        with pytest.raises(BallotTypeError):
            check_ejr_plus_approval(showcase, Committee(frozenset({2, 3, 5})))

    def test_ignored_camp_found(self):
        e = two_camps()
        report = check_ejr_plus_approval(e, Committee(frozenset({0, 1})))
        assert report.satisfied
        report = check_ejr_plus_approval(e, Committee(frozenset({1, 2})))
        assert not report.satisfied
        w = report.witnesses[0]
        assert w.group == (0, 1)
        assert w.candidates == (0,)
        assert w.alphas == (1.0,)
        assert report.violating_voter_share == 0.5
        assert report.shortfall == 1.0

    def test_level_two_deficit(self):
        # both voters approve {0, 1} and get neither seat
        e = Election([[1, 1, 0, 0], [1, 1, 0, 0]], 2)
        report = check_ejr_plus_approval(e, Committee(frozenset({2, 3})))
        assert not report.satisfied
        levels = {(w.candidates[0], w.alphas[0]) for w in report.witnesses}
        assert levels == {(0, 1.0), (0, 2.0), (1, 1.0), (1, 2.0)}
        assert report.shortfall == 2.0
        assert report.violating_voter_share == 1.0

    def test_winners_are_never_witnesses(self):
        e = two_camps()
        report = check_ejr_plus_approval(e, Committee(frozenset({0, 1})))
        assert report.satisfied
        assert report.witnesses == ()


class TestEjrBruteforce:
    def test_showcase_mes_committee_passes(self, showcase):
        report = check_ejr_bruteforce(showcase, Committee(frozenset({2, 3, 5})))
        assert report.axiom == "ejr"
        assert report.satisfied

    def test_singleton_group_witness(self, showcase):
        report = check_ejr_bruteforce(showcase, Committee(frozenset({0, 1})))
        assert not report.satisfied
        by_group = {w.group: w for w in report.witnesses}
        assert set(by_group) == {(0,), (1,)}
        assert by_group[(0,)].candidates == (2,)
        assert by_group[(0,)].required == 2.0
        assert by_group[(0,)].achieved == 1.0
        assert by_group[(1,)].candidates == (3,)
        assert by_group[(1,)].required == 3.0
        assert by_group[(1,)].achieved == 2.0
        assert report.violating_voter_share == 1.0
        assert report.shortfall == 1.0

    def test_beta_relaxation_halves_demand(self, showcase):
        committee = Committee(frozenset({0, 1}))
        assert not check_ejr_bruteforce(showcase, committee).satisfied
        relaxed = check_ejr_bruteforce(showcase, committee, beta=2.0)
        assert relaxed.axiom == "ejr-beta"
        assert relaxed.satisfied

    def test_gamma_credits_outside_candidates(self, showcase):
        committee = Committee(frozenset({0, 1}))
        relaxed = check_ejr_bruteforce(showcase, committee, gamma=1)
        assert relaxed.axiom == "ejr-gamma"
        assert relaxed.satisfied

    def test_delta_shrinks_group_entitlement(self, showcase):
        committee = Committee(frozenset({0, 1}))
        relaxed = check_ejr_bruteforce(showcase, committee, delta=2.0)
        assert relaxed.axiom == "ejr-delta"
        assert relaxed.satisfied

    def test_degenerate_parameters_coincide_with_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            e = random_approval_election(rng)
            committee = Committee(frozenset(range(e.committee_size)))
            exact = check_ejr_bruteforce(e, committee)
            for kwargs in ({"beta": 1.0}, {"gamma": 0}, {"delta": 1.0}):
                variant = check_ejr_bruteforce(e, committee, **kwargs)
                assert variant.satisfied == exact.satisfied
                assert [w.group for w in variant.witnesses] == [
                    w.group for w in exact.witnesses
                ]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"beta": 0.5},
            {"gamma": -1},
            {"gamma": 1.5},
            {"delta": 0.0},
            {"delta": 9.0},
            {"beta": 1.0, "gamma": 0},
        ],
    )
    def test_parameter_validation(self, showcase, kwargs):
        with pytest.raises(ValueError):
            check_ejr_bruteforce(showcase, Committee(frozenset({2, 3, 5})), **kwargs)

    def test_voter_cap(self):
        e = Election(np.ones((16, 3)), 2)
        with pytest.raises(InstanceTooLargeError):
            check_ejr_bruteforce(e, Committee(frozenset({0, 1})))


@st.composite
def outcomes(draw):
    """(election, committee) with n <= 10 and m <= 8: 0/1 ballots half the
    time, and the committee of an online rule, of `mes`, or a random k-set."""
    n, m = draw(st.integers(1, 10)), draw(st.integers(3, 8))
    k = draw(st.integers(2, m - 1))
    if draw(st.booleans()):
        value = st.sampled_from([0.0, 1.0])
    else:
        value = st.one_of(st.just(0.0), st.floats(0.01, 5.0))
    rows = draw(st.lists(st.lists(value, min_size=m, max_size=m), min_size=n, max_size=n))
    election = Election(rows, k)
    order = draw(st.permutations(range(m)))
    source = draw(st.sampled_from((*ONLINE_RULE_IDS, "mes", "random")))
    if source == "mes":
        committee, _ = mes(election)
    elif source == "random":
        committee = Committee(frozenset(order[:k]))
    else:
        committee = run_rule(source, election, ArrivalOrder(order))
    return election, committee


class TestLattice:
    """The checkers imply one another, so each is an oracle for the others.
    Strong JR => JR is left out: the strong JR checker takes its group
    maximum over every voter at the threshold, served or not.

    The `mes` core satisfies EJR on approval ballots, and on any ballots the
    core and the completed committee satisfy EJR up to one project
    (Peters, Pierczyński & Skowron, NeurIPS 2021), which `gamma=1` states:
    each voter's best non-member utility is added to their satisfaction."""

    @given(outcomes())
    @settings(max_examples=100, deadline=None)
    def test_implications(self, outcome):
        election, committee = outcome
        jr = check_jr(election, committee)
        ejr = check_ejr_bruteforce(election, committee)
        if election.is_approval:
            plus = check_ejr_plus_approval(election, committee)
            assert jr.witnesses == tuple(w for w in plus.witnesses if w.alphas == (1.0,))
            assert ejr.satisfied or not plus.satisfied
            assert jr.satisfied or not ejr.satisfied
        if ejr.satisfied:
            for relaxation in (
                {"beta": 1.0}, {"beta": 1.7}, {"gamma": 0}, {"gamma": 1},
                {"delta": 1.0}, {"delta": 1.6},
            ):
                assert check_ejr_bruteforce(election, committee, **relaxation).satisfied

    @given(outcomes())
    @settings(max_examples=100, deadline=None)
    def test_mes_up_to_one_project(self, outcome):
        election, _ = outcome
        completed, trace = mes(election)
        core = Committee(trace.core_members())
        if election.is_approval:
            assert check_ejr_bruteforce(election, core).satisfied
        for committee in (core, completed):
            assert check_ejr_bruteforce(election, committee, gamma=1).satisfied


def naive_report(witnesses, n, shortfall=None):
    """(witnesses, violating voter share, shortfall) as the checkers report
    them; the shortfall defaults to the largest required - achieved."""
    union = {i for w in witnesses for i in w.group}
    if shortfall is None:
        shortfall = max((w.required - w.achieved for w in witnesses), default=0.0)
    return tuple(witnesses), len(union) / n, float(shortfall)


def naive_jr(election, committee):
    """JR by one pass per candidate over its positive, unserved voters."""
    sat = satisfaction(election, committee)
    n, k = election.num_voters, election.committee_size
    witnesses = []
    for c in range(election.num_candidates):
        column = election.utilities[:, c]
        group = np.nonzero((column > 0.0) & (sat == 0.0))[0]
        if group.size * k >= n:
            least = float(column[group].min())
            witnesses.append(Witness(tuple(int(i) for i in group), (c,), (least,), least, 0.0))
    return naive_report(witnesses, n)


def naive_ejr_plus(election, committee):
    """EJR+ by one pass per non-member candidate and level."""
    n, k = election.num_voters, election.committee_size
    approved = satisfaction(election, committee)
    members = set(committee)
    witnesses = []
    deficits = np.zeros(n)
    for c in range(election.num_candidates):
        if c in members:
            continue
        approvers = election.utilities[:, c] == 1.0
        for ell in range(1, k + 1):
            group = np.nonzero(approvers & (approved < ell))[0]
            if group.size * k < ell * n:
                continue
            best = float(approved[group].max())
            witnesses.append(
                Witness(tuple(int(i) for i in group), (c,), (float(ell),), float(ell), best)
            )
            deficits[group] = np.maximum(deficits[group], ell - approved[group])
    violating = deficits > 0
    shortfall = float(deficits[violating].mean()) if violating.any() else 0.0
    return naive_report(witnesses, n, shortfall)


@st.composite
def ballots_and_committees(draw, approval):
    """(election, committee) with n <= 40, m <= 12, 2 <= k < m, and a
    committee of at most k candidates; 0/1 ballots when `approval`."""
    n, m = draw(st.integers(1, 40)), draw(st.integers(3, 12))
    k = draw(st.integers(2, m - 1))
    if approval:
        value = st.sampled_from([0.0, 1.0])
    else:
        value = st.one_of(st.just(0.0), st.floats(0.01, 5.0))
    election = Election(draw(arrays(np.float64, (n, m), elements=value)), k)
    members = draw(st.sets(st.integers(0, m - 1), max_size=k))
    return election, tuple(members)


def assert_reports_match(report, naive):
    witnesses, share, shortfall = naive
    assert report.witnesses == witnesses
    assert report.violating_voter_share.hex() == share.hex()
    assert report.shortfall.hex() == shortfall.hex()


class TestCheckersMatchNaiveLoops:
    """The column-wise checkers report exactly what one loop per candidate
    (and per level, for EJR+) reports: the same witnesses in the same order,
    and the same share and shortfall to the bit."""

    @given(st.booleans().flatmap(ballots_and_committees))
    @settings(max_examples=200, deadline=None)
    def test_jr(self, outcome):
        election, committee = outcome
        assert_reports_match(check_jr(election, committee), naive_jr(election, committee))

    @given(ballots_and_committees(approval=True))
    @settings(max_examples=200, deadline=None)
    def test_ejr_plus(self, outcome):
        election, committee = outcome
        report = check_ejr_plus_approval(election, committee)
        assert_reports_match(report, naive_ejr_plus(election, committee))


def naive_ejr_bruteforce(election, committee, beta=None, gamma=None, delta=None):
    """EJR and its relaxations by one pass per voter mask, in ascending mask
    order."""
    n, m, k = election.num_voters, election.num_candidates, election.committee_size
    utilities = election.utilities
    achieved = satisfaction(election, committee)
    if gamma:
        outside = [c for c in range(m) if c not in set(committee)]
        topped = np.sort(utilities[:, outside], axis=1)[:, ::-1]
        achieved = achieved + topped[:, : int(gamma)].sum(axis=1)
    divisor = beta if beta is not None else 1.0
    witnesses = []
    voters = np.arange(n)
    for mask in range(1, 1 << n):
        rows = voters[[(mask >> i) & 1 == 1 for i in range(n)]]
        size = rows.size
        if delta is not None:
            t_max = int(size * k / (delta * n) + CHECK_EPS)
        else:
            t_max = (size * k) // n
        if t_max == 0:
            continue
        alpha = utilities[rows].min(axis=0)
        positive = np.nonzero(alpha > 0.0)[0]
        if positive.size == 0:
            continue
        ranked = sorted(positive, key=lambda c: (-alpha[c], c))[:t_max]
        required = float(alpha[ranked].sum()) / divisor
        best = float(achieved[rows].max())
        if best < required - CHECK_EPS:
            witnesses.append(
                Witness(
                    tuple(int(i) for i in rows),
                    tuple(int(c) for c in ranked),
                    tuple(float(alpha[c]) for c in ranked),
                    required,
                    best,
                )
            )
    return naive_report(witnesses, n)


@st.composite
def ejr_inputs(draw):
    """(election, committee, relaxation) with n <= 10, m <= 20, 2 <= k < m and
    a committee of at most k candidates. Utilities come from one small grid,
    with zeros and ties, or from uniform draws, possibly scaled by 1e6. Delta
    reaches down to 0.05, where |T| may exceed both k and m."""
    n, m = draw(st.integers(1, 10)), draw(st.integers(3, 20))
    k = draw(st.integers(2, m - 1))
    value = draw(
        st.sampled_from(
            [
                st.sampled_from([0.0, 1.0]),
                st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.7]),
                st.floats(0.0, 5.0),
            ]
        )
    )
    scale = draw(st.sampled_from([1.0, 1e6]))
    utilities = draw(arrays(np.float64, (n, m), elements=value)) * scale
    members = draw(st.sets(st.integers(0, m - 1), max_size=k))
    relaxation = draw(
        st.sampled_from(["exact", "beta", "gamma", "delta"]).flatmap(
            lambda name: {
                "exact": st.just({}),
                "beta": st.floats(1.0, 3.0).map(lambda b: {"beta": b}),
                "gamma": st.integers(0, 2).map(lambda g: {"gamma": g}),
                "delta": st.one_of(
                    st.sampled_from([0.1, 0.5, 1.0, 1.5]), st.floats(0.05, float(k))
                ).map(lambda d: {"delta": d}),
            }[name]
        )
    )
    return Election(utilities, k), tuple(members), relaxation


def assert_ejr_matches_naive(election, committee, relaxation):
    report = check_ejr_bruteforce(election, committee, **relaxation)
    naive = naive_ejr_bruteforce(election, committee, **relaxation)
    assert report.axiom == "-".join(["ejr", *relaxation])
    assert report.satisfied == (not naive[0])
    assert_reports_match(report, naive)
    return report


# Two voters who each value 12 candidates at distinct non-dyadic levels; at
# delta = 0.1 a single voter may claim |T| = 10, so the requirement is a
# numpy sum of 10 alphas.
WIDE_T = Election([[0.1 * (j + 1) + 0.01 * i for j in range(12)] for i in range(2)], 2)

# Both voters value candidates 0-7 at 0.5, 0.6, ..., 1.2, and only voter 1
# values the winner, candidate 8, at 6.8 - CHECK_EPS. numpy's sum of the
# pair's eight alphas is one ulp above their left-to-right sum, 6.8, and the
# pair is a witness by that ulp alone.
SHARED = [0.5 + 0.1 * j for j in range(8)]
ONE_ULP_SHORT = Election([SHARED + [0.0, 0.0], SHARED + [6.8 - CHECK_EPS, 0.0]], 8)


class TestEjrBruteforceMatchesNaiveLoop:
    """The block-wise checker reports exactly what one pass per voter mask
    reports: the same witnesses in ascending mask order, ties in T ranked by
    candidate id, the same requirements to the bit, share and shortfall."""

    @given(ejr_inputs())
    @example((WIDE_T, (), {"delta": 0.1}))
    @example((WIDE_T, (0, 1), {"delta": 0.05}))
    @example((ONE_ULP_SHORT, (8,), {}))
    @settings(max_examples=200, deadline=None)
    def test_random_inputs(self, case):
        assert_ejr_matches_naive(*case)

    def test_voter_cap(self):
        election = sample(SampleSpec("mallows", BRUTE_FORCE_VOTER_CAP, 12, 3, seed=0, phi=0.6))
        report = assert_ejr_matches_naive(election, (3, 5, 9), {"delta": 0.5})
        assert max(w.group[-1] for w in report.witnesses) == BRUTE_FORCE_VOTER_CAP - 1

    def test_examples_reach_their_cases(self):
        report = check_ejr_bruteforce(WIDE_T, (), delta=0.1)
        assert {len(w.candidates) for w in report.witnesses} == {10, 12}
        pair = check_ejr_bruteforce(ONE_ULP_SHORT, (8,)).witnesses[-1]
        assert pair.group == (0, 1)
        assert pair.required == math.nextafter(6.8, 7.0)

    def test_working_memory_at_the_cap(self):
        """One call at n = 15, m = 64 allocates under 2 MB at its peak; a
        table with one alpha row per group would take 16 MB."""
        election = sample(SampleSpec("ic", BRUTE_FORCE_VOTER_CAP, 64, 6, seed=1, p=0.5))
        committee = tuple(range(6))
        tracemalloc.start()
        try:
            report = check_ejr_bruteforce(election, committee)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.satisfied
        assert peak < 2 * 2**20


class TestMakeCounterexample:
    def test_unknown_construction(self):
        with pytest.raises(ValueError):
            make_counterexample("nonsense")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"construction": "beta-ejr", "k": 1},
            {"construction": "beta-ejr", "epsilon": 0.0},
            {"construction": "beta-ejr", "epsilon": 1.0},
            {"construction": "beta-ejr", "beta": 0.5},
            # only the beta-ejr instance reads beta
            {"construction": "delta-ejr", "beta": 2.0},
        ],
    )
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            make_counterexample(**kwargs)

    def test_strong_jr_skips_size_checks(self):
        # the strong-jr instance is fixed, so k and epsilon are not validated
        election, _ = make_counterexample("strong-jr", k=1, epsilon=5.0)
        assert election.committee_size == 2

    def test_all_constructions_build(self):
        for construction in CONSTRUCTION_IDS:
            election, order = make_counterexample(construction)
            assert len(order.permutation) == election.num_candidates

    def test_beta_matrix(self):
        election, order = make_counterexample("beta-ejr", k=3, epsilon=0.1)
        assert (election.num_voters, election.num_candidates) == (3, 6)
        assert election.committee_size == 3
        expected = np.zeros((3, 6))
        for i in range(3):
            expected[i, i] = 0.9
            expected[i, 3:] = 2.0 / 3.0
        assert np.allclose(election.utilities, expected)
        assert order.permutation == DOCUMENTED_ORDERS[("beta-ejr", 3)]

    def test_gamma_matrix(self):
        election, order = make_counterexample("ejr-gamma", k=3, epsilon=0.1)
        assert (election.num_voters, election.num_candidates) == (3, 12)
        row = election.utilities[1]
        assert np.allclose(row[3:6], (0.1, 0.2, 0.4))
        assert np.allclose(row[9:], 1.6)
        assert np.allclose(row[:3], 0.0)
        assert order.permutation == DOCUMENTED_ORDERS[("ejr-gamma", 3)]

    def test_delta_matrix(self):
        election, order = make_counterexample("delta-ejr", k=2, epsilon=0.1)
        assert (election.num_voters, election.num_candidates) == (1, 4)
        assert np.allclose(election.utilities[0], (1.1, 1.2, 1.2, 1.2))
        assert order.permutation == DOCUMENTED_ORDERS[("delta-ejr", 2)]

    def test_undocumented_size_falls_back_to_identity(self):
        election, order = make_counterexample("beta-ejr", k=4)
        assert order == ArrivalOrder.identity(election.num_candidates)

    def test_beta_block_committees(self):
        election, _ = make_counterexample("beta-ejr", k=3)
        all_a = Committee(frozenset({0, 1, 2}))
        all_b = Committee(frozenset({3, 4, 5}))
        assert not check_ejr_bruteforce(election, all_a, beta=2.0).satisfied
        assert check_ejr_bruteforce(election, all_b).satisfied

    def test_gamma_ladder_committee(self):
        election, _ = make_counterexample("ejr-gamma", k=3)
        # one ladder rung per voter cannot be repaired even by crediting
        # the k - 1 best outside candidates; that is the construction's point
        rungs = Committee(frozenset({2, 5, 8}))
        assert not check_ejr_bruteforce(election, rungs).satisfied
        assert not check_ejr_bruteforce(election, rungs, gamma=2).satisfied
        assert check_ejr_bruteforce(
            election, Committee(frozenset({9, 10, 11}))
        ).satisfied
        # a committee one b short is repaired by a single credit
        mixed = Committee(frozenset({2, 9, 10}))
        assert not check_ejr_bruteforce(election, mixed).satisfied
        assert check_ejr_bruteforce(election, mixed, gamma=1).satisfied

    def test_delta_relaxation_gap(self):
        election, _ = make_counterexample("delta-ejr", k=2)
        a_block = Committee(frozenset({0, 1}))
        assert not check_ejr_bruteforce(election, a_block).satisfied
        assert check_ejr_bruteforce(election, a_block, delta=2.0).satisfied
