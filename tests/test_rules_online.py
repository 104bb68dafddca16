import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from streamelect import (
    ArrivalOrder,
    Decision,
    Election,
    check_jr,
    greedy_budgeting,
    online_bos,
    online_mes,
    online_nash,
    bounded_overspending_subset,
    equal_shares_subset,
    random_order,
    run_rule,
    seeded_rng,
)
from streamelect import rules_online
from streamelect.rules_online import ONLINE_RULE_IDS, _exploration_length

from conftest import random_approval_election, random_cardinal_election, showcase_election

IDENTITY6 = ArrivalOrder.identity(6)


class TestConfig:
    def test_default_exploration_is_m_over_e(self):
        assert _exploration_length(6, None) == 2
        assert _exploration_length(40, None) == int(40 / math.e)

    def test_explicit_exploration(self):
        assert _exploration_length(10, 4) == 4

    def test_exploration_bounds(self):
        with pytest.raises(ValueError):
            _exploration_length(10, -1)
        with pytest.raises(ValueError):
            _exploration_length(10, 10)

    def test_unknown_rule(self):
        with pytest.raises(ValueError):
            run_rule("offline-mes", showcase_election(), IDENTITY6)


class TestGreedy:
    def test_showcase_k2(self, showcase_k2):
        committee = greedy_budgeting(showcase_k2, IDENTITY6)
        assert committee.sorted_members() == (0, 1)

    def test_showcase_k3(self, showcase):
        committee = greedy_budgeting(showcase, IDENTITY6)
        assert committee.sorted_members() == (0, 1, 5)
        reasons = [d.reason for d in committee.audit]
        assert reasons[:2] == ["affordable", "affordable"]
        assert reasons[-1] == "safeguard"

    def test_audit_covers_every_position(self, showcase):
        committee = greedy_budgeting(showcase, IDENTITY6)
        assert [d.position for d in committee.audit] == [1, 2, 3, 4, 5, 6]

    def test_payment_totals(self, showcase):
        committee = greedy_budgeting(showcase, IDENTITY6)
        for decision in committee.audit:
            if decision.reason == "affordable":
                total = sum(amount for _, amount in decision.payments)
                assert total == pytest.approx(1.0)

    def test_total_spend_bounded_by_k(self):
        rng = seeded_rng(21)
        for _ in range(50):
            e = random_approval_election(rng)
            order = random_order(e.num_candidates, int(rng.integers(0, 10_000)))
            committee = greedy_budgeting(e, order)
            spent = sum(
                amount
                for d in committee.audit
                if d.payments
                for _, amount in d.payments
            )
            assert spent <= e.committee_size + 1e-9

    def test_zero_supporter_candidate_skipped(self):
        e = Election.from_rows([[0.0, 1.0, 1.0], [0.0, 1.0, 1.0]], 2)
        committee = greedy_budgeting(e, ArrivalOrder.identity(3))
        assert committee.audit[0].reason == "insufficient-budget"
        assert committee.sorted_members() == (1, 2)


class TestDisplacement:
    def test_online_mes_showcase_k2(self, showcase_k2):
        committee = online_mes(showcase_k2, IDENTITY6)
        assert committee.sorted_members() == (2, 3)

    def test_online_mes_showcase_k3(self, showcase):
        committee = online_mes(showcase, IDENTITY6)
        assert committee.sorted_members() == (2, 3, 5)

    def test_online_bos_showcase_k3(self, showcase):
        committee = online_bos(showcase, IDENTITY6)
        assert committee.sorted_members() == (2, 3, 5)

    def test_exploration_positions_never_hire(self, showcase):
        committee = online_mes(showcase, IDENTITY6)
        for decision in committee.audit[:2]:
            assert decision.reason == "exploration"
            assert not decision.hired

    def test_self_excluded_keeps_running_sample(self, showcase):
        committee = online_mes(showcase, IDENTITY6)
        by_position = {d.position: d for d in committee.audit}
        skip = by_position[5]
        assert skip.reason == "self-excluded"
        assert not skip.hired
        assert skip.sample == by_position[4].sample

    def test_running_sample_size_is_k(self, showcase):
        committee = online_mes(showcase, IDENTITY6)
        for decision in committee.audit:
            if decision.sample is not None:
                assert len(decision.sample) == showcase.committee_size

    def test_zero_exploration_allowed(self, showcase):
        committee = online_mes(showcase, IDENTITY6, 0)
        assert len(committee.members) == 3

    def test_max_exploration_fills_by_safeguard(self, showcase):
        committee = online_mes(showcase, IDENTITY6, 3)
        assert committee.sorted_members() == (3, 4, 5)
        assert {d.reason for d in committee.audit[3:]} == {"safeguard"}

    def test_dummy_reference_when_exploration_below_k(self):
        # m=10 gives t=3 < k=4: the reference is padded with dummy ids.
        rng = seeded_rng(22)
        matrix = (rng.random((6, 10)) < 0.5).astype(float)
        matrix[:, 0] = 1.0
        e = Election(6, 10, 4, matrix)
        committee = online_mes(e, ArrivalOrder.identity(10))
        assert len(committee.members) == 4

    def test_rejected_arrival_still_updates_sample(self, showcase):
        committee = online_mes(showcase, IDENTITY6)
        by_position = {d.position: d for d in committee.audit}
        # Position 4 hires by displacing a reference member; position 5 is
        # self-excluded. Samples reflect both outcomes.
        assert by_position[4].hired
        assert 3 in by_position[4].sample


def fresh_displacement(election, order, subset_rule, t):
    """The displacement scheme with every subset call made on its own, so no
    state passes between calls: the oracle for the rules' shared winner path."""
    m, k = election.num_candidates, election.committee_size
    arrivals = order.permutation
    members, audit = [], []
    reference = running = None
    for position, c in enumerate(arrivals, start=1):
        snap = tuple(sorted(running)) if running is not None else None
        if len(members) == k:
            audit.append(Decision(position, c, False, "committee-full", sample=snap))
        elif m - position + 1 == k - len(members):
            members.append(c)
            audit.append(Decision(position, c, True, "safeguard", sample=snap))
        elif position <= t:
            audit.append(Decision(position, c, False, "exploration"))
        else:
            if running is None:
                dummies = tuple(range(m, m + max(0, k - t)))
                reference, _ = subset_rule(election, arrivals[:t] + dummies)
                running = set(reference)
            winners, _ = subset_rule(election, tuple(running) + (c,))
            (excluded,) = (running | {c}) - winners
            if excluded == c:
                snap = tuple(sorted(running))
                audit.append(Decision(position, c, False, "self-excluded", sample=snap))
                continue
            hired = excluded in reference
            if hired:
                members.append(c)
            running = (running - {excluded}) | {c}
            reason = "displaced-reference" if hired else "displaced-running"
            audit.append(Decision(position, c, hired, reason, sample=tuple(sorted(running))))
    return frozenset(members), tuple(audit)


class TestSharedPathAudits:
    @pytest.mark.parametrize(
        "rule, subset_rule",
        [(online_mes, equal_shares_subset), (online_bos, bounded_overspending_subset)],
    )
    def test_matches_fresh_subset_calls(self, monkeypatch, rule, subset_rule):
        caches = []

        def recording_rule(election, candidates, cache):
            caches.append(cache)
            return subset_rule(election, candidates, cache)

        monkeypatch.setattr(rules_online, subset_rule.__name__, recording_rule)
        runs_with_calls = 0
        rng = seeded_rng(27)
        for index in range(60):
            sampler = random_approval_election if index % 2 else random_cardinal_election
            e = sampler(rng, max_voters=12, max_candidates=14, max_k=5)
            order = random_order(e.num_candidates, int(rng.integers(0, 10_000)))
            # Every third run explores fewer than k arrivals, so the
            # reference call carries dummy ids.
            t = int(rng.integers(0, e.committee_size)) if index % 3 == 0 else None
            caches.clear()
            committee = rule(e, order, t)
            t = _exploration_length(e.num_candidates, t)
            assert (committee.members, committee.audit) == fresh_displacement(
                e, order, subset_rule, t
            )
            # Every subset call of the run shares one cache of at most k levels.
            assert len({id(cache) for cache in caches}) <= 1
            assert all(len(cache.levels) <= e.committee_size for cache in caches)
            assert all(cache.election is e for cache in caches)
            runs_with_calls += bool(caches)
        assert runs_with_calls > 30


class TestOnlineNash:
    def test_showcase_k2(self, showcase_k2):
        committee = online_nash(showcase_k2, IDENTITY6)
        assert committee.sorted_members() == (2, 5)

    def test_showcase_k3(self, showcase):
        committee = online_nash(showcase, IDENTITY6)
        assert committee.sorted_members() == (0, 2, 4)

    def test_segment_reasons(self, showcase):
        committee = online_nash(showcase, IDENTITY6)
        reasons = [d.reason for d in committee.audit]
        assert reasons == [
            "above-threshold",
            "segment-filled",
            "above-threshold",
            "segment-filled",
            "above-threshold",
            "segment-filled",
        ]

    def test_segment_sizes_cover_all_positions(self):
        # m=14, k=4: segments 4,4,3,3 (first m mod k segments one longer).
        rng = seeded_rng(23)
        matrix = np.round(rng.random((5, 14)) * 5.0, 3)
        e = Election(5, 14, 4, matrix)
        committee = online_nash(e, ArrivalOrder.identity(14))
        assert len(committee.audit) == 14
        assert len(committee.members) == 4

    def test_observation_phase_rejects(self):
        # m=9, k=2: segments of 5 and 4, observation int(5/e)=1, int(4/e)=1.
        rng = seeded_rng(24)
        matrix = np.round(rng.random((4, 9)) * 5.0, 3)
        e = Election(4, 9, 2, matrix)
        committee = online_nash(e, ArrivalOrder.identity(9))
        reasons = [d.reason for d in committee.audit]
        assert reasons[0] == "observation"
        assert len(committee.members) == 2


class TestFeasibilityEverywhere:
    @pytest.mark.parametrize("rule", ONLINE_RULE_IDS)
    @pytest.mark.parametrize(
        "order",
        [ArrivalOrder.identity(7), ArrivalOrder((6, 0, 1, 2, 3, 4, 5)), ArrivalOrder.identity(5)],
        ids=["identity7", "rotated7", "identity5"],
    )
    def test_rejects_order_of_wrong_length(self, rule, order):
        with pytest.raises(ValueError, match=f"order has length {len(order)}"):
            run_rule(rule, showcase_election(), order)

    @pytest.mark.parametrize("rule", ONLINE_RULE_IDS)
    def test_exactly_k_members(self, rule):
        rng = seeded_rng(25)
        for _ in range(40):
            e = random_cardinal_election(rng)
            order = random_order(e.num_candidates, int(rng.integers(0, 10_000)))
            committee = run_rule(rule, e, order)
            assert len(committee.members) == e.committee_size
            assert len(committee.audit) == e.num_candidates

    @pytest.mark.parametrize("rule", ONLINE_RULE_IDS)
    def test_members_match_hire_decisions(self, rule):
        rng = seeded_rng(26)
        for _ in range(20):
            e = random_approval_election(rng)
            order = random_order(e.num_candidates, int(rng.integers(0, 10_000)))
            committee = run_rule(rule, e, order)
            hired = {d.candidate for d in committee.audit if d.hired}
            assert hired == committee.members


def ballots(draw, n, m, dense=False):
    """n rows of m utilities: 0/1 half the time, else non-negative cardinal;
    `dense` makes about four entries in five positive."""
    zeros = [0.0] if dense else [0.0] * 4
    if draw(st.booleans()):
        value = st.sampled_from(zeros + [1.0] * 4)
    else:
        value = st.one_of(st.sampled_from(zeros), st.floats(0.01, 5.0))
    return draw(st.lists(st.lists(value, min_size=m, max_size=m), min_size=n, max_size=n))


@st.composite
def instances(draw):
    """(election, order) with n <= 8 and m <= 9."""
    n, m = draw(st.integers(1, 8)), draw(st.integers(3, 9))
    k = draw(st.integers(2, m - 1))
    order = draw(st.permutations(range(m)))
    return Election.from_rows(ballots(draw, n, m), k), ArrivalOrder(order)


@st.composite
def explored_instances(draw):
    """(election, order, t) with k <= 3 and an exploration length t in
    [k, m - k), so the reference needs no dummies and at least one arrival
    after it is compared with the running sample."""
    k = draw(st.integers(2, 3))
    n, m = draw(st.integers(1, 8)), draw(st.integers(2 * k + 1, 10))
    t = draw(st.integers(k, m - k - 1))
    order = draw(st.permutations(range(m)))
    return Election.from_rows(ballots(draw, n, m, dense=True), k), ArrivalOrder(order), t


class TestAuditContracts:
    """The documented audit contracts of the four online rules, on small
    random elections and orders."""

    @given(instances(), st.sampled_from(ONLINE_RULE_IDS))
    @settings(max_examples=150, deadline=None)
    def test_contracts(self, instance, rule):
        election, order = instance
        m, k = election.num_candidates, election.committee_size
        committee = run_rule(rule, election, order)
        audit = committee.audit
        assert len(committee.members) == k
        assert [d.position for d in audit] == list(range(1, m + 1))
        assert [d.candidate for d in audit] == list(order.permutation)
        hires = [i for i, d in enumerate(audit) if d.hired]
        assert committee.members == {audit[i].candidate for i in hires}
        # committee-full is exactly the suffix after the k-th hire; online-nash
        # records segment-filled there instead.
        full = [i for i, d in enumerate(audit) if d.reason == "committee-full"]
        assert full == ([] if rule == "online-nash" else list(range(hires[-1] + 1, m)))
        assert not any(audit[i].hired for i in full)
        for i, d in enumerate(audit):
            if d.reason == "safeguard":
                assert d.hired
                assert m - i == k - sum(1 for j in hires if j < i)
        if rule == "greedy":
            assert check_jr(election, committee).satisfied
        rerun = run_rule(rule, election, order)
        assert (rerun.members, rerun.audit) == (committee.members, audit)

    # Most runs need completion in some equal-shares call, usually for the
    # last seat, and are filtered out.
    @given(explored_instances())
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    def test_bos_equals_mes_without_completion(self, instance):
        """When no equal-shares call of an online-mes run needs completion,
        bounded overspending never overspends, so online-bos decides alike."""
        election, order, t = instance
        completions = []

        def recording(election, candidates, cache):
            members, trace = equal_shares_subset(election, candidates, cache)
            completions.append(trace.completion_added)
            return members, trace

        with mock.patch.object(rules_online, "equal_shares_subset", recording):
            mes_run = online_mes(election, order, t)
        assume(not any(completions))
        bos_run = online_bos(election, order, t)
        assert (bos_run.members, bos_run.audit) == (mes_run.members, mes_run.audit)
