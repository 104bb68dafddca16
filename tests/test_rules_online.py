import itertools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from streamelect import (
    ArrivalOrder,
    Committee,
    Decision,
    Election,
    EngineCache,
    SampleSpec,
    bos,
    check_jr,
    greedy_budgeting,
    online_bos,
    online_mes,
    online_nash,
    bounded_overspending_subset,
    equal_shares_subset,
    mes,
    nash_optimum_bruteforce,
    nash_welfare,
    proportional_quota,
    random_order,
    run_rule,
    sample,
    seeded_rng,
    stream,
)
from streamelect import rules_online
from streamelect.rules_online import ONLINE_RULE_IDS, _exploration_length, winners_memo

from conftest import (
    committee_counts,
    random_approval_election,
    random_cardinal_election,
    showcase_election,
)

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
        # A bool or a float is refused by name, integral or not.
        for exploration in (True, 2.0, 2.5):
            with pytest.raises(ValueError, match="exploration must be an integer"):
                _exploration_length(10, exploration)
            with pytest.raises(ValueError, match="exploration must be an integer"):
                online_mes(showcase_election(), IDENTITY6, exploration)

    def test_unknown_rule(self):
        with pytest.raises(ValueError):
            run_rule("offline-mes", showcase_election(), IDENTITY6)

    @pytest.mark.parametrize("rule_id", ["greedy", "online-nash"])
    def test_refuses_a_cache_without_engine_calls(self, rule_id):
        with pytest.raises(ValueError, match=f"{rule_id} makes no engine calls"):
            run_rule(rule_id, showcase_election(), IDENTITY6, cache=EngineCache())


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
        e = Election([[0.0, 1.0, 1.0], [0.0, 1.0, 1.0]], 2)
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

    def test_placeholder_reference_when_exploration_below_k(self):
        # m=10 gives t=3 < k=4: the reference holds placeholder id 10 for the
        # open seat, and arrival 4 takes it.
        rng = seeded_rng(22)
        matrix = (rng.random((6, 10)) < 0.5).astype(float)
        matrix[:, 0] = 1.0
        e = Election(matrix, 4)
        committee = online_mes(e, ArrivalOrder.identity(10))
        assert len(committee.members) == 4
        assert committee.audit[3].reason == "displaced-reference"
        assert committee.audit[3].sample == (0, 1, 2, 3)

    def test_rejected_arrival_still_updates_sample(self, showcase):
        committee = online_mes(showcase, IDENTITY6)
        by_position = {d.position: d for d in committee.audit}
        # Position 4 hires by displacing a reference member; position 5 is
        # self-excluded. Samples reflect both outcomes.
        assert by_position[4].hired
        assert 3 in by_position[4].sample


def fresh_displacement(election, order, subset_rule, t):
    """The displacement scheme with every subset call made on its own, so no
    state passes between calls: the oracle for the rules' shared winner path.
    The k - t reference seats that exploration leaves open are real zero
    columns m, m+1, ... of a padded election."""
    m, k = election.num_candidates, election.committee_size
    arrivals = order.permutation
    open_seats = max(0, k - t)
    zeros = np.zeros((election.num_voters, open_seats))
    padded = Election(np.hstack([election.utilities, zeros]), k)
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
                reference, _ = subset_rule(padded, arrivals[:t] + tuple(range(m, m + open_seats)))
                running = set(reference)
            winners, _ = subset_rule(padded, tuple(running) + (c,))
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
            # Every third election explores fewer than k arrivals, so the
            # reference leaves seats open.
            t = int(rng.integers(0, e.committee_size)) if index % 3 == 0 else None
            # The first order runs on a cache of its own; the next 20 share
            # one, as the orders of a harness instance do.
            shared = EngineCache()
            for given in [None] + [shared] * 20:
                order = random_order(e.num_candidates, int(rng.integers(0, 10_000)))
                caches.clear()
                committee = rule(e, order, t, given)
                assert (committee.members, committee.audit) == fresh_displacement(
                    e, order, subset_rule, _exploration_length(e.num_candidates, t)
                )
                # Every subset call of the run shares one cache of at most k
                # levels: the one given, if any.
                assert len({id(cache) for cache in caches}) <= 1
                assert given is None or all(cache is given for cache in caches)
                assert all(len(cache.levels) <= e.committee_size for cache in caches)
                assert all(cache.election is e for cache in caches)
                runs_with_calls += bool(caches)
        assert runs_with_calls > 30 * 21


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
        e = Election(matrix, 4)
        committee = online_nash(e, ArrivalOrder.identity(14))
        assert len(committee.audit) == 14
        assert len(committee.members) == 4

    def test_observation_phase_rejects(self):
        # m=9, k=2: segments of 5 and 4, observation int(5/e)=1, int(4/e)=1.
        rng = seeded_rng(24)
        matrix = np.round(rng.random((4, 9)) * 5.0, 3)
        e = Election(matrix, 2)
        committee = online_nash(e, ArrivalOrder.identity(9))
        reasons = [d.reason for d in committee.audit]
        assert reasons[0] == "observation"
        assert len(committee.members) == 2


def reference_online_nash(election, order):
    """Online-nash scored one arrival at a time, each gain summed over its
    own `picked_sat + column`: the reference for the rule's per-segment
    buffer."""
    k = election.committee_size
    base, extra = divmod(election.num_candidates, k)
    sizes = [base + 1] * extra + [base] * (k - extra)
    members = []
    audit = []
    picked_sat = np.zeros(election.num_voters)
    arrivals = stream(election, order)
    for size in sizes:
        observe = int(size / math.e)
        threshold = -math.inf
        picked = None
        for j, (position, c, column) in zip(range(size), arrivals):
            if picked is not None:
                audit.append(Decision(position, c, False, "segment-filled"))
                continue
            gain = float(np.log1p(picked_sat + column).sum())
            if j < observe:
                threshold = max(threshold, gain)
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
    return Committee(frozenset(members), tuple(audit))


@st.composite
def tied_nash_instances(draw):
    """(election, order) whose columns are permutations of one voter vector
    of one-decimal utilities with zeros, so every first-segment gain ties
    exactly and only the order of summation can split them. n spans numpy's
    pairwise-sum block of 128."""
    n = draw(st.sampled_from([*range(1, 10), 127, 128, 129, 1000]))
    m = draw(st.integers(3, 14))
    k = draw(st.integers(2, m - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = np.round(rng.random(n) * draw(st.sampled_from([1.0, 3.0, 10.0])), 1)
    values[rng.random(n) < draw(st.sampled_from([0.0, 0.3, 0.7]))] = 0.0
    matrix = np.stack([rng.permutation(values) for _ in range(m)], axis=1)
    return Election(matrix, k), ArrivalOrder(draw(st.permutations(range(m))))


@given(tied_nash_instances())
@settings(max_examples=300, deadline=None)
def test_online_nash_matches_per_arrival_scoring(instance):
    """Scoring a whole segment at once gives bit-identical gains, hence the
    same members and the same audit, as scoring each arrival on its own."""
    election, order = instance
    committee = online_nash(election, order)
    reference = reference_online_nash(election, order)
    assert (committee.members, committee.audit) == (reference.members, reference.audit)


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
    return Election(ballots(draw, n, m), k), ArrivalOrder(order)


@st.composite
def tie_free_instances(draw):
    """(election, order) with n <= 8 and m <= 9 whose positive utilities
    come from U(0.05, 2) at density 0.3, 0.6 or 1, so that no two
    candidates tie and the tie-break by id never decides. Each column holds
    a positive utility: two all-zero columns would tie at total 0."""
    n, m = draw(st.integers(1, 8)), draw(st.integers(3, 9))
    k = draw(st.integers(2, m - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    positive = rng.random((n, m)) < draw(st.sampled_from([0.3, 0.6, 1.0]))
    positive[rng.integers(0, n, size=m), np.arange(m)] = True
    matrix = np.where(positive, rng.uniform(0.05, 2.0, (n, m)), 0.0)
    return Election(matrix, k), ArrivalOrder(draw(st.permutations(range(m))))


@st.composite
def explored_instances(draw):
    """(election, order, t) with k <= 3 and an exploration length t in
    [k, m - k), so the reference has no open seat and at least one arrival
    after it is compared with the running sample."""
    k = draw(st.integers(2, 3))
    n, m = draw(st.integers(1, 8)), draw(st.integers(2 * k + 1, 10))
    t = draw(st.integers(k, m - k - 1))
    order = draw(st.permutations(range(m)))
    return Election(ballots(draw, n, m, dense=True), k), ArrivalOrder(order), t


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

    @given(instances(), st.sampled_from(ONLINE_RULE_IDS), st.data())
    @settings(max_examples=300, deadline=None)
    def test_no_lookahead(self, instance, rule, data):
        """Each decision is made on arrival: redrawing the columns of
        arrivals t+1..m leaves the first t audit entries unchanged."""
        election, order = instance
        n, m = election.num_voters, election.num_candidates
        t = data.draw(st.integers(1, m - 1))
        later = list(order.permutation[t:])
        matrix = election.utilities.copy()
        matrix[:, later] = np.array(ballots(data.draw, n, m))[:, later]
        redrawn = Election(matrix, election.committee_size)
        before = run_rule(rule, election, order).audit
        assert run_rule(rule, redrawn, order).audit[:t] == before[:t]

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

    @given(instances(), st.sampled_from([online_mes, online_bos]), st.data())
    @settings(max_examples=150, deadline=None)
    def test_open_reference_seats_hire_the_next_arrivals(self, instance, rule, data):
        """With t < k, the reference holds the t explored arrivals and
        placeholders m, m+1, ... for its k - t open seats. Positions t+1..k
        are all hired, and each step while a placeholder is held displaces
        the largest one still held."""
        election, order = instance
        m, k = election.num_candidates, election.committee_size
        t = data.draw(st.integers(0, k - 1))
        audit = rule(election, order, t).audit
        assert all(d.hired for d in audit[t:k])
        placeholders = set(range(m, m + k - t))
        running = set(order.permutation[:t]) | placeholders
        for d in audit[t:]:
            if d.sample is None or d.reason in ("safeguard", "committee-full"):
                continue
            held = running & placeholders
            if held:
                assert d.reason == "displaced-reference"
                assert set(d.sample) == (running - {max(held)}) | {d.candidate}
            running = set(d.sample)


@given(tie_free_instances(), st.data())
@settings(max_examples=300, deadline=None)
def test_neutrality(instance, data):
    """Relabelling the candidates, with the order mapped to match,
    relabels the committee of every rule, offline ones included."""
    election, order = instance
    m = election.num_candidates
    relabel = data.draw(st.permutations(range(m)))
    matrix = np.empty_like(election.utilities)
    matrix[:, relabel] = election.utilities
    relabelled = Election(matrix, election.committee_size)
    moved = ArrivalOrder(tuple(relabel[c] for c in order.permutation))
    rules = [lambda e, o: mes(e)[0], lambda e, o: bos(e)[0]]
    rules += [lambda e, o, r=r: run_rule(r, e, o) for r in ONLINE_RULE_IDS]
    for rule in rules:
        expected = {relabel[c] for c in rule(election, order).members}
        assert rule(relabelled, moved).members == expected


# e rounded down, so that 1/E_BELOW exceeds 1/e.
E_BELOW = Fraction(2718281828459045, 10**15)


class TestExactHireBounds:
    """Over every arrival order of a single-approval election (2 voters per
    winner, default exploration length), each reference winner is hired with
    probability at least 1/e, and at least k - p winners are hired together
    with probability at least (1/e)^(k - p), for every p < k. Probabilities
    are exact fractions; meeting the powers of 1/E_BELOW > 1/e proves each
    bound with no slack. Off single-approval ballots the per-winner bound
    can fail."""

    @pytest.mark.parametrize(
        "m, k", [(4, 2), (5, 2), (6, 2), (6, 3), (7, 2), (7, 3), (8, 2), (8, 3), (8, 4)]
    )
    def test_every_order(self, m, k):
        matrix = np.zeros((2 * k, m))
        for c in range(k):
            matrix[2 * c : 2 * c + 2, c] = 1.0
        election = Election(matrix, k)
        winners = frozenset(mes(election)[0].members)
        rule = winners_memo(equal_shares_subset)
        for permutation in itertools.islice(itertools.permutations(range(m)), 20):
            order = ArrivalOrder(permutation)
            assert rule(election, order).members == online_mes(election, order).members
        counts = committee_counts(election, rule)
        orders = sum(counts.values())
        assert orders == math.factorial(m)
        for c in winners:
            hires = sum(count for members, count in counts.items() if c in members)
            assert Fraction(hires, orders) >= 1 / E_BELOW
        for p in range(k):
            joint = sum(count for members, count in counts.items() if len(members & winners) >= k - p)
            assert Fraction(joint, orders) >= (1 / E_BELOW) ** (k - p)

    def test_online_mes_on_approval_ballots(self):
        """On 100 random approval elections with m <= 6, online-mes hires
        each of `mes`'s winners in at least 1/e of all orders, and at least
        k - p of them together in at least (1/e)^(k - p) of all orders, for
        every p < k. This checks the bounds on these ballots; it does not
        prove them."""
        rng = seeded_rng(28)
        for _ in range(100):
            election = random_approval_election(rng, max_voters=8, max_candidates=6, max_k=4)
            rule = winners_memo(equal_shares_subset)
            identity = ArrivalOrder.identity(election.num_candidates)
            assert rule(election, identity).members == online_mes(election, identity).members
            counts = committee_counts(election, rule)
            orders = sum(counts.values())
            winners = mes(election)[0].members
            for c in winners:
                hires = sum(count for members, count in counts.items() if c in members)
                assert Fraction(hires, orders) >= 1 / E_BELOW
            k = election.committee_size
            for p in range(k):
                joint = sum(
                    count for members, count in counts.items() if len(members & winners) >= k - p
                )
                assert Fraction(joint, orders) >= (1 / E_BELOW) ** (k - p)

    @pytest.mark.parametrize("rule", [online_mes, online_bos])
    def test_cardinal_ballots_can_fall_below(self, rule):
        """The per-winner bound is proved for single-approval elections only.
        On these cardinal ballots `mes` elects {4, 5} in two rounds with no
        completion, yet over all 720 orders 4 is hired in 256: 16/45 < 1/e."""
        election = Election([[0, 4, 2, 2, 1, 5], [5, 0, 3, 3, 4, 1]], 2)
        committee, trace = mes(election)
        assert committee.members == {4, 5}
        assert len(trace.rounds) == 2 and trace.completion_added == ()
        counts = committee_counts(election, rule)
        hires = sum(count for members, count in counts.items() if 4 in members)
        assert Fraction(hires, sum(counts.values())) == Fraction(256, 720)
        assert Fraction(256, 720) < 1 / math.e

    def test_overspending_winner_can_fall_below_on_approval_ballots(self):
        """On these approval ballots `bos` elects {0, 3} and buys 3 by
        overspending in round 2, at rho 1/3. Over all 720 orders online-bos
        hires 3 in 236 (59/180 < 1/e) and 0 in 352; online-mes hires each of
        `mes`'s winners {0, 1} in 344."""
        election = Election(
            [
                [1, 0, 1, 0, 0, 1],
                [1, 1, 1, 1, 1, 0],
                [0, 1, 1, 0, 1, 0],
                [1, 1, 1, 1, 0, 1],
                [1, 0, 0, 1, 1, 1],
                [0, 1, 0, 0, 1, 0],
            ],
            2,
        )
        committee, trace = bos(election)
        assert committee.members == {0, 3}
        assert [r.candidate for r in trace.rounds] == [0, 3]
        assert trace.rounds[1].rho == pytest.approx(1 / 3, rel=1e-12)
        assert mes(election)[0].members == {0, 1}

        def hires(rule):
            counts = committee_counts(election, rule)
            assert sum(counts.values()) == 720
            return {c: sum(n for members, n in counts.items() if c in members) for c in range(6)}

        bos_hires, mes_hires = hires(online_bos), hires(online_mes)
        assert (bos_hires[3], bos_hires[0]) == (236, 352)
        assert (mes_hires[0], mes_hires[1]) == (344, 344)
        assert Fraction(236, 720) < 1 / math.e < Fraction(344, 720)


def test_nash_ratio_per_instance_at_raw_and_unit_scale():
    """criterion-6 bounds the mean ratio pooled over sampled IC instances by
    (1 - 1/e)/7. Over every order of one instance, the exact mean ratio of
    `online-nash` falls below that bound at raw utility scale and clears it
    with the utilities divided by their maximum."""
    raw = sample(SampleSpec("ic", 5, 7, 3, seed=12, p=0.2))
    means = []
    for election in (raw, Election(raw.utilities / raw.utilities.max(), 3)):
        _, optimum = nash_optimum_bruteforce(election)
        counts = committee_counts(election, online_nash)
        total = sum(
            count * math.exp(nash_welfare(election, members) - optimum)
            for members, count in counts.items()
        )
        means.append(total / math.factorial(7))
    assert means == pytest.approx([0.0317, 0.4158], abs=5e-5)
    assert means[0] < (1.0 - 1.0 / math.e) / 7.0 < means[1]


@st.composite
def polarized_runs(draw):
    """(spec, order): a polarized spec with n <= 60, 4 <= m <= 24 and
    2 <= k < m, and any arrival order."""
    m = draw(st.integers(4, 24))
    share = st.floats(0.0, 1.0, exclude_min=True)
    spec = SampleSpec(
        "polarized",
        draw(st.integers(1, 60)),
        m,
        draw(st.integers(2, m - 1)),
        seed=draw(st.integers(0, 2**32)),
        x=draw(st.one_of(st.sampled_from([1 / 3, 1 / 2, 1.0]), share)),
        q=draw(share),
    )
    return spec, ArrivalOrder(draw(st.permutations(range(m))))


@given(polarized_runs())
@settings(max_examples=300, deadline=None)
def test_greedy_meets_a_quota_the_first_half_can_fill(run):
    """Greedy gives group A its proportional quota floor(x k) under any
    order, whenever the m // 2 group-A candidates can fill it."""
    spec, order = run
    deserved, _ = proportional_quota(spec, ())
    assume(deserved <= spec.num_candidates // 2)
    _, received = proportional_quota(spec, greedy_budgeting(sample(spec), order))
    assert received >= deserved
