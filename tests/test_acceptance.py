"""Full-scale behavioral contract of the library.

Each criterion below is one deterministic check at its stated tolerance, and
prints a single PASS/FAIL line. The lower-bound fixture check is parametrized
per (construction, rule) pair so every pair gets its own verdict.
"""

import itertools
import math
import time
from functools import lru_cache

import numpy as np
import pytest

from streamelect import (
    ArrivalOrder,
    Committee,
    Election,
    ExperimentConfig,
    SampleSpec,
    bos,
    bundled_ballot_files,
    check_ejr_bruteforce,
    check_jr,
    check_strong_jr,
    make_counterexample,
    mes,
    parse_pabulib,
    random_order,
    read_native,
    run_experiment,
    run_rule,
    sample,
    utilitarian_topk,
    verify_thm_mes,
    verify_thm_nash,
    write_native,
)
from streamelect.core import seeded_rng
from streamelect.harness import derive_seed
from streamelect.rules_online import ONLINE_RULE_IDS, greedy_budgeting
from streamelect.samplers import CULTURES


def _line(name, ok, detail):
    print(f"[{name}] {'PASS' if ok else 'FAIL'} {detail}")


@lru_cache(maxsize=1)
def culture_pool():
    """1050 sampled instances cycling through all four cultures, each with
    one seeded arrival order."""
    rng = seeded_rng(90210)
    pool = []
    for index in range(1050):
        culture = CULTURES[index % 4]
        n = int(rng.integers(4, 13))
        m = int(rng.integers(6, 15))
        k = int(rng.integers(2, min(6, m)))
        params = {}
        if culture == "ic":
            params["p"] = float(rng.uniform(0.2, 0.9))
        elif culture == "polarized":
            params["x"] = float(rng.uniform(0.2, 0.8))
            params["q"] = float(rng.uniform(0.3, 1.0))
        else:
            params["phi"] = float(rng.uniform(0.2, 1.0))
        spec = SampleSpec(
            culture=culture, num_voters=n, num_candidates=m, committee_size=k,
            seed=derive_seed(2026, f"pool-{index}", k, 0), **params,
        )
        order = random_order(m, derive_seed(2026, f"pool-{index}", k, 1))
        pool.append((sample(spec), order))
    return tuple(pool)


@lru_cache(maxsize=1)
def small_pool():
    """600 random small instances, half approval and half cardinal."""
    rng = seeded_rng(424242)
    pool = []
    for _ in range(600):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(3, 9))
        k = int(rng.integers(2, min(5, m)))
        if rng.random() < 0.5:
            matrix = (rng.random((n, m)) < rng.uniform(0.2, 0.8)).astype(float)
        else:
            matrix = np.round(rng.uniform(0.0, 5.0, (n, m)), 3)
        pool.append(Election(matrix, k))
    return tuple(pool)


def test_criterion_1_showcase_committees(showcase_k2):
    start = time.perf_counter()
    order = ArrivalOrder.identity(6)
    outcomes = {
        "greedy": run_rule("greedy", showcase_k2, order).sorted_members(),
        "online-mes": run_rule("online-mes", showcase_k2, order).sorted_members(),
        "online-nash": run_rule("online-nash", showcase_k2, order).sorted_members(),
        "utilitarian": utilitarian_topk(showcase_k2).sorted_members(),
    }
    expected = {
        "greedy": (0, 1),
        "online-mes": (2, 3),
        "online-nash": (2, 5),
        "utilitarian": (3, 5),
    }
    elapsed = time.perf_counter() - start
    ok = outcomes == expected and elapsed < 1.0
    _line("criterion-1", ok, f"showcase committees {outcomes} in {elapsed:.3f}s")
    assert outcomes == expected
    assert elapsed < 1.0


LOWER_BOUND_CASES = [
    ("beta-ejr", 3, rule) for rule in ONLINE_RULE_IDS
] + [
    ("ejr-gamma", 3, rule) for rule in ONLINE_RULE_IDS
] + [
    ("delta-ejr", 2, rule) for rule in ONLINE_RULE_IDS
] + [
    ("strong-jr", 2, rule) for rule in ONLINE_RULE_IDS
]


def _matching_checker(construction):
    if construction == "beta-ejr":
        return lambda e, w: check_ejr_bruteforce(e, w, beta=2.0)
    if construction == "ejr-gamma":
        return lambda e, w: check_ejr_bruteforce(e, w, gamma=2)
    if construction == "delta-ejr":
        return lambda e, w: check_ejr_bruteforce(e, w, delta=1.0)
    return check_strong_jr


def _defeated_rules(construction, election, order):
    """The online rules whose committee under `order` the construction's
    checker rejects."""
    check = _matching_checker(construction)
    return frozenset(
        rule for rule in ONLINE_RULE_IDS
        if not check(election, run_rule(rule, election, order)).satisfied
    )


@lru_cache(maxsize=None)
def defeats_by_order(construction, k):
    """(order, defeated rules) for every arrival order of the fixture
    election, in lexicographic order. Runs all m! orders, so only for m <= 6."""
    election, _ = make_counterexample(construction, k=k)
    return tuple(
        (perm, _defeated_rules(construction, election, ArrivalOrder(perm)))
        for perm in itertools.permutations(range(election.num_candidates))
    )


@pytest.mark.parametrize(
    "construction, k, rule",
    LOWER_BOUND_CASES,
    ids=[f"{c}-{rule}" for c, _, rule in LOWER_BOUND_CASES],
)
def test_criterion_2_lower_bound_fixture(construction, k, rule):
    """Each rule is forced into a violating committee by some arrival order of
    the fixture election, and the documented order defeats as many rules as
    any single order does. One order defeating all four rules exists only for
    ejr-gamma, whose 12! orders are therefore never enumerated."""
    election, order = make_counterexample(construction, k=k)
    documented = _defeated_rules(construction, election, order)
    if len(documented) == len(ONLINE_RULE_IDS):
        table = ((order.permutation, documented),)
    else:
        assert election.num_candidates <= 6, (
            f"the documented {construction} order defeats only"
            f" {sorted(documented)}, and its {election.num_candidates}! orders"
            " are too many to search"
        )
        table = defeats_by_order(construction, k)
    if rule in documented:
        defeating = order.permutation
    else:
        defeating = next((perm for perm, rules in table if rule in rules), None)
    best_order, best = max(table, key=lambda row: len(row[1]))
    members = (
        run_rule(rule, election, ArrivalOrder(defeating)).sorted_members()
        if defeating is not None else None
    )
    ok = defeating is not None and len(documented) == len(best)
    _line(
        f"criterion-2 {construction}/{rule}", ok,
        f"order {defeating} elects {members};"
        f" documented order defeats {len(documented)} of at most {len(best)} rules",
    )
    assert defeating is not None, (
        f"{rule} elects a committee the {construction} checker accepts under"
        " every arrival order; no arrival order forces this rule into a"
        " violating committee here"
    )
    assert len(documented) == len(best), (
        f"the documented {construction} order {order.permutation} defeats"
        f" {sorted(documented)}, but order {best_order} defeats {sorted(best)}"
    )


def test_criterion_3_greedy_satisfies_jr():
    checked = 0
    overspends = 0
    violations = 0
    for election, order in culture_pool():
        committee = greedy_budgeting(election, order)
        if not check_jr(election, committee).satisfied:
            violations += 1
        spent = sum(
            amount
            for decision in committee.audit
            if decision.payments
            for _, amount in decision.payments
        )
        if spent > election.committee_size + 1e-9:
            overspends += 1
        checked += 1
    ok = checked >= 1000 and violations == 0 and overspends == 0
    _line(
        "criterion-3", ok,
        f"{checked} instances, {violations} JR violations, {overspends} overspends",
    )
    assert checked >= 1000
    assert violations == 0
    assert overspends == 0


def test_criterion_4_exact_committee_size():
    runs = 0
    wrong = 0
    for election, order in culture_pool():
        for rule in ONLINE_RULE_IDS:
            members = run_rule(rule, election, order).members
            if len(members) != election.committee_size:
                wrong += 1
            runs += 1
    ok = runs >= 4000 and wrong == 0
    _line("criterion-4", ok, f"{runs} rule-runs, {wrong} wrong-size committees")
    assert runs >= 4000
    assert wrong == 0


def test_criterion_5_equal_shares_hiring_bound():
    start = time.perf_counter()
    report = verify_thm_mes(ExperimentConfig("thm-mes", orders=5000))
    elapsed = time.perf_counter() - start
    freqs = {c: round(f, 4) for c, f in sorted(report.winner_frequencies.items())}
    ok = report.passed and elapsed < 120.0
    _line(
        "criterion-5", ok,
        f"frequencies {freqs} vs threshold {report.per_winner_threshold:.4f},"
        f" joint {report.joint_frequency:.4f} vs {report.joint_threshold:.4f},"
        f" {elapsed:.1f}s",
    )
    assert report.passed
    assert elapsed < 120.0


def test_criterion_6_nash_ratio_bound():
    start = time.perf_counter()
    report = verify_thm_nash(ExperimentConfig("thm-nash"))
    elapsed = time.perf_counter() - start
    ok = report.passed and elapsed < 120.0
    _line(
        "criterion-6", ok,
        f"mean ratio {report.mean_ratio:.4f} vs bound {report.bound:.4f},"
        f" {len(report.instance_means)} instances, {elapsed:.1f}s",
    )
    assert report.passed
    assert elapsed < 120.0


def test_criterion_7_offline_oracle_properties():
    ejr_failures = 0
    affordable = 0
    mismatches = 0
    for election in small_pool():
        committee, trace = mes(election)
        core = Committee(trace.core_members())
        if not check_ejr_bruteforce(election, core, beta=1.0).satisfied:
            ejr_failures += 1
        if not trace.completion_added:
            affordable += 1
            b_committee, _ = bos(election)
            if b_committee.members != committee.members:
                mismatches += 1

    rng = seeded_rng(5150)
    pool = small_pool()
    checked = 0
    worst = -math.inf
    while checked < 100_000:
        election = pool[int(rng.integers(len(pool)))]
        n, m = election.num_voters, election.num_candidates
        cols = rng.permutation(m)
        cut1, cut2 = sorted(int(v) for v in rng.integers(0, m + 1, size=2))
        if cut2 == m:
            continue
        small, big, c = cols[:cut1], cols[:cut2], cols[cut2]
        u = election.utilities
        sat_small = u[:, small].sum(axis=1) if small.size else np.zeros(n)
        sat_big = u[:, big].sum(axis=1) if big.size else np.zeros(n)
        column = u[:, c]
        gain_small = float(np.log1p(sat_small + column).sum() - np.log1p(sat_small).sum())
        gain_big = float(np.log1p(sat_big + column).sum() - np.log1p(sat_big).sum())
        worst = max(worst, gain_big - gain_small)
        checked += 1

    ok = (
        len(small_pool()) >= 500
        and ejr_failures == 0
        and affordable > 0
        and mismatches == 0
        and worst <= 1e-9
    )
    _line(
        "criterion-7", ok,
        f"{len(small_pool())} instances, {ejr_failures} core EJR failures,"
        f" {mismatches} mismatches on {affordable} affordable instances,"
        f" worst submodularity margin {worst:.2e} over {checked} triples",
    )
    assert len(small_pool()) >= 500
    assert ejr_failures == 0
    assert affordable > 0
    assert mismatches == 0
    assert worst <= 1e-9


def test_criterion_8_polarized_quota_ordering():
    cfg = ExperimentConfig("exp4", instances=300, iterations=10)
    records, aggregates, skipped = run_experiment(cfg)
    assert skipped == []
    table = {row["rule"]: row["underperformance"] for row in aggregates["quota"]}
    ok = (
        table["greedy"] == 0.0
        and table["online-nash"] < table["online-mes"]
        and table["online-nash"] < table["online-bos"]
    )
    shares = {rule: round(share, 4) for rule, share in table.items()}
    _line("criterion-8", ok, f"underperformance shares {shares} over {len(records)} records")
    assert table["greedy"] == 0.0
    assert table["online-nash"] < table["online-mes"]
    assert table["online-nash"] < table["online-bos"]


def test_criterion_9_io_golden_contracts(tmp_path):
    dimensions = {
        "hillcrest-2025.pb": (90, 20),
        "lakeview-2023.pb": (150, 40),
        "midtown-2024.pb": (75, 30),
        "riverside-2024.pb": (120, 24),
    }
    parsed = {}
    for name, text in bundled_ballot_files():
        instance = parse_pabulib(text)
        parsed[name] = (len(instance.votes), len(instance.projects))
    golden_ok = parsed == dimensions

    rng = seeded_rng(8080)
    matrix = rng.uniform(0.0, 7.0, (5, 6))
    election = Election(matrix, 3)
    order = ArrivalOrder(tuple(int(c) for c in rng.permutation(6)))
    back, back_order = read_native(write_native(election, order))
    roundtrip_ok = np.array_equal(back.utilities, election.utilities) and back_order == order

    out = tmp_path / "golden.csv"
    cfg = ExperimentConfig("exp1", iterations=1, divisors=(20,), output=str(out))
    run_experiment(cfg)
    first = out.read_bytes()
    run_experiment(cfg)
    csv_ok = out.read_bytes() == first

    ok = golden_ok and roundtrip_ok and csv_ok
    _line(
        "criterion-9", ok,
        f"goldens {'ok' if golden_ok else 'BAD'},"
        f" roundtrip {'exact' if roundtrip_ok else 'BAD'},"
        f" csv {'byte-identical' if csv_ok else 'BAD'}",
    )
    assert golden_ok
    assert roundtrip_ok
    assert csv_ok
