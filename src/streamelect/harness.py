"""Experiment orchestration: seeded evaluation runs, CSV emission, aggregate
tables, and statistical checks of the probabilistic guarantees.

Every run is a pure function of the experiment config: `_instances` builds
every instance and `_seeds` derives every arrival seed, both by hashing
(base seed, id, k, iteration), so reruns emit byte-identical CSVs.
Wall-clock durations are recorded on RunRecords but kept out of the CSV for
exactly that reason; aggregate timing is reported separately.

Only the online rules see the arrival order. Work that does not depend on
it is done once per instance: offline `mes` in `run_experiment`, and through
one `functools.cache` per instance keyed by member set, each distinct
committee's evaluation there, its Nash ratio in `verify_thm_nash`, and each
candidate set's winners in `verify_thm_mes` (inside `winners_memo`). In
`run_experiment`, online-mes and online-bos each keep one `EngineCache` per
instance, so each equal-shares key is solved once per instance.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .axioms import check_ejr_plus_approval, check_jr
from .core import Committee, Election, check_int, check_unread, random_order, satisfaction, seeded_rng
from .io import bundled_ballot_files, divisor_committee_size, parse_pabulib, read_native
from .io import to_election, write_ids
from .metrics import (
    FIELDS,
    HIGHER_BETTER,
    LOWER_BETTER,
    MetricBundle,
    compute_metrics,
    relative_to_baseline,
)
from .rules_offline import EngineCache, equal_shares_subset, mes, nash_optimum_bruteforce
from .rules_offline import nash_welfare
from .rules_online import ONLINE_RULE_IDS, run_rule, winners_memo
from .samplers import CULTURE_TABLE, CULTURES, SampleSpec, proportional_quota, sample

# The ExperimentConfig fields each experiment reads.
SETTINGS = {
    "exp1": ("sources", "divisors", "iterations", "base_seed", "output"),
    "exp2": ("sources", "divisors", "iterations", "base_seed", "output"),
    "exp3": ("instances", "iterations", "base_seed", "output"),
    "exp4": ("instances", "iterations", "base_seed", "output"),
    "thm-mes": ("orders", "base_seed", "p"),
    "thm-nash": ("instances", "orders", "base_seed"),
}

# The integer ExperimentConfig fields, checked and parsed as integers.
INT_SETTINGS = ("iterations", "instances", "orders", "p", "base_seed")

ALL_RULE_IDS = ONLINE_RULE_IDS + ("offline-mes",)

# Desk-scale grid for the sampled-culture experiment.
EXP3_VOTERS = (5, 10, 20, 50)
EXP3_PAIRS = ((8, 2), (10, 3), (12, 4), (14, 4), (16, 5), (20, 5), (24, 8), (30, 10))
EXP3_PARAMS = (0.2, 0.6, 1.0)

# Ranges for the polarized experiment; k stays at or below m/2 so group A's
# budget always covers its committee share (the no-underperformance guarantee
# of the greedy rule needs first-half candidates to outnumber the quota).
EXP4_VOTERS = (20, 60)
EXP4_CANDIDATES = (10, 24)
EXP4_SHARE = (0.2, 0.8)
EXP4_RATE = (0.3, 1.0)


@dataclass(frozen=True)
class RunRecord:
    """One (instance, rule, arrival seed) evaluation. Its fields, in order,
    are the CSV columns, with `metrics` spelled out and `duration` left out.

    `duration` times this record's rule call alone. `run_experiment` makes
    every online rule call, but calls offline `mes` once per instance and
    evaluates each distinct committee of an instance once: the `offline-mes`
    records of an instance share that one call's committee and `duration`,
    and records that elect the same members share their metrics, JR, EJR+
    and quota fields. The online-mes and online-bos calls of an instance
    reuse the equal-shares keys its earlier orders solved, so their
    durations are largest on the instance's first order."""

    instance: str
    rule: str
    seed: int
    k: int
    committee: tuple
    metrics: MetricBundle
    jr_satisfied: bool
    ejr_plus_share: float | None = None
    ejr_plus_shortfall: float | None = None
    ejr_plus_witnesses: int | None = None
    quota_deserved: int | None = None
    quota_received: int | None = None
    duration: float = 0.0

    def csv_row(self):
        cells = {**vars(self), **vars(self.metrics)}
        cells["committee"] = write_ids(self.committee)
        return ",".join(_csv_cell(cells[name]) for name in CSV_FIELDS)


CSV_FIELDS = tuple(
    name
    for field in dataclasses.fields(RunRecord)
    if field.name != "duration"
    for name in (FIELDS if field.name == "metrics" else (field.name,))
)


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings of one experiment run. SETTINGS names the fields each
    experiment reads; a field it does not read must stay at its default.

    `sources` are instance files: ballot files for exp1, which falls back to
    the bundled ones, and native instances for exp2, which needs at least
    one. Each of `divisors` gives one committee size. `iterations` and
    `output` set the arrival orders per (instance, k) and the CSV path;
    `base_seed` roots every seed. `instances` bounds the sampled instances,
    `orders` is the Monte Carlo size, and `p`, at least 0, is the relaxation
    level of thm-mes.
    """

    experiment: str
    sources: tuple = ()
    divisors: tuple = (20, 4)
    iterations: int = 5
    base_seed: int = 2026
    output: str | None = None
    instances: int = 20
    orders: int = 500
    p: int = 2

    def __post_init__(self):
        if self.experiment not in SETTINGS:
            raise ValueError(f"unknown experiment: {self.experiment!r}")
        for name in INT_SETTINGS:
            check_int(name, getattr(self, name))
        for divisor in self.divisors:
            check_int("divisors", divisor)
        for name in ("iterations", "instances", "orders"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if not self.divisors or any(d < 1 for d in self.divisors):
            raise ValueError(f"divisors must be at least 1, got {self.divisors}")
        # A divisor and a file's base name make up an instance id, so a
        # repeat would give two instances one id and one set of seeds.
        names = tuple(os.path.basename(path) for path in self.sources)
        for what, values in (("divisor", tuple(self.divisors)), ("source name", names)):
            repeats = [v for i, v in enumerate(values) if v in values[:i]]
            if repeats:
                raise ValueError(f"repeated {what} {repeats[0]!r}")
        if self.p < 0:
            raise ValueError(f"p must be at least 0, got {self.p}")
        check_unread(self, SETTINGS[self.experiment], self.experiment)
        if self.experiment == "exp2" and not self.sources:
            raise ValueError("exp2 needs source= lines")


def parse_config(text):
    """Parse the flat key=value config format (repeated source= lines); an
    unknown experiment, a repeated key other than source, and a key its
    experiment does not read are refused with their line numbers."""
    values = {}
    sources = []
    lines = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in lines and key != "source":
            raise ValueError(f"config line {lineno}: repeated key {key!r}")
        if key == "source":
            sources.append(value)
        elif key == "divisors":
            values[key] = tuple(_config_int(v, lineno) for v in value.replace(",", " ").split())
        elif key in INT_SETTINGS:
            values[key] = _config_int(value, lineno)
        elif key in ("experiment", "output"):
            values[key] = value
        else:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        lines.setdefault(key, lineno)
    experiment = values.get("experiment")
    if experiment is None:
        raise ValueError("config must set experiment=")
    if experiment not in SETTINGS:
        raise ValueError(f"config line {lines['experiment']}: unknown experiment: {experiment!r}")
    for key, lineno in lines.items():
        field = "sources" if key == "source" else key
        if field not in ("experiment", *SETTINGS[experiment]):
            raise ValueError(f"config line {lineno}: {experiment} does not read {key}")
    return ExperimentConfig(sources=tuple(sources), **values)


def _config_int(value, lineno):
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"config line {lineno}: expected an integer, got {value!r}") from None


def derive_seed(base_seed, instance_id, k, iteration):
    """Arrival seed for one evaluation cell, stable across platforms."""
    material = f"{base_seed}|{instance_id}|{k}|{iteration}".encode()
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")


def _seeds(cfg, instance_id, election, count):
    """Seeds (instance id, k, i) of an instance's arrival orders i = 1..count."""
    k = election.committee_size
    return [derive_seed(cfg.base_seed, instance_id, k, i) for i in range(1, count + 1)]


def _run_instance(instance_id, election, seeds, spec):
    """The records of one instance, for each of `seeds` in turn, each in
    canonical rule order.

    Offline `mes` does not see the order, so it is called and timed once,
    and every `offline-mes` record of the instance carries that committee
    and that duration. Every online rule call is made and timed per seed.
    Online-mes and online-bos each get one `EngineCache` for the instance,
    so an order reuses the equal-shares keys its earlier orders solved and
    the instance's first order pays the most. A `functools.cache` of this
    call evaluates each distinct member set of the instance once, on a
    `Committee` built from those members. The caches and the memo are
    dropped when the instance ends.
    """
    start = time.perf_counter()
    offline, _ = mes(election)
    offline_duration = time.perf_counter() - start
    caches = {"online-mes": EngineCache(), "online-bos": EngineCache()}
    evaluate = functools.cache(lambda members: _evaluate(election, Committee(members), spec))
    records = []
    for seed in seeds:
        order = random_order(election.num_candidates, seed)
        for rule_id in ALL_RULE_IDS:
            if rule_id == "offline-mes":
                committee, duration = offline, offline_duration
            else:
                start = time.perf_counter()
                committee = run_rule(rule_id, election, order, cache=caches.get(rule_id))
                duration = time.perf_counter() - start
            records.append(
                RunRecord(
                    instance=instance_id,
                    rule=rule_id,
                    seed=seed,
                    k=election.committee_size,
                    committee=committee.sorted_members(),
                    duration=duration,
                    **evaluate(committee.members),
                )
            )
    return records


def _evaluate(election, committee, spec):
    """The RunRecord fields that depend only on the committee's members: the
    metrics and JR verdict always, EJR+ on approval ballots, and the quota on
    a polarized instance."""
    evaluation = {
        "metrics": compute_metrics(satisfaction(election, committee)),
        "jr_satisfied": check_jr(election, committee).satisfied,
    }
    if election.is_approval:
        report = check_ejr_plus_approval(election, committee)
        evaluation["ejr_plus_share"] = report.violating_voter_share
        evaluation["ejr_plus_shortfall"] = report.shortfall
        evaluation["ejr_plus_witnesses"] = len({w.candidates[0] for w in report.witnesses})
    if spec is not None and spec.culture == "polarized":
        evaluation["quota_deserved"], evaluation["quota_received"] = proportional_quota(
            spec, committee
        )
    return evaluation


def _instances(cfg, skipped):
    """Yield (instance id, election, spec or None) for every instance of an
    experiment, in CSV order.

    exp1 reads ballot files (the bundled ones when no source is configured)
    and exp2 native instances; both take k from each divisor in turn and
    record in `skipped` the divisors that give none. thm-mes has one
    instance, id "thm-mes". exp3 walks its culture grid, exp4 draws
    polarized parameters from seed ("exp4", 0, 0) and thm-nash repeats one
    IC spec; the i-th of these is sampled from a SampleSpec seeded by
    ("<experiment>-<i>", k, 0) and yielded with that spec.
    """
    if cfg.experiment in ("exp1", "exp2"):
        if cfg.sources:
            files = (
                (os.path.basename(path), Path(path).read_text(encoding="utf-8"))
                for path in cfg.sources
            )
        else:
            files = bundled_ballot_files()
        for name, text in files:
            if cfg.experiment == "exp1":
                instance = parse_pabulib(text)
                m = len(instance.projects)
            else:
                election, _order = read_native(text)
                m = election.num_candidates
            for divisor in cfg.divisors:
                try:
                    k = divisor_committee_size(m, divisor)
                except ValueError as exc:
                    skipped.append(f"{name} divisor {divisor}: {exc}")
                    continue
                if cfg.experiment == "exp1":
                    scoped = to_election(instance, k)
                else:
                    scoped = dataclasses.replace(election, committee_size=k)
                yield f"{name}/m{divisor}", scoped, None
        return
    if cfg.experiment == "thm-mes":
        yield "thm-mes", single_approval_election(), None
        return
    if cfg.experiment == "exp3":
        cultures = ("ic", "mallows", "normalized-mallows")
        grid = itertools.product(cultures, EXP3_PARAMS, EXP3_VOTERS, EXP3_PAIRS)
        draws = []
        for culture, value, n, (m, k) in itertools.islice(grid, cfg.instances):
            (name,) = (field for field, described in CULTURE_TABLE[culture][1].items() if described)
            draws.append((culture, n, m, k, {name: value}))
    elif cfg.experiment == "exp4":
        rng = seeded_rng(derive_seed(cfg.base_seed, "exp4", 0, 0))
        draws = []
        for _ in range(cfg.instances):
            n = int(rng.integers(EXP4_VOTERS[0], EXP4_VOTERS[1] + 1))
            m = int(rng.integers(EXP4_CANDIDATES[0], EXP4_CANDIDATES[1] + 1))
            k = int(rng.integers(2, m // 2 + 1))
            params = {"x": float(rng.uniform(*EXP4_SHARE)), "q": float(rng.uniform(*EXP4_RATE))}
            draws.append(("polarized", n, m, k, params))
    else:
        draws = [("ic", 5, 12, 3, {"p": 0.5})] * cfg.instances
    for index, (culture, n, m, k, params) in enumerate(draws):
        seed = derive_seed(cfg.base_seed, f"{cfg.experiment}-{index}", k, 0)
        spec = SampleSpec(culture, n, m, k, seed, **params)
        yield spec.instance_id(), sample(spec), spec


def _by_rule(records, rules, present=None):
    """Yield (rule, its records) for each of `rules` in order, keeping only
    the records whose field `present` is not None and skipping a rule that
    keeps none."""
    for rule in rules:
        mine = [
            r
            for r in records
            if r.rule == rule and (present is None or getattr(r, present) is not None)
        ]
        if mine:
            yield rule, mine


def _cells(records):
    """Map each (instance, seed) evaluation cell to {rule: metrics}."""
    cells = {}
    for record in records:
        cells.setdefault((record.instance, record.seed), {})[record.rule] = record.metrics
    return cells


def _mean(values):
    return sum(values) / len(values)


def aggregate_exp1(records):
    """Mean EJR+ violation share, shortfall, and witness count per rule."""
    return [
        {
            "rule": rule,
            "mean_share": _mean([r.ejr_plus_share for r in mine]),
            "mean_shortfall": _mean([r.ejr_plus_shortfall for r in mine]),
            "mean_witnesses": _mean([r.ejr_plus_witnesses for r in mine]),
            "runs": len(mine),
        }
        for rule, mine in _by_rule(records, ALL_RULE_IDS, "ejr_plus_share")
    ]


def aggregate_best_counts(records):
    """Share of evaluation cells where each online rule is best, among the
    two best, and worst, per metric; ties are credited to every tied rule.
    Only the cells that hold all four online rules count."""
    cells = [c for c in _cells(records).values() if all(rule in c for rule in ONLINE_RULE_IDS)]
    if not cells:
        return []
    rows = []
    for metric in HIGHER_BETTER + LOWER_BETTER:
        sign = 1.0 if metric in HIGHER_BETTER else -1.0
        # Each cell's scores and its distinct scores, best first;
        # values[:2][-1] is the second best, or the best when all tie.
        ranks = []
        for cell in cells:
            scores = {rule: sign * getattr(cell[rule], metric) for rule in ONLINE_RULE_IDS}
            ranks.append((scores, sorted(set(scores.values()), reverse=True)))
        for rule in ONLINE_RULE_IDS:
            rows.append(
                {
                    "metric": metric,
                    "rule": rule,
                    "best": _mean([s[rule] == values[0] for s, values in ranks]),
                    "top2": _mean([s[rule] >= values[:2][-1] for s, values in ranks]),
                    "worst": _mean([s[rule] == values[-1] for s, values in ranks]),
                    "cells": len(cells),
                }
            )
    return rows


def aggregate_relative(records):
    """Mean metrics of each online rule relative to the offline baseline of
    the same cell: ratios for the satisfaction metrics, differences for the
    bounded ones."""
    groups = {}
    for (instance, _seed), cell in _cells(records).items():
        base = cell.get("offline-mes")
        if base is None:
            continue
        for rule, bundle in cell.items():
            if rule != "offline-mes":
                key = (_culture_of(instance), rule)
                groups.setdefault(key, []).append(relative_to_baseline(bundle, base))
    return [
        {
            "culture": culture,
            "rule": rule,
            "avg_ratio": _mean([r.average_satisfaction for r in relative]),
            "quartile_ratio": _mean([r.bottom_quartile_mean for r in relative]),
            "gini_diff": _mean([r.gini for r in relative]),
            "exclusion_diff": _mean([r.exclusion_ratio for r in relative]),
            "runs": len(relative),
        }
        for (culture, rule), relative in sorted(groups.items())
    ]


def _culture_of(instance_id):
    for culture in CULTURES:
        if instance_id.startswith(culture + "-"):
            return culture
    return instance_id.split("-")[0]


def aggregate_exp4(records):
    """Underperformance share, conditional mean deficit, and the largest
    per-instance mean deficit, per online rule."""
    rows = []
    for rule, mine in _by_rule(records, ONLINE_RULE_IDS, "quota_deserved"):
        deficits = [max(0, r.quota_deserved - r.quota_received) for r in mine]
        failing = [d for d in deficits if d > 0]
        per_instance = {}
        for record, deficit in zip(mine, deficits):
            per_instance.setdefault(record.instance, []).append(deficit)
        rows.append(
            {
                "rule": rule,
                "underperformance": len(failing) / len(deficits),
                "mean_deficit": _mean(failing) if failing else 0.0,
                "max_deficit": max(map(_mean, per_instance.values())),
                "runs": len(deficits),
            }
        )
    return rows


def records_to_csv(records):
    lines = [",".join(CSV_FIELDS)]
    lines.extend(r.csv_row() for r in records)
    return "\n".join(lines) + "\n"


# Aggregate tables of each evaluation experiment, by table name.
AGGREGATES = {
    "exp1": {"ejr_plus": aggregate_exp1, "best_counts": aggregate_best_counts},
    "exp2": {"best_counts": aggregate_best_counts},
    "exp3": {"relative": aggregate_relative},
    "exp4": {"quota": aggregate_exp4},
}


def run_experiment(cfg):
    """Run one experiment end to end.

    Returns
    -------
    (records, aggregates, skipped)
        records: canonical-order RunRecords; aggregates: dict of aggregate
        tables keyed by table name; skipped: human-readable skip reasons.
        The CSV is written to cfg.output when set.
    """
    if cfg.experiment not in AGGREGATES:
        raise ValueError(f"{cfg.experiment} is a theorem check; use its verify function")
    skipped = []
    records = []
    for instance_id, election, spec in _instances(cfg, skipped):
        seeds = _seeds(cfg, instance_id, election, cfg.iterations)
        records.extend(_run_instance(instance_id, election, seeds, spec))
    aggregates = {name: table(records) for name, table in AGGREGATES[cfg.experiment].items()}
    aggregates["timing"] = _aggregate_timing(records)
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8") as handle:
            handle.write(records_to_csv(records))
    return records, aggregates, skipped


def _aggregate_timing(records):
    return [
        {"rule": rule, "mean_seconds": _mean([r.duration for r in mine])}
        for rule, mine in _by_rule(records, ALL_RULE_IDS)
    ]


def single_approval_election():
    """A single-approval election with m=40 and k=3 whose offline
    equal-shares outcome is the first k candidates: each gets exactly n/k = 10
    supporters (so each is exactly affordable), every other candidate gets
    none."""
    m, k, per = 40, 3, 10
    matrix = np.zeros((per * k, m))
    for c in range(k):
        matrix[per * c : per * (c + 1), c] = 1.0
    return Election(matrix, k)


@dataclass(frozen=True)
class MesTheoremReport:
    """Empirical hire frequencies of the reference winners under the online
    equal-shares rule, against the 1/e bound."""

    winner_frequencies: dict
    per_winner_threshold: float
    joint_frequency: float
    joint_threshold: float
    relaxation: int
    orders: int
    vacuous: bool
    passed: bool


def _monte_carlo_floor(bound, orders):
    """`bound` minus three binomial standard deviations of a frequency of
    probability `bound` over `orders` draws."""
    return bound - 3.0 * math.sqrt(bound * (1.0 - bound) / orders)


def verify_thm_mes(cfg):
    """Monte Carlo check of the hiring guarantee of online equal shares.

    On a single-approval instance, every offline winner must be hired with
    frequency at least 1/e minus three binomial standard deviations, and at
    least k - p winners must be hired jointly with frequency at least
    (1/e)^(k-p) minus the same allowance. p = k is vacuous (trivially
    passed).

    Every order runs the online-mes rule of one `winners_memo` call, whose
    cache solves a candidate set that recurs across orders once.
    """
    ((instance_id, election, _),) = _instances(cfg, [])
    k = election.committee_size
    committee, _ = mes(election)
    winners = sorted(committee.members)
    if cfg.p >= k:
        return MesTheoremReport({}, 0.0, 1.0, 1.0, cfg.p, 0, vacuous=True, passed=True)
    orders = cfg.orders
    rule = winners_memo(equal_shares_subset)
    hire_counts = {c: 0 for c in winners}
    joint_count = 0
    for seed in _seeds(cfg, instance_id, election, orders):
        order = random_order(election.num_candidates, seed)
        members = rule(election, order).members
        hired = [c for c in winners if c in members]
        for c in hired:
            hire_counts[c] += 1
        if len(hired) >= k - cfg.p:
            joint_count += 1
    frequencies = {c: hire_counts[c] / orders for c in winners}
    inv_e = 1.0 / math.e
    per_threshold = _monte_carlo_floor(inv_e, orders)
    joint_threshold = _monte_carlo_floor(inv_e ** (k - cfg.p), orders)
    joint_frequency = joint_count / orders
    passed = all(f >= per_threshold for f in frequencies.values()) and (
        joint_frequency >= joint_threshold
    )
    return MesTheoremReport(
        winner_frequencies=frequencies,
        per_winner_threshold=per_threshold,
        joint_frequency=joint_frequency,
        joint_threshold=joint_threshold,
        relaxation=cfg.p,
        orders=orders,
        vacuous=False,
        passed=passed,
    )


@dataclass(frozen=True)
class NashTheoremReport:
    """Mean ratio of online to optimal Nash product (exponentiated welfare)
    against the (1 - 1/e) / 7 bound."""

    instance_means: tuple
    mean_ratio: float
    bound: float
    orders: int
    passed: bool


def verify_thm_nash(cfg):
    """Monte Carlo check of the online Nash guarantee on IC instances.

    For each sampled instance the brute-force optimum is computed once, then
    cfg.orders arrival orders are evaluated; the ratio compares exponentiated
    welfares exp(nash(online) - nash(opt)), the product-of-(1+u) form, which
    stays scale-meaningful near zero. An instance has at most C(m, k)
    committees, so a `functools.cache` per instance computes each distinct
    member set's ratio once.
    """
    bound = (1.0 - 1.0 / math.e) / 7.0
    instance_means = []
    ratios_all = []
    for instance_id, election, _ in _instances(cfg, []):
        _, optimum = nash_optimum_bruteforce(election)
        ratio = functools.cache(lambda members: math.exp(nash_welfare(election, members) - optimum))
        ratios = []
        for seed in _seeds(cfg, instance_id, election, cfg.orders):
            order = random_order(election.num_candidates, seed)
            ratios.append(ratio(run_rule("online-nash", election, order).members))
        instance_means.append(_mean(ratios))
        ratios_all.extend(ratios)
    mean_ratio = _mean(ratios_all)
    return NashTheoremReport(
        instance_means=tuple(instance_means),
        mean_ratio=mean_ratio,
        bound=bound,
        orders=cfg.orders,
        passed=mean_ratio >= bound,
    )
