"""Experiment orchestration: seeded evaluation runs, CSV emission, aggregate
tables, and statistical checks of the probabilistic guarantees.

Every run is a pure function of the experiment config: arrival seeds are
derived by hashing (base seed, instance id, k, iteration), so reruns emit
byte-identical CSVs. Wall-clock durations are recorded on RunRecords but
kept out of the CSV for exactly that reason; aggregate timing is reported
separately.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .axioms import check_ejr_plus_approval, check_jr
from .core import Election, random_order, satisfaction
from .io import bundled_ballot_files, divisor_committee_size, parse_pabulib, read_native, to_election
from .metrics import (
    FIELDS,
    HIGHER_BETTER,
    LOWER_BETTER,
    MetricBundle,
    compute_metrics,
    relative_to_baseline,
)
from .rules_offline import mes, nash_optimum_bruteforce, nash_welfare
from .rules_online import ONLINE_RULE_IDS, online_mes, run_rule
from .samplers import CULTURES, SampleSpec, proportional_quota, sample

# The ExperimentConfig fields each experiment reads.
SETTINGS = {
    "exp1": ("sources", "divisors", "iterations", "base_seed", "output"),
    "exp2": ("sources", "divisors", "iterations", "base_seed", "output"),
    "exp3": ("instances", "iterations", "base_seed", "output"),
    "exp4": ("instances", "iterations", "base_seed", "output"),
    "thm-mes": ("orders", "base_seed", "p"),
    "thm-nash": ("instances", "orders", "base_seed"),
}

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
    are the CSV columns, with `metrics` spelled out and `duration` left out."""

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
        cells["committee"] = " ".join(str(c + 1) for c in self.committee)
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
        for name in ("iterations", "instances", "orders"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if not self.divisors or any(d < 1 for d in self.divisors):
            raise ValueError(f"divisors must be at least 1, got {self.divisors}")
        if self.p < 0:
            raise ValueError(f"p must be at least 0, got {self.p}")
        read = SETTINGS[self.experiment]
        for field in dataclasses.fields(self)[1:]:
            if field.name not in read and getattr(self, field.name) != field.default:
                raise ValueError(f"{self.experiment} does not read {field.name}")
        if self.experiment == "exp2" and not self.sources:
            raise ValueError("exp2 needs source= lines")


def parse_config(text):
    """Parse the flat key=value config format (repeated source= lines); a
    key its experiment does not read is refused with its line number."""
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
        if key == "source":
            sources.append(value)
        elif key == "divisors":
            values[key] = tuple(_config_int(v, lineno) for v in value.replace(",", " ").split())
        elif key in ("iterations", "base_seed", "instances", "orders", "p"):
            values[key] = _config_int(value, lineno)
        elif key in ("experiment", "output"):
            values[key] = value
        else:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        lines.setdefault(key, lineno)
    experiment = values.get("experiment")
    if experiment is None:
        raise ValueError("config must set experiment=")
    for key, lineno in lines.items():
        field = "sources" if key == "source" else key
        if experiment in SETTINGS and field not in ("experiment", *SETTINGS[experiment]):
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


def run_cell(instance_id, election, seed, spec=None):
    """Evaluate all online rules plus the offline baseline on one arrival
    order; returns the records in canonical rule order."""
    order = random_order(election.num_candidates, seed)
    records = []
    for rule_id in ALL_RULE_IDS:
        start = time.perf_counter()
        if rule_id == "offline-mes":
            committee, _ = mes(election)
        else:
            committee = run_rule(rule_id, election, order)
        duration = time.perf_counter() - start
        bundle = compute_metrics(satisfaction(election, committee))
        jr_ok = check_jr(election, committee).satisfied
        share = shortfall = witnesses = deserved = received = None
        if election.is_approval:
            report = check_ejr_plus_approval(election, committee)
            share = report.violating_voter_share
            shortfall = report.shortfall
            witnesses = len({w.candidates[0] for w in report.witnesses})
        if spec is not None and spec.culture == "polarized":
            deserved, received = proportional_quota(spec, committee)
        records.append(
            RunRecord(
                instance=instance_id,
                rule=rule_id,
                seed=seed,
                k=election.committee_size,
                committee=committee.sorted_members(),
                metrics=bundle,
                jr_satisfied=jr_ok,
                ejr_plus_share=share,
                ejr_plus_shortfall=shortfall,
                ejr_plus_witnesses=witnesses,
                quota_deserved=deserved,
                quota_received=received,
                duration=duration,
            )
        )
    return records


def _instances(cfg, skipped):
    """Yield (instance id, election, spec or None) for every instance of an
    evaluation experiment, in CSV order.

    exp1 reads ballot files (the bundled ones when no source is configured)
    and exp2 native instances; both take k from each divisor in turn and
    record in `skipped` the divisors that give none. exp3 walks its culture
    grid and exp4 draws polarized parameters from one Philox stream; both
    yield the spec they sampled from.
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
    elif cfg.experiment == "exp3":
        cultures = ("ic", "mallows", "normalized-mallows")
        cells = list(itertools.product(cultures, EXP3_PARAMS, EXP3_VOTERS, EXP3_PAIRS))
        for index, (culture, value, n, (m, k)) in enumerate(cells[: cfg.instances]):
            params = {"p": value} if culture == "ic" else {"phi": value}
            spec = SampleSpec(
                culture=culture,
                num_voters=n,
                num_candidates=m,
                committee_size=k,
                seed=derive_seed(cfg.base_seed, f"exp3-{index}", k, 0),
                **params,
            )
            yield spec.instance_id(), sample(spec), spec
    else:
        rng = np.random.Generator(np.random.Philox(key=derive_seed(cfg.base_seed, "exp4", 0, 0)))
        for index in range(cfg.instances):
            n = int(rng.integers(EXP4_VOTERS[0], EXP4_VOTERS[1] + 1))
            m = int(rng.integers(EXP4_CANDIDATES[0], EXP4_CANDIDATES[1] + 1))
            k = int(rng.integers(2, m // 2 + 1))
            x = float(rng.uniform(*EXP4_SHARE))
            q = float(rng.uniform(*EXP4_RATE))
            spec = SampleSpec(
                culture="polarized",
                num_voters=n,
                num_candidates=m,
                committee_size=k,
                seed=derive_seed(cfg.base_seed, f"exp4-{index}", k, 0),
                x=x,
                q=q,
            )
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


def aggregate_exp1(records):
    """Mean EJR+ violation share, shortfall, and witness count per rule."""
    return [
        {
            "rule": rule,
            "mean_share": sum(r.ejr_plus_share for r in mine) / len(mine),
            "mean_shortfall": sum(r.ejr_plus_shortfall for r in mine) / len(mine),
            "mean_witnesses": sum(r.ejr_plus_witnesses for r in mine) / len(mine),
            "runs": len(mine),
        }
        for rule, mine in _by_rule(records, ALL_RULE_IDS, "ejr_plus_share")
    ]


def aggregate_best_counts(records):
    """Share of evaluation cells where each online rule is best, among the
    two best, and worst, per metric; ties are credited to every tied rule."""
    cells = {}
    for record in records:
        if record.rule == "offline-mes":
            continue
        cells.setdefault((record.instance, record.seed), {})[record.rule] = record.metrics
    counts = {
        (metric, rule): {"best": 0, "top2": 0, "worst": 0}
        for metric in HIGHER_BETTER + LOWER_BETTER
        for rule in ONLINE_RULE_IDS
    }
    total = 0
    for bundles in cells.values():
        if len(bundles) < len(ONLINE_RULE_IDS):
            continue
        total += 1
        for metric in HIGHER_BETTER + LOWER_BETTER:
            sign = 1.0 if metric in HIGHER_BETTER else -1.0
            scored = {rule: sign * getattr(b, metric) for rule, b in bundles.items()}
            values = sorted(set(scored.values()), reverse=True)
            second = values[1] if len(values) > 1 else values[0]
            for rule, score in scored.items():
                slot = counts[(metric, rule)]
                if score == values[0]:
                    slot["best"] += 1
                if score >= second:
                    slot["top2"] += 1
                if score == values[-1]:
                    slot["worst"] += 1
    rows = []
    for (metric, rule), slot in counts.items():
        if total:
            rows.append(
                {
                    "metric": metric,
                    "rule": rule,
                    "best": slot["best"] / total,
                    "top2": slot["top2"] / total,
                    "worst": slot["worst"] / total,
                    "cells": total,
                }
            )
    return rows


def aggregate_relative(records):
    """Mean metrics of each online rule relative to the offline baseline of
    the same cell: ratios for the satisfaction metrics, differences for the
    bounded ones."""
    baselines = {
        (r.instance, r.seed): r.metrics for r in records if r.rule == "offline-mes"
    }
    sums = {}
    for record in records:
        if record.rule == "offline-mes":
            continue
        base = baselines.get((record.instance, record.seed))
        if base is None:
            continue
        relative = relative_to_baseline(record.metrics, base)
        key = (_culture_of(record.instance), record.rule)
        entry = sums.setdefault(key, {"n": 0, "avg": 0.0, "quart": 0.0, "gini": 0.0, "excl": 0.0})
        entry["n"] += 1
        entry["avg"] += relative.average_satisfaction
        entry["quart"] += relative.bottom_quartile_mean
        entry["gini"] += relative.gini
        entry["excl"] += relative.exclusion_ratio
    rows = []
    for (culture, rule), entry in sorted(sums.items()):
        n = entry["n"]
        rows.append(
            {
                "culture": culture,
                "rule": rule,
                "avg_ratio": entry["avg"] / n,
                "quartile_ratio": entry["quart"] / n,
                "gini_diff": entry["gini"] / n,
                "exclusion_diff": entry["excl"] / n,
                "runs": n,
            }
        )
    return rows


def _culture_of(instance_id):
    for culture in sorted(CULTURES, key=len, reverse=True):
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
        instance_means = [sum(ds) / len(ds) for ds in per_instance.values()]
        rows.append(
            {
                "rule": rule,
                "underperformance": len(failing) / len(deficits),
                "mean_deficit": sum(failing) / len(failing) if failing else 0.0,
                "max_deficit": max(instance_means),
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
        for iteration in range(1, cfg.iterations + 1):
            seed = derive_seed(cfg.base_seed, instance_id, election.committee_size, iteration)
            records.extend(run_cell(instance_id, election, seed, spec=spec))
    aggregates = {name: table(records) for name, table in AGGREGATES[cfg.experiment].items()}
    aggregates["timing"] = _aggregate_timing(records)
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8") as handle:
            handle.write(records_to_csv(records))
    return records, aggregates, skipped


def _aggregate_timing(records):
    return [
        {"rule": rule, "mean_seconds": sum(r.duration for r in mine) / len(mine)}
        for rule, mine in _by_rule(records, ALL_RULE_IDS)
    ]


def single_approval_election():
    """A single-approval election with m=40 and k=3 whose offline
    equal-shares outcome is the first k candidates: each gets exactly n/k = 10
    supporters (so each is exactly affordable), every other candidate gets
    none."""
    m, k, per = 40, 3, 10
    n = per * k
    matrix = np.zeros((n, m))
    for c in range(k):
        matrix[per * c : per * (c + 1), c] = 1.0
    return Election(n, m, k, matrix)


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


def verify_thm_mes(cfg):
    """Monte Carlo check of the hiring guarantee of online equal shares.

    On a single-approval instance, every offline winner must be hired with
    frequency at least 1/e minus three binomial standard deviations, and at
    least k - p winners must be hired jointly with frequency at least
    (1/e)^(k-p) minus the same allowance. p = k is vacuous (trivially
    passed).
    """
    election = single_approval_election()
    k = election.committee_size
    committee, trace = mes(election)
    if trace.completion_added:
        raise ValueError("theorem check needs an instance solved without completion")
    winners = sorted(committee.members)
    if cfg.p >= k:
        return MesTheoremReport({}, 0.0, 1.0, 1.0, cfg.p, 0, vacuous=True, passed=True)
    orders = cfg.orders
    hire_counts = {c: 0 for c in winners}
    joint_count = 0
    for iteration in range(1, orders + 1):
        seed = derive_seed(cfg.base_seed, "thm-mes", k, iteration)
        order = random_order(election.num_candidates, seed)
        members = online_mes(election, order).members
        hired = [c for c in winners if c in members]
        for c in hired:
            hire_counts[c] += 1
        if len(hired) >= k - cfg.p:
            joint_count += 1
    sigma = math.sqrt(0.368 * 0.632 / orders)
    inv_e = 1.0 / math.e
    frequencies = {c: hire_counts[c] / orders for c in winners}
    per_threshold = inv_e - 3.0 * sigma
    joint_bound = inv_e ** (k - cfg.p)
    joint_sigma = math.sqrt(joint_bound * (1.0 - joint_bound) / orders)
    joint_threshold = joint_bound - 3.0 * joint_sigma
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
    stays scale-meaningful near zero.
    """
    bound = (1.0 - 1.0 / math.e) / 7.0
    instance_means = []
    ratios_all = []
    for index in range(cfg.instances):
        spec = SampleSpec(
            culture="ic",
            num_voters=5,
            num_candidates=12,
            committee_size=3,
            p=0.5,
            seed=derive_seed(cfg.base_seed, f"thm-nash-{index}", 3, 0),
        )
        election = sample(spec)
        _, optimum = nash_optimum_bruteforce(election)
        ratios = []
        for iteration in range(1, cfg.orders + 1):
            seed = derive_seed(cfg.base_seed, spec.instance_id(), 3, iteration)
            order = random_order(election.num_candidates, seed)
            committee = run_rule("online-nash", election, order)
            ratios.append(math.exp(nash_welfare(election, committee) - optimum))
        instance_means.append(sum(ratios) / len(ratios))
        ratios_all.extend(ratios)
    mean_ratio = sum(ratios_all) / len(ratios_all)
    return NashTheoremReport(
        instance_means=tuple(instance_means),
        mean_ratio=mean_ratio,
        bound=bound,
        orders=cfg.orders,
        passed=mean_ratio >= bound,
    )
