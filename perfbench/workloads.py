"""The benchmark's four workloads.

Each workload's `setup(seed)` builds its inputs as a pure function of the
seed and returns a `Schedule`: a cyclic list of steps and the block length
at which a pass may stop. A step is one timed library call; it yields one
or more ops, each with its latency, the digest of its output and the
structural invariants that output must meet on any seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass

import numpy as np

from streamelect import axioms, core, harness, io, rules_offline, rules_online, samplers

DEFAULT_SEED = 0


def derive(seed, *parts):
    """A 64-bit seed for one input of the benchmark, stable across platforms."""
    material = "|".join(["perfbench", str(seed), *map(str, parts)]).encode()
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")


def canonical(value):
    """A JSON-ready form of a library result with exact float digits."""
    if dataclasses.is_dataclass(value):
        return [canonical(getattr(value, f.name)) for f in dataclasses.fields(value)]
    if isinstance(value, (frozenset, set)):
        return sorted(canonical(v) for v in value)
    if isinstance(value, (tuple, list)):
        return [canonical(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if value is None or isinstance(value, str):
        return value
    raise TypeError(f"no canonical form for {type(value).__name__}")


def digest(value):
    text = value if isinstance(value, str) else json.dumps(canonical(value), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class Op:
    """One op's outcome: latency in seconds, output digest, invariant faults."""

    latency: float
    digest: str
    faults: tuple = ()


@dataclass(frozen=True)
class Step:
    """One timed call. `run` performs it; `ops(output, seconds)` turns its
    output and duration into Op entries, raising when the output cannot be
    read; `size` is the op count it yields."""

    key: str
    run: object
    ops: object
    size: int = 1


@dataclass(frozen=True)
class Schedule:
    """A workload's steps in run order (cyclic), the number of steps after
    which a pass may stop, and a digest of every generated input."""

    steps: tuple
    block: int
    inputs_digest: str


# --- exp4-polarized -------------------------------------------------------

EXP4_ITERATIONS = 10
# (m, k) cells spanning the exp4 ranges; each cycle visits every cell once,
# with the voter count drawn from one of three bands, rotating per cycle.
# Instance cost grows with m * k, so fixing the mix keeps the work of a pass
# independent of the seed.
EXP4_CELLS = ((11, 2), (11, 3), (11, 5), (15, 2), (15, 4), (15, 7),
              (19, 2), (19, 5), (19, 9), (23, 2), (23, 6), (23, 11))
EXP4_VOTER_BANDS = ((20, 33), (34, 47), (48, 60))
EXP4_CYCLES = 12


def exp4_first_draw(base_seed):
    """(n, m, k) of the first instance run_experiment('exp4') draws."""
    rng = np.random.Generator(np.random.Philox(key=harness.derive_seed(base_seed, "exp4", 0, 0)))
    n = int(rng.integers(harness.EXP4_VOTERS[0], harness.EXP4_VOTERS[1] + 1))
    m = int(rng.integers(harness.EXP4_CANDIDATES[0], harness.EXP4_CANDIDATES[1] + 1))
    k = int(rng.integers(2, m // 2 + 1))
    return n, m, k


def exp4_base_seed(seed, cycle, cell):
    m, k = EXP4_CELLS[cell]
    low, high = EXP4_VOTER_BANDS[(cycle + cell) % len(EXP4_VOTER_BANDS)]
    for attempt in range(1_000_000):
        base = derive(seed, "exp4", cycle, cell, attempt)
        n, m_drawn, k_drawn = exp4_first_draw(base)
        if (m_drawn, k_drawn) == (m, k) and low <= n <= high:
            return base
    raise RuntimeError("no base seed found for an exp4 cell")


def _exp4_step(base_seed, k):
    config = harness.ExperimentConfig(
        "exp4", instances=1, iterations=EXP4_ITERATIONS, base_seed=base_seed
    )

    def run():
        return harness.run_experiment(config)[0]

    size = len(harness.ALL_RULE_IDS) * EXP4_ITERATIONS

    def ops(records, seconds):
        if len(records) != size:
            raise ValueError(f"{len(records)} records, expected {size}")
        out = []
        for record in records:
            faults = []
            if record.k != k or len(record.committee) != k:
                faults.append(f"committee of {len(record.committee)} for k={k}")
            out.append(Op(record.duration, digest(record.csv_row()), tuple(faults)))
        return out

    return Step(f"base{base_seed}", run, ops, size=size)


def setup_exp4(seed):
    steps = []
    for cycle in range(EXP4_CYCLES):
        for cell, (_, k) in enumerate(EXP4_CELLS):
            steps.append(_exp4_step(exp4_base_seed(seed, cycle, cell), k))
    return Schedule(tuple(steps), len(EXP4_CELLS), digest([s.key for s in steps]))


# --- large-cardinal -------------------------------------------------------

LARGE_SIZE = (1000, 48, 6)
LARGE_IC_P = 0.4
LARGE_MALLOWS_PHI = 0.6
# A block runs two fresh IC elections, each followed by the four online rules
# on one shared Mallows election, then mes and bos on the Mallows election
# once. Of its 22 ops, 8 are greedy or online-nash calls, so the median op
# falls inside the IC mes/bos calls and p90 inside the Mallows displacement
# calls, not on the edge between two clusters of op costs. IC sampling is
# cheap, Mallows sampling is not.
LARGE_BLOCKS = 6


def _online_faults(committee, order, k):
    faults = []
    if len(committee.members) != k:
        faults.append(f"{len(committee.members)} members for k={k}")
    positions = [d.position for d in committee.audit]
    candidates = [d.candidate for d in committee.audit]
    if positions != list(range(1, len(order) + 1)) or tuple(candidates) != order.permutation:
        faults.append("audit does not hold one Decision per arrival position")
    return tuple(faults)


def _large_online_step(key, rule, election, order):
    def run():
        return rules_online.run_rule(rule, election, order)

    def ops(committee, seconds):
        outcome = [committee.sorted_members(), committee.audit]
        faults = _online_faults(committee, order, election.committee_size)
        return [Op(seconds, digest(outcome), faults)]

    return Step(key, run, ops)


def _large_offline_step(key, rule, election):
    def run():
        return getattr(rules_offline, rule)(election)

    def ops(result, seconds):
        committee, trace = result
        k = election.committee_size
        faults = () if len(committee.members) == k else (f"{len(committee.members)} members",)
        return [Op(seconds, digest([committee.sorted_members(), trace]), faults)]

    return Step(key, run, ops)


def setup_large(seed):
    n, m, k = LARGE_SIZE

    def election(culture, label, **params):
        spec = samplers.SampleSpec(
            culture=culture, num_voters=n, num_candidates=m, committee_size=k,
            seed=derive(seed, "large", label), **params,
        )
        return samplers.sample(spec)

    def online_steps(label, chosen):
        order = core.random_order(m, derive(seed, "large-order", label))
        inputs.append(order.permutation)
        for rule in rules_online.ONLINE_RULE_IDS:
            steps.append(_large_online_step(f"{label}/{rule}", rule, chosen, order))

    mallows = election("mallows", "mallows", phi=LARGE_MALLOWS_PHI)
    steps = []
    inputs = [hashlib.sha256(mallows.utilities.tobytes()).hexdigest()]
    for index in range(2 * LARGE_BLOCKS):
        ic = election("ic", f"ic{index}", p=LARGE_IC_P)
        inputs.append(hashlib.sha256(ic.utilities.tobytes()).hexdigest())
        online_steps(f"ic{index}", ic)
        for rule in ("mes", "bos"):
            steps.append(_large_offline_step(f"ic{index}/{rule}", rule, ic))
        online_steps(f"mallows{index}", mallows)
        if index % 2:
            for rule in ("mes", "bos"):
                steps.append(_large_offline_step(f"mallows/{rule}", rule, mallows))
    return Schedule(tuple(steps), 22, digest(inputs))


# --- thm-nash -------------------------------------------------------------

NASH_ORDERS = 500
NASH_STEPS = 200


def _nash_step(base_seed):
    config = harness.ExperimentConfig(
        "thm-nash", instances=1, orders=NASH_ORDERS, base_seed=base_seed
    )

    def run():
        return harness.verify_thm_nash(config)

    def ops(report, seconds):
        faults = []
        if report.orders != NASH_ORDERS or len(report.instance_means) != 1:
            faults.append("report does not cover one instance at the configured orders")
        if not 0.0 < report.mean_ratio <= 1.0 + 1e-12:
            faults.append(f"online/optimal ratio {report.mean_ratio} outside (0, 1]")
        if report.passed != (report.mean_ratio >= report.bound):
            faults.append("verdict disagrees with the ratio and bound")
        return [Op(seconds, digest(report), tuple(faults))]

    return Step(f"base{base_seed}", run, ops)


def setup_nash(seed):
    steps = tuple(_nash_step(derive(seed, "thm-nash", index)) for index in range(NASH_STEPS))
    return Schedule(steps, 1, digest([s.key for s in steps]))


# --- audit-bruteforce -----------------------------------------------------

AUDIT_VOTERS = (11, 12, 13)
AUDIT_SIZE = (12, 3)
AUDIT_CULTURES = (("ic", {"p": 0.5}), ("mallows", {"phi": 0.6}))
# Elections per (n, culture) cell. Checker cost varies with the instance, and
# the median op sits where the cells' cost ranges overlap, so each cell gets
# two instances to keep p50 from following one draw.
AUDIT_SAMPLES = 2
# (label, checker, keyword arguments) in the order every cycle visits them.
AUDIT_CHECKERS = (
    ("jr", "check_jr", {}),
    ("strong-jr", "check_strong_jr", {}),
    ("ejr", "check_ejr_bruteforce", {}),
    ("ejr-beta2", "check_ejr_bruteforce", {"beta": 2.0}),
    ("ejr-gamma1", "check_ejr_bruteforce", {"gamma": 1}),
    ("ejr-delta1.5", "check_ejr_bruteforce", {"delta": 1.5}),
)


def _audit_step(key, text, committee, checker, kwargs):
    def run():
        election, _ = io.read_native(text)
        return getattr(axioms, checker)(election, committee, **kwargs)

    def ops(report, seconds):
        faults = []
        if report.satisfied != (not report.witnesses):
            faults.append("verdict disagrees with the witness list")
        if not 0.0 <= report.violating_voter_share <= 1.0:
            faults.append(f"violating voter share {report.violating_voter_share}")
        return [Op(seconds, digest(report), tuple(faults))]

    return Step(key, run, ops)


def setup_audit(seed):
    m, k = AUDIT_SIZE
    instances = []
    for sample in range(AUDIT_SAMPLES):
        for n in AUDIT_VOTERS:
            for culture, params in AUDIT_CULTURES:
                spec = samplers.SampleSpec(
                    culture=culture, num_voters=n, num_candidates=m, committee_size=k,
                    seed=derive(seed, "audit", n, culture, sample), **params,
                )
                election = samplers.sample(spec)
                order = core.random_order(m, derive(seed, "audit-order", n, culture, sample))
                committees = [
                    rules_online.run_rule(rule, election, order)
                    for rule in rules_online.ONLINE_RULE_IDS
                ]
                label = f"n{n}-{culture}-{sample}"
                instances.append((label, io.write_native(election), committees))
    steps = []
    for r, rule in enumerate(rules_online.ONLINE_RULE_IDS):
        for label, text, committees in instances:
            committee = core.Committee(committees[r].members)
            for name, checker, kwargs in AUDIT_CHECKERS:
                key = f"{label}/{rule}/{name}"
                steps.append(_audit_step(key, text, committee, checker, kwargs))
    inputs = [[label, text, [c.sorted_members() for c in cs]] for label, text, cs in instances]
    return Schedule(tuple(steps), len(instances) * len(AUDIT_CHECKERS), digest(inputs))


# Set-up function of each workload, by name; BENCHMARK.json records why
# each was chosen.
WORKLOADS = {
    "exp4-polarized": setup_exp4,
    "large-cardinal": setup_large,
    "thm-nash": setup_nash,
    "audit-bruteforce": setup_audit,
}
