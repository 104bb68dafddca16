"""Command line interface.

Candidates are 1-based on the command line and in all printed output; the
library is 0-based internally. Exit codes: 0 on success, 1 when a check
finds a violation, 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import sys

from .axioms import (
    CONSTRUCTION_IDS,
    BallotTypeError,
    check_ejr_bruteforce,
    check_ejr_plus_approval,
    check_jr,
    check_strong_jr,
    make_counterexample,
)
from .core import ArrivalOrder, Committee, random_order
from .harness import parse_config, run_experiment, verify_thm_mes, verify_thm_nash
from .io import ParseError, read_ids, read_native, read_order, write_ids, write_native
from .rules_online import ONLINE_RULE_IDS, run_rule
from .samplers import CULTURE_TABLE, CULTURES, SampleSpec, sample

CHECKERS = {
    "jr": check_jr,
    "strong-jr": check_strong_jr,
    "ejr-plus": check_ejr_plus_approval,
    "ejr": check_ejr_bruteforce,
}

# Each SampleSpec field some culture reads, described as in CULTURE_TABLE.
SAMPLE_FIELDS = {name: d for _, reads in CULTURE_TABLE.values() for name, d in reads.items()}


def _read_instance(path):
    with open(path, encoding="utf-8") as handle:
        return read_native(handle.read())


def _parse_order(value, num_candidates):
    # A single integer is a seed; a list of m ids is an explicit order (m >= 3
    # always, so the two cannot collide).
    try:
        seed = int(value)
    except ValueError:
        return read_order(value, num_candidates)
    return random_order(num_candidates, seed)


def cmd_run(args):
    election, embedded = _read_instance(args.instance)
    if args.order is not None:
        order = _parse_order(args.order, election.num_candidates)
    elif embedded is not None:
        order = embedded
    else:
        order = ArrivalOrder.identity(election.num_candidates)
    committee = run_rule(args.rule, election, order, args.exploration)
    print("committee:", write_ids(committee.sorted_members()))
    if args.trace:
        for decision in committee.audit:
            verb = "hire" if decision.hired else "pass"
            candidate = write_ids([decision.candidate])
            print(f"  t={decision.position} candidate {candidate}: {verb} ({decision.reason})")
    return 0


def cmd_check(args):
    relaxations = {}
    for name in ("beta", "gamma", "delta"):
        if getattr(args, name) is not None:
            if args.axiom != "ejr":
                raise ValueError(f"--{name} relaxes only the ejr check, not {args.axiom}")
            relaxations[name] = getattr(args, name)
    election, _ = _read_instance(args.instance)
    committee = Committee(read_ids(args.committee, election.num_candidates))
    report = CHECKERS[args.axiom](election, committee, **relaxations)
    status = "satisfied" if report.satisfied else "violated"
    print(f"{report.axiom}: {status}")
    if not report.satisfied:
        print(f"  violating voter share: {report.violating_voter_share:.4f}")
        print(f"  shortfall: {report.shortfall:.4f}")
        for witness in report.witnesses[:5]:
            print(
                f"  witness: voters [{write_ids(witness.group)}]"
                f" candidates [{write_ids(witness.candidates)}]"
                f" required {witness.required:.4f} achieved {witness.achieved:.4f}"
            )
    return 0 if report.satisfied else 1


def _emit(text, output, what):
    """Write `text` to the file `output`, or to stdout when none is given."""
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {what} to {output}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_sample(args):
    params = {name: getattr(args, name) for name in SAMPLE_FIELDS}
    spec = SampleSpec(args.culture, args.voters, args.candidates, args.committee, args.seed, **params)
    return _emit(write_native(sample(spec)), args.output, spec.instance_id())


def cmd_experiment(args):
    with open(args.config, encoding="utf-8") as handle:
        cfg = parse_config(handle.read())
    if cfg.experiment == "thm-mes":
        report = verify_thm_mes(cfg)
        if report.vacuous:
            print(f"thm-mes: vacuous at relaxation p={report.relaxation} (passed)")
            return 0
        for winner, freq in sorted(report.winner_frequencies.items()):
            threshold = report.per_winner_threshold
            print(f"  winner {write_ids([winner])}: frequency {freq:.4f} (threshold {threshold:.4f})")
        print(f"  joint: {report.joint_frequency:.4f} (threshold {report.joint_threshold:.4f})")
        print(f"thm-mes: {'passed' if report.passed else 'FAILED'}")
        return 0 if report.passed else 1
    if cfg.experiment == "thm-nash":
        report = verify_thm_nash(cfg)
        print(f"  mean ratio {report.mean_ratio:.4f} (bound {report.bound:.4f})")
        print(f"thm-nash: {'passed' if report.passed else 'FAILED'}")
        return 0 if report.passed else 1
    records, aggregates, skipped = run_experiment(cfg)
    print(f"{cfg.experiment}: {len(records)} records")
    for reason in skipped:
        print(f"  skipped: {reason}")
    for name, rows in aggregates.items():
        print(f"[{name}]")
        for row in rows:
            print("  " + "  ".join(f"{key}={_fmt(value)}" for key, value in row.items()))
    if cfg.output:
        print(f"wrote CSV to {cfg.output}")
    return 0


def _fmt(value):
    return f"{value:.4f}" if isinstance(value, float) else str(value)


def cmd_counterexample(args):
    election, order = make_counterexample(
        args.construction, k=args.committee, epsilon=args.epsilon, beta=args.beta
    )
    return _emit(write_native(election, order), args.output, f"{args.construction} instance")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="streamelect",
        description="Online committee selection with fairness checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an online rule on an instance file")
    p_run.add_argument("rule", choices=ONLINE_RULE_IDS)
    p_run.add_argument("--instance", required=True)
    p_run.add_argument(
        "--order",
        help="arrival order: an integer seed, or a 1-based candidate list",
    )
    p_run.add_argument(
        "--exploration",
        type=int,
        default=None,
        help="exploration length t of online-mes and online-bos (default floor(m/e))",
    )
    p_run.add_argument("--trace", action="store_true", help="print per-arrival decisions")
    p_run.set_defaults(func=cmd_run)

    p_check = sub.add_parser("check", help="check an axiom on a committee")
    p_check.add_argument("axiom", choices=CHECKERS)
    p_check.add_argument("--instance", required=True)
    p_check.add_argument("--committee", required=True, help="1-based member list")
    p_check.add_argument("--beta", type=float, default=None)
    p_check.add_argument("--gamma", type=int, default=None)
    p_check.add_argument("--delta", type=float, default=None)
    p_check.set_defaults(func=cmd_check)

    p_sample = sub.add_parser("sample", help="draw a random instance")
    p_sample.add_argument("culture", choices=CULTURES)
    p_sample.add_argument("--voters", type=int, required=True)
    p_sample.add_argument("--candidates", type=int, required=True)
    p_sample.add_argument("--committee", type=int, required=True)
    p_sample.add_argument("--seed", type=int, required=True)
    # Parameter flags first, then the switches (described by None).
    for name, described in sorted(SAMPLE_FIELDS.items(), key=lambda item: item[1] is None):
        if described is None:
            p_sample.add_argument(f"--no-{name}", dest=name, action="store_false")
        else:
            p_sample.add_argument(f"--{name}", type=float, default=None)
    p_sample.add_argument("--output", "-o", default=None)
    p_sample.set_defaults(func=cmd_sample)

    p_exp = sub.add_parser("experiment", help="run an experiment config")
    p_exp.add_argument("config")
    p_exp.set_defaults(func=cmd_experiment)

    p_ce = sub.add_parser("counterexample", help="emit a lower-bound instance")
    p_ce.add_argument("construction", choices=CONSTRUCTION_IDS)
    p_ce.add_argument("--committee", type=int, default=2)
    p_ce.add_argument("--epsilon", type=float, default=0.1)
    p_ce.add_argument("--beta", type=float, default=None, help="beta-ejr only (default 2)")
    p_ce.add_argument("--output", "-o", default=None)
    p_ce.set_defaults(func=cmd_counterexample)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, BallotTypeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
