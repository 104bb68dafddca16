"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Exits 0 when every check passes. Each check runs short passes (one block per
workload), so the whole file takes about a minute.
"""

import json
import sys

import run

# Slack on top of the measured tracing overhead when comparing top-level span
# time with the pass time: the benchmark's own call glue and timer noise.
COVERAGE_SLACK = 0.01


def check_wrappers_restored(tracing, workloads):
    """Wrappers sit where callers resolve them, and are gone afterwards."""
    import streamelect
    from streamelect import rules_online

    before = tracing.originals()
    located = {(module.__name__, attr) for module, attr in before}
    for expected in (("streamelect.rules_online", "equal_shares_subset"),
                     ("streamelect.rules_online", "greedy_budgeting"),
                     ("streamelect.harness", "mes"),
                     ("streamelect.harness", "run_rule"),
                     ("streamelect.harness", "check_jr")):
        assert expected in located, f"no wrapper site at {expected}"
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert rules_online.equal_shares_subset is not before[(rules_online, "equal_shares_subset")]
        schedule = workloads.WORKLOADS["thm-nash"](1)
        run.run_pass(schedule, None, blocks=1, tracer=tracer)
    finally:
        tracer.restore()
    assert tracer.spans, "the traced pass recorded no spans"
    for (module, attr), original in before.items():
        assert getattr(module, attr) is original, f"{module.__name__}.{attr} not restored"
    assert streamelect.mes is before[(streamelect, "mes")]


def check_corrupted_golden(workloads):
    """A golden that disagrees with the output counts as one failed op."""
    with open(run.GOLDENS, encoding="utf-8") as handle:
        goldens = json.load(handle)["workloads"]["audit-bruteforce"]
    schedule = workloads.WORKLOADS["audit-bruteforce"](workloads.DEFAULT_SEED)
    clean = run.run_pass(schedule, goldens, blocks=1, min_ops=1)
    assert clean.failed == 0, clean.faults
    key = schedule.steps[3].key
    corrupted = dict(goldens, **{key: ["0" * 12]})
    tally = run.run_pass(schedule, corrupted, blocks=1, min_ops=1)
    assert tally.failed == 1 and tally.attempted == clean.attempted, (tally.failed, tally.faults)


def check_input_digests(workloads):
    """Inputs are a pure function of the seed."""
    for name, setup in workloads.WORKLOADS.items():
        first = setup(5).inputs_digest
        assert setup(5).inputs_digest == first, f"{name}: same seed, new inputs"
        assert setup(6).inputs_digest != first, f"{name}: new seed, same inputs"


def check_span_coverage(tracing, workloads):
    """Top-level spans cover the timed pass to within the tracing overhead."""
    for name, setup in workloads.WORKLOADS.items():
        schedule = setup(3)
        untraced = run.run_pass(schedule, None, blocks=1, min_ops=1)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run.run_pass(schedule, None, blocks=1, min_ops=1, tracer=tracer)
        finally:
            tracer.restore()
        _, _, _, top_s = tracing.aggregate(tracer.spans, lambda op: op >= 0)
        overhead = traced.scaled_step_s / untraced.scaled_step_s - 1.0
        uncovered = 1.0 - top_s / traced.step_s
        print(f"  {name}: uncovered {uncovered:.4%}, tracing overhead {overhead:.4%}")
        assert 0.0 <= uncovered <= max(overhead, 0.0) + COVERAGE_SLACK, name


def main():
    run.load_library()
    import tracing
    import workloads

    checks = (
        ("wrappers restored", lambda: check_wrappers_restored(tracing, workloads)),
        ("corrupted golden counted", lambda: check_corrupted_golden(workloads)),
        ("input digests", lambda: check_input_digests(workloads)),
        ("span coverage", lambda: check_span_coverage(tracing, workloads)),
    )
    failures = 0
    for label, check in checks:
        try:
            check()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {label}: {exc}")
        else:
            print(f"ok   {label}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
