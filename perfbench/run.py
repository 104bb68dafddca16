"""Run one streamelect benchmark workload and print its metrics.

    python3 perfbench/run.py --workload exp4-polarized --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

The library is imported from the `src/` directory of the checkout that holds
this file. `--workload all` runs every workload in its own process, one after
another. The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; with `--trace 0` the metrics
are the end-to-end ones, with `--trace 1` the per-layer ones from a traced
pass. Timings are scaled to a reference machine speed (see speed.py); the
wall-clock figures are printed beside them. Per-layer spans are written as
JSON lines under `.perfbench-out/`.
See perfbench/README.md for the metric definitions.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# The benchmark's own processes run single-threaded native code.
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _variable in THREAD_VARIABLES:
    os.environ[_variable] = "1"

import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
GOLDENS = HERE / "goldens.json"
OUTPUT = ROOT / ".perfbench-out"

WORKLOAD_NAMES = ("exp4-polarized", "large-cardinal", "thm-nash", "audit-bruteforce")
SETUP_REPEATS = 3
MIN_OPS = 100
# Blocks of the fixed-size traced pass, per workload: at least MIN_OPS ops,
# so per-layer counts compare exactly across commits.
TRACE_BLOCKS = {"exp4-polarized": 2, "large-cardinal": 5, "thm-nash": 100, "audit-bruteforce": 2}


class LibraryMissing(Exception):
    """The checkout holds no importable streamelect sources."""


def load_library():
    """Import numpy and the checkout's streamelect; refuse any other copy."""
    sys.path.insert(0, str(SOURCE))
    try:
        import numpy  # noqa: F401
        import streamelect
    except ImportError as exc:
        raise LibraryMissing(f"cannot import the library from {SOURCE}: {exc}") from None
    if Path(streamelect.__file__).resolve().parent.parent != SOURCE:
        raise LibraryMissing(f"streamelect resolved to {streamelect.__file__}, not {SOURCE}")



class Tally:
    """Ops attempted and failed in one pass, their latencies, and the first
    digests seen per step key (a repeated step must reproduce them).

    `latencies` and `step_s` are wall-clock; `scaled_latencies` and
    `scaled_step_s` are divided by the machine slowdown around each step
    (see speed.py).
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.raised_ops = 0
        self.latencies = []
        self.scaled_latencies = []
        self.step_s = 0.0
        self.scaled_step_s = 0.0
        self.slowdowns = []
        self.reference = None
        self.steps = 0
        self.first = {}
        self.faults = []

    @property
    def completed(self):
        """Ops that returned an output."""
        return self.attempted - self.raised_ops

    def record(self, step, ops, expected, slowdown):
        seen = self.first.setdefault(step.key, [op.digest for op in ops])
        for index, op in enumerate(ops):
            self.attempted += 1
            self.latencies.append(op.latency)
            self.scaled_latencies.append(op.latency / slowdown)
            problems = list(op.faults)
            if expected is not None and (index >= len(expected) or op.digest != expected[index]):
                problems.append("digest differs from the golden")
            if index >= len(seen) or op.digest != seen[index]:
                problems.append("digest differs from an earlier run of the same step")
            if problems:
                self.failed += 1
                self.faults.append(f"{step.key}[{index}]: {'; '.join(problems)}")

    def raised(self, step, exc):
        self.attempted += step.size
        self.failed += step.size
        self.raised_ops += step.size
        self.faults.append(f"{step.key}: raised {exc!r}")


def run_step(step, tally, expected):
    """Run one step between two reference-kernel samples, time it, and check
    its ops. A step that raises, or whose output its checks cannot read,
    fails all its ops."""
    before = speed.sample() if tally.reference is None else tally.reference
    output = error = None
    start = time.perf_counter()
    try:
        output = step.run()
    except Exception as exc:  # a failing op is counted, and the pass goes on
        error = exc
    seconds = time.perf_counter() - start
    tally.reference = speed.sample()
    slowdown = (before + tally.reference) / (2.0 * speed.REFERENCE_S)
    tally.slowdowns.append(slowdown)
    tally.step_s += seconds
    tally.scaled_step_s += seconds / slowdown
    if error is None:
        try:
            ops = step.ops(output, seconds)
        except Exception as exc:  # same as above
            error = exc
    if error is not None:
        tally.raised(step, error)
        return
    tally.record(step, ops, expected, slowdown)


def run_pass(schedule, goldens, *, seconds=None, blocks=None, min_ops=MIN_OPS, tracer=None):
    """Run steps in schedule order until `blocks` blocks are done, or, when
    `seconds` is given, until that long has passed and at least `min_ops` ops
    ran, stopping only at a block boundary. `goldens` maps step keys to
    expected digests, or is None where no goldens apply."""
    tally = Tally()
    steps = schedule.steps
    start = time.perf_counter()
    while True:
        step = steps[tally.steps % len(steps)]
        if tracer is not None:
            tracer.op = tally.steps
        expected = None if goldens is None else goldens.get(step.key, ())
        run_step(step, tally, expected)
        tally.steps += 1
        if tally.steps % schedule.block:
            continue
        if blocks is not None and tally.steps >= blocks * schedule.block:
            break
        if seconds is not None and tally.attempted >= min_ops and (
            time.perf_counter() - start >= seconds
        ):
            break
    return tally


def rerun_first(schedule, tally):
    """Run the first step once more, untimed, and count its ops whose digest
    differs from the pass: for exp4, the CSV bytes of two passes."""
    again = Tally()
    again.first = tally.first
    run_step(schedule.steps[0], again, None)
    tally.failed += again.failed
    tally.faults.extend(again.faults)


def environment(load_start, load_end):
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(load_start),
        "loadavg_end": list(load_end),
        "setup_repeats": SETUP_REPEATS,
        "cpu_pinning": "none; shared sandbox, other tenants may run",
        "thread_variables": {v: os.environ[v] for v in THREAD_VARIABLES},
    }


def quantile_ms(latencies, percent):
    """Nearest-rank percentile in milliseconds: an observed latency, never an
    interpolation between two clusters of op costs."""
    ordered = sorted(latencies)
    return ordered[math.ceil(percent / 100.0 * len(ordered)) - 1] * 1000.0


def end_to_end(tally, setup_s):
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (tally.completed / tally.scaled_step_s, "ops/s"),
        "op_p50_ms": (quantile_ms(tally.scaled_latencies, 50), "ms"),
        "op_p90_ms": (quantile_ms(tally.scaled_latencies, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracing, tracer, traced, untraced, setup_spans):
    calls, self_s, counters, top_s = tracing.aggregate(tracer.spans, lambda op: op >= 0)
    metrics = {}
    for layer in tracing.LAYER_NAMES:
        metrics[f"{layer}.calls"] = (calls[layer], "count")
        metrics[f"{layer}.self_s"] = (self_s[layer], "s")
    for name, value in counters.items():
        metrics[name] = (value, "count")
    setup_calls, setup_self, _, _ = tracing.aggregate(setup_spans, lambda op: True)
    for layer in tracing.SETUP_LAYERS:
        metrics[f"setup.{layer}.calls"] = (setup_calls[layer], "count")
        metrics[f"setup.{layer}.self_s"] = (setup_self[layer], "s")
    engine = sum(self_s[f"rules_offline.{f}"] for f in tracing.ENGINE_FUNCTIONS)
    traced_rate = traced.completed / traced.scaled_step_s
    untraced_rate = untraced.completed / untraced.scaled_step_s
    metrics["rules_offline.engine_share"] = (engine / traced.step_s, "ratio")
    metrics["trace.ops"] = (traced.attempted, "count")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    metrics["trace.ops_per_s"] = (traced_rate, "ops/s")
    metrics["trace.untraced_ops_per_s"] = (untraced_rate, "ops/s")
    metrics["trace.overhead"] = (untraced_rate / traced_rate - 1.0, "ratio")
    metrics["trace.top_span_coverage"] = (top_s / traced.step_s, "ratio")
    return metrics


def measure(workload, seed, seconds, trace):
    """Set up, run the passes and return (result dict, environment, notes)."""
    load_start = os.getloadavg()
    load_library()
    import tracing
    import workloads

    imported_s = time.perf_counter() - STARTED
    setup_times = []
    references = [speed.sample()]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with open(GOLDENS, encoding="utf-8") as handle:
            goldens = json.load(handle)
        schedule = workloads.WORKLOADS[workload](seed)
        setup_times.append(time.perf_counter() - start)
        references.append(speed.sample())
    raw_setup_s = imported_s + statistics.median(setup_times)
    setup_s = raw_setup_s * speed.REFERENCE_S / statistics.median(references)
    expected = goldens["workloads"][workload] if seed == goldens["seed"] else None

    untraced = run_pass(schedule, expected, seconds=seconds)
    rerun_first(schedule, untraced)
    tallies = [untraced]
    notes = {
        "inputs_digest": schedule.inputs_digest,
        "ops": untraced.attempted,
        "steps": untraced.steps,
        "failed_ops_ratio": untraced.failed / untraced.attempted,
        "median_slowdown": statistics.median(untraced.slowdowns),
        "wall_clock": {
            "setup_s": raw_setup_s,
            "ops_per_s": untraced.completed / untraced.step_s,
            "op_p50_ms": quantile_ms(untraced.latencies, 50),
            "op_p90_ms": quantile_ms(untraced.latencies, 90),
        },
    }
    if trace:
        tracer = tracing.Tracer()
        before = tracing.originals()
        tracer.install()
        try:
            workloads.WORKLOADS[workload](seed)
            setup_spans = list(tracer.spans)
            tracer.spans.clear()
            traced = run_pass(schedule, expected, blocks=TRACE_BLOCKS[workload], tracer=tracer)
        finally:
            tracer.restore()
        if not all(getattr(module, attr) is original for (module, attr), original in before.items()):
            traced.failed += 1
            traced.faults.append("traced functions were not restored")
        tallies.append(traced)
        metrics = per_layer(tracing, tracer, traced, untraced, setup_spans)
        OUTPUT.mkdir(exist_ok=True)
        spans_path = OUTPUT / f"spans-{workload}-seed{seed}.jsonl"
        tracer.dump(spans_path)
        notes["spans"] = str(spans_path.relative_to(ROOT))
        notes["traced_failed_ops_ratio"] = traced.failed / traced.attempted
    else:
        metrics = end_to_end(untraced, setup_s)
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    notes["faults"] = [f for t in tallies for f in t.faults][:20]
    env = environment(load_start, os.getloadavg())
    return result, env, notes


def print_report(workload, result, env, notes):
    print(json.dumps({"environment": env}))
    print(json.dumps({"workload": workload, **notes}))
    for name, entry in result["metrics"].items():
        print(f"{workload}  {name} = {entry['value']:.6g} {entry['unit']}")
    print(f"{workload}  ops = {notes['ops']}  failed_ops_ratio = {notes['failed_ops_ratio']:.6g}")
    print(json.dumps(result))


def run_all(args):
    """Every workload in its own process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        child = subprocess.run(command, capture_output=True, text=True, check=False)
        sys.stdout.write(child.stdout[: child.stdout.rstrip().rfind("\n") + 1])
        sys.stderr.write(child.stderr)
        if child.returncode != 0:
            return child.returncode
        result = json.loads(child.stdout.strip().splitlines()[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, entry in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = entry
    print(json.dumps(merged))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        result, env, notes = measure(args.workload, args.seed, args.seconds, args.trace)
    except LibraryMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print_report(args.workload, result, env, notes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
