"""Run the benchmark several times and write its trajectory point.

    python3 tools/bench.py --repeat 3 --tag after [--seconds 20]

Each run is `perfbench/run.py --workload all` in its own subprocess, read
from its last JSON line. BENCH_<tag>.json, written at the repository root,
holds the environment block of the first run, `correct` and `failed` over
all runs, and for every `workload.metric` its unit, median, min and
per-run values. The exit code is 1, with no file written, when a run
exits non-zero, and 1, with the file written, when any op fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(seconds):
    """(environment, result) of one `--workload all` run, or None when the
    run exits non-zero."""
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", "all", "--seconds", str(seconds)]
    child = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
    if child.returncode != 0:
        sys.stderr.write(child.stderr)
        return None
    lines = [json.loads(line) for line in child.stdout.splitlines() if line.startswith("{")]
    environment = next(line["environment"] for line in lines if "environment" in line)
    return environment, lines[-1]


def summarise(runs):
    """The BENCH file's contents for a list of (environment, result) pairs."""
    results = [result for _, result in runs]
    metrics = {}
    for name, entry in results[0]["metrics"].items():
        values = [result["metrics"][name]["value"] for result in results]
        metrics[name] = {
            "unit": entry["unit"],
            "median": statistics.median(values),
            "min": min(values),
            "runs": values,
        }
    return {
        "environment": runs[0][0],
        "repeat": len(runs),
        "correct": all(result["correct"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, required=True)
    parser.add_argument("--tag", required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    runs = [run_once(args.seconds) for _ in range(args.repeat)]
    if None in runs:
        return 1
    bench = summarise(runs)
    path = ROOT / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(bench, indent=2) + "\n", encoding="utf-8")
    print(f"{path.name}: {len(bench['metrics'])} metrics over {len(runs)} runs,"
          f" correct {bench['correct']}, failed {bench['failed']}")
    return 0 if bench["correct"] and bench["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
