"""Regenerate perfbench/goldens.json: the output digest of every op of every
workload's schedule at the default seed.

    python3 perfbench/make_goldens.py

Run it only when a change to the library is meant to change outputs, and
say so in the change; the goldens are what every benchmark pass checks.
"""

import json
import sys

import run


def main():
    run.load_library()
    import workloads

    seed = workloads.DEFAULT_SEED
    table = {}
    for name in run.WORKLOAD_NAMES:
        schedule = workloads.WORKLOADS[name](seed)
        digests = {}
        for step in schedule.steps:
            if step.key not in digests:
                ops = step.ops(step.run(), 0.0)
                faults = [fault for op in ops for fault in op.faults]
                if faults:
                    sys.exit(f"{name} {step.key}: {faults}")
                digests[step.key] = [op.digest for op in ops]
        table[name] = digests
        print(f"{name}: {len(digests)} steps", file=sys.stderr)
    # One line per step key, so a change shows as a readable diff.
    blocks = []
    for name, digests in table.items():
        rows = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(digests.items()))
        blocks.append(f" {json.dumps(name)}: {{\n{rows}\n }}")
    with open(run.GOLDENS, "w", encoding="utf-8") as handle:
        handle.write(f'{{"seed": {seed}, "workloads": {{\n' + ",\n".join(blocks) + "\n}}\n")


if __name__ == "__main__":
    main()
