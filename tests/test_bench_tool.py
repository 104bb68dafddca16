"""tools/bench.py's summary of repeated benchmark runs."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "bench", Path(__file__).resolve().parent.parent / "tools" / "bench.py"
)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def result(value, failed=0):
    return {
        "correct": failed == 0,
        "attempted": 10,
        "failed": failed,
        "metrics": {"large-cardinal.setup_s": {"value": value, "unit": "s"}},
    }


def test_summary_keeps_every_run_and_any_failure():
    runs = [({"python": "3.11"}, result(3.0)), ({"python": "3.12"}, result(1.0, failed=2)), ({}, result(2.0))]
    assert bench.summarise(runs) == {
        "environment": {"python": "3.11"},
        "repeat": 3,
        "correct": False,
        "failed": 2,
        "metrics": {
            "large-cardinal.setup_s": {"unit": "s", "median": 2.0, "min": 1.0, "runs": [3.0, 1.0, 2.0]},
        },
    }
