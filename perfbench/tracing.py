"""Span recorder for the traced pass.

The recorder wraps the public functions of the library's modules from the
outside: no library file changes. A wrapper is installed at every module
attribute that holds the original function, because callers resolve their
collaborators through their own module globals (``harness.mes``,
``rules_online.equal_shares_subset``, ...). `restore` puts every original
back, so untraced passes run the unmodified functions.

Each span is a list ``[name, start, end, parent, op, count]``: `parent` is the
index of the enclosing span (None at top level), `op` the benchmark op id the
span belongs to, and `count` the layer counter the call contributed (rounds,
arrivals or enumerated groups), or None.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

import streamelect

def _rounds(args, result):
    return len(result[1].rounds)


def _arrivals(args, result):
    return len(result.audit)


def _groups(args, result):
    return 2 ** args[0].num_voters - 1


# (module, function, counter name, counter) of every traced layer.
LAYERS = (
    ("rules_offline", "equal_shares_subset", "rules_offline.rounds", _rounds),
    ("rules_offline", "bounded_overspending_subset", "rules_offline.rounds", _rounds),
    ("rules_offline", "mes", "rules_offline.rounds", _rounds),
    ("rules_offline", "bos", "rules_offline.rounds", _rounds),
    ("rules_offline", "nash_welfare", None, None),
    ("rules_offline", "nash_optimum_bruteforce", None, None),
    ("rules_online", "greedy_budgeting", "rules_online.arrivals", _arrivals),
    ("rules_online", "online_mes", "rules_online.arrivals", _arrivals),
    ("rules_online", "online_bos", "rules_online.arrivals", _arrivals),
    ("rules_online", "online_nash", "rules_online.arrivals", _arrivals),
    ("rules_online", "run_rule", None, None),
    ("core", "random_order", None, None),
    ("core", "satisfaction", None, None),
    ("axioms", "check_jr", None, None),
    ("axioms", "check_strong_jr", None, None),
    ("axioms", "check_ejr_plus_approval", None, None),
    ("axioms", "check_ejr_bruteforce", "axioms.check_ejr_bruteforce.groups", _groups),
    ("metrics", "compute_metrics", None, None),
    ("harness", "run_experiment", None, None),
    ("harness", "verify_thm_nash", None, None),
    ("samplers", "sample", None, None),
    ("io", "read_native", None, None),
)

LAYER_NAMES = tuple(f"{module}.{function}" for module, function, _, _ in LAYERS)
# Modules whose namespaces may hold a traced function: every traced module
# imports its collaborators by name.
MODULES = tuple(dict.fromkeys(module for module, _, _, _ in LAYERS))
COUNTER_OF = {f"{m}.{f}": c for m, f, c, _ in LAYERS if c is not None}
COUNTER_NAMES = tuple(dict.fromkeys(COUNTER_OF.values()))
# rules_offline layers whose self time is the equal-shares engine.
ENGINE_FUNCTIONS = ("equal_shares_subset", "bounded_overspending_subset", "mes", "bos")

# Layers whose calls during set-up are reported on their own (op id SETUP_OP).
SETUP_LAYERS = ("samplers.sample", "core.random_order", "rules_online.run_rule")
SETUP_OP = -1


def originals():
    """Map each (module object, attribute) holding a traced function to it,
    over the package namespace and every traced module. Call it while no
    tracer is installed."""
    targets = {
        id(getattr(importlib.import_module(f"streamelect.{m}"), f)) for m, f, _, _ in LAYERS
    }
    modules = [streamelect] + [importlib.import_module(f"streamelect.{m}") for m in MODULES]
    found = {}
    for module in modules:
        for attr, value in vars(module).items():
            if id(value) in targets and callable(value):
                found[(module, attr)] = value
    return found


class Tracer:
    """Records spans around every traced layer while installed."""

    def __init__(self):
        self.spans = []
        self.op = SETUP_OP
        self._stack = []
        self._installed = []

    def _wrap(self, name, function, counter):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(function)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                span[5] = counter(args, result)
            return result

        return traced

    def install(self):
        if self._installed:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for module_name, function_name, _, counter in LAYERS:
            original = getattr(importlib.import_module(f"streamelect.{module_name}"), function_name)
            wrappers[id(original)] = self._wrap(f"{module_name}.{function_name}", original, counter)
        for (module, attr), original in originals().items():
            setattr(module, attr, wrappers[id(original)])
            self._installed.append((module, attr, original))

    def restore(self):
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed = []

    def dump(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, op, count) in enumerate(self.spans):
                record = {"id": index, "name": name, "start": start, "end": end,
                          "parent": parent, "op": op, "count": count}
                handle.write(json.dumps(record) + "\n")


def aggregate(spans, selected):
    """Per-layer calls, self time and counters over the spans whose op id
    satisfies `selected`, plus the total duration of their top-level spans.

    A span's self time is its duration minus the durations of its direct
    children; the traced functions call each other sequentially, so the
    children never overlap.
    """
    children = [0.0] * len(spans)
    for name, start, end, parent, op, count in spans:
        if parent is not None:
            children[parent] += end - start
    calls = dict.fromkeys(LAYER_NAMES, 0)
    self_s = dict.fromkeys(LAYER_NAMES, 0.0)
    counters = dict.fromkeys(COUNTER_NAMES, 0)
    top_s = 0.0
    for index, (name, start, end, parent, op, count) in enumerate(spans):
        if not selected(op):
            continue
        calls[name] += 1
        self_s[name] += (end - start) - children[index]
        if parent is None:
            top_s += end - start
        if count is not None:
            counters[COUNTER_OF[name]] += count
    return calls, self_s, counters, top_s
