"""Span tracing around evodyn's public functions, applied from outside.

``Tracer.install`` replaces every public function of the evodyn modules by a
timing wrapper at every module namespace that holds it, so a function that
``stability`` and ``flows`` import by name is traced whichever module calls
it.  Spans (name, start, end, parent, op id) stay in memory; self times are
derived when the benchmark ends.  The program itself is not modified.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
from collections import Counter, defaultdict
from time import perf_counter

MODULES = (
    "evodyn",
    "evodyn.games",
    "evodyn.composition",
    "evodyn.dynamics",
    "evodyn.equilibria",
    "evodyn.stability",
    "evodyn.flows",
    "evodyn.config",
    "evodyn.cli",
)

# Span-name groups reported as one per-layer metric.
GROUPS = {
    "stability.certificate": ("stability.is_critical_mass_decrease",
                              "stability.is_critical_mass_increase"),
    "composition.constructors": ("composition.sorted_composition",
                                 "composition.reversed_composition",
                                 "composition.balanced_composition",
                                 "composition.destabilizing_perturbation"),
}

OP_SPAN = "op"


def _bound_args(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_integrate(work, fn, args, kwargs, result):
    steps = result.times.size - 1
    n = _bound_args(fn, args, kwargs)["x0"].grid.n
    work["dynamics.steps"] += steps
    work["dynamics.node_steps"] += steps * n


def _count_bound(work, fn, args, kwargs, result):
    a = _bound_args(fn, args, kwargs)
    atoms = a["inflow"].qs.size + a["outflow"].qs.size
    work["flows.bound_exp_evals"] += len(a["times"]) * atoms


def _count_equilibria(work, fn, args, kwargs, result):
    a = _bound_args(fn, args, kwargs)
    work.games.add((a["game"], a["dist"], a["scan_resolution"]))


# Work counted at the boundary of the function that does it.
HOOKS = {
    "dynamics.integrate": _count_integrate,
    "flows.bound_trajectory": _count_bound,
    "equilibria.find_aggregate_equilibria": _count_equilibria,
}


class Work(Counter):
    """Work counts recorded by the hooks, plus the distinct equilibrium inputs."""

    def __init__(self):
        super().__init__()
        self.games = set()


class Tracer:
    """In-memory span recorder; inactive (pass-through) until ``enabled``."""

    def __init__(self):
        self.enabled = False
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.work: defaultdict = defaultdict(Work)  # op id -> work counts
        self._stack: list[int] = []
        self._op = None
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        import importlib

        wrappers = {}
        for modname in MODULES:
            module = importlib.import_module(modname)
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if not value.__module__.startswith("evodyn."):
                    continue
                if value not in wrappers:
                    name = f"{value.__module__.rsplit('.', 1)[-1]}.{value.__name__}"
                    wrappers[value] = self._wrap(name, value)
                setattr(module, attr, wrappers[value])
                self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1, self._op])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            if hook is not None:
                hook(self.work[self._op], fn, args, kwargs, result)
            return result

        return wrapper

    # -- op spans ---------------------------------------------------------
    def begin_op(self, op_id) -> None:
        self._op = op_id
        self._stack.append(len(self.spans))
        self.spans.append([OP_SPAN, perf_counter(), 0.0, -1, op_id])

    def end_op(self) -> float:
        idx = self._stack.pop()
        self.spans[idx][2] = perf_counter()
        self._op = None
        return self.spans[idx][2] - self.spans[idx][1]

    # -- analysis ---------------------------------------------------------
    def self_times(self) -> list[float]:
        """Per-span duration minus the time covered by its direct children.

        Calls are synchronous and single-threaded, so children never overlap
        and the covered time is the sum of their durations.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i]
                for i, (_, start, end, _, _) in enumerate(self.spans)]

    def totals(self, ops):
        """Calls, self seconds and work counts over the spans of ``ops``.

        Returns (calls per name, self seconds per name, summed Work); the
        ``GROUPS`` names are included.
        """
        ops = set(ops)
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        for (name, _, _, _, op), own in zip(self.spans, self.self_times()):
            if op in ops:
                calls[name] += 1
                self_s[name] += own
        for group, members in GROUPS.items():
            calls[group] = sum(calls[m] for m in members)
            self_s[group] = sum(self_s[m] for m in members)
        work = Work()
        for op in ops & self.work.keys():
            work.update(self.work[op])
            work.games |= self.work[op].games
        return calls, self_s, work

    def write(self, path) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")
