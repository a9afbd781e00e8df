"""Per-layer numbers for the traced run, taken from outside the program.

The tracer replaces module attributes with timing wrappers at the names the
callers look up (`emb7.classify.k_group`, `emb7.cli.smith_normal_form`, ...),
so the program itself is unchanged.  A span's self time is its duration
minus the time of the traced spans it contains; a layer's time counts only
its outermost spans, so a layer that calls itself is not counted twice.

The degree kernel is not wrapped: its time is the self time of
`linking_number`, i.e. what is left after grid and node evaluation, so the
number survives a rewrite of the kernel modules.  A wrapped name that is
missing from the program makes the metrics that depend on it absent.
"""

from __future__ import annotations

import importlib
import math
import statistics
import time
from collections import defaultdict

KERNEL = "linking_number"


class Tracer:
    def __init__(self):
        self.stack = []  # open spans: [layer, time of traced children]
        self.total = defaultdict(float)  # outermost spans per layer
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.top_s = 0.0  # spans with no traced parent
        self.spans = 0
        self.hooks = 0
        self.missing = set()  # metric names whose inputs are unavailable
        self.kernel_pairs = 0
        self.sep_rungs = 0
        self.sep_points = 0
        self.sep_bound = math.inf
        self.snf_max_bits = 0
        self.k_group_seen = set()
        self.k_group_in_call = set()  # keys seen since the CLI call began
        self.k_group_repeats = 0
        self.k_group_call_repeats = 0
        self.kappa_points = 0
        self.kappa_found = 0
        self.fiber_reps = 0

    # --- wrappers -------------------------------------------------------------

    def _after(self, after, feeds, args, out):
        try:
            after(args, out)
        except (AttributeError, TypeError, ValueError):
            # the program changed shape under this hook: drop its numbers
            self.missing.update(feeds)

    def span(self, layer, fn, after=None, feeds=()):
        stack, clock = self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                self._close(layer, dur, frame[1])
            if after is not None:
                self._after(after, feeds, args, out)
            return out

        return wrapper

    def count(self, fn, after, feeds=()):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.hooks += 1
            self._after(after, feeds, args, out)
            return out

        return wrapper

    def call_boundary(self, fn):
        """Wraps the CLI entry point to mark where each call begins."""
        def wrapper(*args, **kwargs):
            self.k_group_in_call.clear()
            return fn(*args, **kwargs)

        return wrapper

    def _close(self, layer, dur, children):
        self.spans += 1
        self.calls[layer] += 1
        self.self_time[layer] += dur - children
        if self.stack:
            self.stack[-1][1] += dur
        else:
            self.top_s += dur
        if all(f[0] != layer for f in self.stack):
            self.total[layer] += dur

    def _inside(self, layer) -> bool:
        return any(f[0] == layer for f in self.stack)

    # --- hooks ----------------------------------------------------------------

    def _on_grid(self, args, grid):
        if self._inside(KERNEL):
            self.kernel_pairs += len(grid.points) ** 2

    def _on_rung(self, args, out):
        self.sep_rungs += 1
        self.sep_points += len(out[0])

    def _on_separation(self, args, bound):
        self.sep_bound = min(self.sep_bound, float(bound))

    def _on_snf(self, args, res):
        bits = max((abs(x).bit_length() for row in res.U.data for x in row),
                   default=0)
        self.snf_max_bits = max(self.snf_max_bits, bits)

    def _on_k_group(self, args, out):
        data, u, L = args[:3]
        key = (data, tuple(u), L)
        if key in self.k_group_seen:
            self.k_group_repeats += 1
        else:
            self.k_group_seen.add(key)
        if key in self.k_group_in_call:
            self.k_group_call_repeats += 1
        else:
            self.k_group_in_call.add(key)

    def _on_admissible(self, args, out):
        if self.stack and self.stack[-1][0] == "enumerate_kappa":
            self.kappa_points += 1

    def _on_kappa(self, args, values):
        self.kappa_found += len(values)

    def _on_fiber(self, args, enum):
        self.fiber_reps += len(enum.representatives)

    # --- installation -----------------------------------------------------------

    def targets(self):
        """(module, attribute, layer or None for a count hook, hook, metrics
        that are absent without this wrapper)."""
        sep = ("linking.separation_s", "linking.separation_bound")
        rung = ("linking.separation_points", "linking.separation_rungs")
        nodes = ("linking.nodes_s",)
        pairs = ("linking.kernel_pairs", "linking.kernel_pairs_per_s")
        snf = ("exact.snf_s", "exact.snf_calls", "exact.snf_max_bits")
        coset = ("exact.coset_s", "exact.coset_calls")
        kg = ("invariants.k_group_s", "invariants.k_group_calls",
              "invariants.k_group_repeat_share",
              "invariants.k_group_repeat_in_call_share")
        kappa = ("invariants.enumerate_kappa_s", "invariants.kappa_found",
                 "invariants.kappa_points", "invariants.kappa_useful_ratio")
        points = ("invariants.kappa_points", "invariants.kappa_useful_ratio")
        fiber = ("classify.enumerate_fiber_s", "classify.fiber_reps")
        load = ("manifolds.load_s",)
        # the kernel's self time is only the kernel while its children
        # (grid and node evaluation) are traced
        kernel = ("linking.kernel_s",) + pairs
        return [
            ("emb7.linking", "linking_number", KERNEL, None, kernel),
            ("emb7.linking", "hopf_grid", "nodes", self._on_grid,
             nodes + kernel),
            ("emb7.linking", "_cycle_nodes", "nodes", None, nodes + kernel),
            ("emb7.linking", "tau_fiber_separation", "separation",
             self._on_separation, sep),
            ("emb7.linking", "_midpoint_grid_points", None, self._on_rung,
             rung),
            ("emb7.exact", "smith_normal_form", "snf", self._on_snf, snf),
            ("emb7.exact", "coset_normal_form", "coset", None, coset),
            ("emb7.invariants", "k_group", "k_group", self._on_k_group, kg),
            # further bindings of the same functions, where callers look
            # them up; losing one of these loses no metric
            ("emb7.linking", "certify_separation", "separation",
             self._on_separation, ()),
            ("emb7.cli", "smith_normal_form", "snf", self._on_snf, ()),
            ("emb7.classify", "coset_normal_form", "coset", None, ()),
            ("emb7.classify", "k_group", "k_group", self._on_k_group, ()),
            ("emb7.invariants", "enumerate_kappa", "enumerate_kappa",
             self._on_kappa, kappa),
            ("emb7.invariants", "is_kappa_admissible", None,
             self._on_admissible, points),
            ("emb7.classify", "enumerate_fiber", "enumerate_fiber",
             self._on_fiber, fiber),
            ("emb7.manifolds", "from_json", "load", None, load),
            ("emb7.manifolds", "validate", "load", None, load),
        ]

    def install(self):
        import emb7.cli
        emb7.cli.main = self.call_boundary(emb7.cli.main)
        for modname, attr, layer, hook, feeds in self.targets():
            module = importlib.import_module(modname)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.update(feeds)
                continue
            if layer is None:
                wrapped = self.count(fn, hook, feeds)
            else:
                wrapped = self.span(layer, fn, hook, feeds)
            setattr(module, attr, wrapped)

    # --- results ----------------------------------------------------------------

    def metrics(self, op_times: list, residual_max: float,
                cost: tuple) -> dict:
        """Per-layer metrics over one traced run; `cost` is the calibrated
        (span, hook) overhead in seconds per call."""
        op_s = sum(op_times)
        kernel_s = self.self_time[KERNEL]
        kg_calls = self.calls["k_group"]
        overhead_s = self.spans * cost[0] + self.hooks * cost[1]
        values = {
            "linking.kernel_s": kernel_s,
            "linking.kernel_pairs": self.kernel_pairs,
            "linking.kernel_pairs_per_s":
                self.kernel_pairs / kernel_s if kernel_s else 0.0,
            "linking.separation_s": self.total["separation"],
            "linking.separation_points": self.sep_points,
            "linking.separation_rungs": self.sep_rungs,
            "linking.separation_bound":
                0.0 if self.sep_bound == math.inf else self.sep_bound,
            "linking.nodes_s": self.total["nodes"],
            "linking.residual_max": residual_max,
            "exact.snf_s": self.total["snf"],
            "exact.snf_calls": self.calls["snf"],
            "exact.snf_max_bits": self.snf_max_bits,
            "exact.coset_s": self.total["coset"],
            "exact.coset_calls": self.calls["coset"],
            "invariants.k_group_s": self.total["k_group"],
            "invariants.k_group_calls": kg_calls,
            "invariants.k_group_repeat_share":
                self.k_group_repeats / kg_calls if kg_calls else 0.0,
            # repeats of a key first seen in the same CLI call, which a
            # cache living for one call would already serve
            "invariants.k_group_repeat_in_call_share":
                self.k_group_call_repeats / kg_calls if kg_calls else 0.0,
            "invariants.enumerate_kappa_s": self.total["enumerate_kappa"],
            "invariants.kappa_points": self.kappa_points,
            "invariants.kappa_found": self.kappa_found,
            "invariants.kappa_useful_ratio":
                self.kappa_found / self.kappa_points
                if self.kappa_points else 0.0,
            "classify.enumerate_fiber_s": self.total["enumerate_fiber"],
            "classify.fiber_reps": self.fiber_reps,
            "manifolds.load_s": self.total["load"],
            "cli.overhead_s": op_s - self.top_s,
            "trace.op_s": op_s,
            "trace.op_p50_ms": statistics.median(op_times) * 1e3,
            "trace.spans": self.spans + self.hooks,
            "trace.overhead_share": overhead_s / op_s if op_s else 0.0,
        }
        return {k: v for k, v in values.items() if k not in self.missing}


def calibrate(n: int = 20000) -> tuple:
    """Extra seconds per call that a span wrapper and a count hook add to a
    function that does nothing (best of three loops)."""
    tracer = Tracer()

    def noop():
        return None

    def best(fn):
        clock = time.perf_counter
        times = []
        for _ in range(3):
            t0 = clock()
            for _ in range(n):
                fn()
            times.append(clock() - t0)
        return min(times)

    base = best(noop)
    span = best(tracer.span("calibrate", noop))
    hook = best(tracer.count(noop, lambda args, out: None))
    return (max(span - base, 0.0) / n, max(hook - base, 0.0) / n)
