"""Span and count probes for the traced benchmark run.

The probes wrap module-level functions of the package from outside: each
target function object is replaced in every `shortfall_hedge` module that
binds it, so a caller's own global lookup reaches the wrapper.  Nothing in
the package is edited.  A target that a later version renames or removes
is listed as absent instead of failing the run.

Spans are (name, start, end, parent, op) rows kept in memory.  The
benchmark runs one operation at a time, so the current op id is a plain
attribute; a span opened on a thread with no open span (a curve worker)
takes the innermost anchor span of the op (the op itself or its
`solver.curve` span) as its parent.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import threading
import time
from collections import Counter

import numpy as np

# (span name, defining module, attribute) for every probed function.
PROBES = (
    ("cli", "shortfall_hedge.cli", "main"),
    ("solver.curve", "shortfall_hedge.solver", "curve"),
    ("solver.solve", "shortfall_hedge.solver", "_phi1_impl"),
    ("solver.solve", "shortfall_hedge.solver", "_phi2_impl"),
    ("solver.bisect", "shortfall_hedge.solver", "_bisect"),
    ("solver.price", "shortfall_hedge.solver", "price"),
    ("psi.side", "shortfall_hedge.psi", "_psi_side"),
    ("psi.mc", "shortfall_hedge.psi", "_psi_mc_detailed"),
    ("quad.integrate_batch", "shortfall_hedge._quad", "integrate_batch"),
    ("quad.integrate_rows", "shortfall_hedge._quad", "integrate_rows"),
    ("gaussian.tilted_interval_mass", "shortfall_hedge.gaussian",
     "tilted_interval_mass"),
    ("gaussian.rect_upper", "shortfall_hedge.gaussian", "_rect_upper_with_err"),
    ("gaussian.sample", "shortfall_hedge.gaussian", "sample"),
    ("payoffs.evaluate", "shortfall_hedge.payoffs", "evaluate"),
    ("mc.estimate", "shortfall_hedge.mc", "estimate"),
)

# spans that new worker-thread spans attach to
_ANCHORS = ("op", "solver.curve")


def _arguments(sig, args, kwargs) -> dict:
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


class Tracer:
    """In-memory spans and counts for the ops run through `run`."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.absent: list = []
        self.op = None
        self._anchors: list = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._origin = time.perf_counter()
        self._wrappers = []  # (module, attr, original, wrapper)
        self._edge_hits = 0
        self._edge_misses = 0
        for name, module, attr in PROBES:
            original = getattr(sys.modules.get(module), attr, None)
            if original is None:
                self.absent.append(f"{module}.{attr}")
                continue
            wrapper = self._wrap(name, original)
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("shortfall_hedge"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._wrappers.append((mod, key, original, wrapper))
        self._edges = getattr(sys.modules.get("shortfall_hedge.solver"),
                              "_edges", None)
        if not hasattr(self._edges, "cache_info"):
            self.absent.append("shortfall_hedge.solver._edges")
            self._edges = None

    # -- spans -------------------------------------------------------------
    def _open(self, name: str) -> int:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else (
            self._anchors[-1] if self._anchors else None)
        with self._lock:
            sid = len(self.spans)
            self.spans.append([name, time.perf_counter() - self._origin, None,
                               parent, self.op])
        stack.append(sid)
        if name in _ANCHORS:
            self._anchors.append(sid)
        return sid

    def _close(self, sid: int):
        self.spans[sid][2] = time.perf_counter() - self._origin
        self._local.stack.pop()
        if self.spans[sid][0] in _ANCHORS:
            self._anchors.pop()

    def count(self, key: str, n):
        with self._lock:
            self.counts[key] += int(n)

    def _wrap(self, name: str, fn):
        sig = inspect.signature(fn)
        tracer = self
        counter = getattr(self, "_count_" + name.replace(".", "_"), None)
        integrand_probe = name.startswith("quad.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            sid = tracer._open(name)
            try:
                if counter is not None:
                    counter(_arguments(sig, args, kwargs))
                if integrand_probe:
                    return tracer._run_quad(name, fn, sig, args, kwargs)
                return fn(*args, **kwargs)
            finally:
                tracer._close(sid)
        return wrapper

    def _run_quad(self, name, fn, sig, args, kwargs):
        """Call a quadrature routine with its integrand wrapped, counting
        rounds (integrand calls) and integrand points."""
        arguments = _arguments(sig, args, kwargs)
        f = arguments["f"]
        rounds = 0

        def integrand(x, *rest):
            nonlocal rounds
            rounds += 1
            self.count(name + ".points", np.size(x))
            sid = self._open("quad.integrand")
            try:
                return f(x, *rest)
            finally:
                self._close(sid)

        arguments["f"] = integrand
        out = fn(**arguments)
        if name == "quad.integrate_batch":
            self.count(name + ".rounds", rounds)
            if rounds >= arguments.get("max_rounds", np.inf):
                self.count(name + ".cap_hits", 1)
        return out

    # -- work counts taken from the call's arguments --------------------
    def _count_psi_mc(self, a):
        self.count("psi.mc.paths", a["n"])

    def _count_gaussian_sample(self, a):
        self.count("gaussian.sample.draws", a["n"])

    def _count_gaussian_tilted_interval_mass(self, a):
        self.count("gaussian.tilted_interval_mass.elements",
                   np.broadcast(*(np.asarray(a[k]) for k in
                                  ("gamma", "m", "s", "lo", "hi"))).size)

    def _count_payoffs_evaluate(self, a):
        self.count("payoffs.evaluate.paths",
                   np.broadcast(np.asarray(a["s1"]), np.asarray(a["s2"])).size)

    def _count_mc_estimate(self, a):
        self.count("mc.estimate.paths", a["mc"].n_paths)

    # -- running one op ------------------------------------------------------
    def run(self, op_id: int, fn):
        """Call fn() as op `op_id` with every probe installed."""
        for mod, key, _orig, wrapper in self._wrappers:
            setattr(mod, key, wrapper)
        info = self._edges.cache_info() if self._edges else None
        self.op = op_id
        sid = self._open("op")
        try:
            return fn()
        finally:
            self._close(sid)
            self.op = None
            for mod, key, orig, _wrapper in self._wrappers:
                setattr(mod, key, orig)
            if info is not None:
                after = self._edges.cache_info()
                self._edge_hits += after.hits - info.hits
                self._edge_misses += after.misses - info.misses

    # -- per-layer metrics ---------------------------------------------------
    def metrics(self) -> dict:
        """Per-layer figures over every traced op, as name -> (value, unit)."""
        spans = self.spans
        children: dict = {}
        for sid, (_n, _s, _e, parent, _op) in enumerate(spans):
            if parent is not None:
                children.setdefault(parent, []).append(sid)

        def self_time(sid):
            _n, start, end, _p, _o = spans[sid]
            covered, reach = 0.0, start
            for lo, hi in sorted((spans[c][1], spans[c][2])
                                 for c in children.get(sid, ())):
                lo, hi = max(lo, reach), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            return end - start - covered

        def under(sid, name):
            parent = spans[sid][3]
            while parent is not None:
                if spans[parent][0] == name:
                    return True
                parent = spans[parent][3]
            return False

        calls, busy, own = Counter(), Counter(), Counter()
        for sid, (name, start, end, _p, _o) in enumerate(spans):
            calls[name] += 1
            busy[name] += (end - start) * 1e3
            own[name] += self_time(sid) * 1e3

        out = {}
        for name in dict.fromkeys(p[0] for p in PROBES):
            out[name + ".calls"] = (calls[name], "count")
            out[name + ".busy_ms"] = (busy[name], "ms")
            out[name + ".self_ms"] = (own[name], "ms")
        for key in ("psi.mc.paths", "quad.integrate_batch.rounds",
                    "quad.integrate_batch.points",
                    "quad.integrate_batch.cap_hits",
                    "quad.integrate_rows.points",
                    "gaussian.tilted_interval_mass.elements",
                    "gaussian.sample.draws", "payoffs.evaluate.paths",
                    "mc.estimate.paths"):
            out[key] = (self.counts[key], "count")
        out["quad.points_per_call"] = (
            self.counts["quad.integrate_batch.points"]
            / max(calls["quad.integrate_batch"], 1), "points/call")
        in_solve = sum(1 for sid, s in enumerate(spans)
                       if s[0] in ("psi.side", "psi.mc")
                       and under(sid, "solver.bisect"))
        out["solver.psi_calls_per_solve"] = (
            in_solve / max(calls["solver.bisect"], 1), "calls/solve")
        lookups = self._edge_hits + self._edge_misses
        out["solver.edges.hit_ratio"] = (self._edge_hits / max(lookups, 1),
                                         "ratio")
        point_busy = sum(s[2] - s[1] for sid, s in enumerate(spans)
                         if s[0] == "solver.solve"
                         and under(sid, "solver.curve"))
        out["solver.curve.parallel_ratio"] = (
            point_busy * 1e3 / max(busy["solver.curve"], 1e-9), "ratio")
        out["trace.spans"] = (len(spans), "count")
        out["trace.absent_probes"] = (len(self.absent), "count")
        return out

    def dump(self) -> dict:
        """Spans and counts in a JSON-ready form."""
        return {"columns": ["name", "start_s", "end_s", "parent", "op"],
                "spans": self.spans, "counts": dict(self.counts),
                "absent": self.absent,
                "edges_cache": {"hits": self._edge_hits,
                                "misses": self._edge_misses}}


def overhead(untraced_ms: list, traced_ms: list) -> dict:
    """Tracing overhead: traced vs untraced medians of the same ops."""
    base = statistics.median(untraced_ms)
    traced = statistics.median(traced_ms)
    return {"trace.untraced_op_ms_p50": (base, "ms"),
            "trace.op_ms_p50": (traced, "ms"),
            "trace.overhead_frac": (traced / base - 1.0, "ratio")}
