"""Spans around relangle's public functions, recorded from outside the library.

``Tracer.install`` replaces each traced function, in every relangle module
that holds a reference to it, by a wrapper that records a span (name, start,
end, parent, info) while the tracer is active and calls straight through
otherwise.  Spans stay in memory; ``aggregate`` turns them into per-name
call counts and self times (duration minus the time covered by child spans).
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import tracemalloc

# (module, function) pairs at the layer boundaries the benchmark reports on.
# Thin callers such as max_fidelity are traced too, so that their callees get
# the right parent.
TRACED = (
    ("su2", "clebsch_gordan"),
    ("su2", "wigner_d"),
    ("states", "averaged_state"),
    ("states", "averaged_state_oracle"),
    ("estimator", "signal_trig_blocks"),
    ("estimator", "fidelity_montecarlo"),
    ("optimizer", "optimize_trig_blocks"),
    ("optimizer", "helstrom_certificate"),
    ("optimizer", "max_fidelity"),
    ("optimizer", "optimize_state"),
    ("limits", "classical_trig_blocks"),
    ("limits", "classical_fidelity"),
    ("limits", "asymptotic_deviation"),
    ("limits", "sweep_optimal_vs_j2"),
    ("cli", "main"),
)

# Functions whose spans also carry their sample count and the peak of the
# memory they allocate (measured with tracemalloc around the call).
_SAMPLED = {"states.averaged_state_oracle", "estimator.fidelity_montecarlo"}
# Functions whose spans record the value of their `certify` argument.
_CERTIFY_FLAG = {"optimizer.optimize_trig_blocks"}

# lru caches whose misses are reported: (metric prefix, module, attribute).
CACHES = (
    ("su2.clebsch_gordan", "su2", "clebsch_gordan"),
    ("estimator.geometry", "estimator", "_geometry"),
)


def _relangle_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "relangle" or name.startswith("relangle."))]


def cache_misses() -> dict[str, int]:
    """Current miss counts of the reported lru caches (absent caches read 0)."""
    out = {}
    for prefix, mod, attr in CACHES:
        fn = getattr(sys.modules.get(f"relangle.{mod}"), attr, None)
        while fn is not None and not hasattr(fn, "cache_info"):  # look through our wrapper
            fn = getattr(fn, "__wrapped__", None)
        info = getattr(fn, "cache_info", None)
        out[prefix] = info().misses if info is not None else 0
    return out


class Tracer:
    """Holds the spans of one process and the wrappers that record them."""

    def __init__(self):
        self.spans: list = []
        self.active = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.misses = {prefix: 0 for prefix, _, _ in CACHES}
        self._misses_at_start: dict[str, int] = {}

    def install(self) -> None:
        """Wrap every traced function in every relangle module that imports it."""
        for mod_name in {m for m, _ in TRACED}:
            importlib.import_module(f"relangle.{mod_name}")
        modules = _relangle_modules()
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[f"relangle.{mod_name}"], fn_name, None)
            if original is None:  # a layer the library no longer has reads 0
                continue
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                if getattr(mod, fn_name, None) is original:
                    self._patches.append((mod, fn_name, original))
                    setattr(mod, fn_name, wrapper)

    def uninstall(self) -> None:
        for mod, fn_name, original in reversed(self._patches):
            setattr(mod, fn_name, original)
        self._patches.clear()

    def take(self) -> list:
        """Return the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans

    def start(self) -> None:
        self._misses_at_start = cache_misses()
        self.active = True

    def stop(self) -> None:
        self.active = False
        for prefix, now in cache_misses().items():
            self.misses[prefix] += now - self._misses_at_start[prefix]

    def _wrap(self, name, fn):
        sig = inspect.signature(fn) if name in _SAMPLED | _CERTIFY_FLAG else None
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            info = None
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                info = dict(bound.arguments)
            measure_alloc = name in _SAMPLED
            if measure_alloc:
                tracemalloc.start()
                base = tracemalloc.get_traced_memory()[0]
            spans = self.spans
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                extra = None
                if measure_alloc:
                    peak = tracemalloc.get_traced_memory()[1] - base
                    tracemalloc.stop()
                    extra = {"samples": info["samples"], "peak_alloc_bytes": peak}
                elif info is not None:
                    extra = {"certify": bool(info["certify"])}
                spans[idx] = (name, t0, t1, parent, extra)

        return wrapper


def aggregate(spans) -> dict[str, dict]:
    """Per-name totals over one process's spans: calls, self_s and extras.

    Also counts, per optimize_state span, the optimize_trig_blocks calls with
    certify=False below it (the solves of the amplitude search).
    """
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    out: dict[str, dict] = {}
    for i, (name, t0, t1, parent, extra) in enumerate(spans):
        rec = out.setdefault(name, {"calls": 0, "self_s": 0.0})
        self_s = (t1 - t0) - child_time[i]
        rec["calls"] += 1
        rec["self_s"] += self_s
        if extra is None:
            continue
        if "certify" in extra:
            key = "certified_self_s" if extra["certify"] else "solve_self_s"
            rec[key] = rec.get(key, 0.0) + self_s
            if not extra["certify"] and _has_ancestor(spans, parent, "optimizer.optimize_state"):
                rec["search_solves"] = rec.get("search_solves", 0) + 1
        else:
            rec["samples"] = rec.get("samples", 0) + extra["samples"]
            rec["peak_alloc_bytes"] = max(rec.get("peak_alloc_bytes", 0),
                                          extra["peak_alloc_bytes"])
    return out


def _has_ancestor(spans, idx, name) -> bool:
    while idx >= 0:
        if spans[idx][0] == name:
            return True
        idx = spans[idx][3]
    return False


def merge(into: dict[str, dict], other: dict[str, dict]) -> None:
    """Add the per-name totals of another process into ``into``."""
    for name, rec in other.items():
        dst = into.setdefault(name, {"calls": 0, "self_s": 0.0})
        for key, value in rec.items():
            if key == "peak_alloc_bytes":
                dst[key] = max(dst.get(key, 0), value)
            else:
                dst[key] = dst.get(key, 0) + value
