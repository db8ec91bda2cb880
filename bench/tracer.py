"""Spans and allocation peaks recorded around faradaycorr's public functions,
from outside the package.

Each module imports the functions it uses by name (``cli.gk_leading``,
``weak_measurement.heisenberg_coupling``, ``trajectory_mc.heisenberg_coupling``
and so on), so a wrapper is written into every faradaycorr namespace that
holds the original object. One wrapper exists per function, and a call made
while the same function is already open on the thread's stack opens no new
span, so a nested call is never counted twice.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
import tracemalloc

# Per module, the public functions whose spans give the per-layer metrics.
SPANNED = {
    "cli": ("main",),
    "config": ("load_config", "validate_config", "build_model", "build_protocols", "build_field"),
    "quantum_core": ("hermitian_expm",),
    "correlations": ("heisenberg_coupling", "correlation", "apply_branch"),
    "weak_measurement": ("gk_leading", "gk_exact_unitary"),
    "sensor_optics": ("stokes_operators", "apply_s2", "apply_s3", "coherent_state"),
    "trajectory_mc": ("run_sequences",),
}

# The paths that allocate by problem size; their peaks are taken in a pass of their own.
ALLOCATING = {
    "weak_measurement": ("gk_exact_unitary",),
    "trajectory_mc": ("run_sequences",),
}

MIB = 1024.0 * 1024.0


def now() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _patch_everywhere(original, wrapper) -> None:
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").partition(".")[0] != "faradaycorr":
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)


def _install(table: dict, make_wrapper) -> None:
    for short, names in table.items():
        mod = sys.modules[f"faradaycorr.{short}"]
        for fname in names:
            original = getattr(mod, fname)
            _patch_everywhere(original, make_wrapper(f"{short}.{fname}", original))


class SpanRecorder:
    """Keeps spans [name, start, end, parent] in memory until the run ends."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self._local = threading.local()

    def install(self) -> None:
        _install(SPANNED, self._wrap)

    def _count(self, key: str, n: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def _span_name(self, name: str, args, kwargs) -> str:
        if name != "trajectory_mc.run_sequences":
            return name
        cfg = args[0] if args else kwargs["cfg"]
        self._count("trajectory_mc.sequence_shots", cfg.sequences * cfg.proto.order)
        chunk = getattr(sys.modules["faradaycorr.trajectory_mc"], "CHUNK_SIZE", None)
        if chunk:
            self._count("trajectory_mc.chunks", -(-cfg.sequences // chunk))
        return f"{name}.w{getattr(cfg, 'workers', 1)}"

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            if any(entry[0] is traced for entry in stack):
                return fn(*args, **kwargs)
            span = [self._span_name(name, args, kwargs), 0.0, 0.0, stack[-1][1] if stack else -1]
            index = len(self.spans)
            self.spans.append(span)
            stack.append((traced, index))
            span[1] = now()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = now()
                stack.pop()

        return traced


class AllocRecorder:
    """Largest traced allocation above the entry level, per allocating function."""

    def __init__(self):
        self.peaks_mib: dict[str, float] = {}

    def install(self) -> None:
        _install(ALLOCATING, self._wrap)

    def _wrap(self, name: str, fn):
        key = f"{name}.peak_alloc_mib"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                return fn(*args, **kwargs)
            finally:
                peak = (tracemalloc.get_traced_memory()[1] - base) / MIB
                self.peaks_mib[key] = max(self.peaks_mib.get(key, 0.0), peak)

        return traced


def span_totals(spans) -> dict[str, list]:
    """Per span name: [calls, self seconds], self = duration minus child spans."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, list] = {}
    for i, (name, start, end, _) in enumerate(spans):
        entry = out.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += end - start - child[i]
    return out
