"""Timed calls into the library, with a per-operation deadline, failure
accounting and the batch-oracle check.

Everything runs in the benchmark's one process and thread: the deadline is
a ``SIGALRM`` interval timer armed around each call, so a runaway demand
loop is cut off without starting a watchdog thread or process.
"""

from __future__ import annotations

import _pydecimal
import difflib
import io
import math
import pickle
import random
import signal
import statistics
import time
from typing import Optional

KINDS = ("edit", "query", "cycle", "oracle")


try:
    from re import _compiler as _sre_compiler
except ImportError:  # Python < 3.11
    import sre_compile as _sre_compiler

# Inputs of the calibration kernel, made once.
_KERNEL_PATTERNS = (
    r"(?P<var>[a-z_]\w*)\s*=\s*(?P<rhs>.+?);",
    r"while\s*\((.*)\)\s*\{",
    r"\b(if|else|while|return)\b",
    r"[+-]?\d+(\.\d*)?([eE][+-]?\d+)?",
    r"l(\d+)\s*->\s*l(\d+)",
)
_KERNEL_CELLS = {
    "cells": [{"loc": i, "env": {"x": (i, i + 3), "y": (-i, i)}, "succ": [i + 1, i + 2]}
              for i in range(20)]
}
_KERNEL_OLD = [f"x{i} = x{i - 1} + {i % 7};" for i in range(1, 60)]
_KERNEL_NEW = _KERNEL_OLD[:30] + ["while (x < 10) {", "x = x + 1;", "}"] + _KERNEL_OLD[33:]


def calibration_kernel() -> int:
    """Fixed pure-Python work that uses nothing from the library, a few
    milliseconds long.

    Its first half is the shape of the library's edit path: statements
    formatted as text, sorted, and walked for reachability over dicts and
    sets.  Its second half runs the pure-Python parts of the standard
    library (regex compilation, the Python pickler, ``_pydecimal``,
    ``difflib``), so that, like the library, it executes a wide spread of
    interpreted code rather than one tight loop: under load from other
    tenants the machine slows a tight loop more than it slows the library,
    while this mix slows about as much.  A latency divided by the kernel's
    times measured just before and just after it therefore repeats across
    runs, and a change to the library cannot move the kernel."""
    rng = random.Random(5)
    edges = [(rng.randrange(200), "x = x + %d" % rng.randrange(9), rng.randrange(200))
             for _ in range(350)]
    text = sorted("l%d -> l%d: %s" % (a, c, stmt) for a, stmt, c in edges)
    succ: dict[int, set] = {}
    for a, _stmt, c in edges:
        succ.setdefault(a, set()).add(c)
    reach, work = set(), [0]
    while work:
        for m in succ.get(work.pop(), ()):
            if m not in reach:
                reach.add(m)
                work.append(m)

    for pattern in _KERNEL_PATTERNS:
        _sre_compiler.compile(pattern, 0)
    buf = io.BytesIO()
    pickle._Pickler(buf, 4).dump(_KERNEL_CELLS)
    pickle._Unpickler(io.BytesIO(buf.getvalue())).load()
    ctx, d = _pydecimal.Context(prec=28), _pydecimal.Decimal(1)
    for i in range(1, 25):
        d = ctx.add(ctx.divide(d, _pydecimal.Decimal(i)), _pydecimal.Decimal(1))
    diff = list(difflib.unified_diff(_KERNEL_OLD, _KERNEL_NEW, lineterm=""))
    return len(text) + len(reach) + len(diff)


class OpTimeout(Exception):
    """An operation ran past its deadline."""


def _on_alarm(signum, frame):
    raise OpTimeout("deadline expired")


def install_deadline_handler() -> None:
    signal.signal(signal.SIGALRM, _on_alarm)


class Round:
    """One pass over a workload's operations: latencies keyed by operation,
    plus everything that failed or disagreed with the oracle.

    Keys identify an operation across rounds, so replayed rounds can be
    reduced per operation (see ``PerOp``)."""

    def __init__(self, deadline_s: float, tracer=None):
        self.deadline_s = deadline_s
        self.tracer = tracer
        # Seconds per operation key, by kind: "edit", "query", "cycle"
        # (an edit and its queries) and "oracle".
        self.times: dict[str, dict] = {k: {} for k in KINDS}
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        self.first_failure: Optional[str] = None
        self.op_time = 0.0
        # Each operation's time over the calibration kernel's times measured
        # just before and just after it, keyed like ``times``.
        self.rel: dict[str, dict] = {k: {} for k in KINDS}
        # The kernel's times in this round, and the operations recorded
        # since the last one.
        self.kernels: list[float] = []
        self._pending: list[tuple] = []
        # Per-round layer counters and gauges filled in by the workload.
        self.layer: dict[str, float] = {}
        # Per-name (self ns, calls) of the traced calls, when traced.
        self.spans: dict[str, tuple[int, int]] = {}

    def call(self, kind: str, key, fn, *args):
        """Run one library call under the deadline.

        Returns ``(value, seconds)``, or ``(None, None)`` when the call
        raised or timed out; the failure is counted and the first one kept.
        """
        self.attempted += 1
        tracer = self.tracer
        signal.setitimer(signal.ITIMER_REAL, self.deadline_s)
        try:
            if tracer is not None:
                tracer.active = True
            t0 = time.perf_counter()
            value = fn(*args)
            secs = time.perf_counter() - t0
        except Exception as exc:  # a failed operation is a measured outcome
            self._fail(f"{kind} {key}: {type(exc).__name__}: {exc}")
            return None, None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            if tracer is not None:
                tracer.active = False
        self.record(kind, key, secs)
        self.op_time += secs
        return value, secs

    def record(self, kind: str, key, secs: float) -> None:
        """Keep one completed operation's time; its relative time follows
        at the next calibration."""
        self.times[kind][key] = secs
        self._pending.append((kind, key, secs))

    def calibrate(self) -> None:
        """Time the calibration kernel once, between cycles.  Each
        operation recorded since the last calibration is divided by the
        mean of the kernel's times before and after it, which brackets the
        machine's speed while it ran."""
        t0 = time.perf_counter()
        calibration_kernel()
        after = time.perf_counter() - t0
        before = self.kernels[-1] if self.kernels else after
        for kind, key, secs in self._pending:
            self.rel[kind][key] = secs / ((before + after) / 2)
        self._pending.clear()
        self.kernels.append(after)

    def check(self, key, got, want, domain) -> None:
        """Compare an answer with the oracle's, bit for bit."""
        if got != want:
            self.mismatches += 1
            self._fail(
                f"query {key}: answer {domain.to_text(got)} "
                f"!= oracle {domain.to_text(want)}"
            )

    def diverged(self, what: str) -> None:
        """A session's program no longer matches the edited program."""
        self.mismatches += 1
        self._fail(what)

    def _fail(self, what: str) -> None:
        self.failed += 1
        if self.first_failure is None:
            self.first_failure = what

    def add(self, name: str, value: float) -> None:
        self.layer[name] = self.layer.get(name, 0) + value


class PerOp:
    """Each operation's samples over the rounds in which it completed.

    Replayed rounds repeat identical work, so the minimum of an operation's
    raw times is its time with the least interference from other load.
    Its relative times are reduced by their median instead: each already
    carries the machine's speed of its moment, and a median is not pulled
    down by a kernel sample that happened to run slow.  Merging empties
    the round, so memory stays bounded by one round plus a float per
    operation and round."""

    def __init__(self):
        self.times: dict[str, dict] = {k: {} for k in KINDS}
        self.rels: dict[str, dict] = {k: {} for k in KINDS}
        self.kernels: list[float] = []

    def merge(self, rnd: Round) -> None:
        self.kernels.extend(rnd.kernels)
        for kind, times in rnd.times.items():
            acc = self.times[kind]
            for key, secs in times.items():
                if secs < acc.get(key, math.inf):
                    acc[key] = secs
            times.clear()
        for kind, rels in rnd.rel.items():
            acc = self.rels[kind]
            for key, rel in rels.items():
                acc.setdefault(key, []).append(rel)
            rels.clear()

    def values(self, kind: str) -> list[float]:
        """Per-operation minimum raw seconds."""
        return list(self.times[kind].values())

    def rel_values(self, kind: str) -> list[float]:
        """Per-operation median time relative to the calibration kernel."""
        return [statistics.median(v) for v in self.rels[kind].values()]


def nearest_rank(values: list[float], q: float) -> float:
    """The ceil(q/100 * n)-th smallest value."""
    s = sorted(values)
    rank = max(1, math.ceil(q * len(s) / 100))
    return s[min(rank, len(s)) - 1]
