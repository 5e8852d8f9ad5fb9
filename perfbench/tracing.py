"""Spans around the public functions of each ``daig.*`` module.

The wrappers are installed from the benchmark, not inside the library:
every module-level name bound to a wrapped function is rebound (the engine
imports ``apply_edit``, ``analyze_loops``, ``dest_structures`` and friends
by name, and ``apply_edit`` reaches ``analyze_loops`` through its own
module), and methods are replaced on the class that instances look them up
on.  A wrapper missed at one lookup site would charge that callee's time to
its caller's self time.

Spans (name, start, end, parent) are kept in flat lists while the tracer is
active and folded into per-name self times and call counts by ``fold``, so
memory stays bounded by one round of work.
"""

from __future__ import annotations

import functools
import sys
import time

_MISSING = object()


class Tracer:
    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # One entry per span, parallel lists; parent is -1 for a root span.
        self.span_name: list[int] = []
        self.span_start: list[int] = []
        self.span_end: list[int] = []
        self.span_parent: list[int] = []
        self._stack: list[int] = []
        self._restore: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        tracer = self
        clock = time.perf_counter_ns
        names, starts, ends, parents, stack = (
            self.span_name, self.span_start, self.span_end, self.span_parent, self._stack,
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            i = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def install_function(self, name: str, module, attr: str) -> None:
        """Wrap ``module.attr`` and rebind every ``daig`` module global that
        refers to the same function object."""
        original = getattr(module, attr)
        traced = self.wrap(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "daig" or mod_name.startswith("daig.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
                    self._restore.append((mod, key, original))

    def install_method(self, name: str, cls, attr: str) -> None:
        """Wrap a method where ``cls`` instances look it up (it may be
        inherited, in which case the wrapper shadows it on ``cls``)."""
        own = cls.__dict__.get(attr, _MISSING)
        setattr(cls, attr, self.wrap(name, getattr(cls, attr)))
        self._restore.append((cls, attr, own))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    def fold(self) -> dict[str, tuple[int, int]]:
        """Per-name (self time in ns, call count) of the spans recorded
        since the last fold, then forget them.

        Self time is a span's duration minus the durations of its direct
        children; one thread means children never overlap.
        """
        if self._stack:
            raise RuntimeError("fold while spans are open")
        dur = [e - s for s, e in zip(self.span_start, self.span_end)]
        self_ns = list(dur)
        for i, p in enumerate(self.span_parent):
            if p >= 0:
                self_ns[p] -= dur[i]
        out: dict[str, list[int]] = {}
        for i, nid in enumerate(self.span_name):
            acc = out.setdefault(self.names[nid], [0, 0])
            acc[0] += self_ns[i]
            acc[1] += 1
        for lst in (self.span_name, self.span_start, self.span_end, self.span_parent):
            del lst[:]
        return {k: (v[0], v[1]) for k, v in out.items()}


def install_daig_tracer() -> Tracer:
    """A tracer wrapping the public functions of every measured layer."""
    from daig import engine, graph, interproc
    from daig.domains.interval import IntervalDomain
    from daig.lang import edits, loops

    t = Tracer()
    t.install_function("lang.apply_edit", edits, "apply_edit")
    t.install_function("lang.analyze_loops", loops, "analyze_loops")
    t.install_function("lang.join_indices", edits, "stable_join_indices")
    t.install_function("graph.init_daig", graph, "init_daig")
    t.install_function("graph.dest_structures", graph, "dest_structures")
    t.install_method("graph.forward_set", graph.Daig, "forward_set")
    t.install_method("graph.backward_set", graph.Daig, "backward_set")
    t.install_method("engine.query_loc", engine.Engine, "query_loc")
    t.install_method("engine.apply_program_edit", engine.Engine, "apply_program_edit")
    t.install_method("interproc.query_loc", interproc.DaigForest, "query_loc")
    t.install_method(
        "interproc.apply_program_edit", interproc.DaigForest, "apply_program_edit"
    )
    for op in ("transfer", "join", "widen", "equal", "leq", "digest"):
        t.install_method(f"domains.{op}", IntervalDomain, op)
    return t
