"""The benchmark's three workloads.

Each is a closed loop with one client, on the interval domain in ``eq``
mode, with its inputs made from the seed given to the benchmark.  A
workload builds its sessions in set-up (several independent set-ups per
run, each timed), then runs rounds: ``run_round`` times every call into
the library and checks every answer against the batch oracle at the same
program version, outside the timed calls.

``edit-session`` and ``cold-start`` replay identical work in every round
(the same edits on a fresh copy of the same warm session, the same
programs on a fresh engine), so rounds can be reduced per operation.
``interproc-session`` cannot be copied (its engines hold call handlers
bound to their forest), so each of its rounds continues the live sessions.
"""

from __future__ import annotations

import pickle
import random
import time
from dataclasses import dataclass

from daig.batch import batch_analyze
from daig.domains import INTERVAL
from daig.engine import Engine, Metrics
from daig.interproc import DaigForest
from daig.lang import Program, apply_edit, analyze_loops, inline_program, is_inline_var
from daig.lang import parse_program
from daig.workload import EMPTY_MAIN, INTERPROC_BASE, WorkloadSpec, gen_edit

from .harness import Round

DOMAIN = INTERVAL
MODE = "eq"
QUERIES_PER_EDIT = 5
# The default edit mix of ``daig.workload`` (85% statement, 10% if, 5%
# while).  A heavier while share makes most locations analyse to bot.
SPEC = WorkloadSpec(seed=0, edit_count=0)
INTERPROC_SPEC = WorkloadSpec(seed=0, edit_count=0, interproc=True)


def _oracle(rnd: Round, key, cfg, program: Program | None = None):
    """From-scratch batch analysis of one program version, as ``daig
    analyze`` does it; its time is the baseline the paper compares with.

    With ``program``, calls are inlined first and ``cfg`` is ignored."""
    t0 = time.perf_counter()
    if program is not None:
        cfg = inline_program(program).proc("main").cfg
    t1 = time.perf_counter()
    loops = analyze_loops(cfg)
    t2 = time.perf_counter()
    res = batch_analyze(cfg, loops, DOMAIN, MODE)
    t3 = time.perf_counter()
    rnd.record("oracle", key, t3 - t0)
    if program is not None:
        rnd.add("lang.inline_program_s", t1 - t0)
    rnd.add("batch.analyze_loops_s", t2 - t1)
    rnd.add("batch.batch_analyze_s", t3 - t2)
    for f in ("transfer_evals", "join_evals", "widen_evals"):
        rnd.add(f"batch.{f}", getattr(res, f))
    return res.invariants, loops


def _add_counters(rnd: Round, after: dict, before: dict | None = None) -> None:
    for f in Metrics.COUNTER_FIELDS:
        rnd.add(f"engine.{f}", after[f] - (before[f] if before else 0))


def _note_answer(rnd: Round, value) -> None:
    rnd.add("answers", 1)
    if DOMAIN.is_bot(value):
        rnd.add("bot_answers", 1)


@dataclass(frozen=True)
class _Step:
    """One cycle's input: an edit, the program version after it, and the
    locations queried next."""

    edit: object
    cfg: object
    queries: tuple


class EditSession:
    """Intraprocedural IncrementalDemandDriven sessions: an insertion, then
    five queries, per cycle.  This is the paper's central use; ``daig.lang``
    does most of the work.

    Set-up grows ``main`` from ``EMPTY_MAIN`` by ``warm_cycles`` cycles of
    the seeded ``daig.workload`` stream, once per session.  Each timed
    episode continues that stream for ``episode_cycles`` cycles on a fresh
    copy of its warm session, so every episode starts at the same program
    size however long the run is.
    """

    name = "edit-session"
    replays = True
    deadline_s = 2.0

    def __init__(self, seed: int, sessions: int = 48, warm_cycles: int = 100,
                 episode_cycles: int = 6):
        self.setup_times: list[float] = []
        self.episodes: list[tuple[bytes, list[_Step]]] = []
        starts = []
        for k in range(sessions):
            rng = random.Random(seed * sessions + k)
            t0 = time.perf_counter()
            engine = Engine(parse_program(EMPTY_MAIN).proc("main").cfg, DOMAIN, mode=MODE)
            for _ in range(warm_cycles):
                engine.apply_program_edit(gen_edit(rng, engine.cfg, SPEC))
                locs = sorted(engine.cfg.locs)
                for _ in range(QUERIES_PER_EDIT):
                    engine.query_loc(rng.choice(locs))
            self.setup_times.append(time.perf_counter() - t0)
            cfg, steps = engine.cfg, []
            for _ in range(episode_cycles):
                edit = gen_edit(rng, cfg, SPEC)
                cfg, _delta = apply_edit(cfg, edit, validate=False)
                locs = sorted(cfg.locs)
                queries = tuple(rng.choice(locs) for _ in range(QUERIES_PER_EDIT))
                steps.append(_Step(edit, cfg, queries))
            self.episodes.append((pickle.dumps(engine), steps))
            starts.append(len(engine.cfg.locs))
        self.locs_start = sum(starts) / len(starts)

    def run_round(self, rnd: Round) -> None:
        for ep_index, (blob, steps) in enumerate(self.episodes):
            engine = pickle.loads(blob)
            base = engine.metrics.snapshot()
            for ci, step in enumerate(steps):
                key = (ep_index, ci)
                rnd.calibrate()
                total, ok = 0.0, True
                _, secs = rnd.call("edit", key, engine.apply_program_edit, step.edit)
                if secs is None:
                    ok = False
                    _add_counters(rnd, engine.metrics.snapshot(), base)
                    engine, base = self._rebuild(step.cfg)
                else:
                    total += secs
                    if engine.cfg != step.cfg:
                        rnd.diverged(f"edit {key}: the engine's program differs from the edited one")
                answers = []
                for qi, loc in enumerate(step.queries):
                    qkey = key + (qi, f"l{loc}")
                    value, secs = rnd.call("query", qkey, engine.query_loc, loc)
                    if secs is None:
                        ok = False
                        _add_counters(rnd, engine.metrics.snapshot(), base)
                        engine, base = self._rebuild(step.cfg)
                        continue
                    total += secs
                    answers.append((qkey, loc, value))
                if ok:
                    rnd.record("cycle", key, total)
                invariants, loops = _oracle(rnd, key, step.cfg)
                for qkey, loc, value in answers:
                    rnd.check(qkey, value, invariants[loc], DOMAIN)
                    _note_answer(rnd, value)
            _add_counters(rnd, engine.metrics.snapshot(), base)
            rnd.add("sessions", 1)
            rnd.add("graph.cells", len(engine.daig.refs))
            rnd.add("engine.memo_entries", len(engine.memo))
            rnd.add("locs_end", len(steps[-1].cfg.locs))
            rnd.add("loops_end", len(loops.natural_loops))
            rnd.add("live_contexts", 1)

    @staticmethod
    def _rebuild(cfg):
        engine = Engine(cfg, DOMAIN, mode=MODE)
        return engine, engine.metrics.snapshot()

    def edits(self):
        return [s.edit for _blob, steps in self.episodes for s in steps]


class ColdStart:
    """Whole-program analysis from an empty graph: each cycle builds a fresh
    ``Engine`` and queries every location in a seeded shuffled order.

    ``daig.graph``, ``daig.engine`` and ``daig.domains`` do all the work and
    ``daig.lang`` none (loops are derived in set-up and passed in), so this
    is the control for ``daig.lang`` changes; the memo starts empty in every
    cycle, so memo-key cost shows at a low hit rate.  The corpus is made of
    snapshots of seeded growth streams at increasing sizes; ``Cfg`` is
    immutable, so snapshots cost nothing.
    """

    name = "cold-start"
    replays = True
    deadline_s = 2.0

    # An odd number of sizes puts the corpus's p50 (and p95) in the middle
    # of one size's programs rather than at the edge between two sizes,
    # where it would be a tail of the seed's programs.
    def __init__(self, seed: int, streams: int = 24, sizes: tuple = tuple(range(20, 181, 20))):
        self.setup_times: list[float] = []
        self.programs: list[tuple[object, object, list]] = []
        self.stream_edits: list = []
        for k in range(streams):
            rng = random.Random(seed * streams + k)
            t0 = time.perf_counter()
            cfg = parse_program(EMPTY_MAIN).proc("main").cfg
            # A snapshot is taken when the program first reaches each size,
            # so every seed's corpus has the same spread of sizes.
            for size in sizes:
                while len(cfg.locs) < size:
                    edit = gen_edit(rng, cfg, SPEC)
                    self.stream_edits.append(edit)
                    cfg, _delta = apply_edit(cfg, edit, validate=False)
                order = sorted(cfg.locs)
                rng.shuffle(order)
                self.programs.append((cfg, analyze_loops(cfg), order))
            self.setup_times.append(time.perf_counter() - t0)
        self.locs_start = sum(len(p[0].locs) for p in self.programs) / len(self.programs)

    def run_round(self, rnd: Round) -> None:
        for key, (cfg, loops, order) in enumerate(self.programs):
            rnd.calibrate()
            engine, secs = rnd.call("edit", key, _fresh_engine, cfg, loops)
            if secs is None:
                continue
            total, ok, answers = secs, True, []
            for loc in order:
                qkey = (key, f"l{loc}")
                value, secs = rnd.call("query", qkey, engine.query_loc, loc)
                if secs is None:
                    ok = False
                    continue
                total += secs
                answers.append((qkey, loc, value))
            if ok:
                rnd.record("cycle", key, total)
            invariants, _loops = _oracle(rnd, key, cfg)
            for qkey, loc, value in answers:
                rnd.check(qkey, value, invariants[loc], DOMAIN)
                _note_answer(rnd, value)
            _add_counters(rnd, engine.metrics.snapshot())
            rnd.add("sessions", 1)
            rnd.add("graph.cells", len(engine.daig.refs))
            rnd.add("engine.memo_entries", len(engine.memo))
            rnd.add("locs_end", len(cfg.locs))
            rnd.add("loops_end", len(loops.natural_loops))
            rnd.add("live_contexts", 1)

    def edits(self):
        return self.stream_edits


def _fresh_engine(cfg, loops) -> Engine:
    return Engine(cfg, DOMAIN, loops=loops, mode=MODE)


class _Forest:
    """One live interprocedural session and the reference program it must
    agree with."""

    def __init__(self, index: int, rng: random.Random):
        self.index = index
        self.rng = rng
        self.program = parse_program(INTERPROC_BASE)
        self.rebuild()
        self.cycles = 0

    def rebuild(self) -> None:
        # The forest edits its program in place, so it gets its own copy.
        copy = Program(procedures=dict(self.program.procedures), main=self.program.main)
        self.forest = DaigForest(copy, DOMAIN, policy_k=1, mode=MODE)
        self.base = self.forest.metrics().snapshot()

    def next_edit(self):
        edit = gen_edit(self.rng, self.program.proc("main").cfg, INTERPROC_SPEC)
        cfg, _delta = apply_edit(self.program.proc("main").cfg, edit, validate=False)
        self.program = Program(procedures=dict(self.program.procedures), main="main")
        self.program.replace_cfg("main", cfg)
        return edit

    def counters(self, rnd: Round) -> None:
        now = self.forest.metrics().snapshot()
        _add_counters(rnd, now, self.base)
        self.base = now


class InterprocSession:
    """A ``DaigForest`` with ``policy_k=1`` on ``INTERPROC_BASE``: seeded
    insertions into ``main`` that sometimes call ``inc`` or ``clamp``, then
    five queries of ``main``.  The only workload that exercises
    ``daig.interproc``: per-context engines, the call handler, cross-engine
    dirtying and the shared memo.  ``DaigForest`` is what the repl runs.

    Calls made from inside a loop can make a callee's entry contribution
    flip between iterates and the demand loop run away; such operations hit
    the deadline, count as failed, and the session is rebuilt from the
    current program.
    """

    name = "interproc-session"
    replays = False
    # Successful operations take up to about 15 ms.
    deadline_s = 0.5

    def __init__(self, seed: int, sessions: int = 3, warm_cycles: int = 60,
                 round_cycles: int = 5):
        self.round_cycles = round_cycles
        self.setup_times: list[float] = []
        self.setup_failures = 0
        self.sessions: list[_Forest] = []
        self.timed_edits: list = []
        for k in range(sessions):
            t0 = time.perf_counter()
            s = _Forest(k, random.Random(seed * sessions + k))
            warm = Round(self.deadline_s)
            for _ in range(warm_cycles):
                self._cycle(s, warm, warm_up=True)
            self.setup_failures += warm.failed
            self.setup_times.append(time.perf_counter() - t0)
            self.sessions.append(s)
        self.locs_start = sum(len(s.program.proc("main").cfg.locs) for s in self.sessions) / sessions

    def _cycle(self, s: _Forest, rnd: Round, warm_up: bool = False) -> None:
        """One edit and its queries; a timed cycle is also checked against
        the oracle."""
        edit = s.next_edit()
        key = (s.index, s.cycles)
        s.cycles += 1
        if not warm_up:
            rnd.calibrate()
        total, ok = 0.0, True
        _, secs = rnd.call("edit", key, s.forest.apply_program_edit, "main", edit)
        if secs is None:
            ok = False
            s.counters(rnd)
            s.rebuild()
        else:
            total += secs
            if s.forest.program.proc("main").cfg != s.program.proc("main").cfg:
                rnd.diverged(f"edit {key}: the forest's program differs from the edited one")
        locs = sorted(s.program.proc("main").cfg.locs)
        answers = []
        for qi in range(QUERIES_PER_EDIT):
            loc = s.rng.choice(locs)
            qkey = key + (qi, f"l{loc}")
            value, secs = rnd.call("query", qkey, s.forest.query_loc, "main", loc)
            if secs is None:
                ok = False
                s.counters(rnd)
                s.rebuild()
                continue
            total += secs
            answers.append((qkey, loc, value))
        if ok:
            rnd.record("cycle", key, total)
        if warm_up:
            return
        self.timed_edits.append(edit)
        invariants, _loops = _oracle(rnd, key, None, program=s.program)
        for qkey, loc, value in answers:
            want = invariants[loc]
            if not DOMAIN.is_bot(want):
                for var in [v for v in want.bindings if is_inline_var(v)]:
                    want = DOMAIN.drop_var(want, var)
            rnd.check(qkey, value, want, DOMAIN)
            _note_answer(rnd, value)

    def run_round(self, rnd: Round) -> None:
        for s in self.sessions:
            for _ in range(self.round_cycles):
                self._cycle(s, rnd)
            s.counters(rnd)
            rnd.add("sessions", 1)
            rnd.add("graph.cells", sum(len(e.daig.refs) for e in s.forest.engines.values()))
            # The forest's engines share one memo.
            memos = {id(e.memo): len(e.memo) for e in s.forest.engines.values()}
            rnd.add("engine.memo_entries", sum(memos.values()))
            rnd.add("interproc.live_engines", len(s.forest.engines))
            rnd.add("live_contexts", len(s.forest.engines))
            rnd.add("locs_end", len(s.program.proc("main").cfg.locs))

    def edits(self):
        return self.timed_edits


WORKLOADS = {w.name: w for w in (EditSession, ColdStart, InterprocSession)}
