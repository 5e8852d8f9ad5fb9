"""Synthetic edit/query workloads and the four analysis configurations.

A workload grows a program from ``fn main() { skip; }`` by seeded random
insertions (plain statement, if, or while, with configurable mix), issuing
a fixed number of location queries between edits.  The same seed produces
identical edit and query streams in every configuration, so answers can be
compared exactly while the amount of reused work differs.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import Iterable, Optional

from .batch import batch_analyze
from .interproc import DaigForest
from .lang.cfg import Cfg, Loc
from .lang.edits import InsertIf, InsertStmtAfter, InsertWhile, ProgramEdit, apply_edit
from .lang.inline import inline_program, is_inline_var
from .lang.loops import analyze_loops
from .lang.parser import parse_program
from .lang.syntax import (
    And,
    ArrayRead,
    ArrayWrite,
    Assign,
    Binop,
    Call,
    Expr,
    IntLit,
    Not,
    Or,
    Print,
    Skip,
    Stmt,
    Var,
    expr_text,
    stmt_text,
)
from .domains import domain_by_name

CONFIGS = ("Batch", "Incremental", "DemandDriven", "IncrementalDemandDriven")

EMPTY_MAIN = "fn main() { skip; }"

# Base program for the interprocedural workload mode: edits still target
# main, but inserted statements may call the helper procedures.
INTERPROC_BASE = """
fn main() { x0 = 1; }
fn inc(p) { ret = p + 1; }
fn clamp(p) { if (p < 0) { ret = 0; } else { ret = p; } }
"""
INTERPROC_CALLEES = ("inc", "clamp")


@dataclass(frozen=True)
class WorkloadSpec:
    seed: int
    edit_count: int
    queries_per_edit: int = 5
    p_stmt: float = 0.85
    p_if: float = 0.10
    p_while: float = 0.05
    domain: str = "interval"
    config: str = "IncrementalDemandDriven"
    mode: str = "eq"
    trial: int = 0
    # Separate flagged mode: grow main inside a small multi-procedure
    # program, with inserted statements occasionally calling the helpers.
    interproc: bool = False

    def __post_init__(self):
        if abs(self.p_stmt + self.p_if + self.p_while - 1.0) > 1e-9:
            raise ValueError("edit-kind probabilities must sum to 1")
        if self.config not in CONFIGS:
            raise ValueError(f"unknown configuration {self.config!r}")


@dataclass(frozen=True)
class LatencyRecord:
    trial: int
    seed: int
    config: str
    edit_index: int
    op: str  # "edit" | "query"
    latency_ns: int
    program_locs: int
    transfer_evals: int
    join_evals: int
    widen_evals: int
    memo_hits: int
    cells_dirtied: int
    answer: str = ""

    CSV_FIELDS = (
        "trial", "seed", "config", "edit_index", "op", "latency_ns",
        "program_locs", "transfer_evals", "join_evals", "widen_evals",
        "memo_hits", "cells_dirtied", "answer",
    )

    def csv_row(self) -> str:
        return ",".join(str(getattr(self, f)) for f in self.CSV_FIELDS)


# -- random program and edit generation -----------------------------------

VAR_POOL = tuple(f"x{i}" for i in range(8))
CONST_RANGE = (-100, 100)


def gen_expr(rng: random.Random, depth: int = 3, vars: tuple[str, ...] = VAR_POOL) -> Expr:
    if depth <= 0 or rng.random() < 0.35:
        if rng.random() < 0.5:
            c = rng.randint(*CONST_RANGE)
            return IntLit(c) if c >= 0 else Binop("-", IntLit(0), IntLit(-c))
        return Var(rng.choice(vars))
    roll = rng.random()
    if roll < 0.75:
        op = rng.choice(("+", "-", "*", "/"))
        return Binop(op, gen_expr(rng, depth - 1, vars), gen_expr(rng, depth - 1, vars))
    if roll < 0.85:
        return ArrayRead(rng.choice(vars), gen_expr(rng, depth - 1, vars))
    return gen_cond(rng, depth - 1, vars)


def gen_cond(rng: random.Random, depth: int = 2, vars: tuple[str, ...] = VAR_POOL) -> Expr:
    roll = rng.random()
    if roll < 0.70 or depth <= 0:
        op = rng.choice(("<", "<=", ">", ">=", "==", "!="))
        lhs = Var(rng.choice(vars))
        if rng.random() < 0.6:
            c = rng.randint(*CONST_RANGE)
            rhs: Expr = IntLit(c) if c >= 0 else Binop("-", IntLit(0), IntLit(-c))
        else:
            rhs = Var(rng.choice(vars))
        return Binop(op, lhs, rhs)
    if roll < 0.80:
        return Not(gen_cond(rng, depth - 1, vars))
    if roll < 0.90:
        return And(gen_cond(rng, depth - 1, vars), gen_cond(rng, depth - 1, vars))
    return Or(gen_cond(rng, depth - 1, vars), gen_cond(rng, depth - 1, vars))


def gen_simple_stmt(
    rng: random.Random,
    vars: tuple[str, ...] = VAR_POOL,
    callees: tuple[str, ...] = (),
) -> Stmt:
    roll = rng.random()
    if callees and roll < 0.12:
        return Call(rng.choice(vars), rng.choice(callees), gen_expr(rng, 1, vars))
    if roll < 0.70:
        return Assign(rng.choice(vars), gen_expr(rng, 3, vars))
    if roll < 0.80:
        return Print(gen_expr(rng, 2, vars))
    if roll < 0.90:
        return ArrayWrite(rng.choice(vars), gen_expr(rng, 1, vars), gen_expr(rng, 2, vars))
    return Skip()


def gen_edit(rng: random.Random, cfg: Cfg, spec: Optional[WorkloadSpec] = None) -> ProgramEdit:
    """One random insertion at a uniformly random existing location."""
    p_stmt = spec.p_stmt if spec else 0.85
    p_if = spec.p_if if spec else 0.10
    callees = INTERPROC_CALLEES if (spec and spec.interproc) else ()
    loc = rng.choice(sorted(cfg.locs))
    roll = rng.random()
    if roll < p_stmt:
        return InsertStmtAfter(loc, gen_simple_stmt(rng, callees=callees))
    if roll < p_stmt + p_if:
        then_stmts = (gen_simple_stmt(rng, callees=callees),)
        else_stmts = (gen_simple_stmt(rng, callees=callees),) if rng.random() < 0.5 else ()
        return InsertIf(loc, gen_cond(rng), then_stmts, else_stmts)
    return InsertWhile(loc, gen_cond(rng), (gen_simple_stmt(rng, callees=callees),))


def gen_program_source(
    rng: random.Random,
    *,
    max_stmts: int = 10,
    max_depth: int = 2,
    loop_budget: int = 3,
    vars: tuple[str, ...] = VAR_POOL[:4],
    input_vars: tuple[str, ...] = (),
) -> str:
    """Random single-procedure source text for the consistency suites."""
    gen = _BlockSource(rng, max_depth, loop_budget, vars, vars + input_vars or vars)
    body = gen.block(0, rng.randint(3, max_stmts))
    for v in input_vars:
        # Touch inputs so they appear in the analysis; they stay unassigned
        # before first read, reading as unknown abstractly and 0 concretely.
        body.insert(rng.randrange(len(body) + 1), f"print({v});")
    return "fn main() { " + " ".join(body) + " }"


class _BlockSource:
    """Statement lines for :func:`gen_program_source`, all drawn from one
    ``rng``.  A class, not nested closures: a closure that calls itself
    leaves a reference cycle behind every call."""

    __slots__ = ("rng", "max_depth", "loops_left", "vars", "cond_vars")

    def __init__(self, rng, max_depth, loop_budget, vars, cond_vars):
        self.rng = rng
        self.max_depth = max_depth
        self.loops_left = loop_budget
        self.vars = vars
        self.cond_vars = cond_vars

    def block(self, depth: int, count: int) -> list[str]:
        rng = self.rng
        lines = []
        for _ in range(count):
            roll = rng.random()
            if roll < 0.62 or depth >= self.max_depth:
                lines.append(stmt_text(gen_simple_stmt(rng, self.vars)))
            elif roll < 0.85 or self.loops_left <= 0:
                inner = self.block(depth + 1, rng.randint(1, 2))
                lines.append(f"if ({self.cond()}) {{ {' '.join(inner)} }}")
                if rng.random() < 0.5:
                    other = self.block(depth + 1, rng.randint(1, 2))
                    lines[-1] += f" else {{ {' '.join(other)} }}"
            else:
                self.loops_left -= 1
                inner = self.block(depth + 1, rng.randint(1, 2))
                lines.append(f"while ({self.cond()}) {{ {' '.join(inner)} }}")
        return lines

    def cond(self) -> str:
        return expr_text(gen_cond(self.rng, 1, self.cond_vars))


# -- the four configurations ------------------------------------------------


def _summary_op(config: str) -> str:
    """The operation kind whose latency characterizes a configuration:
    exhaustive configurations are measured per edit (re-analysis), the
    demand-driven ones per query."""
    return "edit" if config in ("Batch", "Incremental") else "query"


class _Runner:
    """Shared driver: applies the edit stream, answering queries per config.

    Every configuration but Batch analyzes through a ``DaigForest``; an
    intraprocedural workload is a forest with one engine.
    """

    def __init__(self, spec: WorkloadSpec):
        self.spec = spec
        self.domain = domain_by_name(spec.domain)
        self.records: list[LatencyRecord] = []
        self.answers: list[str] = []
        self.program = parse_program(INTERPROC_BASE if spec.interproc else EMPTY_MAIN)
        self.base = dict.fromkeys(
            ("transfer_evals", "join_evals", "widen_evals", "memo_hits", "cells_dirtied"), 0
        )
        self.forest = None if spec.config == "Batch" else self._new_forest()
        self.batch_result = None

    @property
    def cfg(self) -> Cfg:
        return self.program.proc("main").cfg

    def _new_forest(self) -> DaigForest:
        return DaigForest(self.program, self.domain, policy_k=1, mode=self.spec.mode)

    def counters(self) -> dict[str, int]:
        out = dict(self.base)
        if self.forest is not None:
            snap = self.forest.metrics().snapshot()
            for k in out:
                out[k] += snap[k]
        return out

    def _record(self, op: str, edit_index: int, latency_ns: int, answer: str = "") -> None:
        c = self.counters()
        self.records.append(
            LatencyRecord(
                trial=self.spec.trial,
                seed=self.spec.seed,
                config=self.spec.config,
                edit_index=edit_index,
                op=op,
                latency_ns=latency_ns,
                program_locs=len(self.cfg.locs),
                transfer_evals=c["transfer_evals"],
                join_evals=c["join_evals"],
                widen_evals=c["widen_evals"],
                memo_hits=c["memo_hits"],
                cells_dirtied=c["cells_dirtied"],
                answer=answer,
            )
        )

    def apply_edit_op(self, edit_index: int, edit: ProgramEdit) -> None:
        spec = self.spec
        t0 = time.perf_counter_ns()
        if spec.config in ("Batch", "DemandDriven"):
            new_cfg, _ = apply_edit(self.cfg, edit, validate=False)
            self.program.replace_cfg("main", new_cfg)
        else:
            self.forest.apply_program_edit("main", edit)
        if spec.config == "Batch":
            target = inline_program(self.program) if spec.interproc else self.program
            flat_cfg = target.proc("main").cfg
            res = batch_analyze(flat_cfg, analyze_loops(flat_cfg), self.domain, spec.mode)
            self.batch_result = res
            for k in ("transfer_evals", "join_evals", "widen_evals"):
                self.base[k] += getattr(res, k)
        elif spec.config == "DemandDriven":
            self.base = self.counters()
            self.forest = self._new_forest()
        elif spec.config == "Incremental":
            for loc in sorted(self.cfg.locs):
                self.forest.query_loc("main", loc)
        self._record("edit", edit_index, time.perf_counter_ns() - t0)

    def query_op(self, edit_index: int, loc: Loc) -> str:
        t0 = time.perf_counter_ns()
        if self.forest is None:
            value = self.batch_result.invariants[loc]
            if self.spec.interproc and not self.domain.is_bot(value):
                for var in [v for v in value.bindings if is_inline_var(v)]:
                    value = self.domain.drop_var(value, var)
        else:
            value = self.forest.query_loc("main", loc)
        answer = self.domain.to_text(value)
        self._record("query", edit_index, time.perf_counter_ns() - t0, answer)
        self.answers.append(answer)
        return answer


def run_config(spec: WorkloadSpec) -> tuple[list[LatencyRecord], list[str]]:
    """Execute one configuration over the seeded edit/query stream.

    Returns the per-operation latency records and the flat answer list;
    identical seeds yield identical streams across configurations.
    """
    rng = random.Random(spec.seed)
    runner = _Runner(spec)
    for i in range(spec.edit_count):
        edit = gen_edit(rng, runner.cfg, spec)
        runner.apply_edit_op(i, edit)
        locs = sorted(runner.cfg.locs)
        for _ in range(spec.queries_per_edit):
            runner.query_op(i, rng.choice(locs))
    return runner.records, runner.answers


# -- summaries ---------------------------------------------------------------


def nearest_rank(sorted_values: list, q: float):
    """Nearest-rank percentile: the ceil(q/100 * n)-th smallest value."""
    if not sorted_values:
        raise ValueError("no values")
    n = len(sorted_values)
    rank = max(1, math.ceil(q * n / 100))
    return sorted_values[min(rank, n) - 1]


@dataclass
class ConfigSummary:
    config: str
    op: str
    count: int
    mean_ns: float
    p50_ns: int
    p90_ns: int
    p95_ns: int
    p99_ns: int
    cycle_p50_ns: int
    cycle_p95_ns: int

    CSV_FIELDS = (
        "config", "op", "count", "mean_ns", "p50_ns", "p90_ns", "p95_ns", "p99_ns",
        "cycle_p50_ns", "cycle_p95_ns",
    )

    def csv_row(self) -> str:
        return ",".join(str(getattr(self, f)) for f in self.CSV_FIELDS)


def summarize(records: Iterable[LatencyRecord]) -> list[ConfigSummary]:
    """Mean and nearest-rank percentiles of each configuration's
    characteristic operation latency, plus the nearest-rank p50 and p95 of
    its cycles: an edit together with the queries that follow it, keyed by
    (trial, seed, edit_index), so no configuration's edit cost hides behind
    its query cost."""
    records = list(records)
    if not records:
        raise ValueError("no records to summarize")
    out = []
    for config in CONFIGS:
        mine = [r for r in records if r.config == config]
        lats = sorted(r.latency_ns for r in mine if r.op == _summary_op(config))
        if not lats:
            continue
        by_cycle: dict[tuple[int, int, int], int] = {}
        for r in mine:
            key = (r.trial, r.seed, r.edit_index)
            by_cycle[key] = by_cycle.get(key, 0) + r.latency_ns
        cycles = sorted(by_cycle.values())
        out.append(
            ConfigSummary(
                config=config,
                op=_summary_op(config),
                count=len(lats),
                mean_ns=sum(lats) / len(lats),
                p50_ns=nearest_rank(lats, 50),
                p90_ns=nearest_rank(lats, 90),
                p95_ns=nearest_rank(lats, 95),
                p99_ns=nearest_rank(lats, 99),
                cycle_p50_ns=nearest_rank(cycles, 50),
                cycle_p95_ns=nearest_rank(cycles, 95),
            )
        )
    return out


def render_summary(summaries: list[ConfigSummary]) -> str:
    header = (
        f"{'config':<26}{'op':<7}{'n':>7}{'mean':>12}{'p50':>12}{'p90':>12}{'p95':>12}{'p99':>12}"
        f"{'cycle p50':>12}{'cycle p95':>12}"
    )
    lines = [header, "-" * len(header)]
    for s in summaries:
        lines.append(
            f"{s.config:<26}{s.op:<7}{s.count:>7}"
            f"{s.mean_ns / 1e6:>11.3f}m{s.p50_ns / 1e6:>11.3f}m"
            f"{s.p90_ns / 1e6:>11.3f}m{s.p95_ns / 1e6:>11.3f}m{s.p99_ns / 1e6:>11.3f}m"
            f"{s.cycle_p50_ns / 1e6:>11.3f}m{s.cycle_p95_ns / 1e6:>11.3f}m"
        )
    return "\n".join(lines)
