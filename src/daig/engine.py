"""Demand-driven, incremental evaluation over reified analysis graphs.

Queries walk dependencies backwards, reusing filled cells and the
location-independent memo table; loop fixed points are computed by
demanded unrolling, which extends the graph one abstract iteration at a
time until two consecutive iterates agree.

With the memo on, an edit propagates what it changes: it recomputes at
once every filled cell that reads a replaced computation or statement, and
goes on only from cells whose value changed.  A cell outside every loop is
recomputed in place; a cell inside a loop rolls back only its outermost
loop, whose fixed point is demanded again from its first iterate.  Two
rules stop propagation and empty lazily instead, where dependents are
emptied, fix edges rolled back to their first iterates, and everything
recomputed when demanded again.  Memo-off engines always empty lazily.  A
demand inside an edit never runs a call: where it would, the cell it
recomputes is emptied with what it reaches, so no call handler runs
inside an edit.  A write to a state cell empties lazily too.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from heapq import heappop, heappush
from typing import Callable, Optional

from .graph import (
    FIX,
    JOIN,
    STMT,
    TRANSFER,
    WIDEN,
    Computation,
    Iter,
    LocN,
    LocNames,
    Name,
    Prod,
    RefCell,
    check_ai_consistency,
    check_cfg_consistency,
    check_wf,
    dest_structures,
    fix_head,
    init_daig,
    state_loc,
    stmt_cell_locs,
    unroll,
)
from .lang.cfg import Cfg, Edge, Loc
from .lang.edits import (
    EditDelta,
    EditError,
    ProgramEdit,
    apply_edit,
    inserted_stmts,
    relabel,
    stable_join_indices,
)
from .lang.loops import LoopInfo, analyze_loops
from .lang.syntax import Call, is_stmt, stmt_text
from .domains.base import ContractViolation


class EngineError(RuntimeError):
    pass


class PreservationError(AssertionError):
    """A debug-mode invariant check failed after a public operation."""


@dataclass
class Metrics:
    transfer_evals: int = 0
    join_evals: int = 0
    widen_evals: int = 0
    memo_hits: int = 0
    memo_misses: int = 0
    unrollings: int = 0
    cells_dirtied: int = 0
    # Per fix cell: unrollings spent reaching its most recent fixed point.
    loop_episodes: dict[Name, int] = field(default_factory=dict)

    COUNTER_FIELDS = (
        "transfer_evals",
        "join_evals",
        "widen_evals",
        "memo_hits",
        "memo_misses",
        "unrollings",
        "cells_dirtied",
    )

    def snapshot(self) -> dict[str, int]:
        return {f: getattr(self, f) for f in self.COUNTER_FIELDS}

    def add(self, other: "Metrics") -> None:
        for f in self.COUNTER_FIELDS:
            setattr(self, f, getattr(self, f) + getattr(other, f))


class Engine:
    """Single-procedure analysis session: one graph, one memo.

    The memo maps ``(fn name, domain name, statement, state)`` for
    transfers and ``(fn name, domain name, *states)`` for joins and widens
    to the result;
    states and statements are immutable with canonical equality, so the
    values themselves are the key.  Each caches its own hash, so a lookup
    hashes a key in O(1); no cached hash is pickled, so a pickled engine
    still hits its memo in a process with another string-hash seed.

    Demand walks linked cells: each cell holds the computation into it (the
    only place it is kept) and caches its source cells, so a walk looks up
    no names.  Links point upstream only, so the graph has no reference
    cycles.  ``names`` is the name table of the loop structure (``loops``
    may be a table to adopt), which an edit replaces with the one
    :func:`derive_names` makes; all engines of a forest's procedure hold
    one table.  ``query_loc`` resolves a location through it to one cell
    per enclosing loop level, each named by the table's ``LocN`` and the
    counts of the level above's converged first iterate, read from the graph.
    ``dest_structures`` is the one builder of a location's cells, named
    through the table: a fresh graph (``init_daig``) is its cells over every
    location, and an edit adopts its cells for the locations it touches,
    writing each computation through ``Daig.set_comp``.  ``unroll`` is the
    one code that extends a loop by an iterate.  The graph's consumer
    index is read only by an edit's dirtying and propagation, so a
    query-only engine never builds it; the first edit derives it in
    O(cells) once, and ``set_comp`` keeps it in step after that.  Under
    ``debug`` the fresh graph and every public operation are checked by
    ``assert_invariants``, which compares the graph with a from-scratch
    reference: a fresh graph whose live loops ``unroll`` takes to this
    graph's depths.  A pickled or snapshot engine starts without cached
    sources and links them again as it is queried, as do cells that
    unrolling or an edit gives a new computation.

    With the memo on, an edit propagates (see :meth:`splice` and
    :meth:`_propagate`): it recomputes the filled cells whose inputs it
    changed, in place outside loops and by re-converging the outermost
    loop of a cell inside one, and goes on only where a value changed, so
    a filled cell stays filled and a query after the edit reads it at once.
    A memo-off engine, and a cell whose recomputation would run a call,
    are emptied instead and recomputed on demand.

    Mutating operations (query, write_cell, apply_program_edit) must be
    externally serialized; ``snapshot`` produces an independent copy that
    shares no cell with this engine.
    """

    def __init__(
        self,
        cfg: Cfg,
        domain,
        *,
        loops: Optional[LoopInfo | LocNames] = None,
        mode: str = "eq",
        memo: Optional[dict] = None,
        enable_memo: bool = True,
        debug: bool = False,
        call_handler: Optional[Callable] = None,
        entry_state=None,
    ):
        if mode not in ("eq", "leq"):
            raise ValueError(f"unknown convergence mode {mode!r}")
        self.cfg = cfg
        self.domain = domain
        self.names = loops if isinstance(loops, LocNames) else LocNames(loops or analyze_loops(cfg))
        self.mode = mode
        self.memo = memo if memo is not None else {}
        self.enable_memo = enable_memo
        self.debug = debug
        self.call_handler = call_handler
        self.metrics = Metrics()
        self.daig = init_daig(cfg, self.names, domain, entry_state)
        if debug:
            self.assert_invariants()

    # -- plumbing -------------------------------------------------------------

    @property
    def loops(self) -> LoopInfo:
        """The loop structure of ``cfg``, kept with its name table."""
        return self.names.loops

    def snapshot(self) -> "Engine":
        out = copy.copy(self)
        out.metrics = Metrics(**self.metrics.snapshot())
        out.daig = self.daig.copy()
        return out

    def _converged(self, prev, nxt) -> bool:
        if self.mode == "eq":
            return self.domain.equal(prev, nxt)
        return self.domain.leq(nxt, prev)

    def assert_invariants(self) -> None:
        wf = check_wf(self.daig)
        if wf:
            raise PreservationError(f"well-formedness violated: {wf[0]}")
        reasons: list[str] = []
        if not check_cfg_consistency(self.daig, self.cfg, self.loops, reasons):
            raise PreservationError(f"graph/CFG consistency violated: {reasons[0]}")
        if not check_ai_consistency(self.daig, self.domain, reasons):
            raise PreservationError(f"graph/analysis consistency violated: {reasons[0]}")

    def _after_public_op(self) -> None:
        if self.debug:
            self.assert_invariants()

    # -- queries ----------------------------------------------------------------

    def query(self, name: Name):
        """Value of the named cell, computing and caching missing inputs.

        A filled cell answers at once; an empty cell demands its
        computation's sources in order, then answers from the memo table or
        by applying the function.  Fix cells converge by demanded unrolling.
        The walk follows cell links, not names: each cell holds its
        computation and its source cells, linked when a fresh graph is built
        or on the cell's first demand after that.  Unrolling and
        call handlers may replace computations, so after either the loop
        reads the cell's computation and sources afresh.
        """
        value = self._demand(self.daig.cell(name))
        self._after_public_op()
        return value

    def _demand(self, root: RefCell, calls: bool = True):
        """The value of the cell ``root``, computed as :meth:`query` says.
        Unlike the public operations it checks no invariants, so an edit
        may demand cells before its graph is whole again.  With ``calls``
        false it runs no call handler: at the first empty transfer over a
        call that it would have to evaluate it stops and returns ``None``,
        keeping every cell it filled on the way."""
        if root.contents is not None:
            return root.contents
        daig = self.daig
        sources = daig.sources
        domain = self.domain
        dname = domain.name
        memo = self.memo if self.enable_memo else None
        metrics = self.metrics
        stack = [root]
        budget = 10_000_000 + 100 * len(daig.refs)
        while stack:
            budget -= 1
            if budget < 0:
                raise EngineError("query did not stabilize (runaway demand loop)")
            cell = stack[-1]
            if cell.contents is not None:
                stack.pop()
                continue
            comp = cell.comp
            if comp is None:
                raise EngineError(f"empty cell {cell.name!r} has no computation")
            srcs = cell.srcs
            if srcs is None:
                srcs = sources(cell)
            fn = comp.fn
            if fn is FIX:
                first, final = srcs
                if first.contents is None:
                    stack.append(first)
                    continue
                if final.contents is None:
                    stack.append(final)
                    continue
                nxt = final.contents
                if self._converged(first.contents, nxt):
                    cell.contents = nxt
                    n = cell.name
                    metrics.loop_episodes[n] = first.name.count_of(fix_head(n))
                    stack.pop()
                else:
                    self._unroll(comp)
                continue
            if fn is TRANSFER:
                stmt, state = srcs[0].contents, srcs[1].contents  # a statement is never empty
                if state is None:
                    stack.append(srcs[1])
                    continue
                if isinstance(stmt, Call):
                    if not calls:
                        return None
                    # Not memoized: the result depends on the callee's current code.
                    if self.call_handler is None:
                        raise ContractViolation(
                            f"call statement {stmt_text(stmt)!r} reached an "
                            "engine without an interprocedural handler"
                        )
                    out = self.call_handler(stmt, state, comp)
                    # A shared callee entry may have widened during the call,
                    # dirtying this cell's inputs; recompute from fresh ones.
                    if any(s.contents is None for s in srcs):
                        continue
                    cell.contents = out
                    stack.pop()
                    continue
                # ``_value_`` is the symbol's string, read without the Python-level
                # ``value`` property; a string hashes in C, an enum member does not.
                key = (fn._value_, dname, stmt, state)
            else:
                # Empty sources go on the stack so that the first is demanded first.
                empty = [s for s in srcs if s.contents is None]
                if empty:
                    stack.extend(reversed(empty))
                    continue
                vals = [s.contents for s in srcs]
                key = (fn._value_, dname, *vals)
            if memo is not None:
                out = memo.get(key)
                if out is not None:
                    metrics.memo_hits += 1
                    cell.contents = out
                    stack.pop()
                    continue
            metrics.memo_misses += 1
            if fn is TRANSFER:
                out = domain.transfer(stmt, state)
                metrics.transfer_evals += 1
            elif fn is JOIN:
                out = vals[0]
                for v in vals[1:]:
                    out = domain.join(out, v)
                metrics.join_evals += 1
            elif fn is WIDEN:
                out = domain.widen(vals[0], vals[1])
                metrics.widen_evals += 1
            else:
                raise EngineError(f"cannot apply {fn}")
            if memo is not None:
                memo[key] = out
            cell.contents = out
            stack.pop()
        return root.contents

    def _unroll(self, fix_comp: Computation) -> None:
        """Extend the loop of ``fix_comp`` by one abstract iteration with
        :func:`daig.graph.unroll`.  Under ``debug``, the cells it copied
        must be exactly those both downstream of the first iterate and
        upstream of the final one."""
        self.metrics.unrollings += 1
        daig = self.daig
        between = unroll(daig, fix_comp)
        if self.debug:
            first, final = fix_comp.srcs
            want = daig.forward_set(first) & daig.backward_set(final)
            if between != want:
                raise PreservationError(
                    f"unrolling region of {fix_comp.dest!r} is "
                    f"{sorted(between)}, wanted {sorted(want)}"
                )

    def query_loc(self, loc: Loc):
        """Abstract state at a program location.

        A location resolves to its cell at the final abstract iterate of
        every enclosing loop, outermost first: each loop's fixed point is
        demanded, and the counts of the first iterate it converged at, which
        that loop's final iteration carries, name the next inner fix cell
        and at last the location's cell, with the name table's ``LocN``.
        """
        if loc not in self.cfg.locs:
            raise EngineError(f"unknown location l{loc}")
        names = self.names
        ln, _state, fix = names[loc]
        enc = names.loops.enclosing[loc]
        refs = self.daig.refs
        if not enc:  # an outermost head's fixed-point cell is its LocN too
            value = self._demand(refs[ln])
        else:
            cell = refs[names[enc[0]][0]]
            value = self._demand(cell)
            for h in enc[1:] + ((loc,) if fix is not None else ()):
                cell = refs[Iter(names[h][0], cell.comp.srcs[0][2])]
                value = self._demand(cell)
            # At a head, the value is the fixed point from the final demand.
            if fix is None:
                value = refs[Iter(ln, cell.comp.srcs[0][2])].contents
                if value is None:
                    raise EngineError(f"final iterate of l{loc} was not computed")
        self._after_public_op()
        return value

    # -- edits ----------------------------------------------------------------

    def write_cell(self, name: Name, value) -> None:
        """Edit one cell.

        Writing a statement cell relabels the corresponding CFG edge, on the
        same path as a ``RelabelEdge`` program edit (see :meth:`splice`), so
        writing the statement the cell already holds changes nothing.
        Writing a state cell dirties everything downstream, then commits:
        ``None`` empties the cell (it must have an incoming computation), and
        a value requires the cell's type to match.  Dirtying across a fix
        edge rolls it back to the loop's first iterates before continuing
        from iterate one.
        """
        cell = self.daig.cell(name)
        if value is not None and cell.ty is STMT:
            if not is_stmt(value):
                raise EngineError(f"cell {name!r} holds statements")
            self._check_no_calls((value,))
            src, dst = stmt_cell_locs(name)
            try:
                new_cfg, delta = relabel(self.cfg, Edge(src, cell.contents, dst), value)
            except EditError as exc:
                raise EngineError(f"cannot write {name!r}: {exc}") from None
            if new_cfg is not self.cfg:
                self.splice(new_cfg, delta, derive_names(self.names, new_cfg, delta))
            return
        if value is None:
            if cell.comp is None:
                raise EngineError(f"cannot empty source cell {name!r}")
        elif is_stmt(value):
            raise EngineError(f"cell {name!r} holds abstract states")
        self._dirty(name, include_self=value is None)
        if value is not None:
            cell.contents = value
            if name == self.daig.entry_name:
                self.daig.entry_state = value
        self._after_public_op()

    def _check_no_calls(self, stmts) -> None:
        if self.call_handler is None:
            for s in stmts:
                if isinstance(s, Call):
                    raise EngineError(
                        f"cannot insert call statement {stmt_text(s)!r}: this engine "
                        "has no interprocedural handler (analyze calls with DaigForest)"
                    )

    def _dirty(self, start: Name, include_self: bool, stop: Optional[Name] = None) -> None:
        """Empty the filled cells downstream of ``start`` (and ``start``
        itself if ``include_self``), rolling each fix edge whose final
        iterate this reaches back to the loop's first iterates; the cell
        ``stop`` is neither emptied nor passed."""
        # The consumer sets are visited in the order of their names' hashes,
        # the same in every process; what this empties is a closure, the same
        # in any order.
        daig = self.daig
        refs = daig.refs
        index = daig.consumer_index
        work: list[Name] = [start] if include_self else list(index.get(start, ()))
        dirtied = 0
        while work:
            n = work.pop()
            cell = refs[n]
            if cell.contents is None or n == stop:
                continue
            cell.contents = None
            dirtied += 1
            users = index.get(n)
            if not users:
                continue
            work.extend(users)
            # ``n`` is a loop's final iterate if a fix computation reads it second.
            for fix in users:
                comp = refs[fix].comp
                if comp.fn is FIX and comp.srcs[1] == n:
                    head = fix_head(fix)
                    if n.count_of(head) > 1:
                        final1 = n.with_count(head, 1)
                        daig.set_comp(Computation(fix, FIX, (n.with_count(head, 0), final1)))
                        work.append(final1)
                    break
        self.metrics.cells_dirtied += dirtied

    def apply_program_edit(self, edit: ProgramEdit) -> EditDelta:
        """Apply a source-level edit: relabels rewrite statement cells,
        insertions splice in fresh structure, and every filled cell whose
        inputs changed is brought up to date by :meth:`splice`.  Without a
        call handler an edit that inserts a call is rejected before any
        state changes."""
        self._check_no_calls(inserted_stmts(edit))
        new_cfg, delta = apply_edit(self.cfg, edit, validate=False)
        if new_cfg is not self.cfg:
            self.splice(new_cfg, delta, derive_names(self.names, new_cfg, delta))
        return delta

    def splice(self, new_cfg: Cfg, delta: EditDelta, names: LocNames) -> None:
        """Bring the graph in step with ``new_cfg``, which differs from the
        current program by ``delta`` and has the name table ``names`` that
        :func:`derive_names` made: adopt that table as it is, re-derive the
        flow into every touched location with ``dest_structures``, adopt the
        cells the graph lacks, write the changed statements, and bring the
        filled cells that read a changed statement or computation up to
        date.  Every computation goes in through ``set_comp``.  One derived
        table may be spliced into every engine analyzing the edited
        procedure.

        With the memo on, :meth:`_propagate` recomputes those cells at once
        and goes on only where a value changed.  With it off, they are
        emptied with all they reach instead, and recomputed when demanded."""
        made: dict[Name, RefCell] = {}
        dest_structures(new_cfg, names, sorted(delta.touched_dsts() | set(delta.added_locs)), made)
        daig = self.daig
        refs = daig.refs
        stmts: list[Name] = []  # statement cells whose statement changed
        seeds: list[Name] = []  # state cells whose computation was replaced
        for name, cell in made.items():
            comp = cell.comp
            cur = refs.get(name)
            if cur is None:
                cell.comp = None
                refs[name] = cell
                if comp is not None:
                    daig.set_comp(comp)
            elif cell.ty is STMT:
                if cur.contents != cell.contents:
                    cur.contents = cell.contents
                    stmts.append(name)
            elif comp is None or cur.comp == comp:
                continue
            elif cur.comp is None:
                daig.set_comp(comp)
            elif comp.fn is not FIX:  # any existing unrolling depth is acceptable
                daig.set_comp(comp)
                seeds.append(name)
        self.cfg = new_cfg
        self.names = names
        if stmts:
            index = daig.consumer_index
            seeds += [u for name in stmts for u in index.get(name, ())]
        if self.enable_memo:
            self._propagate(seeds)
        else:
            for name in seeds:
                self._dirty(name, include_self=True)
        self._after_public_op()

    def _propagate(self, seeds: list[Name]) -> None:
        """Recompute the filled cells among the state cells ``seeds`` and
        downstream of them, going on only from a cell whose value changed
        (``domain.equal``); empty cells stay empty.

        A cell outside every loop is recomputed in place, a memo lookup in
        the common case; so are an outermost loop's first iterate and its
        pre-join cells, which read only cells outside the loop.  Any other
        cell inside a loop empties what it reaches inside its outermost
        loop, rolling that loop back (:meth:`_dirty` stopped at the loop's
        fix cell), and the fix cell is demanded afresh from the first
        iterate once the work upstream of it is done; what reads it is
        visited only if the fixed point changed.  A transfer is taken at
        once, from a stack; joins, fix cells and the seeds wait in a heap
        keyed by the reverse-postorder number of their location
        (``LoopInfo.rpo_num``), so each is taken after everything upstream
        of it.  Each recomputation demands with ``calls`` false, so no call
        handler runs here: where that demand stops at a call, the cell gets
        its old value back and is emptied with all it reaches instead."""
        daig = self.daig
        refs = daig.refs
        index = daig.consumer_index
        loops = self.loops
        rpo_num, enclosing = loops.rpo_num, loops.enclosing
        equal = self.domain.equal
        demand, dirty = self._demand, self._dirty
        heap: list[tuple[int, int, Name]] = []  # (location number, rank there, cell)
        queued: set[Name] = set()
        stack: list[Name] = []

        def visit(n: Name, defer: bool) -> None:
            loc, in_loop = state_loc(n)
            if in_loop:
                if refs[n].contents is None:
                    return
                outer = enclosing[loc][0] if enclosing[loc] else loc
                fix = LocN(outer)
                dirty(n, include_self=True, stop=fix)
                n, loc = fix, outer
                defer = True
            if not defer and refs[n].comp.fn is TRANSFER:
                stack.append(n)
            elif n not in queued:
                queued.add(n)
                # At one location: pre-join cells, then the state, then the fix cell.
                rank = 0 if isinstance(n, Prod) else 2 if refs[n].comp.fn is FIX else 1
                heappush(heap, (rpo_num[loc], rank, n))

        for n in seeds:
            visit(n, True)
        while True:
            if stack:
                n = stack.pop()
            elif heap:
                n = heappop(heap)[2]
                queued.discard(n)
            else:
                break
            cell = refs[n]
            old = cell.contents
            if old is None:
                continue
            cell.contents = None
            new = demand(cell, False)
            if new is None:  # recomputing it would run a call: empty it instead
                cell.contents = old
                dirty(n, include_self=True)
                continue
            if equal(new, old):
                cell.contents = old
                continue
            # Rolling a loop back may change what reads a first iterate.
            for u in tuple(index.get(n, ())):
                visit(u, False)


def derive_names(names: LocNames, new_cfg: Cfg, delta: EditDelta) -> LocNames:
    """The name table of ``new_cfg``, which differs from the program of
    ``names`` by ``delta``: its loop structure, with the join indices of
    ``names`` carried across, and every entry of ``names`` (see
    ``LocNames``).  The one place an edit's name table is derived."""
    loops = analyze_loops(new_cfg)
    ji = stable_join_indices(names.loops.join_indices, delta, loops)
    out = LocNames(replace(loops, join_indices=ji))
    out.update(names)  # no entry changes (see ``LocNames``)
    return out
