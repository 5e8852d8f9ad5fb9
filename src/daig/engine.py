"""Demand-driven, incremental evaluation over reified analysis graphs.

Queries walk dependencies backwards, reusing filled cells and the
location-independent memo table; loop fixed points are computed by
demanded unrolling, which extends the graph one abstract iteration at a
time until two consecutive iterates agree.  With the memo on, an
insertion recomputes at once each state cell outside every loop whose
computation it replaced, and empties what reads such a cell only if its
value changed: O(touched) eager work at the edit.  Every other change (a
statement write, a cell inside a loop body) empties its dependents,
rolling fix edges back to their first iterates, and they are recomputed
when demanded again.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
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
from .lang.syntax import Call, Stmt, is_stmt, stmt_text
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
    one code that extends a loop by an iterate.  The graph's consumer and
    fix indexes are read only by dirtying, so a query-only engine never
    builds them; the first edit derives them in O(cells) once, and
    ``set_comp`` keeps them in step after that.  Under ``debug`` the fresh
    graph and every public operation are checked by ``assert_invariants``,
    which compares the graph with a from-scratch reference: a fresh graph
    whose live loops ``unroll`` takes to this graph's depths.  A pickled or
    snapshot engine starts without cached sources and links them again as
    it is queried, as do cells that unrolling or an edit gives a new
    computation.

    With the memo on, an insertion does O(touched) eager work outside
    loops (see :meth:`splice`): it recomputes the cells whose computation
    it replaced and empties what reads them only where a value changed,
    skipping exactly the recomputations that would have been memo hits.

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

    def _demand(self, root: RefCell):
        """The value of the cell ``root``, computed as :meth:`query` says.
        Unlike the public operations it checks no invariants, so an edit
        may demand cells before its graph is whole again."""
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
        """Edit one cell: dirty everything downstream, then commit.

        Writing ``None`` empties the cell (it must have an incoming
        computation); writing a value requires the cell's type to match.
        Writing a statement cell relabels the corresponding CFG edge, on the
        same path as a ``RelabelEdge`` program edit.  Dirtying across a fix
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
            # Rewriting the current statement changes no edge, but its
            # consumers are still re-demanded.
            self._dirty(name, include_self=False)
        else:
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

    def _dirty(self, start: Name, include_self: bool) -> None:
        # The consumer sets are visited in the order of their names' hashes,
        # the same in every process; what this empties is a closure, the same
        # in any order.
        daig = self.daig
        refs = daig.refs
        index = daig.consumer_index
        fix_by_final = daig.fix_by_final
        work: list[Name] = [start] if include_self else list(index.get(start, ()))
        dirtied = 0
        while work:
            n = work.pop()
            cell = refs[n]
            if cell.contents is None:
                continue
            cell.contents = None
            dirtied += 1
            users = index.get(n)
            if users:
                work.extend(users)
            fix_dest = fix_by_final.get(n)
            if fix_dest is not None:
                final = refs[fix_dest].comp.srcs[1]
                head = fix_head(fix_dest)
                assert isinstance(final, Iter)
                if final.count_of(head) > 1:
                    first1 = final.with_count(head, 0)
                    final1 = final.with_count(head, 1)
                    daig.set_comp(Computation(fix_dest, FIX, (first1, final1)))
                    work.append(final1)
        self.metrics.cells_dirtied += dirtied

    def apply_program_edit(self, edit: ProgramEdit) -> EditDelta:
        """Apply a source-level edit: relabels rewrite statement cells,
        insertions splice in fresh structure, and every cell whose inputs
        changed is dirtied so demand recomputes it.  Without a call handler
        an edit that inserts a call is rejected before any state changes."""
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
        cells the graph lacks, and dirty whatever reads a changed statement
        or computation.  Every computation goes in through ``set_comp``.
        One derived table may be spliced into every engine analyzing the
        edited procedure.

        A changed statement empties what reads it, and a replaced
        computation inside a loop body empties its cell and what reads it.
        With the memo on, a filled state cell outside every loop whose
        computation was replaced is instead recomputed once every new
        computation is in place (O(touched) eager work, a memo lookup in the
        common case), and what reads it is emptied only if its value
        changed; a changed cell keeps its new value.  That emptying also
        reaches any touched cell downstream, whose value was recomputed from
        stale sources.  An edit that adds an edge carrying a call recomputes
        nothing here, so no call handler runs before a forest has replaced
        the procedure's CFG."""
        made: dict[Name, RefCell] = {}
        dest_structures(new_cfg, names, sorted(delta.touched_dsts() | set(delta.added_locs)), made)
        daig = self.daig
        refs = daig.refs
        content_writes: list[tuple[Name, Stmt]] = []
        dirties: list[Name] = []
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
                    content_writes.append((name, cell.contents))
            elif comp is None or cur.comp == comp:
                continue
            elif cur.comp is None:
                daig.set_comp(comp)
            elif comp.fn is not FIX:  # any existing unrolling depth is acceptable
                daig.set_comp(comp)
                dirties.append(name)
        self.cfg = new_cfg
        self.names = names
        for name, stmt in content_writes:
            self._dirty(name, include_self=False)
            refs[name].contents = stmt
        cut_off = self.enable_memo and not any(isinstance(e.stmt, Call) for e in delta.added_edges)
        eager: list[Name] = []
        for dest in dirties:
            if cut_off and _outside_loops(dest):
                eager.append(dest)
            else:
                self._dirty(dest, include_self=True)
        changed: list[Name] = []
        for dest in eager:
            cell = refs[dest]
            old = cell.contents
            if old is None:  # empty before the edit, or emptied just above
                continue
            cell.contents = None
            if self.domain.equal(self._demand(cell), old):
                cell.contents = old
            else:
                changed.append(dest)
        for dest in changed:
            self._dirty(dest, include_self=False)
        self._after_public_op()


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


def _outside_loops(name: Name) -> bool:
    """Whether the state cell ``name`` lies outside every loop: its own
    name, or a pre-join cell's location part, carries no iteration count."""
    return isinstance(name, LocN) or (isinstance(name, Prod) and isinstance(name.right, LocN))
