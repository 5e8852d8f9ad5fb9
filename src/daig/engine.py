"""Demand-driven, incremental evaluation over reified analysis graphs.

Queries walk dependencies backwards, reusing filled cells and the
location-independent memo table; loop fixed points are computed by
demanded unrolling, which extends the graph one abstract iteration at a
time until two consecutive iterates agree.  Edits empty dependents
eagerly (rolling fix edges back to their first iterates) and recompute
nothing until demanded again.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from .graph import (
    CellType,
    Computation,
    FnSymbol,
    Iter,
    LocN,
    Name,
    check_ai_consistency,
    check_cfg_consistency,
    check_wf,
    dest_structures,
    incr_comp,
    incr_name,
    init_daig,
    name_key,
    stmt_cell_locs,
)
from .lang.cfg import Cfg, Edge, Loc
from .lang.edits import EditDelta, EditError, ProgramEdit, apply_edit, relabel, stable_join_indices
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


def _fix_head(fix_dest: Name) -> Loc:
    if isinstance(fix_dest, LocN):
        return fix_dest.loc
    if isinstance(fix_dest, Iter):
        return fix_dest.base.loc
    raise EngineError(f"not a fix cell name: {fix_dest!r}")


class Engine:
    """Single-procedure analysis session: one graph, one memo.

    The memo maps ``(fn, domain name, statement, state)`` for transfers and
    ``(fn, domain name, *states)`` for joins and widens to the result;
    states and statements are immutable with canonical equality, so the
    values themselves are the key.

    Mutating operations (query, write_cell, apply_program_edit) must be
    externally serialized; ``snapshot`` produces an independent copy.
    """

    def __init__(
        self,
        cfg: Cfg,
        domain,
        *,
        loops: Optional[LoopInfo] = None,
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
        self.loops = loops if loops is not None else analyze_loops(cfg)
        self.mode = mode
        self.memo = memo if memo is not None else {}
        self.enable_memo = enable_memo
        self.debug = debug
        self.call_handler = call_handler
        self.entry_state = entry_state if entry_state is not None else domain.init()
        self.metrics = Metrics()
        self.daig = init_daig(cfg, self.loops, domain, self.entry_state)
        self._fix_by_final: dict[Name, Name] = {}
        for comp in self.daig.comps.values():
            if comp.fn is FnSymbol.FIX:
                self._fix_by_final[comp.srcs[1]] = comp.dest

    # -- plumbing -------------------------------------------------------------

    def snapshot(self) -> "Engine":
        out = Engine.__new__(Engine)
        out.cfg = self.cfg
        out.domain = self.domain
        out.loops = self.loops
        out.mode = self.mode
        out.memo = self.memo
        out.enable_memo = self.enable_memo
        out.debug = self.debug
        out.call_handler = self.call_handler
        out.entry_state = self.entry_state
        out.metrics = Metrics(**self.metrics.snapshot())
        out.daig = self.daig.copy()
        out._fix_by_final = dict(self._fix_by_final)
        return out

    def _set_comp(self, comp: Computation) -> None:
        old = self.daig.comps.get(comp.dest)
        if old is not None and old.fn is FnSymbol.FIX:
            self._fix_by_final.pop(old.srcs[1], None)
        self.daig.set_comp(comp)
        if comp.fn is FnSymbol.FIX:
            self._fix_by_final[comp.srcs[1]] = comp.dest

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

        Filled cells answer immediately; an empty cell demands its
        computation's sources in order, then answers from the memo table or
        by applying the function.  Fix cells converge by demanded unrolling.
        """
        self.daig.cell(name)
        refs = self.daig.refs
        stack = [name]
        budget = 10_000_000 + 100 * len(refs)
        while stack:
            budget -= 1
            if budget < 0:
                raise EngineError("query did not stabilize (runaway demand loop)")
            n = stack[-1]
            cell = refs[n]
            if cell.contents is not None:
                stack.pop()
                continue
            comp = self.daig.comps.get(n)
            if comp is None:
                raise EngineError(f"empty cell {n!r} has no computation")
            if comp.fn is FnSymbol.FIX:
                first, final = comp.srcs
                if refs[first].contents is None:
                    stack.append(first)
                    continue
                if refs[final].contents is None:
                    stack.append(final)
                    continue
                prev, nxt = refs[first].contents, refs[final].contents
                if self._converged(prev, nxt):
                    cell.contents = nxt
                    head = _fix_head(n)
                    assert isinstance(first, Iter)
                    self.metrics.loop_episodes[n] = first.count_of(head)
                    stack.pop()
                else:
                    self._unroll(comp)
                continue
            missing = [s for s in comp.srcs if refs[s].contents is None]
            if missing:
                stack.extend(reversed(missing))
                continue
            vals = tuple(refs[s].contents for s in comp.srcs)
            if comp.fn is FnSymbol.TRANSFER and isinstance(vals[0], Call):
                if self.call_handler is None:
                    raise ContractViolation(
                        f"call statement {stmt_text(vals[0])!r} reached an "
                        "engine without an interprocedural handler"
                    )
                out = self.call_handler(vals[0], vals[1], comp)
                # A shared callee entry may have widened during the call,
                # dirtying this cell's inputs; recompute from fresh ones.
                if any(refs[s].contents is None for s in comp.srcs):
                    continue
                cell.contents = out
                stack.pop()
                continue
            cell.contents = self._apply(comp, vals)
            stack.pop()
        result = refs[name].contents
        self._after_public_op()
        return result

    def _apply(self, comp: Computation, vals: tuple):
        # Call transfers never come through here: their results depend on the
        # callee's current code, so the query loop dispatches them to the
        # interprocedural handler without memoization.
        domain = self.domain
        if comp.fn is FnSymbol.TRANSFER and isinstance(vals[0], Call):
            raise ContractViolation("call transfer cannot be applied locally")
        key = (comp.fn, domain.name) + vals
        if self.enable_memo:
            hit = self.memo.get(key)
            if hit is not None:
                self.metrics.memo_hits += 1
                return hit
        self.metrics.memo_misses += 1
        if comp.fn is FnSymbol.TRANSFER:
            out = domain.transfer(vals[0], vals[1])
            self.metrics.transfer_evals += 1
        elif comp.fn is FnSymbol.JOIN:
            out = vals[0]
            for v in vals[1:]:
                out = domain.join(out, v)
            self.metrics.join_evals += 1
        elif comp.fn is FnSymbol.WIDEN:
            out = domain.widen(vals[0], vals[1])
            self.metrics.widen_evals += 1
        else:
            raise EngineError(f"cannot apply {comp.fn}")
        if self.enable_memo:
            self.memo[key] = out
        return out

    def _unroll(self, fix_comp: Computation) -> None:
        """Extend the loop of ``fix_comp`` by one abstract iteration.

        Cells strictly between the two iterate sources (plus the final
        iterate itself) are copied with their iteration count bumped, and
        the fix edge slides forward; names already present from an earlier
        roll-back are reused.  Statement cells carry no iteration counts,
        so program syntax is never duplicated.
        """
        daig = self.daig
        first, final = fix_comp.srcs
        head = _fix_head(fix_comp.dest)
        self.metrics.unrollings += 1
        fset = daig.forward_set(first)
        bset = daig.backward_set(final)
        region = sorted((fset & bset) | {final}, key=name_key)
        for n in region:
            nn = incr_name(n, head, self.loops)
            if nn not in daig.refs:
                daig.add_cell(nn, CellType.STATE, None)
        for n in region:
            comp = daig.comps.get(n)
            if comp is None:
                raise EngineError(f"loop region cell {n!r} has no computation")
            copied = incr_comp(comp, head, self.loops)
            if copied.fn is FnSymbol.FIX:
                # A nested loop starts a fresh convergence in the new outer
                # iteration: its fix edge is copied at depth one, not at the
                # old instance's final depth.
                inner = _fix_head(copied.dest)
                assert isinstance(copied.srcs[1], Iter)
                copied = Computation(
                    copied.dest,
                    FnSymbol.FIX,
                    (
                        copied.srcs[1].with_count(inner, 0),
                        copied.srcs[1].with_count(inner, 1),
                    ),
                )
            self._set_comp(copied)
        self._set_comp(
            Computation(
                fix_comp.dest,
                FnSymbol.FIX,
                (final, incr_name(final, head, self.loops)),
            )
        )

    def query_loc(self, loc: Loc):
        """Abstract state at a program location.

        Locations inside loops resolve to their cell at the final abstract
        iterate of every enclosing loop, after demanding each enclosing
        fixed point outermost-first.
        """
        if loc not in self.cfg.locs:
            raise EngineError(f"unknown location l{loc}")
        loops = self.loops
        heads = list(loops.enclosing_heads(loc))
        if loc in loops.natural_loops:
            heads.append(loc)
        counts: dict[Loc, int] = {}
        value = None
        for h in heads:
            fix_name = self._versioned_fix_name(h, counts)
            value = self.query(fix_name)
            comp = self.daig.comps[fix_name]
            assert isinstance(comp.srcs[0], Iter)
            counts[h] = comp.srcs[0].count_of(h)
        if loc in loops.natural_loops:
            pass  # the fixed-point value from the final query above
        elif heads:
            enc = loops.enclosing_heads(loc)
            name = Iter(LocN(loc), tuple((h, counts[h]) for h in enc))
            value = self.daig.value(name)
            if value is None:
                raise EngineError(f"final iterate of l{loc} was not computed")
        else:
            value = self.query(LocN(loc))
        return value

    def _versioned_fix_name(self, head: Loc, counts: dict[Loc, int]) -> Name:
        enc = self.loops.enclosing_heads(head)
        if not enc:
            return LocN(head)
        return Iter(LocN(head), tuple((h, counts[h]) for h in enc))

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
        if value is not None and cell.ty is CellType.STMT:
            if not is_stmt(value):
                raise EngineError(f"cell {name!r} holds statements")
            src, dst = stmt_cell_locs(name)
            try:
                new_cfg, delta = relabel(self.cfg, Edge(src, cell.contents, dst), value)
            except EditError as exc:
                raise EngineError(f"cannot write {name!r}: {exc}") from None
            if new_cfg is self.cfg:
                # Rewriting the current statement changes no edge, but its
                # consumers are still re-demanded.
                self._dirty(name, include_self=False)
            else:
                self._splice(new_cfg, delta)
        else:
            if value is None:
                if name not in self.daig.comps:
                    raise EngineError(f"cannot empty source cell {name!r}")
            elif is_stmt(value):
                raise EngineError(f"cell {name!r} holds abstract states")
            self._dirty(name, include_self=value is None)
            if value is not None:
                cell.contents = value
        self._after_public_op()

    def _dirty(self, start: Name, include_self: bool) -> None:
        refs = self.daig.refs
        work: list[Name] = []
        if include_self:
            work.append(start)
        else:
            work.extend(self.daig.consumers(start))
        while work:
            n = work.pop()
            cell = refs[n]
            if cell.contents is None:
                continue
            cell.contents = None
            self.metrics.cells_dirtied += 1
            work.extend(self.daig.consumers(n))
            fix_dest = self._fix_by_final.get(n)
            if fix_dest is not None:
                comp = self.daig.comps[fix_dest]
                head = _fix_head(fix_dest)
                final = comp.srcs[1]
                assert isinstance(final, Iter)
                if final.count_of(head) > 1:
                    first1 = final.with_count(head, 0)
                    final1 = final.with_count(head, 1)
                    self._set_comp(Computation(fix_dest, FnSymbol.FIX, (first1, final1)))
                    work.append(final1)

    def apply_program_edit(self, edit: ProgramEdit) -> EditDelta:
        """Apply a source-level edit: relabels rewrite statement cells,
        insertions splice in fresh structure, and every cell whose inputs
        changed is dirtied so demand recomputes it."""
        new_cfg, delta = apply_edit(self.cfg, edit, validate=False)
        if new_cfg is self.cfg:
            return delta
        self._splice(new_cfg, delta)
        self._after_public_op()
        return delta

    def _splice(self, new_cfg: Cfg, delta: EditDelta) -> None:
        """Bring the graph in step with ``new_cfg``, which differs from the
        current program by ``delta``: re-derive loops, keep join indices
        stable, rebuild the flow into every touched location, and dirty
        whatever reads a changed statement or computation."""
        pure_loops = analyze_loops(new_cfg)
        ji = stable_join_indices(self.loops.join_indices, delta, pure_loops)
        new_loops = replace(pure_loops, join_indices=ji)
        targets = sorted(delta.touched_dsts() | set(delta.added_locs))
        daig = self.daig
        content_writes: list[tuple[Name, Stmt]] = []
        dirties: list[Name] = []
        for d_loc in targets:
            cells, comps = dest_structures(new_cfg, new_loops, d_loc)
            for name, ty, contents in cells:
                cur = daig.refs.get(name)
                if cur is None:
                    daig.add_cell(name, ty, contents if ty is CellType.STMT else None)
                elif ty is CellType.STMT and cur.contents != contents:
                    content_writes.append((name, contents))
            for comp in comps:
                cur = daig.comps.get(comp.dest)
                if cur is None:
                    self._set_comp(comp)
                elif comp.fn is FnSymbol.FIX:
                    continue  # any existing unrolling depth is acceptable
                elif cur != comp:
                    self._set_comp(comp)
                    dirties.append(comp.dest)
        self.cfg = new_cfg
        self.loops = new_loops
        for name, stmt in content_writes:
            self._dirty(name, include_self=False)
            daig.refs[name].contents = stmt
        for dest in dirties:
            self._dirty(dest, include_self=True)

    def rebuild(self, clear_memo: bool = True) -> None:
        """Forget all analysis state, keeping the program (full dirtying)."""
        filled = sum(
            1
            for c in self.daig.refs.values()
            if c.ty is CellType.STATE and c.contents is not None
        )
        self.metrics.cells_dirtied += max(0, filled - 1)  # entry stays
        self.daig = init_daig(self.cfg, self.loops, self.domain, self.entry_state)
        self._fix_by_final = {}
        for comp in self.daig.comps.values():
            if comp.fn is FnSymbol.FIX:
                self._fix_by_final[comp.srcs[1]] = comp.dest
        if clear_memo:
            self.memo.clear()
        self._after_public_op()
