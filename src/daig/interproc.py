"""Demand-driven interprocedural analysis over a forest of per-context engines.

Each (procedure, context) pair gets its own analysis graph, built lazily
when first demanded.  A call statement binds its argument into the callee's
entry state, demands the callee's exit in the context chosen by the
sensitivity policy, and projects ``ret`` back into the caller.

A context shared by several call sites keeps one entry contribution per
site and analyzes under their join; refreshing a contribution (after an
edit upstream of a call) rewrites the entry cell and dirties dependents,
so re-querying everything reproduces a from-scratch forest exactly.
"""

from __future__ import annotations

from typing import Optional
from weakref import ref

from .engine import Engine, EngineError, Metrics, derive_names
from .graph import Computation, LocNames, Name, stmt_cell_locs
from .lang.cfg import Loc, Program
from .lang.edits import ProgramEdit, apply_edit, inserted_stmts
from .lang.syntax import Call


CallSite = tuple[str, Loc]


class Context(tuple):
    """Call-string context: the most recent call sites, bounded by the
    policy; a tuple of its sites, so it hashes and orders as they do."""

    __slots__ = ()

    def __new__(cls, sites: tuple[CallSite, ...] = ()) -> "Context":
        return tuple.__new__(cls, sites)

    def __repr__(self):
        if not self:
            return "@[]"
        return "@[" + ",".join(f"{p}:l{l}" for p, l in self) + "]"


ENTRY_CONTEXT = Context()

# Pseudo call site marking a direct user query of a procedure, which
# contributes the unknown-inputs entry state.
DIRECT: CallSite = ("", -1)


def callee_context(policy_k: int, caller_ctx: Context, callsite: CallSite) -> Context:
    """Suffix call-string policy: keep the last ``policy_k`` sites."""
    if policy_k <= 0:
        return ENTRY_CONTEXT
    return Context((*caller_ctx, callsite)[-policy_k:])


class DaigForest:
    """All live engines for one program, keyed by (procedure, context)."""

    def __init__(
        self,
        program: Program,
        domain,
        *,
        policy_k: int = 0,
        mode: str = "eq",
        debug: bool = False,
    ):
        if policy_k not in (0, 1, 2):
            raise ValueError("context policy must be 0, 1, or 2 call sites")
        program.call_order()  # rejects recursion up front
        self.program = program
        self.domain = domain
        self.policy_k = policy_k
        self.mode = mode
        self.debug = debug
        self.engines: dict[tuple[str, Context], Engine] = {}
        # proc -> the name table every live engine of proc holds
        self.names: dict[str, LocNames] = {}
        # (callee, callee ctx) -> return-site cells computed from its exit
        self.call_deps: dict[tuple[str, Context], set[tuple[str, Context, Name]]] = {}
        # (callee, callee ctx) -> entry-state contribution per call site
        self.entry_contribs: dict[tuple[str, Context], dict[CallSite, object]] = {}
        # Domain operations are pure, so memo entries stay valid across edits
        # and may be shared by all engines; call transfers are not memoized,
        # which is what keeps the sharing sound.
        self._memo: dict = {}

    # -- engines -----------------------------------------------------------

    def engine(self, proc: str, ctx: Context = ENTRY_CONTEXT) -> Engine:
        """The engine for (proc, ctx); direct demand implies unknown inputs."""
        key = (proc, ctx)
        eng = self.engines.get(key)
        if eng is None:
            self._register_entry(proc, ctx, DIRECT, self.domain.init())
            eng = self.engines[key]
        return eng

    def _new_engine(self, proc: str, ctx: Context, entry) -> Engine:
        eng = Engine(
            self.program.proc(proc).cfg,
            self.domain,
            loops=self.names.get(proc),
            mode=self.mode,
            debug=self.debug,
            memo=self._memo,
            call_handler=self._call_handler(proc, ctx),
            entry_state=entry,
        )
        self.names[proc] = eng.names
        return eng

    def _register_entry(self, proc: str, ctx: Context, site: CallSite, entry) -> None:
        key = (proc, ctx)
        contribs = self.entry_contribs.setdefault(key, {})
        old = contribs.get(site)
        if old is not None and self.domain.equal(old, entry):
            return
        contribs[site] = entry
        merged = None
        for _site, state in sorted(contribs.items(), key=lambda kv: kv[0]):
            merged = state if merged is None else self.domain.join(merged, state)
        eng = self.engines.get(key)
        if eng is None:
            self.engines[key] = self._new_engine(proc, ctx, merged)
            return
        if self.domain.equal(merged, eng.daig.entry_state):
            return
        eng.write_cell(eng.daig.entry_name, merged)
        self._dirty_callers(proc, ctx)

    def _call_handler(self, caller: str, caller_ctx: Context):
        # The forest holds its engines and each engine its handler, so the
        # handler holds the forest weakly: a strong reference would make a
        # cycle that only the cyclic collector frees.
        forest = ref(self)

        def handle(stmt: Call, pre_state, comp: Computation):
            owner = forest()
            if owner is None:
                raise EngineError("the forest this engine belongs to has been freed")
            return owner._call(caller, caller_ctx, stmt, pre_state, comp)

        return handle

    def _call(self, caller: str, caller_ctx: Context, stmt: Call, pre_state, comp: Computation):
        if self.domain.is_bot(pre_state):
            return pre_state
        src_loc, _dst = stmt_cell_locs(comp.srcs[0])
        site: CallSite = (caller, src_loc)
        callee = self.program.proc(stmt.callee)
        arg = (
            self.domain.eval_arg(stmt.actual, pre_state)
            if stmt.actual is not None
            else None
        )
        entry = self.domain.entry_state_for_call(callee.param, arg)
        ctx = callee_context(self.policy_k, caller_ctx, site)
        self.call_deps.setdefault((stmt.callee, ctx), set()).add(
            (caller, caller_ctx, comp.dest)
        )
        self._register_entry(stmt.callee, ctx, site, entry)
        exit_state = self.engines[(stmt.callee, ctx)].query_loc(callee.cfg.exit)
        return self.domain.return_state(pre_state, stmt.lhs, exit_state)

    # -- queries -----------------------------------------------------------

    def query_loc(self, proc: str, loc: Loc, ctx: Context = ENTRY_CONTEXT):
        """Abstract state at a location of (proc, ctx), demanded lazily.

        Directly querying a procedure that no call has instantiated yet
        analyzes it under unknown inputs; querying a live context inspects
        it as-is.
        """
        if (proc, ctx) not in self.engines:
            self._register_entry(proc, ctx, DIRECT, self.domain.init())
        return self.engines[(proc, ctx)].query_loc(loc)

    # -- edits ---------------------------------------------------------------

    def apply_program_edit(self, proc: str, edit: ProgramEdit) -> None:
        """Edit a procedure in every live context, then transitively dirty
        every recorded return-site cell in callers.

        The procedure's name table is derived once (its loop analysis also
        rejects an irreducible result) and spliced into each live context's
        graph; contexts made later are built on it.
        An edit that inserts a call is checked by ``Program.call_order``
        on the edited program, as the parser checks a program: a call to
        an unknown procedure, with the wrong arity, or closing a recursive
        call cycle is rejected before any state changes.
        """
        old_cfg = self.program.proc(proc).cfg
        names = self.names.get(proc)  # None until proc has a live context
        new_cfg, delta = apply_edit(old_cfg, edit, validate=names is None)
        if any(isinstance(s, Call) for s in inserted_stmts(edit)):
            edited = Program(dict(self.program.procedures), self.program.main)
            edited.replace_cfg(proc, new_cfg)
            edited.call_order()
        if new_cfg is not old_cfg and names is not None:
            names = self.names[proc] = derive_names(names, new_cfg, delta)
            for (p, _ctx), eng in sorted(self.engines.items(), key=lambda kv: kv[0]):
                if p == proc:
                    eng.splice(new_cfg, delta, names)
        self.program.replace_cfg(proc, new_cfg)
        self._dirty_callers(proc, None)

    def _dirty_callers(self, proc: str, ctx: Optional[Context]) -> None:
        """Empty every recorded return-site cell depending on (proc, ctx),
        transitively through the callers' own callers; ``ctx=None`` covers
        every live context of proc."""
        if ctx is None:
            work = [(proc, c) for (p, c) in sorted(self.engines) if p == proc]
        else:
            work = [(proc, ctx)]
        seen = set(work)
        while work:
            key = work.pop()
            for caller, caller_ctx, cell in sorted(self.call_deps.get(key, ())):
                eng = self.engines.get((caller, caller_ctx))
                if eng is not None and cell in eng.daig.refs:
                    eng.write_cell(cell, None)
                up = (caller, caller_ctx)
                if up not in seen:
                    seen.add(up)
                    work.append(up)

    # -- instrumentation -------------------------------------------------------

    def metrics(self) -> Metrics:
        total = Metrics()
        for _key, eng in sorted(self.engines.items(), key=lambda kv: kv[0]):
            total.add(eng.metrics)
        return total

    def gauges(self) -> dict[str, int]:
        """Current sizes: cells and empty cells summed over live engines,
        and the entries of the memo they share."""
        cells = empty = 0
        for eng in self.engines.values():
            refs = eng.daig.refs
            cells += len(refs)
            empty += sum(1 for c in refs.values() if c.contents is None)
        return {"cells": cells, "empty_cells": empty, "memo_entries": len(self._memo)}

    def live_keys(self) -> list[tuple[str, Context]]:
        return sorted(self.engines)
