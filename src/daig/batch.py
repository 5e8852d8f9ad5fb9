"""Whole-program abstract interpretation by structured chaotic iteration.

The ground truth for from-scratch consistency: joins fold in join-index
order, loop heads widen every iteration, and convergence uses the same
check as the demand engine, so results agree bit-for-bit with demanded
queries.  Inner loops re-converge once per enclosing iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .lang.cfg import Cfg, Loc
from .lang.loops import LoopInfo
from .lang.syntax import Stmt

EpisodeKey = tuple[Loc, tuple[tuple[Loc, int], ...]]


@dataclass
class BatchResult:
    invariants: dict[Loc, object]
    # Widening applications per loop convergence, keyed by the loop head and
    # the enclosing-loop iteration indices during which it converged.
    episodes: dict[EpisodeKey, int] = field(default_factory=dict)
    transfer_evals: int = 0
    join_evals: int = 0
    widen_evals: int = 0


class _Run:
    """One batch analysis in progress: the procedure, the domain, and the
    states computed so far.  Sweeps and convergences are methods rather
    than nested closures that call each other, which would form a
    reference cycle keeping every computed state alive until the cyclic
    garbage collector ran."""

    __slots__ = ("entry", "loops", "domain", "eq", "res", "inv", "cur_iter", "region_of")

    def __init__(self, cfg: Cfg, loops: LoopInfo, domain, mode: str):
        self.entry = cfg.entry
        self.loops = loops
        self.domain = domain
        self.eq = mode == "eq"
        self.res = BatchResult(invariants={})
        self.inv = self.res.invariants
        self.cur_iter: dict[Loc, object] = {}
        region_of: dict[Loc | None, list[Loc]] = {None: []}
        for h in loops.natural_loops:
            region_of[h] = []
        # Reverse postorder is topological: every forward edge goes from a
        # smaller number to a larger one.
        for l in sorted(cfg.locs, key=loops.rpo_num.__getitem__):
            enc = loops.enclosing[l]
            region_of[enc[-1] if enc else None].append(l)
        self.region_of = region_of

    def transfer(self, stmt: Stmt, state):
        self.res.transfer_evals += 1
        return self.domain.transfer(stmt, state)

    def read(self, src: Loc, dst: Loc):
        body = self.loops.natural_loops.get(src)
        if body is not None and (dst == src or dst in body):
            return self.cur_iter[src]  # the current abstract iterate
        return self.inv[src]  # a fixed point, or a state outside loops

    def combine(self, d: Loc):
        loops = self.loops
        indexed = loops.join_indices.get(d)
        if indexed is not None:
            join = self.domain.join
            vals = [self.transfer(e.stmt, self.read(e.src, d)) for e in indexed]
            out = vals[0]
            for v in vals[1:]:
                out = join(out, v)
            self.res.join_evals += 1
            return out
        (e,) = loops.fwd_in[d]
        return self.transfer(e.stmt, self.read(e.src, d))

    def sweep(self, region: list[Loc], ctx: dict[Loc, int]) -> None:
        natural, inv = self.loops.natural_loops, self.inv
        for d in region:
            if d == self.entry:
                continue
            if d in natural:
                self.converge(d, ctx)
            else:
                inv[d] = self.combine(d)

    def converge(self, h: Loc, ctx: dict[Loc, int]) -> None:
        domain, res = self.domain, self.res
        back = self.loops.back_edge_of(h)
        iter_val = self.combine(h)
        index = 0
        while True:
            self.cur_iter[h] = iter_val
            inner_ctx = dict(ctx)
            inner_ctx[h] = index
            self.sweep(self.region_of[h], inner_ctx)
            pre = self.transfer(back.stmt, self.read(back.src, h))
            nxt = domain.widen(iter_val, pre)
            res.widen_evals += 1
            if domain.equal(iter_val, nxt) if self.eq else domain.leq(nxt, iter_val):
                self.inv[h] = nxt
                res.episodes[(h, tuple(sorted(ctx.items())))] = index + 1
                return
            iter_val = nxt
            index += 1


def batch_analyze(
    cfg: Cfg, loops: LoopInfo, domain, mode: str = "eq", entry_state=None
) -> BatchResult:
    """Fixed-point invariants for every location of one procedure's CFG.

    Termination is guaranteed by widening at every loop-head iteration.
    Locations inside loops keep their state from the final abstract
    iteration, mirroring what demanded evaluation leaves in the cells at
    the iterate where the loop converged.
    """
    if mode not in ("eq", "leq"):
        raise ValueError(f"unknown convergence mode {mode!r}")
    run = _Run(cfg, loops, domain, mode)
    run.inv[cfg.entry] = entry_state if entry_state is not None else domain.init()
    run.sweep(run.region_of[None], {})
    return run.res
