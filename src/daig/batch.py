"""Whole-program abstract interpretation by structured chaotic iteration.

The ground truth for from-scratch consistency: joins fold in join-index
order, loop heads widen every iteration, and convergence uses the same
check as the demand engine, so results agree bit-for-bit with demanded
queries.  Inner loops re-converge once per enclosing iteration.
"""

from __future__ import annotations

import heapq
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


def _topo_order(cfg: Cfg, loops: LoopInfo) -> list[Loc]:
    indeg = {l: 0 for l in cfg.locs}
    for e in loops.fwd_edges:
        indeg[e.dst] += 1
    ready = [l for l, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    succs: dict[Loc, list[Loc]] = {l: [] for l in cfg.locs}
    for e in loops.fwd_edges:
        succs[e.src].append(e.dst)
    order = []
    while ready:
        n = heapq.heappop(ready)
        order.append(n)
        for m in succs[n]:
            indeg[m] -= 1
            if indeg[m] == 0:
                heapq.heappush(ready, m)
    return order


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
    res = BatchResult(invariants={})
    inv = res.invariants
    cur_iter: dict[Loc, object] = {}
    order = _topo_order(cfg, loops)

    region_of: dict[Loc | None, list[Loc]] = {None: []}
    for h in loops.natural_loops:
        region_of[h] = []
    for l in order:
        enc = loops.enclosing_heads(l)
        region_of[enc[-1] if enc else None].append(l)

    def transfer(stmt: Stmt, state):
        res.transfer_evals += 1
        return domain.transfer(stmt, state)

    def read(src: Loc, dst: Loc):
        if src in loops.natural_loops:
            if dst != src and dst not in loops.natural_loops[src]:
                return inv[src]  # the loop's fixed point
            return cur_iter[src]  # the current abstract iterate
        return inv[src]

    def combine(d: Loc):
        indexed = loops.join_indices.get(d)
        if indexed is not None:
            vals = [transfer(e.stmt, read(e.src, d)) for e in indexed]
            out = vals[0]
            for v in vals[1:]:
                out = domain.join(out, v)
            res.join_evals += 1
            return out
        (e,) = loops.fwd_in[d]
        return transfer(e.stmt, read(e.src, d))

    def converged(prev, nxt) -> bool:
        if mode == "eq":
            return domain.equal(prev, nxt)
        return domain.leq(nxt, prev)

    def sweep(region: list[Loc], ctx: dict[Loc, int]) -> None:
        for d in region:
            if d == cfg.entry:
                continue
            if d in loops.natural_loops:
                converge(d, ctx)
            else:
                inv[d] = combine(d)

    def converge(h: Loc, ctx: dict[Loc, int]) -> None:
        back = loops.back_edge_of(h)
        iter_val = combine(h)
        index = 0
        while True:
            cur_iter[h] = iter_val
            inner_ctx = dict(ctx)
            inner_ctx[h] = index
            sweep(region_of[h], inner_ctx)
            pre = transfer(back.stmt, read(back.src, h))
            nxt = domain.widen(iter_val, pre)
            res.widen_evals += 1
            if converged(iter_val, nxt):
                inv[h] = nxt
                res.episodes[(h, tuple(sorted(ctx.items())))] = index + 1
                return
            iter_val = nxt
            index += 1

    inv[cfg.entry] = entry_state if entry_state is not None else domain.init()
    sweep(region_of[None], {})
    return res
