"""Loop structure of reducible flow graphs.

Partitions edges into forward and back edges by dominance, finds natural
loops, and assigns the per-join indices used to name pre-join cells.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cfg import Cfg, CfgError, Edge, Loc


class IrreducibleError(CfgError):
    """The graph has a retreating edge whose target does not dominate its source."""

    def __init__(self, edge: Edge):
        self.edge = edge
        super().__init__(
            f"irreducible control flow: retreating edge "
            f"l{edge.src} -> l{edge.dst} ({edge.text})"
        )


@dataclass
class LoopInfo:
    """Forward/back edge partition, immediate dominators, natural loops and
    the incoming forward edges of every location.

    ``fwd_in`` maps every location to its incoming forward edges in
    ascending (source id, statement text) order.  ``join_indices`` maps each
    location of forward indegree >= 2 to the same edges; the 1-based position
    in the tuple is the edge's join index.  ``analyze_loops`` gives them the
    ``fwd_in`` order, but an edit may carry an older, stable indexing across
    (``edits.stable_join_indices``), so only ``fwd_in`` promises that order.
    ``enclosing`` maps every location to the heads of the natural loops whose
    body holds it, outermost first.  ``rpo_num`` numbers every location in
    the reverse postorder of a depth-first search from the entry, so every
    forward edge goes from a smaller number to a larger one.
    """

    fwd_edges: frozenset[Edge]
    back_edges: frozenset[Edge]
    natural_loops: dict[Loc, frozenset[Loc]]
    join_indices: dict[Loc, tuple[Edge, ...]]
    idom: dict[Loc, Loc]
    fwd_in: dict[Loc, tuple[Edge, ...]]
    enclosing: dict[Loc, tuple[Loc, ...]]
    rpo_num: dict[Loc, int]

    def dominators_of(self, loc: Loc) -> frozenset[Loc]:
        out = {loc}
        cur = loc
        while self.idom[cur] != cur:
            cur = self.idom[cur]
            out.add(cur)
        return frozenset(out)

    def back_edge_of(self, head: Loc) -> Edge:
        for e in self.back_edges:
            if e.dst == head:
                return e
        raise CfgError(f"l{head} is not a loop head")


def _natural_loop(ins: list[tuple[Edge, ...]], back: Edge) -> frozenset[Loc]:
    """Locations that reach the back edge's source without passing its head.

    The head itself is excluded; cell naming treats it separately.
    """
    head, tail = back.dst, back.src
    if tail == head:
        return frozenset()
    body = {tail}
    stack = [tail]
    while stack:
        for e in ins[stack.pop()]:
            p = e.src
            if p != head and p not in body:
                body.add(p)
                stack.append(p)
    return frozenset(body)


def _common_dominator(dom: list[int], a: int, b: int) -> int:
    """Nearest common dominator of reverse-postorder numbers ``a`` and ``b``
    in the dominator tree ``dom`` (the Cooper-Harvey-Kennedy intersect)."""
    while a != b:
        while a > b:
            a = dom[a]
        while b > a:
            b = dom[b]
    return a


def _classify(
    retreating: list[tuple[Edge, int, int]], dom: list[int]
) -> tuple[list[Edge], list[Edge]]:
    """Split retreating edges (edge, source number, target number) into back
    edges, whose target dominates their source, and the rest."""
    back: list[Edge] = []
    irreducible: list[Edge] = []
    for e, s, d in retreating:
        while s > d:
            s = dom[s]
        (back if s == d else irreducible).append(e)
    return back, irreducible


def analyze_loops(cfg: Cfg) -> LoopInfo:
    """Partition edges, compute dominators, natural loops, and join indices.

    It reads the Cfg's kept adjacency (``Cfg.adjacency``, each location's
    edges in ``Edge.sort_key`` order) and works on locations from there; it
    keeps nothing, and derives all of its result from scratch on every call.
    A depth-first search from the entry (successors in ascending order)
    numbers the locations in reverse postorder as they finish.  One
    Cooper-Harvey-Kennedy pass in that order, reading only forward
    predecessors (those numbered earlier), finds the dominators of the
    forward subgraph, and the same sweep splits each location's incoming
    edges into forward and retreating ones.  A dominator precedes what it
    dominates, so only a retreating edge can be a back edge.  When every
    retreating edge is one, the graph is reducible and the forward-subgraph
    dominators are the dominators: an edge s -> d with d dominating s
    changes no dominator.  Only an irreducible graph iterates further, over
    all predecessors to the fixed point, before the retreating edges are
    classified again.

    Deterministic: incoming forward edges of a join are indexed in ascending
    (source id, statement text) order, as in ``fwd_in``.  Edits carry an
    existing indexing across with ``edits.stable_join_indices`` instead.

    Raises CfgError when the entry or the exit is not in ``locs``, when a
    location id is negative, when an edge endpoint is not in ``locs``
    (naming the least such edge by ``Edge.sort_key``, so the message does
    not depend on set order), and when a location is unreachable from the
    entry (naming the least one), IrreducibleError when a retreating edge is
    not a back edge (naming the least such edge by ``Edge.sort_key``), and
    CfgError when a head has more than one incoming back edge.
    """
    locs, entry = cfg.locs, cfg.entry
    if entry not in locs:
        raise CfgError(f"entry l{entry} not a member of locs")
    if cfg.exit not in locs:
        raise CfgError(f"exit l{cfg.exit} not a member of locs")
    outs, ins = cfg.adjacency

    # num[l] is l's reverse-postorder number and rpo its inverse; a location
    # is marked -1 while the search is below it.
    n = len(locs)
    rpo: list[Loc] = [entry] * n
    num = {entry: -1}
    stack = [(entry, iter(outs[entry]))]
    while stack:
        node, kids = stack[-1]
        for e in kids:
            nxt = e.dst
            if nxt not in num:
                num[nxt] = -1
                stack.append((nxt, iter(outs[nxt])))
                break
        else:
            stack.pop()
            n -= 1
            num[node] = n
            rpo[n] = node
    if n:
        raise CfgError(f"l{min(locs - num.keys())} is unreachable from entry")

    # dom[i] is the number of rpo[i]'s immediate dominator.
    dom = [0] * len(rpo)
    retreating: list[tuple[Edge, int, int]] = []
    fwd_in: dict[Loc, tuple[Edge, ...]] = {}
    join_indices: dict[Loc, tuple[Edge, ...]] = {}
    for d, l in enumerate(rpo):
        edges = []
        for e in ins[l]:
            s = num[e.src]
            if s >= d:
                retreating.append((e, s, d))
            elif edges:
                dom[d] = _common_dominator(dom, s, dom[d])
                edges.append(e)
            else:
                dom[d] = s
                edges.append(e)
        # ins[l] is in sort_key order, and the edges of one join share dst:
        # this is (source, text) order.
        fwd_in[l] = fwd = tuple(edges)
        if len(fwd) >= 2:
            join_indices[l] = fwd
    back, irreducible = _classify(retreating, dom)
    if irreducible:
        # A retreating edge that is not a back edge may remove dominators.
        # Iterate over all predecessors to the fixed point so that the error
        # names the least edge that the full dominators reject.
        preds = [[num[e.src] for e in ins[l]] for l in rpo]
        changed = True
        while changed:
            changed = False
            for i in range(1, len(rpo)):
                new = preds[i][0]
                for p in preds[i][1:]:
                    new = _common_dominator(dom, p, new)
                if dom[i] != new:
                    dom[i] = new
                    changed = True
        _back, irreducible = _classify(retreating, dom)
        raise IrreducibleError(min(irreducible, key=Edge.sort_key))
    idom = {l: rpo[i] for l, i in zip(rpo, dom)}

    loops: dict[Loc, frozenset[Loc]] = {}
    back.sort(key=Edge.sort_key)
    for e in back:
        if e.dst in loops:
            raise CfgError(f"l{e.dst} has more than one incoming back edge")
        loops[e.dst] = _natural_loop(ins, e)

    # Nesting is strict containment, so body size orders unambiguously.
    enclosing: dict[Loc, tuple[Loc, ...]] = dict.fromkeys(cfg.locs, ())
    for h in sorted(loops, key=lambda h: (-len(loops[h]), h)):
        for l in loops[h]:
            enclosing[l] += (h,)

    back_edges = frozenset(back)
    return LoopInfo(
        fwd_edges=cfg.edges - back_edges,
        back_edges=back_edges,
        natural_loops=loops,
        join_indices=join_indices,
        idom=idom,
        fwd_in=fwd_in,
        enclosing=enclosing,
        rpo_num=num,
    )
