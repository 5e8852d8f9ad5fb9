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
    body holds it, outermost first.
    """

    fwd_edges: frozenset[Edge]
    back_edges: frozenset[Edge]
    natural_loops: dict[Loc, frozenset[Loc]]
    join_indices: dict[Loc, tuple[Edge, ...]]
    idom: dict[Loc, Loc]
    fwd_in: dict[Loc, tuple[Edge, ...]]
    enclosing: dict[Loc, tuple[Loc, ...]]

    def dominators_of(self, loc: Loc) -> frozenset[Loc]:
        out = {loc}
        cur = loc
        while self.idom[cur] != cur:
            cur = self.idom[cur]
            out.add(cur)
        return frozenset(out)

    def enclosing_heads(self, loc: Loc) -> tuple[Loc, ...]:
        """Heads of the natural loops containing ``loc``, outermost first."""
        return self.enclosing[loc]

    def back_edge_of(self, head: Loc) -> Edge:
        for e in self.back_edges:
            if e.dst == head:
                return e
        raise CfgError(f"l{head} is not a loop head")


def _natural_loop(ins: dict[Loc, list[Edge]], back: Edge) -> frozenset[Loc]:
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


def analyze_loops(cfg: Cfg) -> LoopInfo:
    """Partition edges, compute dominators, natural loops, and join indices.

    One scan over the edges builds the adjacency; everything after it works
    on locations.  A depth-first search from the entry (successors in
    ascending order) gives the reverse postorder, over which the
    Cooper-Harvey-Kennedy iteration finds the immediate dominators.  A
    dominator precedes what it dominates in that order, so only retreating
    edges can be back edges, and the forward subgraph is acyclic exactly when
    every retreating edge is one.

    Deterministic: incoming forward edges of a join are indexed in ascending
    (source id, statement text) order, as in ``fwd_in``.  Edits carry an
    existing indexing across with ``edits.stable_join_indices`` instead.

    Raises CfgError when a location is unreachable from the entry (naming
    the least one), IrreducibleError when a retreating edge is not a back
    edge (naming the least such edge by ``Edge.sort_key``), and CfgError when
    a head has more than one incoming back edge.
    """
    cfg.validate()
    succs: dict[Loc, list[Loc]] = {l: [] for l in cfg.locs}
    ins: dict[Loc, list[Edge]] = {l: [] for l in cfg.locs}
    for e in cfg.edges:
        succs[e.src].append(e.dst)
        ins[e.dst].append(e)
    for kids in succs.values():
        kids.sort()

    entry = cfg.entry
    seen = {entry}
    post: list[Loc] = []
    stack = [(entry, iter(succs[entry]))]
    while stack:
        node, kids = stack[-1]
        for nxt in kids:
            if nxt not in seen:
                seen.add(nxt)
                stack.append((nxt, iter(succs[nxt])))
                break
        else:
            stack.pop()
            post.append(node)
    if len(post) != len(cfg.locs):
        worst = min(cfg.locs - seen)
        raise CfgError(f"l{worst} is unreachable from entry")

    # Dominators over reverse-postorder numbers: rpo[i] is the i-th location,
    # num its inverse, dom[i] the number of rpo[i]'s immediate dominator.
    rpo = post[::-1]
    num = {l: i for i, l in enumerate(rpo)}
    npreds = [[num[e.src] for e in ins[l]] for l in rpo]
    dom = [-1] * len(rpo)
    dom[0] = 0
    changed = True
    while changed:
        changed = False
        for i in range(1, len(rpo)):
            new = -1
            for p in npreds[i]:
                if dom[p] < 0:
                    continue
                if new < 0:
                    new = p
                    continue
                a = p
                while a != new:
                    while a > new:
                        a = dom[a]
                    while new > a:
                        new = dom[new]
            if dom[i] != new:
                dom[i] = new
                changed = True
    idom = {l: rpo[dom[i]] for i, l in enumerate(rpo)}

    back: list[Edge] = []
    fwd_in: dict[Loc, tuple[Edge, ...]] = {}
    join_indices: dict[Loc, tuple[Edge, ...]] = {}
    irreducible: list[Edge] = []
    for d, l in enumerate(rpo):
        edges = []
        for e, s in zip(ins[l], npreds[d]):
            if s < d:
                edges.append(e)
                continue
            # Retreating: a back edge exactly when l dominates the source.
            while s > d:
                s = dom[s]
            (back if s == d else irreducible).append(e)
        if len(edges) >= 2:
            # The edges of one join share dst: this is (source, text) order.
            edges.sort(key=Edge.sort_key)
            join_indices[l] = fwd_in[l] = tuple(edges)
        else:
            fwd_in[l] = tuple(edges)
    if irreducible:
        raise IrreducibleError(min(irreducible, key=Edge.sort_key))

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
    )
