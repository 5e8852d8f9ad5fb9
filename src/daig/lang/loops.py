"""Loop structure of reducible flow graphs.

Partitions edges into forward and back edges by dominance, finds natural
loops, and assigns the per-join indices used to name pre-join cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .cfg import Cfg, CfgError, Edge, Loc


class IrreducibleError(CfgError):
    """The graph has a retreating edge whose target does not dominate its source."""

    def __init__(self, edge: Edge):
        self.edge = edge
        super().__init__(
            f"irreducible control flow: retreating edge "
            f"l{edge.src} -> l{edge.dst} ({edge.text})"
        )


def _postorder(cfg: Cfg) -> list[Loc]:
    succs: dict[Loc, list[Loc]] = {l: [] for l in cfg.locs}
    for e in cfg.sorted_edges():
        succs[e.src].append(e.dst)
    seen: set[Loc] = set()
    order: list[Loc] = []
    stack: list[tuple[Loc, int]] = [(cfg.entry, 0)]
    seen.add(cfg.entry)
    while stack:
        node, i = stack[-1]
        kids = succs[node]
        if i < len(kids):
            stack[-1] = (node, i + 1)
            nxt = kids[i]
            if nxt not in seen:
                seen.add(nxt)
                stack.append((nxt, 0))
        else:
            stack.pop()
            order.append(node)
    return order


def _immediate_dominators(cfg: Cfg) -> dict[Loc, Loc]:
    """Iterative idom computation over reverse postorder (Cooper-Harvey-Kennedy)."""
    post = _postorder(cfg)
    rpo = list(reversed(post))
    number = {l: i for i, l in enumerate(rpo)}
    preds: dict[Loc, list[Loc]] = {l: [] for l in cfg.locs}
    for e in cfg.sorted_edges():
        if e.src in number and e.dst in number:
            preds[e.dst].append(e.src)

    idom: dict[Loc, Loc] = {cfg.entry: cfg.entry}

    def intersect(a: Loc, b: Loc) -> Loc:
        while a != b:
            while number[a] > number[b]:
                a = idom[a]
            while number[b] > number[a]:
                b = idom[b]
        return a

    changed = True
    while changed:
        changed = False
        for node in rpo:
            if node == cfg.entry:
                continue
            new = None
            for p in preds[node]:
                if p in idom:
                    new = p if new is None else intersect(new, p)
            if new is not None and idom.get(node) != new:
                idom[node] = new
                changed = True
    return idom


@dataclass
class LoopInfo:
    """Forward/back edge partition plus dominators, natural loops, join indices.

    ``join_indices`` maps each location of forward indegree >= 2 to its
    incoming forward edges; the 1-based position in the tuple is the edge's
    join index.
    """

    cfg: Cfg
    fwd_edges: frozenset[Edge]
    back_edges: frozenset[Edge]
    natural_loops: dict[Loc, frozenset[Loc]]
    join_indices: dict[Loc, tuple[Edge, ...]]
    idom: dict[Loc, Loc]

    def dominators_of(self, loc: Loc) -> frozenset[Loc]:
        out = {loc}
        cur = loc
        while self.idom[cur] != cur:
            cur = self.idom[cur]
            out.add(cur)
        return frozenset(out)

    @cached_property
    def dominators(self) -> dict[Loc, frozenset[Loc]]:
        return {l: self.dominators_of(l) for l in self.cfg.locs}

    @cached_property
    def fwd_in(self) -> dict[Loc, tuple[Edge, ...]]:
        out: dict[Loc, list[Edge]] = {l: [] for l in self.cfg.locs}
        for e in sorted(self.fwd_edges, key=Edge.sort_key):
            out[e.dst].append(e)
        return {l: tuple(es) for l, es in out.items()}

    @cached_property
    def _enclosing(self) -> dict[Loc, tuple[Loc, ...]]:
        # Heads whose natural loop contains the location, outermost first.
        # Nesting is strict containment, so body size orders unambiguously.
        out: dict[Loc, tuple[Loc, ...]] = {}
        for l in self.cfg.locs:
            hs = [h for h, body in self.natural_loops.items() if l in body]
            hs.sort(key=lambda h: (-len(self.natural_loops[h]), h))
            out[l] = tuple(hs)
        return out

    def enclosing_heads(self, loc: Loc) -> tuple[Loc, ...]:
        """Heads of the natural loops containing ``loc``, outermost first."""
        return self._enclosing[loc]

    def back_edge_of(self, head: Loc) -> Edge:
        for e in self.back_edges:
            if e.dst == head:
                return e
        raise CfgError(f"l{head} is not a loop head")


def _dominator_tree_times(idom: dict[Loc, Loc], entry: Loc) -> tuple[dict, dict]:
    kids: dict[Loc, list[Loc]] = {l: [] for l in idom}
    for n, d in idom.items():
        if n != entry:
            kids[d].append(n)
    for v in kids.values():
        v.sort()
    tin: dict[Loc, int] = {}
    tout: dict[Loc, int] = {}
    t = 0
    stack: list[tuple[Loc, int]] = [(entry, 0)]
    tin[entry] = t
    t += 1
    while stack:
        node, i = stack[-1]
        if i < len(kids[node]):
            stack[-1] = (node, i + 1)
            c = kids[node][i]
            tin[c] = t
            t += 1
            stack.append((c, 0))
        else:
            stack.pop()
            tout[node] = t
            t += 1
    return tin, tout


def _natural_loop(cfg: Cfg, back: Edge) -> frozenset[Loc]:
    """Locations that reach the back edge's source without passing its head.

    The head itself is excluded; cell naming treats it separately.
    """
    head, tail = back.dst, back.src
    if tail == head:
        return frozenset()
    preds: dict[Loc, list[Loc]] = {l: [] for l in cfg.locs}
    for e in cfg.edges:
        preds[e.dst].append(e.src)
    body = {tail}
    stack = [tail]
    while stack:
        n = stack.pop()
        for p in preds[n]:
            if p != head and p not in body:
                body.add(p)
                stack.append(p)
    return frozenset(body)


def analyze_loops(cfg: Cfg) -> LoopInfo:
    """Partition edges, compute dominators, natural loops, and join indices.

    Deterministic: incoming forward edges of a join are indexed in ascending
    (source id, statement text) order.  Edits carry an existing indexing
    across with ``edits.stable_join_indices`` instead.

    Raises IrreducibleError when the forward subgraph is cyclic, and
    CfgError when forward edges do not span the graph or a head has more
    than one incoming back edge.
    """
    cfg.validate()
    idom = _immediate_dominators(cfg)
    unreachable = cfg.locs - idom.keys()
    if unreachable:
        worst = min(unreachable)
        raise CfgError(f"l{worst} is unreachable from entry")
    tin, tout = _dominator_tree_times(idom, cfg.entry)

    def dominates(a: Loc, b: Loc) -> bool:
        return tin[a] <= tin[b] < tout[a]

    back = frozenset(e for e in cfg.edges if dominates(e.dst, e.src))
    fwd = cfg.edges - back

    # Forward subgraph must be a DAG; a leftover cycle pinpoints a
    # retreating edge that is not a dominance back edge.
    indeg = {l: 0 for l in cfg.locs}
    succs: dict[Loc, list[Loc]] = {l: [] for l in cfg.locs}
    for e in fwd:
        indeg[e.dst] += 1
        succs[e.src].append(e.dst)
    ready = sorted(l for l, d in indeg.items() if d == 0)
    removed = 0
    while ready:
        n = ready.pop()
        removed += 1
        for m in succs[n]:
            indeg[m] -= 1
            if indeg[m] == 0:
                ready.append(m)
    if removed != len(cfg.locs):
        stuck = {l for l, d in indeg.items() if d > 0}
        offender = min(
            (e for e in fwd if e.src in stuck and e.dst in stuck),
            key=Edge.sort_key,
        )
        raise IrreducibleError(offender)

    heads_seen: set[Loc] = set()
    loops: dict[Loc, frozenset[Loc]] = {}
    for e in sorted(back, key=Edge.sort_key):
        if e.dst in heads_seen:
            raise CfgError(f"l{e.dst} has more than one incoming back edge")
        heads_seen.add(e.dst)
        loops[e.dst] = _natural_loop(cfg, e)

    fwd_in: dict[Loc, list[Edge]] = {}
    for e in fwd:
        fwd_in.setdefault(e.dst, []).append(e)
    join_indices: dict[Loc, tuple[Edge, ...]] = {}
    for loc, edges in fwd_in.items():
        if len(edges) >= 2:
            # The edges of one join share dst: this is (source, text) order.
            edges.sort(key=Edge.sort_key)
            join_indices[loc] = tuple(edges)

    return LoopInfo(
        cfg=cfg,
        fwd_edges=frozenset(fwd),
        back_edges=back,
        natural_loops=loops,
        join_indices=join_indices,
        idom=idom,
    )
