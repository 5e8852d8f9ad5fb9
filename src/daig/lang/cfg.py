"""Control-flow graphs: statement-labelled edges between integer locations."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional

from .syntax import Call, Stmt, stmt_text

Loc = int


class CfgError(ValueError):
    """A structural invariant of a Cfg or Program is violated."""


@dataclass(frozen=True, slots=True)
class Edge:
    """A statement-labelled edge; equality uses (src, stmt, dst).

    ``text`` is the statement printed once at construction, so sorting by
    ``sort_key`` never re-prints it.  Hashing uses (src, dst, text): equal
    statements print alike, and a string keeps its hash, so hashing an edge
    never walks its statement.
    """

    src: Loc
    stmt: Stmt
    dst: Loc
    text: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "text", stmt_text(self.stmt))

    def __hash__(self) -> int:
        return hash((self.src, self.dst, self.text))

    def sort_key(self) -> tuple:
        return (self.src, self.dst, self.text)


@dataclass(frozen=True)
class Cfg:
    """A procedure's flow graph: locations, edges, entry and exit.

    ``adjacency`` is the pair ``(outs, ins)`` of lists indexed by location
    id: ``outs[l]`` and ``ins[l]`` are the edges leaving and entering ``l``,
    each a tuple in ``Edge.sort_key`` order, and ``()`` at an id that is no
    location.  Location ids come from counters, so the lists are about as
    long as ``locs`` is large; a negative id is rejected, as it would index
    from the end.  The adjacency is built from ``edges`` on first use and
    kept; ``with_edges``, through which every edit goes, derives the new
    Cfg's adjacency from this one's in O(change).  It is a cache: equality
    and hashing ignore it.  Pickling and copying carry it once built, so a
    loaded Cfg need not build it again; copies may share its lists, as
    ``with_edges`` writes only to new ones.
    """

    locs: frozenset[Loc]
    edges: frozenset[Edge]
    entry: Loc
    exit: Loc

    @cached_property
    def adjacency(self) -> tuple[list[tuple[Edge, ...]], list[tuple[Edge, ...]]]:
        """Raises CfgError for a negative location id and for an edge whose
        endpoint is not in ``locs`` (naming the least such edge by
        ``Edge.sort_key``)."""
        locs = self.locs
        if locs and min(locs) < 0:
            raise CfgError(f"negative location id l{min(locs)}")
        size = max(locs) + 1 if locs else 0
        outs: list[tuple[Edge, ...]] = [()] * size
        ins: list[tuple[Edge, ...]] = [()] * size
        # In sort_key order, each location's edges arrive in that order too.
        for e in sorted(self.edges, key=Edge.sort_key):
            if e.src not in locs or e.dst not in locs:
                raise CfgError(f"edge endpoint missing from locs: {e}")
            outs[e.src] += (e,)
            ins[e.dst] += (e,)
        return outs, ins

    def out_edges(self, loc: Loc) -> tuple[Edge, ...]:
        """The edges leaving ``loc`` in ``Edge.sort_key`` order (none when
        ``loc`` is not a location)."""
        return self.adjacency[0][loc] if loc in self.locs else ()

    def with_edges(
        self,
        removed: Iterable[Edge],
        added: Iterable[Edge],
        new_locs: Iterable[Loc] = (),
        exit: Optional[Loc] = None,
    ) -> Cfg:
        """This Cfg with the ``removed`` edges (edges of this Cfg) taken out,
        the ``new_locs`` and ``added`` edges put in, and ``exit`` as its exit
        if one is given.  Only the adjacency entries of the changed edges'
        endpoints are rebuilt; the rest are shared.

        Raises CfgError for a negative new location id and for an added edge
        whose endpoint is not a location of the result."""
        removed, added, new_locs = tuple(removed), tuple(added), frozenset(new_locs)
        outs, ins = self.adjacency
        if new_locs and min(new_locs) < 0:
            raise CfgError(f"negative location id l{min(new_locs)}")
        locs = self.locs | new_locs
        for e in added:
            if e.src not in locs or e.dst not in locs:
                raise CfgError(f"edge endpoint missing from locs: {e}")
        new = Cfg(
            locs,
            (self.edges - frozenset(removed)) | frozenset(added),
            self.entry,
            self.exit if exit is None else exit,
        )
        grow = [()] * (max(new_locs, default=-1) + 1 - len(outs))
        outs, ins = outs + grow, ins + grow
        _patch(outs, "src", removed, added)
        _patch(ins, "dst", removed, added)
        object.__setattr__(new, "adjacency", (outs, ins))
        return new

    def fresh_loc(self) -> Loc:
        return max(self.locs) + 1


def _patch(table: list, end: str, removed: tuple[Edge, ...], added: tuple[Edge, ...]) -> None:
    """Rebuild, in ``Edge.sort_key`` order, the entry of ``table`` at the
    ``end`` ("src" or "dst") of every removed or added edge."""
    changed: dict[Loc, list[Edge]] = {}
    for e in removed:
        changed.setdefault(getattr(e, end), [])
    for e in added:
        changed.setdefault(getattr(e, end), []).append(e)
    gone = set(removed)
    for loc, extra in changed.items():
        extra += [e for e in table[loc] if e not in gone]
        extra.sort(key=Edge.sort_key)
        table[loc] = tuple(extra)


@dataclass(frozen=True)
class Proc:
    name: str
    param: Optional[str]
    cfg: Cfg


@dataclass
class Program:
    procedures: dict[str, Proc] = field(default_factory=dict)
    main: str = "main"

    def proc(self, name: str) -> Proc:
        if name not in self.procedures:
            raise CfgError(f"unknown procedure {name!r}")
        return self.procedures[name]

    def replace_cfg(self, name: str, cfg: Cfg) -> None:
        old = self.proc(name)
        self.procedures[name] = Proc(old.name, old.param, cfg)

    def call_order(self) -> list[str]:
        """Procedures in bottom-up call order (callees before callers).

        This is the one rule for well-formed calls: raises CfgError for a
        call to an unknown procedure, a call whose argument does not match
        its callee's parameter, and a recursive call cycle.
        """
        procedures = self.procedures
        callees: dict[str, set[str]] = {name: set() for name in procedures}
        for name, proc in procedures.items():
            # In adjacency order, not set order, so the bad call reported is
            # the same under every string-hash seed.
            for s in (e.stmt for outs in proc.cfg.adjacency[0] for e in outs):
                if isinstance(s, Call):
                    callee = procedures.get(s.callee)
                    if callee is None:
                        raise CfgError(f"call to unknown procedure {s.callee!r} in {name!r}")
                    if (callee.param is None) != (s.actual is None):
                        need = "takes no argument" if callee.param is None else "requires an argument"
                        raise CfgError(
                            f"call arity mismatch: {s.callee!r} {need} (call in {name!r})"
                        )
                    callees[name].add(s.callee)
        # Depth-first over sorted callees with an explicit stack: a nested
        # function calling itself would leave a reference cycle per call.
        order: list[str] = []
        done: set[str] = set()
        for root in sorted(self.procedures):
            if root in done:
                continue
            trail = [root]
            stack = [iter(sorted(callees[root]))]
            while stack:
                c = next(stack[-1], None)
                if c is None:
                    stack.pop()
                    done.add(trail[-1])
                    order.append(trail.pop())
                elif c in trail:
                    cycle = " -> ".join(trail + [c])
                    raise CfgError(f"recursive call cycle: {cycle}")
                elif c not in done:
                    trail.append(c)
                    stack.append(iter(sorted(callees[c])))
        return order
