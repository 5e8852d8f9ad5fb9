"""CFG-level program edits and their deltas.

Edits never remove locations; deletion is expressed as relabelling an edge
to ``skip``.  Insertions splice fresh locations into the graph and move the
insertion point's outgoing edges onto the spliced-in exit, with one
exception: at a loop head only the edges into the loop body are rerouted,
so that every edge leaving a loop keeps originating at its head.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .cfg import Cfg, CfgError, Edge, Loc
from .lower import GraphBuilder, IfBlock, WhileBlock
from .loops import LoopInfo, analyze_loops
from .syntax import Expr, Stmt


class EditError(CfgError):
    pass


@dataclass(frozen=True)
class RelabelEdge:
    src: Loc
    dst: Loc
    new_stmt: Stmt


@dataclass(frozen=True)
class InsertStmtAfter:
    loc: Loc
    stmt: Stmt


@dataclass(frozen=True)
class InsertIf:
    loc: Loc
    cond: Expr
    then_stmts: tuple[Stmt, ...] = ()
    else_stmts: tuple[Stmt, ...] = ()


@dataclass(frozen=True)
class InsertWhile:
    loc: Loc
    cond: Expr
    body_stmts: tuple[Stmt, ...] = ()


ProgramEdit = Union[RelabelEdge, InsertStmtAfter, InsertIf, InsertWhile]


def inserted_stmts(edit: ProgramEdit) -> tuple[Stmt, ...]:
    """The statements an edit puts into the program: a relabel's new
    statement or an inserted block's statements (not its condition)."""
    if isinstance(edit, RelabelEdge):
        return (edit.new_stmt,)
    if isinstance(edit, InsertStmtAfter):
        return (edit.stmt,)
    if isinstance(edit, InsertIf):
        return tuple(edit.then_stmts) + tuple(edit.else_stmts)
    if isinstance(edit, InsertWhile):
        return tuple(edit.body_stmts)
    return ()


@dataclass(frozen=True)
class EditDelta:
    """Exact difference between the pre- and post-edit edge sets.

    ``moved`` annotates the (removed, added) pairs that are the same logical
    edge rerouted to a new source; they also appear in ``removed_edges`` and
    ``added_edges`` so that applying the three primary lists to the old edge
    set reproduces the new one.
    """

    added_locs: tuple[Loc, ...] = ()
    added_edges: tuple[Edge, ...] = ()
    removed_edges: tuple[Edge, ...] = ()
    relabelled: tuple[tuple[Edge, Edge], ...] = ()
    moved: tuple[tuple[Edge, Edge], ...] = ()

    def apply_to(self, edges: frozenset[Edge]) -> frozenset[Edge]:
        out = set(edges)
        for old, new in self.relabelled:
            out.discard(old)
            out.add(new)
        out -= set(self.removed_edges)
        out |= set(self.added_edges)
        return frozenset(out)

    def touched_dsts(self) -> set[Loc]:
        out = {e.dst for e in self.added_edges}
        out |= {e.dst for e in self.removed_edges}
        out |= {new.dst for _, new in self.relabelled}
        return out


def _moved_out_edges(cfg: Cfg, loops: LoopInfo, loc: Loc) -> tuple[Edge, ...]:
    """Outgoing edges rerouted by an insertion at ``loc``, in
    ``Edge.sort_key`` order.

    At a loop head, edges leaving the loop stay put; everywhere else all
    outgoing edges move.
    """
    out = cfg.out_edges(loc)
    if loc in loops.natural_loops:
        body = loops.natural_loops[loc]
        return tuple(e for e in out if e.dst in body or e.dst == loc)
    return out


def relabel(cfg: Cfg, old: Edge, new_stmt: Stmt) -> tuple[Cfg, EditDelta]:
    """Replace the statement on one existing edge.

    Relabelling an edge to its own statement returns ``cfg`` itself and an
    empty delta.  Raises EditError when ``old`` is not an edge of ``cfg`` or
    when the relabelled edge would coincide with a parallel one.  A relabel
    keeps every (source, destination) pair, so loop structure cannot change.
    """
    if old not in cfg.edges:
        raise EditError(f"l{old.src} -> l{old.dst} ({old.text}) is not an edge")
    new = Edge(old.src, new_stmt, old.dst)
    if new == old:
        return cfg, EditDelta()
    if new in cfg.edges:
        raise EditError("relabel would duplicate an existing edge")
    return cfg.with_edges(removed=(old,), added=(new,)), EditDelta(relabelled=((old, new),))


def apply_edit(
    cfg: Cfg, edit: ProgramEdit, validate: bool = True
) -> tuple[Cfg, EditDelta]:
    """Apply an edit, returning the new Cfg and the edge-set delta.

    Raises EditError for unknown or ambiguous locations and propagates
    IrreducibleError if an insertion would make the graph irreducible
    (unreachable for the supported edit forms; ``validate=False`` skips the
    recheck when the caller re-analyzes the result anyway).
    """
    if isinstance(edit, RelabelEdge):
        matches = [e for e in cfg.out_edges(edit.src) if e.dst == edit.dst]
        if not matches:
            raise EditError(f"no edge l{edit.src} -> l{edit.dst}")
        if len(matches) > 1:
            raise EditError(
                f"relabel of l{edit.src} -> l{edit.dst} is ambiguous: "
                + "; ".join(e.text for e in matches)
            )
        return relabel(cfg, matches[0], edit.new_stmt)

    if edit.loc not in cfg.locs:
        raise EditError(f"unknown location l{edit.loc}")
    moved_out = _moved_out_edges(cfg, analyze_loops(cfg), edit.loc)

    b = GraphBuilder(next_id=cfg.fresh_loc())
    if isinstance(edit, InsertStmtAfter):
        landing = b.lower_item(edit.stmt, edit.loc)
    elif isinstance(edit, InsertIf):
        landing = b.lower_item(
            IfBlock(edit.cond, tuple(edit.then_stmts), tuple(edit.else_stmts)), edit.loc
        )
    elif isinstance(edit, InsertWhile):
        # The head is always fresh so existing heads never gain a second
        # back edge; a skip edge bridges from the insertion point.
        b.protected.add(edit.loc)
        landing = b.lower_item(WhileBlock(edit.cond, tuple(edit.body_stmts)), edit.loc)
    else:
        raise EditError(f"unsupported edit {edit!r}")

    # moved_out is in sort_key order, so the removed edges and the moved
    # pairs are too.
    moved_pairs = tuple((e, Edge(landing, e.stmt, e.dst)) for e in moved_out)
    added = b.edges + [new for _, new in moved_pairs]
    new_cfg = cfg.with_edges(
        removed=moved_out,
        added=added,
        new_locs=b.locs,
        exit=landing if edit.loc == cfg.exit else None,
    )
    if validate:
        analyze_loops(new_cfg)
    delta = EditDelta(
        added_locs=tuple(sorted(b.locs)),
        added_edges=tuple(sorted(added, key=Edge.sort_key)),
        removed_edges=moved_out,
        moved=moved_pairs,
    )
    return new_cfg, delta


def stable_join_indices(
    old: dict[Loc, tuple[Edge, ...]], delta: EditDelta, new_loops: LoopInfo
) -> dict[Loc, tuple[Edge, ...]]:
    """Carry join indices across an edit.

    Surviving edges keep their index: a relabelled or rerouted edge replaces
    its predecessor in place, so downstream cell names stay stable and only
    genuinely affected analysis state is invalidated.  Joins among the fresh
    locations are indexed from scratch.  Only the joins at a relabelled or
    moved edge's destination are rewritten; every join is then checked to
    hold exactly the edges that ``new_loops`` finds there, which raises
    EditError when ``delta`` missed a change.
    """
    pure = new_loops.join_indices
    relabel_map = dict(delta.relabelled)
    move_map = dict(delta.moved)
    patched: dict[Loc, tuple[Edge, ...]] = {}
    for changed in (*relabel_map, *move_map):
        loc = changed.dst  # a relabel or a move keeps the destination
        if loc in old and loc not in patched:
            edges = [relabel_map.get(e, e) for e in old[loc]]
            patched[loc] = tuple(move_map.get(e, e) for e in edges)
    out: dict[Loc, tuple[Edge, ...]] = {}
    for loc, edges in pure.items():
        have = patched[loc] if loc in patched else old.get(loc)
        if have is None:
            out[loc] = edges
        # Insertions only add edges into fresh locations, so an existing
        # join's edge set never grows; a tuple compare settles most joins.
        elif have == edges or set(have) == set(edges):
            out[loc] = have
        else:
            raise EditError(f"join index patch failed at l{loc}")
    return out
