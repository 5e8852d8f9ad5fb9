"""Reified analysis graphs: named cells, computation hyperedges, checkers.

A graph holds uniquely named mutable reference cells (program statements
and abstract states) connected by function-labelled computations with a
single destination each.  Loops are encoded acyclically: a loop head owns
numbered abstract-iterate cells chained by widening, and a distinguished
``fix`` computation from the two greatest iterates to the head's
fixed-point cell stands in for the cyclic dependency.

Names are values: tuples tagged with their kind, so equal names are equal
tuples that hash and compare in C, hash alike in every process, and sort
by kind, then by their parts.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property, partial
from operator import itemgetter
from typing import Iterable, NamedTuple, Optional, Union

from .lang.cfg import Cfg, CfgError, Loc
from .lang.loops import LoopInfo
from .lang.syntax import Call, stmt_text

# --- names ----------------------------------------------------------------
#
# Each name is a tuple whose first item is its kind's tag: ``(0, loc)``,
# ``(1, index)``, ``(2, base, counts)`` and ``(3, left, right)``.  Its
# hash follows its value alone, so a set of names iterates in the same
# order in every process; its order is the tuple order, by kind first.
# Pickling and copying go through the constructors.


class LocN(tuple):
    __slots__ = ()

    def __new__(cls, loc: Loc) -> "LocN":
        return tuple.__new__(cls, (0, loc))

    loc = property(itemgetter(1))

    def __getnewargs__(self):
        return (self[1],)

    def __repr__(self):
        return f"l{self[1]}"


class IdxN(tuple):
    __slots__ = ()

    def __new__(cls, index: int) -> "IdxN":
        return tuple.__new__(cls, (1, index))

    index = property(itemgetter(1))

    def __getnewargs__(self):
        return (self[1],)

    def __repr__(self):
        return str(self[1])


class Prod(tuple):
    """Right-nested name product: the left part is never itself a product."""

    __slots__ = ()

    def __new__(cls, left: "Name", right: "Name") -> "Prod":
        assert not isinstance(left, Prod), "products are right-nested"
        return tuple.__new__(cls, (3, left, right))

    left = property(itemgetter(1))
    right = property(itemgetter(2))

    def __getnewargs__(self):
        return self[1:]

    def __repr__(self):
        return f"{self[1]!r}.{self[2]!r}"


class Iter(tuple):
    """A location name tagged with one iteration count per enclosing loop head."""

    __slots__ = ()

    def __new__(cls, base: LocN, counts: Iterable[tuple[Loc, int]]) -> "Iter":
        counts = tuple(sorted(counts))
        assert counts, "Iter requires at least one loop-head count"
        return tuple.__new__(cls, (2, base, counts))

    base = property(itemgetter(1))
    counts = property(itemgetter(2))

    def __getnewargs__(self):
        return self[1:]

    def count_of(self, head: Loc) -> int:
        for h, c in self[2]:
            if h == head:
                return c
        return 0

    def with_count(self, head: Loc, value: int) -> "Iter":
        _, base, counts = self
        for i, (h, _c) in enumerate(counts):
            if h == head:
                # Replacing a count keeps the heads sorted.
                counts = counts[:i] + ((head, value),) + counts[i + 1:]
                return tuple.__new__(Iter, (2, base, counts))
        return Iter(base, counts + ((head, value),))

    def __repr__(self):
        _, base, counts = self
        if len(counts) == 1:
            return f"{base!r}^({counts[0][1]})"
        inner = ",".join(f"l{h}:{c}" for h, c in counts)
        return f"{base!r}^({inner})"


Name = Union[LocN, IdxN, Prod, Iter]


# --- cells and computations -------------------------------------------------


class FnSymbol(enum.Enum):
    TRANSFER = "transfer"
    JOIN = "join"
    WIDEN = "widen"
    FIX = "fix"


class CellType(enum.Enum):
    STMT = "stmt"
    STATE = "state"


# ``FnSymbol.FIX`` goes through ``EnumType.__getattr__``'s slow lookup path on
# Python 3.11 (several times a plain attribute), so the graph, its checkers
# and the engine read these module constants instead.
TRANSFER = FnSymbol.TRANSFER
JOIN = FnSymbol.JOIN
WIDEN = FnSymbol.WIDEN
FIX = FnSymbol.FIX
STMT = CellType.STMT
STATE = CellType.STATE


class RefCell:
    """A named cell: its contents, the computation into it (``comp``), and
    that computation's source cells (``srcs``), cleared whenever the
    computation is replaced and linked again on demand by
    :meth:`Daig.sources`.

    The cell is the only place its computation is kept.
    :func:`dest_structures` makes each cell with its computation in place,
    and a fresh graph (:func:`init_daig`) links every computed cell's
    sources; after that, only :meth:`Daig.set_comp` writes ``comp``,
    keeping the graph's consumer index in step once it is built.

    Links point upstream only, from a cell to what it reads, so a graph
    holds no reference cycles and is freed by reference counting.  Pickling
    and copying drop the cached sources: they are rebuilt on demand, and
    pickling them would recurse once per cell along a chain of statements.
    """

    __slots__ = ("name", "ty", "contents", "comp", "srcs")

    def __init__(self, name: Name, ty: CellType, contents=None, comp=None):
        self.name = name
        self.ty = ty
        self.contents = contents
        self.comp: Optional[Computation] = comp
        self.srcs: Optional[tuple[RefCell, ...]] = None

    def __reduce__(self):
        return (RefCell, (self.name, self.ty, self.contents, self.comp))

    def is_empty(self) -> bool:
        return self.contents is None

    def __repr__(self):
        what = "eps" if self.contents is None else repr(self.contents)
        return f"{self.name!r}[{what}:{self.ty.value}]"


class Computation(NamedTuple):
    dest: Name
    fn: FnSymbol
    srcs: tuple[Name, ...]

    def __repr__(self):
        args = ", ".join(repr(s) for s in self.srcs)
        return f"{self.dest!r} <- {self.fn.value}({args})"


# ``_comp((dest, fn, srcs))`` is ``Computation(dest, fn, srcs)`` made in C,
# without the NamedTuple's Python-level ``__new__``: the builder and the
# unroller make one per state cell.
_comp = partial(tuple.__new__, Computation)

_ARITY = {TRANSFER: 2, WIDEN: 2, FIX: 2}
_NO_NAMES: frozenset = frozenset()


@dataclass(frozen=True)
class Violation:
    kind: str
    name: Optional[Name] = None
    detail: str = ""

    def __str__(self):
        where = f"({self.name!r})" if self.name is not None else ""
        return f"{self.kind}{where} {self.detail}".strip()


class GraphError(KeyError):
    pass


class Daig:
    """Mutable cell store with the reverse index dirtying reads.

    ``refs`` maps each name to its cell, which holds the computation into
    it.  ``consumer_index`` maps a name to the names of the cells whose
    computations read it (a set may be left empty); a loop's final
    iterate is the one its fix computation reads second.  The index is a
    cache derived from the cells' computations on first read, as
    ``Cfg.adjacency`` is, and :func:`check_wf` checks that it inverts them
    exactly.  Only an edit's dirtying and propagation, :meth:`forward_set`
    and the checkers read it, so a fresh graph and a query-only engine
    never build it, and an engine's first edit pays O(cells) once; after
    that :meth:`set_comp` keeps it in step.  Copying and pickling carry it
    only if built, so a pickled warm session does not derive it again.
    """

    def __init__(self, entry_name: Name, entry_state):
        self.refs: dict[Name, RefCell] = {}
        self.entry_name = entry_name
        self.entry_state = entry_state

    @cached_property
    def consumer_index(self) -> dict[Name, set[Name]]:
        """The names of the cells whose computations read each name,
        derived from the cells' computations on first read."""
        users: dict[Name, set[Name]] = {}
        users_of = users.setdefault
        for name, cell in self.refs.items():
            comp = cell.comp
            if comp is not None:
                for s in comp.srcs:
                    users_of(s, set()).add(name)
        return users

    # -- construction and mutation ------------------------------------------

    def set_comp(self, comp: Computation) -> None:
        """Make ``comp`` the computation into its (existing) destination
        cell, replacing any previous one and its source links, and keep the
        consumer index in step if it is built."""
        dest = comp.dest
        cell = self.refs.get(dest)
        if cell is None:
            raise GraphError(f"computation into unknown cell {dest!r}")
        old = cell.comp
        cell.comp = comp
        cell.srcs = None
        index = self.__dict__.get("consumer_index")
        if index is None:
            return
        if old is not None:
            for s in old.srcs:
                users = index.get(s)
                if users is not None:
                    users.discard(dest)
        for s in comp.srcs:
            users = index.get(s)
            if users is None:
                index[s] = {dest}
            else:
                users.add(dest)

    def sources(self, cell: RefCell) -> tuple[RefCell, ...]:
        """The cells ``cell``'s computation reads, linked on first use."""
        srcs = cell.srcs
        if srcs is None:
            refs = self.refs
            srcs = cell.srcs = tuple([refs[s] for s in cell.comp.srcs])
        return srcs

    def cell(self, name: Name) -> RefCell:
        try:
            return self.refs[name]
        except KeyError:
            raise GraphError(f"unknown cell name {name!r}") from None

    def copy(self) -> "Daig":
        """An independent graph: new cells (with no cached sources) over the
        same immutable names, computations and contents, and a copy of the
        consumer index if it is built."""
        out = Daig(self.entry_name, self.entry_state)
        out.refs = {n: RefCell(c.name, c.ty, c.contents, c.comp) for n, c in self.refs.items()}
        index = self.__dict__.get("consumer_index")
        if index is not None:
            out.consumer_index = {n: set(s) for n, s in index.items()}
        return out

    # -- reachability ---------------------------------------------------------

    def forward_set(self, n: Name) -> set[Name]:
        """Cells that transitively (non-reflexively) depend on ``n``."""
        index = self.consumer_index
        seen: set[Name] = set()
        stack = [n]
        while stack:
            for dest in index.get(stack.pop(), ()):
                if dest not in seen:
                    seen.add(dest)
                    stack.append(dest)
        return seen

    def backward_set(self, n: Name, stop: Optional[Name] = None) -> set[Name]:
        """Computed cells that ``n`` transitively (non-reflexively) depends
        on, walking back through computations but never past ``stop``.

        Cells without a computation (statements, the entry) end the walk and
        are left out.
        """
        refs = self.refs
        seen: set[Name] = set()
        root = refs.get(n)
        stack = [root.comp] if root is not None and root.comp is not None else []
        while stack:
            for s in stack.pop().srcs:
                if s not in seen and s != stop:
                    cell = refs.get(s)
                    if cell is not None and cell.comp is not None:
                        seen.add(s)
                        stack.append(cell.comp)
        return seen


# --- naming a CFG's cells ---------------------------------------------------


def _zero_counts(heads: tuple[Loc, ...]) -> tuple[tuple[Loc, int], ...]:
    return tuple((h, 0) for h in heads)


def head_fix_name(head: Loc, loops: LoopInfo, counts: Optional[dict[Loc, int]] = None) -> Name:
    """Fixed-point cell name of the loop at ``head``: plain for an outermost
    loop, else tagged with each enclosing head's count in ``counts`` (all
    zero when ``counts`` is left out)."""
    heads = loops.enclosing[head]
    if not heads:
        return LocN(head)
    return Iter(LocN(head), [(h, 0 if counts is None else counts[h]) for h in heads])


class LocNames(dict):
    """The cell names of one loop structure (``loops``): each location's
    ``LocN``, state cell name (its enclosing heads', and a head's own,
    counts at zero) and fix cell name (``None`` off loop heads), made once,
    on first use.  Entries follow from ``loops`` alone, so engines may
    share a table; whoever replaces ``loops`` replaces the table.

    An edit's table comes from ``daig.engine.derive_names``, and every
    engine of the edited procedure shares it.  It starts with every entry
    of the table before it: an entry follows from the location's enclosing
    heads and whether it is a head, and no edit form changes either for an
    existing location, since edits only add locations and relabel edges.
    A deletion edit that removes locations or loops must revisit this."""

    __slots__ = ("loops",)

    def __init__(self, loops: LoopInfo):
        self.loops = loops

    def __missing__(self, loc: Loc) -> tuple[LocN, Name, Optional[Name]]:
        loops = self.loops
        ln = LocN(loc)
        heads = loops.enclosing[loc]
        if loc in loops.natural_loops:
            out = (ln, Iter(ln, _zero_counts(heads + (loc,))), head_fix_name(loc, loops))
        else:
            out = (ln, Iter(ln, _zero_counts(heads)) if heads else ln, None)
        self[loc] = out
        return out


class Bumps(dict):
    """The loop at ``head``'s table from a name to the same cell's name one
    iteration of the loop later, each made on first use.  Only the count of
    ``head`` is bumped, which the name of every state cell inside the loop
    carries and no other name does; a product's parts are bumped in place,
    and are never products that carry it (the only nested product names a
    statement), so statement names and names outside the loop map to
    themselves."""

    __slots__ = ("head",)

    def __init__(self, head: Loc):
        self.head = head

    def __missing__(self, n: Name) -> Name:
        if n[0] != 3:
            out = self._part(n)
        else:
            left, right = self._part(n[1]), self._part(n[2])
            out = n if left is n[1] and right is n[2] else Prod(left, right)
        self[n] = out
        return out

    def _part(self, n: Name) -> Name:
        if n[0] == 2:
            for h, c in n[2]:
                if h == self.head:
                    return n.with_count(h, c + 1)
        return n


def stmt_cell_locs(name: Name) -> tuple[Loc, Loc]:
    """(source, destination) locations encoded in a statement cell name."""
    if isinstance(name, Prod) and isinstance(name.left, IdxN):
        name = name.right
    if (
        isinstance(name, Prod)
        and isinstance(name.left, LocN)
        and isinstance(name.right, LocN)
    ):
        return name.left.loc, name.right.loc
    raise GraphError(f"not a statement cell name: {name!r}")


def state_loc(name: Name) -> tuple[Loc, bool]:
    """(location, inside a loop) of the state cell ``name``.  A pre-join
    cell ``Prod(IdxN, n)`` and a pre-widen cell ``Prod(n, iterate one)`` are
    placed by their right part.  An outermost head's first iterate, the
    only iterate counted ``((head, 0),)``, is not inside: it and its
    pre-join cells read only cells outside the loop, as a ``LocN`` does."""
    if isinstance(name, Prod):
        name = name.right
    if isinstance(name, LocN):
        return name.loc, False
    loc = name.base.loc
    return loc, name.counts != ((loc, 0),)


# --- initial construction ----------------------------------------------------


class UnsupportedCfg(CfgError):
    pass


def dest_structures(
    cfg: Cfg, names: LocNames, locs: Iterable[Loc], refs: dict[Name, RefCell]
) -> None:
    """Add to ``refs`` the cells encoding all flow into each location of
    ``locs``, in order, each state cell with the computation into it in
    place, named through ``names``.

    This is the one place a location's cells are made: a fresh graph
    (:func:`init_daig`) is these cells over every location plus the
    pre-filled entry, which is not among them; edit surgery
    (``Engine.splice``) adopts them for the locations an edit touches.  A
    flow leaving a loop at its head reads the fixed point, not the iterate.
    """
    loops = names.loops
    natural, join_indices, fwd_in = loops.natural_loops, loops.join_indices, loops.fwd_in
    for d in locs:
        ln, n_d, fix = names[d]
        indexed = join_indices.get(d)
        pres = []
        into = None
        # Outside join_indices a location has at most one forward edge in.
        for i, e in enumerate(fwd_in[d] if indexed is None else indexed, 1):
            src = e.src
            s_ln, read, s_fix = names[src]
            if s_fix is not None and d not in natural[src]:
                read = s_fix
            sname = Prod(s_ln, ln)
            if indexed is None:
                refs[sname] = RefCell(sname, STMT, e.stmt)
                into = _comp((n_d, TRANSFER, (sname, read)))
            else:
                idx = IdxN(i)
                sname = Prod(idx, sname)
                pre = Prod(idx, n_d)
                refs[sname] = RefCell(sname, STMT, e.stmt)
                refs[pre] = RefCell(pre, STATE, None, _comp((pre, TRANSFER, (sname, read))))
                pres.append(pre)
        if indexed is not None:
            into = _comp((n_d, JOIN, tuple(pres)))
        if d != cfg.entry:
            refs[n_d] = RefCell(n_d, STATE, None, into)
        if fix is not None:
            back = loops.back_edge_of(d)
            iter1 = n_d.with_count(d, 1)
            pre_w = Prod(n_d, iter1)
            s_ln, read, s_fix = names[back.src]
            if s_fix is not None and back.src != d:  # the body ends in an inner loop
                read = s_fix
            sname = Prod(s_ln, ln)
            refs[sname] = RefCell(sname, STMT, back.stmt)
            refs[pre_w] = RefCell(pre_w, STATE, None, _comp((pre_w, TRANSFER, (sname, read))))
            refs[iter1] = RefCell(iter1, STATE, None, _comp((iter1, WIDEN, (n_d, pre_w))))
            refs[fix] = RefCell(fix, STATE, None, _comp((fix, FIX, (n_d, iter1))))


def _check_structured_loops(cfg: Cfg, loops: LoopInfo) -> None:
    for e in loops.fwd_edges:
        for h in loops.enclosing[e.src]:
            if e.dst not in loops.natural_loops[h]:
                raise UnsupportedCfg(
                    f"forward edge l{e.src} -> l{e.dst} leaves the loop headed "
                    f"at l{h} from inside its body; loops may only be exited "
                    "at their head"
                )


def init_daig(cfg: Cfg, names: LocNames, domain, entry_state=None) -> Daig:
    """Fresh graph for a CFG: statement cells filled, the entry state cell
    pre-filled, every other abstract-state cell empty, loops encoded at
    unrolling depth one.

    The cells are :func:`dest_structures` over every location, named
    through the table ``names`` of the CFG's loop structure; a final pass
    links each computed cell's sources, so a first demand looks up no
    names.  The build fills no index: the consumer index is derived on
    first read (see :class:`Daig`), which a query-only engine never makes,
    and the first edit pays O(cells) for once.
    """
    loops = names.loops
    _check_structured_loops(cfg, loops)
    entry = cfg.entry
    if entry in loops.natural_loops or loops.enclosing[entry]:
        raise UnsupportedCfg("the entry location may not participate in a loop")
    if entry_state is None:
        entry_state = domain.init()
    entry_name = names[entry][0]
    d = Daig(entry_name=entry_name, entry_state=entry_state)
    refs = d.refs
    refs[entry_name] = RefCell(entry_name, STATE, entry_state)
    dest_structures(cfg, names, sorted(cfg.locs), refs)
    cell_of = refs.__getitem__
    for cell in refs.values():
        comp = cell.comp
        if comp is not None:
            cell.srcs = tuple(map(cell_of, comp[2]))
    return d


# --- unrolling ----------------------------------------------------------------


def fix_head(fix_dest: Name) -> Loc:
    """The loop head whose fixed point the fix cell ``fix_dest`` holds."""
    if isinstance(fix_dest, LocN):
        return fix_dest.loc
    if isinstance(fix_dest, Iter):
        return fix_dest.base.loc
    raise GraphError(f"not a fix cell name: {fix_dest!r}")


def unroll(d: Daig, fix: Computation) -> set[Name]:
    """Extend the loop of ``fix`` by one abstract iteration: the only code
    that makes a loop's iterates beyond the first.

    Cells strictly between the two iterate sources (plus the final iterate
    itself) are copied with their iteration count bumped, and the fix edge
    slides forward.  Unrolling rewrites only what is missing: a cell left
    by an earlier roll-back is reused, and a copied computation equal to
    the one in place is skipped, keeping its cell's source links.  Each
    name is bumped once per call, through the loop's :class:`Bumps` table.
    Statement cells carry no iteration counts, so program syntax is never
    duplicated.

    The region is found by walking back from the final iterate through
    computations, never past the first: a natural loop is entered only
    through its head, so this is exactly the set of computed cells both
    downstream of the first iterate and upstream of the final one.  It
    costs O(body x nesting), not a walk to the end of the program; stale
    deeper iterates of an inner loop rolled back by an edit are read by no
    live computation, so the walk never reaches them.  Returns the cells
    strictly between the two iterates, which were copied with the final one.
    """
    refs = d.refs
    first, final = fix.srcs
    between = d.backward_set(final, stop=first)
    region = sorted(between | {final})
    bumped = Bumps(fix_head(fix.dest))
    for n in region:
        nn = bumped[n]
        if nn not in refs:
            refs[nn] = RefCell(nn, STATE)
    for n in region:
        comp = refs[n].comp
        if comp is None:
            raise GraphError(f"loop region cell {n!r} has no computation")
        srcs = tuple([bumped[s] for s in comp.srcs])
        dest = bumped[n]
        if comp.fn is FIX:
            # A nested loop starts a fresh convergence in the new outer
            # iteration: its fix edge is copied at depth one, not at the
            # old instance's final depth.
            inner = fix_head(dest)
            final_src = srcs[1]
            assert isinstance(final_src, Iter)
            srcs = (final_src.with_count(inner, 0), final_src.with_count(inner, 1))
        cur = refs[dest].comp
        if cur is not None and cur.fn is comp.fn and cur.srcs == srcs:
            continue
        d.set_comp(_comp((dest, comp.fn, srcs)))
    d.set_comp(_comp((fix.dest, FIX, (final, bumped[final]))))
    return between


# --- checkers -----------------------------------------------------------------


def check_wf(d: Daig) -> list[Violation]:
    """The five well-formedness conditions, plus intact cell links and an
    exact consumer index; an empty list means well-formed.

    An edit's dirtying and propagation read only ``consumer_index``, so it
    must be exactly the inverse of the cells' computations: a name lists
    every cell whose computation reads it and no other (an empty set is
    allowed).  This is a first read: it builds the index of a graph that
    has none (a query-only engine's), so a debug engine keeps it from its
    fresh graph on and every later check tests what :meth:`Daig.set_comp`
    maintained.
    """
    out: list[Violation] = []
    refs = d.refs
    users: dict[Name, set[Name]] = {}  # the consumer index the computations imply
    for name, cell in refs.items():
        if cell.name != name:
            out.append(Violation("BadName", name, "cell keyed under a different name"))
        comp = cell.comp
        if cell.srcs is not None and (
            comp is None
            or len(cell.srcs) != len(comp.srcs)
            or any(c is not refs.get(s) for c, s in zip(cell.srcs, comp.srcs))
        ):
            out.append(Violation("StaleLink", name, "cached sources are not its computation's"))
        if comp is None:
            continue
        if comp.dest != name:
            out.append(Violation("BadDest", name, "cell holds a computation into another cell"))
            continue
        for s in comp.srcs:
            users.setdefault(s, set()).add(name)
        missing = [s for s in comp.srcs if s not in refs]
        for s in missing:
            out.append(Violation("MissingRef", s, f"source of {name!r} has no cell"))
        if missing:
            continue
        arity = _ARITY.get(comp.fn)
        if arity is not None and len(comp.srcs) != arity:
            out.append(Violation("BadArity", name, f"{comp.fn.value} takes {arity} sources"))
        if comp.fn is JOIN and len(comp.srcs) < 2:
            out.append(Violation("BadArity", name, "join takes at least 2 sources"))
        if cell.ty is not STATE:
            out.append(Violation("BadType", name, "computation into a non-state cell"))
        expect_stmt_first = comp.fn is TRANSFER
        for i, s in enumerate(comp.srcs):
            want = STMT if (expect_stmt_first and i == 0) else STATE
            if refs[s].ty is not want:
                out.append(Violation("BadType", s, f"source {i} of {name!r} should be {want.value}"))

    # acyclicity by Kahn's algorithm over the computation hyperedges
    indeg = {n: 0 for n in refs}
    for name, cell in refs.items():
        comp = cell.comp
        if comp is not None and comp.dest == name and all(s in refs for s in comp.srcs):
            indeg[name] = len(set(comp.srcs))
    ready = [n for n, k in indeg.items() if k == 0]
    removed = 0
    while ready:
        n = ready.pop()
        removed += 1
        for dest in users.get(n, ()):
            if indeg[dest] > 0:
                indeg[dest] -= 1
                if indeg[dest] == 0:
                    ready.append(dest)
    if removed != len(indeg):
        stuck = sorted(n for n, k in indeg.items() if k > 0)
        for n in stuck[:1]:
            out.append(Violation("Acyclicity", n, "cell participates in a dependency cycle"))

    stale: list[Violation] = []
    index = d.consumer_index
    for s, want in users.items():
        for u in want - index.get(s, _NO_NAMES):
            stale.append(Violation("StaleIndex", s, f"consumer {u!r} is not indexed"))
    for s, have in index.items():
        for u in have - users.get(s, _NO_NAMES):
            stale.append(Violation("StaleIndex", s, f"indexed consumer {u!r} does not read it"))
    out += sorted(stale, key=lambda v: (v.name, v.detail))

    for name, cell in refs.items():
        if cell.is_empty() and cell.comp is None:
            out.append(Violation("EmptyNeedsDep", name, "empty cell has no incoming computation"))
    return out


def check_cfg_consistency(
    d: Daig, cfg: Cfg, loops: LoopInfo, reasons: Optional[list[str]] = None
) -> bool:
    """Whether the graph encodes this CFG's abstract interpretation.

    The graph is compared with a from-scratch reference: a fresh graph
    (:func:`init_daig`) with each live loop unrolled by :func:`unroll` to
    the depth the graph's own fix computation shows, outer loops first,
    since unrolling an outer loop makes its inner loops' instances.  Every
    reference cell must be in the graph with the same type, statement and
    computation, fix computations included; extra cells, the iterates a
    roll-back leaves behind, are allowed.
    """

    def fail(msg: str) -> bool:
        if reasons is not None:
            reasons.append(msg)
        return False

    if d.entry_name != LocN(cfg.entry):
        return fail("entry cell name does not match the CFG entry")
    ref = init_daig(cfg, LocNames(loops), None, d.entry_state)
    refs = d.refs
    heads = sorted(loops.natural_loops, key=lambda h: (len(loops.enclosing[h]), h))
    for h in heads:
        fixes = [n for n, c in ref.refs.items() if c.comp is not None and c.comp.fn is FIX]
        for name in sorted(n for n in fixes if fix_head(n) == h):
            cell = refs.get(name)
            comp = None if cell is None else cell.comp
            if comp is None:
                return fail(f"missing fix computation at {name!r}")
            final = comp.srcs[-1] if comp.fn is FIX and comp.srcs else None
            k = final.count_of(h) if isinstance(final, Iter) else 0
            # A bound on the depth keeps a corrupt graph from driving the
            # reference into an endless unroll.
            if not 1 <= k <= len(refs):
                return fail(f"fix computation at {name!r} is malformed: {comp!r}")
            for _ in range(k - 1):
                unroll(ref, ref.refs[name].comp)

    for name, want in ref.refs.items():
        cell = refs.get(name)
        if cell is None:
            return fail(f"missing cell {name!r}")
        if cell.ty is not want.ty:
            return fail(f"cell {name!r} has type {cell.ty.value}, wanted {want.ty.value}")
        if want.ty is STMT and cell.contents != want.contents:
            return fail(
                f"statement cell {name!r} holds {stmt_text(cell.contents)!r}, "
                f"wanted {stmt_text(want.contents)!r}"
            )
        if cell.comp != want.comp:
            return fail(f"computation at {name!r} is {cell.comp!r}, wanted {want.comp!r}")
    return True


def check_ai_consistency(d: Daig, domain, reasons: Optional[list[str]] = None) -> bool:
    """Whether every filled state cell equals its computation over filled
    sources (fix cells must equal both of their converged sources).

    Transfer computations over call statements are structural only: their
    values are trusted.
    """
    def fail(msg: str) -> bool:
        if reasons is not None:
            reasons.append(msg)
        return False

    entry = d.refs.get(d.entry_name)
    if entry is None or entry.is_empty() or not domain.equal(entry.contents, d.entry_state):
        return fail("entry cell does not hold the initial abstract state")

    for name, cell in d.refs.items():
        if cell.ty is not STATE or cell.is_empty():
            continue
        comp = cell.comp
        if comp is None:
            continue
        vals = []
        for s in comp.srcs:
            sc = d.refs.get(s)
            if sc is None or sc.is_empty():
                return fail(f"filled cell {name!r} has empty source {s!r}")
            vals.append(sc.contents)
        if comp.fn is FIX:
            if not (domain.equal(vals[0], vals[1]) and domain.equal(cell.contents, vals[0])):
                return fail(f"fix cell {name!r} does not equal its converged iterates")
        elif comp.fn is TRANSFER:
            if isinstance(vals[0], Call):
                continue
            if not domain.equal(cell.contents, domain.transfer(vals[0], vals[1])):
                return fail(f"transfer result at {name!r} is stale")
        elif comp.fn is JOIN:
            acc = vals[0]
            for v in vals[1:]:
                acc = domain.join(acc, v)
            if not domain.equal(cell.contents, acc):
                return fail(f"join result at {name!r} is stale")
        elif comp.fn is WIDEN:
            if not domain.equal(cell.contents, domain.widen(vals[0], vals[1])):
                return fail(f"widen result at {name!r} is stale")
    return True


# --- rendering -----------------------------------------------------------------


def to_dot(d: Daig, domain=None) -> str:
    """Graphviz rendering: cells as boxes (filled when they hold a value),
    computations as labelled junction points fanning in their sources."""
    ids: dict[Name, str] = {}

    def nid(n: Name) -> str:
        if n not in ids:
            ids[n] = f"n{len(ids)}"
        return ids[n]

    def esc(s: str) -> str:
        return s.replace("\\", "\\\\").replace('"', '\\"')

    lines = ["digraph daig {", "  rankdir=TB;", '  node [fontsize=10];']
    for name, cell in sorted(d.refs.items()):
        label = repr(name)
        if cell.ty is STMT:
            label += "\\n" + esc(stmt_text(cell.contents))
            style = "rounded,filled"
            fill = "gray92"
        elif not cell.is_empty():
            shown = domain.to_text(cell.contents) if domain else repr(cell.contents)
            label += "\\n" + esc(shown)
            style = "filled"
            fill = "lightyellow"
        else:
            style = "dashed"
            fill = "white"
        lines.append(
            f'  {nid(name)} [shape=box, style="{style}", fillcolor={fill}, label="{esc(label)}"];'
        )
    comps = [cell.comp for cell in d.refs.values() if cell.comp is not None]
    for i, comp in enumerate(sorted(comps, key=lambda c: c.dest)):
        j = f"f{i}"
        lines.append(f'  {j} [shape=point, xlabel="{comp.fn.value}"];')
        for s in comp.srcs:
            lines.append(f"  {nid(s)} -> {j} [arrowhead=none];")
        lines.append(f"  {j} -> {nid(comp.dest)};")
    lines.append("}")
    return "\n".join(lines)
