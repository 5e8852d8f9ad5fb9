"""Reified analysis graphs: named cells, computation hyperedges, checkers.

A graph holds uniquely named mutable reference cells (program statements
and abstract states) connected by function-labelled computations with a
single destination each.  Loops are encoded acyclically: a loop head owns
numbered abstract-iterate cells chained by widening, and a distinguished
``fix`` computation from the two greatest iterates to the head's
fixed-point cell stands in for the cyclic dependency.

Names are interned: each kind is built through a table of its live names,
so equal names are the same object and compare by identity.  Unpickling and
copying go through the constructors and re-intern.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Union
from weakref import ref

from .lang.cfg import Cfg, CfgError, Loc
from .lang.loops import LoopInfo
from .lang.syntax import Call, stmt_text

# --- names ----------------------------------------------------------------
#
# Identity is equality, and names hash by identity too, so dict and set
# operations on names never call back into Python.  The tables hold weak
# references: a name lives only as long as some graph or caller holds it.
# An identity hash follows the name's address, so the iteration order of a
# set of names can differ between runs: whatever such an order could reach
# an output is sorted by ``name_key`` first, or does not depend on order.


class _Entry(ref):
    """A weak reference to an interned name, carrying its table and key."""

    __slots__ = ("table", "key")


def _forget(entry: _Entry) -> None:
    """Drop a dead name's entry, unless a newer name has taken its key."""
    if entry.table.get(entry.key) is entry:
        del entry.table[entry.key]


_LOCN: dict = {}
_IDXN: dict = {}
_PROD: dict = {}
_ITER: dict = {}


def _intern(table: dict, key, name: "Name") -> "Name":
    entry = table[key] = _Entry(name, _forget)
    entry.table = table
    entry.key = key
    return name


class LocN:
    __slots__ = ("loc", "__weakref__")

    def __new__(cls, loc: Loc) -> "LocN":
        entry = _LOCN.get(loc)
        if entry is not None:
            self = entry()
            if self is not None:
                return self
        self = object.__new__(cls)
        self.loc = loc
        return _intern(_LOCN, loc, self)

    def __reduce__(self):
        return (LocN, (self.loc,))

    def __repr__(self):
        return f"l{self.loc}"


class IdxN:
    __slots__ = ("index", "__weakref__")

    def __new__(cls, index: int) -> "IdxN":
        entry = _IDXN.get(index)
        if entry is not None:
            self = entry()
            if self is not None:
                return self
        self = object.__new__(cls)
        self.index = index
        return _intern(_IDXN, index, self)

    def __reduce__(self):
        return (IdxN, (self.index,))

    def __repr__(self):
        return str(self.index)


class Prod:
    """Right-nested name product; use :func:`prod` to build canonically."""

    __slots__ = ("left", "right", "__weakref__")

    def __new__(cls, left: "Name", right: "Name") -> "Prod":
        assert not isinstance(left, Prod), "products are right-nested"
        # The parts are interned and a product holds them, so their ids name
        # them for as long as the product's entry lives.
        key = (id(left), id(right))
        entry = _PROD.get(key)
        if entry is not None:
            self = entry()
            if self is not None:
                return self
        self = object.__new__(cls)
        self.left = left
        self.right = right
        return _intern(_PROD, key, self)

    def __reduce__(self):
        return (Prod, (self.left, self.right))

    def __repr__(self):
        return f"{self.left!r}.{self.right!r}"


def _iter(base: LocN, counts: tuple[tuple[Loc, int], ...]) -> "Iter":
    """The interned ``Iter`` for ``counts`` already sorted by head."""
    key = (base.loc, counts)
    entry = _ITER.get(key)
    if entry is not None:
        self = entry()
        if self is not None:
            return self
    assert counts, "Iter requires at least one loop-head count"
    self = object.__new__(Iter)
    self.base = base
    self.counts = counts
    return _intern(_ITER, key, self)


class Iter:
    """A location name tagged with one iteration count per enclosing loop head."""

    __slots__ = ("base", "counts", "__weakref__")

    def __new__(cls, base: LocN, counts: Iterable[tuple[Loc, int]]) -> "Iter":
        return _iter(base, tuple(sorted(counts)))

    def count_of(self, head: Loc) -> int:
        for h, c in self.counts:
            if h == head:
                return c
        return 0

    def with_count(self, head: Loc, value: int) -> "Iter":
        if any(h == head for h, _ in self.counts):
            return _iter(
                self.base, tuple((h, value if h == head else c) for h, c in self.counts)
            )
        return Iter(self.base, self.counts + ((head, value),))

    def __reduce__(self):
        return (Iter, (self.base, self.counts))

    def __repr__(self):
        if len(self.counts) == 1:
            return f"{self.base!r}^({self.counts[0][1]})"
        inner = ",".join(f"l{h}:{c}" for h, c in self.counts)
        return f"{self.base!r}^({inner})"


Name = Union[LocN, IdxN, Prod, Iter]


def prod(*parts: Name) -> Name:
    """Right-nested product of names (a single part is itself)."""
    assert parts
    out = parts[-1]
    for p in reversed(parts[:-1]):
        if isinstance(p, Prod):
            out = prod(p.left, prod(p.right, out))
        else:
            out = Prod(p, out)
    return out


def name_key(n: Name) -> tuple:
    if isinstance(n, LocN):
        return (0, n.loc)
    if isinstance(n, IdxN):
        return (1, n.index)
    if isinstance(n, Iter):
        return (2, name_key(n.base), n.counts)
    if isinstance(n, Prod):
        return (3, name_key(n.left), name_key(n.right))
    raise TypeError(n)


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

    A fresh graph (:func:`init_daig`) makes each cell with its computation
    in place and links every computed cell's sources; after that, only
    :meth:`Daig.set_comp` writes ``comp``.

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


_ARITY = {TRANSFER: 2, WIDEN: 2, FIX: 2}


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
    """Mutable cell/computation store with a consumer index for dirtying.

    ``comps`` maps each computed cell's name to its computation, and the
    cell links the same object; ``consumer_index`` maps a name to the
    names of the cells whose computations read it; ``fix_by_final`` maps
    the final iterate of each fix computation to that computation's
    destination.
    """

    def __init__(self, entry_name: Name, entry_state):
        self.refs: dict[Name, RefCell] = {}
        self.comps: dict[Name, Computation] = {}
        self.entry_name = entry_name
        self.entry_state = entry_state
        self.consumer_index: dict[Name, set[Name]] = {}
        self.fix_by_final: dict[Name, Name] = {}

    # -- construction and mutation ------------------------------------------

    def add_cell(self, name: Name, ty: CellType, contents=None) -> RefCell:
        if name in self.refs:
            raise GraphError(f"duplicate cell name {name!r}")
        cell = RefCell(name, ty, contents)
        self.refs[name] = cell
        return cell

    def set_comp(self, comp: Computation) -> None:
        """Make ``comp`` the computation into its (existing) destination
        cell, replacing any previous one and its source links."""
        dest = comp.dest
        cell = self.refs.get(dest)
        if cell is None:
            raise GraphError(f"computation into unknown cell {dest!r}")
        index = self.consumer_index
        old = cell.comp
        if old is not None:
            for s in old.srcs:
                users = index.get(s)
                if users is not None:
                    users.discard(dest)
            if old.fn is FIX:
                self.fix_by_final.pop(old.srcs[1], None)
        self.comps[dest] = comp
        cell.comp = comp
        cell.srcs = None
        for s in comp.srcs:
            users = index.get(s)
            if users is None:
                index[s] = {dest}
            else:
                users.add(dest)
        if comp.fn is FIX:
            self.fix_by_final[comp.srcs[1]] = dest

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

    def value(self, name: Name):
        return self.cell(name).contents

    def copy(self) -> "Daig":
        """An independent graph: new cells (with no cached sources) over the
        same immutable names, computations and contents."""
        out = Daig(self.entry_name, self.entry_state)
        out.refs = {n: RefCell(c.name, c.ty, c.contents, c.comp) for n, c in self.refs.items()}
        out.comps = dict(self.comps)
        out.consumer_index = {n: set(s) for n, s in self.consumer_index.items()}
        out.fix_by_final = dict(self.fix_by_final)
        return out

    # -- reachability ---------------------------------------------------------

    def forward_set(self, n: Name) -> set[Name]:
        """Cells that transitively (non-reflexively) depend on ``n``."""
        seen: set[Name] = set()
        stack = [n]
        while stack:
            for dest in self.consumer_index.get(stack.pop(), ()):
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
        comps = self.comps
        seen: set[Name] = set()
        stack = [n] if n in comps else []
        while stack:
            for s in comps[stack.pop()].srcs:
                if s not in seen and s is not stop and s in comps:
                    seen.add(s)
                    stack.append(s)
        return seen


# --- naming a CFG's cells ---------------------------------------------------


def _zero_counts(heads: tuple[Loc, ...]) -> tuple[tuple[Loc, int], ...]:
    return tuple((h, 0) for h in heads)


def loc_state_name(loc: Loc, loops: LoopInfo) -> Name:
    """Initial abstract-state cell name: iterate-0 inside loops, plain outside.

    A loop head's own initial name is its 0th iterate; its fixed point lives
    in the separate cell named by :func:`head_fix_name`.
    """
    heads = loops.enclosing_heads(loc)
    if loc in loops.natural_loops:
        heads = heads + (loc,)
    if not heads:
        return LocN(loc)
    return Iter(LocN(loc), _zero_counts(heads))


def head_iter_name(head: Loc, i: int, loops: LoopInfo) -> Iter:
    counts = _zero_counts(loops.enclosing_heads(head)) + ((head, i),)
    return Iter(LocN(head), counts)


def head_fix_name(head: Loc, loops: LoopInfo) -> Name:
    heads = loops.enclosing_heads(head)
    if not heads:
        return LocN(head)
    return Iter(LocN(head), _zero_counts(heads))


def prewiden_name(head: Loc, loops: LoopInfo) -> Name:
    return Prod(head_iter_name(head, 0, loops), head_iter_name(head, 1, loops))


def src_nm(src: Loc, dst: Loc, loops: LoopInfo) -> Name:
    """State cell read by the flow ``src -> dst``: the fixed point when the
    flow leaves a loop at its head, the current iterate otherwise."""
    if src in loops.natural_loops and dst != src and dst not in loops.natural_loops[src]:
        return head_fix_name(src, loops)
    return loc_state_name(src, loops)


def incr_name(n: Name, head: Loc, loops: LoopInfo) -> Name:
    """Bump the ``head`` iteration count in names rooted in that loop.

    Identity on everything else; distributes over products, so statement
    cell names (bare location products) never change.
    """
    if isinstance(n, Prod):
        left = incr_name(n.left, head, loops)
        right = incr_name(n.right, head, loops)
        if left is n.left and right is n.right:
            return n
        return Prod(left, right)
    if isinstance(n, Iter):
        base = n.base.loc
        if base == head or base in loops.natural_loops.get(head, frozenset()):
            return n.with_count(head, n.count_of(head) + 1)
        return n
    return n


def incr_comp(c: Computation, head: Loc, loops: LoopInfo) -> Computation:
    return Computation(
        dest=incr_name(c.dest, head, loops),
        fn=c.fn,
        srcs=tuple(incr_name(s, head, loops) for s in c.srcs),
    )


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


# --- initial construction ----------------------------------------------------


class UnsupportedCfg(CfgError):
    pass


CellSpec = tuple[Name, CellType, object]


def dest_structures(
    cfg: Cfg, loops: LoopInfo, d: Loc
) -> tuple[list[CellSpec], list[Computation]]:
    """Cells and computations encoding all flow into location ``d``.

    The union over locations (plus the pre-filled entry) is the initial
    graph; the same templates drive consistency checking and the structural
    surgery after program edits.
    """
    cells: list[CellSpec] = []
    comps: list[Computation] = []
    n_d = loc_state_name(d, loops)
    if d != cfg.entry:
        cells.append((n_d, STATE, None))

    indexed = loops.join_indices.get(d)
    if indexed is not None:
        operands = []
        for pos, e in enumerate(indexed):
            i = pos + 1
            sname = prod(IdxN(i), LocN(e.src), LocN(d))
            pre = Prod(IdxN(i), n_d)
            cells.append((sname, STMT, e.stmt))
            cells.append((pre, STATE, None))
            comps.append(Computation(pre, TRANSFER, (sname, src_nm(e.src, d, loops))))
            operands.append(pre)
        comps.append(Computation(n_d, JOIN, tuple(operands)))
    else:
        for e in loops.fwd_in[d]:
            sname = Prod(LocN(e.src), LocN(d))
            cells.append((sname, STMT, e.stmt))
            comps.append(Computation(n_d, TRANSFER, (sname, src_nm(e.src, d, loops))))

    if d in loops.natural_loops:
        back = loops.back_edge_of(d)
        iter1 = head_iter_name(d, 1, loops)
        pre_w = prewiden_name(d, loops)
        fix = head_fix_name(d, loops)
        sname = Prod(LocN(back.src), LocN(d))
        cells.append((sname, STMT, back.stmt))
        cells.append((iter1, STATE, None))
        cells.append((pre_w, STATE, None))
        cells.append((fix, STATE, None))
        comps.append(Computation(pre_w, TRANSFER, (sname, src_nm(back.src, d, loops))))
        comps.append(Computation(iter1, WIDEN, (head_iter_name(d, 0, loops), pre_w)))
        comps.append(Computation(fix, FIX, (head_iter_name(d, 0, loops), iter1)))
    return cells, comps


def _check_structured_loops(cfg: Cfg, loops: LoopInfo) -> None:
    for e in loops.fwd_edges:
        for h in loops.enclosing_heads(e.src):
            if e.dst not in loops.natural_loops[h]:
                raise UnsupportedCfg(
                    f"forward edge l{e.src} -> l{e.dst} leaves the loop headed "
                    f"at l{h} from inside its body; loops may only be exited "
                    "at their head"
                )


def init_daig(cfg: Cfg, loops: LoopInfo, domain, entry_state=None) -> Daig:
    """Fresh graph for a CFG: statement cells filled, the entry state cell
    pre-filled, every other abstract-state cell empty, loops encoded at
    unrolling depth one.

    One pass over the locations makes each cell with its computation in
    place, and a final pass over the cells links each computed cell's
    sources, so a first demand looks up no names.  The result equals the
    union of :func:`dest_structures` over every location, which
    :func:`template_daig` builds as the reference.
    """
    _check_structured_loops(cfg, loops)
    entry = cfg.entry
    natural = loops.natural_loops
    enclosing = loops.enclosing
    if entry in natural or enclosing[entry]:
        raise UnsupportedCfg("the entry location may not participate in a loop")
    if entry_state is None:
        entry_state = domain.init()
    locs = sorted(cfg.locs)

    # Each location's name and state cell name, and each head's fix cell
    # name, are made once (see loc_state_name and head_fix_name).
    loc_n: dict[Loc, LocN] = {}
    state: dict[Loc, Name] = {}
    fix: dict[Loc, Name] = {}
    for loc in locs:
        ln = loc_n[loc] = LocN(loc)
        enc = enclosing[loc]
        zeros = [(h, 0) for h in enc] if enc else []
        if loc in natural:
            fix[loc] = Iter(ln, zeros) if enc else ln
            state[loc] = Iter(ln, zeros + [(loc, 0)])
        else:
            state[loc] = Iter(ln, zeros) if enc else ln

    def read(src: Loc, dst: Loc) -> Name:  # src_nm
        body = natural.get(src)
        if body is not None and dst != src and dst not in body:
            return fix[src]
        return state[src]

    d = Daig(entry_name=loc_n[entry], entry_state=entry_state)
    refs = d.refs
    fix_by_final = d.fix_by_final
    join_indices, fwd_in = loops.join_indices, loops.fwd_in
    for loc in locs:
        ln, n = loc_n[loc], state[loc]
        indexed = join_indices.get(loc)
        into = None
        if indexed is not None:
            pres = []
            for i, e in enumerate(indexed, 1):
                idx = IdxN(i)
                sname = Prod(idx, Prod(loc_n[e.src], ln))
                pre = Prod(idx, n)
                refs[sname] = RefCell(sname, STMT, e.stmt)
                refs[pre] = RefCell(
                    pre, STATE, None, Computation(pre, TRANSFER, (sname, read(e.src, loc)))
                )
                pres.append(pre)
            into = Computation(n, JOIN, tuple(pres))
        else:
            # Outside join_indices a location has at most one forward edge in.
            for e in fwd_in[loc]:
                sname = Prod(loc_n[e.src], ln)
                refs[sname] = RefCell(sname, STMT, e.stmt)
                into = Computation(n, TRANSFER, (sname, read(e.src, loc)))
        refs[n] = RefCell(n, STATE, entry_state if loc == entry else None, into)
        if loc in natural:
            back = loops.back_edge_of(loc)
            iter1 = n.with_count(loc, 1)
            pre_w = Prod(n, iter1)
            f = fix[loc]
            sname = Prod(loc_n[back.src], ln)
            refs[sname] = RefCell(sname, STMT, back.stmt)
            refs[iter1] = RefCell(iter1, STATE, None, Computation(iter1, WIDEN, (n, pre_w)))
            refs[pre_w] = RefCell(
                pre_w, STATE, None, Computation(pre_w, TRANSFER, (sname, read(back.src, loc)))
            )
            refs[f] = RefCell(f, STATE, None, Computation(f, FIX, (n, iter1)))
            fix_by_final[iter1] = f

    comps, index = d.comps, d.consumer_index
    for name, cell in refs.items():
        comp = cell.comp
        if comp is not None:
            comps[name] = comp
            srcs = comp.srcs
            cell.srcs = tuple([refs[s] for s in srcs])
            for s in srcs:
                users = index.get(s)
                if users is None:
                    index[s] = {name}
                else:
                    users.add(name)
    return d


def template_daig(cfg: Cfg, loops: LoopInfo, entry_state) -> Daig:
    """The fresh graph as the union of :func:`dest_structures` over every
    location, built through :meth:`Daig.add_cell` and :meth:`Daig.set_comp`:
    the reference :func:`init_daig` is checked against."""
    d = Daig(entry_name=LocN(cfg.entry), entry_state=entry_state)
    d.add_cell(LocN(cfg.entry), STATE, entry_state)
    for loc in sorted(cfg.locs):
        cells, comps = dest_structures(cfg, loops, loc)
        for name, ty, contents in cells:
            if name not in d.refs:
                d.add_cell(name, ty, contents)
        for comp in comps:
            d.set_comp(comp)
    return d


def graph_differences(a: Daig, b: Daig) -> list[str]:
    """Where two graphs differ in entry, cell names, types, contents,
    computations, consumer index or fix index; empty when they agree."""
    out: list[str] = []
    if a.entry_name is not b.entry_name or a.entry_state != b.entry_state:
        out.append("entry cell differs")
    for name in sorted(a.refs.keys() ^ b.refs.keys(), key=name_key):
        out.append(f"cell {name!r} is in only one graph")
    for name, cell in a.refs.items():
        other = b.refs.get(name)
        if other is None:
            continue
        if cell.ty is not other.ty or cell.contents != other.contents:
            out.append(f"cell {name!r} is {cell!r} against {other!r}")
        if cell.comp != other.comp:
            out.append(f"cell {name!r} computes {cell.comp!r} against {other.comp!r}")
    if a.comps != b.comps:
        out.append("computation tables differ")
    if a.consumer_index != b.consumer_index:
        out.append("consumer indexes differ")
    if a.fix_by_final != b.fix_by_final:
        out.append("fix indexes differ")
    return out


# --- checkers -----------------------------------------------------------------


def check_wf(d: Daig) -> list[Violation]:
    """The five well-formedness conditions, plus intact cell links; an
    empty list means well-formed."""
    out: list[Violation] = []
    refs = d.refs
    for name, cell in refs.items():
        if cell.name != name:
            out.append(Violation("BadName", name, "cell keyed under a different name"))
        comp = cell.comp
        if comp is not d.comps.get(name):
            out.append(Violation("StaleLink", name, "cell links a computation set_comp did not record"))
        elif cell.srcs is not None and (
            comp is None
            or len(cell.srcs) != len(comp.srcs)
            or any(c is not refs.get(s) for c, s in zip(cell.srcs, comp.srcs))
        ):
            out.append(Violation("StaleLink", name, "cached sources are not its computation's"))
    for dest, comp in d.comps.items():
        if comp.dest != dest:
            out.append(Violation("BadDest", dest, "computation keyed under a different name"))
        missing = [s for s in comp.srcs if s not in d.refs]
        if comp.dest not in d.refs:
            out.append(Violation("MissingRef", comp.dest, "destination has no cell"))
        for s in missing:
            out.append(Violation("MissingRef", s, f"source of {dest!r} has no cell"))
        if missing or comp.dest not in d.refs:
            continue
        arity = _ARITY.get(comp.fn)
        if arity is not None and len(comp.srcs) != arity:
            out.append(Violation("BadArity", dest, f"{comp.fn.value} takes {arity} sources"))
        if comp.fn is JOIN and len(comp.srcs) < 2:
            out.append(Violation("BadArity", dest, "join takes at least 2 sources"))
        if d.refs[dest].ty is not STATE:
            out.append(Violation("BadType", dest, "computation into a non-state cell"))
        expect_stmt_first = comp.fn is TRANSFER
        for i, s in enumerate(comp.srcs):
            want = STMT if (expect_stmt_first and i == 0) else STATE
            if d.refs[s].ty is not want:
                out.append(Violation("BadType", s, f"source {i} of {dest!r} should be {want.value}"))

    # acyclicity by Kahn's algorithm over the computation hyperedges
    indeg = {n: 0 for n in d.refs}
    for comp in d.comps.values():
        if comp.dest in indeg and all(s in d.refs for s in comp.srcs):
            indeg[comp.dest] = len(set(comp.srcs))
    ready = [n for n, k in indeg.items() if k == 0]
    removed = 0
    while ready:
        n = ready.pop()
        removed += 1
        for dest in d.consumer_index.get(n, ()):
            comp = d.comps.get(dest)
            if comp is None or dest not in indeg:
                continue
            if n in comp.srcs:
                indeg[dest] -= len([s for s in set(comp.srcs) if s == n])
                if indeg[dest] == 0:
                    ready.append(dest)
    if removed != len(indeg):
        stuck = sorted((n for n, k in indeg.items() if k > 0), key=name_key)
        for n in stuck[:1]:
            out.append(Violation("Acyclicity", n, "cell participates in a dependency cycle"))

    for name, cell in d.refs.items():
        if cell.is_empty() and name not in d.comps:
            out.append(Violation("EmptyNeedsDep", name, "empty cell has no incoming computation"))
    return out


def _fix_depth(comp: Computation, head: Loc) -> Optional[int]:
    if comp.fn is not FIX or len(comp.srcs) != 2:
        return None
    a, b = comp.srcs
    if not (isinstance(a, Iter) and isinstance(b, Iter)):
        return None
    k = b.count_of(head)
    if a.count_of(head) != k - 1 or k < 1:
        return None
    return k


def set_counts(n: Name, version: dict[Loc, int]) -> Name:
    """Re-version a template name: overwrite the iteration counts of the
    heads mentioned in ``version``, leaving other dimensions alone."""
    if isinstance(n, Prod):
        return Prod(set_counts(n.left, version), set_counts(n.right, version))
    if isinstance(n, Iter):
        counts = tuple((h, version.get(h, c)) for h, c in n.counts)
        return Iter(n.base, counts)
    return n


def set_counts_comp(c: Computation, version: dict[Loc, int]) -> Computation:
    return Computation(
        dest=set_counts(c.dest, version),
        fn=c.fn,
        srcs=tuple(set_counts(s, version) for s in c.srcs),
    )


def check_cfg_consistency(
    d: Daig, cfg: Cfg, loops: LoopInfo, reasons: Optional[list[str]] = None
) -> bool:
    """Whether the graph encodes this CFG's abstract interpretation.

    Forward-edge and join structures must match the construction templates
    exactly; every back edge must be present at some unrolling depth k >= 1
    with all intermediate iterations in place.
    """

    def fail(msg: str) -> bool:
        if reasons is not None:
            reasons.append(msg)
        return False

    if d.entry_name != LocN(cfg.entry):
        return fail("entry cell name does not match the CFG entry")
    if d.entry_name not in d.refs:
        return fail("entry cell missing")

    template_cells: list[CellSpec] = []
    template_comps: list[Computation] = []
    for loc in sorted(cfg.locs):
        cells, comps = dest_structures(cfg, loops, loc)
        template_cells += cells
        template_comps += comps

    for name, ty, contents in template_cells:
        cell = d.refs.get(name)
        if cell is None:
            return fail(f"missing cell {name!r}")
        if cell.ty is not ty:
            return fail(f"cell {name!r} has type {cell.ty.value}, wanted {ty.value}")
        if ty is STMT and cell.contents != contents:
            return fail(
                f"statement cell {name!r} holds {stmt_text(cell.contents)!r}, "
                f"wanted {stmt_text(contents)!r}"
            )

    loop_base: dict[Loc, list[Computation]] = {h: [] for h in loops.natural_loops}

    def mentions_iter0_of(comp: Computation, h: Loc) -> bool:
        body = loops.natural_loops[h]

        def hits(n: Name) -> bool:
            if isinstance(n, Prod):
                return hits(n.left) or hits(n.right)
            return isinstance(n, Iter) and n.base.loc in body and n.count_of(h) == 0

        return any(hits(x) for x in (comp.dest,) + comp.srcs)

    for comp in template_comps:
        for h in loop_base:
            if mentions_iter0_of(comp, h):
                loop_base[h].append(comp)

    for comp in template_comps:
        if comp.fn is FIX:
            continue  # checked per live loop version below
        actual = d.comps.get(comp.dest)
        if actual is None:
            return fail(f"missing computation into {comp.dest!r}")
        if actual != comp:
            return fail(f"computation at {comp.dest!r} is {actual!r}, wanted {comp!r}")

    # Every loop must be present at every live version: once per iteration
    # count of each enclosing loop, each version at its own depth k >= 1,
    # with the full widen chain and body copies up to that depth.  Nested
    # fix structures are validated by their own versions, not as copies.
    failure: list[str] = []

    def check_loop_version(h: Loc, version: dict[Loc, int]) -> Optional[int]:
        fix_name = set_counts(head_fix_name(h, loops), version)
        actual = d.comps.get(fix_name)
        if actual is None:
            failure.append(f"missing fix computation at {fix_name!r}")
            return None
        k = _fix_depth(actual, h)
        if k is None:
            failure.append(f"fix computation at {fix_name!r} is malformed: {actual!r}")
            return None
        for i in range(k):
            it = set_counts(head_iter_name(h, i, loops), version)
            it1 = set_counts(head_iter_name(h, i + 1, loops), version)
            widen = Computation(it1, WIDEN, (it, Prod(it, it1)))
            if d.comps.get(widen.dest) != widen:
                failure.append(f"missing widen step {widen!r}")
                return None
            if it1 not in d.refs or Prod(it, it1) not in d.refs:
                failure.append(f"missing iterate cells for step {i + 1} at l{h}")
                return None
        for i in range(1, k):
            for base in loop_base[h]:
                if base.fn is FIX:
                    continue
                want = set_counts_comp(base, version)
                for _ in range(i):
                    want = incr_comp(want, h, loops)
                if d.comps.get(want.dest) != want:
                    failure.append(f"missing unrolled copy {want!r}")
                    return None
                if want.dest not in d.refs:
                    failure.append(f"missing unrolled cell {want.dest!r}")
                    return None
        return k

    heads = sorted(
        loops.natural_loops, key=lambda h: (len(loops.enclosing_heads(h)), h)
    )
    depth_at: dict[tuple[Loc, tuple[tuple[Loc, int], ...]], int] = {}
    for h in heads:
        parents = loops.enclosing_heads(h)
        if not parents:
            versions = [{}]
        else:
            parent = parents[-1]
            versions = []
            for (ph, pv), pk in depth_at.items():
                if ph != parent:
                    continue
                for i in range(pk):
                    v = dict(pv)
                    v[parent] = i
                    versions.append(v)
        for v in versions:
            k = check_loop_version(h, v)
            if k is None:
                return fail(failure[-1])
            depth_at[(h, tuple(sorted(v.items())))] = k
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
        comp = d.comps.get(name)
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
    for name, cell in sorted(d.refs.items(), key=lambda kv: name_key(kv[0])):
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
    for i, comp in enumerate(sorted(d.comps.values(), key=lambda c: name_key(c.dest))):
        j = f"f{i}"
        lines.append(f'  {j} [shape=point, xlabel="{comp.fn.value}"];')
        for s in comp.srcs:
            lines.append(f"  {nid(s)} -> {j} [arrowhead=none];")
        lines.append(f"  {j} -> {nid(comp.dest)};")
    lines.append("}")
    return "\n".join(lines)
