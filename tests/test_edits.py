import copy
import dataclasses
import pickle
import random

import pytest

from daig.batch import batch_analyze
from daig.domains import INTERVAL
from daig.engine import Engine
from daig.lang.cfg import Cfg, CfgError, Edge
from daig.lang.edits import (
    EditError,
    InsertIf,
    InsertStmtAfter,
    InsertWhile,
    RelabelEdge,
    apply_edit,
    stable_join_indices,
)
from daig.lang.loops import analyze_loops
from daig.lang.parser import parse_program, parse_stmt_text
from daig.lang.syntax import IntLit, Skip, Var, Binop, stmt_text

from helpers import APPEND_SRC, while_cfg
from daig.workload import gen_edit, gen_program_source


def test_relabel_preserves_shape():
    cfg = while_cfg()
    edge = next(e for e in cfg.edges if stmt_text(e.stmt) == "x = 0;")
    new_cfg, delta = apply_edit(cfg, RelabelEdge(edge.src, edge.dst, parse_stmt_text("x = 1;")))
    assert new_cfg.locs == cfg.locs
    assert len(new_cfg.edges) == len(cfg.edges)
    assert delta.relabelled and not delta.added_edges and not delta.removed_edges
    assert delta.apply_to(cfg.edges) == new_cfg.edges


def test_relabel_unknown_edge():
    cfg = while_cfg()
    with pytest.raises(EditError, match="no edge"):
        apply_edit(cfg, RelabelEdge(0, 99, Skip()))


def test_relabel_ambiguous_edge():
    # `if (c) {} else {}` leaves two parallel guard edges
    cfg = parse_program("fn main() { if (x < 1) { } else { } }").proc("main").cfg
    pair = [(e.src, e.dst) for e in cfg.edges]
    (src, dst) = pair[0]
    assert pair.count((src, dst)) == 2
    with pytest.raises(EditError, match="ambiguous"):
        apply_edit(cfg, RelabelEdge(src, dst, Skip()))


def test_insert_after_splits_branch():
    cfg = parse_program(APPEND_SRC).proc("main").cfg
    then_loc = 2  # edge l2 -> exit carries `ret = q;`
    before = cfg.out_edges(then_loc)
    assert [stmt_text(e.stmt) for e in before] == ["ret = q;"]
    new_cfg, delta = apply_edit(cfg, InsertStmtAfter(then_loc, parse_stmt_text("print(0);")))
    (fresh,) = delta.added_locs
    assert fresh not in cfg.locs
    assert [stmt_text(e.stmt) for e in new_cfg.out_edges(then_loc)] == ["print(0);"]
    assert [stmt_text(e.stmt) for e in new_cfg.out_edges(fresh)] == ["ret = q;"]
    assert delta.apply_to(cfg.edges) == new_cfg.edges
    assert delta.moved  # the old branch edge was rerouted, not relabelled


def test_insert_while_adds_one_loop():
    cfg = parse_program("fn main() { x = 1; y = 2; }").proc("main").cfg
    loops = analyze_loops(cfg)
    assert not loops.natural_loops
    cond = Binop("<", Var("x"), IntLit(5))
    new_cfg, delta = apply_edit(cfg, InsertWhile(1, cond, (parse_stmt_text("x = x + 1;"),)))
    new_loops = analyze_loops(new_cfg)
    assert len(new_loops.back_edges) == 1
    assert len(new_loops.natural_loops) == 1
    assert delta.apply_to(cfg.edges) == new_cfg.edges


def test_insert_if_creates_join():
    cfg = parse_program("fn main() { x = 1; y = 2; }").proc("main").cfg
    new_cfg, delta = apply_edit(
        cfg, InsertIf(1, Binop("<", Var("x"), IntLit(0)), (parse_stmt_text("y = 0;"),), ())
    )
    new_loops = analyze_loops(new_cfg)
    joins = [l for l in new_loops.join_indices if l in delta.added_locs]
    assert len(joins) == 1
    assert delta.apply_to(cfg.edges) == new_cfg.edges


def test_insert_at_exit_moves_exit():
    cfg = parse_program("fn main() { x = 1; }").proc("main").cfg
    new_cfg, delta = apply_edit(cfg, InsertStmtAfter(cfg.exit, parse_stmt_text("y = 2;")))
    assert new_cfg.exit in delta.added_locs
    assert not new_cfg.out_edges(new_cfg.exit)


def test_insert_after_loop_head_keeps_exits_at_head():
    cfg = while_cfg()
    loops = analyze_loops(cfg)
    (head,) = loops.natural_loops
    new_cfg, delta = apply_edit(cfg, InsertStmtAfter(head, parse_stmt_text("print(x);")))
    new_loops = analyze_loops(new_cfg)
    assert head in new_loops.natural_loops
    # exit guard still leaves the head; only the body path was rerouted
    exits = [e for e in new_cfg.out_edges(head) if e.dst not in new_loops.natural_loops[head]]
    assert any(stmt_text(e.stmt).startswith("assume(!") for e in exits)
    (fresh,) = delta.added_locs
    assert fresh in new_loops.natural_loops[head]


def test_unknown_location_rejected():
    cfg = while_cfg()
    with pytest.raises(EditError, match="unknown location"):
        apply_edit(cfg, InsertStmtAfter(99, Skip()))


def test_delta_application_property():
    rng = random.Random(17)
    for _ in range(10):
        cfg = parse_program(gen_program_source(rng)).proc("main").cfg
        for _ in range(25):
            edit = gen_edit(rng, cfg)
            new_cfg, delta = apply_edit(cfg, edit)
            assert delta.apply_to(cfg.edges) == new_cfg.edges
            analyze_loops(new_cfg)
            cfg = new_cfg


def test_stable_join_indices_keep_surviving_edges_in_place():
    cfg = parse_program(APPEND_SRC).proc("main").cfg
    loops = analyze_loops(cfg)
    join = cfg.exit
    old = loops.join_indices
    old_order = [stmt_text(e.stmt) for e in old[join]]
    # Insert on the then-branch: its join edge moves to a fresh source but
    # must keep its index slot.
    new_cfg, delta = apply_edit(cfg, InsertStmtAfter(2, parse_stmt_text("print(0);")))
    new_loops = analyze_loops(new_cfg)
    ji = stable_join_indices(old, delta, new_loops)
    assert [stmt_text(e.stmt) for e in ji[join]] == old_order
    # the freshly-sourced edge sits in the same slot
    moved_new = {n for _o, n in delta.moved}
    assert any(e in moved_new for e in ji[join])
    # pure re-indexing would have reordered (fresh ids sort last)
    assert [stmt_text(e.stmt) for e in new_loops.join_indices[join]] != old_order


def test_stable_join_indices_reject_a_delta_that_misses_a_moved_edge():
    cfg = parse_program(APPEND_SRC).proc("main").cfg
    old = analyze_loops(cfg).join_indices
    new_cfg, delta = apply_edit(cfg, InsertStmtAfter(2, parse_stmt_text("print(0);")))
    assert [n.dst for _o, n in delta.moved] == [cfg.exit]
    partial = dataclasses.replace(delta, moved=())
    with pytest.raises(EditError, match=f"^join index patch failed at l{cfg.exit}$"):
        stable_join_indices(old, partial, analyze_loops(new_cfg))


def test_adjacency_is_a_cache_that_copies_and_pickles_carry():
    for cfg in edited_cfgs(43, programs=4, edits=4):
        assert "adjacency" in vars(cfg)  # derived by the edit or built by the parser's analysis
        outs, ins = cfg.adjacency
        for loc in cfg.locs:
            out = sorted((e for e in cfg.edges if e.src == loc), key=Edge.sort_key)
            into = sorted((e for e in cfg.edges if e.dst == loc), key=Edge.sort_key)
            assert outs[loc] == cfg.out_edges(loc) == tuple(out)
            assert ins[loc] == tuple(into)
        fresh = Cfg(cfg.locs, cfg.edges, cfg.entry, cfg.exit)  # no adjacency yet
        assert fresh == cfg and hash(fresh) == hash(cfg)
        for twin in (pickle.loads(pickle.dumps(fresh)), copy.copy(fresh), copy.deepcopy(fresh)):
            assert "adjacency" not in vars(twin)  # nothing built, nothing carried
            assert twin == cfg and hash(twin) == hash(cfg)
        built = fresh.adjacency
        assert built == cfg.adjacency
        for twin in (pickle.loads(pickle.dumps(cfg)), copy.copy(cfg), copy.deepcopy(cfg)):
            assert "adjacency" in vars(twin)  # carried, not rebuilt
            assert twin.adjacency == built
            assert twin == cfg and hash(twin) == hash(cfg)


def test_location_ids_never_index_from_the_end():
    # Built by hand with the last location's edge leaving it: outs[-1] is
    # l1's list, so a negative id must not reach the lists.
    cfg = Cfg(frozenset({0, 1}), frozenset({Edge(0, Skip(), 1), Edge(1, Skip(), 0)}), 0, 1)
    assert cfg.adjacency[0][-1] == cfg.out_edges(1) != ()
    assert cfg.out_edges(-1) == cfg.out_edges(2) == ()
    with pytest.raises(EditError, match="^no edge l-1 -> l0$"):
        apply_edit(cfg, RelabelEdge(-1, 0, Skip()))
    with pytest.raises(EditError, match="^unknown location l-1$"):
        apply_edit(cfg, InsertStmtAfter(-1, Skip()))
    negative = Cfg(frozenset({-1, 0}), frozenset({Edge(-1, Skip(), 0)}), -1, 0)
    for read in (analyze_loops, lambda c: c.out_edges(0)):
        with pytest.raises(CfgError, match="^negative location id l-1$"):
            read(negative)
    with pytest.raises(CfgError, match="^negative location id l-2$"):
        cfg.with_edges((), (Edge(1, Skip(), -2),), new_locs=(-2,))
    with pytest.raises(CfgError, match="^edge endpoint missing from locs: "):
        cfg.with_edges((), (Edge(1, Skip(), -1),))


def edited_cfgs(seed: int, programs: int = 12, edits: int = 8):
    """Each seeded random program, then each version along a seeded edit stream."""
    rng = random.Random(seed)
    for _ in range(programs):
        cfg = parse_program(gen_program_source(rng)).proc("main").cfg
        yield cfg
        for _ in range(edits):
            cfg, _delta = apply_edit(cfg, gen_edit(rng, cfg))
            yield cfg


def test_edge_text_is_the_printed_statement():
    for cfg in edited_cfgs(41):
        for e in cfg.edges:
            assert e.text == stmt_text(e.stmt)
            assert e.sort_key() == (e.src, e.dst, stmt_text(e.stmt))
            twin = Edge(e.src, e.stmt, e.dst)
            assert twin == e and hash(twin) == hash(e)
            other = Skip() if e.text != "skip;" else parse_stmt_text("x = 1;")
            swapped = dataclasses.replace(e, stmt=other)
            assert swapped.text == stmt_text(other) != e.text
            assert swapped != e


def test_join_indices_order_by_source_then_statement_text():
    for cfg in edited_cfgs(43):
        loops = analyze_loops(cfg)
        for loc, edges in loops.join_indices.items():
            want = sorted(edges, key=lambda e: (e.src, stmt_text(e.stmt)))
            assert list(edges) == want, loc


def test_warm_engine_survives_pickling():
    rng = random.Random(47)
    for _ in range(4):
        cfg = parse_program(gen_program_source(rng)).proc("main").cfg
        eng = Engine(cfg, INTERVAL)
        for _ in range(3):
            eng.apply_program_edit(gen_edit(rng, eng.cfg))
        for loc in sorted(eng.cfg.locs):
            eng.query_loc(loc)
        copy = pickle.loads(pickle.dumps(eng))
        assert copy.cfg == eng.cfg
        assert all(e.text == stmt_text(e.stmt) for e in copy.cfg.edges)
        for edited in (False, True):
            if edited:
                copy.apply_program_edit(gen_edit(rng, copy.cfg))
            oracle = batch_analyze(copy.cfg, analyze_loops(copy.cfg), INTERVAL)
            for loc in sorted(copy.cfg.locs):
                assert INTERVAL.equal(copy.query_loc(loc), oracle.invariants[loc]), loc
