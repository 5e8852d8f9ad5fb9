import random

import pytest

from daig.batch import batch_analyze
from daig.domains import INTERVAL
from daig.engine import Engine, EngineError
from daig.graph import (
    CellType,
    IdxN,
    Iter,
    LocN,
    Prod,
    head_fix_name,
    head_iter_name,
    loc_state_name,
    prod,
    stmt_cell_locs,
)
from daig.lang.edits import InsertStmtAfter, RelabelEdge
from daig.lang.loops import analyze_loops
from daig.lang.parser import parse_program, parse_stmt_text
from daig.lang.syntax import stmt_text
from daig.workload import gen_edit, gen_program_source, gen_simple_stmt

from helpers import append_cfg, ivl, while_cfg


def test_query_reuse_costs_nothing():
    cfg = while_cfg()
    eng = Engine(cfg, INTERVAL)
    v = eng.query(LocN(cfg.entry))
    assert v == INTERVAL.init()
    m = eng.metrics
    assert (m.transfer_evals, m.join_evals, m.widen_evals, m.memo_misses) == (0, 0, 0, 0)


def test_demand_chain_computes_exactly_two_transfers():
    cfg = append_cfg()
    eng = Engine(cfg, INTERVAL, enable_memo=False)
    pre_join = prod(IdxN(1), LocN(cfg.exit))
    eng.query(pre_join)
    assert eng.metrics.transfer_evals == 2
    assert eng.metrics.join_evals == 0
    # exactly the demanded chain is filled: branch state then pre-join state
    filled = {
        n
        for n, c in eng.daig.refs.items()
        if c.ty is CellType.STATE and not c.is_empty() and n != eng.daig.entry_name
    }
    assert filled == {loc_state_name(2, eng.loops), pre_join}


def test_shared_memo_match_costs_no_evaluation():
    cfg = parse_program("fn main() { x = 1; }").proc("main").cfg
    memo = {}
    first = Engine(cfg, INTERVAL, memo=memo)
    first.query_loc(cfg.exit)
    assert first.metrics.transfer_evals == 1
    second = Engine(cfg, INTERVAL, memo=memo)
    second.query_loc(cfg.exit)
    assert second.metrics.transfer_evals == 0
    assert second.metrics.memo_hits == 1
    assert INTERVAL.equal(
        second.daig.value(LocN(cfg.exit)), first.daig.value(LocN(cfg.exit))
    )


def test_while_loop_converges_after_one_unrolling():
    cfg = while_cfg()
    loops = analyze_loops(cfg)
    (head,) = loops.natural_loops
    eng = Engine(cfg, INTERVAL, debug=True)
    assert INTERVAL.to_text(eng.query_loc(head)) == "{x:[0,+inf]}"
    assert INTERVAL.to_text(eng.query_loc(cfg.exit)) == "{x:[10,+inf]}"
    assert eng.metrics.unrollings == 1
    # the two greatest iterates hold equal values and the fix cell matches
    fix = eng.daig.comps[head_fix_name(head, eng.loops)]
    v1 = eng.daig.value(fix.srcs[0])
    v2 = eng.daig.value(fix.srcs[1])
    assert INTERVAL.equal(v1, v2)
    assert INTERVAL.equal(eng.daig.value(head_fix_name(head, eng.loops)), v1)


def test_unreachable_loop_converges_without_unrolling():
    src = """
    fn main() {
      x = 0;
      assume(x > 5);
      while (x < 3) { x = x + 1; }
    }
    """
    cfg = parse_program(src).proc("main").cfg
    eng = Engine(cfg, INTERVAL, debug=True)
    v = eng.query_loc(cfg.exit)
    assert INTERVAL.is_bot(v)
    assert eng.metrics.unrollings == 0


def test_unroll_adds_three_cells_and_never_copies_statements():
    cfg = while_cfg()
    eng = Engine(cfg, INTERVAL)
    loops = eng.loops
    (head,) = loops.natural_loops
    (body_loc,) = loops.natural_loops[head]
    names_before = set(eng.daig.refs)
    stmt_cells_before = [n for n, c in eng.daig.refs.items() if c.ty is CellType.STMT]
    eng.query(head_fix_name(head, loops))
    assert eng.metrics.unrollings == 1
    added = set(eng.daig.refs) - names_before
    it1 = head_iter_name(head, 1, loops)
    it2 = head_iter_name(head, 2, loops)
    assert added == {
        Iter(LocN(body_loc), ((head, 1),)),
        Prod(it1, it2),
        it2,
    }
    stmt_cells_after = [n for n, c in eng.daig.refs.items() if c.ty is CellType.STMT]
    assert stmt_cells_before == stmt_cells_after
    # the fix edge moved forward one iteration
    assert eng.daig.comps[head_fix_name(head, loops)].srcs == (it1, it2)


def test_unroll_is_idempotent_after_rollback():
    cfg = while_cfg()
    eng = Engine(cfg, INTERVAL, debug=True)
    loops = eng.loops
    (head,) = loops.natural_loops
    eng.query(head_fix_name(head, loops))
    shape_before = (dict(eng.daig.comps), sorted(map(repr, eng.daig.refs)))
    # roll the loop back by editing the back-edge statement, then re-demand
    (back,) = loops.back_edges
    eng.apply_program_edit(RelabelEdge(back.src, back.dst, back.stmt))
    eng.write_cell(Prod(LocN(back.src), LocN(back.dst)), parse_stmt_text("x = x + 1;"))
    fix = eng.daig.comps[head_fix_name(head, eng.loops)]
    assert fix.srcs == (head_iter_name(head, 0, loops), head_iter_name(head, 1, loops))
    eng.query(head_fix_name(head, loops))
    shape_after = (dict(eng.daig.comps), sorted(map(repr, eng.daig.refs)))
    assert shape_before == shape_after


def test_write_cell_commit_only_touches_target_when_downstream_empty():
    cfg = while_cfg()
    eng = Engine(cfg, INTERVAL, debug=True)
    edge = next(e for e in cfg.edges if stmt_text(e.stmt) == "x = 0;")
    name = Prod(LocN(edge.src), LocN(edge.dst))
    eng.write_cell(name, parse_stmt_text("x = 2;"))
    assert eng.metrics.cells_dirtied == 0
    assert eng.daig.value(name) == parse_stmt_text("x = 2;")


def test_write_cell_dirty_set_is_exact_on_branch_edit():
    cfg = append_cfg()
    eng = Engine(cfg, INTERVAL, debug=True)
    eng.query_loc(cfg.exit)
    filled = {n for n, c in eng.daig.refs.items() if not c.is_empty()}
    # relabel the then-branch statement (an indexed cell, since it feeds the
    # join): only its pre-join cell and the join itself depend on it
    eng.write_cell(prod(IdxN(1), LocN(2), LocN(cfg.exit)), parse_stmt_text("ret = 0;"))
    emptied = {n for n in filled if eng.daig.refs[n].contents is None}
    assert emptied == {prod(IdxN(1), LocN(cfg.exit)), LocN(cfg.exit)}


def test_editing_converged_loop_rolls_back_and_empties_iterates():
    src = "fn main() { x = 0; while (x < 3) { x = x + 1; } }"
    cfg = parse_program(src).proc("main").cfg
    eng = Engine(cfg, INTERVAL, debug=True)
    (head,) = eng.loops.natural_loops
    eng.query_loc(cfg.exit)
    assert eng.metrics.unrollings >= 1  # converged at depth two
    fix_before = eng.daig.comps[head_fix_name(head, eng.loops)]
    assert fix_before.srcs[1].count_of(head) == 2
    (back,) = eng.loops.back_edges
    eng.write_cell(Prod(LocN(back.src), LocN(back.dst)), parse_stmt_text("x = x + 2;"))
    fix_after = eng.daig.comps[head_fix_name(head, eng.loops)]
    assert fix_after.srcs == (
        head_iter_name(head, 0, eng.loops),
        head_iter_name(head, 1, eng.loops),
    )
    for name, cell in eng.daig.refs.items():
        if isinstance(name, Iter) and name.count_of(head) >= 1:
            assert cell.is_empty()


def test_write_cell_errors():
    cfg = while_cfg()
    eng = Engine(cfg, INTERVAL)
    with pytest.raises(KeyError):
        eng.write_cell(LocN(99), None)
    with pytest.raises(EngineError, match="source cell"):
        eng.write_cell(LocN(cfg.entry), None)  # entry has no incoming computation
    stmt_name = next(n for n, c in eng.daig.refs.items() if c.ty is CellType.STMT)
    with pytest.raises(EngineError, match="statements"):
        eng.write_cell(stmt_name, ivl(x=(0, 0)))
    with pytest.raises(EngineError, match="abstract states"):
        eng.write_cell(LocN(cfg.exit), parse_stmt_text("skip;"))


def test_statement_write_cannot_merge_parallel_edges():
    # An empty-branch if lowers to two parallel edges into one join; writing
    # one edge's statement into the other's cell would make them coincide.
    src = "fn main() { x = 0; if (x < 1) { } y = 1; }"
    cfg = parse_program(src).proc("main").cfg
    eng = Engine(cfg, INTERVAL, debug=True)
    eng.query_loc(cfg.exit)
    ((join_loc, (first, second)),) = eng.loops.join_indices.items()
    join_indices = dict(eng.loops.join_indices)
    contents = {n: c.contents for n, c in eng.daig.refs.items()}
    with pytest.raises(EngineError, match="duplicate an existing edge"):
        eng.write_cell(prod(IdxN(2), LocN(second.src), LocN(join_loc)), first.stmt)
    assert eng.cfg == cfg
    assert eng.loops.join_indices == join_indices
    assert {n: c.contents for n, c in eng.daig.refs.items()} == contents


def _relabel_cases(seed: int):
    """Fully queried engine on a random program, plus (cell, new statement)
    for every statement cell whose edge has a unique (src, dst) pair."""
    rng = random.Random(seed)
    cfg = parse_program(gen_program_source(rng)).proc("main").cfg
    eng = Engine(cfg, INTERVAL)
    for loc in sorted(cfg.locs):
        eng.query_loc(loc)
    pairs = [(e.src, e.dst) for e in cfg.edges]
    cases = []
    for name, cell in sorted(eng.daig.refs.items(), key=lambda kv: repr(kv[0])):
        if cell.ty is not CellType.STMT or pairs.count(stmt_cell_locs(name)) != 1:
            continue
        new = gen_simple_stmt(rng, ("x0", "x1", "x2", "x3"))
        if new != cell.contents:
            cases.append((name, new))
    return eng, cases


def test_statement_write_matches_relabel_edit():
    kinds = set()
    n_cases = 0
    for seed in range(12):
        base, cases = _relabel_cases(seed)
        for name, new in cases:
            src, dst = stmt_cell_locs(name)
            edge = next(e for e in base.cfg.edges if (e.src, e.dst) == (src, dst))
            if edge in base.loops.back_edges:
                kinds.add("back")
            elif dst in base.loops.join_indices:
                kinds.add("join")
            written, edited = base.snapshot(), base.snapshot()
            written.write_cell(name, new)
            edited.apply_program_edit(RelabelEdge(src, dst, new))
            written.assert_invariants()
            assert written.cfg == edited.cfg
            assert written.loops.join_indices == edited.loops.join_indices
            assert {n: c.contents for n, c in written.daig.refs.items()} == {
                n: c.contents for n, c in edited.daig.refs.items()
            }
            assert written.daig.comps == edited.daig.comps
            assert written.metrics.cells_dirtied == edited.metrics.cells_dirtied
            oracle = batch_analyze(written.cfg, analyze_loops(written.cfg), INTERVAL)
            for loc in sorted(written.cfg.locs):
                want = oracle.invariants[loc]
                assert INTERVAL.equal(written.query_loc(loc), want)
                assert INTERVAL.equal(edited.query_loc(loc), want)
            n_cases += 1
    assert kinds == {"back", "join"}
    assert n_cases >= 100


def test_relabel_recomputes_one_transfer_per_downstream_edge():
    src = "fn main() { x = 1; y = x + 1; z = y + 1; }"
    cfg = parse_program(src).proc("main").cfg
    eng = Engine(cfg, INTERVAL, enable_memo=False, debug=True)
    eng.query_loc(cfg.exit)
    base = eng.metrics.transfer_evals
    edge = next(e for e in cfg.edges if stmt_text(e.stmt) == "x = 1;")
    eng.apply_program_edit(RelabelEdge(edge.src, edge.dst, parse_stmt_text("x = 2;")))
    eng.query_loc(cfg.exit)
    assert eng.metrics.transfer_evals - base == 3  # x=2, y=x+1, z=y+1
    assert INTERVAL.to_text(eng.query_loc(cfg.exit)) == "{x:[2,2], y:[3,3], z:[4,4]}"


def test_print_insertion_reuses_all_but_two_transfers_and_one_join():
    cfg = append_cfg()
    eng = Engine(cfg, INTERVAL, enable_memo=False, debug=True)
    eng.query_loc(cfg.exit)  # fills the whole graph, including the loop
    t0, j0 = eng.metrics.transfer_evals, eng.metrics.join_evals
    eng.apply_program_edit(InsertStmtAfter(2, parse_stmt_text("print(0);")))
    eng.query_loc(eng.cfg.exit)
    assert eng.metrics.transfer_evals - t0 == 2
    assert eng.metrics.join_evals - j0 == 1


def test_deletion_is_relabel_to_skip():
    src = "fn main() { x = 1; y = 2; }"
    cfg = parse_program(src).proc("main").cfg
    eng = Engine(cfg, INTERVAL, debug=True)
    eng.query_loc(cfg.exit)
    edge = next(e for e in cfg.edges if stmt_text(e.stmt) == "y = 2;")
    eng.apply_program_edit(RelabelEdge(edge.src, edge.dst, parse_stmt_text("skip;")))
    assert eng.cfg.locs == cfg.locs
    assert len(eng.cfg.edges) == len(cfg.edges)
    assert INTERVAL.to_text(eng.query_loc(eng.cfg.exit)) == "{x:[1,1]}"


def test_query_loc_dispatch():
    cfg = while_cfg()
    loops = analyze_loops(cfg)
    (head,) = loops.natural_loops
    (body_loc,) = loops.natural_loops[head]
    eng = Engine(cfg, INTERVAL, debug=True)
    assert eng.query_loc(cfg.entry) == INTERVAL.init()
    res = batch_analyze(cfg, loops, INTERVAL)
    assert INTERVAL.equal(eng.query_loc(body_loc), res.invariants[body_loc])
    assert INTERVAL.to_text(eng.query_loc(body_loc)) == "{x:[0,9]}"


def test_monotone_work_within_a_session():
    cfg = append_cfg()
    eng = Engine(cfg, INTERVAL)
    for loc in sorted(cfg.locs):
        eng.query_loc(loc)
    m = eng.metrics
    demands = m.memo_hits + m.memo_misses
    evals = m.transfer_evals + m.join_evals + m.widen_evals
    assert evals == m.memo_misses
    assert demands >= evals
    # re-querying everything does no new work
    before = (m.transfer_evals, m.join_evals, m.widen_evals, m.memo_misses)
    for loc in sorted(cfg.locs):
        eng.query_loc(loc)
    after = (m.transfer_evals, m.join_evals, m.widen_evals, m.memo_misses)
    assert before == after


def test_no_duplicate_evaluations_with_memo():
    rng = random.Random(6)
    src = gen_program_source(rng)
    cfg = parse_program(src).proc("main").cfg
    eng = Engine(cfg, INTERVAL)
    seen: set[tuple] = set()
    original = eng.domain

    class CountingDomain:
        def __getattr__(self, item):
            return getattr(original, item)

        def transfer(self, stmt, state):
            key = ("t", stmt_text(stmt), original.digest(state))
            assert key not in seen, f"duplicate evaluation {key}"
            seen.add(key)
            return original.transfer(stmt, state)

    eng.domain = CountingDomain()
    for loc in sorted(cfg.locs):
        eng.query_loc(loc)


def test_preservation_under_random_interleavings():
    rng = random.Random(21)
    src = gen_program_source(rng)
    cfg = parse_program(src).proc("main").cfg
    eng = Engine(cfg, INTERVAL, debug=True)  # checks run after every operation
    for _ in range(120):
        if rng.random() < 0.5:
            eng.apply_program_edit(gen_edit(rng, eng.cfg))
        else:
            eng.query_loc(rng.choice(sorted(eng.cfg.locs)))


def test_snapshot_is_independent():
    cfg = while_cfg()
    eng = Engine(cfg, INTERVAL)
    eng.query_loc(cfg.exit)
    snap = eng.snapshot()
    edge = next(e for e in cfg.edges if stmt_text(e.stmt) == "x = 0;")
    eng.apply_program_edit(RelabelEdge(edge.src, edge.dst, parse_stmt_text("x = 5;")))
    assert INTERVAL.to_text(snap.query_loc(cfg.exit)) == "{x:[10,+inf]}"
    assert INTERVAL.to_text(eng.query_loc(cfg.exit)) == "{x:[10,+inf]}"
    assert INTERVAL.to_text(eng.query_loc(eng.loops.back_edge_of(1).dst)) == "{x:[5,+inf]}"
