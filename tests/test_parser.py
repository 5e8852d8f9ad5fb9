import copy
import random

import pytest

from daig.batch import batch_analyze
from daig.domains import INTERVAL
from daig.engine import Engine
from daig.lang.cfg import CfgError
from daig.lang.loops import analyze_loops
from daig.lang.parser import MAX_NESTING, ParseError, parse_expr_text, parse_program, parse_stmt_text
from daig.lang.syntax import (
    And,
    ArrayRead,
    ArrayWrite,
    Assign,
    Assume,
    Binop,
    Call,
    IntLit,
    Not,
    Or,
    Print,
    Skip,
    Var,
    expr_text,
    stmt_text,
)
from daig.workload import INTERPROC_BASE, gen_program_source, gen_simple_stmt, gen_cond

from helpers import no_reference_cycles

from helpers import APPEND_SRC


def test_minimal_program():
    prog = parse_program("fn main() { x = 1; }")
    cfg = prog.proc("main").cfg
    assert len(cfg.locs) == 2
    (edge,) = cfg.edges
    assert edge.stmt == Assign("x", IntLit(1))
    assert edge.src == cfg.entry and edge.dst == cfg.exit


def test_if_else_compiles_to_paired_assumes():
    prog = parse_program("fn main() { if (x < 1) { y = 1; } else { y = 2; } }")
    cfg = prog.proc("main").cfg
    guards = [e for e in cfg.edges if isinstance(e.stmt, Assume)]
    assert len(guards) == 2
    assert {e.src for e in guards} == {cfg.entry}
    conds = {stmt_text(e.stmt) for e in guards}
    assert conds == {"assume((x < 1));", "assume(!(x < 1));"}


def test_append_program_shape():
    cfg = parse_program(APPEND_SRC).proc("main").cfg
    assert len(cfg.locs) == 8
    loops = analyze_loops(cfg)
    assert len(loops.back_edges) == 1
    (back,) = loops.back_edges
    head = back.dst
    assert loops.natural_loops[head] == frozenset({back.src})
    # the return location joins the two branches
    assert len(loops.join_indices[cfg.exit]) == 2
    # loop statements: stay-in guard and exit guard both leave the head
    head_out = {stmt_text(e.stmt) for e in cfg.out_edges(head)}
    assert head_out == {"assume((rn != 0));", "assume(!(rn != 0));"}


def test_comments_and_empty_blocks():
    prog = parse_program(
        """
        // entry procedure
        fn main() {
          skip; // nothing
          if (x == 0) { }   // empty branches are fine
        }
        """
    )
    cfg = prog.proc("main").cfg
    assert cfg.entry in cfg.locs


def test_while_as_first_statement_keeps_entry_plain():
    prog = parse_program("fn main() { while (x < 3) { x = x + 1; } }")
    cfg = prog.proc("main").cfg
    loops = analyze_loops(cfg)
    assert cfg.entry not in loops.natural_loops
    assert not loops.enclosing[cfg.entry]


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_program("fn main() {\n  x = ;\n}")
    assert exc.value.line == 2
    assert exc.value.col > 0


def test_duplicate_procedure_rejected():
    with pytest.raises(ParseError, match="duplicate"):
        parse_program("fn main() { skip; } fn main() { skip; }")


def test_unresolved_call_rejected():
    with pytest.raises(CfgError, match="unknown procedure"):
        parse_program("fn main() { x = nope(1); }")


def test_call_arity_checked():
    with pytest.raises(CfgError, match="requires an argument"):
        parse_program("fn main() { x = f(); } fn f(p) { ret = p; }")
    with pytest.raises(CfgError, match="takes no argument"):
        parse_program("fn main() { x = f(1); } fn f() { ret = 0; }")


def test_recursive_cycle_rejected():
    src = """
    fn main() { x = f(1); }
    fn f(p) { ret = g(p); }
    fn g(p) { ret = f(p); }
    """
    with pytest.raises(CfgError, match="recursive"):
        parse_program(src)


def test_missing_main_rejected():
    with pytest.raises(CfgError, match="main"):
        parse_program("fn helper() { skip; }")


def test_call_statement_parses():
    prog = parse_program("fn main() { x = f(y + 1); } fn f(p) { ret = p; }")
    cfg = prog.proc("main").cfg
    (edge,) = [e for e in cfg.edges if isinstance(e.stmt, Call)]
    assert edge.stmt.lhs == "x" and edge.stmt.callee == "f"


def test_statement_text_round_trips():
    rng = random.Random(2024)
    for _ in range(300):
        s = gen_simple_stmt(rng)
        assert parse_stmt_text(stmt_text(s)) == s
    for _ in range(300):
        e = gen_cond(rng)
        assert parse_expr_text(expr_text(e)) == e


def test_negative_literals_render_parsably():
    assert expr_text(IntLit(-5)) == "(0 - 5)"
    assert parse_expr_text("!x") == Not(parse_expr_text("x"))


def test_generated_programs_parse_and_are_reducible():
    rng = random.Random(11)
    for _ in range(120):
        src = gen_program_source(rng)
        prog = parse_program(src)
        for proc in prog.procedures.values():
            analyze_loops(proc.cfg)  # raises if irreducible or unspanned


def _sample_nodes():
    x, one = Var("x"), IntLit(1)
    cmp = Binop("<", x, one)
    return [
        one, x, ArrayRead("a", x), cmp, Not(cmp), And(cmp, x), Or(cmp, x),
        Skip(), Assign("y", Binop("+", x, one)), Assume(Not(cmp)), Print(x),
        ArrayWrite("a", one, x), Call("y", "f"), Call("y", "f", x),
    ]


def test_equal_syntax_nodes_hash_alike():
    for a, b in zip(_sample_nodes(), _sample_nodes()):
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert hash(a) == hash(a)
    parsed = parse_stmt_text("y = (x + 1);")
    assert parsed == Assign("y", Binop("+", Var("x"), IntLit(1)))
    assert hash(parsed) == hash(Assign("y", Binop("+", Var("x"), IntLit(1))))


def test_syntax_nodes_copy_and_have_no_dict():
    for node in _sample_nodes():
        hash(node)
        assert not hasattr(node, "__dict__")
        for dup in (copy.copy(node), copy.deepcopy(node)):
            assert dup == node and hash(dup) == hash(node)
            assert type(dup) is type(node)
    with pytest.raises(AttributeError):
        Var("x").name = "y"


def test_and_and_or_of_the_same_operands_differ():
    a, b = Binop("<", Var("x"), IntLit(1)), Var("y")
    conj, disj = And(a, b), Or(a, b)
    assert conj != disj and And(a, b) == conj and Or(a, b) == disj
    table = {conj: "and", disj: "or"}
    assert len(table) == 2
    assert table[And(a, b)] == "and" and table[Or(a, b)] == "or"
    assert Call("y", "f") != Call("y", "f", IntLit(0))


# -- nesting cap ----------------------------------------------------------------


def nested_source(kind: str, levels: int) -> str:
    """A program nested ``levels`` deep in one of five ways: parentheses,
    or the depth of an expression tree, or blocks."""
    inner = levels - 1
    exprs = {
        "parentheses": "(" * levels + "y" + ")" * levels,
        "operators": " + ".join(["y"] * levels),
        "negations": "!" * inner + "y",
        "indices": "a[" * inner + "0" + "]" * inner,
    }
    if kind == "blocks":
        return "fn main() { y = 3; " + "if (y > 0) { " * inner + "x = y;" + " }" * inner + " }"
    return f"fn main() {{ y = 3; x = {exprs[kind]}; }}"


NESTING_KINDS = ["parentheses", "operators", "negations", "indices", "blocks"]


@pytest.mark.parametrize("kind", NESTING_KINDS)
def test_nesting_at_the_cap_parses_and_is_analyzed(kind):
    program = parse_program(nested_source(kind, MAX_NESTING))
    cfg = program.proc("main").cfg
    want = batch_analyze(cfg, analyze_loops(cfg), INTERVAL).invariants[cfg.exit]
    assert Engine(cfg, INTERVAL).query_loc(cfg.exit) == want
    if kind != "blocks":
        stmt = max((e.stmt for e in cfg.edges), key=lambda s: len(stmt_text(s)))
        assert parse_stmt_text(stmt_text(stmt)) == stmt


@pytest.mark.parametrize("kind", NESTING_KINDS)
def test_nesting_past_the_cap_is_a_parse_error(kind):
    src = nested_source(kind, MAX_NESTING + 1)
    with pytest.raises(ParseError, match=f"nested deeper than {MAX_NESTING} levels") as exc:
        parse_program(src)
    # The position is that of the construct that goes one level too deep.
    assert exc.value.line == 1
    assert src[exc.value.col - 1] in "(+![{"


def test_deep_nesting_is_a_parse_error_not_a_recursion_error():
    with pytest.raises(ParseError, match="1:69: expression nested deeper"):
        parse_stmt_text("x = " + "(" * 124 + "1" + ")" * 124 + ";")
    with pytest.raises(ParseError, match="1:65: expression nested deeper"):
        parse_expr_text("!" * 5000 + "x")
    with pytest.raises(ParseError, match="1:255: expression nested deeper"):
        parse_expr_text(" + ".join(["x"] * 1000))
    with pytest.raises(ParseError, match="blocks nested deeper"):
        parse_program("fn main() {\n" + "if (x > 0) {\n" * 330 + "}\n" * 331)


def test_parsing_leaves_no_reference_cycles():
    """Generating and parsing a program, call ordering included, is freed by
    reference counting alone."""
    rng = random.Random(3)
    with no_reference_cycles():
        for _ in range(5):
            parse_program(gen_program_source(rng, input_vars=("i0",)))
        assert parse_program(INTERPROC_BASE).call_order() == ["clamp", "inc", "main"]
