import hashlib
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from daig.domains import (
    CONST, INTERVAL, SIGN, ConcreteState, ConstState, SignState, STUCK, collecting_bounded, concrete_step,
)
from daig.batch import batch_analyze
from daig.domains.base import MAGNITUDE_LIMIT, ContractViolation
from daig.engine import Engine
from daig.lang.loops import analyze_loops
from daig.domains.interval import INTERVAL_BOTTOM, NEG_INF, POS_INF, IntervalState
from daig.lang.parser import parse_program, parse_stmt_text
from daig.workload import gen_cond, gen_expr, gen_simple_stmt
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
)

from helpers import ivl

VARS = ("x", "y", "z")


# -- strategies ----------------------------------------------------------------

exprs = st.recursive(
    st.one_of(
        st.integers(-20, 20).map(IntLit),
        st.sampled_from(VARS).map(Var),
    ),
    lambda sub: st.one_of(
        st.builds(Binop, st.sampled_from(("+", "-", "*", "/")), sub, sub),
        st.builds(Binop, st.sampled_from(("<", "<=", ">", ">=", "==", "!=")), sub, sub),
        st.builds(Not, sub),
        st.builds(And, sub, sub),
        st.builds(Or, sub, sub),
        st.builds(ArrayRead, st.sampled_from(("arr",)), sub),
    ),
    max_leaves=6,
)

stmts = st.one_of(
    st.just(Skip()),
    st.builds(Assign, st.sampled_from(VARS), exprs),
    st.builds(Assume, exprs),
    st.builds(Print, exprs),
    st.builds(ArrayWrite, st.just("arr"), exprs, exprs),
)


@st.composite
def interval_states(draw):
    out = {}
    for v in VARS:
        if draw(st.booleans()):
            continue  # unbound: unknown
        lo = draw(st.one_of(st.none(), st.integers(-25, 25)))
        hi = draw(st.one_of(st.none(), st.integers(-25, 25)))
        lo_b = NEG_INF if lo is None else lo
        hi_b = POS_INF if hi is None else hi
        if not isinstance(lo_b, type(NEG_INF)) and not isinstance(hi_b, type(NEG_INF)):
            if lo_b > hi_b:
                lo_b, hi_b = hi_b, lo_b
        out[v] = (lo_b, hi_b)
    return IntervalState(out)


@st.composite
def sign_states(draw):
    return SignState({v: draw(st.sampled_from(("neg", "zero", "pos", "top"))) for v in VARS})


@st.composite
def const_states(draw):
    return ConstState({v: draw(st.one_of(st.integers(-3, 3), st.just("top"))) for v in VARS})


DOMAINS = (INTERVAL, SIGN, CONST)
STATES = {"interval": interval_states, "sign": sign_states, "const": const_states}


@st.composite
def lattice_states(draw, dom):
    """A state of ``dom``, bottom one time in eight."""
    if draw(st.integers(0, 7)) == 0:
        return dom.bottom()
    return draw(STATES[dom.name]())


def draw_states(data, dom, n):
    return [data.draw(lattice_states(dom), label=dom.name) for _ in range(n)]


@st.composite
def modeled_pairs(draw):
    """A concrete state together with an interval state it models."""
    phi = draw(interval_states())
    env = {}
    for v in VARS:
        lo, hi = phi.get(v)
        low = -40 if isinstance(lo, type(NEG_INF)) else lo
        high = 40 if isinstance(hi, type(NEG_INF)) else hi
        if low > high:
            low, high = high, min(high + 5, low)
        env[v] = draw(st.integers(min(low, high), max(low, high)))
    arrays = {"arr": tuple(draw(st.lists(st.integers(-5, 5), max_size=3)))}
    return ConcreteState(env, arrays), phi


# -- interval transfer examples ----------------------------------------------


def test_assign_increments():
    out = INTERVAL.transfer(parse_stmt_text("x = x + 1;"), ivl(x=(0, 0)))
    assert out == ivl(x=(1, 1))


def test_assume_refines_upper_bound():
    out = INTERVAL.transfer(parse_stmt_text("assume(x < 10);"), ivl(x=(0, None)))
    assert out == ivl(x=(0, 9))


def test_assume_unsatisfiable_gives_bottom():
    out = INTERVAL.transfer(parse_stmt_text("assume(x < 0);"), ivl(x=(0, 5)))
    assert INTERVAL.is_bot(out)


def test_call_rejected_by_domain():
    with pytest.raises(ContractViolation):
        INTERVAL.transfer(Call("x", "f", IntLit(1)), ivl())


def test_array_ops_identity_on_scalars():
    st1 = ivl(x=(1, 2))
    assert INTERVAL.transfer(parse_stmt_text("a[x] = 3;"), st1) == st1
    out = INTERVAL.transfer(parse_stmt_text("y = a[0];"), st1)
    assert out.get("y") == (NEG_INF, POS_INF)


def test_division_by_zero_interval_is_top():
    out = INTERVAL.transfer(parse_stmt_text("y = 1 / x;"), ivl(x=(-1, 1)))
    assert out.get("y") == (NEG_INF, POS_INF)
    out = INTERVAL.transfer(parse_stmt_text("y = 7 / x;"), ivl(x=(2, 3)))
    assert out.get("y") == (2, 3)


# A bound beyond the float range: Python ints are unbounded.  A state
# built directly may hold one; a result bound past the magnitude limit is
# stored widened (to the limit on the other side, to the infinity on its own).
BIG = 2**1100


@pytest.mark.parametrize(
    "stmt, state, text",
    [
        ("y = x * 0;", ivl(), "{y:[0,0]}"),
        ("y = x * z;", ivl(x=(0, None), z=(None, 0)), "{x:[0,+inf], y:[-inf,0], z:[-inf,0]}"),
        ("y = x / 2;", ivl(x=(5, None)), "{x:[5,+inf], y:[2,+inf]}"),
        ("y = 7 / x;", ivl(x=(1, None)), "{x:[1,+inf], y:[0,7]}"),
        ("y = (0 - 7) / x;", ivl(x=(1, None)), "{x:[1,+inf], y:[-7,-1]}"),
        ("y = x / z;", ivl(x=(1, None), z=(None, -1)), "{x:[1,+inf], y:[-inf,-1], z:[-inf,-1]}"),
        ("y = z / x;", ivl(x=(None, -2), z=(None, 3)), "{x:[-inf,-2], y:[-2,+inf], z:[-inf,3]}"),
        pytest.param("y = x + z;", ivl(x=(BIG, BIG)), f"{{x:[{BIG},{BIG}]}}", id="big+top"),
        pytest.param("y = x * z;", ivl(x=(BIG, BIG)), f"{{x:[{BIG},{BIG}]}}", id="big*top"),
        pytest.param(
            "y = x + z;",
            ivl(x=(BIG, BIG), z=(0, None)),
            f"{{x:[{BIG},{BIG}], y:[{MAGNITUDE_LIMIT},+inf], z:[0,+inf]}}",
            id="big+nonneg",
        ),
        pytest.param(
            "y = z - x;",
            ivl(x=(BIG, BIG), z=(0, None)),
            f"{{x:[{BIG},{BIG}], z:[0,+inf]}}",
            id="nonneg-big",
        ),
        pytest.param(
            "y = x * z;",
            ivl(x=(BIG, BIG), z=(0, None)),
            f"{{x:[{BIG},{BIG}], y:[0,+inf], z:[0,+inf]}}",
            id="big*nonneg",
        ),
        pytest.param(
            "y = x * z;",
            ivl(x=(-BIG, BIG), z=(None, -1)),
            f"{{x:[{-BIG},{BIG}], z:[-inf,-1]}}",
            id="bigrange*neg",
        ),
    ],
)
def test_bound_arithmetic_at_infinity(stmt, state, text):
    out = INTERVAL.transfer(parse_stmt_text(stmt), state)
    assert INTERVAL.to_text(out) == text
    # No finite bound is ever a float.
    assert all(type(b) is int or b in (NEG_INF, POS_INF) for r in out.bindings.values() for b in r)


# -- join / widen / leq ---------------------------------------------------------


def test_join_is_pointwise_hull():
    assert INTERVAL.join(ivl(x=(0, 1)), ivl(x=(3, 5))) == ivl(x=(0, 5))


def test_widen_unstable_bound_to_infinity():
    out = INTERVAL.widen(ivl(x=(0, 0)), ivl(x=(1, 1)))
    assert out == ivl(x=(0, None))


def test_widen_stability():
    for phi in (ivl(), ivl(x=(0, 3), y=(None, 2)), INTERVAL_BOTTOM):
        assert INTERVAL.widen(phi, phi) == phi


def test_canonical_serialization():
    assert INTERVAL.to_text(ivl(y=(None, 3), x=(0, 9))) == "{x:[0,9], y:[-inf,3]}"
    assert INTERVAL.to_text(ivl(x=(None, None))) == "{}"
    assert INTERVAL.to_text(INTERVAL_BOTTOM) == "bot"
    assert SIGN.to_text(SIGN.transfer(parse_stmt_text("x = 3;"), SIGN.init())) == "{x:pos}"
    assert CONST.to_text(CONST.transfer(parse_stmt_text("x = 3;"), CONST.init())) == "{x:3}"


# -- lattice properties -----------------------------------------------------------


# Each law is checked for every domain on states drawn for that domain.


@settings(max_examples=200, derandomize=True)
@given(st.data())
def test_join_is_upper_bound(data):
    for dom in DOMAINS:
        a, b = draw_states(data, dom, 2)
        j = dom.join(a, b)
        assert dom.leq(a, j) and dom.leq(b, j)
        assert dom.leq(j, dom.widen(a, b))


@settings(max_examples=100, derandomize=True)
@given(st.data())
def test_bottom_is_identity_for_join_and_widen(data):
    for dom in DOMAINS:
        (phi,) = draw_states(data, dom, 1)
        bot = dom.bottom()
        assert dom.join(bot, phi) == phi and dom.join(phi, bot) == phi
        assert dom.widen(bot, phi) == phi and dom.widen(phi, bot) == phi


@settings(max_examples=100, derandomize=True)
@given(st.data())
def test_widening_chains_stabilize(data):
    for dom in DOMAINS:
        chain = draw_states(data, dom, data.draw(st.integers(1, 6)))
        # make the chain increasing, then widen along it
        asc = [chain[0]]
        for s in chain[1:] + chain:  # revisit to force repeats too
            asc.append(dom.join(asc[-1], s))
        w = asc[0]
        changes = 0
        for s in asc[1:]:
            nxt = dom.widen(w, s)
            if not dom.equal(nxt, w):
                changes += 1
            w = nxt
        assert changes <= 2 * len(VARS) + 2
        assert dom.equal(dom.widen(w, w), w)


@settings(max_examples=400, derandomize=True)
@given(modeled_pairs(), stmts)
def test_local_soundness(pair, stmt):
    sigma, phi = pair
    assert INTERVAL.models(sigma, phi)
    post = concrete_step(stmt, sigma)
    if post is STUCK:
        return
    assert INTERVAL.models(post, INTERVAL.transfer(stmt, phi))


@settings(max_examples=400, derandomize=True)
@given(st.data(), stmts)
def test_transfer_monotone(data, stmt):
    for dom in DOMAINS:
        a, b = draw_states(data, dom, 2)
        lo = dom.join(a, b) if not dom.leq(a, b) else b
        hi = dom.join(lo, b)
        assert dom.leq(dom.transfer(stmt, lo), dom.transfer(stmt, hi)) or not dom.leq(lo, hi)
        # and against an explicitly smaller state
        assert dom.leq(dom.transfer(stmt, a), dom.transfer(stmt, dom.join(a, b)))


@settings(max_examples=200, derandomize=True)
@given(st.data())
def test_digest_respects_equality(data):
    for dom in DOMAINS:
        a, b = draw_states(data, dom, 2)
        assert (dom.digest(a) == dom.digest(b)) == dom.equal(a, b)


@settings(max_examples=300, derandomize=True)
@given(modeled_pairs(), stmts)
def test_local_soundness_sign_and_const(pair, stmt):
    sigma, phi = pair
    for dom in (SIGN, CONST):
        abstracted = dom.init()
        for v in VARS:
            if dom is SIGN:
                from daig.domains.finite import sign_of

                abstracted = abstracted.bind(v, sign_of(sigma.value_of(v)))
            else:
                abstracted = abstracted.bind(v, sigma.value_of(v))
        assert dom.models(sigma, abstracted)
        post = concrete_step(stmt, sigma)
        if post is STUCK:
            continue
        assert dom.models(post, dom.transfer(stmt, abstracted))


# -- concrete semantics ----------------------------------------------------------


def test_concrete_step_examples():
    out = concrete_step(parse_stmt_text("x = 2 * 3;"), ConcreteState())
    assert out.value_of("x") == 6
    assert concrete_step(parse_stmt_text("assume(x > 0);"), ConcreteState({"x": 0})) is STUCK
    out = concrete_step(parse_stmt_text("a[1] = 5;"), ConcreteState({}, {"a": (0, 0, 0)}))
    assert out.arrays["a"] == (0, 5, 0)


def test_concrete_stuck_cases():
    assert concrete_step(parse_stmt_text("x = 1 / 0;"), ConcreteState()) is STUCK
    assert concrete_step(parse_stmt_text("x = a[7];"), ConcreteState({}, {"a": (1,)})) is STUCK
    assert concrete_step(parse_stmt_text("a[0] = 1;"), ConcreteState()) is STUCK


def test_collecting_straight_line():
    prog = parse_program("fn main() { x = 1; y = x + 1; }")
    wit = collecting_bounded(prog, [ConcreteState()], 100)
    exit_states = wit[prog.proc("main").cfg.exit]
    assert exit_states == {ConcreteState({"x": 1, "y": 2})}


def test_collecting_loop_head_witnesses():
    prog = parse_program("fn main() { x = 0; while (x < 3) { x = x + 1; } }")
    cfg = prog.proc("main").cfg
    from daig.lang.loops import analyze_loops

    (head,) = analyze_loops(cfg).natural_loops
    wit = collecting_bounded(prog, [ConcreteState()], 1000)
    assert {s.value_of("x") for s in wit[head]} == {0, 1, 2, 3}


def test_collecting_branches_and_inputs():
    prog = parse_program("fn main() { if (x > 0) { y = 1; } else { y = 2; } }")
    cfg = prog.proc("main").cfg
    inputs = [ConcreteState({"x": v}) for v in (-1, 0, 1)]
    wit = collecting_bounded(prog, inputs, 100)
    ys = {s.value_of("y") for s in wit[cfg.exit]}
    assert ys == {1, 2}


def test_collecting_executes_calls():
    prog = parse_program("fn main() { y = 3; x = dbl(y); } fn dbl(p) { ret = p * 2; }")
    cfg = prog.proc("main").cfg
    wit = collecting_bounded(prog, [ConcreteState()], 1000)
    assert {s.value_of("x") for s in wit[cfg.exit]} == {6}


# -- models ---------------------------------------------------------------------


def test_models_examples():
    assert INTERVAL.models(ConcreteState({"x": 3}), ivl(x=(0, 5)))
    assert not INTERVAL.models(ConcreteState({"x": 7}), ivl(x=(0, 5)))
    assert not INTERVAL.models(ConcreteState({"x": 0}), INTERVAL_BOTTOM)
    # unbound concrete scalars read as zero
    assert INTERVAL.models(ConcreteState(), ivl(y=(0, 0)))
    assert not INTERVAL.models(ConcreteState(), ivl(y=(1, 2)))


# -- pinned results ----------------------------------------------------------------

PIN_VARS = ("x0", "x1", "x2")
# Recorded when each domain still had its own transfer, refinement and
# lattice loops; the shared implementation must reproduce it exactly.
PINNED_DIGEST = "921f7b3b9f8d1942e72a177ca2cbf8fa86e224dbef5a60c005b31e1136e83bec"


CMP_OPS = ("<", "<=", ">", ">=", "==", "!=")


def _pin_corpus(rng):
    stmts = [gen_simple_stmt(rng, PIN_VARS) for _ in range(60)]
    stmts += [Assume(gen_cond(rng, 2, PIN_VARS)) for _ in range(60)]
    stmts += [Assume(gen_expr(rng, 2, PIN_VARS)) for _ in range(20)]
    for v in PIN_VARS:
        stmts += [Assume(Var(v)), Assume(Not(Var(v))), Assume(Not(Not(Var(v))))]
    for op in CMP_OPS:
        for lhs, rhs in ((Var("x0"), IntLit(0)), (Var("x0"), IntLit(2)),
                         (IntLit(2), Var("x0")), (Var("x0"), Var("x1"))):
            stmts += [Assume(Binop(op, lhs, rhs)), Assume(Not(Binop(op, lhs, rhs)))]
    # Connectives as values: every pair of a false, a true and two unknowns.
    operands = (IntLit(0), IntLit(3), Var("x0"), Binop("<", Var("x1"), IntLit(1)))
    for a in operands:
        stmts.append(Assign("x2", Not(a)))
        for b in operands:
            stmts += [Assign("x2", And(a, b)), Assign("x2", Or(a, b))]
    return stmts


def _pin_states(dom, rng):
    """Small-valued states built by transfers, some joined or widened."""
    states = [dom.init(), dom.bottom()]
    while len(states) < 30:
        s = dom.init()
        for v in PIN_VARS:
            c = rng.randint(-4, 4)
            roll = rng.random()
            if roll < 0.4:
                s = dom.transfer(Assign(v, IntLit(c)), s)
            elif roll < 0.7:
                s = dom.transfer(Assume(Binop(rng.choice(CMP_OPS), Var(v), IntLit(c))), s)
        roll = rng.random()
        if roll < 0.3:
            s = dom.join(s, rng.choice(states))
        elif roll < 0.45:
            s = dom.widen(rng.choice(states), s)
        states.append(s)
    return states


def test_domain_results_are_pinned():
    """One digest over the results of every domain operation on a seeded
    corpus, recorded before the domains shared one implementation."""
    h = hashlib.sha256()
    for dom in (INTERVAL, SIGN, CONST):
        rng = random.Random(2024)
        stmts = _pin_corpus(rng)
        states = _pin_states(dom, rng)
        exprs = [gen_expr(rng, 2, PIN_VARS) for _ in range(8)]
        sigmas = [ConcreteState({v: rng.randint(-3, 3) for v in PIN_VARS}) for _ in range(6)]
        exits = [dom.transfer(Assign("ret", Var("x1")), s) for s in states[:6]]
        out = []
        for s in states:
            out += [dom.to_text(dom.transfer(stmt, s)) for stmt in stmts]
            for t in states:
                out += [dom.to_text(dom.join(s, t)), dom.to_text(dom.widen(s, t))]
                out += [str(dom.leq(s, t)), str(dom.equal(s, t))]
            out += [dom.to_text(dom.return_state(s, "x0", e)) for e in exits]
            out += [str(dom.models(sigma, s)) for sigma in sigmas]
            out.append(dom.to_text(dom.drop_var(s, "x1")))
            if not dom.is_bot(s):
                out += [
                    dom.to_text(dom.entry_state_for_call("p", dom.eval_arg(e, s)))
                    for e in exprs
                ]
        h.update(f"{dom.name}|{len(set(states))}|".encode())
        h.update("\n".join(out).encode())
    assert h.hexdigest() == PINNED_DIGEST


# -- derived comparisons -------------------------------------------------------


@pytest.mark.parametrize("dom", DOMAINS, ids=lambda d: d.name)
def test_derived_comparisons_evaluate_as_their_base_forms(dom):
    """``a > b`` is ``b < a``, ``a >= b`` is ``b <= a`` and ``a != b`` is
    ``!(a == b)``, on seeded random operands and states."""
    rng = random.Random(31)
    states = _pin_states(dom, rng)
    operands = [gen_expr(rng, 2, PIN_VARS) for _ in range(20)]
    operands += [gen_cond(rng, 1, PIN_VARS) for _ in range(10)]
    operands += [Var(v) for v in PIN_VARS] + [IntLit(c) for c in (-2, 0, 3)]
    pairs = [(rng.choice(operands), rng.choice(operands)) for _ in range(60)]
    ev = dom.evaluate
    for s in states:
        for a, b in pairs:
            assert ev(Binop(">", a, b), s) == ev(Binop("<", b, a), s)
            assert ev(Binop(">=", a, b), s) == ev(Binop("<=", b, a), s)
            assert ev(Binop("!=", a, b), s) == ev(Not(Binop("==", a, b)), s)


# -- magnitude limit -----------------------------------------------------------


def squarings(n: int) -> str:
    return "fn main() {\n  x = 2;\n" + "  x = x * x;\n" * n + "}\n"


def test_stored_bounds_past_the_limit_widen():
    top = IntervalState({})
    big = MAGNITUDE_LIMIT * 8
    assert top.bind("x", (big, big)).get("x") == (MAGNITUDE_LIMIT, POS_INF)
    assert top.bind("x", (-big, -big)).get("x") == (NEG_INF, -MAGNITUDE_LIMIT)
    assert top.bind("x", (-big, big)) == top
    at_limit = (-MAGNITUDE_LIMIT, MAGNITUDE_LIMIT)
    assert top.bind("x", at_limit).get("x") == at_limit
    assert top.bind("x", (big, 3)) == INTERVAL_BOTTOM
    refined = INTERVAL.transfer(Assume(Binop("<", Var("x"), IntLit(big))), ivl(x=(0, 5)))
    assert refined == ivl(x=(0, 5))
    above = INTERVAL.transfer(Assume(Binop(">", Var("x"), IntLit(big))), top)
    assert above.get("x") == (MAGNITUDE_LIMIT, POS_INF)
    assert ConstState({}).bind("x", MAGNITUDE_LIMIT + 1) == ConstState({})
    assert ConstState({}).bind("x", -MAGNITUDE_LIMIT).get("x") == -MAGNITUDE_LIMIT


@pytest.mark.parametrize("dom", [INTERVAL, CONST], ids=lambda d: d.name)
def test_repeated_squaring_stays_bounded(dom):
    cfg = parse_program(squarings(14)).proc("main").cfg
    oracle = batch_analyze(cfg, analyze_loops(cfg), dom).invariants[cfg.exit]
    assert dom.equal(Engine(cfg, dom).query_loc(cfg.exit), oracle)
    want = {"interval": f"{{x:[{MAGNITUDE_LIMIT},+inf]}}", "const": "{}"}[dom.name]
    assert dom.to_text(oracle) == want
    start = time.perf_counter()
    cfg = parse_program(squarings(40)).proc("main").cfg
    state = Engine(cfg, dom).query_loc(cfg.exit)
    assert time.perf_counter() - start < 1.0
    assert dom.to_text(state) == want
