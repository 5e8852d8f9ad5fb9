"""Shared fixtures: reference programs, independent oracles, generators."""

from __future__ import annotations

import gc
import os
import random
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import daig.engine
import daig.lang.edits
from daig.domains.interval import NEG_INF, POS_INF, IntervalState
from daig.lang.cfg import Cfg, CfgError, Edge, Loc
from daig.lang.loops import IrreducibleError, LoopInfo, analyze_loops
from daig.lang.parser import parse_program

# Scalar port of a two-list append procedure: a guarded early return, a
# pointer-chasing loop, and a two-way join at the return location; eight
# locations with a single back edge.
APPEND_SRC = """
fn main(p) {
  if (p == 0) {
    ret = q;
  } else {
    r = p;
    while (rn != 0) {
      rn = rnn;
    }
    rn = q;
    ret = p;
  }
}
"""

WHILE_SRC = """
fn main() {
  x = 0;
  while (x < 10) {
    x = x + 1;
  }
}
"""


def append_cfg() -> Cfg:
    return parse_program(APPEND_SRC).proc("main").cfg


def while_cfg() -> Cfg:
    return parse_program(WHILE_SRC).proc("main").cfg


def ivl(**bounds) -> IntervalState:
    """Interval state shorthand: ivl(x=(0, 9), y=(None, 3)); None is infinite."""
    out = {}
    for var, (lo, hi) in bounds.items():
        out[var] = (NEG_INF if lo is None else lo, POS_INF if hi is None else hi)
    return IntervalState(out)


def computations(daig) -> dict:
    """Each computed cell's name mapped to the computation its cell holds."""
    return {n: c.comp for n, c in daig.refs.items() if c.comp is not None}


@contextmanager
def no_reference_cycles():
    """Run the block with the cyclic garbage collector off, then assert that
    it finds nothing to collect: whatever the block dropped was freed by
    reference counting alone."""
    gc.collect()
    gc.disable()
    try:
        yield
        assert gc.collect() == 0
    finally:
        gc.enable()


def count_loop_analyses(monkeypatch) -> list[Cfg]:
    """Record every CFG that the edit path (``daig.lang.edits`` and
    ``daig.engine``, whose ``derive_names`` the forest calls too) hands to
    ``analyze_loops``."""
    calls: list[Cfg] = []

    def counting(cfg: Cfg):
        calls.append(cfg)
        return analyze_loops(cfg)

    for module in (daig.lang.edits, daig.engine):
        monkeypatch.setattr(module, "analyze_loops", counting)
    return calls


def run_under_hash_seed(hash_seed: str, code: str, *args) -> str:
    """Run ``code`` in a fresh interpreter under ``PYTHONHASHSEED=hash_seed``,
    with ``daig`` and the test modules importable; return its stdout."""
    paths = [Path(daig.__file__).resolve().parent.parent, Path(__file__).resolve().parent]
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join(map(str, paths)))
    proc = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# -- independent oracles -----------------------------------------------------


def brute_force_dominators(cfg: Cfg) -> dict[Loc, set[Loc]]:
    """Definition-level dominators: d dominates n iff removing d makes n
    unreachable from the entry (with d dominating itself)."""
    succs: dict[Loc, list[Loc]] = {l: [] for l in cfg.locs}
    for e in cfg.edges:
        succs[e.src].append(e.dst)

    def reachable_without(blocked: Loc) -> set[Loc]:
        if blocked == cfg.entry:
            return set()
        seen = {cfg.entry}
        stack = [cfg.entry]
        while stack:
            n = stack.pop()
            for m in succs[n]:
                if m != blocked and m not in seen:
                    seen.add(m)
                    stack.append(m)
        return seen

    doms: dict[Loc, set[Loc]] = {l: {l} for l in cfg.locs}
    for d in cfg.locs:
        alive = reachable_without(d)
        for n in cfg.locs:
            if n != d and n not in alive:
                doms[n].add(d)
    return doms


def brute_force_natural_loops(cfg: Cfg) -> dict[Loc, set[Loc]]:
    """Loop bodies from definition-level dominators: per back edge (u -> h
    with h dominating u), the locations reaching u without passing h."""
    doms = brute_force_dominators(cfg)
    preds: dict[Loc, list[Loc]] = {l: [] for l in cfg.locs}
    for e in cfg.edges:
        preds[e.dst].append(e.src)
    out: dict[Loc, set[Loc]] = {}
    for e in cfg.edges:
        if e.dst in doms[e.src]:
            body = set() if e.src == e.dst else {e.src}
            stack = [e.src] if e.src != e.dst else []
            while stack:
                n = stack.pop()
                for p in preds[n]:
                    if p != e.dst and p not in body:
                        body.add(p)
                        stack.append(p)
            out[e.dst] = out.get(e.dst, set()) | body
    return out


def brute_force_idom(cfg: Cfg) -> dict[Loc, Loc]:
    """Immediate dominators from definition-level dominators: the strict
    dominator that every other strict dominator dominates; the entry maps to
    itself."""
    doms = brute_force_dominators(cfg)
    out = {}
    for l in cfg.locs:
        strict = doms[l] - {l}
        out[l] = max(strict, key=lambda d: len(doms[d])) if strict else l
    return out


def reference_loop_info(cfg: Cfg) -> LoopInfo:
    """``analyze_loops`` from the definitions, for small graphs: a recursive
    depth-first search (successors ascending) for the reverse postorder,
    brute-force dominators, and a back edge wherever an edge's target
    dominates its source.  Raises the errors ``analyze_loops`` raises, in
    the same order of precedence."""
    if cfg.entry not in cfg.locs:
        raise CfgError(f"entry l{cfg.entry} not a member of locs")
    if cfg.exit not in cfg.locs:
        raise CfgError(f"exit l{cfg.exit} not a member of locs")
    bad = [e for e in cfg.edges if e.src not in cfg.locs or e.dst not in cfg.locs]
    if bad:
        raise CfgError(f"edge endpoint missing from locs: {min(bad, key=Edge.sort_key)}")
    seen: set[Loc] = set()
    pre: list[Loc] = []
    post: list[Loc] = []

    def visit(l: Loc) -> None:
        seen.add(l)
        pre.append(l)
        for m in sorted(e.dst for e in cfg.edges if e.src == l):
            if m not in seen:
                visit(m)
        post.append(l)

    visit(cfg.entry)
    if seen != cfg.locs:
        raise CfgError(f"l{min(cfg.locs - seen)} is unreachable from entry")
    rpo = post[::-1]
    num = {l: i for i, l in enumerate(rpo)}
    doms = brute_force_dominators(cfg)
    back = sorted((e for e in cfg.edges if e.dst in doms[e.src]), key=Edge.sort_key)
    irreducible = [e for e in cfg.edges if num[e.src] >= num[e.dst] and e not in back]
    if irreducible:
        raise IrreducibleError(min(irreducible, key=Edge.sort_key))
    heads = [e.dst for e in back]
    for i, h in enumerate(heads):
        if h in heads[:i]:
            raise CfgError(f"l{h} has more than one incoming back edge")
    bodies = brute_force_natural_loops(cfg)
    fwd_in = {
        l: tuple(sorted((e for e in cfg.edges if e.dst == l and e not in back), key=Edge.sort_key))
        for l in rpo
    }
    idom = brute_force_idom(cfg)
    return LoopInfo(
        fwd_edges=cfg.edges - frozenset(back),
        back_edges=frozenset(back),
        natural_loops={h: frozenset(bodies[h]) for h in heads},
        join_indices={l: es for l, es in fwd_in.items() if len(es) >= 2},
        idom={l: idom[l] for l in rpo},
        fwd_in=fwd_in,
        enclosing={
            l: tuple(sorted((h for h in heads if l in bodies[h]), key=lambda h: (-len(bodies[h]), h)))
            for l in cfg.locs
        },
        rpo_num={l: num[l] for l in pre},  # keyed in discovery order, as the search numbers them
    )


# -- generators ----------------------------------------------------------------


def lit(n: int) -> str:
    """Integer literal in source form; negatives have no literal syntax."""
    return str(n) if n >= 0 else f"(0 - {-n})"


def gen_sound_program(rng: random.Random, input_vars: tuple[str, ...]) -> str:
    """Small program with concretely terminating loops, reading the inputs."""
    vars = ("a", "b") + input_vars
    lines = []

    def expr() -> str:
        roll = rng.random()
        if roll < 0.35:
            return str(rng.randint(0, 6))
        if roll < 0.7:
            return rng.choice(vars)
        op = rng.choice(("+", "-", "*", "/"))
        return f"({rng.choice(vars)} {op} {expr()})"

    def cond() -> str:
        op = rng.choice(("<", "<=", ">", ">=", "==", "!="))
        return f"({rng.choice(vars)} {op} {lit(rng.randint(-2, 4))})"

    n_loops = rng.randint(0, 2)
    for i in range(rng.randint(2, 5)):
        roll = rng.random()
        if roll < 0.5:
            lines.append(f"{rng.choice(('a', 'b'))} = {expr()};")
        elif roll < 0.8 or n_loops == 0:
            body = f"{rng.choice(('a', 'b'))} = {expr()};"
            alt = f"{rng.choice(('a', 'b'))} = {expr()};"
            lines.append(f"if ({cond()}) {{ {body} }} else {{ {alt} }}")
        else:
            n_loops -= 1
            c = f"c{i}"
            bound = rng.randint(1, 5)
            extra = f"{rng.choice(('a', 'b'))} = {expr()};"
            lines.append(
                f"{c} = 0; while ({c} < {bound}) {{ {extra} {c} = {c} + 1; }}"
            )
    for v in input_vars:
        lines.insert(0, f"a = a + {v};")
    return "fn main() { " + " ".join(lines) + " }"


def gen_call_tree_source(rng: random.Random, n_procs: int) -> str:
    """Program whose procedures form a call tree with one call site each,
    so any context policy separates every call chain."""
    names = ["main"] + [f"f{i}" for i in range(1, n_procs)]
    children: dict[str, list[str]] = {n: [] for n in names}
    for i in range(1, n_procs):
        parent = names[rng.randrange(i)]
        children[parent].append(names[i])

    def body(name: str, depth: int) -> str:
        lines = [f"u = {lit(rng.randint(-5, 5))};", f"v = u * {rng.randint(0, 3)};"]
        for callee in children[name]:
            lines.append(f"v = {callee}(u + {rng.randint(0, 3)});")
        if rng.random() < 0.6:
            lines.append(f"if (v < {rng.randint(0, 5)}) {{ u = u + 1; }} else {{ u = v; }}")
        if rng.random() < 0.4 and depth == 0:
            lines.append(f"w = 0; while (w < {rng.randint(1, 4)}) {{ w = w + 1; v = v + w; }}")
        lines.append("ret = v + u;")
        return " ".join(lines)

    chunks = []
    for name in names:
        param = "(p)" if name != "main" else "()"
        text = body(name, 0 if name == "main" else 1)
        if name != "main":
            text = "v = p; " + text
        chunks.append(f"fn {name}{param} {{ {text} }}")
    return "\n".join(chunks)
