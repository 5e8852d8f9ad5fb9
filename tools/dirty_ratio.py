"""What each edit empties and what the queries after it refill, on the
seed-0 edit-session corpus.

    python3 tools/dirty_ratio.py
    python3 tools/dirty_ratio.py --seed 3 --totals-only

The corpus is the one the ``edit-session`` benchmark workload builds
(``perfbench.workloads.EditSession``): 48 warm sessions, each continued by
6 cycles of one insertion and five queries.  Every episode is replayed on
a copy of its warm engine.  Per edit it prints:

- emptied: state cells that held a value before the edit and are empty
  after it;
- refilled: how many of those the five queries filled again;
- equal: how many of those got back a value equal to the one they lost;
- eager: state cells the edit itself filled (new cells, or cells whose
  value it changed);
- unread: eager cells that no later query read, i.e. that a copy of the
  engine made just before the edit, with the memo off (so it computes
  nothing at the edit), did not fill while answering the same queries;
- edit_ev and query_ev: the evaluations (memo hits plus misses, read from
  ``Metrics`` snapshots) spent inside the edit and inside its five
  queries.

The totals end with the same emptied/refilled/equal counts for that lazy
copy, which empties at the edit everything downstream of a replaced
computation, with the evaluations spent inside edits and inside queries,
and with the engine's counters over all edits and queries.  Every answer
is checked against the lazy copy's.
"""

from __future__ import annotations

import argparse
import pickle
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from daig.graph import STATE  # noqa: E402
from perfbench.workloads import DOMAIN, EditSession  # noqa: E402


def _filled(engine) -> dict:
    return {
        n: c.contents for n, c in engine.daig.refs.items()
        if c.ty is STATE and c.contents is not None
    }


def _evaluations(engine) -> int:
    m = engine.metrics.snapshot()
    return m["memo_hits"] + m["memo_misses"]


def _cycle(engine, step):
    """Apply one step's edit and queries.  Returns (emptied, refilled,
    equal), the state cells the edit filled, the answers, and the
    evaluations spent inside the edit and inside the queries."""
    before = _filled(engine)
    start = _evaluations(engine)
    engine.apply_program_edit(step.edit)
    edited = _evaluations(engine)
    refs = engine.daig.refs
    emptied = [n for n in before if refs[n].contents is None]
    eager = [
        n for n, value in _filled(engine).items()
        if n not in before or not DOMAIN.equal(value, before[n])
    ]
    answers = [engine.query_loc(loc) for loc in step.queries]
    refilled = [n for n in emptied if refs[n].contents is not None]
    equal = sum(DOMAIN.equal(refs[n].contents, before[n]) for n in refilled)
    evals = (edited - start, _evaluations(engine) - edited)
    return (len(emptied), len(refilled), equal), eager, answers, evals


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--totals-only", action="store_true")
    args = ap.parse_args(argv)
    workload = EditSession(args.seed)
    totals = [0] * 7
    lazy_totals = [0] * 3
    counters: Counter = Counter()
    if not args.totals_only:
        print("episode cycle  emptied refilled equal  eager unread  edit_ev query_ev")
    for ep, (blob, steps) in enumerate(workload.episodes):
        engine = pickle.loads(blob)
        base = engine.metrics.snapshot()
        for ci, step in enumerate(steps):
            lazy = engine.snapshot()
            lazy.enable_memo = False
            counts, eager, answers, evals = _cycle(engine, step)
            lazy_counts, _, lazy_answers, _ = _cycle(lazy, step)
            if not all(map(DOMAIN.equal, answers, lazy_answers)):
                raise SystemExit(f"dirty_ratio: answers differ at episode {ep}, cycle {ci}")
            lazy_refs = lazy.daig.refs
            unread = sum(1 for n in eager if n not in lazy_refs or lazy_refs[n].contents is None)
            row = counts + (len(eager), unread) + evals
            totals = [a + b for a, b in zip(totals, row)]
            lazy_totals = [a + b for a, b in zip(lazy_totals, lazy_counts)]
            if not args.totals_only:
                print("{:7d} {:5d}  {:7d} {:8d} {:5d}  {:5d} {:6d}  {:7d} {:8d}".format(ep, ci, *row))
        for f, v in engine.metrics.snapshot().items():
            counters[f] += v - base[f]
    emptied, refilled, equal, eager, unread, edit_ev, query_ev = totals
    edits = sum(len(steps) for _blob, steps in workload.episodes)
    print(f"corpus: edit-session seed {args.seed}, {edits} edits")
    print(f"emptied {emptied}, refilled {refilled}, equal {equal}; eager {eager}, unread {unread}")
    print("lazy copy: emptied {}, refilled {}, equal {}".format(*lazy_totals))
    print(f"evaluations (memo hits + misses): edits {edit_ev}, queries {query_ev}")
    print("counters: " + ", ".join(f"{k} {v}" for k, v in counters.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
