"""Where an edit-session cycle's time goes, phase by phase.

    python3 tools/edit_phases.py
    python3 tools/edit_phases.py --passes 5 --seed 0

The corpus is the one the ``edit-session`` benchmark workload builds
(``perfbench.workloads.EditSession``): 48 warm sessions, each continued by
6 cycles of one insertion and five queries.  As in the benchmark, every
episode starts from ``pickle.loads`` of its warm engine (untimed), and the
corpus is moved out of the cyclic collector's reach (``gc.freeze``) before
timing.  A cycle is ``Engine.apply_program_edit`` taken apart into its
steps, then the queries:

- apply_edit: ``apply_edit`` on the engine's program, including the loop
  analysis of the old program it runs (shown on its own as well);
- derive_names: ``derive_names``, the engine's one derivation of the edited
  program's name table: its loop analysis, the join indices carried
  across, and the old table's entries copied in;
- splice: ``Engine.splice``, which adopts that table;
- queries: the five ``query_loc`` calls.

It prints each phase's time per cycle and its share of the cycle, each the
median over the passes of that pass's mean over all cycles.  Every answer
is checked against ``batch_analyze`` once, outside the timed passes.
"""

from __future__ import annotations

import argparse
import gc
import pickle
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from daig.batch import batch_analyze  # noqa: E402
from daig.engine import derive_names  # noqa: E402
from daig.lang import edits  # noqa: E402
from daig.lang.edits import apply_edit  # noqa: E402
from daig.lang.loops import analyze_loops  # noqa: E402
from perfbench.workloads import DOMAIN, MODE, EditSession  # noqa: E402

PHASES = ("apply_edit", "its analysis", "derive_names", "splice", "queries")


class _TimedAnalysis:
    """``analyze_loops`` as ``apply_edit`` sees it, adding up its time."""

    def __init__(self) -> None:
        self.seconds = 0.0

    def __call__(self, cfg):
        t0 = time.perf_counter()
        try:
            return analyze_loops(cfg)
        finally:
            self.seconds += time.perf_counter() - t0


def _cycle(engine, step, old_analysis: _TimedAnalysis, acc: dict) -> list:
    """One cycle of ``engine``, as ``Engine.apply_program_edit`` runs it,
    then the step's queries; adds each phase's time to ``acc``."""
    before = old_analysis.seconds
    t0 = time.perf_counter()
    new_cfg, delta = apply_edit(engine.cfg, step.edit, validate=False)
    t1 = time.perf_counter()
    names = derive_names(engine.names, new_cfg, delta)
    t2 = time.perf_counter()
    engine.splice(new_cfg, delta, names)
    t3 = time.perf_counter()
    answers = [engine.query_loc(loc) for loc in step.queries]
    t4 = time.perf_counter()
    for phase, secs in zip(
        PHASES, (t1 - t0, old_analysis.seconds - before, t2 - t1, t3 - t2, t4 - t3)
    ):
        acc[phase] += secs
    return answers


def _pass(episodes, old_analysis: _TimedAnalysis) -> dict:
    acc = dict.fromkeys(PHASES, 0.0)
    for blob, steps in episodes:
        engine = pickle.loads(blob)
        for step in steps:
            _cycle(engine, step, old_analysis, acc)
    return acc


def _check(episodes, old_analysis: _TimedAnalysis) -> None:
    acc = dict.fromkeys(PHASES, 0.0)
    for blob, steps in episodes:
        engine = pickle.loads(blob)
        for step in steps:
            answers = _cycle(engine, step, old_analysis, acc)
            if engine.cfg != step.cfg:
                raise SystemExit("edit_phases: the engine's program differs from the edited one")
            want = batch_analyze(step.cfg, analyze_loops(step.cfg), DOMAIN, MODE).invariants
            for loc, value in zip(step.queries, answers):
                if not DOMAIN.equal(value, want[loc]):
                    raise SystemExit(f"edit_phases: engine and batch disagree at l{loc}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--passes", type=int, default=5)
    args = ap.parse_args(argv)
    episodes = EditSession(args.seed).episodes
    cycles = sum(len(steps) for _blob, steps in episodes)
    old_analysis = _TimedAnalysis()
    edits.analyze_loops = old_analysis
    try:
        _check(episodes, old_analysis)
        gc.collect()
        gc.freeze()
        passes = [_pass(episodes, old_analysis) for _ in range(args.passes)]
    finally:
        edits.analyze_loops = analyze_loops
        gc.unfreeze()
    print(f"corpus: seed {args.seed}, {len(episodes)} sessions, {cycles} cycles")
    totals = [p["apply_edit"] + p["derive_names"] + p["splice"] + p["queries"] for p in passes]
    total = statistics.median(totals)
    for phase in PHASES:
        shares = [p[phase] / t for p, t in zip(passes, totals)]
        per_cycle = statistics.median(p[phase] for p in passes) / cycles
        print(f"{phase:>12}: {per_cycle * 1e6:8.1f} us/cycle  {statistics.median(shares):6.1%}")
    print(f"{'cycle':>12}: {total / cycles * 1e6:8.1f} us/cycle")
    return 0


if __name__ == "__main__":
    sys.exit(main())
