"""A cold engine against the batch oracle, on the seed-0 cold-start corpus.

    python3 tools/cold_ratio.py
    python3 tools/cold_ratio.py --passes 5 --seed 0

The corpus is the one the ``cold-start`` benchmark workload builds
(``perfbench.workloads.ColdStart``): 24 seeded growth streams from an
empty ``main``, snapshotted at 20, 40, ..., 180 locations, each with its
loop structure and a shuffled query order.  One pass times, over the whole
corpus and with the loop structure passed in:

- batch: ``batch_analyze`` of every program;
- build: a fresh ``Engine`` per program;
- engine: a fresh ``Engine`` per program plus a ``query_loc`` of every
  location, in the workload's order.

It prints two ratios, each the median over the passes of that pass's ratio:
build/batch and engine/batch.  Every engine answer is checked against the
batch answer once, outside the timed passes.  As in the benchmark, the
corpus is moved out of the cyclic collector's reach (``gc.freeze``) before
timing, so collections scan only what the timed code allocates.
"""

from __future__ import annotations

import argparse
import gc
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from daig.batch import batch_analyze  # noqa: E402
from daig.engine import Engine  # noqa: E402
from perfbench.workloads import DOMAIN, MODE, ColdStart  # noqa: E402


def _batch(programs) -> float:
    t0 = time.perf_counter()
    for cfg, loops, _order in programs:
        batch_analyze(cfg, loops, DOMAIN, MODE)
    return time.perf_counter() - t0


def _engine(programs, query: bool) -> float:
    t0 = time.perf_counter()
    for cfg, loops, order in programs:
        engine = Engine(cfg, DOMAIN, loops=loops, mode=MODE)
        if query:
            for loc in order:
                engine.query_loc(loc)
    return time.perf_counter() - t0


def _check(programs) -> None:
    for cfg, loops, order in programs:
        engine = Engine(cfg, DOMAIN, loops=loops, mode=MODE)
        want = batch_analyze(cfg, loops, DOMAIN, MODE).invariants
        for loc in order:
            if not DOMAIN.equal(engine.query_loc(loc), want[loc]):
                raise SystemExit(f"cold_ratio: engine and batch disagree at l{loc}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--passes", type=int, default=5)
    args = ap.parse_args(argv)
    programs = ColdStart(args.seed).programs
    _check(programs)
    gc.collect()
    gc.freeze()
    build, full = [], []
    for _ in range(args.passes):
        batch = _batch(programs)
        build.append(_engine(programs, query=False) / batch)
        full.append(_engine(programs, query=True) / batch)
    locs = sum(len(cfg.locs) for cfg, _loops, _order in programs)
    print(f"corpus: seed {args.seed}, {len(programs)} programs, {locs} locations")
    print(f"build/batch:  {statistics.median(build):.2f}x")
    print(f"engine/batch: {statistics.median(full):.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
