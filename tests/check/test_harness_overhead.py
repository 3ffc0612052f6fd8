"""The harness must observe, never perturb.

Two guarantees pinned here:

1. **Digest invariance** — running the default golden benchmark config
   with a fully-enabled harness produces the *identical* trace sha256 as
   the unchecked run (the harness draws no rng, emits no records,
   schedules no events).
2. **Bounded overhead** — the checked run costs only a modest constant
   factor over the unchecked run; when no harness is passed the code
   path is untouched (zero overhead by construction: ``check=None``
   short-circuits every hook).

Wall-clock ratios are noisy on shared CI machines, so the hard assert is
deliberately loose (50%) and compares the best of several interleaved
plain/checked pairs: one ratio of two ~30 ms runs swings by more than the
budget under full-suite load.  The < 15% target is verified by the
numbers this test prints under ``pytest -s``.
"""

from __future__ import annotations

import time

import repro.trees.validate  # noqa: F401 -- warm the scipy-heavy lazy import
from repro.check import CheckHarness
from repro.experiments import SimulationConfig, run_single
from repro.net.packet import reset_uids
from repro.sim.trace import TraceRecorder, trace_digest

from tests.integration.test_golden_digest import GOLDEN

GOLDEN_KEY = ("mtmrp", "grid", 42)


def _run(check=None):
    reset_uids()
    tr = TraceRecorder()
    cfg = SimulationConfig(*GOLDEN_KEY[:2], group_size=12, seed=GOLDEN_KEY[2])
    t0 = time.perf_counter()
    run_single(cfg, trace=tr, cache=False, check=check)
    return trace_digest(tr), time.perf_counter() - t0


#: interleaved plain/checked pairs timed; each side keeps its best run
PAIRS = 5


def test_harness_does_not_change_golden_digest():
    _run()  # untimed warm-up: caches, allocator pools, first-touch numpy
    plain_times, checked_times = [], []
    for _ in range(PAIRS):
        plain_digest, plain_s = _run()
        harness = CheckHarness(mode="raise")
        checked_digest, checked_s = _run(check=harness)
        assert plain_digest == GOLDEN[GOLDEN_KEY]
        assert checked_digest == plain_digest
        # the harness actually ran: both scheduled checkpoints fired clean
        assert harness.report.checkpoints == ["route-discovery", "end-of-run"]
        assert harness.report.ok
        plain_times.append(plain_s)
        checked_times.append(checked_s)
    plain_s, checked_s = min(plain_times), min(checked_times)
    overhead = checked_s / plain_s - 1.0
    print(f"\nharness overhead on golden config: {overhead:+.1%} "
          f"({plain_s * 1e3:.1f} ms -> {checked_s * 1e3:.1f} ms)")
    assert overhead < 0.50, f"harness overhead {overhead:.1%} exceeds budget"


def test_collect_mode_also_digest_invariant():
    harness = CheckHarness(mode="collect")
    checked_digest, _ = _run(check=harness)
    assert checked_digest == GOLDEN[GOLDEN_KEY]
    assert harness.report.ok
