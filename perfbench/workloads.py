"""The two in-process simulation workloads: ``paper_sweep`` and ``chaos_soak``.

Both run in *rounds*.  A round is a fixed composition of replicates whose
seeds come from the benchmark seed, and a timed run always finishes the
round it is in, so every run measures the same mix of grid and random
points (or of protocols) whatever its length.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import time
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro.experiments.chaos import (
    DEFAULT_POLICY,
    _SOAK_KWARGS,
    _SOAK_PROTOCOLS,
    run_chaos_single,
)
from repro.experiments.config import PROTOCOLS, SimulationConfig
from repro.experiments.runner import RunResult, monte_carlo, run_many, run_single

from hostspeed import HostSpeed

__all__ = ["Pass", "PassResult", "SweepWorkload", "ChaosWorkload", "percentile"]

#: p95 is reported only over at least this many samples, so that ten lie
#: beyond it; a timed run keeps going past its time until it has them
MIN_P95_SAMPLES = 200


@dataclasses.dataclass
class PassResult:
    """What one pass measured, in wall and in host-speed-corrected time."""

    ops: int
    #: wall seconds of the pass, calibration samples cut out
    wall_s: float
    #: the same interval in reference seconds (see ``hostspeed``)
    ref_s: float
    latencies_ms: List[float]
    ref_latencies_ms: List[float]
    digest: str
    failed: int = 0
    notes: List[str] = dataclasses.field(default_factory=list)
    extra: Dict[str, float] = dataclasses.field(default_factory=dict)


class Pass:
    """Collects one pass: latency samples, results digest, host speed.

    Workloads call ``speed.tick()`` between units of work (never inside a
    timed latency) and record each latency with the time it ended.
    """

    def __init__(self) -> None:
        self.speed = HostSpeed()
        self.samples: List[Tuple[float, float]] = []
        self.digest = hashlib.sha256()
        self.ops = 0
        self.speed.tick(force=True)
        self.t0 = time.perf_counter()

    def latency(self, t_end: float, seconds: float) -> None:
        self.samples.append((t_end, seconds))

    def ref_ms(self, t_end: float, seconds: float) -> float:
        return seconds * self.speed.factor(t_end - seconds / 2) * 1e3

    def finish(self, **kwargs) -> PassResult:
        t1 = time.perf_counter()
        self.speed.tick(force=True)
        return PassResult(
            ops=self.ops,
            wall_s=self.speed.wall(self.t0, t1),
            ref_s=self.speed.corrected(self.t0, t1),
            latencies_ms=[d * 1e3 for _t, d in self.samples],
            ref_latencies_ms=[self.ref_ms(t, d) for t, d in self.samples],
            digest=self.digest.hexdigest(),
            **kwargs,
        )


def reset_warm_caches() -> None:
    """Drop the process-wide caches a pass fills (rng stream states, the
    generator pool, warm snapshots), so the next pass starts as cold as
    the first one did."""
    import repro.experiments.runner as runner
    import repro.sim.rng as rng

    rng._STATE_CACHE.clear()
    rng._GEN_POOL.clear()
    runner._SNAPSHOTS = None
    gc.collect()


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


def _json_record(obj) -> str:
    fields = dataclasses.asdict(obj)
    fields.pop("positions", None)
    fields.pop("traffic", None)
    return json.dumps(fields, sort_keys=True, default=float)


# ---------------------------------------------------------------------- #
# paper_sweep
# ---------------------------------------------------------------------- #
#: Fig. 5 (grid, 100 nodes) and Fig. 6 (random, 200 nodes) group sizes,
#: replicates per point, and the two Fig. 7 (N, w) cells.  Grid replicates
#: are about 70% of a round, so the median replicate is a grid one and the
#: p95 a random-200 one, as in the paper's own sweeps.
FIG5_GROUP_SIZES = (5, 30, 60)
FIG6_GROUP_SIZES = (5, 60)
FIG7_CELLS = ((3.0, 0.001), (6.0, 0.03))
RUNS_PER_POINT = {"fig5": 3, "fig6": 2, "fig7": 3}


class SweepWorkload:
    """Figs. 5-7 points, each one ``run_many(workers=1, warm=True)`` call."""

    name = "paper_sweep"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        #: (config, result) of every replicate run so far, for the checks
        self.done: List[Tuple[SimulationConfig, RunResult]] = []

    def rounds(self) -> Iterator[list]:
        """Endless rounds of ``(config, runs, batch_seed)`` sweep points.

        One batch seed per round is shared by every protocol of a group
        size (paired receiver draws, as ``figures._group_size_sweep``
        pairs them) and by both Fig. 7 cells.
        """
        rng = np.random.default_rng(self.seed)
        while True:
            bs = int(rng.integers(1, 2**31 - 4096))
            points = []
            for proto in PROTOCOLS:
                for gs in FIG5_GROUP_SIZES:
                    cfg = SimulationConfig(protocol=proto, topology="grid", group_size=gs)
                    points.append((cfg, RUNS_PER_POINT["fig5"], bs + gs))
            for proto in PROTOCOLS:
                for gs in FIG6_GROUP_SIZES:
                    cfg = SimulationConfig(protocol=proto, topology="random", group_size=gs)
                    points.append((cfg, RUNS_PER_POINT["fig6"], bs + 1024 + gs))
            for n, w in FIG7_CELLS:
                cfg = SimulationConfig(
                    protocol="mtmrp", topology="grid", group_size=20, backoff_n=n, backoff_w=w
                )
                points.append((cfg, RUNS_PER_POINT["fig7"], bs + 2048))
            yield points

    def first_replicate(self) -> None:
        """Set-up warm-up: the first replicate of the first round."""
        cfg, runs, bs = next(self.rounds())[0]
        run_single(monte_carlo(cfg, runs, bs)[0])

    def run_round(self, points: list, m: Pass) -> None:
        for cfg, runs, bs in points:
            m.speed.tick()
            cfgs = monte_carlo(cfg, runs, bs)
            stamps: List[float] = []
            t0 = time.perf_counter()
            results = run_many(
                cfgs, workers=1, warm=True, on_result=lambda _i, _r: stamps.append(time.perf_counter())
            )
            prev = t0
            for t in stamps:
                m.latency(t, t - prev)
                prev = t
            for c, r in zip(cfgs, results):
                m.digest.update(_json_record(r).encode())
                self.done.append((c, r))
            m.ops += len(results)

    def check(self, samples: int = 6) -> Tuple[int, List[str]]:
        """Recompute a spread sample of replicates cold; count mismatches."""
        failed, notes = 0, []
        if not self.done:
            return 0, notes
        picks = np.unique(np.linspace(0, len(self.done) - 1, samples).astype(int))
        for k in picks:
            cfg, got = self.done[int(k)]
            want = run_single(cfg, cache=False)
            if want != got:
                failed += 1
                notes.append(f"replicate {k} (seed {cfg.seed}, {cfg.protocol}) differs cold")
        return failed, notes


# ---------------------------------------------------------------------- #
# chaos_soak
# ---------------------------------------------------------------------- #
#: the ``chaos`` CLI's soak deployment: 5x5 grid, ideal MAC, live HELLO
SOAK_CONFIG = dict(
    topology="grid", grid_nx=5, grid_ny=5, side=120.0,
    group_size=6, mac="ideal", hello_phase=True,
)


class ChaosWorkload:
    """Checked churn runs cycling all five protocols, as the CLI soak does."""

    name = "chaos_soak"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.done: List[Tuple[SimulationConfig, object]] = []
        self.tracer = None

    def rounds(self) -> Iterator[list]:
        rng = np.random.default_rng(self.seed)
        while True:
            base = int(rng.integers(1, 2**31 - 64))
            yield [
                SimulationConfig(protocol=p, seed=base + i, **SOAK_CONFIG)
                for i, p in enumerate(_SOAK_PROTOCOLS)
            ]

    @staticmethod
    def run_one(cfg: SimulationConfig):
        return run_chaos_single(cfg, policy=DEFAULT_POLICY, check=True, **_SOAK_KWARGS)

    def first_replicate(self) -> None:
        self.run_one(next(self.rounds())[0])

    def run_round(self, cfgs: list, m: Pass) -> None:
        tracer = self.tracer
        for cfg in cfgs:
            m.speed.tick()
            t0 = time.perf_counter()
            if tracer is None:
                r = self.run_one(cfg)
            else:
                r = tracer.replicate(self.run_one, cfg)
                tracer.add("faults.events", len(r.fault_log))
                tracer.add("repair.grafts_ok", r.grafts_ok)
                tracer.add("repair.grafts_failed", r.grafts_failed)
                tracer.add("repair.rebuild_rounds", r.rebuild_rounds)
            t1 = time.perf_counter()
            m.latency(t1, t1 - t0)
            m.digest.update(_json_record(r).encode())
            self.done.append((cfg, r))
            m.ops += 1

    def check(self, samples: int = 4) -> Tuple[int, List[str]]:
        """Every run violation-free; a sample replays to the same trace."""
        failed, notes = 0, []
        for cfg, r in self.done:
            if r.violations:
                failed += 1
                notes.append(f"seed {cfg.seed} {cfg.protocol}: {r.violations[0]}")
        if self.done:
            picks = np.unique(np.linspace(0, len(self.done) - 1, samples).astype(int))
            for k in picks:
                cfg, got = self.done[int(k)]
                again = self.run_one(cfg)
                if again.trace_sha256 != got.trace_sha256:
                    failed += 1
                    notes.append(f"seed {cfg.seed} {cfg.protocol}: trace differs on replay")
        return failed, notes


# ---------------------------------------------------------------------- #
def timed_pass(
    workload, seconds: float, min_samples: int = MIN_P95_SAMPLES
) -> Tuple[PassResult, int]:
    """Run whole rounds until ``seconds`` passed and ``min_samples`` landed.

    Returns the pass and the number of rounds it ran.
    """
    m = Pass()
    rounds = workload.rounds()
    n_rounds = 0
    while True:
        workload.run_round(next(rounds), m)
        n_rounds += 1
        if time.perf_counter() - m.t0 >= seconds and len(m.samples) >= min_samples:
            break
    return m.finish(), n_rounds


def fixed_pass(workload, n_rounds: int) -> PassResult:
    """Run exactly the first ``n_rounds`` rounds of ``workload``."""
    m = Pass()
    rounds = workload.rounds()
    for _ in range(n_rounds):
        workload.run_round(next(rounds), m)
    return m.finish()


def make(name: str, seed: int):
    if name == "paper_sweep":
        return SweepWorkload(seed)
    if name == "chaos_soak":
        return ChaosWorkload(seed)
    raise KeyError(name)
