"""Microbenchmark harness for the simulation fast path.

``python -m repro.experiments bench`` runs one timed workload per hot
path — event-heap churn, kernel run loop, channel construction (200 and
2000 nodes), a full MTMRP round, trace queries, warm-start campaign
execution, eight concurrent sessions, pool reuse, dense delivery
fan-out — plus a peak-memory probe of 2000-node channel construction,
and writes the machine-readable
``BENCH_core.json``.  Each entry carries wall-time, ops/sec, and the
speedup against :data:`SEED_BASELINE` — the same workloads measured on
the pre-optimisation tree — so the perf trajectory is tracked from this
PR onward.  The campaign benches measure their own cold path live
instead (machine-independent: both sides run on the same box in the
same process).  ``docs/PERFORMANCE.md`` explains how to read and
regenerate the file.

:func:`compare_to_baseline` grades a fresh run against a committed
``BENCH_core.json`` (CI fails on >25% wall-time regression), and
:func:`append_history` appends one summary row per run to
``BENCH_history.jsonl`` so the trend across PRs is recorded, not just
the latest point.

Timings are min-of-N ``perf_counter`` measurements (minimum, not mean:
the minimum is the least-noisy estimator of the achievable time on a
shared machine).
"""

from __future__ import annotations

import json
import time
import tracemalloc
from pathlib import Path
from typing import Callable, Dict, List, Tuple, Union

import numpy as np

__all__ = [
    "SEED_BASELINE",
    "run_benchmarks",
    "write_bench_json",
    "compare_to_baseline",
    "append_history",
]

#: Min-of-N wall seconds for the identical workloads on the seed tree
#: (dense geometry, Event-object heap, scanning trace queries), captured
#: on the reference CI-class machine immediately before the fast-path
#: overhaul.  ``channel_2000_peak_mb`` is tracemalloc peak megabytes.
SEED_BASELINE: Dict[str, float] = {
    "event_queue_churn_10k": 0.048870,
    "simulator_cascade_20k": 0.033179,
    "channel_construction_200": 0.0023280,
    "channel_construction_2000": 0.35256,
    "full_mtmrp_round_grid": 0.045681,
    "trace_queries_50k": 0.092916,
    "channel_2000_peak_mb": 228.86,
}


def _best_of(fn: Callable[[], None], repeat: int, number: int = 1) -> float:
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        times.append((time.perf_counter() - t0) / number)
    return min(times)


def run_benchmarks(fast: bool = False) -> Dict[str, Dict[str, float]]:
    """Execute every microbenchmark; returns ``{name: entry}``.

    Each entry has ``wall_s``, ``ops``, ``ops_per_s``, and — when the
    seed tree measured the same workload — ``baseline_wall_s`` and
    ``speedup``.  ``fast=True`` cuts repetitions for CI smoke runs.
    """
    from repro.experiments.config import SimulationConfig
    from repro.experiments.runner import run_single
    from repro.net.channel import Channel
    from repro.net.topology import random_topology
    from repro.sim.events import EventQueue
    from repro.sim.kernel import Simulator
    from repro.sim.trace import TraceKind, TraceRecorder

    results: Dict[str, Dict[str, float]] = {}

    def record(
        name: str, wall_s: float, ops: float, baseline_wall_s: float = None
    ) -> None:
        entry = {"wall_s": wall_s, "ops": ops, "ops_per_s": ops / wall_s}
        base = baseline_wall_s if baseline_wall_s is not None else SEED_BASELINE.get(name)
        if base is None:
            # Workloads introduced after the seed tree have no
            # pre-optimisation measurement: they are their own baseline at
            # introduction (speedup 1.0), which keeps every entry on the
            # full schema — compare_to_baseline gates later runs against
            # the committed wall time.
            base = wall_s
        entry["baseline_wall_s"] = base
        entry["speedup"] = base / wall_s
        results[name] = entry

    # -- event heap: 10k pushes then full drain ------------------------- #
    def churn() -> None:
        q = EventQueue()
        push = q.push
        for i in range(10_000):
            push(float(i % 97), None.__class__)
        while q:
            q.pop()

    record("event_queue_churn_10k", _best_of(churn, 3 if fast else 7), 20_000)

    # -- kernel run loop: 20k-event self-rescheduling chain ------------- #
    def cascade() -> None:
        sim = Simulator(seed=1)
        remaining = [20_000]

        def tick() -> None:
            remaining[0] -= 1
            if remaining[0] > 0:
                sim.schedule(0.001, tick)

        sim.schedule(0.0, tick)
        sim.run()

    record("simulator_cascade_20k", _best_of(cascade, 3 if fast else 7), 20_000)

    # -- channel construction: paper-size and 10x deployments ----------- #
    pos200 = random_topology(200, rng=np.random.default_rng(3), comm_range=40.0)
    record(
        "channel_construction_200",
        _best_of(lambda: Channel(Simulator(seed=1), pos200, comm_range=40.0),
                 5 if fast else 9, 5),
        1,
    )
    pos2000 = random_topology(2000, side=632.45, rng=np.random.default_rng(3))
    record(
        "channel_construction_2000",
        _best_of(lambda: Channel(Simulator(seed=1), pos2000, comm_range=40.0),
                 3, 1),
        1,
    )

    # -- full protocol round (construction + flood + data) -------------- #
    cfg = SimulationConfig(protocol="mtmrp", topology="grid", group_size=20, seed=5)
    run_single(cfg, cache=False)  # warm imports outside the timed region
    record(
        "full_mtmrp_round_grid",
        _best_of(lambda: run_single(cfg, cache=False), 3 if fast else 5, 1),
        1,
    )

    # -- the same round with an Observer attached ------------------------ #
    # Counters + spans + 0.25 s sampling windows; the delta against
    # full_mtmrp_round_grid is the observability tax, bounded at <=10%
    # by tests/obs/test_overhead.py.
    from repro.obs import Observer

    def observed_round() -> None:
        run_single(cfg, cache=False, obs=Observer(window=0.25))

    observed_round()  # warm the obs imports outside the timed region
    record(
        "full_mtmrp_round_grid_obs",
        _best_of(observed_round, 3 if fast else 5, 1),
        1,
    )

    # -- trace queries over 50k stored records -------------------------- #
    tr = TraceRecorder()
    for i in range(50_000):
        tr.emit(
            float(i),
            TraceKind.TX if i % 3 else TraceKind.RX,
            i % 500,
            "DataPacket" if i % 2 else "JoinQuery",
            i,
        )

    def queries() -> None:
        for _ in range(20):
            tr.nodes_with(TraceKind.TX, "DataPacket")
            tr.count(TraceKind.TX)
            sum(1 for _ in tr.filter(kind=TraceKind.RX, packet_type="JoinQuery"))

    record("trace_queries_50k", _best_of(queries, 3 if fast else 5, 1), 60)

    # -- 8 concurrent multicast sessions on one grid --------------------- #
    # The multi-session regime the traffic engine exists for: the ramp
    # plan's top rung (8 staggered CBR flows) through the generic
    # scheduled path with per-session metrics collection.  The sanity
    # assertion pins the quantity the workload measures — cross-session
    # forwarder sharing — so the timing can't silently degenerate into a
    # no-traffic run.
    from repro.traffic.spec import ramp_plan

    ms_base = SimulationConfig(protocol="mtmrp", topology="grid", seed=5)
    ms_cfg = ms_base.with_(sessions=ramp_plan(ms_base, 8))
    ms_probe = run_single(ms_cfg, cache=False)  # warm imports un-timed
    if ms_probe.traffic is None or ms_probe.traffic.forwarding_nodes == 0:
        raise AssertionError("multisession_8x produced no forwarding state")
    record(
        "multisession_8x",
        _best_of(lambda: run_single(ms_cfg, cache=False), 3 if fast else 5, 1),
        8,
        # the scalar path measured when this workload was introduced (its
        # former first-seen self-baseline, now pinned explicitly so the
        # speedup column stays meaningful as the scalar path itself moves)
        baseline_wall_s=0.1058435,
    )

    # -- warm-start campaign: 50 hello-phase runs, cold vs forked ------- #
    # 25 (N, w) tuning cells x 2 seeds, every run paying a 15 s HELLO
    # warmup.  The cold side rebuilds the prefix per run (exactly what
    # the tree did before snapshots existed); the warm side captures each
    # seed's prefix once and forks it.  Results are bit-identical — the
    # digest-pinned tests in tests/sim/test_snapshot.py enforce that —
    # so the ratio is pure execution-engine speedup.
    from repro.experiments import runner as runner_mod
    from repro.experiments.runner import run_many

    base = SimulationConfig(
        protocol="mtmrp", topology="grid", group_size=20, mac="csma",
        hello_phase=True, hello_warmup=15.0,
        construction_time=0.5, data_time=0.25,
    )
    campaign = [
        base.with_(seed=seed, backoff_n=n, backoff_w=w)
        for seed in (11, 12)
        for n in (3.0, 4.0, 5.0, 6.0, 7.0)
        for w in (0.001, 0.005, 0.01, 0.02, 0.03)
    ]
    t0 = time.perf_counter()
    cold = run_many(campaign)
    t_cold = time.perf_counter() - t0
    runner_mod._process_snapshots().clear()  # pay the captures inside the timing
    t0 = time.perf_counter()
    warm = run_many(campaign, warm=True)
    t_warm = time.perf_counter() - t0
    if warm != cold:  # pragma: no cover - determinism violation
        raise AssertionError("warm-start campaign diverged from the cold path")
    record("campaign_warmstart_50", t_warm, len(campaign), baseline_wall_s=t_cold)

    # -- persistent pool vs per-point pools over a 4-point sweep -------- #
    from concurrent.futures import ProcessPoolExecutor

    from repro.experiments.runner import _run_chunk, _warm_imports, shutdown_pool

    static = SimulationConfig(protocol="mtmrp", topology="grid", group_size=10, mac="ideal")
    points = [
        [static.with_(group_size=gs, seed=s) for s in range(60, 66)]
        for gs in (5, 10, 15, 20)
    ]

    def sweep_fresh() -> list:
        # the pre-pool pattern: spawn + warm + tear down one executor per
        # sweep point, one future per run
        out = []
        for cfgs in points:
            with ProcessPoolExecutor(max_workers=2, initializer=_warm_imports) as pool:
                futs = [pool.submit(_run_chunk, [(i, c, False, None)])
                        for i, c in enumerate(cfgs)]
                out.extend(fut.result()[0][1] for fut in futs)
        return out

    def sweep_shared() -> list:
        out = []
        for cfgs in points:
            out.extend(run_many(cfgs, workers=2))
        return out

    n_runs = sum(len(p) for p in points)
    t0 = time.perf_counter()
    fresh = sweep_fresh()
    t_fresh = time.perf_counter() - t0
    shutdown_pool()  # charge pool creation to the shared side too
    t0 = time.perf_counter()
    shared = sweep_shared()
    t_shared = time.perf_counter() - t0
    if fresh != shared:  # pragma: no cover - determinism violation
        raise AssertionError("shared-pool sweep diverged from per-point pools")
    record("pool_reuse_sweep", t_shared, n_runs, baseline_wall_s=t_fresh)

    # -- campaign service: warm-cache saturation vs cold execution ------ #
    # The service-tier headline: once a campaign's replicates are in the
    # content-addressed result store, re-submitting the spec costs a hash
    # chain plus a store read instead of a simulation.  Cold pass executes
    # n distinct campaigns through the full submit path; warm pass replays
    # the identical specs against the populated store.  The recorded
    # speedup is the dedupe win the service exists to provide.
    import asyncio
    import tempfile

    from repro.service import CampaignScheduler, CampaignService, ResultStore

    # workload size is fixed (not fast-dependent) so wall times stay
    # comparable between CI smoke runs and the committed baseline
    n_req = 25
    svc_payloads = [
        {
            "config": {"protocol": "mtmrp", "topology": "grid",
                       "group_size": 10, "mac": "ideal"},
            "replicates": 2,
            "batch_seed": 5000 + i,
        }
        for i in range(n_req)
    ]

    async def _saturation():
        with tempfile.TemporaryDirectory(prefix="repro-bench-svc-") as tmp:
            service = CampaignService(
                store=ResultStore(tmp), scheduler=CampaignScheduler()
            )
            t0 = time.perf_counter()
            cold = [await service.run_to_completion(p) for p in svc_payloads]
            t_cold = time.perf_counter() - t0
            t0 = time.perf_counter()
            warm = [await service.run_to_completion(p) for p in svc_payloads]
            t_warm = time.perf_counter() - t0
            await service.close()
            return t_cold, t_warm, cold, warm

    t_cold, t_warm, cold, warm = asyncio.run(_saturation())
    if [d["results"] for d in cold] != [d["results"] for d in warm]:
        # pragma: no cover - cache correctness violation
        raise AssertionError("warm-cache replay diverged from cold execution")
    if t_cold / t_warm < 10.0:  # pragma: no cover - acceptance floor
        raise AssertionError(
            f"service warm cache only {t_cold / t_warm:.1f}x over cold "
            f"(acceptance floor is 10x)"
        )
    record("service_saturation", t_warm, n_req, baseline_wall_s=t_cold)

    # -- dense-path delivery fan-out at 2000 nodes ---------------------- #
    # Shadow fading forces the dense (n, n) geometry; the workload is one
    # full round of per-sender delivery-list builds plus the batched loss
    # draw over each list — the exact inner loop of Channel.transmit.
    from repro.net.loss import IidLoss
    from repro.phy.propagation import LogDistance

    fading = LogDistance(
        reference_distance=1.0,
        reference_power_factor=(1.5 * 1.5) ** 2,
        path_loss_exponent=4.0,
        shadowing_sigma_db=4.0,
        rng=np.random.default_rng(9),
    )
    ch2000 = Channel(Simulator(seed=1), pos2000, comm_range=40.0, propagation=fading)
    fan_loss = IidLoss(0.1, np.random.default_rng(17))

    def fanout() -> None:
        # rebuild, not replay, the caches
        ch2000._delivery = [None] * ch2000.n
        ch2000._delivery_dsts = [None] * ch2000.n
        for i in range(ch2000.n):
            dl = ch2000._delivery_list(i)
            if dl:
                # dst ids come from the channel's cache (built alongside
                # the delivery list), not a per-frame listcomp
                fan_loss.frame_lost_batch(i, ch2000._delivery_dsts[i])

    record("delivery_fanout_2000", _best_of(fanout, 3 if fast else 5, 1), 2000)

    # -- geometry memory at 2000 nodes ---------------------------------- #
    tracemalloc.start()
    Channel(Simulator(seed=1), pos2000, comm_range=40.0)
    _cur, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    peak_mb = peak / 1e6
    results["channel_2000_peak_mb"] = {
        "peak_mb": peak_mb,
        "baseline_mb": SEED_BASELINE["channel_2000_peak_mb"],
        "memory_ratio": SEED_BASELINE["channel_2000_peak_mb"] / peak_mb,
    }
    return results


def write_bench_json(
    out: Union[str, Path] = "BENCH_core.json", fast: bool = False
) -> Dict[str, Dict[str, float]]:
    """Run the suite and persist ``BENCH_core.json``; returns the results."""
    results = run_benchmarks(fast=fast)
    payload = {
        "schema": 1,
        "command": "PYTHONPATH=src python -m repro.experiments bench",
        "baseline": "seed tree (dense geometry, Event-object heap), see SEED_BASELINE",
        "benchmarks": results,
    }
    Path(out).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return results


def compare_to_baseline(
    results: Dict[str, Dict[str, float]],
    baseline: Union[str, Path],
    threshold: float = 0.25,
) -> List[Tuple[str, float, float, float]]:
    """Grade fresh results against a committed ``BENCH_core.json``.

    Returns ``(name, baseline_value, current_value, ratio)`` for every
    benchmark whose wall time (or peak memory) grew by more than
    ``threshold`` — the CI regression gate.  A benchmark absent from the
    committed baseline is **first-seen**: it is graded against itself
    (ratio 1.0, never a regression) this run and against its committed
    value from the next commit onward, so adding a workload never breaks
    the gate while retiring one is simply skipped.  Wall-time comparisons
    are only meaningful against a baseline captured on a similar machine
    (CI compares runner-class against runner-class).
    """
    payload = json.loads(Path(baseline).read_text())
    base = payload.get("benchmarks", payload)
    regressions: List[Tuple[str, float, float, float]] = []
    for name, entry in results.items():
        ref = base.get(name)
        if ref is None:
            ref = entry  # first-seen workload: self-baseline
        for field in ("wall_s", "peak_mb"):
            if field in entry and field in ref and ref[field] > 0:
                ratio = entry[field] / ref[field]
                if ratio > 1.0 + threshold:
                    regressions.append((name, ref[field], entry[field], ratio))
                break
    return regressions


def append_history(
    results: Dict[str, Dict[str, float]],
    path: Union[str, Path] = "BENCH_history.jsonl",
    note: str = "",
) -> Path:
    """Append one summary row per bench run; the cross-PR perf trend.

    ``BENCH_core.json`` is overwritten per run (the latest point);
    the history file only ever grows, one JSON object per line with the
    UTC timestamp and each benchmark's headline numbers.
    """
    row = {
        "ts": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "note": note,
        "benchmarks": {
            name: {
                k: entry[k]
                for k in ("wall_s", "ops_per_s", "speedup", "peak_mb")
                if k in entry
            }
            for name, entry in results.items()
        },
    }
    p = Path(path)
    if p.parent != Path("."):
        p.parent.mkdir(parents=True, exist_ok=True)
    with p.open("a") as fh:
        fh.write(json.dumps(row, sort_keys=True) + "\n")
    return p
