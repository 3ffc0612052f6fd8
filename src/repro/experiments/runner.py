"""Single-run and Monte-Carlo execution.

A run is a pure function of its :class:`SimulationConfig` (including the
seed), so Monte-Carlo batches are embarrassingly parallel.  ``run_many``
executes them serially by default and fans out over a *persistent*
process pool when ``workers > 1`` — one pool shared by every sweep point
of a campaign (creating a pool per point paid worker spawn + module
import over and over).  Configs are submitted in chunks to keep IPC off
the critical path of small runs, and results stream back as chunks
finish, so a progress callback sees completions immediately.

Warm starts: paired sweeps (same seed, varying protocol or tuning
parameters) rebuild an identical prefix — topology, channel, HELLO
warmup — once per run.  ``run_single(warm_start=...)`` forks that prefix
from a :class:`repro.sim.snapshot.WarmSnapshot` instead, bit-identically
(see :mod:`repro.sim.snapshot`); ``run_many(warm=True)`` applies this
automatically to configs where forking beats a cold build.

Failure isolation: one poisoned config no longer kills a campaign with a
bare traceback — failures surface as :class:`RunError` carrying the
config, seed, index and content hash, and ``on_error="collect"`` keeps
the campaign running with errors returned in-place (fuzz mode).

Because a run is a pure function of its config, results are also
*cacheable*: :func:`run_single` can content-hash the config and reuse a
previous :class:`RunResult` from disk (``results/cache/`` by convention;
see :func:`config_hash`).  Delete the cache directory — or bump
``CACHE_VERSION`` when run semantics change — to invalidate.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import threading
import traceback as _traceback
import warnings
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.experiments.config import (
    SimulationConfig,
    make_agent_factory,
)
from repro.sim.rng import RngRegistry
from repro.sim.snapshot import (
    SnapshotCache,
    WarmSnapshot,
    absorb_trace,
    build_prefix,
    default_trace_kinds,
    prefix_key,
    warm_profitable,
)
from repro.sim.trace import TraceKind, TraceRecorder

__all__ = [
    "RunResult",
    "RunError",
    "run_single",
    "run_many",
    "monte_carlo",
    "aggregate",
    "config_hash",
    "shared_pool",
    "shutdown_pool",
    "pool_generation",
    "pool_worker_pids",
    "CACHE_VERSION",
]

#: Bump whenever a change alters what a run computes for the *same*
#: config (new metrics, different semantics) — stale cache entries become
#: unreachable because the version participates in :func:`config_hash`.
#: v2: the config grew a ``sessions`` field (multi-session traffic
#: plans), changing the hashed payload shape for every config.
CACHE_VERSION = 2

#: Environment variable naming the default run-result cache directory.
#: Unset (the default) disables caching entirely.
CACHE_ENV_VAR = "REPRO_RESULT_CACHE"


@dataclass(frozen=True)
class RunResult:
    """Flattened outcome of one Monte-Carlo run."""

    protocol: str
    topology: str
    group_size: int
    seed: int
    backoff_n: float
    backoff_w: float

    data_transmissions: int
    tree_transmissions: int
    extra_nodes: int
    average_relay_profit: float
    delivered: int
    delivery_ratio: float
    covered_receivers: int
    join_query_tx: int
    join_reply_tx: int
    hello_tx: int
    collisions: int
    energy_joules: float
    #: seconds from flood start to last receiver covered (the backoff's
    #: latency price; 0.0 for flooding, which has no construction phase)
    construction_latency: float = 0.0
    #: frames erased by the configured link-loss model (0 without one)
    frames_lost: int = 0

    #: for snapshot rendering
    transmitters: Tuple[int, ...] = ()
    receivers: Tuple[int, ...] = ()
    positions: Optional[np.ndarray] = None

    #: multi-session runs: the per-session + aggregate traffic view
    #: (:class:`repro.traffic.metrics.TrafficMetrics`); None on legacy
    #: single-session runs
    traffic: Optional[object] = None


#: The record kinds a plain metrics run stores (definition lives next to
#: the snapshot engine, which must agree with it exactly).
_trace_kinds = default_trace_kinds


# --------------------------------------------------------------------- #
# run-result disk cache
# --------------------------------------------------------------------- #
def config_hash(cfg: SimulationConfig) -> str:
    """Content hash identifying a run: the full config + cache version."""
    payload = repr((CACHE_VERSION, sorted(asdict(cfg).items())))
    return hashlib.sha256(payload.encode()).hexdigest()


def _default_cache_dir() -> Optional[Path]:
    path = os.environ.get(CACHE_ENV_VAR)
    return Path(path) if path else None


#: keys a cache entry may carry (``_cache_store`` drops the two
#: non-flat fields) and the ones it must carry
_CACHE_KEYS = frozenset(f.name for f in fields(RunResult)) - {"positions", "traffic"}
_CACHE_REQUIRED = frozenset(
    f.name for f in fields(RunResult) if f.default is MISSING and f.default_factory is MISSING
)


def _cache_load(path: Path) -> Optional[RunResult]:
    """The cached result at ``path``, or None when the entry is missing,
    unreadable, or not a stored result (a foreign or truncated file
    reads as a miss, never as a crash)."""
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    if (
        not isinstance(payload, dict)
        or not _CACHE_REQUIRED <= payload.keys() <= _CACHE_KEYS
        or not all(
            isinstance(payload.get(k, []), list) for k in ("transmitters", "receivers")
        )
    ):
        return None
    payload["transmitters"] = tuple(payload.get("transmitters", ()))
    payload["receivers"] = tuple(payload.get("receivers", ()))
    payload["positions"] = None
    return RunResult(**payload)


def _cache_store(path: Path, result: RunResult) -> None:
    payload = asdict(result)
    payload.pop("positions", None)
    payload.pop("traffic", None)  # multi-session runs are never cached
    path.parent.mkdir(parents=True, exist_ok=True)
    # default=float folds numpy scalars; write-then-rename keeps readers
    # of a shared cache from seeing half a file.  The temp name is private
    # to this writer (pid + thread), so concurrent stores of one key from
    # scheduler threads or pool workers never rename each other's file.
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    tmp.write_text(json.dumps(payload, default=float))
    tmp.replace(path)


def run_single(
    cfg: SimulationConfig,
    keep_positions: bool = False,
    trace: Optional[TraceRecorder] = None,
    cache: Union[None, bool, str, Path] = None,
    check=None,
    warm_start: Union[None, bool, SnapshotCache, WarmSnapshot] = None,
    obs=None,
) -> RunResult:
    """Execute one multicast round under ``cfg`` and collect all metrics.

    Parameters
    ----------
    keep_positions:
        Retain the deployment coordinates on the result (snapshot plots).
    trace:
        Optional externally supplied recorder — lets callers observe the
        full event trace of the run (determinism tests, debugging).  The
        default recorder keeps only the kinds the metrics layer reads.
    cache:
        Run-result disk cache: a directory path enables it there, True
        uses ``$REPRO_RESULT_CACHE``, False disables, and None (default)
        enables iff ``$REPRO_RESULT_CACHE`` is set.  Only plain metric
        runs are cached — never runs keeping positions or an external
        trace, whose value is in the side artifacts.
    check:
        Optional :class:`repro.check.CheckHarness` enforcing protocol
        invariants at the route-discovery and end-of-run checkpoints
        (and on RouteErrors).  The harness only reads simulator state,
        so the run's trace is identical with or without it.  Checked
        runs are never cached — the point is to execute them.
    warm_start:
        Fork the run's prefix (topology/channel/HELLO warmup) from a
        warm snapshot instead of rebuilding it — bit-identical to the
        cold path (see :mod:`repro.sim.snapshot`).  ``True`` uses the
        process-wide :class:`SnapshotCache`; a :class:`SnapshotCache`
        scopes reuse to the caller; a :class:`WarmSnapshot` must match
        this config's :func:`~repro.sim.snapshot.prefix_key`.  Ignored
        for checked runs (the harness hooks the build sequence).
    obs:
        Optional :class:`repro.obs.Observer` attached for the whole run:
        counters, protocol-phase spans (prefix-build, hello-warmup,
        route-discovery, data-delivery) and windowed samples.  The
        observer reads state only, so the trace is bit-identical with or
        without it.  Observed runs are never cached and never warm-start
        (observer state isn't part of a snapshot); ``obs.finish()`` is
        called before returning.  ``obs is None`` (the default) executes
        zero observability code.
    """
    cache_dir: Optional[Path]
    if cache is False:
        cache_dir = None
    elif cache is None or cache is True:
        cache_dir = _default_cache_dir()
    else:
        cache_dir = Path(cache)
    from repro.traffic.spec import active_sessions

    cacheable = (
        cache_dir is not None
        and not keep_positions
        and trace is None
        and check is None
        and obs is None
        # multi-session results carry a structured TrafficMetrics payload
        # the flat JSON cache cannot round-trip
        and active_sessions(cfg) is None
    )
    if cacheable:
        cache_path = cache_dir / f"{config_hash(cfg)}.json"
        cached = _cache_load(cache_path)
        if cached is not None:
            return cached

    warm = _resolve_warm(warm_start) if check is None and obs is None else None

    # Pause cyclic GC across build + run + metrics: network assembly
    # allocates tens of thousands of containers whose churn triggers
    # pointless gen-0 scans (the run loop pauses GC on its own, but the
    # build phase is a comparable allocation burst).
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        if warm is not None:
            result = _execute_warm(cfg, warm, keep_positions=keep_positions, trace=trace)
        else:
            result = _execute_run(
                cfg, keep_positions=keep_positions, trace=trace, check=check, obs=obs
            )
    finally:
        if gc_was_enabled:
            gc.enable()
    if cacheable:
        _cache_store(cache_path, result)
    return result


#: process-wide snapshot cache backing ``run_single(warm_start=True)``;
#: worker processes each grow their own copy of this module state, which
#: is what lets a persistent pool amortise prefixes across sweep points
_SNAPSHOTS: Optional[SnapshotCache] = None


def _process_snapshots() -> SnapshotCache:
    global _SNAPSHOTS
    if _SNAPSHOTS is None:
        _SNAPSHOTS = SnapshotCache()
    return _SNAPSHOTS


def _resolve_warm(warm_start) -> Union[None, SnapshotCache, WarmSnapshot]:
    if warm_start is None or warm_start is False:
        return None
    if warm_start is True:
        return _process_snapshots()
    if isinstance(warm_start, (SnapshotCache, WarmSnapshot)):
        return warm_start
    raise TypeError(
        f"warm_start must be None/bool/SnapshotCache/WarmSnapshot, "
        f"got {type(warm_start).__name__}"
    )


def _execute_warm(
    cfg: SimulationConfig,
    warm: Union[SnapshotCache, WarmSnapshot],
    keep_positions: bool = False,
    trace: Optional[TraceRecorder] = None,
) -> RunResult:
    """Fork the prefix from a snapshot and run the protocol suffix."""
    if isinstance(warm, WarmSnapshot):
        key = prefix_key(cfg, trace)
        if warm.key != key:
            raise ValueError(
                "warm_start snapshot does not match this config's prefix "
                "(different topology/seed/channel/HELLO parameters or trace shape)"
            )
        snap = warm
    else:
        snap = warm.get_or_capture(cfg, trace=trace)
    fork = snap.fork()
    result = _run_suffix(
        cfg, fork.sim, fork.net, fork.receivers, fork.positions, keep_positions
    )
    if trace is not None:
        # the continuation ran on the fork's private recorder; hand the
        # full trace (prefix + suffix) back to the caller's
        absorb_trace(trace, fork.sim.trace)
    return result


def _execute_run(
    cfg: SimulationConfig,
    keep_positions: bool = False,
    trace: Optional[TraceRecorder] = None,
    check=None,
    obs=None,
) -> RunResult:
    """Build the network, run the round, and collect metrics (no caching)."""
    if trace is None:
        trace = TraceRecorder(enabled_kinds=_trace_kinds(cfg))
    # harness/observer attach right after kernel creation — before the
    # channel caches trace.emit
    attach = None
    if check is not None or obs is not None:
        def attach(sim):
            if check is not None:
                check.attach(sim, context=cfg)
            if obs is not None:
                obs.attach(sim, context=cfg)
    prefix = build_prefix(cfg, trace=trace, attach=attach, obs=obs)
    return _run_suffix(
        cfg,
        prefix.sim,
        prefix.net,
        prefix.receivers,
        prefix.positions,
        keep_positions,
        check=check,
        obs=obs,
    )


def _run_suffix(
    cfg: SimulationConfig,
    sim,
    net,
    receivers: List[int],
    positions: np.ndarray,
    keep_positions: bool = False,
    check=None,
    obs=None,
) -> RunResult:
    """Install the protocol agents and run the discovery/data phases.

    Everything after the snapshot boundary: the only part of a run that
    depends on ``protocol``/``backoff_*``/phase timings.  HELLO agents
    (when present) were already started by the prefix, so only the newly
    installed protocol agents are started here — their ``start()`` is a
    no-op, making this identical to the historical ``net.start()`` pass.
    """
    from repro.metrics.collect import collect_metrics
    from repro.traffic.spec import active_sessions

    agents = net.install(make_agent_factory(cfg))
    for agent in agents:
        agent.start()
    geographic = cfg.protocol == "gmr"
    plan = active_sessions(cfg)
    members = traffic = None
    if plan is not None:
        from repro.traffic.engine import session_members

        members = session_members(net, plan)

    if check is not None:
        if plan is not None:
            check.bind_network(
                net, agents, cfg.source, cfg.group, receivers, sessions=members
            )
        else:
            check.bind_network(net, agents, cfg.source, cfg.group, receivers)
    if obs is not None:
        if members is not None:
            # sampler delivery_ratio tracks every session's receivers;
            # per-flow columns split the same series by SessionSpec.key()
            obs.bind_network(
                net,
                sorted({m for ms in members.values() for m in ms}),
                sessions={spec: members[spec.flow] for spec in plan},
            )
        else:
            obs.bind_network(net, receivers)

    source_agent = agents[cfg.source]
    t0 = sim.now
    settle = cfg.effective_construction_time
    if plan is not None:
        from repro.traffic.engine import schedule_sessions

        if obs is not None:
            obs.spans.begin("route-discovery", sim, protocol=cfg.protocol)
        horizon = schedule_sessions(cfg, sim, net, agents, plan, members, t0=t0)
        first_data = t0 + min(s.start for s in plan) + settle
        sim.run(until=first_data)
        if obs is not None:
            obs.spans.end(sim)
        if check is not None:
            check.checkpoint("route-discovery")
        if obs is not None:
            obs.spans.begin("data-delivery", sim, protocol=cfg.protocol)
        sim.run(until=horizon)
        if obs is not None:
            obs.spans.end(sim)
    elif cfg.protocol == "flooding":
        if obs is not None:
            obs.spans.begin("data-delivery", sim, protocol=cfg.protocol)
        source_agent.originate(cfg.group, 0)
        sim.run(until=t0 + settle + cfg.data_time)
        if obs is not None:
            obs.spans.end(sim)
    elif geographic:
        # stateless: no construction phase; the packet carries the
        # destination positions (the GMR assumption set)
        if obs is not None:
            obs.spans.begin("data-delivery", sim, protocol=cfg.protocol)
        source_agent.multicast(
            cfg.group, {d: net.node(d).position for d in receivers}, seq=0
        )
        sim.run(until=t0 + settle + cfg.data_time)
        if obs is not None:
            obs.spans.end(sim)
    else:
        if obs is not None:
            obs.spans.begin("route-discovery", sim, protocol=cfg.protocol)
        source_agent.request_route(cfg.group)
        sim.run(until=t0 + settle)
        if obs is not None:
            obs.spans.end(sim)
        if check is not None:
            check.checkpoint("route-discovery")
        if obs is not None:
            obs.spans.begin("data-delivery", sim, protocol=cfg.protocol)
        source_agent.send_data(cfg.group, 0)
        sim.run(until=t0 + settle + cfg.data_time)
        if obs is not None:
            obs.spans.end(sim)

    if check is not None:
        check.checkpoint("end-of-run")
    if obs is not None:
        obs.finish()

    if plan is not None:
        m, traffic = _traffic_run_metrics(
            net, agents, cfg, plan, members, horizon - t0
        )
    elif cfg.protocol == "flooding":
        m = _flooding_metrics(net, cfg, receivers)
    elif geographic:
        m = _geo_metrics(net, cfg, receivers)
    else:
        m = collect_metrics(net, agents, cfg.source, cfg.group, receivers)
    result = RunResult(
        protocol=cfg.protocol,
        topology=cfg.topology,
        group_size=cfg.group_size,
        seed=cfg.seed,
        backoff_n=cfg.backoff_n,
        backoff_w=cfg.backoff_w,
        data_transmissions=m.data_transmissions,
        tree_transmissions=m.tree_transmissions,
        extra_nodes=m.extra_nodes,
        average_relay_profit=m.average_relay_profit,
        delivered=m.delivered,
        delivery_ratio=m.delivery_ratio,
        covered_receivers=m.covered_receivers,
        join_query_tx=m.join_query_tx,
        join_reply_tx=m.join_reply_tx,
        hello_tx=m.hello_tx,
        collisions=m.collisions,
        energy_joules=m.energy_joules,
        construction_latency=m.construction_latency,
        frames_lost=m.frames_lost,
        transmitters=tuple(sorted(m.transmitters)),
        receivers=tuple(receivers),
        positions=positions if keep_positions else None,
        traffic=traffic,
    )
    return result


def _traffic_run_metrics(net, agents, cfg: SimulationConfig, plan, members, horizon):
    """Multi-session metrics: the aggregate MulticastMetrics view plus the
    per-session :class:`~repro.traffic.metrics.TrafficMetrics` payload.

    Aggregate fields fold every session together — ``delivered`` sums
    per-session delivered receivers, ``delivery_ratio`` is the mean
    per-session ratio (Jain-weighted fairness lives on the traffic
    payload) and ``data_transmissions`` counts every data-plane frame of
    every session.
    """
    from repro.metrics.collect import MulticastMetrics, average_relay_profit
    from repro.traffic.metrics import _DATA_TYPES, collect_traffic_metrics

    traffic = collect_traffic_metrics(net, agents, plan, members, horizon)
    trace = net.sim.trace
    transmitters: set = set()
    for pt in _DATA_TYPES:
        transmitters |= trace.nodes_with(TraceKind.TX, pt)
    sources = {spec.source for spec in plan}
    all_receivers = set()
    for recv in members.values():
        all_receivers |= set(recv)

    stateful = any(getattr(a, "sessions", None) for a in agents)
    if stateful:
        covered = 0
        for spec in plan:
            for r in members[spec.flow]:
                sess = getattr(agents[r], "sessions", None)
                st = sess.get(spec.flow) if sess else None
                if st is not None and st.covered:
                    covered += 1
    else:
        covered = sum(s.delivered for s in traffic.sessions)

    first_jq = next(trace.filter(TraceKind.TX, "JoinQuery"), None)
    t_start = first_jq.time if first_jq is not None else None
    t_covered = None
    for rec in trace.filter(TraceKind.MARK, "Covered"):
        if rec.node in all_receivers:
            t_covered = rec.time
    latency = (
        (t_covered - t_start)
        if (t_start is not None and t_covered is not None)
        else 0.0
    )
    m = MulticastMetrics(
        data_transmissions=traffic.aggregate_data_tx,
        tree_transmissions=sum(1 + len(s.forwarders) for s in traffic.sessions),
        extra_nodes=len(transmitters - sources - all_receivers),
        average_relay_profit=average_relay_profit(net, transmitters, all_receivers),
        delivered=sum(s.delivered for s in traffic.sessions),
        delivery_ratio=traffic.aggregate_delivery_ratio,
        covered_receivers=covered,
        join_query_tx=trace.count(TraceKind.TX, "JoinQuery"),
        join_reply_tx=trace.count(TraceKind.TX, "JoinReply"),
        hello_tx=trace.count(TraceKind.TX, "HelloPacket"),
        collisions=net.channel.frames_collided,
        energy_joules=net.energy_summary()["total_joules"],
        frames_lost=net.channel.frames_lost,
        construction_latency=latency,
        transmitters=transmitters,
    )
    return m, traffic


def _flooding_metrics(net, cfg: SimulationConfig, receivers: Sequence[int]):
    """Flooding has no tree; every transmitter is a 'forwarder'."""
    from repro.metrics.collect import MulticastMetrics, average_relay_profit, extra_nodes

    trace = net.sim.trace
    transmitters = trace.nodes_with(TraceKind.TX, "DataPacket")
    delivered = len(trace.nodes_with(TraceKind.DELIVER) & set(receivers))
    return MulticastMetrics(
        data_transmissions=trace.count(TraceKind.TX, "DataPacket"),
        tree_transmissions=trace.count(TraceKind.TX, "DataPacket"),
        extra_nodes=extra_nodes(transmitters, cfg.source, receivers),
        average_relay_profit=average_relay_profit(net, transmitters, receivers),
        delivered=delivered,
        delivery_ratio=delivered / len(receivers) if receivers else 1.0,
        covered_receivers=delivered,
        join_query_tx=0,
        join_reply_tx=0,
        hello_tx=trace.count(TraceKind.TX, "HelloPacket"),
        collisions=net.channel.frames_collided,
        energy_joules=net.energy_summary()["total_joules"],
        frames_lost=net.channel.frames_lost,
        transmitters=transmitters,
    )


def _geo_metrics(net, cfg: SimulationConfig, receivers: Sequence[int]):
    """GMR metrics: packets are GeoDataPackets, there is no tree state."""
    from repro.metrics.collect import MulticastMetrics, average_relay_profit, extra_nodes

    trace = net.sim.trace
    transmitters = trace.nodes_with(TraceKind.TX, "GeoDataPacket")
    delivered = len(trace.nodes_with(TraceKind.DELIVER) & set(receivers))
    tx = trace.count(TraceKind.TX, "GeoDataPacket")
    return MulticastMetrics(
        data_transmissions=tx,
        tree_transmissions=tx,
        extra_nodes=extra_nodes(transmitters, cfg.source, receivers),
        average_relay_profit=average_relay_profit(net, transmitters, receivers),
        delivered=delivered,
        delivery_ratio=delivered / len(receivers) if receivers else 1.0,
        covered_receivers=delivered,
        join_query_tx=0,
        join_reply_tx=0,
        hello_tx=trace.count(TraceKind.TX, "HelloPacket"),
        collisions=net.channel.frames_collided,
        energy_joules=net.energy_summary()["total_joules"],
        frames_lost=net.channel.frames_lost,
        transmitters=transmitters,
    )


def monte_carlo(cfg: SimulationConfig, n_runs: int, batch_seed: int = 12345) -> List[SimulationConfig]:
    """Expand ``cfg`` into ``n_runs`` configs with independent seeds."""
    seeds = RngRegistry(batch_seed).spawn_run_seeds(n_runs)
    return [cfg.with_(seed=s) for s in seeds]


class RunError(RuntimeError):
    """One run of a campaign failed; carries what reproduces it.

    Raised by :func:`run_many` in ``on_error="raise"`` mode (the default)
    or returned *in-place* of the result in ``on_error="collect"`` mode.
    ``config``/``index``/``seed``/``config_hash`` identify the failing
    run; ``worker_traceback`` preserves the original stack even when the
    failure happened in a worker process.
    """

    def __init__(
        self,
        message: str,
        config: Optional[SimulationConfig] = None,
        index: Optional[int] = None,
        worker_traceback: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.config = config
        self.index = index
        self.config_hash = config_hash(config) if config is not None else None
        self.worker_traceback = worker_traceback

    @property
    def seed(self) -> Optional[int]:
        return self.config.seed if self.config is not None else None


def _run_error(cfg: SimulationConfig, index: int, cause: str,
               worker_traceback: Optional[str] = None) -> RunError:
    return RunError(
        f"run #{index} failed (seed={cfg.seed}, protocol={cfg.protocol}, "
        f"config_hash={config_hash(cfg)[:12]}): {cause}",
        config=cfg,
        index=index,
        worker_traceback=worker_traceback,
    )


# --------------------------------------------------------------------- #
# persistent worker pool
# --------------------------------------------------------------------- #
_POOL: Optional[ProcessPoolExecutor] = None
_POOL_WORKERS = 0
_POOL_GEN = 0


def _warm_imports() -> None:
    """Worker initializer: pay the heavy imports once per process."""
    import repro.core.mtmrp  # noqa: F401
    import repro.mac.csma  # noqa: F401
    import repro.metrics.collect  # noqa: F401
    import repro.net.network  # noqa: F401
    import repro.protocols.dodmrp  # noqa: F401
    import repro.protocols.gmr  # noqa: F401
    import repro.protocols.maodv  # noqa: F401
    import repro.protocols.odmrp  # noqa: F401


def shared_pool(workers: int) -> ProcessPoolExecutor:
    """The process-wide executor, created lazily and reused forever.

    Campaigns used to build (and tear down) one pool per sweep point,
    paying worker spawn + interpreter warmup dozens of times; the shared
    pool pays it once.  The pool grows if a later call asks for more
    workers and is otherwise left alone; ``shutdown_pool()`` exists for
    tests and long-lived embedders.
    """
    global _POOL, _POOL_WORKERS, _POOL_GEN
    if _POOL is None or _POOL_WORKERS < workers:
        if _POOL is not None:
            _POOL.shutdown(wait=False, cancel_futures=True)
        _POOL = ProcessPoolExecutor(max_workers=workers, initializer=_warm_imports)
        _POOL_WORKERS = workers
        _POOL_GEN += 1
    return _POOL


def shutdown_pool() -> None:
    """Tear down the shared executor (no-op when none exists).

    Also the recovery path after a worker death: a killed worker leaves
    the executor broken (every pending future raises
    ``BrokenProcessPool``), and dropping it here lets the next
    :func:`shared_pool` call build a fresh one — which is how the
    campaign service's scheduler restarts after fault injection.
    """
    global _POOL, _POOL_WORKERS, _POOL_GEN
    if _POOL is not None:
        _POOL.shutdown(wait=True, cancel_futures=True)
        _POOL = None
        _POOL_WORKERS = 0
        _POOL_GEN += 1


def pool_generation() -> int:
    """Monotone counter bumped on every pool rebuild *and* teardown.

    Lets concurrent recoveries coordinate without a shared lock over the
    whole executor: a scheduler that caught ``BrokenProcessPool`` only
    tears the pool down if the generation still matches the one its runs
    started on — otherwise another thread already rebuilt it and tearing
    it down again would break *that* thread's healthy retry.
    """
    return _POOL_GEN


def pool_worker_pids() -> Tuple[int, ...]:
    """PIDs of the shared pool's live worker processes (empty: no pool).

    Operational surface for the service tier: health probes and the
    worker-kill fault-injection tests (kill a pid, then prove the
    scheduler re-queues and recovers) both need worker identity without
    reaching into executor internals.
    """
    if _POOL is None or _POOL._processes is None:
        return ()
    return tuple(_POOL._processes.keys())


def _run_chunk(chunk: List[Tuple[int, SimulationConfig, bool, Optional[float]]]) -> list:
    """Worker-side: run a chunk of configs, isolating per-run failures.

    Each item is ``(index, config, warm, sample_window)``; a non-None
    window attaches an :class:`repro.obs.Observer` and ships the sampled
    windows back as the 4th slot of the result tuple (samples are plain
    NamedTuples, so they pickle cheaply).
    """
    out = []
    for idx, cfg, warm, window in chunk:
        try:
            if window is not None:
                from repro.obs import Observer

                ob = Observer(window=window)
                res = run_single(cfg, obs=ob)
                out.append((idx, res, None, ob.samples))
            else:
                out.append((idx, run_single(cfg, warm_start=warm or None), None, None))
        except Exception as exc:  # noqa: BLE001 - reported per-run to the parent
            out.append((idx, None, (repr(exc), _traceback.format_exc()), None))
    return out


def _chunk_plan(
    items: List[Tuple[int, SimulationConfig, bool, Optional[float]]],
    workers: int,
    chunk_size: Optional[int],
) -> List[List[Tuple[int, SimulationConfig, bool, Optional[float]]]]:
    """Split work into submission chunks.

    Small fast runs drown in per-future IPC when submitted one by one;
    chunks amortise it.  Auto mode aims for ~4 chunks per worker so the
    tail stays balanced.  Warm items are grouped by prefix key first, so
    each worker's snapshot cache sees runs of the same prefix back to
    back and captures each prefix at most once per process.
    """
    if any(it[2] for it in items):
        items = sorted(
            items, key=lambda it: (repr(prefix_key(it[1])) if it[2] else "", it[0])
        )
    if chunk_size is None:
        chunk_size = max(1, min(32, len(items) // (workers * 4)))
    return [items[i:i + chunk_size] for i in range(0, len(items), chunk_size)]


def run_many(
    configs: Iterable[SimulationConfig],
    workers: int = 1,
    progress: Optional[Callable[[int, int, RunResult], None]] = None,
    on_error: str = "raise",
    warm: Union[bool, str] = False,
    chunk_size: Optional[int] = None,
    on_result: Optional[Callable[[int, RunResult], None]] = None,
    on_sample: Optional[Callable[[int, "object"], None]] = None,
    sample_window: float = 0.25,
) -> List[RunResult]:
    """Run every config; process-parallel when ``workers > 1``.

    Results keep the order of ``configs``.  With ``workers > 1`` configs
    go to the persistent :func:`shared_pool` in chunks (see
    ``chunk_size``; auto-sized by default) and results stream back as
    chunks land: ``progress(done, total, result)`` fires per completed
    run, ``on_result(index, result)`` additionally reports the run's
    position in ``configs`` (checkpointing callers need the identity,
    not just the order of completion).

    ``on_error="raise"`` (default) aborts on the first failure with a
    :class:`RunError` naming the config/seed/index; ``"collect"`` keeps
    going and leaves the :class:`RunError` in the failed run's result
    slot (callers filter with ``isinstance``).

    **Ordering contract** (pinned by ``tests/experiments/test_runner.py::
    TestCollectOrderingContract``; the campaign service's scheduler
    re-queues failed slots by index and depends on every clause): the
    returned list always has exactly ``len(configs)`` slots in input
    order, on every execution path (serial or pool) and under any
    mix of failures and successes; in collect mode a failed run's slot
    holds a :class:`RunError` whose ``index`` equals its position; and
    ``on_result(index, result)`` reports the same index the result lands
    in, regardless of completion order.

    ``warm=True`` forks run prefixes from per-process snapshot caches
    where profitable (HELLO-phase / dense-channel configs — see
    :func:`repro.sim.snapshot.warm_profitable`); ``warm="always"``
    forces forking for every config.  Results are bit-identical either
    way.

    ``on_sample(index, sample)`` streams windowed telemetry: every run
    gets a private :class:`repro.obs.Observer` emitting one
    :class:`repro.obs.Sample` per ``sample_window`` simulated seconds.
    Serial campaigns stream live (mid-run); parallel campaigns deliver
    each run's samples, in time order, when its chunk lands.  Sampled
    runs never warm-start (observer state is not part of a snapshot), so
    ``warm`` is ignored when ``on_sample`` is set.

    """
    if on_error not in ("raise", "collect"):
        raise ValueError(f'on_error must be "raise" or "collect", got {on_error!r}')
    cfgs = list(configs)
    total = len(cfgs)
    force = warm == "always"
    sampling = on_sample is not None
    flags = [
        not sampling and bool(warm) and (force or warm_profitable(c)) for c in cfgs
    ]
    window = float(sample_window) if sampling else None

    if workers <= 1:
        results: List[RunResult] = []
        # Every run builds a deployment of cyclic object graphs (nodes,
        # agents, bound-method event handlers) that dies at the next
        # iteration; generational GC re-scans those objects many times
        # before they become unreachable.  Park the collector for the
        # loop and sweep the young generation at run boundaries — where
        # the previous deployment is garbage — and once more on the way
        # out.  Everything the loop allocated is young (the collector
        # was paused), so a full collection would only re-walk the
        # process's older live objects.
        gc_was_enabled = total > 1 and gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            for k, c in enumerate(cfgs):
                try:
                    if sampling:
                        from repro.obs import Observer

                        ob = Observer(
                            window=window,
                            on_sample=(lambda s, _k=k: on_sample(_k, s)),
                        )
                        r = run_single(c, obs=ob)
                    else:
                        r = run_single(c, warm_start=flags[k] or None)
                except Exception as exc:  # noqa: BLE001 - wrapped with run identity
                    err = _run_error(c, k, repr(exc))
                    if on_error == "raise":
                        raise err from exc
                    r = err
                results.append(r)
                if on_result is not None:
                    on_result(k, r)
                if progress is not None:
                    progress(len(results), total, r)
                if gc_was_enabled and (k & 3) == 3:
                    gc.collect(0)
        finally:
            if gc_was_enabled:
                gc.enable()
                gc.collect(0)
        return results

    slots: List[Optional[RunResult]] = [None] * total
    done = 0
    pool = shared_pool(workers)
    items = [(k, c, flags[k], window) for k, c in enumerate(cfgs)]
    futures = [pool.submit(_run_chunk, chunk)
               for chunk in _chunk_plan(items, workers, chunk_size)]
    try:
        for fut in as_completed(futures):
            for idx, res, failure, samples in fut.result():
                if failure is not None:
                    cause, worker_tb = failure
                    err = _run_error(cfgs[idx], idx, cause, worker_traceback=worker_tb)
                    if on_error == "raise":
                        raise err
                    res = err
                if samples is not None and on_sample is not None:
                    for s in samples:
                        on_sample(idx, s)
                slots[idx] = res
                done += 1
                if on_result is not None:
                    on_result(idx, res)
                if progress is not None:
                    progress(done, total, res)
    except BaseException:
        # the pool is persistent: drop undone work, keep the workers
        for fut in futures:
            fut.cancel()
        raise
    return slots  # type: ignore[return-value]


def aggregate(results: Sequence[RunResult], metric: str) -> Dict[str, float]:
    """Mean / std / sem / percentile summary of one metric over runs.

    ``p50``/``p95`` use numpy's default linear interpolation; for fault
    campaigns the tail percentile is the honest summary of recovery
    latency (means hide the slow tail the paper's reader cares about).

    Percentiles of a single replicate are not estimates of anything —
    with ``n < 2`` both come back as NaN (with a warning) rather than
    parroting the lone value, and the key set stays fixed so downstream
    tables keep their columns.
    """
    if len(results) == 0:
        raise ValueError("no results to aggregate")
    if not hasattr(results[0], metric):
        known = ", ".join(sorted(RunResult.__dataclass_fields__))
        raise ValueError(f"unknown metric {metric!r}; expected one of: {known}")
    vals = np.asarray([getattr(r, metric) for r in results], dtype=float)
    if vals.size > 1:
        std = float(vals.std(ddof=1))
        p50 = float(np.percentile(vals, 50.0))
        p95 = float(np.percentile(vals, 95.0))
    else:
        warnings.warn(
            f"aggregate({metric!r}): percentiles of a single replicate are "
            "meaningless; p50/p95 set to NaN (run more replicates)",
            stacklevel=2,
        )
        std = 0.0
        p50 = p95 = float("nan")
    return {
        "mean": float(vals.mean()),
        "std": std,
        "sem": std / float(np.sqrt(vals.size)) if vals.size > 1 else 0.0,
        "p50": p50,
        "p95": p95,
        "n": int(vals.size),
    }

