"""Warm-state snapshot/fork engine: bit-identity, isolation, gating.

The campaign engine's core promise is that a warm (forked) run is
*indistinguishable* from a cold run — same trace bytes, same metrics.
These tests pin that promise with golden sha256 digests over every
committed corpus scenario config, exercise a HELLO-phase run with
random-waypoint mobility through the generic fork machinery, and prove
forked replicates share no mutable state.
"""

import json
import pickle
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.config import SimulationConfig, make_positions
from repro.experiments.runner import run_single
from repro.net.mobility import RandomWaypointMobility
from repro.net.network import Network
from repro.net.packet import current_uid, reset_uids
from repro.sim.kernel import Simulator
from repro.sim.snapshot import (
    SnapshotCache,
    WarmSnapshot,
    prefix_key,
    warm_profitable,
)
from repro.sim.trace import TraceRecorder, trace_digest

CORPUS_DIR = Path(__file__).resolve().parents[1] / "corpus"

#: Golden cold-run digests (full recorder, uid counter reset to 0) for
#: every committed corpus scenario config.  A change here means run
#: semantics changed for existing configs — bump CACHE_VERSION and
#: regenerate deliberately, never casually.
GOLDEN_DIGESTS = {
    "001-grid-baseline.json": "823ea155d7643dc568a32691f54610f32d6d80e0c77c6c91467dc362a8123e75",
    "002-crash-during-discovery.json": "9e1de87c0da18ca09c0d8aa0f3b362770ce3abba4f3a9ca16b7a07e8666aef4f",
    "003-gilbert-sleep.json": "399f4530db04395deda840c44ea5f81a1731f7d3550fc2e500f3b5c6cca59930",
    "004-mobility-refresh.json": "451e84eb89b4ebb094e9d266cbd44a1bc783c74271243f3473ef40292130b1b1",
    "005-energy-depletion.json": "dd20bec418970ea6a388e25a972991fdee84f85005c25a4cbbd7c805b6079369",
    "006-routeerror-recovery.json": "86889a0b850fab6c535905f70ce2fe87ba6129caf8ec2e089b13bbe3fed10748",
}


def _corpus_config(name: str) -> SimulationConfig:
    payload = json.loads((CORPUS_DIR / name).read_text())
    return SimulationConfig(**payload["scenario"]["config"])


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_cold_and_warm_match_golden_digest(name):
    """Cold build and snapshot fork produce the pinned trace, bit for bit."""
    cfg = _corpus_config(name)

    reset_uids()
    cold_tr = TraceRecorder()
    cold = run_single(cfg, trace=cold_tr, cache=False)
    assert trace_digest(cold_tr) == GOLDEN_DIGESTS[name]

    reset_uids()
    warm_tr = TraceRecorder()
    warm = run_single(cfg, trace=warm_tr, cache=False, warm_start=SnapshotCache())
    assert trace_digest(warm_tr) == GOLDEN_DIGESTS[name]
    assert warm == cold


def test_snapshot_reuse_across_suffix_variants():
    """One snapshot serves every config differing only after the boundary."""
    base = _corpus_config("006-routeerror-recovery.json")  # hello-phase run
    cache = SnapshotCache()
    variants = [
        base,
        base.with_(backoff_w=0.02),
        base.with_(backoff_n=6.0),
        base.with_(protocol="odmrp"),
        base.with_(protocol="dodmrp", data_time=0.5),
    ]
    for v in variants:
        assert prefix_key(v) == prefix_key(base)
        warm = run_single(v, cache=False, warm_start=cache)
        cold = run_single(v, cache=False)
        assert warm == cold
    assert cache.misses == 1 and cache.hits == len(variants) - 1


def test_unpicklable_prefix_warns_and_forks_by_deepcopy(monkeypatch):
    """The deepcopy fallback is taken visibly, and forks still match cold."""
    import repro.sim.snapshot as snapshot_mod

    def refuse(self, obj):
        raise pickle.PicklingError("refused for the test")

    monkeypatch.setattr(snapshot_mod._PrefixPickler, "dump", refuse)
    base = _corpus_config("006-routeerror-recovery.json")  # hello-phase run
    variants = [base, base.with_(protocol="odmrp")]
    cache = SnapshotCache()
    with pytest.warns(RuntimeWarning, match="refused for the test") as caught:
        warm = [run_single(v, cache=False, warm_start=cache) for v in variants]
    fallbacks = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert len(fallbacks) == 1  # one capture, one warning
    assert repr(prefix_key(base)) in str(fallbacks[0].message)
    assert warm == [run_single(v, cache=False) for v in variants]


def _build_hello_mobility_state(cfg):
    """A prefix the config layer can't express: HELLO plus live mobility."""
    sim = Simulator(seed=cfg.seed, trace=TraceRecorder())
    positions = make_positions(cfg, sim.rng.stream("topology"))
    net = Network(sim, positions, comm_range=cfg.comm_range)
    net.install_hello(period=cfg.hello_period)
    for node in net.nodes:
        node.start_agents()
    RandomWaypointMobility(net, speed_max=2.0, update_interval=0.5).start()
    sim.run(until=3.0)
    return sim, net, positions


def test_hello_mobility_fork_bit_identical():
    """The generic fork machinery handles mid-flight mobility state.

    The event heap holds the mobility agent's bound ``_tick``; a fork
    must rebind it to the copied network so the forked geometry evolves
    exactly like the original's would.
    """
    cfg = SimulationConfig(
        protocol="mtmrp", topology="grid", grid_nx=4, grid_ny=4, side=96.0,
        group_size=5, seed=77, mac="csma", hello_phase=True,
    )
    # cold reference: one uninterrupted run to t=6
    reset_uids()
    sim, _net, _pos = _build_hello_mobility_state(cfg)
    sim.run(until=6.0)
    reference = trace_digest(sim.trace)

    # captured state at t=3, continued through two independent forks
    reset_uids()
    sim, net, positions = _build_hello_mobility_state(cfg)
    uid_end = current_uid()
    blob = pickle.dumps((sim, net, [], positions), protocol=pickle.HIGHEST_PROTOCOL)
    snap = WarmSnapshot(("hello-mobility",), 0, uid_end, blob, None)
    for _ in range(2):
        fork = snap.fork()
        fork.sim.run(until=6.0)
        assert trace_digest(fork.sim.trace) == reference
    assert snap.n_forks == 2


def test_forks_share_no_mutable_state():
    """Replicates alias neither each other nor the captured snapshot."""
    cfg = _corpus_config("006-routeerror-recovery.json")
    snap = WarmSnapshot.capture(cfg)
    a, b = snap.fork(), snap.fork()

    assert a.sim is not b.sim
    assert a.net is not b.net
    assert a.sim.trace is not b.sim.trace
    assert a.sim.trace.records is not b.sim.trace.records
    assert a.receivers == b.receivers and a.receivers is not b.receivers

    # rng generators are independent: draining one must not move the other
    ra, rb = a.sim.rng.stream("receivers"), b.sim.rng.stream("receivers")
    assert ra is not rb
    before = rb.bit_generator.state
    ra.random(100)
    assert rb.bit_generator.state == before

    # running one continuation leaves the sibling's trace untouched
    a_len_b = len(b.sim.trace.records)
    a.sim.run(until=a.sim.now + 1.0)
    assert len(b.sim.trace.records) == a_len_b


def test_prefix_key_scopes_reuse():
    cfg = SimulationConfig(protocol="mtmrp", topology="grid", group_size=10, seed=3)
    # suffix-only fields do not fragment the key...
    assert prefix_key(cfg.with_(protocol="odmrp")) == prefix_key(cfg)
    assert prefix_key(cfg.with_(backoff_n=6.0, backoff_w=0.03)) == prefix_key(cfg)
    assert prefix_key(cfg.with_(data_time=9.0)) == prefix_key(cfg)
    # ...prefix inputs do
    assert prefix_key(cfg.with_(seed=4)) != prefix_key(cfg)
    assert prefix_key(cfg.with_(group_size=11)) != prefix_key(cfg)
    assert prefix_key(cfg.with_(hello_warmup=12.0)) != prefix_key(cfg)
    assert prefix_key(cfg.with_(loss_model="iid", loss_rate=0.1)) != prefix_key(cfg)
    # GMR's bootstrap records positions, so its prefix is its own
    assert prefix_key(cfg.with_(protocol="gmr")) != prefix_key(cfg)
    # and so does the recorder shape riding inside the snapshot
    assert prefix_key(cfg, TraceRecorder()) != prefix_key(cfg)


def test_warm_profitable_gate():
    cheap = SimulationConfig(protocol="mtmrp", topology="grid", group_size=10)
    assert not warm_profitable(cheap)
    assert warm_profitable(cheap.with_(hello_phase=True))
    assert warm_profitable(cheap.with_(shadowing_sigma_db=4.0))
    assert warm_profitable(cheap.with_(topology="random", random_nodes=1000))


def test_snapshot_cache_lru_and_mismatch():
    cfgs = [
        SimulationConfig(protocol="mtmrp", topology="grid", group_size=10, seed=s)
        for s in (1, 2, 3)
    ]
    cache = SnapshotCache(max_entries=2)
    for c in cfgs:
        cache.get_or_capture(c)
    assert len(cache) == 2 and cache.misses == 3
    cache.get_or_capture(cfgs[2])  # still resident
    assert cache.hits == 1
    cache.get_or_capture(cfgs[0])  # evicted by the LRU bound
    assert cache.misses == 4

    # an explicitly passed snapshot must match the config's prefix
    snap = cache.get_or_capture(cfgs[0])
    with pytest.raises(ValueError, match="does not match"):
        run_single(cfgs[1], cache=False, warm_start=snap)


def test_uid_counter_restored_per_fork():
    cfg = SimulationConfig(protocol="mtmrp", topology="grid", group_size=10, seed=9)
    reset_uids(1000)
    snap = WarmSnapshot.capture(cfg)
    assert snap.uid_base == 1000
    reset_uids(0)  # clobber; fork must restore the boundary value
    snap.fork()
    assert current_uid() == snap.uid_end


def test_deepcopy_fallback_when_unpicklable(monkeypatch):
    """Object graphs that refuse to pickle fall back to per-fork deepcopy."""
    import repro.sim.snapshot as snapshot_mod

    cfg = SimulationConfig(protocol="mtmrp", topology="grid", group_size=10, seed=9)
    reset_uids()
    ref = run_single(cfg, cache=False)

    def refuse(*args, **kwargs):
        raise TypeError("unpicklable extension object")

    monkeypatch.setattr(snapshot_mod._PrefixPickler, "dump", refuse)
    reset_uids()
    snap = WarmSnapshot.capture(cfg)
    assert snap._blob is None and snap.size_bytes == 0
    warm = run_single(cfg, cache=False, warm_start=snap)
    assert warm == ref


# --------------------------------------------------------------------- #
# session axis of the prefix key
# --------------------------------------------------------------------- #
def test_prefix_key_sessions_component():
    """Multi-session prefixes are their own snapshot scope; the
    trivially-default plan shares the legacy one (flag-off contract)."""
    from repro.traffic.spec import SessionSpec, TrafficPlan

    cfg = SimulationConfig(protocol="mtmrp", topology="grid", group_size=10, seed=3)
    # sessions=None and the default single-session plan sign identically
    assert prefix_key(cfg.with_(sessions=TrafficPlan.single(cfg))) == prefix_key(cfg)
    # a real plan installs extra memberships -> distinct prefix
    plan = (
        SessionSpec(source=0, group=1, group_size=4),
        SessionSpec(source=9, group=2, group_size=4, start=0.5),
    )
    multi = cfg.with_(sessions=plan)
    assert prefix_key(multi) != prefix_key(cfg)
    # and two different plans never share a snapshot
    other = cfg.with_(
        sessions=(plan[0], SessionSpec(source=9, group=2, group_size=5, start=0.5))
    )
    assert prefix_key(other) != prefix_key(multi)
    # plan identity, not object identity: an equal plan keys equal
    assert prefix_key(cfg.with_(sessions=tuple(plan))) == prefix_key(multi)


def test_multisession_fork_bit_identical():
    """A forked multi-session run replays the cold trace bit for bit."""
    from repro.traffic.spec import SessionSpec

    cfg = SimulationConfig(
        protocol="mtmrp", topology="grid", grid_nx=5, grid_ny=5,
        side=100.0, seed=21, mac="ideal",
        sessions=(
            SessionSpec(source=0, group=1, group_size=4, n_packets=2),
            SessionSpec(source=24, group=2, group_size=4, start=0.4, n_packets=2),
        ),
    )
    reset_uids()
    cold_tr = TraceRecorder()
    cold = run_single(cfg, trace=cold_tr, cache=False)

    reset_uids()
    snap = WarmSnapshot.capture(cfg, trace=TraceRecorder())
    warm_tr = TraceRecorder()
    warm = run_single(cfg, trace=warm_tr, cache=False, warm_start=snap)
    assert warm == cold
    assert trace_digest(warm_tr) == trace_digest(cold_tr)
