"""Tests for the Monte-Carlo runner."""

import copy
import gc

import numpy as np
import pytest

from repro.experiments.config import PROTOCOLS, SimulationConfig
from repro.experiments.runner import (
    RunError,
    RunResult,
    aggregate,
    config_hash,
    monte_carlo,
    run_many,
    run_single,
)

FAST = dict(topology="grid", group_size=10, mac="ideal")


class TestRunSingle:
    def test_deterministic_given_seed(self):
        cfg = SimulationConfig(protocol="mtmrp", seed=5, **FAST)
        a = run_single(cfg)
        b = run_single(cfg)
        assert a == b

    def test_seed_changes_receiver_draw(self):
        a = run_single(SimulationConfig(protocol="mtmrp", seed=1, **FAST))
        b = run_single(SimulationConfig(protocol="mtmrp", seed=2, **FAST))
        assert a.receivers != b.receivers

    def test_result_fields_sane(self):
        r = run_single(SimulationConfig(protocol="mtmrp", seed=3, **FAST))
        assert r.protocol == "mtmrp"
        assert r.group_size == 10 == len(r.receivers)
        assert 0 < r.data_transmissions <= 100
        assert r.delivery_ratio == 1.0  # ideal MAC + perfect channel
        assert r.extra_nodes >= 0
        assert r.join_query_tx == 100
        assert r.energy_joules > 0
        assert r.positions is None

    def test_keep_positions(self):
        r = run_single(SimulationConfig(protocol="mtmrp", seed=3, **FAST), keep_positions=True)
        assert r.positions is not None and r.positions.shape == (100, 2)

    def test_flooding_protocol(self):
        r = run_single(SimulationConfig(protocol="flooding", seed=3, **FAST))
        assert r.data_transmissions == 100
        assert r.delivery_ratio == 1.0

    def test_hello_phase_mode(self):
        cfg = SimulationConfig(protocol="mtmrp", seed=4, hello_phase=True, **FAST)
        r = run_single(cfg)
        assert r.hello_tx > 0
        assert r.delivery_ratio == 1.0

    def test_source_never_a_receiver(self):
        for seed in range(5):
            r = run_single(SimulationConfig(protocol="odmrp", seed=seed, **FAST))
            assert 0 not in r.receivers


class TestMonteCarlo:
    def test_expansion_deterministic(self):
        cfg = SimulationConfig(protocol="odmrp", **FAST)
        a = [c.seed for c in monte_carlo(cfg, 10, batch_seed=7)]
        b = [c.seed for c in monte_carlo(cfg, 10, batch_seed=7)]
        assert a == b
        assert len(set(a)) == 10

    def test_run_many_serial(self):
        cfg = SimulationConfig(protocol="odmrp", **FAST)
        results = run_many(monte_carlo(cfg, 4, batch_seed=1))
        assert len(results) == 4
        assert all(isinstance(r, RunResult) for r in results)

    def test_run_many_parallel_matches_serial(self):
        cfg = SimulationConfig(protocol="odmrp", **FAST)
        cfgs = monte_carlo(cfg, 4, batch_seed=1)
        serial = run_many(cfgs, workers=1)
        parallel = run_many(cfgs, workers=2)
        assert serial == parallel


class TestRunManyStreaming:
    def test_progress_fires_per_completion_in_order(self):
        cfg = SimulationConfig(protocol="odmrp", **FAST)
        seen = []
        results = run_many(
            monte_carlo(cfg, 3, batch_seed=4),
            progress=lambda done, total, r: seen.append((done, total, r.seed)),
        )
        assert [d for d, _t, _s in seen] == [1, 2, 3]
        assert all(t == 3 for _d, t, _s in seen)
        assert [s for _d, _t, s in seen] == [r.seed for r in results]

    def test_parallel_results_keep_config_order(self):
        cfg = SimulationConfig(protocol="odmrp", **FAST)
        cfgs = monte_carlo(cfg, 4, batch_seed=3)
        results = run_many(cfgs, workers=2)
        assert [r.seed for r in results] == [c.seed for c in cfgs]


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cfg = SimulationConfig(protocol="mtmrp", seed=6, **FAST)
        cold = run_single(cfg, cache=tmp_path)
        cached_files = list(tmp_path.glob("*.json"))
        assert len(cached_files) == 1
        warm = run_single(cfg, cache=tmp_path)
        assert warm == cold

    def test_cache_hit_skips_execution(self, tmp_path, monkeypatch):
        import repro.experiments.runner as runner_mod

        cfg = SimulationConfig(protocol="mtmrp", seed=6, **FAST)
        run_single(cfg, cache=tmp_path)

        def boom(*a, **k):  # a second run must come from disk
            raise AssertionError("cache miss: _execute_run was called")

        monkeypatch.setattr(runner_mod, "_execute_run", boom)
        assert run_single(cfg, cache=tmp_path) is not None

    def test_different_configs_do_not_collide(self, tmp_path):
        a = run_single(SimulationConfig(protocol="mtmrp", seed=6, **FAST), cache=tmp_path)
        b = run_single(SimulationConfig(protocol="mtmrp", seed=7, **FAST), cache=tmp_path)
        assert a != b
        assert len(list(tmp_path.glob("*.json"))) == 2

    @pytest.mark.parametrize(
        "entry",
        ['{"foo": 1}', "[1, 2]", "3", '"text"', "null", '{"protocol": "mtmrp"}'],
    )
    def test_wrong_shape_entry_reads_as_a_miss(self, tmp_path, entry):
        from repro.experiments.runner import config_hash

        cfg = SimulationConfig(protocol="mtmrp", seed=6, **FAST)
        path = tmp_path / f"{config_hash(cfg)}.json"
        path.write_text(entry)
        # valid JSON of the wrong shape: recomputed, then overwritten
        assert run_single(cfg, cache=tmp_path) == run_single(cfg)
        assert run_single(cfg, cache=tmp_path) == run_single(cfg)
        assert path.read_text() != entry

    @pytest.mark.parametrize(
        "entry", [b'{"foo": 1}', b'{"protocol": "mtmrp"', b"\xff\xfe\x00garbage"],
    )
    def test_corrupt_entry_is_quarantined_and_counted_once(self, tmp_path, entry):
        from repro.experiments.runner import _cache_load
        from repro.obs.service_stats import STATS

        path = tmp_path / "entry.json"
        path.write_bytes(entry)
        before = STATS.get("store_corrupt")
        assert _cache_load(path) is None
        assert STATS.get("store_corrupt") == before + 1
        assert not path.exists()
        assert (tmp_path / "entry.json.corrupt").read_bytes() == entry
        # the entry is gone now: a second read is an ordinary, uncounted miss
        assert _cache_load(path) is None
        assert STATS.get("store_corrupt") == before + 1

    def test_multi_session_result_is_a_cache_hit(self, tmp_path, monkeypatch):
        import repro.experiments.runner as runner_mod
        from repro.traffic.spec import ramp_plan

        base = SimulationConfig(protocol="mtmrp", seed=6, **FAST)
        cfg = base.with_(sessions=ramp_plan(base, 2))
        cold = run_single(cfg, cache=tmp_path)
        assert len(cold.traffic.sessions) == 2

        def boom(*a, **k):  # the second run must come from disk
            raise AssertionError("cache miss: _execute_run was called")

        monkeypatch.setattr(runner_mod, "_execute_run", boom)
        hit = run_single(cfg, cache=tmp_path)
        assert hit == cold
        assert hit.traffic == cold.traffic

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda t: "text",
            lambda t: [],
            lambda t: {**t, "sessions": 3},
            lambda t: {k: v for k, v in t.items() if k != "fairness"},
            lambda t: {**t, "extra": 1},
            lambda t: {**t, "sessions": [{**t["sessions"][0], "forwarders": "abc"}]},
            lambda t: {**t, "sessions": [{**t["sessions"][0], "extra": 1}]},
            lambda t: {**t, "sessions": ["text"]},
        ],
        ids=["string", "list", "int-sessions", "missing-field", "extra-field",
             "string-forwarders", "extra-session-field", "string-session"],
    )
    def test_malformed_traffic_is_quarantined(self, tmp_path, mangle):
        import json

        from repro.experiments.runner import _cache_load
        from repro.obs.service_stats import STATS

        cfg = SimulationConfig(protocol="mtmrp", seed=6, **FAST)
        res = run_single(cfg, cache=tmp_path)
        path = tmp_path / f"{config_hash(cfg)}.json"
        assert res.traffic is not None
        assert _cache_load(path) == res  # the well-formed entry round-trips
        payload = json.loads(path.read_text())
        payload["traffic"] = mangle(payload["traffic"])
        path.write_text(json.dumps(payload))
        before = STATS.get("store_corrupt")
        assert _cache_load(path) is None
        assert STATS.get("store_corrupt") == before + 1
        assert (tmp_path / f"{path.name}.corrupt").exists()
        assert run_single(cfg, cache=tmp_path) == res  # recomputed

    def test_concurrent_stores_of_one_key(self, tmp_path):
        """Writers racing on one key each rename their own temp file."""
        import sys
        import threading

        from repro.experiments.runner import _cache_load, _cache_store

        res = run_single(SimulationConfig(protocol="mtmrp", seed=6, **FAST))
        path = tmp_path / "entry.json"
        start = threading.Barrier(4)
        errors = []

        def writer():
            start.wait()
            try:
                for _ in range(300):
                    _cache_store(path, res)
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert _cache_load(path) == res
        assert [p.name for p in tmp_path.iterdir()] == ["entry.json"]

    def test_cache_keys_are_pinned(self):
        """Cache identities of lossy and multi-session configs stay put.

        Cached results stay valid only while ``config_hash`` is stable;
        these pins fail loudly if a change moves a key without bumping
        ``CACHE_VERSION``.
        """
        from repro.experiments.runner import CACHE_VERSION
        from repro.traffic.spec import ramp_plan

        cfg = SimulationConfig(
            protocol="mtmrp", topology="grid", grid_nx=6, grid_ny=6, side=120.0,
            group_size=6, mac="ideal", hello_phase=True, hello_warmup=6.0,
            construction_time=0.5, data_time=0.25,
        )
        assert CACHE_VERSION == 3
        assert config_hash(cfg.with_(loss_model="iid", loss_rate=0.1)) == (
            "d59e2fd9401411aecdb58ffa14720fb05cefe1cffb90f3ed25c5f15735ea3c3a"
        )
        assert config_hash(cfg.with_(sessions=ramp_plan(cfg, 3))) == (
            "63e7edf3549946ace492a7ddff7ffdd6b9b7e4c10056f5cd00104ded9db909c0"
        )

    def test_trace_requests_bypass_the_cache(self, tmp_path):
        from repro.sim.trace import TraceRecorder

        cfg = SimulationConfig(protocol="mtmrp", seed=6, **FAST)
        run_single(cfg, cache=tmp_path)
        tr = TraceRecorder()
        run_single(cfg, cache=tmp_path, trace=tr)
        assert len(tr) > 0  # a cache hit could never fill the recorder


class TestAggregate:
    def test_mean_std_sem(self):
        cfg = SimulationConfig(protocol="odmrp", **FAST)
        results = run_many(monte_carlo(cfg, 5, batch_seed=2))
        agg = aggregate(results, "data_transmissions")
        vals = [r.data_transmissions for r in results]
        assert agg["mean"] == pytest.approx(np.mean(vals))
        assert agg["std"] == pytest.approx(np.std(vals, ddof=1))
        assert agg["n"] == 5

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            aggregate([], "data_transmissions")

    def test_unknown_metric_names_the_alternatives(self):
        cfg = SimulationConfig(protocol="odmrp", **FAST)
        results = run_many(monte_carlo(cfg, 2, batch_seed=2))
        with pytest.raises(ValueError, match="delivery_ratio"):
            aggregate(results, "no_such_metric")

    def test_single_run_has_zero_spread(self):
        cfg = SimulationConfig(protocol="odmrp", **FAST)
        results = run_many(monte_carlo(cfg, 1, batch_seed=2))
        agg = aggregate(results, "data_transmissions")
        assert agg["std"] == 0.0 == agg["sem"]


def _poison(cfg):
    """A config that passes validation but explodes inside the run.

    The config layer rejects bad values at construction, so runtime
    failures (simulator bugs, corrupted checkpoints) are emulated by
    bypassing ``__post_init__`` — pickle round-trips preserve the field,
    so the failure reproduces identically inside worker processes.
    """
    bad = copy.copy(cfg)
    object.__setattr__(bad, "group_size", 10_000)  # > n_nodes
    return bad


class TestFailureIsolation:
    def test_run_error_names_the_failing_run(self):
        good = monte_carlo(SimulationConfig(protocol="mtmrp", **FAST), 2, 7)
        bad = _poison(good[1])
        with pytest.raises(RunError) as exc_info:
            run_many([good[0], bad])
        err = exc_info.value
        assert err.index == 1
        assert err.config == bad
        assert err.seed == bad.seed
        assert err.config_hash == config_hash(bad)
        assert "ValueError" in str(err)

    def test_collect_mode_keeps_the_campaign_running(self):
        cfgs = monte_carlo(SimulationConfig(protocol="mtmrp", **FAST), 3, 7)
        cfgs[1] = _poison(cfgs[1])
        results = run_many(cfgs, on_error="collect")
        assert isinstance(results[0], RunResult)
        assert isinstance(results[1], RunError) and results[1].index == 1
        assert isinstance(results[2], RunResult)

    def test_collect_mode_parallel_keeps_worker_traceback(self):
        cfgs = monte_carlo(SimulationConfig(protocol="mtmrp", **FAST), 4, 7)
        cfgs[2] = _poison(cfgs[2])
        results = run_many(cfgs, workers=2, on_error="collect")
        err = results[2]
        assert isinstance(err, RunError)
        assert err.worker_traceback and "Traceback" in err.worker_traceback
        # the healthy runs around the failure are untouched
        serial = run_many([c for i, c in enumerate(cfgs) if i != 2])
        assert [r for i, r in enumerate(results) if i != 2] == serial

    def test_invalid_on_error_rejected(self):
        with pytest.raises(ValueError, match="on_error"):
            run_many([], on_error="ignore")


class TestOnResult:
    def test_reports_config_identity_not_completion_order(self):
        cfgs = monte_carlo(SimulationConfig(protocol="mtmrp", **FAST), 5, 11)
        seen = {}
        results = run_many(cfgs, workers=2, on_result=lambda i, r: seen.setdefault(i, r))
        assert sorted(seen) == list(range(5))
        assert [seen[i] for i in range(5)] == results


class TestWarmRunMany:
    def test_warm_matches_cold_serial_and_parallel(self):
        base = SimulationConfig(
            protocol="mtmrp", topology="grid", group_size=10, mac="csma",
            hello_phase=True, hello_warmup=1.0, data_time=0.5,
        )
        cfgs = [base.with_(backoff_w=w) for w in (0.001, 0.01)]
        cfgs += [c.with_(protocol="odmrp") for c in cfgs]
        cold = run_many(cfgs)
        assert run_many(cfgs, warm=True) == cold
        assert run_many(cfgs, warm="always") == cold
        assert run_many(cfgs, workers=2, warm=True) == cold


class TestAggregatePercentiles:
    def test_p50_p95(self):
        results = [
            RunResult(
                protocol="mtmrp", topology="grid", group_size=10, seed=i,
                backoff_n=4.0, backoff_w=0.001,
                data_transmissions=i, tree_transmissions=0, extra_nodes=0,
                average_relay_profit=0.0, delivered=0, delivery_ratio=1.0,
                covered_receivers=0, join_query_tx=0, join_reply_tx=0,
                hello_tx=0, collisions=0, energy_joules=0.0,
            )
            for i in range(1, 101)
        ]
        agg = aggregate(results, "data_transmissions")
        assert agg["p50"] == pytest.approx(50.5)
        assert agg["p95"] == pytest.approx(95.05)
        assert agg["n"] == 100
        assert set(agg) == {"mean", "std", "sem", "p50", "p95", "n"}

    def test_single_replicate_percentiles_are_nan_with_warning(self):
        """A percentile of one sample is not an estimate; the key set is
        kept intact so downstream tables never lose their columns."""
        cfg = SimulationConfig(protocol="odmrp", **FAST)
        results = run_many(monte_carlo(cfg, 1, batch_seed=2))
        with pytest.warns(UserWarning, match="percentile"):
            agg = aggregate(results, "data_transmissions")
        assert set(agg) == {"mean", "std", "sem", "p50", "p95", "n"}
        assert np.isnan(agg["p50"]) and np.isnan(agg["p95"])
        assert agg["n"] == 1
        assert agg["mean"] == results[0].data_transmissions

    def test_two_replicates_give_finite_percentiles(self):
        cfg = SimulationConfig(protocol="odmrp", **FAST)
        results = run_many(monte_carlo(cfg, 2, batch_seed=2))
        agg = aggregate(results, "data_transmissions")
        assert np.isfinite(agg["p50"]) and np.isfinite(agg["p95"])


class TestOnSample:
    def test_serial_streams_windows_per_run(self):
        from repro.obs import Sample

        cfg = SimulationConfig(protocol="mtmrp", **FAST)
        cfgs = monte_carlo(cfg, 3, batch_seed=5)
        rows = []
        results = run_many(cfgs, on_sample=lambda i, s: rows.append((i, s)))
        assert len(results) == 3
        assert sorted({i for i, _s in rows}) == [0, 1, 2]
        assert all(isinstance(s, Sample) for _i, s in rows)
        # within a run, windows arrive in time order
        for k in range(3):
            times = [s.time for i, s in rows if i == k]
            assert times == sorted(times) and len(times) > 0

    def test_parallel_delivers_same_samples_and_results(self):
        cfg = SimulationConfig(protocol="mtmrp", **FAST)
        cfgs = monte_carlo(cfg, 4, batch_seed=5)
        serial_rows, parallel_rows = [], []
        serial = run_many(cfgs, on_sample=lambda i, s: serial_rows.append((i, s)))
        parallel = run_many(
            cfgs, workers=2, on_sample=lambda i, s: parallel_rows.append((i, s))
        )
        assert serial == parallel
        # same per-run sample series regardless of execution mode
        by_run = lambda rows, k: [s for i, s in rows if i == k]  # noqa: E731
        for k in range(4):
            assert by_run(serial_rows, k) == by_run(parallel_rows, k)

    def test_sampled_results_match_unsampled(self):
        """Attaching the per-run observers never changes the results."""
        cfg = SimulationConfig(protocol="mtmrp", **FAST)
        cfgs = monte_carlo(cfg, 2, batch_seed=5)
        plain = run_many(cfgs)
        sampled = run_many(cfgs, on_sample=lambda i, s: None)
        assert plain == sampled

    def test_sample_window_is_respected(self):
        cfg = SimulationConfig(protocol="mtmrp", **FAST)
        rows = []
        run_many(
            monte_carlo(cfg, 1, batch_seed=5),
            on_sample=lambda i, s: rows.append(s.time),
            sample_window=0.5,
        )
        assert rows[0] == pytest.approx(0.5)
        # regular 0.5 s cadence; the final row is the end-of-run flush
        # from Observer.finish() and may close a partial window
        steps = [b - a for a, b in zip(rows, rows[1:-1])]
        assert all(step == pytest.approx(0.5) for step in steps)
        assert rows[-1] >= rows[-2]


class TestCollectOrderingContract:
    """Pin run_many's index-keyed ordering contract (see its docstring).

    The campaign service's checkpoint/re-queue recovery is only sound if
    every execution path returns exactly ``len(configs)`` slots in input
    order, leaves collect-mode RunErrors in-place with ``.index`` equal
    to their position, and reports run identity (not completion order)
    through ``on_result``.  Exercised with failures scattered through the
    campaign on both paths: serial, and the worker pool with
    single-config chunks.
    """

    def _mixed(self):
        cfgs = monte_carlo(SimulationConfig(protocol="mtmrp", **FAST), 6, 7)
        bad_at = (1, 4)
        for i in bad_at:
            cfgs[i] = _poison(cfgs[i])
        return cfgs, bad_at

    def _check(self, cfgs, bad_at, results, seen):
        assert len(results) == len(cfgs)
        for i, res in enumerate(results):
            if i in bad_at:
                assert isinstance(res, RunError) and res.index == i
                assert res.config_hash == config_hash(cfgs[i])
            else:
                assert isinstance(res, RunResult)
                assert res.seed == cfgs[i].seed
        # on_result reported every slot exactly once, keyed by identity
        assert sorted(seen) == list(range(len(cfgs)))
        assert all(seen[i] is results[i] for i in seen)

    def test_serial_path(self):
        cfgs, bad_at = self._mixed()
        seen = {}
        results = run_many(
            cfgs, on_error="collect", on_result=lambda i, r: seen.setdefault(i, r)
        )
        self._check(cfgs, bad_at, results, seen)

    def test_pool_path_single_config_chunks(self):
        cfgs, bad_at = self._mixed()
        seen = {}
        results = run_many(
            cfgs, workers=2, chunk_size=1, on_error="collect",
            on_result=lambda i, r: seen.setdefault(i, r),
        )
        self._check(cfgs, bad_at, results, seen)

    def test_paths_agree_on_successes(self):
        cfgs, bad_at = self._mixed()
        serial = run_many(cfgs, on_error="collect")
        pool = run_many(cfgs, workers=2, chunk_size=1, on_error="collect")
        for i in range(len(cfgs)):
            if i not in bad_at:
                assert serial[i] == pool[i]


def _deepcopy_snapshot(cfg, monkeypatch):
    """A warm snapshot on the deepcopy fallback: its prefix refuses to pickle."""
    import repro.sim.snapshot as snapshot_mod

    def refuse(*args, **kwargs):
        raise TypeError("unpicklable extension object")

    with monkeypatch.context() as m:
        m.setattr(snapshot_mod._PrefixPickler, "dump", refuse)
        with pytest.warns(RuntimeWarning, match="did not pickle"):
            return snapshot_mod.WarmSnapshot.capture(cfg)


class TestWarmFallbackCounter:
    def test_pickling_failure_counts_a_warm_fallback(self, monkeypatch):
        from repro.obs import CounterRegistry
        from repro.obs.service_stats import STATS

        before = STATS.get("warm_fallbacks")
        _deepcopy_snapshot(SimulationConfig(protocol="mtmrp", seed=2, **FAST), monkeypatch)
        assert STATS.get("warm_fallbacks") == before + 1
        reg = CounterRegistry().refresh()
        assert reg.counters["service_warm_fallbacks"] == before + 1
        assert "service_store_corrupt" in reg.counters


# --------------------------------------------------------------------- #
# deployment teardown: a finished run leaves no cyclic garbage
# --------------------------------------------------------------------- #
CYCLE_PROTOCOLS = PROTOCOLS + ("flooding", "gmr")


def _unreachable(fn) -> list:
    """Type names of the objects only the cyclic collector could free
    after ``fn()`` (everything refcounting left behind)."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        fn()
        gc.collect()
        return sorted({type(o).__name__ for o in gc.garbage})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


class TestNoCycles:
    """``run_single`` closes its deployment, so refcounting frees it whole:
    the cold path, the pickled warm fork (capture included) and the
    deepcopy fallback fork all leave nothing for the cyclic collector."""

    @pytest.mark.parametrize("topology", ["grid", "random"])
    @pytest.mark.parametrize("protocol", CYCLE_PROTOCOLS)
    def test_run_leaves_no_cyclic_garbage(self, protocol, topology, monkeypatch):
        from repro.sim.snapshot import SnapshotCache

        cfg = SimulationConfig(protocol=protocol, topology=topology, group_size=10, seed=11)
        run_single(cfg, cache=False)  # first-use imports and caches stay out
        fallback = _deepcopy_snapshot(cfg, monkeypatch)
        runs = {
            "cold": lambda: run_single(cfg, cache=False),
            "warm-pickled": lambda: run_single(
                cfg, cache=False, warm_start=SnapshotCache()
            ),
            "warm-deepcopy": lambda: run_single(cfg, cache=False, warm_start=fallback),
        }
        for path, run in runs.items():
            assert _unreachable(run) == [], path

    @pytest.mark.parametrize("driver", ["chaos", "fault", "cbr", "scaling"])
    def test_driver_leaves_no_cyclic_garbage(self, driver):
        """The campaign drivers close their deployments too."""
        from repro.experiments.chaos import DEFAULT_POLICY, run_chaos_single
        from repro.experiments.faults import run_fault_single
        from repro.experiments.load import run_cbr
        from repro.experiments.scaling import run_scaling_point

        soak = SimulationConfig(
            protocol="mtmrp", topology="grid", grid_nx=5, grid_ny=5, side=120.0,
            group_size=6, mac="ideal", hello_phase=True, seed=7,
        )
        cfg = SimulationConfig(protocol="mtmrp", group_size=10, seed=7)
        run = {
            "chaos": lambda: run_chaos_single(
                soak, policy=DEFAULT_POLICY, check=True, n_packets=20,
                rate_pps=10.0, refresh_interval=5.0, n_cycles=1,
            ),
            "fault": lambda: run_fault_single(
                cfg, n_packets=10, crash_forwarder_at=0.55
            ),
            "cbr": lambda: run_cbr(cfg, 10.0, n_packets=5),
            "scaling": lambda: run_scaling_point(cfg),
        }[driver]
        run()  # first-use imports and caches stay out
        assert _unreachable(run) == []

    def test_neighbor_marks_stay_on_their_entry(self):
        """Unmarked entries share one empty frozenset; a mark gives its
        entry a private set and never shows on another entry, in a cold
        build or a warm fork, nor on a sibling fork."""
        from repro.sim.snapshot import WarmSnapshot, build_prefix

        cfg = SimulationConfig(protocol="mtmrp", topology="grid", group_size=10, seed=3)
        session = (0, 1, 0)
        snap = WarmSnapshot.capture(cfg)
        sibling = snap.fork()
        for prefix in (build_prefix(cfg), snap.fork()):
            tables = [node.neighbor_table for node in prefix.net.nodes]
            entries = [t.entry(n) for t in tables for n in sorted(t.ids())]
            marker = tables[0]
            covered, forwarder = sorted(marker.ids())[:2]
            marker.mark_covered(covered, session)
            marker.mark_forwarder(forwarder, session)
            marker.mark_covered(covered, (0, 1, 1))  # a second mark, same set
            for entry in entries:
                own = entry is marker.entry(covered)
                assert (session in entry.covered_sessions) == own
                assert ((0, 1, 1) in entry.covered_sessions) == own
                fwd = entry is marker.entry(forwarder)
                assert (session in entry.forwarder_sessions) == fwd
        for node in sibling.net.nodes:
            for nbr in node.neighbor_table.ids():
                entry = node.neighbor_table.entry(nbr)
                assert not entry.covered_sessions and not entry.forwarder_sessions

    def test_bootstrap_shares_one_groups_set_per_node(self):
        from repro.sim.snapshot import build_prefix

        cfg = SimulationConfig(protocol="mtmrp", topology="grid", group_size=10, seed=3)
        net = build_prefix(cfg).net
        seen = {}
        for node in net.nodes:
            for nbr in node.neighbor_table.ids():
                groups = node.neighbor_table.entry(nbr).groups
                assert groups == net.node(nbr).groups
                assert seen.setdefault(nbr, groups) is groups
