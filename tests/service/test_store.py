"""Result-store tests: LRU eviction, cache-version invalidation,
concurrent readers, and the storeable gate."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.experiments.runner as runner_mod
from repro.experiments.config import SimulationConfig
from repro.experiments.runner import run_single
from repro.service import ResultStore

FAST = dict(topology="grid", group_size=10, mac="ideal")


def cfg_for(seed: int) -> SimulationConfig:
    return SimulationConfig(protocol="mtmrp", seed=seed, **FAST)


class TestRoundTrip:
    def test_put_get_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        cfg = cfg_for(1)
        res = run_single(cfg)
        assert store.put(cfg, res) is True
        assert store.get(cfg) == res
        assert store.path_for(cfg).exists()
        assert len(store) == 1
        assert store.stats() == {
            "entries": 1, "hits": 1, "misses": 0, "stores": 1, "evictions": 0,
        }

    def test_miss_counts(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get(cfg_for(1)) is None
        assert store.stats()["misses"] == 1

    @pytest.mark.parametrize(
        "entry", ['{"foo": 1}', "[1, 2]", '{"transmitters": 5}', '"text"']
    )
    def test_wrong_shape_entry_is_a_miss(self, tmp_path, entry):
        store = ResultStore(tmp_path)
        cfg = cfg_for(1)
        store.path_for(cfg).write_text(entry)
        assert store.get(cfg) is None
        assert store.stats()["misses"] == 1
        res = run_single(cfg)
        assert store.put(cfg, res) is True
        assert store.get(cfg) == res

    def test_non_flat_results_are_not_storeable(self, tmp_path):
        store = ResultStore(tmp_path)
        cfg = cfg_for(2)
        res = run_single(cfg, keep_positions=True)
        assert ResultStore.storeable(res) is False
        assert store.put(cfg, res) is False
        assert len(store) == 0

    def test_clear(self, tmp_path):
        store = ResultStore(tmp_path)
        cfg = cfg_for(1)
        store.put(cfg, run_single(cfg))
        store.clear()
        assert len(store) == 0 and store.get(cfg) is None


class TestLru:
    def test_eviction_beyond_max_entries(self, tmp_path):
        store = ResultStore(tmp_path, max_entries=2)
        cfgs = [cfg_for(s) for s in (1, 2, 3)]
        results = [run_single(c) for c in cfgs]
        for c, r in zip(cfgs, results):
            store.put(c, r)
        assert len(store) == 2
        assert store.stats()["evictions"] == 1
        # oldest entry evicted, newer two intact
        assert store.get(cfgs[0]) is None
        assert store.get(cfgs[1]) == results[1]
        assert store.get(cfgs[2]) == results[2]

    def test_get_refreshes_recency(self, tmp_path):
        store = ResultStore(tmp_path, max_entries=2)
        cfgs = [cfg_for(s) for s in (1, 2, 3)]
        results = [run_single(c) for c in cfgs]
        store.put(cfgs[0], results[0])
        store.put(cfgs[1], results[1])
        assert store.get(cfgs[0]) == results[0]  # 0 is now most recent
        store.put(cfgs[2], results[2])
        assert store.get(cfgs[1]) is None        # 1 was the LRU victim
        assert store.get(cfgs[0]) == results[0]

    def test_recency_survives_reopen(self, tmp_path):
        store = ResultStore(tmp_path)
        cfgs = [cfg_for(s) for s in (1, 2)]
        for c in cfgs:
            store.put(c, run_single(c))
        reopened = ResultStore(tmp_path, max_entries=2)
        assert reopened.stats()["entries"] == 2
        for c in cfgs:
            assert reopened.get(c) is not None

    def test_rejects_zero_capacity(self, tmp_path):
        with pytest.raises(ValueError):
            ResultStore(tmp_path, max_entries=0)


class TestCacheVersionInvalidation:
    def test_stale_version_entries_become_unreachable(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        cfg = cfg_for(4)
        res = run_single(cfg)
        store.put(cfg, res)
        assert store.get(cfg) == res

        # a version bump re-keys the content hash: the old entry is never
        # served for a new-semantics spec (it recomputes instead)
        monkeypatch.setattr(runner_mod, "CACHE_VERSION", runner_mod.CACHE_VERSION + 1)
        assert store.get(cfg) is None
        assert store.path_for(cfg).exists() is False  # new key, no file

        # rolling back restores addressability of the old entry
        monkeypatch.undo()
        assert store.get(cfg) == res


class TestConcurrency:
    def test_concurrent_readers_see_consistent_results(self, tmp_path):
        store = ResultStore(tmp_path)
        cfg = cfg_for(5)
        res = run_single(cfg)
        store.put(cfg, res)
        with ThreadPoolExecutor(max_workers=8) as pool:
            out = list(pool.map(lambda _: store.get(cfg), range(64)))
        assert all(r == res for r in out)
        assert store.stats()["hits"] == 64

    def test_reader_during_rewrites_never_sees_torn_entries(self, tmp_path):
        store = ResultStore(tmp_path)
        cfg = cfg_for(6)
        res = run_single(cfg)
        store.put(cfg, res)

        def rewrite():
            for _ in range(50):
                store.put(cfg, res)

        def read():
            seen = []
            for _ in range(200):
                got = store.get(cfg)
                if got is not None:
                    seen.append(got)
            return seen

        with ThreadPoolExecutor(max_workers=4) as pool:
            w = pool.submit(rewrite)
            readers = [pool.submit(read) for _ in range(3)]
            w.result()
            for f in readers:
                # atomic write-then-rename: every observed value is whole
                assert all(g == res for g in f.result())
