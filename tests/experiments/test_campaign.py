"""Tests for resuming a campaign over the run-result cache.

A campaign is ``run_many`` with the cache on: every finished run is one
JSON entry named by its config hash, so a rerun executes only the
configs without an entry.
"""

import json

import pytest

import repro.experiments.runner as runner_mod
from repro.experiments import SimulationConfig, monte_carlo
from repro.experiments.runner import config_hash, run_many

FAST = dict(topology="grid", group_size=10, mac="ideal")


def _configs(n=3):
    return monte_carlo(SimulationConfig(protocol="odmrp", **FAST), n, batch_seed=1)


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv(runner_mod.CACHE_ENV_VAR, str(tmp_path))
    return tmp_path


@pytest.fixture
def executed(monkeypatch):
    """The seeds of the runs actually executed (not read from the cache)."""
    seeds = []
    execute = runner_mod._execute_run

    def counting(cfg, **kwargs):
        seeds.append(cfg.seed)
        return execute(cfg, **kwargs)

    monkeypatch.setattr(runner_mod, "_execute_run", counting)
    return seeds


def _entries(cache_dir):
    return {p.name: p.read_bytes() for p in cache_dir.glob("*.json")}


def test_resume_skips_done_configs(cache_dir, executed):
    cfgs = _configs(4)
    first = run_many(cfgs[:2])
    resumed = run_many(cfgs)
    # only the two new configs ran; the first two came from disk
    assert executed == [c.seed for c in cfgs]
    assert resumed[:2] == first
    assert len(_entries(cache_dir)) == 4
    # a complete campaign finds nothing to do and rewrites nothing
    entries = _entries(cache_dir)
    assert run_many(cfgs) == resumed
    assert executed == [c.seed for c in cfgs]
    assert _entries(cache_dir) == entries


def test_config_key_stable_and_distinct():
    a, b = _configs(2)
    assert config_hash(a) == config_hash(a.with_())
    assert config_hash(a) != config_hash(b)


def test_records_rebuild_configs(cache_dir):
    (cfg,) = _configs(1)
    run_many([cfg])
    (entry,) = cache_dir.glob("*.json")
    assert entry.name == f"{config_hash(cfg)}.json"
    stored = json.loads(entry.read_text())
    # each entry names the protocol, group size and seed of its run
    assert (stored["protocol"], stored["group_size"], stored["seed"]) == ("odmrp", 10, cfg.seed)


def test_file_is_json_lines(cache_dir):
    cfgs = _configs(2)
    run_many(cfgs)
    entries = _entries(cache_dir)
    # one entry per config, named by its stable hash
    assert sorted(entries) == sorted(f"{config_hash(c)}.json" for c in cfgs)
    for raw in entries.values():
        json.loads(raw)  # every entry is standalone JSON
