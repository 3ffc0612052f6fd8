"""Tests for the CBR traffic-load experiments."""

import pytest

from repro.experiments.config import SimulationConfig
from repro.experiments.load import CbrResult, load_sweep, run_cbr


def test_run_cbr_low_rate_full_delivery():
    cfg = SimulationConfig(protocol="mtmrp", topology="grid", group_size=10,
                           mac="ideal", seed=3)
    res = run_cbr(cfg, rate_pps=2.0, n_packets=5)
    assert isinstance(res, CbrResult)
    assert res.packets_sent == 5
    assert res.delivery_ratio == 1.0  # lossless medium
    assert res.tx_per_packet >= 1.0
    assert res.goodput_rps == pytest.approx(res.delivery_ratio * 10 * 2.0)


def test_run_cbr_deterministic():
    cfg = SimulationConfig(protocol="odmrp", topology="grid", group_size=10,
                           mac="ideal", seed=4)
    assert run_cbr(cfg, 5.0, n_packets=4) == run_cbr(cfg, 5.0, n_packets=4)


def test_load_sweep_shape():
    out = load_sweep(rates_pps=(1.0, 5.0), runs=2, n_packets=5)
    assert set(out) == {1.0, 5.0}
    for v in out.values():
        assert {"delivery_ratio", "goodput_rps", "tx_per_packet", "collisions"} <= set(v)
        assert 0.0 <= v["delivery_ratio"] <= 1.0


def test_saturation_degrades_delivery():
    """Under CSMA, pushing the rate far past the forwarding jitter budget
    must cost delivery (the congestion knee)."""
    low = load_sweep(rates_pps=(1.0,), runs=3, n_packets=8)[1.0]
    high = load_sweep(rates_pps=(100.0,), runs=3, n_packets=8)[100.0]
    assert high["delivery_ratio"] < low["delivery_ratio"]
    assert low["delivery_ratio"] >= 0.97


def test_run_cbr_applies_the_loss_model(monkeypatch):
    """``cfg.loss_model`` reaches the CBR channel: frames are lost."""
    import repro.sim.snapshot as snapshot

    built = []
    build = snapshot.build_prefix

    def spy(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(snapshot, "build_prefix", spy)
    cfg = SimulationConfig(protocol="mtmrp", topology="grid", group_size=10,
                           mac="ideal", loss_model="iid", loss_rate=0.2, seed=3)
    run_cbr(cfg, 5.0, n_packets=4)
    assert len(built) == 1
    assert built[0].net.channel.frames_lost > 0
