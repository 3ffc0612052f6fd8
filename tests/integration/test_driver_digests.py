"""Golden outputs of the campaign drivers that build their own runs.

``run_single`` is pinned by ``test_golden_digest.py``; the fault, chaos,
load and scaling drivers drive their own phases on top of the shared
deployment builder, and these constants pin what they produce: the full
trace digest where the driver reports one, the result tuple or the
event/frame counts where it does not.  A refactor of the build path must
leave every value here byte-identical.

Regenerate a constant only for a change that intentionally alters what
a driver simulates, and say so in the commit.
"""

import dataclasses

import pytest

from repro.experiments.chaos import (
    _SOAK_KWARGS,
    _SOAK_PROTOCOLS,
    DEFAULT_POLICY,
    run_chaos_single,
)
from repro.experiments.config import SimulationConfig
from repro.experiments.faults import run_fault_single
from repro.experiments.load import run_cbr
from repro.experiments.scaling import run_scaling_point

#: (protocol, repair) -> trace sha256 of one checked soak run (the
#: ``chaos`` CLI's deployment and knobs, seed 90210 + protocol index)
CHAOS = {
    ("mtmrp", False): "11198ed7401d7ff717b6285e7ab9d5b49247a86408ddd67c1d6a1c88484f27ae",
    ("mtmrp", True): "040e53257be86c20e4b1037d6946befa1edceeb8ed183896f1e40b0a8ab25d7d",
    ("odmrp", False): "7e6846b4a078bc2c4ff4e5966b6cd3a574a995f0b88dd7ab1245b37b65cf3150",
    ("odmrp", True): "e40b69d0f38655edabdf65f5e8b15442931c40bb3ef96c41082a7da6bcce5ac2",
    ("dodmrp", False): "b942816f5a58285f7280a0fb9d0f127272488a774fa263ac115458f10e1dd004",
    ("dodmrp", True): "b942816f5a58285f7280a0fb9d0f127272488a774fa263ac115458f10e1dd004",
    ("maodv", False): "cdefc44f99a45b331ab68e0819ddd9caa7facae66c98ed18846e84cea1f413b8",
    ("maodv", True): "8101576473d938d96aa99c251aa827a3cdb77e03987f8f19820e1c3a6d1b8c54",
    ("gmr", False): "4ea99a55e05d3e4d97cb25960af16bc00292cb9423fa4183dd3a384772c66f7f",
    ("gmr", True): "4ea99a55e05d3e4d97cb25960af16bc00292cb9423fa4183dd3a384772c66f7f",
}

#: (mac, loss model, protocol) -> trace sha256 of a mid-stream forwarder
#: crash on the default 10x10 grid (seed 4242; "iid" is 10% frame loss)
FAULT = {
    ("ideal", "none", "mtmrp"): "23de4ac5fdb9ddd706394a3ab6e858693699a95da0ec8c600f789ff128afb1ef",
    ("ideal", "none", "odmrp"): "0aa2fd2689dbef3afe0ec07fcac3f77c7eb964dfef4b3d56b90930d6adff4d10",
    ("ideal", "iid", "mtmrp"): "aa9a3de723b3e7800ef9fccee3b93a5d8c12b53705fd62bdd8945c68843598e9",
    ("ideal", "iid", "odmrp"): "9cdfe57af58876a30a96aa49ea16dfc462a2b1271ad70a8585e1afb4b1fc9a1c",
    ("csma", "none", "mtmrp"): "55b3b18d1e1c9a069a3b7d3fdfca6db4ff395e98c2514107230461dc6c69c26d",
    ("csma", "none", "odmrp"): "b26a90ed4f1d1a3a9e4ec5b3ac953c756244d614f235b61f192e4a32a6af91d4",
    ("csma", "iid", "mtmrp"): "1099565823c4aae7c0c4f4f3a9fb50b13e9e7c9283567119136d9a9132aaaf01",
    ("csma", "iid", "odmrp"): "5db71329b3a8b5ef77527dd96426e2da3f339e59a2f1967d78032248d2dd5556",
}

#: (protocol, rate) -> CbrResult fields, 10 packets on the default CSMA grid
CBR = {
    ("mtmrp", 5.0): ("mtmrp", 5.0, 10, 1.0, 100.0, 26.0, 288),
    ("mtmrp", 50.0): ("mtmrp", 50.0, 10, 0.85, 850.0, 22.8, 350),
    ("odmrp", 5.0): ("odmrp", 5.0, 10, 1.0, 100.0, 31.0, 248),
    ("odmrp", 50.0): ("odmrp", 50.0, 10, 0.935, 935.0, 29.2, 312),
}

#: protocol -> (events, frames sent, frames delivered, delivers) of one
#: round on a 200-node paper-density deployment (seed 7)
SCALING = {
    "mtmrp": (4272, 307, 4371, 20),
    "odmrp": (3834, 326, 4919, 20),
}


def soak_cfg(protocol: str, seed: int) -> SimulationConfig:
    return SimulationConfig(
        protocol=protocol, topology="grid", grid_nx=5, grid_ny=5, side=120.0,
        group_size=6, mac="ideal", hello_phase=True, seed=seed,
    )


@pytest.mark.parametrize("repair", [False, True])
@pytest.mark.parametrize("protocol", _SOAK_PROTOCOLS)
def test_chaos_digest(protocol, repair):
    cfg = soak_cfg(protocol, 90210 + _SOAK_PROTOCOLS.index(protocol))
    r = run_chaos_single(
        cfg, policy=DEFAULT_POLICY if repair else None, check=True, **_SOAK_KWARGS
    )
    assert r.violations == ()
    assert r.trace_sha256 == CHAOS[(protocol, repair)]


def fault_cfg(mac: str, loss: str, protocol: str) -> SimulationConfig:
    return SimulationConfig(
        protocol=protocol, mac=mac, loss_model=loss,
        loss_rate=0.1 if loss == "iid" else 0.0, seed=4242,
    )


@pytest.mark.parametrize("mac,loss,protocol", sorted(FAULT))
def test_fault_digest(mac, loss, protocol):
    r = run_fault_single(fault_cfg(mac, loss, protocol), crash_forwarder_at=0.55)
    assert r.crashes == 1
    assert r.trace_sha256 == FAULT[(mac, loss, protocol)]


@pytest.mark.parametrize("protocol,rate", sorted(CBR))
def test_cbr_result(protocol, rate):
    r = run_cbr(SimulationConfig(protocol=protocol, seed=777), rate, n_packets=10)
    assert dataclasses.astuple(r) == CBR[(protocol, rate)]


@pytest.mark.parametrize("protocol", sorted(SCALING))
def test_scaling_counts(protocol):
    p = run_scaling_point(SimulationConfig.scaled(200, protocol=protocol, seed=7))
    assert (p.events, p.frames_sent, p.frames_delivered, p.delivers) == SCALING[protocol]
