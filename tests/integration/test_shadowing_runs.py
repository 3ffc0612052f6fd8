"""Integration tests for the shadowing ablation substrate."""

import numpy as np

from repro.experiments import SimulationConfig, run_single


def test_shadowing_changes_topology_not_draws():
    """Shadowed runs keep the same receiver draw (variance isolation)."""
    base = SimulationConfig(protocol="mtmrp", topology="grid", group_size=15, seed=8)
    clean = run_single(base)
    faded = run_single(base.with_(shadowing_sigma_db=4.0))
    assert clean.receivers == faded.receivers


def test_shadowing_deterministic_per_seed():
    cfg = SimulationConfig(protocol="mtmrp", topology="grid", group_size=15,
                           seed=9, shadowing_sigma_db=4.0)
    assert run_single(cfg) == run_single(cfg)


def test_channel_links_symmetric_under_fading():
    """The symmetrised gain matrix keeps links bidirectional."""
    from repro.mac.ideal import IdealMac
    from repro.net.network import Network
    from repro.net.topology import grid_topology
    from repro.phy.propagation import LogDistance
    from repro.sim.kernel import Simulator

    sim = Simulator(seed=4)
    prop = LogDistance(
        reference_distance=1.0,
        reference_power_factor=(1.5 * 1.5) ** 2,
        path_loss_exponent=4.0,
        shadowing_sigma_db=6.0,
        rng=sim.rng.stream("shadowing"),
    )
    net = Network(sim, grid_topology(), comm_range=40.0,
                  mac_factory=IdealMac, propagation=prop)
    ch = net.channel
    assert np.allclose(ch.rx_power, ch.rx_power.T)
    for i in range(len(net)):
        for j in ch.neighbors(i):
            assert i in ch.neighbors(int(j))


def test_heavy_fading_prunes_some_nominal_links():
    from repro.mac.ideal import IdealMac
    from repro.net.network import Network
    from repro.net.topology import grid_topology
    from repro.phy.propagation import LogDistance
    from repro.sim.kernel import Simulator

    def link_count(sigma):
        sim = Simulator(seed=4)
        prop = None
        if sigma:
            prop = LogDistance(
                reference_distance=1.0,
                reference_power_factor=(1.5 * 1.5) ** 2,
                path_loss_exponent=4.0,
                shadowing_sigma_db=sigma,
                rng=sim.rng.stream("shadowing"),
            )
        net = Network(sim, grid_topology(), comm_range=40.0,
                      mac_factory=IdealMac, propagation=prop)
        return sum(len(net.neighbors(i)) for i in range(len(net)))

    clean = link_count(0)
    faded = link_count(6.0)
    assert faded != clean  # fading reshapes the neighborhood


def test_fault_and_chaos_runs_see_shadowing():
    """The fault and chaos drivers build the same deployment as
    ``run_single``: a 6 dB fading config changes what they simulate."""
    from repro.experiments.chaos import run_chaos_single
    from repro.experiments.faults import run_fault_single

    fault = SimulationConfig(protocol="mtmrp", group_size=20, mac="ideal", seed=3)
    kw = dict(n_packets=10, crash_forwarder_at=0.55)
    assert (
        run_fault_single(fault, **kw).trace_sha256
        != run_fault_single(fault.with_(shadowing_sigma_db=6.0), **kw).trace_sha256
    )
    chaos = SimulationConfig(
        protocol="mtmrp", topology="grid", grid_nx=5, grid_ny=5, side=120.0,
        group_size=6, mac="ideal", hello_phase=True, seed=90210,
    )
    kw = dict(n_packets=20, rate_pps=10.0, refresh_interval=5.0, n_cycles=1)
    assert (
        run_chaos_single(chaos, **kw).trace_sha256
        != run_chaos_single(chaos.with_(shadowing_sigma_db=6.0), **kw).trace_sha256
    )
