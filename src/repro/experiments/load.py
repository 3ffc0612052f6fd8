"""Traffic-load experiments (extension).

The paper's metrics are per-tree (one data packet per constructed tree).
Real deployments stream data, and under a contention MAC the forwarding
group's broadcasts start colliding as the rate grows.  This module drives
a CBR (constant-bit-rate) flow down an established multicast tree and
measures delivery ratio and goodput against the offered rate — the
saturation knee complements the paper's energy story.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.experiments.config import SimulationConfig, make_agent_factory
from repro.sim.trace import TraceKind, TraceRecorder

__all__ = ["CbrResult", "run_cbr", "load_sweep"]


@dataclass(frozen=True)
class CbrResult:
    """Outcome of one CBR run."""

    protocol: str
    rate_pps: float
    packets_sent: int
    #: mean fraction of receivers reached per packet
    delivery_ratio: float
    #: delivered receiver-packets per second of the data phase
    goodput_rps: float
    #: mean data transmissions per packet
    tx_per_packet: float
    collisions: int


def run_cbr(
    cfg: SimulationConfig,
    rate_pps: float,
    n_packets: int = 20,
) -> CbrResult:
    """Stream ``n_packets`` at ``rate_pps`` down one constructed tree."""
    from repro.sim.snapshot import build_prefix

    sim, net, receivers, _positions = build_prefix(
        cfg, trace=TraceRecorder(enabled_kinds={TraceKind.TX, TraceKind.DELIVER})
    )
    agents = net.install(make_agent_factory(cfg))
    for agent in agents:
        agent.start()

    src = agents[cfg.source]
    src.request_route(cfg.group)
    sim.run(until=sim.now + cfg.effective_construction_time)

    interval = 1.0 / rate_pps
    t0 = sim.now
    for k in range(n_packets):
        sim.schedule_at(t0 + k * interval, src.send_data, cfg.group, k)
    # allow the tail of the stream to drain
    sim.run(until=t0 + n_packets * interval + 1.0)

    delivered = 0
    for rec in sim.trace.filter(kind=TraceKind.DELIVER):
        if rec.node in receivers:
            delivered += 1
    data_tx = sim.trace.count(TraceKind.TX, "DataPacket")
    duration = n_packets * interval
    result = CbrResult(
        protocol=cfg.protocol,
        rate_pps=rate_pps,
        packets_sent=n_packets,
        delivery_ratio=delivered / (n_packets * len(receivers)),
        goodput_rps=delivered / duration,
        tx_per_packet=data_tx / n_packets,
        collisions=net.channel.frames_collided,
    )
    net.close()
    return result


def load_sweep(
    rates_pps: Sequence[float] = (1.0, 5.0, 10.0, 20.0, 50.0),
    protocol: str = "mtmrp",
    topology: str = "grid",
    group_size: int = 20,
    runs: int = 5,
    n_packets: int = 20,
    batch_seed: int = 777,
) -> Dict[float, Dict[str, float]]:
    """Mean delivery/goodput/overhead per offered rate."""
    from repro.experiments.runner import monte_carlo

    out: Dict[float, Dict[str, float]] = {}
    base = SimulationConfig(protocol=protocol, topology=topology, group_size=group_size)
    for rate in rates_pps:
        results: List[CbrResult] = [
            run_cbr(c, rate, n_packets=n_packets)
            for c in monte_carlo(base, runs, batch_seed)
        ]
        out[rate] = {
            "delivery_ratio": float(np.mean([r.delivery_ratio for r in results])),
            "goodput_rps": float(np.mean([r.goodput_rps for r in results])),
            "tx_per_packet": float(np.mean([r.tx_per_packet for r in results])),
            "collisions": float(np.mean([r.collisions for r in results])),
        }
    return out
