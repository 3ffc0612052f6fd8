"""Scaling sweep: one multicast round at growing deployment sizes.

The sparse spatial-hash channel makes 1000–5000-node deployments a
supported workload (the dense backend needed O(n²) memory — ~230 MB of
matrices alone at 2000 nodes).  This sweep measures, per size, the
wall-clock cost of network construction and of one full protocol round at
the paper's node density (:meth:`SimulationConfig.scaled`), with a
counters-only trace so record storage never dominates at scale.

``python -m repro.experiments scaling`` writes ``results/scaling.json``.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import List, Sequence, Union

from repro.experiments.config import SimulationConfig, make_agent_factory
from repro.sim.trace import TraceKind, TraceRecorder

__all__ = ["ScalingPoint", "run_scaling_point", "scaling_sweep", "DEFAULT_SIZES"]

#: Default sweep sizes; 200 is the paper's deployment (the anchor point).
DEFAULT_SIZES: Sequence[int] = (200, 500, 1000, 2000)


@dataclass(frozen=True)
class ScalingPoint:
    """Wall-clock and volume measurements for one deployment size."""

    n_nodes: int
    protocol: str
    seed: int
    #: seconds to draw the topology and build the wired Network
    build_s: float
    #: seconds for the full simulated round (construction + data phases)
    run_s: float
    events: int
    events_per_s: float
    frames_sent: int
    frames_delivered: int
    #: application-level DELIVER count (counters-only trace)
    delivers: int


def run_scaling_point(cfg: SimulationConfig) -> ScalingPoint:
    """One multicast round under ``cfg`` with a counters-only trace."""
    from repro.sim.snapshot import build_prefix

    t0 = time.perf_counter()
    sim, net, _receivers, _positions = build_prefix(
        cfg, trace=TraceRecorder(counters_only=True)
    )
    agents = net.install(make_agent_factory(cfg))
    for agent in agents:
        agent.start()
    build_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    source_agent = agents[cfg.source]
    settle = sim.now + cfg.effective_construction_time
    source_agent.request_route(cfg.group)
    sim.run(until=settle)
    source_agent.send_data(cfg.group, 0)
    sim.run(until=settle + cfg.data_time)
    run_s = time.perf_counter() - t0

    point = ScalingPoint(
        n_nodes=cfg.n_nodes,
        protocol=cfg.protocol,
        seed=cfg.seed,
        build_s=build_s,
        run_s=run_s,
        events=sim.events_executed,
        events_per_s=sim.events_executed / run_s if run_s > 0 else 0.0,
        frames_sent=net.channel.frames_sent,
        frames_delivered=net.channel.frames_delivered,
        delivers=sim.trace.count(TraceKind.DELIVER),
    )
    net.close()
    return point


def scaling_sweep(
    sizes: Sequence[int] = DEFAULT_SIZES,
    protocol: str = "mtmrp",
    group_size: int = 20,
    seed: int = 7,
) -> List[ScalingPoint]:
    """One :class:`ScalingPoint` per deployment size (paper density)."""
    points = []
    for n in sizes:
        cfg = SimulationConfig.scaled(
            n, protocol=protocol, group_size=group_size, seed=seed
        )
        points.append(run_scaling_point(cfg))
    return points


def write_scaling_json(
    points: Sequence[ScalingPoint], out: Union[str, Path] = "results/scaling.json"
) -> None:
    """Persist a sweep as JSON (one object per point)."""
    path = Path(out)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps([asdict(p) for p in points], indent=2) + "\n")
