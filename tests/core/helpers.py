"""Small hand-built deployments for protocol unit tests.

All use the ideal MAC over a perfect channel so behaviour is a pure
function of the protocol logic and the seed.
"""

from __future__ import annotations

import numpy as np

from repro.mac.ideal import IdealMac
from repro.metrics.collect import collect_metrics
from repro.net.network import Network
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceKind
from repro.traffic.spec import SessionSpec, TrafficPlan


def build(positions, comm_range, receivers, agent_factory, seed=1, group=1):
    """Wire a deployment with one routing agent per node."""
    sim = Simulator(seed=seed)
    net = Network(sim, np.asarray(positions, dtype=float), comm_range=comm_range,
                  mac_factory=IdealMac, perfect_channel=True)
    net.set_group_members(group, receivers)
    net.bootstrap_neighbor_tables()
    agents = net.install(lambda node: agent_factory())
    net.start()
    return sim, net, agents


def run_round(sim, agents, group=1, source=0, settle=2.0, data_time=1.0, seq=0):
    """One JoinQuery round followed by one data packet."""
    agents[source].request_route(group)
    sim.run(until=sim.now + settle)
    agents[source].send_data(group, seq)
    sim.run(until=sim.now + data_time)


def collect_round(net, agents, receivers, group=1, source=0, horizon=3.0):
    """``collect_metrics`` over the one-session plan :func:`run_round` drives."""
    plan = TrafficPlan((SessionSpec(source=source, group=group, receivers=receivers),))
    return collect_metrics(net, agents, plan, {(source, group): list(receivers)}, horizon)


def forwarders_of(agents, source=0, group=1):
    return {
        a.node_id
        for a in agents
        if (st := a.state_of(source, group)) is not None and st.is_forwarder
    }


def data_tx_count(sim):
    return sim.trace.count(TraceKind.TX, "DataPacket")


def delivered_nodes(sim):
    return sim.trace.nodes_with(TraceKind.DELIVER)


def line_positions(n, spacing=20.0):
    """n nodes in a line: 0 - 1 - 2 - ... (adjacent pairs only, range 25)."""
    return [[i * spacing, 0.0] for i in range(n)]
