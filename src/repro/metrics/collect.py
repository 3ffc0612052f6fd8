"""Metric computation from traces and protocol state."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence, Set

from repro.sim.trace import TraceKind, TraceRecorder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.network import Network
    from repro.protocols.base import OnDemandMulticastAgent

__all__ = [
    "MulticastMetrics",
    "data_transmitters",
    "extra_nodes",
    "average_relay_profit",
    "collect_metrics",
]


@dataclass
class MulticastMetrics:
    """All per-run measurements for one multicast session."""

    #: transmissions of the measured data packet (paper's primary metric)
    data_transmissions: int
    #: 1 + number of marked forwarders (tree-based accounting; equals
    #: data_transmissions when the data phase is loss-free)
    tree_transmissions: int
    #: transmitting nodes that are neither source nor receivers
    extra_nodes: int
    #: mean receivers-per-neighborhood over transmitting nodes
    average_relay_profit: float
    #: receivers that got the data packet
    delivered: int
    #: |delivered| / |receivers|
    delivery_ratio: float
    #: receivers that consider themselves connected to the tree
    covered_receivers: int
    #: control transmissions during construction
    join_query_tx: int
    join_reply_tx: int
    hello_tx: int
    #: channel-level collision events
    collisions: int
    #: network-wide energy consumed (joules)
    energy_joules: float
    #: frames erased by the channel's loss model (0 without one)
    frames_lost: int = 0
    #: seconds from the JoinQuery flood start until the last receiver was
    #: covered — "the price paying for the reduced transmission cost ...
    #: is the introduced backoff delay at each hop during the multicast
    #: tree construction phase" (Sec. V-B-3), made measurable
    construction_latency: float = 0.0
    #: transmitting node ids (for snapshots)
    transmitters: Set[int] = field(default_factory=set)


def data_transmitters(trace: TraceRecorder) -> Set[int]:
    """Nodes that transmitted the data packet."""
    return trace.nodes_with(TraceKind.TX, "DataPacket")


def extra_nodes(transmitters: Iterable[int], source: int, receivers: Iterable[int]) -> int:
    """Definition from Sec. V-A: forwarding nodes outside the multicast group."""
    return len(set(transmitters) - set(receivers) - {source})


def average_relay_profit(
    network: "Network", transmitters: Iterable[int], receivers: Iterable[int]
) -> float:
    """Mean number of receiver neighbors over the transmitting nodes.

    Definition 1's *exclusive* RelayProfit sums to at most |R| over the
    tree, giving averages below ~2 — an order of magnitude under the
    values plotted in Figs. 5(c)/6(c) (up to ≈5 on the grid and ≈7 in the
    dense random topology, i.e. exactly the receiver densities of those
    deployments).  The plotted metric is therefore the non-exclusive
    count: for each relay, the receivers it covers among its neighbors.
    This also matches the text's note that per-protocol differences "seem
    very small" while still ranking MTMRP highest.
    """
    tx = list(transmitters)
    if not tx:
        return 0.0
    r = set(receivers)
    total = 0
    for v in tx:
        total += sum(1 for nbr in network.neighbors(v) if int(nbr) in r)
    return total / len(tx)


def collect_metrics(
    network: "Network",
    agents: Sequence["OnDemandMulticastAgent"],
    source: int,
    group: int,
    receivers: Sequence[int],
) -> MulticastMetrics:
    """Assemble all metrics after the data phase has quiesced."""
    trace = network.sim.trace
    transmitters = data_transmitters(trace)
    r = set(receivers)

    forwarders = {
        a.node_id
        for a in agents
        if any(st.is_forwarder for st in a.sessions.values())
    }
    covered = sum(
        1
        for a in agents
        if a.node_id in r and any(st.covered for st in a.sessions.values())
    )
    # construction latency: first JoinQuery TX -> last coverage mark.
    # Both lookups ride the recorder's (kind, packet_type) indexes instead
    # of scanning the full record list.
    first_jq = next(trace.filter(TraceKind.TX, "JoinQuery"), None)
    t_start = first_jq.time if first_jq is not None else None
    t_covered = None
    for rec in trace.filter(TraceKind.MARK, "Covered"):
        if rec.node in r:
            t_covered = rec.time
    latency = (t_covered - t_start) if (t_start is not None and t_covered is not None) else 0.0
    delivered = len(trace.nodes_with(TraceKind.DELIVER) & r)
    energy = network.energy_summary()["total_joules"]
    return MulticastMetrics(
        data_transmissions=trace.count(TraceKind.TX, "DataPacket"),
        tree_transmissions=1 + len(forwarders - {source}),
        extra_nodes=extra_nodes(transmitters, source, r),
        average_relay_profit=average_relay_profit(network, transmitters, r),
        delivered=delivered,
        delivery_ratio=delivered / len(r) if r else 1.0,
        covered_receivers=covered,
        join_query_tx=trace.count(TraceKind.TX, "JoinQuery"),
        join_reply_tx=trace.count(TraceKind.TX, "JoinReply"),
        hello_tx=trace.count(TraceKind.TX, "HelloPacket"),
        collisions=network.channel.frames_collided,
        energy_joules=energy,
        frames_lost=network.channel.frames_lost,
        construction_latency=latency,
        transmitters=transmitters,
    )
