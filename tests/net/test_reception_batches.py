"""Frame-batched reception against the per-receiver reference.

The channel files one heap entry per frame and phase: an arrival batch
walking the frame's receivers, then a completion batch.  The reference
here is the per-receiver scheduler the batches replaced: one arrival
event per receiver, built on :meth:`Radio.begin_reception`, which pushes
one completion event per receiver, built on
:meth:`Radio.finish_reception`.  Both must produce the same trace,
energy, radio state, counters and handler side effects at every pause
point, whatever interleaves with a batch: same-instant transmits,
equal-delay grid ties, zero-delay events scheduled by a receive handler,
``run(until=)`` inside a frame's arrival window, ``sim.stop()`` from a
handler, a receiver crashing mid-flight, and i.i.d. loss.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.net.network as network_module
from repro.mac.csma import CsmaMac
from repro.mac.ideal import IdealMac
from repro.net.agent import Agent
from repro.net.channel import Channel
from repro.net.loss import IidLoss
from repro.net.network import Network
from repro.net.packet import DataPacket, reset_uids
from repro.net.topology import grid_topology, random_topology
from repro.phy.radio import Radio, Reception
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceKind, trace_digest


class ReferenceChannel(Channel):
    """One heap event per receiver per phase (the unbatched pipeline)."""

    def transmit(self, node_id: int, packet) -> None:
        sim = self.sim
        now = sim.now
        nodes = self._nodes
        node = nodes[node_id] if nodes else None
        if node is not None and (not node.alive or node.asleep):
            self.frames_suppressed += 1
            return
        bits = packet.size_bits()
        duration = bits / self.bitrate_bps
        direct = self.direct_finish and self.loss is None and nodes
        if not direct:
            radio = self.radios[node_id]
            radio.begin_tx(now, duration)
            end = now + duration
            self._push_fire(end, radio.end_tx, (end,), -1)
        self.frames_sent += 1
        self._emit(now, TraceKind.TX, node_id, packet.ptype, packet.uid)
        if node is not None:
            node.energy.charge_tx(self.energy_model.tx_energy(bits))
        delivery = self._delivery[node_id]
        if delivery is None:
            delivery = self._delivery_list(node_id)
        if direct:
            sim._queue.push_many(
                [
                    ((now + delay) + duration, self._ref_finish_direct, (rnode, nbr, packet))
                    for nbr, delay, power, radio, rnode in delivery
                    if rnode.alive and not rnode.asleep
                ],
                1,
            )
            return
        live = [e for e in delivery if e[4] is None or e[4].is_active]
        if self.loss is None:
            fates = [False] * len(live)
        else:
            fates = self.loss.frame_lost_batch(node_id, [e[0] for e in live])
        sim.schedule_many(
            [
                (delay, self._ref_arrive, (radio, rnode, nbr, packet, power, duration, lost))
                for (nbr, delay, power, radio, rnode), lost in zip(live, fates)
            ]
        )

    def _ref_arrive(self, radio: Radio, node, nbr: int, packet, power: float,
                    duration: float, lost: bool) -> None:
        now = self.sim.now
        rec = radio.begin_reception(packet, now, duration, power)
        if lost:
            rec.intact = False
        self._push_fire(now + duration, self._ref_finish, (radio, node, nbr, rec, lost), 1)

    def _ref_finish(self, radio: Radio, node, nbr: int, rec: Reception, lost: bool) -> None:
        now = self.sim.now
        ok = radio.finish_reception(rec, now)
        packet = rec.frame
        rec.frame = None
        radio.free_pool.append(rec)
        if node is not None:
            if not node.alive or node.asleep:
                return
            node.energy.charge_rx(self.energy_model.rx_energy(packet.size_bits()))
        if lost:
            self.frames_lost += 1
            self._emit(now, TraceKind.DROP, nbr, packet.ptype, "loss")
        elif ok or self.perfect:
            self.frames_delivered += 1
            self._emit(now, TraceKind.RX, nbr, packet.ptype, packet.uid)
            if node is not None:
                node.on_packet_received(packet)
        else:
            self.frames_collided += 1
            self._emit(now, TraceKind.COLLISION, nbr, packet.ptype, packet.uid)

    def _ref_finish_direct(self, node, nbr: int, packet) -> None:
        if not node.alive or node.asleep:
            return
        node.energy.charge_rx(self.energy_model.rx_energy(packet.size_bits()))
        self.frames_delivered += 1
        self._emit(self.sim.now, TraceKind.RX, nbr, packet.ptype, packet.uid)
        node.on_packet_received(packet)


#: send instants; equal picks give same-instant transmits
SLOTS = (0.0, 0.0, 4e-4, 1e-3)
#: IdealMac access delay: a frame sent at ``s`` is on the air at ``s + FIRE``
FIRE = 10e-6


@dataclass
class Scenario:
    layout: str = "grid"
    n: int = 9
    mac: str = "ideal"
    perfect: bool = False
    loss: Optional[float] = None
    direct: bool = False
    #: ``(slot, sender)`` pairs
    sends: List[Tuple[int, int]] = field(default_factory=lambda: [(0, 4)])
    #: receivers rebroadcast the first frame they hear
    forward: bool = False
    #: receive handlers schedule a zero-delay event
    zero_delay: bool = False
    #: ``sim.stop()`` from the handler of this (1-based) reception
    stop_at: Optional[int] = None
    #: ``(node, time)``: the node fails at ``time``
    crash: Optional[Tuple[int, float]] = None
    #: ``run(until=)`` pause points, ascending
    cuts: List[float] = field(default_factory=list)
    #: link bitrate; at 1e12 b/s a frame's airtime is shorter than the
    #: spread of its arrival times, so completions overtake arrivals
    bitrate: float = 2e6


class Probe(Agent):
    handled_packets = (DataPacket,)

    def __init__(self, sc: Scenario, log: list, count: list) -> None:
        super().__init__()
        self.sc = sc
        self.log = log
        self.count = count
        self.forwarded = False

    def on_packet(self, packet) -> None:
        sim = self.sim
        me = self.node.node_id
        self.log.append(("rx", sim.now, me, packet.uid))
        if self.sc.zero_delay:
            sim.schedule_fire(0.0, self.log.append, ("zero", sim.now, me, packet.uid))
        if self.sc.forward and not self.forwarded:
            self.forwarded = True
            self.node.send(packet.clone_for_forwarding(me))
        self.count[0] += 1
        if self.count[0] == self.sc.stop_at:
            sim.stop()


def _state(sim: Simulator, net: Network, log: list) -> tuple:
    ch = net.channel
    radios = tuple(
        (
            r.state,
            r.tx_until,
            len(r.free_pool),
            tuple(
                (x.start, x.end, x.power, x.intact, getattr(x.frame, "uid", None))
                for x in r.receptions
            ),
        )
        for r in ch.radios
    )
    energy = tuple((n.energy.tx_joules, n.energy.rx_joules) for n in net.nodes)
    counters = (
        ch.frames_sent, ch.frames_delivered, ch.frames_collided,
        ch.frames_lost, ch.frames_suppressed,
    )
    return (
        sim.now, trace_digest(sim.trace), list(sim.trace.records),
        radios, energy, counters, list(log),
    )


def run_scenario(sc: Scenario, channel_cls) -> Tuple[list, int]:
    """Snapshots at every pause point, and the heap entries executed."""
    reset_uids()
    sim = Simulator(seed=5)
    if sc.layout == "grid":
        side = int(np.ceil(np.sqrt(sc.n)))
        pos = grid_topology(side, side, 30.0 * (side - 1) or 1.0)[: sc.n]
    else:
        pos = random_topology(sc.n, side=50.0, rng=np.random.default_rng(sc.n))
    loss = IidLoss(sc.loss, np.random.default_rng(3)) if sc.loss is not None else None
    with patch.object(network_module, "Channel", channel_cls):
        net = Network(
            sim, pos, comm_range=40.0,
            mac_factory=IdealMac if sc.mac == "ideal" else CsmaMac,
            perfect_channel=sc.perfect, loss=loss, bitrate_bps=sc.bitrate,
        )
    net.channel.direct_finish = sc.direct
    log: list = []
    count = [0]
    for node in net.nodes:
        node.add_agent(Probe(sc, log, count))
    for k, (slot, sender) in enumerate(sc.sends):
        sim.schedule_at(
            SLOTS[slot], net.node(sender).send, DataPacket(src=sender, source=sender, seq=k)
        )
    if sc.crash is not None:
        sim.schedule_at(sc.crash[1], net.node(sc.crash[0]).fail)
    snaps = []
    for cut in sc.cuts:
        sim.run(until=cut)
        snaps.append(_state(sim, net, log))
    for _ in range(1000):
        sim.run()
        snaps.append(_state(sim, net, log))
        if not sim.pending:
            break
    return snaps, sim.events_executed


def assert_same(sc: Scenario) -> Tuple[int, int]:
    ref, ref_events = run_scenario(sc, ReferenceChannel)
    new, new_events = run_scenario(sc, Channel)
    assert len(new) == len(ref)
    for k, (a, b) in enumerate(zip(ref, new)):
        assert a == b, f"pause point {k} of {sc}"
    return ref_events, new_events


@st.composite
def scenarios(draw) -> Scenario:
    n = draw(st.integers(3, 9))
    mac = draw(st.sampled_from(["ideal", "csma"]))
    perfect = draw(st.booleans())
    loss = draw(st.sampled_from([None, None, 0.3]))
    direct = mac == "ideal" and perfect and loss is None and draw(st.booleans())
    sends = draw(
        st.lists(
            st.tuples(st.integers(0, len(SLOTS) - 1), st.integers(0, n - 1)),
            min_size=1, max_size=5,
        )
    )
    # arrival windows span ~0.2 us after a frame goes on the air; the
    # completion windows follow one airtime later
    window = st.tuples(st.sampled_from(SLOTS), st.floats(0.0, 2.5e-7)).map(
        lambda p: p[0] + FIRE + p[1]
    )
    anywhere = st.floats(0.0, 2e-3)
    cuts = sorted(draw(st.lists(st.one_of(window, anywhere), max_size=3)))
    crash = draw(st.none() | st.tuples(st.integers(0, n - 1), st.one_of(window, anywhere)))
    return Scenario(
        layout=draw(st.sampled_from(["grid", "random"])),
        n=n, mac=mac, perfect=perfect, loss=loss, direct=direct, sends=sends,
        forward=draw(st.booleans()), zero_delay=draw(st.booleans()),
        stop_at=draw(st.none() | st.integers(1, 12)), crash=crash, cuts=cuts,
        bitrate=draw(st.sampled_from([2e6, 2e6, 1e12])),
    )


@settings(max_examples=150)
@given(scenarios())
def test_batches_match_per_receiver_reference(sc):
    assert_same(sc)


@pytest.mark.parametrize(
    "sc",
    [
        # equal-delay grid ties, two frames on the air at once (collisions)
        Scenario(sends=[(0, 0), (0, 8)]),
        # a zero-delay event from a receive handler lands between two
        # equal-time completions of one frame
        Scenario(perfect=True, zero_delay=True, forward=True),
        # run(until=) between a frame's arrivals (at +73, +82, +129 ns)
        Scenario(layout="random", sends=[(0, 0)], cuts=[FIRE + 0.8e-7, FIRE + 1e-7, 5e-4]),
        # sim.stop() from the second delivery, then resume
        Scenario(perfect=True, stop_at=2, forward=True),
        # a receiver fails between its arrival and its completion
        Scenario(perfect=True, crash=(1, FIRE + 1e-4)),
        # i.i.d. loss rides the same batches
        Scenario(loss=0.3, sends=[(0, 4), (2, 0), (3, 8)], forward=True),
        # the direct-finish lane (perfect, lossless, ideal MAC)
        Scenario(perfect=True, direct=True, forward=True, zero_delay=True, stop_at=3),
        # a frame's first completions come before its last arrivals
        Scenario(layout="random", bitrate=1e12, forward=True, zero_delay=True),
        # CSMA carrier sense reads the radio state the batches maintain
        Scenario(mac="csma", layout="random", sends=[(0, 0), (0, 1), (0, 2)], forward=True),
    ],
)
def test_named_scenarios(sc):
    assert_same(sc)


def test_one_heap_entry_per_frame_and_phase():
    sc = Scenario(layout="random", perfect=True, sends=[(0, 0), (2, 3), (3, 6)])
    ref_events, new_events = assert_same(sc)
    # per frame: MAC access, fire, end of TX, end of MAC hold, and one
    # entry per reception phase instead of one per receiver
    assert new_events == 3 * 6
    assert ref_events > new_events + 3 * 2


def test_step_runs_one_receiver_at_a_time():
    """Outside ``run()`` the kernel never lets a batch continue inline."""
    reset_uids()
    sim = Simulator(seed=1)
    net = Network(sim, grid_topology(3, 3, 60.0), comm_range=45.0,
                  mac_factory=IdealMac, perfect_channel=True)
    net.node(4).send(DataPacket(src=4))
    rx_after_step = []
    while sim.step():
        rx_after_step.append(sim.trace.count(TraceKind.RX))
    assert rx_after_step[-8:] == list(range(1, 9))
