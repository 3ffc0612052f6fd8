"""Traced mode: wrap each layer's public entry point and count its work.

Every wrapper is installed from here; nothing under ``src/`` changes.  A
wrapper goes where callers look the name up, before any object binds it:

* methods are patched on their class, so instances created afterwards bind
  the wrapper (``Channel`` caches ``trace.emit`` and ``queue.push_fire`` at
  construction, so :meth:`Tracer.install` must run before the first
  simulator of the traced pass is built);
* module functions are patched in every module that imported them by name
  (``repro.experiments.runner`` imports ``build_prefix``,
  ``repro.service.scheduler`` imports ``run_many``).

Counts that the simulator already keeps (frames, CSMA retries, protocol
transmissions) are harvested from each replicate's own objects when the
replicate ends, so no extra work runs per frame beyond the span wrappers.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, List

from spans import SpanRecorder

__all__ = ["Tracer", "LAYER_SPANS"]


def _targets():
    """``(owner, attribute, span name)`` for every wrapped entry point."""
    import repro.experiments.runner as runner
    import repro.metrics.collect as collect
    import repro.service.scheduler as scheduler
    import repro.sim.snapshot as snapshot
    from repro.check.harness import CheckHarness
    from repro.mac.base import Mac
    from repro.mac.csma import CsmaMac
    from repro.net.channel import Channel
    from repro.net.flooding import FloodingAgent
    from repro.net.neighbor import HelloAgent
    from repro.net.network import Network
    from repro.net.node import Node
    from repro.phy.radio import Radio
    from repro.protocols.base import OnDemandMulticastAgent
    from repro.protocols.gmr import GmrAgent
    from repro.service.spec import CampaignSpec
    from repro.service.store import ResultStore
    from repro.sim.events import EventQueue
    from repro.sim.kernel import Simulator
    from repro.sim.rng import RngRegistry
    from repro.sim.trace import TraceRecorder

    return [
        (runner, "run_single", "runner.run_single"),
        (runner, "build_prefix", "snapshot.build_prefix"),
        (snapshot, "build_prefix", "snapshot.build_prefix"),
        (Channel, "__init__", "channel.init"),
        (Network, "bootstrap_neighbor_tables", "network.bootstrap"),
        (RngRegistry, "stream", "rng.stream"),
        (Simulator, "run", "kernel.run"),
        (EventQueue, "push", "events.push"),
        (EventQueue, "push_fire", "events.push"),
        (EventQueue, "push_many", "events.push"),
        (Channel, "transmit", "channel.transmit"),
        (Channel, "_arrive", "channel.arrive"),
        (Channel, "_finish", "channel.finish"),
        (Radio, "begin_reception", "radio.begin_reception"),
        (Radio, "finish_reception", "radio.finish_reception"),
        (Mac, "send", "mac.send"),
        (Mac, "on_frame", "mac.on_frame"),
        (CsmaMac, "on_frame", "mac.on_frame"),
        (Node, "on_packet_received", "node.on_packet_received"),
        (OnDemandMulticastAgent, "on_packet", "agent.on_packet"),
        (GmrAgent, "on_packet", "agent.on_packet"),
        (FloodingAgent, "on_packet", "agent.on_packet"),
        (HelloAgent, "on_packet", "hello.on_packet"),
        (TraceRecorder, "emit", "trace.emit"),
        (collect, "collect_metrics", "metrics.collect"),
        (CheckHarness, "checkpoint", "check.checkpoint"),
        (CampaignSpec, "from_payload", "spec.from_payload"),
        (CampaignSpec, "key", "spec.key"),
        (ResultStore, "get", "store.get"),
        (ResultStore, "put", "store.put"),
        (scheduler, "run_many", "run_many"),
    ]


#: span names whose ``.calls`` and ``.self_s`` are reported; ``run_many``
#: reports its self time as ``run_many.busy_s`` (the scheduler thread's
#: wait on the pool, minus the store writes it does on each landing)
LAYER_SPANS = (
    "runner.run_single",
    "snapshot.build_prefix",
    "channel.init",
    "network.bootstrap",
    "rng.stream",
    "kernel.run",
    "events.push",
    "channel.transmit",
    "channel.arrive",
    "channel.finish",
    "radio.begin_reception",
    "radio.finish_reception",
    "mac.send",
    "mac.on_frame",
    "node.on_packet_received",
    "agent.on_packet",
    "hello.on_packet",
    "trace.emit",
    "metrics.collect",
    "check.checkpoint",
    "spec.from_payload",
    "spec.key",
    "store.get",
    "store.put",
    "run_many",
)

_DATA_TYPES = ("DataPacket", "ScopedFloodData", "GeoDataPacket")


class Tracer:
    """Installs the layer wrappers and gathers spans and counters."""

    def __init__(self) -> None:
        self.spans = SpanRecorder()
        self.counts: Counter = Counter()
        self._saved: List[tuple] = []
        #: simulators and channels built inside the current replicate,
        #: harvested and dropped when it ends (holding them would keep
        #: every deployment of the pass alive)
        self._live_sims: List[object] = []
        self._live_channels: List[object] = []

    # ------------------------------------------------------------------ #
    def install(self) -> None:
        """Patch every target; idempotent per tracer."""
        if self._saved:
            return
        wrappers: Dict[int, Callable] = {}
        for owner, attr, name in _targets():
            raw = owner.__dict__[attr]
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            # one wrapper per original function, so a function imported
            # into two modules stays a single entry point
            wrapped = wrappers.get(id(fn))
            if wrapped is None:
                wrapped = wrappers[id(fn)] = self._wrap(fn, name)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, classmethod(wrapped) if isinstance(raw, classmethod) else wrapped)

        from repro.sim.kernel import Simulator

        sims = self._live_sims
        original_init = Simulator.__init__

        def init(sim, *args, **kwargs):
            original_init(sim, *args, **kwargs)
            sims.append(sim)

        self._saved.append((Simulator, "__init__", original_init))
        Simulator.__init__ = init

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def _wrap(self, fn, name: str):
        traced = self.spans.wrap(fn, name)
        if name == "kernel.run":
            counts = self.counts

            def run(sim, *args, **kwargs):
                before = sim.events_executed
                try:
                    return traced(sim, *args, **kwargs)
                finally:
                    counts["kernel.events"] += sim.events_executed - before

            return run
        if name == "channel.init":
            live = self._live_channels

            def init(channel, *args, **kwargs):
                traced(channel, *args, **kwargs)
                live.append(channel)

            return init
        if name == "runner.run_single":
            replicate = self.replicate

            def run_single(*args, **kwargs):
                return replicate(traced, *args, **kwargs)

            return run_single
        return traced

    # ------------------------------------------------------------------ #
    # replicate scope
    # ------------------------------------------------------------------ #
    def replicate(self, fn: Callable, *args, **kwargs):
        """Run ``fn`` as one replicate: tag its spans, harvest its counts."""
        buf, prev = self.spans.begin_replicate()
        try:
            return fn(*args, **kwargs)
        finally:
            buf.rep_id = prev
            self._harvest()

    def _harvest(self) -> None:
        from repro.mac.csma import CsmaMac
        from repro.sim.trace import TraceKind

        c = self.counts
        for ch in self._live_channels:
            c["channel.frames_sent"] += ch.frames_sent
            c["channel.frames_delivered"] += ch.frames_delivered
            c["channel.frames_collided"] += ch.frames_collided
            c["channel.frames_lost"] += ch.frames_lost
            if ch.direct_finish and ch.loss is None:
                c["channel.direct_lane_frames"] += ch.frames_sent
            for node in ch._nodes:
                mac = node.mac
                if isinstance(mac, CsmaMac):
                    c["mac.csma.retries"] += mac.retries
                    c["mac.csma.deferrals"] += mac.deferrals
        for sim in self._live_sims:
            counts = sim.trace.counts
            c["agent.join_query_tx"] += counts[(TraceKind.TX, "JoinQuery")]
            c["agent.join_reply_tx"] += counts[(TraceKind.TX, "JoinReply")]
            c["agent.data_tx"] += sum(counts[(TraceKind.TX, t)] for t in _DATA_TYPES)
        self._live_channels.clear()
        self._live_sims.clear()

    # ------------------------------------------------------------------ #
    def layer_metrics(self) -> Dict[str, float]:
        """Per-layer calls, self time and harvested counters of the pass."""
        summary = self.spans.summary()
        out: Dict[str, float] = {}
        for name in LAYER_SPANS:
            calls, self_s = summary.get(name, (0, 0.0))
            if name == "run_many":
                out["run_many.calls"] = calls
                out["run_many.busy_s"] = self_s
            else:
                out[f"{name}.calls"] = calls
                out[f"{name}.self_s"] = self_s
        c = self.counts
        for key in (
            "kernel.events",
            "channel.frames_sent",
            "channel.frames_delivered",
            "channel.frames_collided",
            "channel.frames_lost",
            "mac.csma.retries",
            "mac.csma.deferrals",
            "agent.join_query_tx",
            "agent.join_reply_tx",
            "agent.data_tx",
        ):
            out[key] = c[key]
        sent = c["channel.frames_sent"]
        arrivals = (
            c["channel.frames_delivered"] + c["channel.frames_collided"] + c["channel.frames_lost"]
        )
        out["channel.fanout"] = arrivals / sent if sent else 0.0
        out["channel.useful_frac"] = c["channel.frames_delivered"] / arrivals if arrivals else 0.0
        out["channel.direct_lane_frac"] = c["channel.direct_lane_frames"] / sent if sent else 0.0
        return out

    def add(self, key: str, value) -> None:
        self.counts[key] += value
