"""The shared wireless medium.

The channel precomputes, for an entire deployment, the per-node neighbor
sets with their propagation delays and received powers.  For deterministic
propagation models (the paper's TwoRayGround) this uses a spatial-hash
cell list — O(n·k) time and memory — so 1000–5000-node deployments are a
supported workload; stochastic models (shadowing ablation) fall back to
the dense all-pairs path so the fading draw keeps its ``(n, n)`` shape and
runs stay bit-reproducible.  At runtime the channel:

* delivers every transmission to every node within range after the
  line-of-sight propagation delay (broadcast nature of Sec. I);
* maintains per-node concurrent-reception state via
  :class:`repro.phy.radio.Radio` so overlapping arrivals collide (unless
  the capture condition holds) — matching ns-2's 802.11 PHY behaviour
  (substitution S3);
* charges TX energy to the sender and RX energy to every node in range —
  the cost model of Sec. III ("the cost of a transmission consists of the
  sending cost of the sender, and the receiving cost of its one hop
  neighbors");
* emits TX / RX / COLLISION trace records for the metrics layer.

Reception is scheduled per frame, not per receiver: one heap entry walks
a frame's arrivals and one walks its completions, each receiver at the
exact ``(time, priority, seq)`` its own event would have had, yielding
back to the kernel whenever another entry comes first (the batch-handler
contract of ``docs/SIMULATOR.md``).  The radio's lock/capture rule is
inlined in that walk; :meth:`Radio.begin_reception` and
:meth:`Radio.finish_reception` stay the reference it is tested against.

``perfect=True`` disables collision bookkeeping (every in-range arrival
succeeds); combined with :class:`repro.mac.ideal.IdealMac` this gives the
deterministic medium used by unit tests and fast sweeps.

Determinism: the sparse path computes candidate distances with the same
elementwise operations and visits neighbors in the same ascending-id order
as the dense path, so delivery schedules — and therefore trace digests —
are bit-identical between the two (asserted by
``tests/net/test_geometry.py`` and the golden-digest integration test).
"""

from __future__ import annotations

from itertools import repeat
from typing import TYPE_CHECKING, List, Optional

import numpy as np

from repro.net.geometry import SpatialHash, pair_distances
from repro.net.loss import LossModel
from repro.phy.energy import EnergyModel
from repro.phy.propagation import (
    SPEED_OF_LIGHT,
    PropagationModel,
    TwoRayGround,
    range_to_threshold,
)
from repro.phy.radio import Radio, RadioState, Reception, _log10
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.node import Node
    from repro.net.packet import Packet

__all__ = ["Channel"]

_IDLE, _RX, _TX = RadioState.IDLE, RadioState.RX, RadioState.TX

#: Above this fraction of moved nodes, ``update_positions`` rebuilds the
#: whole sparse index instead of patching affected rows (waypoint mobility
#: moves nearly everyone per tick, where incremental would only add cost).
_FULL_REBUILD_FRACTION = 0.4


class Channel:
    """Wireless broadcast medium for one deployment.

    Parameters
    ----------
    sim:
        The simulation kernel (clock, scheduling, trace).
    positions:
        ``(n, 2)`` node coordinates in meters.
    comm_range:
        Nominal transmission range in meters (40 m in the paper).  The
        receive threshold is derived from it through the propagation
        model, so ``receive iff distance <= comm_range`` exactly.
    propagation:
        Propagation model; defaults to the paper's TwoRayGround (Eq. 5).
    bitrate_bps:
        Link bitrate used for frame airtime (2 Mb/s, the ns-2 802.11
        default).
    perfect:
        Disable collisions (see module docstring).  Frame-loss models
        still apply: ``perfect`` refers to contention, not link quality.
    loss:
        Optional :class:`~repro.net.loss.LossModel` erasing frames per
        directed link (i.i.d. or Gilbert–Elliott bursts).  A lost frame
        still occupies the receiver's radio for its airtime — it arrives
        garbled — so carrier sense and collisions are unaffected.
    sparse:
        Force the geometry backend: True for the spatial-hash cell list,
        False for dense ``(n, n)`` matrices.  Default (None) picks sparse
        whenever ``propagation.is_deterministic``.
    """

    def __init__(
        self,
        sim: Simulator,
        positions: np.ndarray,
        comm_range: float = 40.0,
        propagation: Optional[PropagationModel] = None,
        tx_power: float = 0.281838,  # ns-2 default for ~250m; rescaled by threshold anyway
        bitrate_bps: float = 2_000_000.0,
        energy_model: Optional[EnergyModel] = None,
        perfect: bool = False,
        capture_threshold_db: float = 10.0,
        loss: Optional[LossModel] = None,
        sparse: Optional[bool] = None,
    ) -> None:
        self.sim = sim
        self.positions = np.asarray(positions, dtype=float)
        self.n = len(self.positions)
        self.comm_range = float(comm_range)
        self.propagation = propagation if propagation is not None else TwoRayGround()
        self.tx_power = float(tx_power)
        self.bitrate_bps = float(bitrate_bps)
        self.energy_model = energy_model if energy_model is not None else EnergyModel(
            bitrate_bps=bitrate_bps
        )
        self.perfect = perfect
        self.loss = loss
        self.rx_threshold = range_to_threshold(self.propagation, self.tx_power, self.comm_range)

        self._sparse = bool(
            self.propagation.is_deterministic if sparse is None else sparse
        )
        # Candidate radius for the cell list: the model's true maximum
        # range, padded by a relative epsilon so a node at *exactly* the
        # nominal range survives the threshold->range float round-trip.
        # Reachability itself is still decided by rx_power >= rx_threshold,
        # identically to the dense path.
        self._cell_size = (
            self.propagation.max_range(self.tx_power, self.rx_threshold)
            * (1.0 + 1e-9)
        )
        self._grid: Optional[SpatialHash] = None
        # Dense matrices are computed lazily on the sparse path (kept for
        # API compatibility / diagnostics); eagerly on the dense path.
        self._distances: Optional[np.ndarray] = None
        self._rx_power: Optional[np.ndarray] = None
        self._prop_delays: Optional[np.ndarray] = None

        self._recompute_geometry()

        self.radios = [Radio(i, capture_threshold_db=capture_threshold_db) for i in range(self.n)]
        self._nodes: List["Node"] = []

        # per-frame-size energy memos (pure functions of the bit count, so
        # caching is bit-identical; sizes are per-packet-class constants)
        self._tx_energy_cache: dict = {}
        self._rx_energy_cache: dict = {}

        # bound fast path to the kernel queue for the two highest-volume
        # events (frame completion, TX end) — same ordering semantics as
        # sim.schedule_fire, minus one call frame per event
        self._push_fire = sim._queue.push_fire
        self._emit = sim.trace.emit

        # Always False: reception has a single lane.  Kept as a plain
        # attribute because the benchmark's per-layer tracer
        # (perfbench/tracing.py) reads it off every channel.
        self.direct_finish = False

        # counters useful for profiling and tests
        self.frames_sent = 0
        self.frames_delivered = 0
        self.frames_collided = 0
        #: frames erased by the loss model
        self.frames_lost = 0
        #: frames a dead/sleeping sender's MAC tried to put on the air
        self.frames_suppressed = 0

    # ------------------------------------------------------------------ #
    # geometry
    # ------------------------------------------------------------------ #
    def _recompute_geometry(self) -> None:
        """Rebuild the neighbor index from ``self.positions``."""
        n = self.n
        #: per-node delivery fast path: ``[(nbr, delay, rx_power), ...]``,
        #: built lazily per sender on first transmit
        self._delivery: List[Optional[list]] = [None] * n
        #: dst-id column of each delivery list, cached alongside it so
        #: per-frame loss batching never re-materialises the id list
        self._delivery_dsts: List[Optional[list]] = [None] * n
        if self._sparse:
            self._distances = self._rx_power = self._prop_delays = None
            self._grid = SpatialHash(self.positions, self._cell_size)
            self._neighbor_ids: List[np.ndarray] = [None] * n  # type: ignore[list-item]
            self._nbr_delays: List[np.ndarray] = [None] * n  # type: ignore[list-item]
            self._nbr_powers: List[np.ndarray] = [None] * n  # type: ignore[list-item]
            # Rows materialise lazily (one vectorised batch on first
            # neighbor access), so constructing a Channel is O(n).
            self._rows_ready = False
        else:
            self._recompute_dense()
            self._rows_ready = True

    def _ensure_rows(self) -> None:
        """Materialise every sparse neighbor row (idempotent)."""
        if not self._rows_ready:
            self._rows_ready = True
            self._rebuild_rows(np.arange(self.n, dtype=np.intp))

    def _rebuild_rows(self, src: np.ndarray) -> None:
        """Recompute neighbor lists for the (sorted) node ids in ``src``.

        Reachability is power-based — ``rx_power >= rx_threshold`` — and
        evaluated with the exact expression the dense path uses, so for
        deterministic propagation the two backends agree bit-for-bit.
        """
        i, j, d = pair_distances(self._grid, src, self.positions)
        with np.errstate(divide="ignore"):
            rx = np.asarray(
                self.propagation.receive_power(self.tx_power, np.maximum(d, 1e-9))
            )
        keep = rx >= self.rx_threshold
        i, j, d, rx = i[keep], j[keep], d[keep], rx[keep]
        delays = d / SPEED_OF_LIGHT
        lo = np.searchsorted(i, src)
        hi = np.searchsorted(i, src, side="right")
        ids, nbr_delays, nbr_powers, delivery = (
            self._neighbor_ids, self._nbr_delays, self._nbr_powers, self._delivery
        )
        dsts = self._delivery_dsts
        for k, s in enumerate(src):
            a, b = lo[k], hi[k]
            ids[s] = j[a:b]
            nbr_delays[s] = delays[a:b]
            nbr_powers[s] = rx[a:b]
            delivery[s] = None
            dsts[s] = None

    def _recompute_dense(self) -> None:
        """Dense all-pairs geometry (stochastic propagation fallback).

        Link gains are symmetrised (shadowing is a property of the path,
        not the direction) by mirroring the upper triangle.
        """
        diff = self.positions[:, None, :] - self.positions[None, :, :]
        self._distances = np.sqrt((diff**2).sum(axis=2))
        d = self._distances.copy()
        np.fill_diagonal(d, np.inf)
        with np.errstate(divide="ignore"):
            rx = np.asarray(
                self.propagation.receive_power(self.tx_power, np.maximum(d, 1e-9))
            )
        iu = np.triu_indices(self.n, k=1)
        rx[(iu[1], iu[0])] = rx[iu]  # mirror the upper triangle
        self._rx_power = rx
        reach = rx >= self.rx_threshold
        np.fill_diagonal(reach, False)
        self._neighbor_ids = [np.flatnonzero(reach[i]) for i in range(self.n)]
        self._prop_delays = self._distances / SPEED_OF_LIGHT

    @property
    def neighbor_ids(self) -> List[np.ndarray]:
        """Per-node neighbor id arrays (materialises sparse rows lazily)."""
        if not self._rows_ready:
            self._ensure_rows()
        return self._neighbor_ids

    def _compute_dense_matrices(self) -> None:
        """Materialise the dense matrices on demand (sparse path only).

        Diagnostics occasionally want the full ``(n, n)`` view; runtime
        delivery never touches these on the sparse path.
        """
        diff = self.positions[:, None, :] - self.positions[None, :, :]
        self._distances = np.sqrt((diff**2).sum(axis=2))
        d = self._distances.copy()
        np.fill_diagonal(d, np.inf)
        with np.errstate(divide="ignore"):
            self._rx_power = np.asarray(
                self.propagation.receive_power(self.tx_power, np.maximum(d, 1e-9))
            )
        self._prop_delays = self._distances / SPEED_OF_LIGHT

    @property
    def distances(self) -> np.ndarray:
        """Dense pairwise distance matrix (lazy on the sparse path)."""
        if self._distances is None:
            self._compute_dense_matrices()
        return self._distances

    @property
    def rx_power(self) -> np.ndarray:
        """Dense received-power matrix (lazy on the sparse path)."""
        if self._rx_power is None:
            self._compute_dense_matrices()
        return self._rx_power

    @property
    def prop_delays(self) -> np.ndarray:
        """Dense propagation-delay matrix (lazy on the sparse path)."""
        if self._prop_delays is None:
            self._compute_dense_matrices()
        return self._prop_delays

    def update_positions(self, positions: np.ndarray) -> None:
        """Move the nodes and re-derive reachability (mobility extension).

        On the sparse path this is incremental: only rows whose geometry
        could have changed — the moved nodes plus everyone in the 3×3 cell
        blocks around their old and new cells — are recomputed.  Above
        ``_FULL_REBUILD_FRACTION`` moved nodes the whole index is rebuilt,
        which is cheaper when (as under waypoint mobility) nearly every
        node moves per tick.

        Frames already in flight keep the delivery schedule computed at
        transmit time — physically, a frame reaches whoever was in range
        when it was sent.
        """
        pos = np.asarray(positions, dtype=float)
        if pos.shape != self.positions.shape:
            raise ValueError(f"expected shape {self.positions.shape}, got {pos.shape}")
        if not self._sparse:
            self.positions = pos.copy()
            self._recompute_geometry()
            return
        moved = np.flatnonzero((pos != self.positions).any(axis=1))
        if moved.size == 0:
            self.positions = pos.copy()
            return
        if moved.size > _FULL_REBUILD_FRACTION * self.n or not self._rows_ready:
            # Nothing materialised yet (or nearly everyone moved): a fresh
            # lazy index is cheaper than patching rows.
            self.positions = pos.copy()
            self._recompute_geometry()
            return
        old_grid = self._grid
        affected_old = old_grid.block_members(moved)
        self.positions = pos.copy()
        self._grid = SpatialHash(self.positions, self._cell_size)
        affected_new = self._grid.block_members(moved)
        affected = np.unique(np.concatenate([moved, affected_old, affected_new]))
        self._distances = self._rx_power = self._prop_delays = None
        self._rebuild_rows(affected)

    # ------------------------------------------------------------------ #
    # wiring
    # ------------------------------------------------------------------ #
    def attach_nodes(self, nodes: List["Node"]) -> None:
        """Bind the node objects (done once by :class:`repro.net.network.Network`)."""
        if len(nodes) != self.n:
            raise ValueError(f"expected {self.n} nodes, got {len(nodes)}")
        self._nodes = nodes
        # delivery lists embed per-neighbor node references; drop any built
        # before the nodes were bound
        self._delivery = [None] * self.n
        self._delivery_dsts = [None] * self.n

    def neighbors(self, node_id: int) -> np.ndarray:
        """Ids of nodes within communication range of ``node_id``."""
        return self.neighbor_ids[node_id]

    def airtime(self, packet: "Packet") -> float:
        """Frame duration on the medium, seconds."""
        return packet.size_bits() / self.bitrate_bps

    # ------------------------------------------------------------------ #
    # carrier sense (used by the CSMA MAC)
    # ------------------------------------------------------------------ #
    def medium_busy(self, node_id: int) -> bool:
        """Does ``node_id`` sense the medium busy right now?"""
        return self.radios[node_id].medium_busy(self.sim.now)

    def busy_until(self, node_id: int) -> float:
        """Earliest instant the medium could be sensed free at ``node_id``."""
        return self.radios[node_id].busy_until(self.sim.now)

    # ------------------------------------------------------------------ #
    # transmission
    # ------------------------------------------------------------------ #
    def _delivery_list(self, node_id: int) -> list:
        """``[(nbr, delay, rx_power, radio, node), ...]`` per sender, cached.

        Everything is converted to native python scalars here, once per
        sender: ``tolist()``/``float()`` preserve the IEEE-754 bits
        exactly, and native floats keep numpy scalar overhead out of the
        event heap (every heap comparison would otherwise go through
        ``np.float64`` dunders) and out of all downstream clock math.
        The receiving radio (and node, when bound) ride along so the
        per-frame reception path never indexes the registries.
        """
        nodes = self._nodes
        radios = self.radios
        if self._sparse:
            if not self._rows_ready:
                self._ensure_rows()
            triples = zip(
                self._neighbor_ids[node_id].tolist(),
                self._nbr_delays[node_id].tolist(),
                self._nbr_powers[node_id].tolist(),
            )
        else:
            # one fancy-indexed gather + tolist() instead of a python
            # loop of scalar indexing — same IEEE-754 bits per element,
            # ~an order of magnitude faster at dense fan-outs
            ids = self.neighbor_ids[node_id]
            pd, rx = self._prop_delays, self._rx_power
            triples = zip(
                ids.tolist(),
                pd[node_id, ids].tolist(),
                rx[node_id, ids].tolist(),
            )
        if nodes:
            dl = [(n, d, p, radios[n], nodes[n]) for n, d, p in triples]
        else:
            dl = [(n, d, p, radios[n], None) for n, d, p in triples]
        self._delivery[node_id] = dl
        # cache the dst-id column with the list: the loss fast path (and
        # the fan-out benchmarks) would otherwise rebuild it per frame
        self._delivery_dsts[node_id] = [e[0] for e in dl]
        return dl

    def transmit(self, node_id: int, packet: "Packet") -> None:
        """Broadcast ``packet`` from ``node_id`` to everyone in range.

        Called by MAC layers only; protocols go through
        :meth:`repro.net.node.Node.send`.  The frame's receptions go on
        the heap as one arrival batch (see :meth:`_arrive`), filed under
        its first receiver's ``(now + delay, seq)``; one seq is reserved
        per live receiver, in delivery-list order.
        """
        sim = self.sim
        now = sim.now
        nodes = self._nodes
        node = nodes[node_id] if nodes else None
        if node is not None and (not node.alive or node.asleep):
            # The MAC's access timer can fire after the node crashed or
            # went to sleep mid-backoff; a dead radio emits nothing.
            self.frames_suppressed += 1
            return
        bits = packet.size_bits()
        duration = bits / self.bitrate_bps
        loss = self.loss
        radio = self.radios[node_id]
        radio.begin_tx(now, duration)
        end = now + duration
        self._push_fire(end, radio.end_tx, (end,), -1)

        self.frames_sent += 1
        self._emit(now, TraceKind.TX, node_id, packet.ptype, packet.uid)
        if node is not None:
            e = self._tx_energy_cache.get(bits)
            if e is None:
                e = self._tx_energy_cache[bits] = self.energy_model.tx_energy(bits)
            node.energy.charge_tx(e)

        delivery = self._delivery[node_id]
        if delivery is None:
            delivery = self._delivery_list(node_id)
        fates = repeat(False)
        if loss is None:
            # Dead or sleeping neighbors would discard the frame on
            # completion anyway — skip them entirely.
            live = [e for e in delivery if e[4].alive and not e[4].asleep] if nodes else delivery
        else:
            # batch the loss draws over the whole delivery list (the
            # i.i.d. model vectorises; others fall back to the scalar
            # loop inside frame_lost_batch, draw-for-draw identical)
            live = [e for e in delivery if e[4] is None or e[4].is_active]
            if len(live) == len(delivery):
                # nobody down: reuse the dst-id column cached when the
                # delivery list was built instead of re-materialising it
                dsts = self._delivery_dsts[node_id]
                if dsts is None:
                    dsts = self._delivery_dsts[node_id] = [e[0] for e in delivery]
            else:
                dsts = [e[0] for e in live]
            fates = loss.frame_lost_batch(node_id, dsts)
        if not live:
            return
        queue = sim._queue
        seq = queue.reserve(len(live))
        # Entries sort on (time, seq): seqs are unique, so tuple order
        # never compares the objects behind them.
        rx = [
            (now + delay, seq + i, radio, rnode, nbr, power, lost)
            for i, ((nbr, delay, power, radio, rnode), lost) in enumerate(zip(live, fates))
        ]
        rx.sort()
        queue.push_reserved(rx[0][0], 0, rx[0][1], self._arrive, (rx, 0, packet, duration))

    # ------------------------------------------------------------------ #
    # reception pipeline: one heap entry per frame batch
    # ------------------------------------------------------------------ #
    def _arrive(self, rx: list, k: int, packet: "Packet", duration: float) -> None:
        """Arrival batch: the frame reaches receivers ``rx[k:]``.

        ``rx`` holds ``(time, seq, radio, node, nbr, power, lost)`` in
        ``(time, seq)`` order, each key the one the receiver's own arrival
        event would have had.  The walk sets the clock to each receiver's
        time and applies :meth:`Radio.begin_reception` inline; the
        completion seq is reserved at that arrival, as a per-receiver
        ``push_fire`` would have consumed it.  Before each next receiver
        the kernel is asked whether its key runs next; if not (another
        entry comes first, ``run(until=)`` ends earlier, or the run was
        stopped) the batch re-files itself under that key.  The
        completions reserved so far go on the heap as one batch.
        """
        sim = self.sim
        reserve = sim._queue.reserve
        runs_next = sim.runs_next
        fin = []
        n = len(rx)
        while True:
            t, seq, radio, node, nbr, power, lost = rx[k]
            sim.now = t
            end = t + duration
            # inline Radio.begin_reception (first-frame lock + capture)
            pool = radio.free_pool
            if pool:
                rec = pool.pop()
                rec.frame = packet
                rec.start = t
                rec.end = end
                rec.power = power
                rec.intact = True
            else:
                rec = Reception(packet, t, end, power)
            state = radio.state
            if state is _TX and t < radio.tx_until:
                rec.intact = False
            else:
                for r in radio.receptions:
                    if r.end > t and r.intact:
                        ratio_db = 10.0 * _log10(power / r.power)
                        threshold = radio.capture_threshold_db
                        if ratio_db <= -threshold:
                            rec.intact = False  # we stay locked on the earlier frame
                        elif ratio_db >= threshold:
                            r.intact = False  # the newcomer captures the receiver
                        else:
                            r.intact = False  # comparable powers: both garbled
                            rec.intact = False
                        break
            radio.receptions.append(rec)
            if state is _IDLE:
                radio.state = _RX
            if lost:
                # The garbled signal still occupies the radio (carrier
                # sense, collision bookkeeping) but can never decode.
                rec.intact = False
            fin.append((end, reserve(), radio, node, nbr, rec, lost))
            k += 1
            if k == n:
                break
            t, seq = rx[k][0], rx[k][1]
            # this batch's own first completion is not on the heap yet
            if fin[0][0] < t or not runs_next(t, 0, seq):
                sim._queue.push_reserved(t, 0, seq, self._arrive, (rx, k, packet, duration))
                break
        sim._queue.push_reserved(fin[0][0], 1, fin[0][1], self._finish, (fin, 0, packet))

    def _finish(self, fin: list, k: int, packet: "Packet") -> None:
        """Completion batch: receptions ``fin[k:]`` of one frame end.

        ``fin`` holds ``(time, seq, radio, node, nbr, rec, lost)`` in
        ``(time, seq)`` order.  Each step applies
        :meth:`Radio.finish_reception` inline, charges RX energy, emits
        the RX / COLLISION / DROP record and dispatches a surviving frame
        to its node.  The dispatch may schedule anything, so the kernel is
        asked before every next receiver, as in :meth:`_arrive`.
        """
        sim = self.sim
        runs_next = sim.runs_next
        emit = self._emit
        perfect = self.perfect
        bits = packet.size_bits()
        e = self._rx_energy_cache.get(bits)
        if e is None:
            e = self._rx_energy_cache[bits] = self.energy_model.rx_energy(bits)
        ptype = packet.ptype
        uid = packet.uid
        n = len(fin)
        while True:
            t, seq, radio, node, nbr, rec, lost = fin[k]
            sim.now = t
            # inline Radio.finish_reception
            receptions = radio.receptions
            receptions.remove(rec)
            state = radio.state
            if state is _RX:
                for r in receptions:
                    if r.end > t:
                        break
                else:
                    radio.state = state = _IDLE
            ok = rec.intact and not (state is _TX and t < radio.tx_until)
            # recycle: this completion was the last reference holder
            rec.frame = None
            radio.free_pool.append(rec)
            # A dead or sleeping radio neither spends RX energy nor hears
            # the frame (the arrival was scheduled while it was still up).
            if node is None or (node.alive and not node.asleep):
                if node is not None:
                    # inline EnergyAccount.charge_rx
                    en = node.energy
                    en.rx_joules += e
                    if not en.depleted and en.tx_joules + en.rx_joules >= en.initial_joules:
                        en._check()
                if lost:
                    self.frames_lost += 1
                    emit(t, TraceKind.DROP, nbr, ptype, "loss")
                elif ok or perfect:
                    self.frames_delivered += 1
                    emit(t, TraceKind.RX, nbr, ptype, uid)
                    if node is not None:
                        node.on_packet_received(packet)
                else:
                    self.frames_collided += 1
                    emit(t, TraceKind.COLLISION, nbr, ptype, uid)
            k += 1
            if k == n:
                return
            t, seq = fin[k][0], fin[k][1]
            if not runs_next(t, 1, seq):
                sim._queue.push_reserved(t, 1, seq, self._finish, (fin, k, packet))
                return
