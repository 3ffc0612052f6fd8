"""HELLO protocol and neighbor tables (Sec. IV-B).

Each node periodically broadcasts a HELLO carrying its multicast group
memberships.  Receivers upsert a timestamped entry; entries not refreshed
within ``expiry`` are recycled, exactly as Sec. IV-B describes.

On top of the paper's table, entries carry the two per-session marks that
MTMRP's RelayProfit and path-handover logic need:

* ``covered_sessions`` — "this neighbor is a multicast receiver already
  connected to the tree" (set when we overhear the neighbor originate a
  JoinReply);
* ``forwarder_sessions`` — "this neighbor is a forwarder of the session"
  (set when we overhear it relay a JoinReply).

A *session* is the tuple ``(source, group, seq)`` identifying one
JoinQuery round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Dict, FrozenSet, Iterable, Optional, Set, Tuple

from repro.net.agent import Agent
from repro.net.packet import HelloPacket, Packet

__all__ = ["NeighborEntry", "NeighborTable", "HelloAgent"]

Session = Tuple[int, int, int]  # (source, group, seq)


#: shared empty mark set; a real set replaces it on an entry's first mark
_NO_SESSIONS: FrozenSet[Session] = frozenset()


@dataclass(slots=True)
class NeighborEntry:
    """State kept about one one-hop neighbor.

    ``groups`` holds the frozenset the neighbor advertised, shared with
    every entry built from the same HELLO (or, after a static bootstrap,
    naming the same node).  The two mark sets start as a shared empty
    frozenset and become a private set on first mark, so an unmarked
    entry allocates no set at all.
    """

    node_id: int
    last_seen: float = 0.0
    groups: FrozenSet[int] = frozenset()
    covered_sessions: AbstractSet[Session] = _NO_SESSIONS
    forwarder_sessions: AbstractSet[Session] = _NO_SESSIONS
    #: neighbor coordinates, when HELLOs carry positions (geographic mode)
    position: Optional[Tuple[float, float]] = None


class NeighborTable:
    """One node's view of its one-hop neighborhood."""

    def __init__(self) -> None:
        self._entries: Dict[int, NeighborEntry] = {}

    # ------------------------------------------------------------------ #
    # maintenance
    # ------------------------------------------------------------------ #
    def update_hello(
        self,
        nbr: int,
        groups: Iterable[int],
        now: float,
        position: Optional[Tuple[float, float]] = None,
    ) -> NeighborEntry:
        """Insert or refresh an entry from a received HELLO."""
        entry = self._entries.get(nbr)
        if entry is None:
            entry = NeighborEntry(node_id=nbr)
            self._entries[nbr] = entry
        entry.last_seen = now
        entry.groups = groups if type(groups) is frozenset else frozenset(groups)
        if position is not None:
            entry.position = (float(position[0]), float(position[1]))
        return entry

    def positions_known(self) -> Dict[int, Tuple[float, float]]:
        """Neighbors whose coordinates we know (geographic mode)."""
        return {
            nid: e.position for nid, e in self._entries.items() if e.position is not None
        }

    def purge(self, now: float, expiry: float) -> int:
        """Recycle entries older than ``expiry`` seconds; returns #removed."""
        stale = [nid for nid, e in self._entries.items() if now - e.last_seen > expiry]
        for nid in stale:
            del self._entries[nid]
        return len(stale)

    def remove(self, nbr: int) -> None:
        self._entries.pop(nbr, None)

    # ------------------------------------------------------------------ #
    # lookups
    # ------------------------------------------------------------------ #
    def __contains__(self, nbr: int) -> bool:
        return nbr in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def entry(self, nbr: int) -> Optional[NeighborEntry]:
        return self._entries.get(nbr)

    def ids(self) -> Set[int]:
        return set(self._entries)

    def members_of(self, group: int) -> Set[int]:
        """Neighbors known to be receivers of ``group``."""
        return {nid for nid, e in self._entries.items() if group in e.groups}

    # ------------------------------------------------------------------ #
    # per-session marks (MTMRP)
    # ------------------------------------------------------------------ #
    def _ensure(self, nbr: int) -> NeighborEntry:
        entry = self._entries.get(nbr)
        if entry is None:
            # A JoinReply can be overheard from a neighbor whose HELLO was
            # lost; create a groupless entry rather than dropping the mark.
            entry = NeighborEntry(node_id=nbr)
            self._entries[nbr] = entry
        return entry

    def mark_covered(self, nbr: int, session: Session) -> None:
        """Record that neighbor ``nbr`` is a covered receiver of ``session``."""
        entry = self._ensure(nbr)
        # test the type, not identity with _NO_SESSIONS: a forked
        # deployment carries its own unpickled copy of the empty set
        if type(entry.covered_sessions) is frozenset:
            entry.covered_sessions = {session}
        else:
            entry.covered_sessions.add(session)

    def mark_forwarder(self, nbr: int, session: Session) -> None:
        """Record that neighbor ``nbr`` is a forwarder of ``session``."""
        entry = self._ensure(nbr)
        if type(entry.forwarder_sessions) is frozenset:
            entry.forwarder_sessions = {session}
        else:
            entry.forwarder_sessions.add(session)

    def has_forwarder(self, session: Session, exclude: Iterable[int] = ()) -> bool:
        """Is any neighbor known to be a forwarder of ``session``? (PHS test)

        ``exclude`` removes candidates that must not count — MTMRP's path
        handover excludes its *downstream* nodes, whose own data delivery
        depends on us (see :meth:`MtmrpAgent._reply_as_nexthop`).
        """
        excl = set(exclude)
        return any(
            session in e.forwarder_sessions and nid not in excl
            for nid, e in self._entries.items()
        )

    def forwarders_of(self, session: Session) -> Set[int]:
        return {
            nid for nid, e in self._entries.items() if session in e.forwarder_sessions
        }

    def uncovered_members(self, group: int, session: Session) -> Set[int]:
        """Receivers of ``group`` among neighbors not yet covered (Def. 1).

        A neighbor counts as covered if we saw it originate a JoinReply
        (covered mark) or act as a forwarder (a forwarding receiver is by
        definition connected to the tree).
        """
        out = set()
        for nid, e in self._entries.items():
            if group not in e.groups:
                continue
            if session in e.covered_sessions or session in e.forwarder_sessions:
                continue
            out.add(nid)
        return out

    def relay_profit(self, group: int, session: Session) -> int:
        """Definition 1: number of uncovered receiver neighbors.

        Same semantics as ``len(uncovered_members(...))`` without building
        the intermediate set — this runs once per JoinQuery arrival.
        """
        n = 0
        for e in self._entries.values():
            if (
                group in e.groups
                and session not in e.covered_sessions
                and session not in e.forwarder_sessions
            ):
                n += 1
        return n


class HelloAgent(Agent):
    """Periodic HELLO broadcaster + neighbor-table maintainer.

    Parameters
    ----------
    period:
        HELLO interval in seconds.
    expiry:
        Entries older than this are recycled (paper: "the overdue entries
        in the neighbor table will be recycled after a time").
    jitter:
        Uniform start/period jitter to desynchronise the network.
    """

    handled_packets = (HelloPacket,)

    def __init__(
        self,
        period: float = 1.0,
        expiry: float = 3.5,
        jitter: float = 0.1,
        share_position: bool = False,
    ) -> None:
        super().__init__()
        self.period = period
        self.expiry = expiry
        self.jitter = jitter
        #: include our coordinates in HELLOs (geographic-multicast mode)
        self.share_position = share_position
        self.hellos_sent = 0

    def start(self) -> None:
        rng = self.sim.rng.stream("hello", self.node.node_id)
        self.sim.schedule_fire(float(rng.uniform(0.0, self.jitter)), self._tick)

    def _tick(self) -> None:
        # A dead or sleeping node beacons nothing, but the timer keeps
        # ticking so a recovered/woken node resumes HELLOs on its own.
        if self.node.is_active:
            self.broadcast_hello()
            self.node.neighbor_table.purge(self.sim.now, self.expiry)
        rng = self.sim.rng.stream("hello", self.node.node_id)
        delay = self.period + float(rng.uniform(-self.jitter, self.jitter))
        self.sim.schedule_fire(max(delay, 1e-6), self._tick)

    def broadcast_hello(self) -> None:
        """Send one HELLO now (also used for membership-change updates)."""
        pkt = HelloPacket(
            src=self.node.node_id,
            groups=frozenset(self.node.groups),
            position=self.node.position if self.share_position else None,
        )
        self.node.send(pkt)
        self.hellos_sent += 1

    def on_packet(self, packet: Packet) -> None:
        assert isinstance(packet, HelloPacket)
        self.node.neighbor_table.update_hello(
            packet.src, packet.groups, self.sim.now, position=packet.position
        )
