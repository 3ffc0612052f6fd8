"""Multi-session traffic model: :class:`SessionSpec` and :class:`TrafficPlan`.

A *session* is one multicast flow — a source node, a receiver set (drawn
or explicit), a start offset and a CBR data stream.  A
:class:`TrafficPlan` is a set of overlapping sessions carried by one
simulation, which is the regime MTMRP's forwarder-sharing claim is about:
many simultaneous trees contending for one channel, with cross-session
forwarder reuse amortising the per-node cost (MEGCOM's group-communication
setting).

One run pipeline
----------------
Every on-demand run is a plan.  ``SimulationConfig.sessions is None`` —
and a *trivially default* plan (exactly one session matching the
config's own ``source``/``group``/``group_size``, starting at 0 with one
packet) — runs as :meth:`TrafficPlan.single` through the same scheduled
engine and metric function as any multi-session plan, byte-identical to
historical single-session runs (pinned by the golden digests and the
default-plan guards in ``tests/integration/test_golden_digest.py``).
Only single-session flooding and GMR runs keep a direct send at the
traffic epoch.  Results of every plan carry a ``TrafficMetrics`` view,
which the run-result cache stores.

Receiver draws are per-session rng streams keyed by the session identity
(``("receivers", source, group)``), *not* by position in the plan, so a
session draws the same receiver set whether it runs alone or inside a
concurrent plan — the foundation of the differential test matrix in
``tests/protocols/test_multisession_differential.py``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, Optional, Tuple

__all__ = ["SessionSpec", "TrafficPlan", "active_sessions", "ramp_plan"]


@dataclass(frozen=True)
class SessionSpec:
    """One multicast session: who sends what to whom, and when."""

    source: int = 0
    group: int = 1
    #: receivers drawn at deployment time when ``receivers`` is None
    group_size: int = 20
    #: explicit receiver set (overrides the seeded draw)
    receivers: Optional[Tuple[int, ...]] = None
    #: route-discovery start offset from the traffic epoch (seconds)
    start: float = 0.0
    #: CBR stream: ``n_packets`` at ``rate_pps`` after the settle window
    rate_pps: float = 10.0
    n_packets: int = 1

    def __post_init__(self) -> None:
        if self.receivers is not None:
            object.__setattr__(self, "receivers", tuple(int(r) for r in self.receivers))
        if self.n_packets < 1:
            raise ValueError(f"n_packets {self.n_packets} must be >= 1")
        if self.rate_pps <= 0.0:
            raise ValueError(f"rate_pps {self.rate_pps} must be > 0")
        if self.start < 0.0:
            raise ValueError(f"start {self.start} must be >= 0")

    @property
    def flow(self) -> Tuple[int, int]:
        """The ``(source, group)`` key agents track this session under."""
        return (self.source, self.group)

    def key(self) -> str:
        """Stable per-flow column label, ``s<source>.g<group>``.

        The obs sampler names its per-session time-series columns with
        this (``delivers_w.s3.g2`` in JSONL exports), so a flow keeps
        the same column whether it runs alone or inside a larger plan —
        the same identity contract as the receiver-draw rng streams.
        """
        return f"s{self.source}.g{self.group}"

    def n_receivers(self, default: Optional[int] = None) -> int:
        return len(self.receivers) if self.receivers is not None else (
            default if default is not None else self.group_size
        )

    def is_default_for(self, cfg) -> bool:
        """Does this spec describe exactly the legacy single-session run?"""
        return (
            self.source == cfg.source
            and self.group == cfg.group
            and self.receivers is None
            and self.group_size == cfg.group_size
            and self.start == 0.0
            and self.n_packets == 1
        )

    def to_dict(self) -> Dict[str, Any]:
        d = asdict(self)
        if d["receivers"] is not None:
            d["receivers"] = list(d["receivers"])
        return d

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "SessionSpec":
        d = dict(d)
        if d.get("receivers") is not None:
            d["receivers"] = tuple(int(r) for r in d["receivers"])
        return cls(**d)


@dataclass(frozen=True)
class TrafficPlan:
    """An ordered set of (possibly overlapping) multicast sessions."""

    sessions: Tuple[SessionSpec, ...] = ()

    def __post_init__(self) -> None:
        specs = tuple(
            s if isinstance(s, SessionSpec) else SessionSpec.from_dict(dict(s))
            for s in self.sessions
        )
        object.__setattr__(self, "sessions", specs)
        flows = [s.flow for s in specs]
        if len(set(flows)) != len(flows):
            raise ValueError(f"duplicate (source, group) flows in plan: {flows}")
        groups = [s.group for s in specs]
        if len(set(groups)) != len(groups):
            raise ValueError(f"sessions must use distinct group ids, got {groups}")

    def __len__(self) -> int:
        return len(self.sessions)

    def __iter__(self):
        return iter(self.sessions)

    @classmethod
    def single(cls, cfg) -> "TrafficPlan":
        """The one-session plan a ``sessions=None`` config runs as."""
        return cls(
            sessions=(
                SessionSpec(
                    source=cfg.source, group=cfg.group, group_size=cfg.group_size
                ),
            )
        )

    def is_default_single(self, cfg) -> bool:
        """One session, the same run as ``sessions=None``."""
        return len(self.sessions) == 1 and self.sessions[0].is_default_for(cfg)

    def key(self) -> tuple:
        """Hashable identity (feeds ``snapshot.prefix_key``)."""
        return tuple(
            (s.source, s.group, s.group_size, s.receivers, s.start,
             s.rate_pps, s.n_packets)
            for s in self.sessions
        )

    def to_dicts(self) -> Tuple[Dict[str, Any], ...]:
        return tuple(s.to_dict() for s in self.sessions)

    @classmethod
    def from_dicts(cls, payload) -> "TrafficPlan":
        return cls(sessions=tuple(SessionSpec.from_dict(dict(d)) for d in payload))


def ramp_plan(
    cfg,
    n_sessions: int,
    group_size: int = 8,
    stagger: float = 0.25,
    n_packets: int = 2,
    rate_pps: float = 10.0,
) -> TrafficPlan:
    """A canonical ``n_sessions``-flow plan for ramp experiments.

    Sources are spread evenly over the node id range (session 0 keeps the
    config's own source), groups are 1..n, and starts are staggered by
    ``stagger`` seconds — the plan the ``traffic`` CLI and the
    ``multisession_8x`` bench ramp from 1 to 8 sessions.  Receiver sets
    stay seeded draws (identity-keyed streams), so the same session keeps
    the same receivers at every ramp step.
    """
    if n_sessions < 1:
        raise ValueError(f"n_sessions {n_sessions} must be >= 1")
    n = cfg.n_nodes
    if n_sessions > n:
        raise ValueError(f"n_sessions {n_sessions} exceeds {n} nodes")
    sources = [
        int(round(i * (n - 1) / max(n_sessions - 1, 1))) for i in range(n_sessions)
    ]
    sources[0] = cfg.source
    specs = tuple(
        SessionSpec(
            source=src,
            group=i + 1,
            group_size=min(group_size, n - 1),
            start=i * stagger,
            rate_pps=rate_pps,
            n_packets=n_packets,
        )
        for i, src in enumerate(sources)
    )
    return TrafficPlan(sessions=specs)


def active_sessions(cfg) -> Optional[Tuple[SessionSpec, ...]]:
    """The configured multi-session tuple, or None.

    None means a single-session run — either no ``sessions`` were
    configured, or the plan is the trivially default single session.
    Both build the legacy deployment (same rng stream, same membership)
    and run as :meth:`TrafficPlan.single`.
    """
    specs = getattr(cfg, "sessions", None)
    if specs is None:
        return None
    if len(specs) == 1 and specs[0].is_default_for(cfg):
        return None
    return specs
