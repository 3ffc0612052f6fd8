"""Process-wide campaign-service counters.

One module-level tally the campaign service (:mod:`repro.service`, which
re-exports it) increments as requests flow through it, surfaced into
every :class:`repro.obs.registry.CounterRegistry` refresh under
``service_*`` names (and printed by the ``serve`` CLI).  It lives in the
obs layer, with no repro imports, so observed runs mirror it without
importing the service package and its asyncio front end.

Counter semantics (all monotone over the process lifetime):

=========================  ============================================
``requests``               campaign specs submitted (every ``submit``)
``cache_hits``             specs served entirely from the result store
``replicate_cache_hits``   single replicates skipped via the store
``coalesced``              submits attached to an identical in-flight
                           spec (two clients, one execution)
``executions``             campaign jobs actually executed
``replicates_run``         replicates executed (not served from cache)
``replicates_requeued``    replicates re-queued after a failure or a
                           worker loss (never silently dropped)
``worker_restarts``        worker-pool rebuilds after a worker died
``spec_errors``            submits rejected as malformed
=========================  ============================================
"""

from __future__ import annotations

import threading
from typing import Dict

__all__ = ["ServiceStats", "STATS"]

_FIELDS = (
    "requests",
    "cache_hits",
    "replicate_cache_hits",
    "coalesced",
    "executions",
    "replicates_run",
    "replicates_requeued",
    "worker_restarts",
    "spec_errors",
)


class ServiceStats:
    """Thread-safe monotone counters (the scheduler runs in executor
    threads while the asyncio front end reads from the event loop)."""

    __slots__ = ("_lock", "_counts")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts: Dict[str, int] = {name: 0 for name in _FIELDS}

    def inc(self, name: str, by: int = 1) -> None:
        with self._lock:
            self._counts[name] = self._counts.get(name, 0) + by

    def get(self, name: str) -> int:
        with self._lock:
            return self._counts.get(name, 0)

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counts)

    def reset(self) -> None:
        """Zero every counter (test isolation only)."""
        with self._lock:
            for name in list(self._counts):
                self._counts[name] = 0


#: The process-wide tally every :class:`~repro.service.CampaignService`
#: reports into (mirrored as ``service_*`` obs counters).
STATS = ServiceStats()
