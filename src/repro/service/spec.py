"""Campaign specs: the service's JSON request format and its canonical identity.

A *campaign spec* names a base :class:`~repro.experiments.config.
SimulationConfig` plus a replicate count, exactly the shape
:func:`~repro.experiments.runner.monte_carlo` expands::

    {"config": {"protocol": "mtmrp", "topology": "grid", "group_size": 20,
                "mac": "ideal", "seed": 3},
     "replicates": 8,
     "batch_seed": 12345}

``config`` holds field overrides for :class:`SimulationConfig` (unknown
fields and invalid values are rejected as :class:`SpecError`, carrying
the constructor's message).  ``replicates <= 1`` runs the config as-is
at its own seed; ``replicates > 1`` expands through ``monte_carlo`` with
``batch_seed``, so a spec is a pure function of its payload.

Canonical identity: :meth:`CampaignSpec.key` hashes the per-replicate
:func:`~repro.experiments.runner.config_hash` chain — the same content
hash the result store files results under, which already folds in
``CACHE_VERSION``.  Two different payloads that expand to the identical
config list therefore dedupe/coalesce as one campaign, and a cache-
version bump atomically invalidates every old spec key.
:meth:`prefix_signature` additionally summarises the spec through
:func:`~repro.sim.snapshot.prefix_key` — how many distinct warm-start
prefixes the campaign spans, which is what makes warm scheduling
worthwhile (few prefixes, many replicates).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields as dataclass_fields
from typing import Any, Dict, Tuple

from repro.experiments.config import SimulationConfig
from repro.experiments.runner import RunResult, config_hash, monte_carlo

__all__ = ["CampaignSpec", "SpecError", "result_record"]

#: RunResult fields a service response carries (the campaign-file record
#: layout: flat metrics only — positions and the structured traffic
#: payload stay server-side).
RESULT_FIELDS: Tuple[str, ...] = (
    "protocol",
    "topology",
    "group_size",
    "seed",
    "backoff_n",
    "backoff_w",
    "data_transmissions",
    "tree_transmissions",
    "extra_nodes",
    "average_relay_profit",
    "delivered",
    "delivery_ratio",
    "covered_receivers",
    "join_query_tx",
    "join_reply_tx",
    "hello_tx",
    "collisions",
    "energy_joules",
    "construction_latency",
    "frames_lost",
)

_CONFIG_FIELDS = {f.name for f in dataclass_fields(SimulationConfig)}


class SpecError(ValueError):
    """A submitted campaign spec is malformed (bad shape, unknown config
    field, or a value :class:`SimulationConfig` rejects)."""


def result_record(res: RunResult) -> Dict[str, Any]:
    """Flatten one run result into the JSON record a client receives."""
    return {f: getattr(res, f) for f in RESULT_FIELDS}


@dataclass(frozen=True)
class CampaignSpec:
    """One validated campaign request: a base config and its expansion."""

    config: SimulationConfig
    replicates: int = 1
    batch_seed: int = 12345

    def __post_init__(self) -> None:
        if self.replicates < 1:
            raise SpecError(f"replicates must be >= 1, got {self.replicates}")

    @classmethod
    def from_payload(cls, payload: Any) -> "CampaignSpec":
        """Parse and validate one submitted JSON payload."""
        if not isinstance(payload, dict):
            raise SpecError(f"spec must be a JSON object, got {type(payload).__name__}")
        unknown = set(payload) - {"config", "replicates", "batch_seed"}
        if unknown:
            raise SpecError(f"unknown spec fields: {sorted(unknown)}")
        raw_cfg = payload.get("config", {})
        if not isinstance(raw_cfg, dict):
            raise SpecError("spec 'config' must be a JSON object of field overrides")
        bad = set(raw_cfg) - _CONFIG_FIELDS
        if bad:
            raise SpecError(f"unknown config fields: {sorted(bad)}")
        try:
            cfg = SimulationConfig(**raw_cfg)
            return cls(
                config=cfg,
                replicates=int(payload.get("replicates", 1)),
                batch_seed=int(payload.get("batch_seed", 12345)),
            )
        except SpecError:
            raise
        except (TypeError, ValueError, OverflowError) as exc:
            # OverflowError: int() of a JSON Infinity
            raise SpecError(f"invalid campaign spec: {exc}") from exc

    def to_payload(self) -> Dict[str, Any]:
        """The JSON payload reproducing this spec (client convenience)."""
        import dataclasses

        cfg = dataclasses.asdict(self.config)
        return {
            "config": cfg,
            "replicates": self.replicates,
            "batch_seed": self.batch_seed,
        }

    def configs(self) -> Tuple[SimulationConfig, ...]:
        """The replicate expansion (pure function of the payload)."""
        if self.replicates <= 1:
            return (self.config,)
        return tuple(monte_carlo(self.config, self.replicates, self.batch_seed))

    def key(self) -> str:
        """Canonical campaign identity: the per-replicate content-hash chain.

        Built from :func:`config_hash` (which folds in ``CACHE_VERSION``),
        so any two payloads expanding to the same run list share a key
        and dedupe against the same result-store entries.
        """
        h = hashlib.sha256()
        for cfg in self.configs():
            h.update(config_hash(cfg).encode())
        return h.hexdigest()

    def prefix_signature(self) -> Dict[str, int]:
        """Warm-start shape: distinct prefixes vs total replicates.

        ``{"prefixes": p, "replicates": n}`` — a campaign with ``p << n``
        (paired sweeps at shared seeds) amortises snapshot forks; the
        scheduler reports this, it does not gate on it
        (:func:`~repro.sim.snapshot.warm_profitable` decides per run).
        """
        from repro.sim.snapshot import prefix_key

        cfgs = self.configs()
        return {
            "prefixes": len({prefix_key(c) for c in cfgs}),
            "replicates": len(cfgs),
        }
