"""Named, reproducible random streams.

Every stochastic component in the simulator (MAC backoff at node 7, MTMRP
jitter at node 12, receiver placement, …) draws from its own
``numpy.random.Generator`` derived from one master ``SeedSequence``.  This
gives two properties the experiments rely on:

* **bit-reproducibility** — a run is a pure function of its master seed;
* **variance isolation** — changing how often one component draws (e.g.
  swapping the Ideal MAC for CSMA) does not perturb any other component's
  stream, so A/B comparisons stay paired.

Streams are keyed by arbitrary hashable tuples, e.g.
``rng.stream("mac", node_id)``; the key is folded into the seed material
deterministically (independent of creation order).
"""

from __future__ import annotations

import zlib
from typing import Dict, Hashable, Tuple

import numpy as np

__all__ = ["RngRegistry"]


def _key_to_int(key: Tuple[Hashable, ...]) -> int:
    """Map a stream key to a stable 32-bit integer.

    ``hash()`` is salted per-process for strings, so we use CRC32 of the
    repr instead — stable across processes and Python versions, which is
    required for the multiprocessing Monte-Carlo runner.
    """
    return zlib.crc32(repr(key).encode("utf-8"))


#: Initial bit-generator states, memoised per ``(master seed, key)``
#: across registries.  A stream's initial state is a pure function of
#: that pair, so re-running a seed (tests, benchmarks, repeated
#: Monte-Carlo rounds) can restore the state instead of re-hashing a
#: ``SeedSequence`` — the hash dominates stream creation, and a full run
#: creates a couple hundred streams.  Restoring is semantically
#: invisible: the generator starts in the bit-identical state either way.
_STATE_CACHE: Dict[Tuple[int, Tuple[Hashable, ...]], dict] = {}
_STATE_CACHE_MAX = 8192

#: Throwaway seed for the restore path: the PCG64 is constructed cheaply
#: from this pre-hashed SeedSequence, then overwritten with the cached
#: initial state.
_DUMMY_SS = np.random.SeedSequence(0)

#: Retired ``Generator`` objects, pooled per ``(master seed, key)``.
#: Constructing a ``PCG64`` costs ~5x more than resetting one's state, so
#: a registry that dies returns its generators here and the next registry
#: built with the same seed checks one out and rewinds it to the cached
#: initial state.  Entries are *checked out* (popped), never shared: a
#: generator lives in at most one registry at a time, so two live
#: registries can never interleave draws on the same stream.
_GEN_POOL: Dict[Tuple[int, Tuple[Hashable, ...]], list] = {}
_GEN_POOL_MAX = 8192


class RngRegistry:
    """Factory and cache of named ``numpy.random.Generator`` streams."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: Dict[Tuple[Hashable, ...], np.random.Generator] = {}

    def stream(self, *key: Hashable) -> np.random.Generator:
        """Return (creating on first use) the generator for ``key``.

        The same key always yields the same generator object within a
        registry, and the same *initial state* across registries built
        with the same master seed.
        """
        if not key:
            raise ValueError("stream key must be non-empty")
        k = tuple(key)
        gen = self._streams.get(k)
        if gen is None:
            cache_key = (self.seed, k)
            state = _STATE_CACHE.get(cache_key)
            if state is None:
                ss = np.random.SeedSequence(
                    entropy=self.seed, spawn_key=(_key_to_int(k),)
                )
                gen = np.random.default_rng(ss)
                if len(_STATE_CACHE) < _STATE_CACHE_MAX and isinstance(
                    gen.bit_generator, np.random.PCG64
                ):
                    # .state snapshots the *initial* state; later draws
                    # advance the generator, not the snapshot.
                    _STATE_CACHE[cache_key] = gen.bit_generator.state
            else:
                pooled = _GEN_POOL.get(cache_key)
                if pooled:
                    # recycle a retired generator: rewinding its state is
                    # bit-identical to (and much cheaper than) building a
                    # fresh PCG64 from the same seed material
                    gen = pooled.pop()
                    gen.bit_generator.state = state
                else:
                    bg = np.random.PCG64(_DUMMY_SS)
                    bg.state = state
                    gen = np.random.Generator(bg)
            self._streams[k] = gen
        return gen

    def __del__(self) -> None:
        # Return generators to the pool for the next same-seed registry.
        # Safe: this registry is unreachable, so nothing else can draw
        # from them, and checkout rewinds the state before reuse.
        try:
            seed = self.seed
            for k, gen in self._streams.items():
                cache_key = (seed, k)
                if cache_key in _STATE_CACHE and len(_GEN_POOL) < _GEN_POOL_MAX:
                    _GEN_POOL.setdefault(cache_key, []).append(gen)
        except Exception:  # pragma: no cover - interpreter shutdown
            pass

    def spawn_run_seeds(self, n_runs: int) -> list[int]:
        """Derive ``n_runs`` independent master seeds for Monte-Carlo runs.

        Used by the experiment runner to hand each worker process its own
        seed; the derivation is deterministic in (master seed, run index).
        """
        ss = np.random.SeedSequence(entropy=self.seed)
        children = ss.spawn(n_runs)
        return [int(c.generate_state(1, dtype=np.uint64)[0] & 0x7FFF_FFFF) for c in children]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngRegistry(seed={self.seed}, streams={len(self._streams)})"

