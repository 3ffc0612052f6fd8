"""``service_mixed``: a closed loop of two clients against the campaign service.

Both clients talk JSON lines over a unix socket to one in-process
:class:`~repro.service.CampaignService` backed by a 2-worker pool and a
result store that starts empty.  The loop runs in synchronised rounds:
each round both clients submit at once and the next round starts when both
have their ``done``.  Rounds cycle through a fixed pattern so every run
has the same mix of request kinds:

* ``fresh``  - a one-replicate spec at the paper's Fig. 5 setting (100-node
  grid, CSMA, static bootstrap) never submitted before: executed on the pool;
* ``repeat`` - a spec that finished in an earlier round: a full store hit;
* ``pair``   - both clients submit the same fresh spec at the same moment:
  one execution, the other request coalesces onto it.

The specs themselves (protocol, group size, seed, which spec repeats) come
from the benchmark seed.  Each spec holds one replicate, so a request's
latency is the latency of one replicate result.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.experiments.config import PROTOCOLS
from repro.experiments.figures import GROUP_SIZES
from repro.experiments.runner import pool_worker_pids, run_many, shared_pool, shutdown_pool
from repro.service import STATS, CampaignScheduler, CampaignService, ResultStore, start_server
from repro.service.spec import CampaignSpec, result_record

from hostspeed import calibration_rate
from workloads import MIN_P95_SAMPLES, Pass, PassResult, percentile, reset_warm_caches

__all__ = ["ServiceWorkload"]

WORKERS = 2
CLIENTS = 2
#: one cycle of round kinds: 10 requests, 4 store hits, 6 misses (5 fresh
#: executions, 1 coalesced), so the median request is a miss and hits
#: still give a p95 of their own
CYCLE = (("pair",), ("fresh", "repeat"), ("repeat", "fresh"), ("fresh", "fresh"), ("repeat", "repeat"))
#: rounds per second the pre-computed plan is sized for: about the fastest
#: rate seen on a 2-core container (references cost ~50 ms a round, so the
#: plan is not padded further; a run that exhausts it stops early and says so)
MAX_ROUNDS_PER_S = 24.0
#: untimed rounds of two fresh executions that run before each measured
#: pass, on a store that is then discarded: freshly forked workers run
#: their first few seconds markedly slower (copy-on-write faults, empty
#: rng caches), a cost a long-lived service pays once, not per request
WARMUP_ROUNDS = 40

_SERVICE_COUNTERS = (
    "requests", "cache_hits", "coalesced", "executions",
    "replicates_run", "replicates_requeued", "worker_restarts",
)


def _fresh_spec(rng) -> dict:
    return {
        "config": {
            "protocol": str(rng.choice(PROTOCOLS)),
            "topology": "grid",
            "group_size": int(rng.choice(GROUP_SIZES)),
            "seed": int(rng.integers(0, 2**31 - 1)),
        },
        "replicates": 1,
    }


def make_plan(seed: int, n_rounds: int) -> List[Tuple[dict, dict]]:
    """``n_rounds`` rounds of (client 0 spec, client 1 spec) payloads."""
    rng = np.random.default_rng(seed)
    finished: List[dict] = []
    plan = []

    def fresh() -> dict:
        return _fresh_spec(rng)

    for r in range(n_rounds):
        kinds = CYCLE[r % len(CYCLE)]
        if kinds == ("pair",):
            spec = fresh()
            pair = (spec, spec)
            new = [spec]
        else:
            pair = tuple(
                fresh() if k == "fresh" else finished[int(rng.integers(len(finished)))]
                for k in kinds
            )
            new = [s for s, k in zip(pair, kinds) if k == "fresh"]
        plan.append(pair)
        finished.extend(new)
    return plan


def references(plan) -> Tuple[List[Tuple[str, ...]], Dict[str, list]]:
    """Each round's spec keys, and serial ``run_many`` results per key.

    Computed before any pass, so the spec layer's traced calls are only
    the service's own.
    """
    keys: List[Tuple[str, ...]] = []
    refs: Dict[str, list] = {}
    for pair in plan:
        round_keys = []
        for payload in pair:
            spec = CampaignSpec.from_payload(payload)
            key = spec.key()
            round_keys.append(key)
            if key not in refs:
                refs[key] = [result_record(r) for r in run_many(spec.configs())]
        keys.append(tuple(round_keys))
    return keys, refs


class _Client:
    """One connection speaking the service's JSON-lines protocol."""

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer

    async def call(self, req: dict) -> Tuple[dict, Optional[float], float, int, float]:
        """Send one request.

        Returns (last event, seconds to ``accepted``, seconds to the last
        event, bytes read, time of the last event).
        """
        t0 = time.perf_counter()
        self.writer.write((json.dumps(req) + "\n").encode())
        await self.writer.drain()
        accepted = None
        nbytes = 0
        while True:
            line = await self.reader.readline()
            if not line:
                raise ConnectionError("service closed the connection")
            nbytes += len(line)
            ev = json.loads(line)
            kind = ev.get("event")
            if kind == "accepted":
                accepted = time.perf_counter() - t0
            if kind in ("done", "error", "pong"):
                t1 = time.perf_counter()
                return ev, accepted, t1 - t0, nbytes, t1

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


class _Deployment:
    """A running service, its socket and store, and connected clients."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.store_dir = root / "store"
        # relative: unix socket paths are limited to ~100 bytes
        self.sock = os.path.relpath(root / "svc.sock")
        self.service = self.server = None
        self.clients: List[_Client] = []

    async def start(self) -> None:
        shutil.rmtree(self.store_dir, ignore_errors=True)
        self.root.mkdir(parents=True, exist_ok=True)
        self.service = CampaignService(
            store=ResultStore(self.store_dir), scheduler=CampaignScheduler(workers=WORKERS)
        )
        self.server = await start_server(self.service, unix_path=self.sock)
        pool = shared_pool(WORKERS)
        # the fork start method launches every worker on the first submit
        for fut in [pool.submit(os.getpid) for _ in range(WORKERS)]:
            fut.result()
        for _ in range(CLIENTS):
            self.clients.append(_Client(*await asyncio.open_unix_connection(self.sock)))
        ev = (await self.clients[0].call({"op": "ping"}))[0]
        if ev.get("event") != "pong":
            raise RuntimeError(f"service answered ping with {ev!r}")

    async def stop(self) -> None:
        for c in self.clients:
            await c.close()
        self.clients = []
        if self.server is not None:
            self.server.close()
            await self.server.wait_closed()
        if self.service is not None:
            await self.service.close()
        shutil.rmtree(self.store_dir, ignore_errors=True)
        try:
            os.unlink(self.sock)
        except FileNotFoundError:
            pass


class ServiceWorkload:
    def __init__(self, seed: int, root: Path) -> None:
        self.seed = seed
        #: private directory for the socket and the store, removed at the end
        self.root = root
        self.setup_samples: List[Tuple[float, float]] = []
        self.worker_peak_kb = 0

    # ------------------------------------------------------------------ #
    async def _setup(self, repeats: int) -> _Deployment:
        """Start the service ``repeats`` times; keeps the last one running.

        Each start is kept as (wall seconds, host speed sampled around it).
        """
        dep = None
        for _ in range(repeats):
            if dep is not None:
                await dep.stop()
                shutdown_pool()
            dep = _Deployment(self.root)
            r0 = calibration_rate()
            t0 = time.perf_counter()
            await dep.start()
            wall = time.perf_counter() - t0
            self.setup_samples.append((wall, (r0 + calibration_rate()) / 2))
        return dep

    async def _warm(self, dep: _Deployment) -> _Deployment:
        """Warm the pool on throwaway specs; returns a new service on the
        same pool with an empty store."""
        rng = np.random.default_rng([self.seed, 1])
        for _ in range(WARMUP_ROUNDS):
            outs = await asyncio.gather(
                *(c.call({"op": "submit", "spec": _fresh_spec(rng)}) for c in dep.clients)
            )
            for ev, *_ in outs:
                if ev.get("event") != "done" or ev.get("errors"):
                    raise RuntimeError(f"warm-up request failed: {ev!r}")
        await dep.stop()
        dep = _Deployment(self.root)
        await dep.start()
        return dep

    async def _pass(self, dep: _Deployment, plan, keys, refs, seconds: Optional[float]) -> PassResult:
        """One pass over ``plan`` on ``dep``, whose store starts empty.

        With ``seconds`` set, stops after the first whole cycle of rounds
        past that time once both hits and misses have their p95 samples.
        """
        before = STATS.snapshot()
        store_before = dep.service.store.stats()
        hit, miss, accept = [], [], []
        nbytes = failed = 0
        notes: List[str] = []
        m = Pass()
        rounds = 0
        for r, pair in enumerate(plan):
            m.speed.tick()
            outs = await asyncio.gather(
                *(c.call({"op": "submit", "spec": spec}) for c, spec in zip(dep.clients, pair)),
                return_exceptions=True,
            )
            rounds += 1
            for client, (key, out) in enumerate(zip(keys[r], outs)):
                if isinstance(out, BaseException):
                    failed += 1
                    notes.append(f"round {r} client {client}: {out!r}")
                    continue
                ev, acc, done_s, n, t_end = out
                nbytes += n
                if ev.get("event") != "done" or ev.get("errors"):
                    failed += 1
                    notes.append(f"round {r} client {client}: {ev.get('event')} {ev.get('message', '')}")
                elif ev["results"] != refs[key]:
                    failed += 1
                    notes.append(f"round {r} client {client}: result differs from the serial reference")
                m.digest.update(json.dumps([r, client, ev.get("results")], sort_keys=True).encode())
                m.latency(t_end, done_s)
                m.ops += 1
                if acc is not None:
                    accept.append((t_end - done_s + acc, acc))
                (hit if ev.get("cached") else miss).append((t_end, done_s))
            if (
                seconds is not None
                and rounds % len(CYCLE) == 0
                and time.perf_counter() - m.t0 >= seconds
                and min(len(hit), len(miss)) >= MIN_P95_SAMPLES
            ):
                break
        if seconds is not None and rounds == len(plan):
            notes.append(f"plan of {len(plan)} rounds exhausted before the time was up")
        res = m.finish(failed=failed, notes=notes)
        after = STATS.snapshot()
        store = dep.service.store.stats()
        extra = {f"service.{k}": after[k] - before[k] for k in _SERVICE_COUNTERS}
        gets = (store["hits"] - store_before["hits"]) + (store["misses"] - store_before["misses"])
        extra["store.hit_frac"] = (store["hits"] - store_before["hits"]) / gets if gets else 0.0
        extra["service.dedupe_frac"] = 1.0 - extra["service.replicates_run"] / res.ops if res.ops else 0.0
        hit_ms = [m.ref_ms(t, d) for t, d in hit]
        miss_ms = [m.ref_ms(t, d) for t, d in miss]
        extra["wire.accept_wait_p50_ms"] = percentile([m.ref_ms(t, d) for t, d in accept], 50)
        extra["wire.bytes_in"] = nbytes
        extra["requests_per_s"] = res.ops / res.ref_s
        extra["hit_request_p50_ms"] = percentile(hit_ms, 50)
        extra["hit_request_p95_ms"] = percentile(hit_ms, 95)
        extra["miss_request_p50_ms"] = percentile(miss_ms, 50)
        extra["miss_request_p95_ms"] = percentile(miss_ms, 95)
        extra["hit_requests"] = len(hit)
        extra["miss_requests"] = len(miss)
        extra["rounds"] = rounds
        res.extra = extra
        return res

    def _worker_peak_kb(self) -> int:
        """Sum of the pool workers' peak resident sets (VmHWM), in KiB."""
        total = 0
        for pid in pool_worker_pids():
            try:
                with open(f"/proc/{pid}/status") as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            total += int(line.split()[1])
            except OSError:
                pass
        return total

    # ------------------------------------------------------------------ #
    def run(self, seconds: float, setup_repeats: int) -> PassResult:
        """The untraced timed run."""
        # enough rounds for the time, and always for 200 hits (4 a cycle)
        cycles = max(int(np.ceil(seconds * MAX_ROUNDS_PER_S / len(CYCLE))), MIN_P95_SAMPLES // 4)
        n_rounds = cycles * len(CYCLE)
        plan = make_plan(self.seed, n_rounds)
        keys, refs = references(plan)
        # pool workers fork from this process: they must not inherit the
        # rng states the references just cached for exactly these specs
        reset_warm_caches()

        async def main() -> PassResult:
            dep = await self._setup(setup_repeats)
            try:
                dep = await self._warm(dep)
                res = await self._pass(dep, plan, keys, refs, seconds)
                self.worker_peak_kb = self._worker_peak_kb()
                return res
            finally:
                await dep.stop()

        try:
            return asyncio.run(main())
        finally:
            shutdown_pool()
            shutil.rmtree(self.root, ignore_errors=True)

    def run_traced(self, n_rounds: int, setup_repeats: int, prepare_traced) -> Tuple[PassResult, PassResult]:
        """Untraced then traced pass over the same plan.

        Each pass gets a new service, an empty store and a new pool forked
        from a process whose caches were reset, so neither pass inherits
        warm rng states from the other.  The traced pass's pool is spawned
        before the wrappers go in: its workers run untraced code, and only
        the parent's layers are traced.
        """
        plan = make_plan(self.seed, n_rounds)
        keys, refs = references(plan)
        reset_warm_caches()

        async def main():
            dep = await self._setup(setup_repeats)
            tracer = None
            try:
                dep = await self._warm(dep)
                plain = await self._pass(dep, plan, keys, refs, None)
                await dep.stop()
                shutdown_pool()
                reset_warm_caches()
                dep = _Deployment(self.root)
                await dep.start()
                dep = await self._warm(dep)
                tracer = prepare_traced()
                traced = await self._pass(dep, plan, keys, refs, None)
                return plain, traced
            finally:
                if tracer is not None:
                    tracer.uninstall()
                await dep.stop()

        try:
            return asyncio.run(main())
        finally:
            shutdown_pool()
            shutil.rmtree(self.root, ignore_errors=True)
