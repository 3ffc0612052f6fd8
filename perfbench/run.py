"""End-to-end benchmark of the MTMRP reproduction; one workload per run.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload chaos_soak --seed 1 --seconds 25 --trace 1

``--trace 0`` measures the end-to-end metrics for ``--seconds`` seconds
(whole rounds, at least 200 samples per percentile).  ``--trace 1`` runs a
fixed number of rounds twice, untraced and then with every layer wrapped,
and reports the per-layer metrics of the traced pass.  Both print a run
record line and, as the last line, the result JSON.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NoReturn

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

WORKLOADS = ("paper_sweep", "chaos_soak", "service_mixed")
#: set-ups measured per run; ``setup_s`` is their median.  A service
#: start takes ~10 ms, so it is repeated more to steady the median.
SETUP_REPEATS = {"paper_sweep": 3, "chaos_soak": 3, "service_mixed": 15}
#: rounds replayed by a traced run (each about 3-4 s untraced)
TRACED_ROUNDS = {"paper_sweep": 1, "chaos_soak": 8, "service_mixed": 100}

#: a set-up probe lasts about a second, and two 20 ms speed samples around
#: it are too short to stand for it; 150 ms samples are
_PROBE = (
    "import sys, time\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "from hostspeed import calibration_rate\n"
    "r0 = calibration_rate(0.15)\n"
    "t0 = time.perf_counter()\n"
    "import workloads\n"
    "workloads.make(sys.argv[3], int(sys.argv[4])).first_replicate()\n"
    "t1 = time.perf_counter()\n"
    "print(t1 - t0, (r0 + calibration_rate(0.15)) / 2)\n"
)


def _fail(msg: str) -> NoReturn:
    print(f"perfbench: {msg}", file=sys.stderr)
    raise SystemExit(2)


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _setup_probe(workload: str, seed: int):
    """Imports plus the first replicate in a fresh interpreter: (wall
    seconds, host speed sampled around it)."""
    out = subprocess.run(
        [sys.executable, "-c", _PROBE, str(HERE), str(SRC), workload, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=150,
    )
    if out.returncode != 0:
        _fail(f"set-up probe failed:\n{out.stderr}")
    wall, rate = out.stdout.strip().splitlines()[-1].split()
    return float(wall), float(rate)


def _metric(value, unit, samples=None):
    m = {"value": value, "unit": unit}
    if samples is not None:
        m["samples"] = samples
    return m


def _peak_rss_mb(extra_kb: int = 0) -> float:
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + extra_kb) / 1024.0


def run_untraced(name: str, seed: int, seconds: float):
    from hostspeed import REFERENCE_RATE
    from workloads import make, percentile, timed_pass

    record = {}
    if name == "service_mixed":
        from service_load import ServiceWorkload

        wl = ServiceWorkload(seed, OUT / f"service-{os.getpid()}")
        res = wl.run(seconds, SETUP_REPEATS[name])
        setups = wl.setup_samples
        peak = _peak_rss_mb(wl.worker_peak_kb)
        failed, notes = res.failed, list(res.notes)
        record["service"] = res.extra
    else:
        setups = [_setup_probe(name, seed) for _ in range(SETUP_REPEATS[name])]
        wl = make(name, seed)
        wl.first_replicate()
        res, n_rounds = timed_pass(wl, seconds)
        record["rounds"] = n_rounds
        failed, notes = wl.check()
        peak = _peak_rss_mb()
    ref_setup = [wall * rate / REFERENCE_RATE for wall, rate in setups]
    raw_setup = [wall for wall, _rate in setups]
    lat = res.ref_latencies_ms
    metrics = {
        "replicates_per_s": _metric(res.ops / res.ref_s, "1/s"),
        "replicate_p50_ms": _metric(percentile(lat, 50), "ms", len(lat)),
        "replicate_p95_ms": _metric(percentile(lat, 95), "ms", len(lat)),
        "setup_s": _metric(statistics.median(ref_setup), "s", len(ref_setup)),
        "peak_rss_mb": _metric(peak, "MB"),
    }
    record.update(
        wall_s=res.wall_s, ref_s=res.ref_s, digest=res.digest, notes=notes,
        failed_frac=failed / max(res.ops, 1),
        # the same metrics in uncorrected wall time
        wall_metrics={
            "replicates_per_s": res.ops / res.wall_s,
            "replicate_p50_ms": percentile(res.latencies_ms, 50),
            "replicate_p95_ms": percentile(res.latencies_ms, 95),
            "setup_s": statistics.median(raw_setup),
        },
        setup_samples_s=raw_setup, setup_ref_samples_s=ref_setup,
    )
    return metrics, res.ops, failed, record


def run_traced(name: str, seed: int):
    from tracing import Tracer
    from workloads import fixed_pass, make, reset_warm_caches

    n_rounds = TRACED_ROUNDS[name]
    tracer = Tracer()

    def prepare():
        reset_warm_caches()
        tracer.install()
        return tracer

    record = {"rounds": n_rounds}
    if name == "service_mixed":
        from service_load import ServiceWorkload

        wl = ServiceWorkload(seed, OUT / f"service-{os.getpid()}")
        plain, traced = wl.run_traced(n_rounds, 2, prepare)
        failed = plain.failed + traced.failed
        notes = plain.notes + traced.notes
    else:
        wl = make(name, seed)
        wl.first_replicate()
        reset_warm_caches()
        plain = fixed_pass(wl, n_rounds)
        wl.tracer = prepare()
        try:
            traced = fixed_pass(wl, n_rounds)
        finally:
            tracer.uninstall()
            wl.tracer = None
        failed, notes = wl.check()
    if plain.digest != traced.digest:
        failed += 1
        notes.append("traced and untraced passes produced different results")

    layer = tracer.layer_metrics()
    for key in ("faults.events", "repair.grafts_ok", "repair.grafts_failed", "repair.rebuild_rounds"):
        layer[key] = tracer.counts[key]
    service_keys = (
        "service.requests", "service.cache_hits", "service.coalesced", "service.executions",
        "service.replicates_run", "service.replicates_requeued", "service.worker_restarts",
        "service.dedupe_frac", "store.hit_frac", "wire.accept_wait_p50_ms", "wire.bytes_in",
    )
    for key in service_keys:
        layer[key] = traced.extra.get(key, 0)
    # request latencies come from the untraced pass: tracing the parent's
    # spec/store layers would add to them
    for key in ("requests_per_s", "hit_request_p50_ms", "miss_request_p50_ms"):
        layer[key] = plain.extra.get(key, 0)
    layer["trace_overhead_frac"] = traced.ref_s / plain.ref_s - 1.0

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{name}.npz"
    tracer.spans.save(spans_path)
    record.update(
        untraced_wall_s=plain.wall_s, traced_wall_s=traced.wall_s,
        untraced_ref_s=plain.ref_s, traced_ref_s=traced.ref_s, digest=traced.digest,
        spans=str(spans_path.relative_to(ROOT)), notes=notes,
        failed_frac=failed / max(plain.ops + traced.ops, 1), peak_rss_mb=_peak_rss_mb(),
    )
    if name == "service_mixed":
        record["service_untraced"] = plain.extra
    units = _layer_units()
    metrics = {k: _metric(v, units[k]) for k, v in layer.items()}
    return metrics, plain.ops + traced.ops, failed, record


def _layer_units():
    """Units of the per-layer metrics, as BENCHMARK.json declares them."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        _fail(f"{path} is missing")
    return {m["name"]: m["unit"] for m in json.loads(path.read_text())["per_layer"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if os.environ.get("REPRO_RESULT_CACHE"):
        _fail("REPRO_RESULT_CACHE is set: paper_sweep would time result-cache reads; unset it")
    if not (SRC / "repro" / "__init__.py").is_file():
        _fail(f"no program to measure: {SRC / 'repro'} is missing")
    sys.path.insert(1, str(SRC))
    try:
        import numpy
        import repro  # noqa: F401
    except ImportError as exc:
        _fail(f"cannot import the program: {exc}")
    OUT.mkdir(exist_ok=True)

    if args.trace:
        metrics, attempted, failed, record = run_traced(args.workload, args.seed)
    else:
        metrics, attempted, failed, record = run_untraced(args.workload, args.seed, args.seconds)

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "commit": _commit(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "machine": platform.machine(), "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "attempted": attempted, "failed": failed, "metrics": metrics, **record,
    }
    with open(OUT / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(record, default=float) + "\n")
    print("perfbench record: " + json.dumps(record, default=float))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }
    print(json.dumps(result, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
