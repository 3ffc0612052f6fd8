"""Command-line entry point regenerating the paper's figures.

Examples::

    python -m repro.experiments fig5 --runs 100
    python -m repro.experiments fig7 --runs 20
    python -m repro.experiments fig9
    python -m repro.experiments all --runs 10     # quick pass over everything
    python -m repro.experiments bench             # write BENCH_core.json
    python -m repro.experiments scaling           # 200..2000-node sweep

Output is plain text (tables + ASCII charts); redirect to a file to keep a
record, e.g. ``python -m repro.experiments fig5 --runs 100 > fig5.txt``.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

from repro.experiments import figures
from repro.experiments.report import (
    PANEL_TITLES,
    format_series_chart,
    format_series_table,
    format_snapshots,
    format_tuning_surfaces,
    save_snapshot_svgs,
    save_sweep_svgs,
    save_tuning_svgs,
)

__all__ = ["main"]


def _emit_sweep(sweep, name: str) -> None:
    for metric, title in PANEL_TITLES.items():
        print(f"\n== {name}: {title} ==")
        print(format_series_table(sweep, metric))
        print()
        print(format_series_chart(sweep, metric))


def _run_fig5(args) -> None:
    sweep = figures.fig5(runs=args.runs, workers=args.workers)
    _emit_sweep(sweep, "Fig. 5 (grid)")
    if args.svg_dir:
        for p in save_sweep_svgs(sweep, args.svg_dir, "fig5"):
            print(f"[svg] {p}", file=sys.stderr)


def _run_fig6(args) -> None:
    sweep = figures.fig6(runs=args.runs, workers=args.workers)
    _emit_sweep(sweep, "Fig. 6 (random)")
    if args.svg_dir:
        for p in save_sweep_svgs(sweep, args.svg_dir, "fig6"):
            print(f"[svg] {p}", file=sys.stderr)


def _run_fig7(args) -> None:
    sweep = figures.fig7(runs=args.runs, workers=args.workers)
    print("\n== Fig. 7: tuning N and w (grid, 20 receivers) ==")
    print(format_tuning_surfaces(sweep))
    if args.svg_dir:
        for p in save_tuning_svgs(sweep, args.svg_dir, "fig7"):
            print(f"[svg] {p}", file=sys.stderr)


def _run_fig8(args) -> None:
    sweep = figures.fig8(runs=args.runs, workers=args.workers)
    print("\n== Fig. 8: tuning N and w (random, 15 receivers) ==")
    print(format_tuning_surfaces(sweep))
    if args.svg_dir:
        for p in save_tuning_svgs(sweep, args.svg_dir, "fig8"):
            print(f"[svg] {p}", file=sys.stderr)


def _run_fig9(args) -> None:
    snaps = figures.fig9(**({"seed": args.seed} if args.seed is not None else {}))
    print("\n== Fig. 9: routing snapshots (grid, 20 receivers) ==")
    print(format_snapshots(snaps))
    if args.svg_dir:
        for p in save_snapshot_svgs(snaps, args.svg_dir, "fig9"):
            print(f"[svg] {p}", file=sys.stderr)


def _run_fig10(args) -> None:
    snaps = figures.fig10(**({"seed": args.seed} if args.seed is not None else {}))
    print("\n== Fig. 10: routing snapshots (random, 15 receivers) ==")
    print(format_snapshots(snaps))
    if args.svg_dir:
        for p in save_snapshot_svgs(snaps, args.svg_dir, "fig10"):
            print(f"[svg] {p}", file=sys.stderr)


def _run_ablations(args) -> None:
    from repro.experiments import ablations

    runs = args.runs
    print("\n== Ablations (DESIGN.md §6) ==")

    cmp = ablations.phs_ablation(runs=runs, workers=args.workers)
    print(
        f"\npath handover scheme: saves {cmp.mean_diff:.2f} tx "
        f"(95% CI [{cmp.ci_lo:.2f}, {cmp.ci_hi:.2f}], p={cmp.p_value:.2g}, "
        f"n={cmp.n})"
    )

    macs = ablations.mac_ablation(runs=runs, workers=args.workers)
    for mac, c in macs.items():
        print(f"MTMRP vs ODMRP under {mac:5s} MAC: MTMRP saves {c.mean_diff:.2f} tx "
              f"(win rate {c.win_rate:.0%})")

    lat = ablations.construction_latency_price(runs=runs, workers=args.workers)
    print("\nconstruction-latency price (grid, 20 receivers):")
    for k, v in lat.items():
        print(f"  {k:18s} latency={v['latency'] * 1e3:7.1f} ms  overhead={v['overhead']:.1f}")

    shadow = ablations.shadowing_ablation(runs=max(runs // 2, 4), workers=args.workers)
    print("\nshadow fading (the effect Sec. V-A disables):")
    for sigma, v in shadow.items():
        print(f"  sigma={sigma:3.1f} dB  delivery={v['delivery_ratio']['mean']:.3f}  "
              f"overhead={v['data_transmissions']['mean']:.1f}")

    gap = ablations.centralized_gap(rounds=max(runs // 3, 3))
    print("\ncentralized yardsticks (same instances, mean transmissions):")
    print("  " + "  ".join(f"{k}={v:.1f}" for k, v in gap.items()))


def _run_load(args) -> None:
    from repro.experiments.load import load_sweep

    rates = (1.0, 5.0, 10.0, 25.0, 50.0, 100.0)
    out = load_sweep(rates_pps=rates, runs=max(args.runs // 5, 3))
    print("\n== CBR load sweep (MTMRP tree, grid, 20 receivers) ==")
    print(f"{'rate':>8} {'delivery':>9} {'goodput':>9} {'tx/pkt':>7} {'collisions':>11}")
    for rate in rates:
        v = out[rate]
        print(f"{rate:>8.0f} {v['delivery_ratio']:>9.3f} {v['goodput_rps']:>9.1f} "
              f"{v['tx_per_packet']:>7.1f} {v['collisions']:>11.0f}")


def _run_faults(args) -> None:
    from repro.experiments.faults import fault_sweep

    runs = max(args.runs // 5, 3)
    print("\n== Fault injection: mid-stream forwarder crash (grid, ideal MAC) ==")
    header = (f"{'protocol':>10} {'delivery':>9} {'pre':>7} {'post':>7} "
              f"{'recovery(s)':>12} {'p95(s)':>8} {'recovered':>10}")
    for loss, label in ((0.0, "loss-free links"), (0.1, "10% i.i.d. frame loss")):
        out = fault_sweep(
            runs=runs,
            loss_model="iid" if loss > 0 else "none",
            loss_rate=loss,
        )
        print(f"\n-- {label} --")
        print(header)
        for proto, v in out.items():
            # recovery statistics are NaN when too few replicates
            # recovered: print the sample count instead of a bare nan
            mean = _stat_cell(v["recovery_latency"], "n=0")
            p95 = _stat_cell(v["recovery_p95"], "n<2")
            print(f"{proto:>10} {v['delivery_ratio']:>9.3f} "
                  f"{v['pre_fault_delivery']:>7.3f} {v['post_fault_delivery']:>7.3f} "
                  f"{mean:>12} {p95:>8} "
                  f"{v['recovered_runs']:>10.0%}")


def _stat_cell(value: float, undefined: str) -> str:
    return undefined if math.isnan(value) else f"{value:.3f}"


def _run_bench(args) -> None:
    from repro.experiments.bench import append_history, compare_to_baseline, write_bench_json

    out = args.bench_out
    print(f"\n== Microbenchmarks (writing {out}) ==")
    results = write_bench_json(out=out, fast=args.fast)
    for name, entry in results.items():
        if "wall_s" in entry:
            speed = entry.get("speedup")
            extra = f"  {speed:5.1f}x vs baseline" if speed is not None else ""
            print(f"  {name:28s} {entry['wall_s'] * 1e3:9.3f} ms"
                  f"  {entry['ops_per_s']:>12,.0f} ops/s{extra}")
        else:
            print(f"  {name:28s} {entry['peak_mb']:9.2f} MB peak"
                  f"  ({entry['memory_ratio']:.1f}x below seed)")
    if args.bench_history:
        p = append_history(results, args.bench_history,
                           note="fast" if args.fast else "full")
        print(f"  [history] appended to {p}")
    if args.bench_compare:
        regressions = compare_to_baseline(
            results, args.bench_compare, threshold=args.bench_threshold
        )
        if regressions:
            print(f"\n  REGRESSIONS vs {args.bench_compare} "
                  f"(>{args.bench_threshold:.0%} slower):", file=sys.stderr)
            for name, base, cur, ratio in regressions:
                print(f"    {name:28s} {base * 1e3:9.3f} -> {cur * 1e3:9.3f} ms "
                      f"({ratio:.2f}x)", file=sys.stderr)
            raise SystemExit(1)
        print(f"  [compare] no >{args.bench_threshold:.0%} regressions "
              f"vs {args.bench_compare}")


def _run_scaling(args) -> None:
    from repro.experiments.scaling import DEFAULT_SIZES, scaling_sweep, write_scaling_json

    sizes = tuple(args.sizes) if args.sizes else tuple(DEFAULT_SIZES)
    print(f"\n== Scaling sweep (MTMRP, paper density, sizes={sizes}) ==")
    points = scaling_sweep(sizes=sizes, seed=args.seed if args.seed is not None else 7)
    print(f"{'nodes':>7} {'build(s)':>9} {'run(s)':>8} {'events':>9} "
          f"{'events/s':>10} {'frames':>8} {'delivers':>9}")
    for p in points:
        print(f"{p.n_nodes:>7} {p.build_s:>9.3f} {p.run_s:>8.3f} {p.events:>9} "
              f"{p.events_per_s:>10,.0f} {p.frames_sent:>8} {p.delivers:>9}")
    write_scaling_json(points)
    print("[json] results/scaling.json")


def _run_check(args) -> None:
    from repro.experiments.check import run_check

    run_check(args)


def _run_obs(args) -> None:
    from repro.experiments.obs import run_obs

    run_obs(args)


def _run_chaos(args) -> None:
    from repro.experiments.chaos import run_chaos

    run_chaos(args)


def _run_traffic(args) -> None:
    from repro.experiments.traffic import run_traffic

    run_traffic(args)


def _run_serve(args) -> None:
    from repro.experiments.serve import run_serve

    run_serve(args)


COMMANDS = {
    "fig5": _run_fig5,
    "fig6": _run_fig6,
    "fig7": _run_fig7,
    "fig8": _run_fig8,
    "fig9": _run_fig9,
    "fig10": _run_fig10,
    "ablations": _run_ablations,
    "load": _run_load,
    "faults": _run_faults,
    "bench": _run_bench,
    "scaling": _run_scaling,
    "check": _run_check,
    "obs": _run_obs,
    "chaos": _run_chaos,
    "traffic": _run_traffic,
    "serve": _run_serve,
}

#: Utility commands excluded from ``all`` (they measure the machine, not
#: the paper).
_NON_FIGURE = {"bench", "scaling", "check", "obs", "chaos", "traffic", "serve"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the MTMRP paper's evaluation figures.",
    )
    parser.add_argument("figure", choices=[*COMMANDS, "all"], help="which figure to run")
    parser.add_argument("--runs", type=int, default=30, help="Monte-Carlo rounds per point (paper: 100)")
    parser.add_argument("--workers", type=int, default=1, help="worker processes")
    parser.add_argument(
        "--seed", type=int, default=None,
        help="snapshot seed for fig9/fig10 (default: each figure's representative round)",
    )
    parser.add_argument(
        "--svg-dir", default=None,
        help="also write SVG charts of each figure into this directory",
    )
    parser.add_argument(
        "--cache", action="store_true",
        help="reuse identical runs from the results/cache/ disk cache "
             "(sets REPRO_RESULT_CACHE; delete the directory to invalidate)",
    )
    parser.add_argument(
        "--bench-out", default="BENCH_core.json",
        help="output path for the bench command",
    )
    parser.add_argument(
        "--fast", action="store_true",
        help="bench: fewer repetitions (CI smoke mode)",
    )
    parser.add_argument(
        "--bench-compare", default=None, metavar="BASELINE_JSON",
        help="bench: compare against a committed BENCH_core.json and exit "
             "non-zero on wall-time regressions beyond --bench-threshold",
    )
    parser.add_argument(
        "--bench-threshold", type=float, default=0.25,
        help="bench: allowed fractional slowdown before --bench-compare "
             "fails (default 0.25 = 25%%)",
    )
    parser.add_argument(
        "--bench-history", default=None, metavar="HISTORY_JSONL",
        help="bench: append one summary row to this JSON-lines trend file "
             "(e.g. BENCH_history.jsonl)",
    )
    parser.add_argument(
        "--sizes", type=int, nargs="*", default=None,
        help="scaling: deployment sizes to sweep (default 200 500 1000 2000)",
    )
    parser.add_argument(
        "--obs-out", default="results/obs",
        help="obs: directory for telemetry exports (Prometheus/JSONL/Chrome-trace)",
    )
    parser.add_argument(
        "--obs-window", type=float, default=0.25,
        help="obs: sampler window in simulated seconds",
    )
    parser.add_argument(
        "--obs-protocol", default="mtmrp",
        help="obs: protocol to observe (mtmrp, odmrp, dodmrp, maodv, gmr)",
    )
    parser.add_argument(
        "--traffic-sessions", type=int, default=8,
        help="traffic: maximum concurrent session count in the ramp",
    )
    parser.add_argument(
        "--serve-port", type=int, default=7077,
        help="serve: TCP port for the campaign service (0 = ephemeral)",
    )
    parser.add_argument(
        "--serve-unix", default=None, metavar="SOCKET_PATH",
        help="serve: listen on a unix-domain socket instead of TCP",
    )
    parser.add_argument(
        "--serve-store", default="results/service-store",
        help="serve: directory for the content-addressed result store",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="serve: CI smoke campaign — --runs mixed specs over the wire "
             "with one injected worker kill; exits non-zero on digest "
             "drift or lost specs",
    )
    parser.add_argument(
        "--traffic-campaign", action="store_true",
        help="traffic: CI soak mode — --runs checked 4-session runs plus "
             "the flag-off digest guard; exits non-zero on any violation",
    )
    args = parser.parse_args(argv)

    if args.cache:
        os.environ.setdefault("REPRO_RESULT_CACHE", "results/cache")

    t0 = time.time()
    targets = (
        [n for n in COMMANDS if n not in _NON_FIGURE]
        if args.figure == "all"
        else [args.figure]
    )
    for name in targets:
        COMMANDS[name](args)
    # progress chatter belongs on an interactive terminal only; when stderr
    # is redirected to a capture file (e.g. results/fig*.err) stay silent
    if sys.stderr.isatty():
        print(f"\n[done in {time.time() - t0:.1f}s]", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
