"""Tests for the command-line entry point."""

import json

import pytest

from repro.experiments.__main__ import main


def test_fig9_command(capsys):
    rc = main(["fig9"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "Fig. 9" in out
    assert "MTMRP:" in out and "ODMRP:" in out
    assert "transmissions" in out


def test_fig10_with_explicit_seed(capsys):
    rc = main(["fig10", "--seed", "1011"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "MTMRP: 16 transmissions" in out  # the paper-caption round


def test_fig5_tiny(capsys, monkeypatch):
    # shrink the sweep so the CLI test stays fast
    from repro.experiments import figures

    monkeypatch.setattr(figures, "GROUP_SIZES", (10,))
    rc = main(["fig5", "--runs", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "Normalized transmission overhead" in out
    assert "Average relay profit" in out


def test_unknown_figure_rejected():
    with pytest.raises(SystemExit):
        main(["fig99"])


def test_obs_command(capsys, tmp_path, monkeypatch):
    """The obs CLI runs an observed campaign and writes parseable exports."""
    monkeypatch.chdir(tmp_path)
    out_dir = tmp_path / "obs_out"
    rc = main(["obs", "--runs", "4", "--seed", "9", "--obs-out", str(out_dir)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "Observed campaign" in out
    assert "counters" in out and "protocol-phase spans" in out
    assert "delivery" in out  # sparkline labels
    # every export parses
    from repro.obs import parse_prometheus_text

    prom = parse_prometheus_text((out_dir / "counters.prom").read_text())
    assert prom["repro_tx"] > 0
    for name in ("samples.jsonl", "spans.jsonl"):
        for line in (out_dir / name).read_text().splitlines():
            if line:
                json.loads(line)
    chrome = json.loads((out_dir / "spans_chrome.json").read_text())
    assert chrome["traceEvents"]
    counters = json.loads((out_dir / "counters.json").read_text())
    assert counters["counters"]["delivers"] > 0


def test_obs_excluded_from_all():
    from repro.experiments.__main__ import _NON_FIGURE

    assert "obs" in _NON_FIGURE


class TestBenchGate:
    def test_compare_to_baseline_flags_only_regressions(self, tmp_path):
        from repro.experiments.bench import compare_to_baseline

        baseline = tmp_path / "BENCH_core.json"
        baseline.write_text(json.dumps({"benchmarks": {
            "fast_path": {"wall_s": 0.100},
            "memory": {"peak_mb": 10.0},
            "retired_workload": {"wall_s": 1.0},
        }}))
        results = {
            "fast_path": {"wall_s": 0.120},      # +20%: inside the gate
            "memory": {"peak_mb": 14.0},          # +40%: regression
            "brand_new_workload": {"wall_s": 5.0},  # no baseline: skipped
        }
        regs = compare_to_baseline(results, baseline, threshold=0.25)
        assert [r[0] for r in regs] == ["memory"]
        name, base, cur, ratio = regs[0]
        assert (base, cur) == (10.0, 14.0) and ratio == pytest.approx(1.4)
        assert compare_to_baseline(results, baseline, threshold=0.5) == []

    def test_first_seen_workload_is_its_own_baseline(self, tmp_path):
        """A benchmark absent from the committed file never regresses.

        Regression guard for the schema gap where newly introduced
        workloads were silently skipped by the gate *and* written without
        ``baseline_wall_s``/``speedup``: first-seen entries now grade
        against themselves (ratio 1.0) no matter how slow they are.
        """
        from repro.experiments.bench import compare_to_baseline

        baseline = tmp_path / "BENCH_core.json"
        baseline.write_text(json.dumps({"benchmarks": {
            "old": {"wall_s": 1.0},
        }}))
        results = {
            "old": {"wall_s": 1.0},
            "brand_new": {"wall_s": 1e6},  # huge, but first-seen
        }
        assert compare_to_baseline(results, baseline, threshold=0.25) == []

    def test_append_history_grows_one_row_per_run(self, tmp_path):
        from repro.experiments.bench import append_history

        hist = tmp_path / "BENCH_history.jsonl"
        results = {"fast_path": {"wall_s": 0.1, "ops_per_s": 10.0, "speedup": 2.0,
                                 "baseline_wall_s": 0.2}}
        append_history(results, hist, note="first")
        append_history(results, hist, note="second")
        rows = [json.loads(line) for line in hist.read_text().splitlines()]
        assert [r["note"] for r in rows] == ["first", "second"]
        entry = rows[0]["benchmarks"]["fast_path"]
        # headline fields only — raw baselines live in BENCH_core.json
        assert entry == {"wall_s": 0.1, "ops_per_s": 10.0, "speedup": 2.0}
        assert all("ts" in r for r in rows)


def test_faults_prints_sample_counts_not_nan(capsys, monkeypatch):
    """A recovery cell with too few recovered replicates shows its count."""
    from repro.experiments import faults

    nan = float("nan")
    row = dict(delivery_ratio=0.9, pre_fault_delivery=1.0, post_fault_delivery=0.8)
    canned = {
        "mtmrp": dict(row, recovery_latency=0.4, recovery_p95=0.6, recovered_runs=1.0),
        "odmrp": dict(row, recovery_latency=0.5, recovery_p95=nan, recovered_runs=1 / 3),
        "dodmrp": dict(row, recovery_latency=nan, recovery_p95=nan, recovered_runs=0.0),
    }
    monkeypatch.setattr(faults, "fault_sweep", lambda **kw: canned)
    assert main(["faults", "--runs", "15"]) == 0
    out = capsys.readouterr().out
    assert "nan" not in out
    mtmrp, odmrp, dodmrp = (
        next(line.split() for line in out.splitlines() if line.split()[:1] == [p])
        for p in ("mtmrp", "odmrp", "dodmrp")
    )
    assert mtmrp[4:6] == ["0.400", "0.600"]
    assert odmrp[4:6] == ["0.500", "n<2"]
    assert dodmrp[4:6] == ["n=0", "n<2"]
