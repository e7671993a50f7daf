"""Smoke test of the benchmark harness at a tiny size (5 events x 2 cells).

    python3 perfbench/smoke.py

Runs in a few seconds. It exercises every end-to-end and per-layer
metric path on both commands, the pinned-digest check and the invariant
check (and that each catches a corrupted output), the traced call-count
comparison, the result line of the command-line entry point, and the
refusal to run where there is no program. Exits 0 when all of that holds.
Not collected by pytest, so the repository's tier-1 suite stays fast.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

UNPINNED_SEED = 7
#: Calls the gate-on, rescue-on smoke sweep must make, so that each probe
#: is known to fire.
MUST_CALL = (
    "market.index_at_or_after_calls",
    "market.direct_price_decline_calls",
    "option.optimal_premium_factor_calls",
    "option.historical_volatility_calls",
    "core.health_factor_calls",
    "core.fsl_post_health_factor_calls",
    "core.execute_fsl_calls",
    "protocol.can_initiate_calls",
    "protocol.initiate_calls",
    "protocol.terminate_calls",
    "protocol.settle_at_maturity_calls",
    "protocol.supporter_decision_calls",
    "sim.dist_summary_calls",
)


def _bench_metrics() -> dict:
    return json.loads(bench.BENCHMARK_FILE.read_text(encoding="utf-8"))


def _assert_metrics(record: dict, kind: str) -> None:
    names = [m["name"] for m in _bench_metrics()[kind]]
    assert record["correct"], record["problems"]
    assert record["failed"] == 0 and record["attempted"] >= 1
    assert list(record["metrics"]) == names, (list(record["metrics"]), names)
    for name, m in record["metrics"].items():
        assert math.isfinite(m["value"]), (name, m)
        if kind == "end_to_end":
            assert m["value"] > 0, (name, m)


def check_spec() -> None:
    """workloads.json and BENCHMARK.json name the same workloads and
    per-layer metrics."""
    spec, contract = bench.load_spec(), _bench_metrics()
    assert list(spec["workloads"]) == [w["name"] for w in contract["workloads"]]
    table = [name for layer in spec["layers"] for name in layer["metrics"]]
    assert table == [m["name"] for m in contract["per_layer"]], table


def check_span_table() -> None:
    """Self time is a span's duration less the time its children cover."""
    lines = ["1\tcore.b\t1.0\t2.0\t0\n", "2\tcore.b\t2.5\t3.0\t0\n", "0\tsim.a\t0.0\t4.0\t-1\n"]
    table = bench.span_table(lines)
    assert table["sim.a"]["calls"] == 1 and table["sim.a"]["self_s"] == 2.5, table
    assert table["core.b"]["calls"] == 2 and table["core.b"]["s"] == 1.5, table


def check_runs() -> None:
    sweep = bench.run("smoke_sweep", 100, 0, trace=True, min_samples=1, setup_samples=1)
    assert sweep["pinned"], "smoke_sweep has no pins at its default seed"
    _assert_metrics(sweep, "per_layer")
    for name in MUST_CALL:
        assert sweep["metrics"][name]["value"] > 0, name
    assert sweep["metrics"]["cli.bytes_written"]["value"] > 0

    unpinned = bench.run(
        "smoke_sweep", UNPINNED_SEED, 0, trace=False, min_samples=2, setup_samples=4
    )
    assert not unpinned["pinned"]
    assert len(unpinned["samples"]["setup_s"]) == 4 and len(unpinned["samples"]["wall_s"]) == 2
    _assert_metrics(unpinned, "end_to_end")

    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        analyze = bench.run(
            "smoke_analyze", 100, 0, trace=trace, min_samples=1, setup_samples=1
        )
        assert analyze["pinned"], "smoke_analyze has no pins at its default seed"
        _assert_metrics(analyze, kind)
    for name in ("load_events_csv_s", "load_outcomes_csv_s", "aggregate_outcome_rows_s"):
        name = f"sim.{name}"
        assert analyze["metrics"][name]["value"] > 0, name


def check_detection() -> None:
    """Both output checks reject a corrupted output; the traced run
    rejects call counts that differ."""
    wl = bench.workload_spec("smoke_sweep")
    run_dir = bench.WORK / "smoke-detection"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    ctx = bench.prepare(wl, 100, run_dir)
    good = bench.run_checked(ctx, run_dir, "good")
    assert good["ok"], good["check"]["problems"]
    report_path = ctx["out_dir"] / "report.json"
    original = report_path.read_text()

    report_path.write_text(original.replace('"regime": "hybrid"', '"regime": "fsl_only"', 1))
    problems = bench.check_simulate(ctx["out_dir"], dict(ctx, reference=None))["problems"]
    assert any("pinned" in p for p in problems), problems

    report = json.loads(original)
    report["payoff_table"][0]["n"] += 1
    report["cells"][0]["report"]["class_counts"]["fsl"] = 1
    report_path.write_text(json.dumps(report))
    unpinned = dict(ctx, pins=None, reference=None)
    problems = bench.check_simulate(ctx["out_dir"], unpinned)["problems"]
    assert any("payoff row" in p for p in problems), problems
    assert any("class counts" in p for p in problems), problems

    assert bench.differing_counts([{"a_calls": 1, "b_s": 1.0}, {"a_calls": 1, "b_s": 2.0}]) == []
    assert bench.differing_counts([{"a_calls": 1}, {"a_calls": 2}])
    shutil.rmtree(run_dir)


def check_entry_point() -> None:
    cmd = [sys.executable, "perfbench/run.py", "--workload", "smoke_sweep", "--seed", "100",
           "--seconds", "0", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bench.ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result
    assert result["correct"] and result["attempted"] >= bench.MIN_SAMPLES

    bare = bench.WORK / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(bench.BENCHMARK_FILE, bare / "BENCHMARK.json")
    shutil.copytree(bench.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    shutil.rmtree(bare)


def main() -> int:
    for check in (check_spec, check_span_table, check_runs, check_detection, check_entry_point):
        check()
        print(f"ok {check.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
