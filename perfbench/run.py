"""miqado benchmark: closed-loop, one CLI process at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
`src/` directory. Workloads, pinned digests and the layer table are in
perfbench/workloads.json; metric names and units are in BENCHMARK.json.

`python3 perfbench/smoke.py` checks the harness itself in seconds.

One run:

1. Set-up (untimed): write the workload's config; for `analyze`, run the
   source sweep once and write its events CSV; byte-compile `src/`.
2. Timed loop: launch `miqado simulate|analyze` (through child.py) one
   process at a time, the next only after the previous one exited, until
   another launch would overrun --seconds (at least MIN_SAMPLES
   launches). Each launch is timed from just before `Popen` to its exit.
   Then launches that stop once their inputs are ready add set-up
   samples, up to SETUP_SAMPLES in all.
3. After every launch, check its outputs: pinned sha256 digests at a
   pinned seed, invariants at every seed (see workloads.json "checks").
   A launch that exits non-zero or fails a check counts as failed and
   none of its figures are used.
4. With --trace 1, two more launches run with span probes installed; the
   per-layer metrics come from them, and their call counts must agree.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics (end-to-end metrics with --trace 0,
per-layer metrics with --trace 1), each metric a median over the run's
launches. A full record, stamped with the commit, nproc and the Python,
numpy and scipy versions, is written to .perfbench_out/<workload>/.
Exit code 0 only when every launch succeeded and every check held.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from decimal import Decimal
from pathlib import Path
from typing import Iterable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"
SPEC_FILE = HERE / "workloads.json"
BENCHMARK_FILE = ROOT / "BENCHMARK.json"

sys.path.insert(0, str(HERE))
from child import PROBES  # noqa: E402

SIMULATE_OUTPUTS = ("report.json", "payoff_table.csv", "metrics.csv", "outcomes.csv")
#: Fewest timed launches per run, so the reported median is not one sample.
MIN_SAMPLES = 3
#: Fewest set-up samples per run. Set-up is a short, noisy share of a
#: launch, so launches that stop once the inputs are ready top it up.
SETUP_SAMPLES = 21
#: No new launch starts after this many seconds of a run, whatever
#: --seconds asks, so that a run ends well within three minutes.
HARD_STOP_S = 100.0
CHILD_TIMEOUT_S = 150.0
TRACED_LAUNCHES = 2
#: Half a unit in the 18th decimal: the most one quantization can move a value.
HALF_QUANTUM = Decimal("0.5e-18")
#: Payoff-row fields that analyze recomputes from the quantized per-event
#: payoffs in outcomes.csv (known defect). Mean and population std move by
#: at most the largest input change (half a quantum), and each side rounds
#: once more, so the two results lie within 1.5 quanta: one unit in the
#: last place on the 18-digit grid.
DRIFTING_PAYOFF_FIELDS = ("mean_payoff", "std_payoff")
PAYOFF_TOLERANCE = Decimal("1e-18")

_SPAN_NAMES = frozenset(name for _, _, name in PROBES)


class BenchError(Exception):
    """The benchmark cannot run here (missing program, bad arguments)."""


def load_spec() -> dict:
    return json.loads(SPEC_FILE.read_text(encoding="utf-8"))


def workload_spec(name: str) -> dict:
    spec = load_spec()
    for group in ("workloads", "smoke_workloads"):
        if name in spec[group]:
            return spec[group][name]
    raise BenchError(f"unknown workload {name!r}")


def _import_miqado():
    """The program under test, imported from the checkout for the
    invariant checks and the analyze set-up."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import miqado.cli
    import miqado.sim

    if not Path(miqado.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"miqado imported from {miqado.cli.__file__}, not from {SRC}")
    return miqado.cli, miqado.sim


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def stamp() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            check=False,
        )
        commit = proc.stdout.strip() or None
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **versions,
    }


# ---------------------------------------------------------------------------
# Launching one CLI process


def launch(
    cli_args: list[str], run_dir: Path, tag: str, spans: bool = False, setup_only: bool = False
) -> dict:
    """Run child.py once and wait for it. Returns wall time, the child's
    marks (CLOCK_MONOTONIC, comparable with this process's clock), its
    peak RSS and exit code."""
    marks_path = run_dir / f"{tag}.marks.json"
    stdout_path = run_dir / f"{tag}.stdout"
    stderr_path = run_dir / f"{tag}.stderr"
    spans_path = run_dir / f"{tag}.spans.tsv"
    for p in (marks_path, spans_path):
        p.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--src", str(SRC), "--marks", str(marks_path)]
    if spans:
        cmd += ["--spans", str(spans_path), "--run-id", tag]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--", *cli_args]
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            t_exit = time.monotonic()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    marks = json.loads(marks_path.read_text()) if marks_path.exists() else {}
    return {
        "t0": t0,
        "wall_s": t_exit - t0,
        "setup_s": marks["inputs_ready"] - t0 if "inputs_ready" in marks else None,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "rc": proc.returncode,
        "marks": marks,
        "stdout": stdout_path,
        "stderr": stderr_path,
        "spans": spans_path if spans else None,
    }


# ---------------------------------------------------------------------------
# Output checks


def _compare_payoff_tables(got: list[dict], want: list[dict]) -> tuple[list[str], Decimal]:
    """analyze's payoff rows against simulate's. Returns (problems, the
    largest mean/std difference)."""
    if [(r["premium_factor"], r["term_seconds"]) for r in got] != [
        (r["premium_factor"], r["term_seconds"]) for r in want
    ]:
        return ["analyze payoff_table has other cells than report.json's"], Decimal(0)
    problems, worst = [], Decimal(0)
    for g, w in zip(got, want):
        where = f"payoff row ({w['premium_factor']}, {w['term_seconds']})"
        for key in sorted(set(g) | set(w)):
            if key in DRIFTING_PAYOFF_FIELDS:
                diff = abs(Decimal(g[key]) - Decimal(w[key]))
                worst = max(worst, diff)
                if diff > PAYOFF_TOLERANCE:
                    problems.append(f"{where}: {key} {g[key]} != {w[key]}")
            elif g.get(key) != w.get(key):
                problems.append(f"{where}: {key} {g.get(key)} != {w.get(key)}")
    return problems, worst


def _invariants(
    report: dict, summary: dict, n_events: int, n_cells: int, n_rows: int
) -> tuple[list[str], dict]:
    """Cross-checks between simulate's report.json and analyze's summary
    of outcomes.csv. Returns (problems, known-defect measurements)."""
    problems = []
    cells = report["cells"]
    if len(cells) != n_cells:
        problems.append(f"report has {len(cells)} cells, expected {n_cells}")
    for cell in cells:
        rep = cell["report"]
        where = f"cell ({cell['premium_factor']}, {cell['term_seconds']})"
        if rep["n_events"] != n_events:
            problems.append(f"{where}: n_events {rep['n_events']}, expected {n_events}")
        if sum(rep["class_counts"].values()) != rep["n_events"]:
            problems.append(f"{where}: class counts do not sum to n_events")
    if n_rows != n_events * n_cells:
        problems.append(f"outcomes has {n_rows} rows, expected {n_events * n_cells}")
    found, payoff_drift = _compare_payoff_tables(summary["payoff_table"], report["payoff_table"])
    problems += found
    restraint = sum((Decimal(c["report"]["collateral_restraint_usd"]) for c in cells), Decimal(0))
    if Decimal(summary["collateral_restraint_usd"]) != restraint:
        problems.append(
            f"restraint total {summary['collateral_restraint_usd']} != sum of cells {restraint}"
        )
    # Known defect: analyze sums per-event values that outcomes.csv already
    # quantized, so each row may be off by half a quantum, and each cell
    # total by another half.
    release = sum((Decimal(c["report"]["collateral_release_usd"]) for c in cells), Decimal(0))
    release_drift = Decimal(summary["collateral_release_usd"]) - release
    if abs(release_drift) > (n_rows + len(cells)) * HALF_QUANTUM:
        problems.append(f"release total drifts by {release_drift}, beyond the quantization bound")
    return problems, {"release_drift": str(release_drift), "payoff_drift": str(payoff_drift)}


def check_simulate(out_dir: Path, ctx: dict) -> dict:
    digests, problems, blobs = {}, [], {}
    for name in SIMULATE_OUTPUTS:
        path = out_dir / name
        if not path.exists():
            problems.append(f"missing {name}")
            continue
        blobs[name] = path.read_bytes()
        digests[name] = sha256(blobs[name])
    defects = {}
    if not problems:
        _, sim = _import_miqado()
        rows = sim.load_outcomes_csv(blobs["outcomes.csv"])
        summary = sim.aggregate_outcome_rows(rows)
        report = json.loads(blobs["report.json"])
        found, defects = _invariants(report, summary, ctx["n_events"], ctx["n_cells"], len(rows))
        problems += found
    written = sum(map(len, blobs.values()))
    return _finish_check(digests, problems, defects, ctx, bytes_written=written)


def check_analyze(stdout_path: Path, ctx: dict) -> dict:
    data = stdout_path.read_bytes()
    digests = {"stdout": sha256(data)}
    problems, defects = [], {}
    try:
        summary = json.loads(data)
    except ValueError:
        problems.append("analyze stdout is not JSON")
    else:
        if summary.get("n_events") != ctx["n_events"]:
            problems.append(
                f"analyze n_events {summary.get('n_events')}, expected {ctx['n_events']}"
            )
        found, defects = _invariants(
            ctx["source_report"], summary, ctx["n_events"], ctx["n_cells"], ctx["n_rows"]
        )
        problems += found
    return _finish_check(digests, problems, defects, ctx, bytes_written=len(data))


def _finish_check(
    digests: dict, problems: list[str], defects: dict, ctx: dict, bytes_written: int
) -> dict:
    pins = ctx["pins"]
    if pins is not None:
        for name, want in pins.items():
            if digests.get(name) != want:
                problems.append(f"{name} sha256 {digests.get(name)} != pinned {want}")
    if ctx.get("reference") is None:
        ctx["reference"] = digests
    elif digests != ctx["reference"]:
        problems.append("outputs differ from the run's first launch")
    return {
        "digests": digests,
        "problems": problems,
        "defects": defects,
        "bytes_written": bytes_written,
    }


# ---------------------------------------------------------------------------
# Workload set-up


def prepare(wl: dict, seed: int, run_dir: Path) -> dict:
    """Untimed set-up. Returns the check context and the CLI arguments."""
    ctx = {"pins": wl["pins"].get(str(seed)), "reference": None}
    if wl["command"] == "simulate":
        config = wl["config"]
        config_path = run_dir / "config.json"
        config_path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
        out_dir = run_dir / "out"
        ctx.update(
            n_events=config["events"]["synthetic"]["count"],
            n_cells=len(config["sweep"]["lambdas"]) * len(config["sweep"]["terms_hours"]),
            out_dir=out_dir,
            cli_args=[
                "simulate", "--config", str(config_path), "--out", str(out_dir),
                "--seed", str(seed),
            ],
        )
        return ctx

    source = workload_spec(wl["inputs_from"])
    source_dir = run_dir / "source"
    source_dir.mkdir()
    src_ctx = prepare(source, seed, source_dir)
    result = launch(src_ctx["cli_args"], source_dir, "build")
    if result["rc"] != 0:
        raise BenchError(f"set-up simulate failed: {result['stderr'].read_text()[-2000:]}")
    check = check_simulate(src_ctx["out_dir"], src_ctx)
    if check["problems"]:
        raise BenchError(f"set-up simulate outputs are wrong: {check['problems']}")
    cli, sim = _import_miqado()
    events = cli.load_config(source_dir / "config.json", seed_override=seed).events
    events_path = run_dir / "events.csv"
    events_path.write_text(sim.serialize_events_csv(events), encoding="utf-8")
    outcomes_path = src_ctx["out_dir"] / "outcomes.csv"
    ctx.update(
        n_events=src_ctx["n_events"],
        n_cells=src_ctx["n_cells"],
        n_rows=src_ctx["n_events"] * src_ctx["n_cells"],
        source_report=json.loads((src_ctx["out_dir"] / "report.json").read_text()),
        cli_args=["analyze", "--events", str(events_path), "--outcomes", str(outcomes_path)],
    )
    return ctx


def run_checked(
    ctx: dict, run_dir: Path, tag: str, spans: bool = False, setup_only: bool = False
) -> dict:
    """One launch plus its output check. A set-up-only launch writes no
    outputs; it must exit 0 after marking its inputs ready."""
    if "out_dir" in ctx and not setup_only:
        shutil.rmtree(ctx["out_dir"], ignore_errors=True)
    result = launch(ctx["cli_args"], run_dir, tag, spans=spans, setup_only=setup_only)
    if result["rc"] != 0:
        tail = result["stderr"].read_text(errors="replace")[-2000:]
        result["check"] = {"problems": [f"exit code {result['rc']}: {tail}"], "digests": {}}
    elif result["setup_s"] is None:
        result["check"] = {"problems": ["child wrote no inputs_ready mark"], "digests": {}}
    elif setup_only:
        result["check"] = {"problems": [], "digests": {}}
    elif "out_dir" in ctx:
        result["check"] = check_simulate(ctx["out_dir"], ctx)
    else:
        result["check"] = check_analyze(result["stdout"], ctx)
    result["ok"] = not result["check"]["problems"]
    return result


# ---------------------------------------------------------------------------
# Metrics


def end_to_end(results: list[dict], setups: list[dict], ctx: dict) -> dict[str, list[float]]:
    """Per-launch samples of every end-to-end metric; set-up time also
    from the set-up-only launches."""
    cells = ctx["n_events"] * ctx["n_cells"]
    return {
        "wall_s": [r["wall_s"] for r in results],
        "setup_s": [r["setup_s"] for r in results + setups],
        "event_cells_per_s": [cells / (r["wall_s"] - r["setup_s"]) for r in results],
        "peak_rss_mb": [r["peak_rss_mb"] for r in results],
    }


def span_table(lines: Iterable[str]) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds, self seconds and the list
    of inclusive durations, from the span lines child.py writes. A span
    follows its children, so one pass finds the time they cover."""
    child_time: dict[str, float] = {}
    table: dict[str, dict] = {}
    for line in lines:
        span_id, name, start, end, parent = line.rstrip("\n").split("\t")
        duration = float(end) - float(start)
        row = table.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []})
        row["calls"] += 1
        row["s"] += duration
        row["self_s"] += duration - child_time.pop(span_id, 0.0)
        row["durations"].append(duration)
        if parent != "-1":
            child_time[parent] = child_time.get(parent, 0.0) + duration
    return table


def layer_metrics(result: dict, names: list[str]) -> dict[str, float]:
    """Every requested per-layer metric of one traced launch."""
    with open(result["spans"], encoding="utf-8") as fh:
        next(fh)  # run_id
        table = span_table(fh)
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []}

    def row(span: str) -> dict:
        if span not in _SPAN_NAMES:
            raise BenchError(f"metric refers to unknown span {span!r}")
        return table.get(span, empty)

    marks = result["marks"]
    out: dict[str, float] = {}
    for name in names:
        layer, _, metric = name.partition(".")
        if name == "cli.startup_s":
            value = marks["start"] - result["t0"]
        elif name == "cli.import_s":
            value = marks["imported"] - marks["start"]
        elif name == "cli.bytes_written":
            value = result["check"]["bytes_written"]
        elif name == "protocol.engage_ratio":
            asked = row("protocol.can_initiate")["calls"]
            value = row("protocol.initiate")["calls"] / asked if asked else 0.0
        elif name == "trace.overhead_s":
            continue  # needs the untraced launches; filled in by the caller
        elif metric == "self_s":
            value = sum(r["self_s"] for n, r in table.items() if n.startswith(layer + "."))
        elif name.endswith(("_p50_s", "_max_s")):
            durations = row(name[: -len("_p50_s")])["durations"]
            pick = statistics.median if name.endswith("_p50_s") else max
            value = pick(durations) if durations else 0.0
        elif name.endswith("_calls"):
            value = row(name[: -len("_calls")])["calls"]
        elif name.endswith("_self_s"):
            value = row(name[: -len("_self_s")])["self_s"]
        elif name.endswith("_s"):
            value = row(name[: -len("_s")])["s"]
        else:
            raise BenchError(f"no rule computes per-layer metric {name!r}")
        out[name] = value
    return out


def differing_counts(per_launch: list[dict[str, float]]) -> list[str]:
    """Problems for every *_calls count that is not the same in all traced
    launches of a run; claims based on counts rely on them repeating."""
    problems = []
    for name in per_launch[0]:
        if name.endswith("_calls"):
            counts = {pl[name] for pl in per_launch}
            if len(counts) != 1:
                problems.append(f"{name} differs between traced launches: {sorted(counts)}")
    return problems


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


# ---------------------------------------------------------------------------
# One run


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    min_samples: int = MIN_SAMPLES,
    setup_samples: int = SETUP_SAMPLES,
) -> dict:
    """Set up, run the timed loop (and the traced launches), check every
    launch, and return the full record of the run."""
    if not (SRC / "miqado" / "cli.py").is_file():
        raise BenchError(f"no program to benchmark: {SRC / 'miqado' / 'cli.py'} is missing")
    bench = json.loads(BENCHMARK_FILE.read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    wl = workload_spec(workload)
    run_dir = WORK / workload
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    compileall.compile_dir(str(SRC), quiet=1)

    t_setup = time.monotonic()
    ctx = prepare(wl, seed, run_dir)
    harness_setup_s = time.monotonic() - t_setup

    launches: list[dict] = []
    t_begin = time.monotonic()
    while True:
        launches.append(run_checked(ctx, run_dir, f"timed-{len(launches)}"))
        elapsed = time.monotonic() - t_begin
        typical = statistics.median([r["wall_s"] for r in launches])
        if elapsed + typical > HARD_STOP_S:
            break
        if len(launches) >= min_samples and elapsed + typical > seconds:
            break

    setups: list[dict] = []
    while len(launches) + len(setups) < setup_samples and time.monotonic() - t_begin < HARD_STOP_S:
        setups.append(run_checked(ctx, run_dir, f"setup-{len(setups)}", setup_only=True))

    traced: list[dict] = []
    if trace:
        for k in range(TRACED_LAUNCHES):
            traced.append(run_checked(ctx, run_dir, f"traced-{k}", spans=True))

    every = launches + setups + traced
    good = [r for r in launches if r["ok"]]
    good_traced = [r for r in traced if r["ok"]]
    problems = [p for r in every for p in r["check"]["problems"]]

    samples = end_to_end(good, [r for r in setups if r["ok"]], ctx) if good else {}
    metrics: dict[str, dict] = {}
    if not trace and good:
        for m in bench["end_to_end"]:
            name = m["name"]
            metrics[name] = {"value": statistics.median(samples[name]), "unit": units[name]}
    elif trace and good and len(good_traced) == len(traced):
        names = [m["name"] for m in bench["per_layer"]]
        per_launch = [layer_metrics(r, names) for r in good_traced]
        problems += differing_counts(per_launch)
        traced_wall = statistics.median([r["wall_s"] for r in good_traced])
        overhead = traced_wall - statistics.median(samples["wall_s"])
        for name in names:
            if name == "trace.overhead_s":
                value = overhead
            else:
                value = statistics.median([pl[name] for pl in per_launch])
            metrics[name] = {"value": value, "unit": units[name]}

    attempted = len(every)
    failed = sum(1 for r in every if not r["ok"])
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "stamp": stamp(),
        "harness_setup_s": harness_setup_s,
        "pinned": ctx["pins"] is not None,
        "correct": not problems and bool(good) and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "failed_fraction": failed / attempted,
        "problems": problems,
        "samples": samples,
        "units": units,
        "digests": ctx["reference"],
        "known_defects": next((r["check"]["defects"] for r in launches + traced if r["ok"]), None),
        "metrics": metrics,
    }


def report_lines(record: dict) -> list[str]:
    """Human-readable summary: every metric by name, unit and sample count."""
    lines = [f"stamp {json.dumps(record['stamp'], sort_keys=True)}"]
    lines.append(
        f"workload {record['workload']} seed {record['seed']} "
        f"({'pinned digests' if record['pinned'] else 'invariants only'}); "
        f"set-up {record['harness_setup_s']:.3f} s; "
        f"failed_fraction {record['failed_fraction']:.3g} "
        f"({record['failed']}/{record['attempted']}); "
        f"known defects {record['known_defects']}"
    )
    for name, values in record["samples"].items():
        lo, hi = _quartiles(values)
        lines.append(
            f"  {name:<22} median {statistics.median(values):.6g} {record['units'][name]}"
            f"  q1 {lo:.6g}  q3 {hi:.6g}  n={len(values)}"
        )
    for name, m in record["metrics"].items():
        if name not in record["samples"]:
            lines.append(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    for p in record["problems"]:
        lines.append(f"PROBLEM {p}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, help="default: the workload's default seed")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        wl = workload_spec(args.workload)
        seed = wl["default_seed"] if args.seed is None else args.seed
        record = run(args.workload, seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    (WORK / args.workload / "result.json").write_text(
        json.dumps(record, indent=2, default=str) + "\n", encoding="utf-8"
    )
    for line in report_lines(record):
        print(line)
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": record["metrics"],
            }
        )
    )
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
