"""Command-line front end: `price`, `gbm`, `simulate`, `analyze`.

Exit codes: 0 success, 2 usage (bad flags or flag values), 1 runtime
(missing files, malformed inputs, engine errors). All report files are
written atomically (temp file then rename) and are deterministic
functions of (config, seed).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import astuple, dataclass, fields, replace
from decimal import Decimal, InvalidOperation
from pathlib import Path

from .core import LEDGER, Amount, FslParams, Price, csv_decimal, to_decimal, write_csv
from .errors import ConfigError, MiqadoError
from .market import CpAmmPool, GbmParams, generate_gbm, load_price_csv, serialize_price_csv
from .option import BsInputs, ModelInputError, bs_call_price, optimal_premium_factor
from .protocol import MiqadoParams
from .sim import (
    _CLASSES,
    PayoffRow,
    Regime,
    Scenario,
    SweepResult,
    load_events_csv,
    load_outcomes_csv,
    aggregate_outcome_rows,
    check_sweep_axis,
    outcome_rows_from_report,
    report_to_json,
    run_sweep,
    serialize_outcomes_csv,
    synthesize_events,
)

#: payoff_table.csv has one column per PayoffRow field, in field order.
PAYOFF_TABLE_CSV_HEADER = ",".join(f.name for f in fields(PayoffRow))
#: The metrics.csv columns that copy a cell report's JSON field of the
#: same name; the cell's grid values come first, its class counts last.
_METRICS_REPORT_FIELDS = (
    "n_events", "collateral_release_usd", "collateral_restraint_usd", "fsl_baseline_release_usd",
    "release_reduction", "healthy_fraction_fsl", "healthy_fraction_miqado",
)
METRICS_CSV_HEADER = ",".join(
    ["premium_factor", "term_seconds", *_METRICS_REPORT_FIELDS, *(f"n_{c}" for c in _CLASSES)]
)


def _finite_float(text: str) -> float:
    """argparse type of the float flags: NaN and infinities are usage errors."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _positive_flag(text: str, flag: str) -> Decimal:
    """A decimal flag by the config number rule and > 0, else a ValueError naming it."""
    try:
        value = _as_number(text, flag)
    except ConfigError as exc:
        raise ValueError(str(exc)) from None
    if value <= 0:
        raise ValueError(f"{flag}: expected a number > 0, got {text}")
    return value


def _write_atomic(path: Path, data: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(data, encoding="utf-8")
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# price

#: The `price` flag that sets each model input.
_PRICE_FLAGS = {
    "spot": "--spot", "strike": "--strike", "domestic_rate": "--rate",
    "foreign_rate": "--foreign-rate", "volatility": "--sigma", "term": "--term",
    "collateral": "--collateral",
}


def cmd_price(args: argparse.Namespace) -> int:
    try:
        inputs = BsInputs(
            spot=args.spot,
            strike=args.strike,
            domestic_rate=args.rate,
            foreign_rate=args.foreign_rate,
            volatility=args.sigma,
            term=args.term,
        )
        collateral = Amount.collateral(_positive_flag(args.collateral, "--collateral"))
        lam_star = optimal_premium_factor(
            Price(to_decimal(args.spot)),
            collateral,
            strike=args.strike,
            domestic_rate=args.rate,
            foreign_rate=args.foreign_rate,
            sigma=args.sigma,
            term=args.term,
        )
        # The call that λ* prices: spot·collateral against the whole debt.
        price = bs_call_price(replace(inputs, spot=args.spot * float(collateral.value)))
    except ModelInputError as exc:
        print(f"usage error: {exc.naming(_PRICE_FLAGS)}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    print(f"call_price {price:.10g}")
    print(f"lambda_star {lam_star:.10g}")
    return 0


# ---------------------------------------------------------------------------
# gbm


def cmd_gbm(args: argparse.Namespace) -> int:
    try:
        params = GbmParams(
            p0=Price(_positive_flag(args.p0, "--p0")),
            mu=args.mu,
            sigma=args.sigma,
            dt=args.dt,
            steps=args.steps,
            seed=args.seed,
            start_ts=args.start_ts,
        )
        path = generate_gbm(params)
    except (ValueError, InvalidOperation) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(serialize_price_csv(path))
    return 0


# ---------------------------------------------------------------------------
# simulate


@dataclass(kw_only=True)
class RunConfig(Scenario):
    """The scenario a config file describes, with the run seed and the
    (premium factor, term) grid to sweep it over."""

    seed: int
    sweep_lambdas: list[Decimal]
    sweep_terms_seconds: list[int]


#: Default of a field that has none: the field is required.
_REQUIRED = object()


def _require(raw: dict, key: str, where: str = ""):
    if key not in raw:
        raise ConfigError("missing required field", field=f"{where}{key}")
    return raw[key]


def _section(raw, where: str, keys: tuple[str, ...]) -> dict:
    """`raw` as a JSON object whose fields are all in `keys`; `where` is
    its dotted prefix, empty for the top level."""
    if not isinstance(raw, dict):
        raise ConfigError(f"expected a JSON object, got {raw}", field=where[:-1] or "config")
    for key in raw:
        if key not in keys:
            raise ConfigError("unknown field", field=f"{where}{key}")
    return raw


def _as_number(value, field: str, kind: type = Decimal):
    """A config value as a Decimal, int or float. Numbers and numeric
    strings are accepted; booleans, anything else, NaN, infinities, orders
    of magnitude beyond ±1000 (the CSV cell rule), values outside the
    float range and, for int, values that are not whole name the field."""
    try:
        if isinstance(value, bool) or not isinstance(value, (int, float, str, Decimal)):
            raise ValueError
        number = csv_decimal(str(value))
    except ValueError:
        raise ConfigError(f"expected a number within 1e±1000, got {value}", field=field) from None
    if not math.isfinite(float(number)):
        raise ConfigError(f"expected a number in the float range, got {value}", field=field)
    if kind is int and number != number.to_integral_value():
        raise ConfigError(f"expected a whole number, got {value}", field=field)
    return kind(number)


def _number(section: dict, key: str, where: str, kind: type = Decimal, default=_REQUIRED):
    """section[key] read by `_as_number`. An absent field, or a null one
    whose default is null, gives the default."""
    value = _require(section, key, where) if default is _REQUIRED else section.get(key, default)
    return default if value is default else _as_number(value, f"{where}{key}", kind)


def _numbers(section: dict, key: str, where: str, default=_REQUIRED) -> list[Decimal]:
    """section[key], a non-empty list, with each item read by `_as_number`."""
    values = _require(section, key, where) if default is _REQUIRED else section.get(key, default)
    if not isinstance(values, list) or not values:
        raise ConfigError(f"expected a non-empty list, got {values}", field=f"{where}{key}")
    return [_as_number(v, f"{where}{key}") for v in values]


def _csv(base: Path, section: dict, key: str, where: str) -> bytes:
    """The bytes of the file that section[key] names, relative to `base`."""
    name = section[key]
    if not (isinstance(name, str) and (base / name).is_file()):
        raise ConfigError(f"no such file: {name!r} in {base}", field=f"{where}{key}")
    return (base / name).read_bytes()


def _build(field: str, make, *args, **kwargs):
    """make(*args, **kwargs), reporting its ValueError as a ConfigError
    that names `field`."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc), field=field) from exc


_TOP_KEYS = (
    "schema_version", "seed", "regime", "supporter_gate", "sold_fraction", "foreign_rate",
    "sigma_override", "fsl", "miqado", "sweep", "path", "events", "pool",
)
_FSL_KEYS = ("theta", "close_factor", "spread")


def load_config(config_path: Path, seed_override: int | None = None) -> RunConfig:
    """Read a run config; an unreadable field raises ConfigError naming it."""
    if not config_path.exists():
        raise ConfigError(f"no such file: {config_path}", field="config")
    try:
        loaded = json.loads(config_path.read_text(encoding="utf-8"), parse_float=Decimal)
    except ValueError as exc:  # also bad UTF-8 and over-long integer literals
        raise ConfigError(f"malformed JSON: {exc}", field="config") from exc
    base = config_path.parent
    raw = _section(loaded, "", _TOP_KEYS)
    if _number(raw, "schema_version", "", int) != 1:
        raise ConfigError("expected 1", field="schema_version")
    seed = _number(raw, "seed", "", int, 0)
    if seed < 0:
        raise ConfigError(f"expected a non-negative integer, got {seed}", field="seed")
    if seed_override is not None:
        seed = seed_override
    regime = _build("regime", Regime, _require(raw, "regime"))

    fsl_raw = _section(_require(raw, "fsl"), "fsl.", _FSL_KEYS)
    fsl = _build("fsl", FslParams, *(_number(fsl_raw, k, "fsl.") for k in _FSL_KEYS))

    sweep_raw = _section(_require(raw, "sweep"), "sweep.", ("lambdas", "terms_hours"))
    lambdas = _numbers(sweep_raw, "lambdas", "sweep.")
    _build("sweep.lambdas", check_sweep_axis, lambdas)
    terms_seconds = [
        _as_number(LEDGER.multiply(h, 3600), "sweep.terms_hours (in seconds)", int)
        for h in _numbers(sweep_raw, "terms_hours", "sweep.")
    ]
    _build("sweep.terms_hours", check_sweep_axis, terms_seconds)

    miq_raw = _section(_require(raw, "miqado"), "miqado.", ("k_re", "buffer", "rescue_above_hf"))
    miqado = _build(
        "miqado",
        MiqadoParams,
        k_re=_number(miq_raw, "k_re", "miqado."),
        buffer=_number(miq_raw, "buffer", "miqado.", Decimal, Decimal(0)),
        rescue_above_hf=_number(miq_raw, "rescue_above_hf", "miqado.", Decimal, None),
    )

    path_raw = _section(_require(raw, "path"), "path.", ("csv", "gbm"))
    if len(path_raw) != 1:
        raise ConfigError("need either 'csv' or 'gbm'", field="path")
    if "csv" in path_raw:
        path = load_price_csv(_csv(base, path_raw, "csv", "path."))
    else:
        at = "path.gbm."
        g = _section(
            path_raw["gbm"], at, ("p0", "mu", "sigma", "dt_years", "steps", "seed", "start_ts")
        )
        gbm = _build(
            "path.gbm",
            GbmParams,
            p0=_build("path.gbm.p0", Price, _number(g, "p0", at)),
            mu=_number(g, "mu", at, float),
            sigma=_number(g, "sigma", at, float),
            dt=_number(g, "dt_years", at, float),
            steps=_number(g, "steps", at, int),
            seed=_number(g, "seed", at, int, seed + 1),
            start_ts=_number(g, "start_ts", at, int, 0),
        )
        path = _build("path.gbm", generate_gbm, gbm)

    pool = None
    if raw.get("pool") is not None:
        p = _section(raw["pool"], "pool.", ("reserve_quote", "reserve_base", "fee"))
        pool = _build(
            "pool",
            CpAmmPool,
            reserve_quote=_number(p, "reserve_quote", "pool."),
            reserve_base=_number(p, "reserve_base", "pool."),
            fee=_number(p, "fee", "pool.", Decimal, Decimal("0.003")),
        )

    events_raw = _section(_require(raw, "events"), "events.", ("csv", "synthetic"))
    if len(events_raw) != 1:
        raise ConfigError("need either 'csv' or 'synthetic'", field="events")
    if "csv" in events_raw:
        events = load_events_csv(_csv(base, events_raw, "csv", "events."))
    else:
        at = "events.synthetic."
        syn = _section(
            events_raw["synthetic"], at, ("count", "seed", "hf_band", "collateral", "borrow_rate")
        )
        events = _build(
            "events.synthetic",
            synthesize_events,
            path,
            theta=fsl.theta,
            count=_number(syn, "count", at, int),
            seed=_number(syn, "seed", at, int, seed + 2),
            hf_band=tuple(_numbers(syn, "hf_band", at, ["0.90", "0.9999"])),
            collateral=_number(syn, "collateral", at, Decimal, Decimal(1)),
            borrow_rate=_number(syn, "borrow_rate", at, Decimal, Decimal("0.05")),
            max_term_seconds=max(terms_seconds),
        )

    gate = raw.get("supporter_gate", True)
    if not isinstance(gate, bool):
        raise ConfigError(f"expected true or false, got {gate!r}", field="supporter_gate")
    return _build(
        "sold_fraction",
        RunConfig,
        events=events,
        path=path,
        fsl=fsl,
        miqado=miqado,
        regime=regime,
        pool=pool,
        sold_fraction=_number(raw, "sold_fraction", "", Decimal, Decimal(1)),
        supporter_gate=gate,
        foreign_rate=_number(raw, "foreign_rate", "", float, 0.0),
        sigma_override=_number(raw, "sigma_override", "", float, None),
        seed=seed,
        sweep_lambdas=lambdas,
        sweep_terms_seconds=terms_seconds,
    )


def _payoff_table_csv(sweep: SweepResult) -> str:
    return write_csv(PAYOFF_TABLE_CSV_HEADER, map(astuple, sweep.payoff_rows))


def _metrics_csv(cells: list[dict]) -> str:
    """metrics.csv: one row per cell dict of report.json's `cells`."""
    rows = []
    for cell in cells:
        rep = cell["report"]
        values = (rep[key] for key in _METRICS_REPORT_FIELDS)
        counts = (rep["class_counts"].get(c, 0) for c in _CLASSES)
        rows.append([cell["premium_factor"], cell["term_seconds"], *values, *counts])
    return write_csv(METRICS_CSV_HEADER, rows)


def cmd_simulate(args: argparse.Namespace) -> int:
    config = load_config(Path(args.config), seed_override=args.seed)
    sweep = run_sweep(config, config.sweep_lambdas, config.sweep_terms_seconds)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = sweep.to_json_dict()
    payload["seed"] = config.seed
    _write_atomic(out_dir / "report.json", report_to_json(payload))
    _write_atomic(out_dir / "payoff_table.csv", _payoff_table_csv(sweep))
    _write_atomic(out_dir / "metrics.csv", _metrics_csv(payload["cells"]))
    rows = []
    for _, _, rep in sweep.cells:
        rows.extend(outcome_rows_from_report(rep))
    _write_atomic(out_dir / "outcomes.csv", serialize_outcomes_csv(rows))
    print(f"wrote report.json, payoff_table.csv, metrics.csv, outcomes.csv to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# analyze


def cmd_analyze(args: argparse.Namespace) -> int:
    events_path = Path(args.events)
    outcomes_path = Path(args.outcomes)
    for p in (events_path, outcomes_path):
        if not p.exists():
            raise ConfigError(f"no such file: {p}", field="analyze")
    events = load_events_csv(events_path.read_bytes())
    rows = load_outcomes_csv(outcomes_path.read_bytes())
    summary = aggregate_outcome_rows(rows)
    summary["n_events"] = len(events)
    sys.stdout.write(report_to_json(summary))
    return 0


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="miqado",
        description="Simulate liquidation mitigation via reversible call options.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_price = sub.add_parser("price", help="price the takeover option and break-even premium factor")
    p_price.add_argument("--spot", type=_finite_float, required=True, help="per collateral unit")
    p_price.add_argument("--strike", type=_finite_float, required=True, help="the whole debt")
    p_price.add_argument("--rate", type=_finite_float, default=0.0, help="domestic (borrow) rate")
    p_price.add_argument("--foreign-rate", type=_finite_float, default=0.0)
    p_price.add_argument("--sigma", type=_finite_float, required=True)
    p_price.add_argument("--term", type=_finite_float, required=True, help="years")
    p_price.add_argument("--collateral", type=str, default="1", help="units the option buys")
    p_price.set_defaults(func=cmd_price)

    p_gbm = sub.add_parser("gbm", help="emit a synthetic price path as CSV")
    p_gbm.add_argument("--p0", type=str, required=True)
    p_gbm.add_argument("--mu", type=_finite_float, default=0.0)
    p_gbm.add_argument("--sigma", type=_finite_float, required=True)
    p_gbm.add_argument("--dt", type=_finite_float, required=True, help="years per step")
    p_gbm.add_argument("--steps", type=int, required=True)
    p_gbm.add_argument("--seed", type=int, default=0)
    p_gbm.add_argument("--start-ts", type=int, default=0)
    p_gbm.set_defaults(func=cmd_gbm)

    p_sim = sub.add_parser("simulate", help="run a sweep from a JSON config")
    p_sim.add_argument("--config", type=str, required=True)
    p_sim.add_argument("--out", type=str, default="out")
    p_sim.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_sim.set_defaults(func=cmd_simulate)

    p_an = sub.add_parser("analyze", help="recompute metrics from events+outcomes CSVs")
    p_an.add_argument("--events", type=str, required=True)
    p_an.add_argument("--outcomes", type=str, required=True)
    p_an.set_defaults(func=cmd_analyze)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "seed", None) is not None and args.seed < 0:  # gbm and simulate
        print("usage error: --seed must be >= 0", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (MiqadoError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
