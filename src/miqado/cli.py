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
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from pathlib import Path

from .core import Amount, FslParams, Price, to_decimal
from .errors import ConfigError, MiqadoError
from .market import CpAmmPool, GbmParams, PricePath, generate_gbm, load_price_csv, serialize_price_csv
from .option import BsInputs, bs_call_price, optimal_premium_factor
from .protocol import MiqadoParams
from .sim import (
    LiquidationEvent,
    Regime,
    Scenario,
    SweepResult,
    load_events_csv,
    load_outcomes_csv,
    aggregate_outcome_rows,
    outcome_rows_from_report,
    report_to_json,
    run_sweep,
    serialize_outcomes_csv,
    synthesize_events,
)

PAYOFF_TABLE_CSV_HEADER = (
    "premium_factor,term_seconds,n,p_exercise_profit,p_exercise_loss,p_default,"
    "mean_payoff,std_payoff"
)
METRICS_CSV_HEADER = (
    "premium_factor,term_seconds,n_events,collateral_release_usd,"
    "collateral_restraint_usd,fsl_baseline_release_usd,release_reduction,"
    "healthy_fraction_fsl,healthy_fraction_miqado,"
    "n_fsl,n_ineligible,n_declined,n_terminated,n_exercise_profit,"
    "n_exercise_loss,n_default"
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


def _write_atomic(path: Path, data: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(data, encoding="utf-8")
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# price


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
        collateral = Amount.collateral(to_decimal(args.collateral))
        if collateral.is_zero():
            raise ValueError("--collateral must be > 0")
    except (ValueError, InvalidOperation) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    price = bs_call_price(inputs)
    lam_star = optimal_premium_factor(
        Price(to_decimal(args.spot)),
        collateral,
        strike=args.strike,
        domestic_rate=args.rate,
        foreign_rate=args.foreign_rate,
        sigma=args.sigma,
        term=args.term,
    )
    print(f"call_price {price:.10g}")
    print(f"lambda_star {lam_star:.10g}")
    return 0


# ---------------------------------------------------------------------------
# gbm


def cmd_gbm(args: argparse.Namespace) -> int:
    try:
        params = GbmParams(
            p0=Price(to_decimal(args.p0)),
            mu=args.mu,
            sigma=args.sigma,
            dt=args.dt,
            steps=args.steps,
            seed=args.seed,
            start_ts=args.start_ts,
        )
    except (ValueError, InvalidOperation) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(serialize_price_csv(generate_gbm(params)))
    return 0


# ---------------------------------------------------------------------------
# simulate


@dataclass
class RunConfig:
    seed: int
    regime: Regime
    fsl: FslParams
    miqado: MiqadoParams
    sweep_lambdas: list[Decimal]
    sweep_terms_seconds: list[int]
    sold_fraction: Decimal
    supporter_gate: bool
    foreign_rate: float
    sigma_override: float | None
    path: PricePath
    events: list[LiquidationEvent]


def _require(raw: dict, key: str, where: str = ""):
    if key not in raw:
        raise ConfigError("missing required field", field=f"{where}{key}")
    return raw[key]


def _finite_decimal(value, field: str) -> Decimal:
    """A config number as a Decimal; anything else names the field."""
    try:
        number = to_decimal(value)
    except (TypeError, ValueError):
        raise ConfigError(f"expected a number, got {value!r}", field=field) from None
    if not number.is_finite():
        raise ConfigError(f"expected a finite number, got {value!r}", field=field)
    return number


def load_config(config_path: Path, seed_override: int | None = None) -> RunConfig:
    if not config_path.exists():
        raise ConfigError(f"no such file: {config_path}", field="config")
    try:
        raw = json.loads(config_path.read_text(encoding="utf-8"), parse_float=Decimal)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON: {exc}", field="config") from exc
    base = config_path.parent

    if raw.get("schema_version") != 1:
        raise ConfigError("expected 1", field="schema_version")
    seed = seed_override
    if seed is None:
        try:
            seed = int(raw.get("seed", 0))
        except (TypeError, ValueError, ArithmeticError):
            raise ConfigError(f"expected an integer, got {raw['seed']!r}", field="seed") from None

    regime_name = _require(raw, "regime")
    try:
        regime = Regime(regime_name)
    except ValueError:
        raise ConfigError(f"unknown regime {regime_name!r}", field="regime") from None

    fsl_raw = _require(raw, "fsl")
    try:
        fsl = FslParams(
            theta=to_decimal(_require(fsl_raw, "theta", "fsl.")),
            close_factor=to_decimal(_require(fsl_raw, "close_factor", "fsl.")),
            spread=to_decimal(_require(fsl_raw, "spread", "fsl.")),
        )
    except ValueError as exc:
        raise ConfigError(str(exc), field="fsl") from exc

    sweep_raw = _require(raw, "sweep")
    lambdas = [
        _finite_decimal(v, "sweep.lambdas") for v in _require(sweep_raw, "lambdas", "sweep.")
    ]
    terms_hours = _require(sweep_raw, "terms_hours", "sweep.")
    if not lambdas or not terms_hours:
        raise ConfigError("sweep lists must be non-empty", field="sweep")
    terms_seconds = [int(_finite_decimal(h, "sweep.terms_hours") * 3600) for h in terms_hours]
    if min(lambdas) <= 0:
        raise ConfigError("premium factors must be > 0", field="sweep.lambdas")
    if min(terms_seconds) <= 0:
        raise ConfigError("terms must be at least one second", field="sweep.terms_hours")

    miq_raw = _require(raw, "miqado")
    rescue = miq_raw.get("rescue_above_hf")
    try:
        miqado = MiqadoParams(
            premium_factor=lambdas[0],
            term_seconds=terms_seconds[0],
            k_re=to_decimal(_require(miq_raw, "k_re", "miqado.")),
            buffer=to_decimal(miq_raw.get("buffer", 0)),
            rescue_above_hf=None if rescue is None else to_decimal(rescue),
        )
    except ValueError as exc:
        raise ConfigError(str(exc), field="miqado") from exc

    path_raw = _require(raw, "path")
    if "csv" in path_raw:
        csv_file = base / str(path_raw["csv"])
        if not csv_file.exists():
            raise ConfigError(f"no such file: {csv_file}", field="path.csv")
        path = load_price_csv(csv_file.read_bytes())
    elif "gbm" in path_raw:
        g = path_raw["gbm"]
        try:
            path = generate_gbm(
                GbmParams(
                    p0=Price(to_decimal(_require(g, "p0", "path.gbm."))),
                    mu=float(_require(g, "mu", "path.gbm.")),
                    sigma=float(_require(g, "sigma", "path.gbm.")),
                    dt=float(_require(g, "dt_years", "path.gbm.")),
                    steps=int(_require(g, "steps", "path.gbm.")),
                    seed=int(g.get("seed", seed + 1)),
                    start_ts=int(g.get("start_ts", 0)),
                )
            )
        except ValueError as exc:
            raise ConfigError(str(exc), field="path.gbm") from exc
    else:
        raise ConfigError("need either 'csv' or 'gbm'", field="path")

    pool = None
    if raw.get("pool") is not None:
        p = raw["pool"]
        try:
            pool = CpAmmPool(
                reserve_quote=to_decimal(_require(p, "reserve_quote", "pool.")),
                reserve_base=to_decimal(_require(p, "reserve_base", "pool.")),
                fee=to_decimal(p.get("fee", "0.003")),
            )
        except ValueError as exc:
            raise ConfigError(str(exc), field="pool") from exc

    events_raw = _require(raw, "events")
    if "csv" in events_raw:
        csv_file = base / str(events_raw["csv"])
        if not csv_file.exists():
            raise ConfigError(f"no such file: {csv_file}", field="events.csv")
        events = load_events_csv(csv_file.read_bytes())
        if pool is not None:
            for ev in events:
                ev.amm_pool = pool.copy()
    elif "synthetic" in events_raw:
        syn = events_raw["synthetic"]
        try:
            events = synthesize_events(
                path,
                theta=fsl.theta,
                count=int(_require(syn, "count", "events.synthetic.")),
                seed=int(syn.get("seed", seed + 2)),
                hf_band=tuple(syn.get("hf_band", ("0.90", "0.9999"))),
                collateral=to_decimal(syn.get("collateral", 1)),
                borrow_rate=to_decimal(syn.get("borrow_rate", "0.05")),
                max_term_seconds=max(terms_seconds),
                amm_pool=pool,
            )
        except ValueError as exc:
            raise ConfigError(str(exc), field="events.synthetic") from exc
    else:
        raise ConfigError("need either 'csv' or 'synthetic'", field="events")

    sold_fraction = _finite_decimal(raw.get("sold_fraction", 1), "sold_fraction")
    if not 0 <= sold_fraction <= 1:
        raise ConfigError(f"must lie in [0, 1], got {sold_fraction}", field="sold_fraction")
    supporter_gate = raw.get("supporter_gate", True)
    if not isinstance(supporter_gate, bool):
        raise ConfigError(
            f"expected true or false, got {supporter_gate!r}", field="supporter_gate"
        )

    sigma_override = raw.get("sigma_override")
    return RunConfig(
        seed=seed,
        regime=regime,
        fsl=fsl,
        miqado=miqado,
        sweep_lambdas=lambdas,
        sweep_terms_seconds=terms_seconds,
        sold_fraction=sold_fraction,
        supporter_gate=supporter_gate,
        foreign_rate=float(raw.get("foreign_rate", 0)),
        sigma_override=None if sigma_override is None else float(sigma_override),
        path=path,
        events=events,
    )


def _payoff_table_csv(sweep: SweepResult) -> str:
    lines = [PAYOFF_TABLE_CSV_HEADER]
    for row in sweep.payoff_rows:
        lines.append(
            f"{row.premium_factor},{row.term_seconds},{row.n},"
            f"{row.p_exercise_profit},{row.p_exercise_loss},{row.p_default},"
            f"{row.mean_payoff},{row.std_payoff}"
        )
    return "\n".join(lines) + "\n"


def _metrics_csv(sweep: SweepResult) -> str:
    lines = [METRICS_CSV_HEADER]
    for lam, term, rep in sweep.cells:
        d = rep.to_json_dict()
        counts = rep.class_counts
        lines.append(
            ",".join(
                [
                    str(lam),
                    str(term),
                    str(rep.n_events),
                    d["collateral_release_usd"],
                    d["collateral_restraint_usd"],
                    d["fsl_baseline_release_usd"],
                    d["release_reduction"] if d["release_reduction"] is not None else "",
                    d["healthy_fraction_fsl"],
                    d["healthy_fraction_miqado"],
                    str(counts.get("fsl", 0)),
                    str(counts.get("ineligible", 0)),
                    str(counts.get("declined", 0)),
                    str(counts.get("terminated", 0)),
                    str(counts.get("exercise_profit", 0)),
                    str(counts.get("exercise_loss", 0)),
                    str(counts.get("default", 0)),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def cmd_simulate(args: argparse.Namespace) -> int:
    config = load_config(Path(args.config), seed_override=args.seed)
    scenario = Scenario(
        events=config.events,
        path=config.path,
        fsl=config.fsl,
        miqado=config.miqado,
        regime=config.regime,
        sold_fraction=config.sold_fraction,
        supporter_gate=config.supporter_gate,
        foreign_rate=config.foreign_rate,
        sigma_override=config.sigma_override,
    )
    sweep = run_sweep(scenario, config.sweep_lambdas, config.sweep_terms_seconds)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = sweep.to_json_dict()
    payload["seed"] = config.seed
    _write_atomic(out_dir / "report.json", report_to_json(payload))
    _write_atomic(out_dir / "payoff_table.csv", _payoff_table_csv(sweep))
    _write_atomic(out_dir / "metrics.csv", _metrics_csv(sweep))
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
    p_price.add_argument("--spot", type=_finite_float, required=True)
    p_price.add_argument("--strike", type=_finite_float, required=True)
    p_price.add_argument("--rate", type=_finite_float, default=0.0, help="domestic (borrow) rate")
    p_price.add_argument("--foreign-rate", type=_finite_float, default=0.0)
    p_price.add_argument("--sigma", type=_finite_float, required=True)
    p_price.add_argument("--term", type=_finite_float, required=True, help="years")
    p_price.add_argument("--collateral", type=str, default="1")
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
    try:
        return args.func(args)
    except MiqadoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
