"""Scenario engine and stabilization metrics.

Replays liquidation events under three regimes:

* fsl_only: every event is liquidated immediately at the trigger price
  (maximal repayment), optionally followed by an AMM sale of the seized
  collateral (a short liquidation).
* miqado_only: a supporter prices the option, tops the position up, the
  borrower may rescue it during the term, and the option settles at
  maturity. No liquidation ever runs.
* hybrid: support runs first; positions whose supporter defaults (or that
  never attract support) fall through to fixed-spread liquidation.

Events are processed in order and independently: no sale moves the pool or the path.
`run_sweep` decides each fact once, at the stage it depends on: per sweep,
per premium factor (the (1+λ)·HF summary), per event (trigger liquidation,
eligibility), per (event, term) (the gate's break-even factor, the
maturity) or per cell (the session); one scenario is a one-cell sweep.
Everything is a deterministic function of the scenario value, so
identical inputs reproduce identical reports byte for byte.

External formats owned here: the events CSV
(`position_id,debt,collateral,borrow_rate,path_offset`), the per-event
outcomes CSV, and the canonical JSON report (sorted keys, decimals as
strings).
"""

from __future__ import annotations

import copy
import json
import math
import statistics
from bisect import bisect_left, bisect_right
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from decimal import MAX_PREC, Context, Decimal, Inexact, localcontext
from enum import Enum
from fractions import Fraction
from itertools import accumulate
from random import Random
from typing import Iterable, Mapping, Sequence

from .core import (
    SECONDS_PER_YEAR,
    Amount,
    BorrowingPosition,
    FslParams,
    Numeric,
    Price,
    csv_decimal,
    csv_int,
    dec_str,
    execute_fsl,
    fsl_post_health_factor,
    health_factor,
    ledger_context,
    read_csv,
    to_decimal,
    write_csv,
)
from .errors import InsufficientDataError, MiqadoError, ScenarioError
from .market import CpAmmPool, PricePath, direct_price_decline
from .option import ModelInputError, historical_volatility
from .protocol import (
    MiqadoParams,
    SessionState,
    SettlementOutcome,
    can_initiate,
    initiate,
    settle_at_maturity,
    supporter_decision,
    terminate,
)

EVENTS_CSV_HEADER = "position_id,debt,collateral,borrow_rate,path_offset"
OUTCOMES_CSV_HEADER = (
    "event_index,position_id,premium_factor,term_seconds,outcome_class,"
    "supporter_payoff,premium_value,release_usd,restraint_usd,price_decline"
)

#: Settlement classes an event can land in, one per event per regime.
CLASS_FSL = "fsl"
CLASS_INELIGIBLE = "ineligible"
CLASS_DECLINED = "declined"
CLASS_TERMINATED = "terminated"
CLASS_EXERCISE_PROFIT = "exercise_profit"
CLASS_EXERCISE_LOSS = "exercise_loss"
CLASS_DEFAULT = "default"

_MATURITY_CLASSES = (CLASS_EXERCISE_PROFIT, CLASS_EXERCISE_LOSS, CLASS_DEFAULT)
_CLASSES = (CLASS_FSL, CLASS_INELIGIBLE, CLASS_DECLINED, CLASS_TERMINATED, *_MATURITY_CLASSES)

#: Most events `synthesize_events` may draw; bounds its memory and time.
MAX_SYNTHETIC_EVENTS = 100_000


class Regime(Enum):
    FSL_ONLY = "fsl_only"
    MIQADO_ONLY = "miqado_only"
    HYBRID = "hybrid"


@dataclass
class LiquidationEvent:
    """One liquidation trigger: a position snapshot plus the path index at
    which its health factor first dropped below one."""

    position: BorrowingPosition
    path_offset: int


@dataclass
class Scenario:
    """Everything one replay needs. Pure data; running it never mutates it."""

    events: list[LiquidationEvent]
    path: PricePath
    fsl: FslParams
    miqado: MiqadoParams
    regime: Regime
    #: Where liquidators sell seized collateral; each sale is priced on its own copy.
    pool: CpAmmPool | None = None
    sold_fraction: Decimal = Decimal(1)
    #: When true, supporters engage only if the premium factor is at or
    #: below the break-even factor. Payoff-table sweeps switch this off to
    #: tabulate the engage-always assumption.
    supporter_gate: bool = True
    foreign_rate: float = 0.0
    #: Annualized volatility used by the supporter gate; estimated from the
    #: scenario path when not set.
    sigma_override: float | None = None

    def __post_init__(self):
        self.sold_fraction = to_decimal(self.sold_fraction)
        if not 0 <= self.sold_fraction <= 1:
            raise ValueError("sold_fraction must lie in [0, 1]")


@dataclass(frozen=True)
class OutcomeRow:
    """How one event ended in one (premium factor, term) cell: a row of
    outcomes.csv. A report's class counts, release, restraint, price
    declines and payoff rows are folds over its rows.

    supporter_payoff and premium_value are set only when a session
    settled; release_usd is the value of collateral seized by a
    liquidation, restraint_usd the value of the supporter's top-up."""

    event_index: int
    position_id: str
    premium_factor: Decimal
    term_seconds: int
    outcome_class: str
    supporter_payoff: Decimal | None
    premium_value: Decimal | None
    release_usd: Decimal
    restraint_usd: Decimal
    price_decline: Decimal | None


#: Fixed-point scale of the integer sum that brackets a DistSummary mean.
_MEAN_SCALE = 10**100


@dataclass(frozen=True)
class DistSummary:
    """Order statistics of a sample; infinities counted separately."""

    count: int
    infinite_count: int
    mean: Decimal | None
    minimum: Decimal | None
    p25: Decimal | None
    p50: Decimal | None
    p75: Decimal | None
    maximum: Decimal | None

    @classmethod
    def from_values(cls, values: Sequence[Fraction | float]) -> "DistSummary":
        """Summarize exact values; float infinities are only counted.

        The mean is the exact mean rounded to the report grid, but it is
        not summed as Fractions: their denominators differ, so the running
        sum's denominator grows with every term and n values cost O(n^2).
        Instead each value is floored to 100 fractional digits and the
        integer floors are summed, which brackets the exact mean within
        1e-100. Both ends of the bracket are rounded with the same monotone
        rounding as the exact mean; only when they round differently (the
        bracket straddles a rounding boundary) is the exact Fraction sum
        taken.
        """
        finite = sorted(v for v in values if not (isinstance(v, float) and math.isinf(v)))
        inf_count = len(values) - len(finite)
        if not finite:
            return cls(len(values), inf_count, None, None, None, None, None, None)

        n = len(finite)

        def _rank(q: Fraction) -> Fraction:
            return finite[max(0, math.ceil(q * n) - 1)]

        # Each floor(v * 10**100) lies in (v * 10**100 - 1, v * 10**100], so
        # the exact mean lies in [S, S + n) / (n * 10**100). Rounding is
        # monotone: when both ends round alike, so does the mean.
        floor_sum = sum(v.numerator * _MEAN_SCALE // v.denominator for v in finite)
        mean = _fraction_to_decimal(Fraction(floor_sum, n * _MEAN_SCALE))
        if mean != _fraction_to_decimal(Fraction(floor_sum + n, n * _MEAN_SCALE)):
            mean = _fraction_to_decimal(sum(finite, Fraction(0)) / n)
        return cls(
            count=len(values),
            infinite_count=inf_count,
            mean=mean,
            minimum=_fraction_to_decimal(finite[0]),
            p25=_fraction_to_decimal(_rank(Fraction(1, 4))),
            p50=_fraction_to_decimal(_rank(Fraction(1, 2))),
            p75=_fraction_to_decimal(_rank(Fraction(3, 4))),
            maximum=_fraction_to_decimal(finite[-1]),
        )

    def to_json_dict(self) -> dict:
        return {
            "count": self.count,
            "infinite_count": self.infinite_count,
            "mean": _dec_or_none(self.mean),
            "min": _dec_or_none(self.minimum),
            "p25": _dec_or_none(self.p25),
            "p50": _dec_or_none(self.p50),
            "p75": _dec_or_none(self.p75),
            "max": _dec_or_none(self.maximum),
        }


@dataclass(frozen=True)
class PayoffRow:
    """Supporter payoff statistics for one (premium factor, term) cell."""

    premium_factor: Decimal
    term_seconds: int
    n: int
    p_exercise_profit: Decimal
    p_exercise_loss: Decimal
    p_default: Decimal
    mean_payoff: Decimal
    std_payoff: Decimal

    def to_json_dict(self) -> dict:
        return {
            "premium_factor": str(self.premium_factor),
            "term_seconds": self.term_seconds,
            "n": self.n,
            "p_exercise_profit": dec_str(self.p_exercise_profit),
            "p_exercise_loss": dec_str(self.p_exercise_loss),
            "p_default": dec_str(self.p_default),
            "mean_payoff": dec_str(self.mean_payoff),
            "std_payoff": dec_str(self.std_payoff),
        }


@dataclass
class MetricsReport:
    """Aggregated scenario outputs."""

    regime: Regime
    n_events: int
    class_counts: dict[str, int]
    collateral_release_usd: Decimal
    collateral_restraint_usd: Decimal
    fsl_baseline_release_usd: Decimal
    release_reduction: Decimal | None
    hf_pre: DistSummary
    hf_post_fsl: DistSummary
    hf_post_miqado: DistSummary
    healthy_fraction_fsl: Decimal
    healthy_fraction_miqado: Decimal
    payoff_rows: list[PayoffRow]
    price_declines: list[Decimal]
    results: list[OutcomeRow] = field(repr=False, default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "regime": self.regime.value,
            "n_events": self.n_events,
            "class_counts": dict(sorted(self.class_counts.items())),
            "collateral_release_usd": dec_str(self.collateral_release_usd),
            "collateral_restraint_usd": dec_str(self.collateral_restraint_usd),
            "fsl_baseline_release_usd": dec_str(self.fsl_baseline_release_usd),
            "release_reduction": _dec_or_none(self.release_reduction),
            "hf_pre": self.hf_pre.to_json_dict(),
            "hf_post_fsl": self.hf_post_fsl.to_json_dict(),
            "hf_post_miqado": self.hf_post_miqado.to_json_dict(),
            "healthy_fraction_fsl": dec_str(self.healthy_fraction_fsl),
            "healthy_fraction_miqado": dec_str(self.healthy_fraction_miqado),
            "payoff_rows": [row.to_json_dict() for row in self.payoff_rows],
            "price_declines": [dec_str(d) for d in self.price_declines],
        }


def _fraction_to_decimal(value: Fraction) -> Decimal:
    """The exact value rounded once, half-even, to the 18-digit report grid."""
    return Decimal(f"{round(value * 10**18)}E-18")


def _dec_or_none(value: Decimal | None) -> str | None:
    return None if value is None else dec_str(value)


def _sum(values: Iterable[Decimal]) -> Decimal:
    """The exact sum, which `dec_str` rounds once: `csv_decimal`'s exponent
    bound keeps its digits few, and a sum that would round raises."""
    with localcontext(Context(prec=MAX_PREC, traps=[Inexact])):
        return sum(values, Decimal(0))


def payoff_rows(rows: Iterable[OutcomeRow]) -> list[PayoffRow]:
    """The payoff table of a set of outcome rows: one row per (premium
    factor, term) cell in which some event settled at maturity, ordered
    by term, then premium factor. Terminated sessions and events without
    a session belong to no maturity class and count in no row."""
    groups: dict[tuple[int, Decimal], list[OutcomeRow]] = {}
    for r in rows:
        if r.outcome_class in _MATURITY_CLASSES:
            groups.setdefault((r.term_seconds, r.premium_factor), []).append(r)
    return [_payoff_row(lam, term, settled) for (term, lam), settled in sorted(groups.items())]


def _payoff_row(
    premium_factor: Decimal, term_seconds: int, settled: Sequence[OutcomeRow]
) -> PayoffRow:
    """Build one payoff-table row from the cell's rows settled at maturity.

    Probabilities are exact fractions of the row size, and the payoff
    spread is the population standard deviation so single-event rows are
    well defined.
    """
    n = len(settled)
    counts = Counter(r.outcome_class for r in settled)
    payoffs = [Fraction(r.supporter_payoff) for r in settled]
    mean = statistics.mean(payoffs)
    # With t = floor(2·std) on the grid, the std is t/2 or lies strictly between
    # t/2 and the next half-step, and there it rounds as their midpoint does.
    four_var = 4 * statistics.pvariance(payoffs, mean)
    t = math.isqrt(math.floor(four_var * 10**36)) / Fraction(10**18)
    std = t / 2 if t * t == four_var else t / 2 + Fraction(1, 4 * 10**18)
    return PayoffRow(
        premium_factor=premium_factor,
        term_seconds=term_seconds,
        n=n,
        p_exercise_profit=_fraction_to_decimal(Fraction(counts[CLASS_EXERCISE_PROFIT], n)),
        p_exercise_loss=_fraction_to_decimal(Fraction(counts[CLASS_EXERCISE_LOSS], n)),
        p_default=_fraction_to_decimal(Fraction(counts[CLASS_DEFAULT], n)),
        mean_payoff=_fraction_to_decimal(mean),
        std_payoff=_fraction_to_decimal(std),
    )


def path_volatility(path: PricePath) -> float:
    """Annualized volatility estimated from the scenario path's own cadence."""
    if len(path) < 3:
        raise InsufficientDataError(f"need at least 3 price points, got {len(path)}")
    step = (path[-1].timestamp - path[0].timestamp) / (len(path) - 1)
    periods_per_year = SECONDS_PER_YEAR / step
    return historical_volatility(path, periods_per_year)


#: The scenario's name for each input of the option model.
_MODEL_INPUTS = {
    "spot": "the trigger price", "strike": "debt", "domestic_rate": "borrow_rate",
    "volatility": "sigma_override", "term": "sweep.terms_hours",
}


@contextmanager
def _event_errors(idx: int):
    """Re-raise module errors, and the ValueError or ArithmeticError of a
    model input out of range, as ScenarioError with the event index. A
    model error names the config fields and event values it came from."""
    try:
        yield
    except ScenarioError:
        raise
    except ModelInputError as exc:
        raise ScenarioError(idx, exc.naming(_MODEL_INPUTS)) from exc
    except (MiqadoError, ValueError, ArithmeticError) as exc:
        raise ScenarioError(idx, str(exc)) from exc


Released = tuple[Decimal, Decimal | None]
_NOTHING_RELEASED: Released = (Decimal(0), None)


def _liquidate(pos: BorrowingPosition, price: Price, s: Scenario) -> Released:
    """Liquidate the position in place at `price`, repaying the
    close-factor maximum: the value of the collateral seized, and the
    pool's relative price decline when it is sold (None without a pool)."""
    with ledger_context():
        repay = Amount.debt(pos.debt.value * s.fsl.close_factor)
        seized = execute_fsl(pos, price, s.fsl, repay).collateral_seized
        release = seized.value * price.value
    decline = None if s.pool is None else direct_price_decline(s.pool, seized, s.sold_fraction)
    return release, decline


def _trigger(
    idx: int, ev: LiquidationEvent, s: Scenario
) -> tuple[Fraction, Fraction | float, Released]:
    """Health factor at the trigger (which must be below one), health
    factor after a maximal liquidation there, and what that liquidation
    released: the counterfactual if the event were liquidated immediately."""
    if not 0 <= ev.path_offset < len(s.path):
        raise ScenarioError(idx, f"path_offset {ev.path_offset} outside path")
    p0 = s.path[ev.path_offset].price
    hf_pre = health_factor(ev.position, p0, s.fsl.theta)
    if hf_pre >= 1:
        raise ScenarioError(
            idx, f"health factor {float(hf_pre):.6f} at offset {ev.path_offset} is not below one"
        )
    hf_fsl = fsl_post_health_factor(ev.position, p0, s.fsl)
    return hf_pre, hf_fsl, _liquidate(copy.copy(ev.position), p0, s)


def _healthy_share(values: Sequence[Fraction | float]) -> Decimal:
    """The share of health factors at or above one; zero when empty."""
    healthy = sum(1 for v in values if v >= 1)
    return _fraction_to_decimal(Fraction(healthy, len(values)) if values else Fraction(0))


def _cell_report(
    results: list[OutcomeRow],
    lam: Decimal,
    term: int,
    topped_up: tuple[DistSummary, Decimal],
    common: dict,
    table: list[PayoffRow],
) -> MetricsReport:
    """Fold one cell's outcome rows into its report. `common` holds the
    report fields that no cell changes: the regime, the health factors at
    the trigger and after a maximal liquidation there, and the release if
    every event were liquidated at its trigger. `topped_up` is the premium
    factor's (1+λ)·HF summary and healthy share. `table` is the sweep's
    payoff table; the report holds the cell's own row of it."""
    release = _sum(r.release_usd for r in results)
    baseline = Fraction(common["fsl_baseline_release_usd"])
    reduction = _fraction_to_decimal(1 - Fraction(release) / baseline) if baseline else None
    return MetricsReport(
        **common,
        n_events=len(results),
        class_counts=dict(Counter(r.outcome_class for r in results)),
        collateral_release_usd=release,
        collateral_restraint_usd=_sum(r.restraint_usd for r in results),
        release_reduction=reduction,
        hf_post_miqado=topped_up[0],
        healthy_fraction_miqado=topped_up[1],
        payoff_rows=[row for row in table if (row.premium_factor, row.term_seconds) == (lam, term)],
        price_declines=[r.price_decline for r in results if r.price_decline is not None],
        results=results,
    )


def _row(
    idx: int,
    ev: LiquidationEvent,
    lam: Decimal,
    term: int,
    klass: str,
    released: Released = _NOTHING_RELEASED,
    settlement: SettlementOutcome | None = None,
) -> OutcomeRow:
    """The event's row in the (lam, term) cell; a session's premium is its restraint."""
    release, decline = released
    return OutcomeRow(
        event_index=idx,
        position_id=ev.position.id,
        premium_factor=lam,
        term_seconds=term,
        outcome_class=klass,
        supporter_payoff=None if settlement is None else settlement.supporter_payoff,
        premium_value=None if settlement is None else settlement.premium_value,
        release_usd=release,
        restraint_usd=Decimal(0) if settlement is None else settlement.premium_value,
        price_decline=decline,
    )


def _run_term(
    idx: int,
    ev: LiquidationEvent,
    s: Scenario,
    term: int,
    lambdas: Sequence[Decimal],
    sigma: float,
    at_trigger: Released,
) -> list[OutcomeRow]:
    """Replay one eligible event in one term's cells, one row per premium
    factor. The gate's break-even factor, the maturity and the path's
    running peaks are found once, the last two only if some cell engages;
    a declined cell releases what the regime does at the trigger. The
    borrower rescues at the first point after initiation and before
    maturity where the topped-up health factor, which rises with the
    price, reaches `rescue_above_hf`: a bisection over the peaks."""
    point = s.path[ev.path_offset]
    p0, t0 = point.price, point.timestamp
    theta = s.fsl.theta
    h = s.miqado.rescue_above_hf
    start = ev.path_offset + 1
    lam_star = math.inf
    if s.supporter_gate:
        lam_star = supporter_decision(ev.position, p0, term, sigma, s.foreign_rate)
    engages = [float(lam) <= lam_star for lam in lambdas]  # ties engage
    if not any(engages):
        return [_row(idx, ev, lam, term, CLASS_DECLINED, at_trigger) for lam in lambdas]
    maturity_idx = s.path.index_at_or_after(t0 + term)
    maturity = s.path[maturity_idx]
    peaks = [] if h is None else list(accumulate(s.path.prices[start:maturity_idx], max))

    def session_row(lam: Decimal) -> OutcomeRow:
        pos = copy.copy(ev.position)
        session = initiate(pos, p0, theta, s.miqado, lam, term, t0)
        if h is not None:
            i = start + bisect_left(peaks, h, key=lambda v: health_factor(pos, Price(v), theta))
            if i < maturity_idx:
                pt = s.path[i]
                outcome = terminate(session, pos, pt.price, pt.timestamp, s.miqado)
                return _row(idx, ev, lam, term, CLASS_TERMINATED, settlement=outcome)
        outcome = settle_at_maturity(session, pos, maturity.price, maturity.timestamp)
        if outcome.state is SessionState.EXERCISED:
            klass = CLASS_EXERCISE_PROFIT if outcome.supporter_payoff > 0 else CLASS_EXERCISE_LOSS
            return _row(idx, ev, lam, term, klass, settlement=outcome)
        released = _NOTHING_RELEASED
        if s.regime is Regime.HYBRID:
            released = _liquidate(pos, maturity.price, s)
        return _row(idx, ev, lam, term, CLASS_DEFAULT, released, outcome)

    return [
        session_row(lam) if engage else _row(idx, ev, lam, term, CLASS_DECLINED, at_trigger)
        for lam, engage in zip(lambdas, engages)
    ]


# ---------------------------------------------------------------------------
# Sweeps


@dataclass
class SweepResult:
    """Reports for every (premium factor, term) cell of a sweep."""

    regime: Regime
    cells: list[tuple[Decimal, int, MetricsReport]]
    #: The payoff table of every cell's outcome rows: the table that
    #: `analyze` prints for the sweep's outcomes.csv.
    payoff_rows: list[PayoffRow]

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "regime": self.regime.value,
            "payoff_table": [row.to_json_dict() for row in self.payoff_rows],
            "cells": [
                {
                    "premium_factor": str(lam),
                    "term_seconds": term,
                    "report": report.to_json_dict(),
                }
                for lam, term, report in self.cells
            ],
        }


def check_sweep_axis(values: Sequence[Numeric]) -> None:
    """The rule for each axis of a sweep grid: non-empty, every value > 0
    and no two equal as numbers, since 0.1 and 0.10 would be one cell
    counted twice. Raises ValueError otherwise."""
    if not values or min(values) <= 0:
        raise ValueError("sweep values must be non-empty and > 0")
    if len(set(values)) != len(values):
        raise ValueError("sweep values must be distinct")


def run_sweep(
    base: Scenario, premium_factors: Sequence[Numeric], terms_seconds: Sequence[int]
) -> SweepResult:
    """Replay the scenario in every (premium factor, term) cell, ordered
    term-major like a payoff table is usually read. Each axis must pass
    `check_sweep_axis`.

    Per sweep: the regime's buffer rule and the gate's volatility. Per
    event, in order: the trigger check, the trigger liquidation (the FSL
    baseline and the outcome of any cell liquidated there) and, under
    fsl_only or outside the engagement window, the class of every cell.
    Per (event, term): the gate's break-even factor and the maturity. Per
    cell: the session. Per premium factor: the (1+λ)·HF summary. Last, the
    rows fold into the sweep's payoff table and each cell's report, which
    holds the cell's row of that table. The sweep names its lowest-index
    failing event, in the first cell (term-major) where it fails."""
    lambdas = [to_decimal(lam) for lam in premium_factors]
    check_sweep_axis(lambdas)
    check_sweep_axis(terms_seconds)
    s = base
    # The regime alone sets the engagement window: without liquidation it
    # is the liquidation threshold HF < 1, i.e. buffer 0.
    if s.regime is Regime.MIQADO_ONLY:
        s = replace(s, miqado=replace(s.miqado, buffer=Decimal(0)))
    sigma = 0.0
    if s.supporter_gate and s.regime is not Regime.FSL_ONLY:
        sigma = s.sigma_override if s.sigma_override is not None else path_volatility(s.path)

    hf_pre: list[Fraction] = []
    hf_post_fsl: list[Fraction | float] = []
    released: list[Decimal] = []
    # Event-major, then term, then premium factor: cell c's rows are rows[c::len(grid)].
    rows: list[OutcomeRow] = []
    for idx, ev in enumerate(s.events):
        with _event_errors(idx):
            hf, hf_fsl, liquidation = _trigger(idx, ev, s)
            at_trigger = _NOTHING_RELEASED if s.regime is Regime.MIQADO_ONLY else liquidation
            klass = None
            if s.regime is Regime.FSL_ONLY:
                klass = CLASS_FSL
            elif not can_initiate(ev.position, s.path[ev.path_offset].price, s.fsl.theta, s.miqado):
                klass = CLASS_INELIGIBLE
            for term in terms_seconds:
                if klass is None:
                    rows += _run_term(idx, ev, s, term, lambdas, sigma, at_trigger)
                else:
                    rows += [_row(idx, ev, lam, term, klass, at_trigger) for lam in lambdas]
        hf_pre.append(hf)
        hf_post_fsl.append(hf_fsl)
        released.append(liquidation[0])
    hf_pre.sort()  # every λ > 0, so each (1+λ)·HF keeps this order
    topped_up: dict[Decimal, tuple[DistSummary, Decimal]] = {}
    for lam in lambdas:
        factor = 1 + Fraction(lam)
        scaled = [hf * factor for hf in hf_pre]
        topped_up[lam] = DistSummary.from_values(scaled), _healthy_share(scaled)

    common = dict(
        regime=s.regime,
        fsl_baseline_release_usd=_sum(released),
        hf_pre=DistSummary.from_values(hf_pre),
        hf_post_fsl=DistSummary.from_values(hf_post_fsl),
        healthy_fraction_fsl=_healthy_share(hf_post_fsl),
    )
    table = payoff_rows(rows)
    grid = [(lam, term) for term in terms_seconds for lam in lambdas]
    cells = [
        (lam, term, _cell_report(rows[c :: len(grid)], lam, term, topped_up[lam], common, table))
        for c, (lam, term) in enumerate(grid)
    ]
    return SweepResult(regime=s.regime, cells=cells, payoff_rows=table)


def run_scenario(scenario: Scenario, premium_factor: Numeric, term_seconds: int) -> MetricsReport:
    """Replay every event under the scenario regime in one (premium factor,
    term) cell: the one-cell sweep. Pure with respect to its argument; an
    event that fails raises ScenarioError with its index."""
    return run_sweep(scenario, [premium_factor], [term_seconds]).cells[0][2]


def report_to_json(payload: Mapping) -> str:
    """Canonical JSON: sorted keys, two-space indent, trailing newline."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Event fixtures: synthesis and CSV round-trip


def synthesize_events(
    path: PricePath,
    theta: Numeric,
    count: int,
    seed: int,
    hf_band: tuple[Numeric, Numeric] = ("0.90", "0.9999"),
    collateral: Numeric = 1,
    borrow_rate: Numeric = "0.05",
    max_term_seconds: int = 86_400,
) -> list[LiquidationEvent]:
    """Sample desk-scale liquidation events along a path.

    `count` must lie in [0, MAX_SYNTHETIC_EVENTS] and `hf_band` be exactly
    (low, high). Each event sits at a path offset whose maturity (offset
    time plus the longest sweep term) still lands on the path. The
    pre-trigger health factor is uniform in `hf_band`, or the band's
    midpoint where the float draw rounds out of it; debt is then solved
    from the collateral, price and theta so that the trigger condition
    holds by construction.
    """
    if not 0 <= count <= MAX_SYNTHETIC_EVENTS:
        raise ValueError(f"count must lie in [0, {MAX_SYNTHETIC_EVENTS}]")
    if len(hf_band) != 2:
        raise ValueError("hf_band must be exactly (low, high)")
    lo, hi = (to_decimal(v) for v in hf_band)
    if not 0 < lo < hi < 1:
        raise ValueError("hf_band must satisfy 0 < low < high < 1")
    theta_dec = to_decimal(theta)
    coll = to_decimal(collateral)
    max_offset = bisect_right(path.timestamps, path[-1].timestamp - max_term_seconds) - 1
    if max_offset < 0:
        raise ValueError("path too short for the requested maximum term")
    rng = Random(seed)
    events: list[LiquidationEvent] = []
    for i in range(count):
        offset = rng.randint(0, max_offset)
        u = rng.random()
        hf = Decimal(repr(float(lo) + (float(hi) - float(lo)) * u))
        if not lo <= hf < hi:
            hf = lo + (hi - lo) / 2
        price = path[offset].price
        with ledger_context():
            debt = coll * price.value * theta_dec / hf
        pos = BorrowingPosition(
            id=f"ev{i:04d}",
            debt=Amount.debt(debt),
            collateral=Amount.collateral(coll),
            borrow_rate=to_decimal(borrow_rate),
        )
        if health_factor(pos, price, theta_dec) >= 1:
            pos.debt = pos.debt.scaled(Decimal("1.000000000001"))
        events.append(LiquidationEvent(position=pos, path_offset=offset))
    return events


def _event(cells: list[str]) -> LiquidationEvent:
    position_id, debt, collateral, borrow_rate, offset = cells
    pos = BorrowingPosition(
        id=position_id,
        debt=Amount.debt(csv_decimal(debt)),
        collateral=Amount.collateral(csv_decimal(collateral)),
        borrow_rate=csv_decimal(borrow_rate),
    )
    path_offset = csv_int(offset)
    if path_offset < 0:
        raise ValueError(f"negative path_offset {path_offset}")
    return LiquidationEvent(position=pos, path_offset=path_offset)


def load_events_csv(data: bytes | str) -> list[LiquidationEvent]:
    """Parse the events CSV; malformed rows name their line number."""
    return read_csv(data, EVENTS_CSV_HEADER, _event)


def serialize_events_csv(events: Sequence[LiquidationEvent]) -> str:
    rows = []
    for ev in events:
        p = ev.position
        rows.append((p.id, p.debt.value, p.collateral.value, p.borrow_rate, ev.path_offset))
    return write_csv(EVENTS_CSV_HEADER, rows)


# ---------------------------------------------------------------------------
# Outcome rows: the per-event CSV that `analyze` can re-aggregate


def outcome_rows_from_report(report: MetricsReport) -> list[OutcomeRow]:
    """The rows of one cell's report, in event order."""
    return report.results


def serialize_outcomes_csv(rows: Sequence[OutcomeRow]) -> str:
    return write_csv(
        OUTCOMES_CSV_HEADER,
        (
            (
                r.event_index, r.position_id, r.premium_factor, r.term_seconds, r.outcome_class,
                _dec_or_none(r.supporter_payoff), _dec_or_none(r.premium_value),
                dec_str(r.release_usd), dec_str(r.restraint_usd), _dec_or_none(r.price_decline),
            )
            for r in rows
        ),
    )


def _outcome_row(cells: list[str]) -> OutcomeRow:
    index, position_id, lam, term, klass, payoff, premium, release, restraint, decline = cells
    if klass not in _CLASSES:
        raise ValueError(f"unknown outcome_class {klass!r}")
    if klass in _MATURITY_CLASSES and not payoff:
        raise ValueError(f"{klass} row without a supporter_payoff")
    return OutcomeRow(
        event_index=csv_int(index),
        position_id=position_id,
        premium_factor=csv_decimal(lam),
        term_seconds=csv_int(term),
        outcome_class=klass,
        supporter_payoff=csv_decimal(payoff) if payoff else None,
        premium_value=csv_decimal(premium) if premium else None,
        release_usd=csv_decimal(release),
        restraint_usd=csv_decimal(restraint),
        price_decline=csv_decimal(decline) if decline else None,
    )


def load_outcomes_csv(data: bytes | str) -> list[OutcomeRow]:
    """Parse outcomes.csv; malformed rows name their line number."""
    return read_csv(data, OUTCOMES_CSV_HEADER, _outcome_row)


def aggregate_outcome_rows(rows: Sequence[OutcomeRow]) -> dict:
    """Recompute release, restraint and the payoff table from outcome rows."""
    return {
        "collateral_release_usd": dec_str(_sum(r.release_usd for r in rows)),
        "collateral_restraint_usd": dec_str(_sum(r.restraint_usd for r in rows)),
        "payoff_table": [row.to_json_dict() for row in payoff_rows(rows)],
    }
