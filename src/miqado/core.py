"""Collateralized debt arithmetic and the fixed-spread liquidation mechanism.

Ledger conventions
------------------
All debt and collateral quantities are `decimal.Decimal` wrapped in a
unit-tagged :class:`Amount`; prices are debt units per collateral unit.
Ledger arithmetic runs in an 80-digit decimal context. Sums, differences
and products of 18-fractional-digit operands at realistic magnitudes are
exact there. A quotient (collateral seized per repaid debt, an AMM swap, a
synthetic debt) rounds at the 80th digit, and so may any sum or product
computed from one. Serialization quantizes to 18 fractional digits.

The health factor is returned as a `fractions.Fraction` so identities
such as HF(theta=1) * theta == HF hold exactly, not merely to the last
retained digit.

Timestamps are integer Unix seconds throughout the package; durations are
converted to years by dividing by `SECONDS_PER_YEAR`.

Every CSV wire format is read by `read_csv`, whose decimal cells go
through `csv_decimal`, and written by `write_csv`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from decimal import (
    MAX_EMAX,
    MAX_PREC,
    MIN_EMIN,
    Context,
    Decimal,
    Inexact,
    InvalidOperation,
)
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, TypeVar, Union

from .errors import (
    CloseFactorViolationError,
    CsvFormatError,
    NotLiquidatableError,
    UndefinedHealthError,
    UnitMismatchError,
)

SECONDS_PER_YEAR = 31_536_000

#: Working precision for ledger arithmetic. Wide enough that products of
#: 18-fractional-digit operands at realistic magnitudes never round; an
#: operand computed from a quotient carries 80 digits, so its products do.
LEDGER_PRECISION = 80

#: Resolution used when quantizing ledger values for reports and CSV output.
QUANTUM = Decimal("1E-18")

#: The one ledger context. Ledger arithmetic calls its methods (`add`,
#: `subtract`, `multiply`, `divide`, `minus`), so it rounds without
#: entering a context.
LEDGER = Context(prec=LEDGER_PRECISION)

#: The context that rounds to the report grid: wide enough to keep every
#: integer digit of a value, so only its fractional digits round.
REPORT_ROUNDING = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)

#: A context in which every operation is exact or raises `Inexact`: for
#: sums and products that must not round.
EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact])

Numeric = Union[Decimal, int, str, float]
T = TypeVar("T")


def to_decimal(value: Numeric) -> Decimal:
    """Coerce a number to Decimal. Floats go through repr() so a literal
    like 0.05 becomes Decimal('0.05'), not its binary expansion."""
    if isinstance(value, Decimal):
        return value
    if isinstance(value, int):
        return Decimal(value)
    if isinstance(value, float):
        return Decimal(repr(value))
    try:
        return Decimal(value)
    except InvalidOperation as exc:
        raise ValueError(f"not a decimal literal: {value!r}") from exc


def quantize(value: Decimal) -> Decimal:
    """Round to the 18-fractional-digit report grid (half-even), keeping
    every integer digit even of values too large for the ledger precision."""
    q = REPORT_ROUNDING.quantize(value, QUANTUM)
    if q == 0:
        q = abs(q)  # normalize -0
    return q


def dec_str(value: Decimal) -> str:
    """Fixed-point 18-digit rendering for reports ('0.000...' not '0E-18')."""
    return format(quantize(value), "f")


def csv_decimal(cell: str) -> Decimal:
    """A CSV cell or config number as a finite Decimal of order of
    magnitude within ±1000, which keeps exact arithmetic on it cheap and
    inside the ledger context's exponent range; anything else raises
    ValueError."""
    try:
        value = Decimal(cell)
    except InvalidOperation:
        value = Decimal("NaN")
    if not (value.is_finite() and -1000 <= value.adjusted() <= 1000):
        raise ValueError(f"expected a finite decimal within 1e±1000, got {cell!r}")
    return value


def csv_int(cell: str) -> int:
    """A CSV cell as an integer in [-2**63, 2**63), the signed 64-bit
    range, so that differences and ratios of cells stay float-sized;
    anything else raises ValueError."""
    value = int(cell)
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"expected an integer in [-2**63, 2**63), got {cell!r}")
    return value


def read_csv(data: bytes | str, header: str, parse_row: Callable[[list[str]], T]) -> list[T]:
    """The rows of a CSV wire format: UTF-8 text whose first line is
    `header`, blank lines skipped, every other line a row of the header's
    field count, mapped by `parse_row`. A malformed input, undecodable
    bytes included, raises CsvFormatError naming its line, and so does a
    ValueError or ArithmeticError of `parse_row`."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = len((data[: exc.start].decode("utf-8") + "x").splitlines())
            raise CsvFormatError(f"not UTF-8: {exc.reason}", line=line) from None
    lines = data.splitlines()
    if not lines or lines[0].strip() != header:
        raise CsvFormatError(f"expected header {header!r}", line=1)
    width = header.count(",") + 1
    rows: list[T] = []
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        cells = raw.split(",")
        if len(cells) != width:
            raise CsvFormatError(f"expected {width} fields, got {len(cells)}", line=lineno)
        try:
            rows.append(parse_row(cells))
        except (ValueError, ArithmeticError) as exc:
            raise CsvFormatError(str(exc), line=lineno) from exc
    return rows


def write_csv(header: str, rows: Iterable[Iterable[object]]) -> str:
    """CSV text: the header line, then one line per row. A cell is written
    as its str(), None as an empty cell; every line ends in a newline."""
    lines = [header]
    lines.extend(",".join(["" if c is None else str(c) for c in row]) for row in rows)
    return "\n".join(lines) + "\n"


class Unit(str, Enum):
    DEBT = "debt"
    COLLATERAL = "collateral"


@dataclass(frozen=True)
class Amount:
    """A non-negative quantity of one currency, tagged debt or collateral.

    Same-unit amounts add and subtract; mixing units raises
    :class:`UnitMismatchError`. Subtraction below zero raises ValueError:
    the ledger never holds negative balances.
    """

    value: Decimal
    unit: Unit

    def __post_init__(self):
        if not isinstance(self.value, Decimal):
            object.__setattr__(self, "value", to_decimal(self.value))
        if not self.value.is_finite():
            raise ValueError("amount must be finite")
        if self.value < 0:
            raise ValueError(f"amount must be non-negative, got {self.value}")

    @classmethod
    def debt(cls, value: Numeric) -> "Amount":
        return cls(value, Unit.DEBT)

    @classmethod
    def collateral(cls, value: Numeric) -> "Amount":
        return cls(value, Unit.COLLATERAL)

    def _check_unit(self, other: "Amount") -> None:
        if self.unit is not other.unit:
            raise UnitMismatchError(
                f"cannot combine {self.unit.value} and {other.unit.value} amounts"
            )

    def __add__(self, other: "Amount") -> "Amount":
        self._check_unit(other)
        return Amount(LEDGER.add(self.value, other.value), self.unit)

    def __sub__(self, other: "Amount") -> "Amount":
        self._check_unit(other)
        out = LEDGER.subtract(self.value, other.value)
        if out < 0:
            raise ValueError("amount subtraction went negative")
        return Amount(out, self.unit)

    def scaled(self, factor: Numeric) -> "Amount":
        """Multiply by a non-negative scalar (exact in the ledger context)."""
        f = to_decimal(factor)
        if f < 0:
            raise ValueError("scale factor must be non-negative")
        return Amount(LEDGER.multiply(self.value, f), self.unit)


@dataclass(frozen=True)
class Price:
    """Exchange rate: debt units per collateral unit. Strictly positive."""

    value: Decimal

    def __post_init__(self):
        if not isinstance(self.value, Decimal):
            object.__setattr__(self, "value", to_decimal(self.value))
        if not (self.value.is_finite() and self.value > 0):
            raise ValueError(f"price must be finite and > 0, got {self.value}")


@dataclass
class BorrowingPosition:
    """A single-debt, single-collateral borrowing position.

    `borrow_rate` is the interest fraction the borrower pays over one
    option term; it is applied once at termination, never accrued step by
    step. `active_session_id` is the engagement lock: at most one support
    session may be live on a position.
    """

    id: str
    debt: Amount
    collateral: Amount
    borrow_rate: Decimal
    active_session_id: str | None = None

    def __post_init__(self):
        if self.debt.unit is not Unit.DEBT:
            raise UnitMismatchError("position debt must be a debt-unit amount")
        if self.collateral.unit is not Unit.COLLATERAL:
            raise UnitMismatchError("position collateral must be a collateral-unit amount")
        if self.debt.value <= 0:
            raise ValueError("open position must have positive debt")
        if LEDGER.plus(self.debt.value) != self.debt.value:
            raise ValueError(f"debt {self.debt.value} has more digits than the ledger holds")
        self.borrow_rate = to_decimal(self.borrow_rate)
        if not (0 < self.borrow_rate < 1):
            raise ValueError("borrow_rate must lie in (0, 1)")


@dataclass(frozen=True)
class FslParams:
    """Fixed-spread liquidation parameters.

    theta: collateral discount in (0,1) used by the health factor.
    close_factor: maximum fraction of debt repayable in one liquidation.
    spread: liquidator's bonus on seized collateral.
    """

    theta: Decimal
    close_factor: Decimal
    spread: Decimal

    def __post_init__(self):
        object.__setattr__(self, "theta", to_decimal(self.theta))
        object.__setattr__(self, "close_factor", to_decimal(self.close_factor))
        object.__setattr__(self, "spread", to_decimal(self.spread))
        if not 0 < self.theta < 1:
            raise ValueError("theta must lie in (0, 1)")
        if not 0 < self.close_factor <= 1:
            raise ValueError("close_factor must lie in (0, 1]")
        if self.spread <= 0:
            raise ValueError("spread must be > 0")


@dataclass(frozen=True)
class FslOutcome:
    """Result of one fixed-spread liquidation.

    `shortfall` is set when the wanted seizure exceeded the available
    collateral; in that case the repayment was scaled down proportionally
    and the whole collateral balance was taken.
    """

    debt_repaid: Amount
    collateral_seized: Amount
    liquidator_profit: Amount  # debt units: debt_repaid * spread
    shortfall: bool


def _discounted_collateral(pos: BorrowingPosition, p: Price, theta: Numeric) -> Decimal:
    """C * p * theta, exactly: the health factor's numerator, whose
    denominator is the debt D. Zero debt leaves the health factor
    undefined and raises."""
    if pos.debt.value == 0:
        raise UndefinedHealthError(f"position {pos.id} has zero debt")
    value = EXACT.multiply(EXACT.multiply(pos.collateral.value, p.value), to_decimal(theta))
    if not value.is_finite():
        raise ValueError(f"theta must be finite, got {theta!r}")
    return value


def health_factor(pos: BorrowingPosition, p: Price, theta: Numeric) -> Fraction:
    """Discounted collateral value over debt: C * p * theta / D, as an
    exact Fraction; the position is liquidatable when it is below one."""
    return Fraction(_discounted_collateral(pos, p, theta)) / Fraction(pos.debt.value)


def health_below(pos: BorrowingPosition, p: Price, theta: Numeric, level: Decimal | int) -> bool:
    """True when the health factor is strictly below `level`:
    C * p * theta < level * D, compared exactly without building the
    Fraction."""
    return _discounted_collateral(pos, p, theta) < EXACT.multiply(level, pos.debt.value)


def is_liquidatable(pos: BorrowingPosition, p: Price, theta: Numeric) -> bool:
    """True when the health factor is strictly below one."""
    return health_below(pos, p, theta, 1)


def _seizure(
    pos: BorrowingPosition, p: Price, spread: Decimal, repaid: Decimal
) -> tuple[Decimal, Decimal, bool]:
    """(repaid, seized, shortfall) of a liquidation repaying `repaid` at p:
    it seizes repaid * (1 + spread) / p, or, when that exceeds the
    collateral, the whole balance and repays only what that covers."""
    bonus = LEDGER.add(1, spread)
    seized = LEDGER.divide(LEDGER.multiply(repaid, bonus), p.value)
    if seized <= pos.collateral.value:
        return repaid, seized, False
    seized = pos.collateral.value
    return LEDGER.divide(LEDGER.multiply(seized, p.value), bonus), seized, True


def execute_fsl(
    pos: BorrowingPosition, p: Price, params: FslParams, repay: Amount
) -> FslOutcome:
    """Repay part of an unhealthy position's debt and seize collateral.

    The liquidator repays `repay` debt units (at most close_factor * debt)
    and takes repay * (1 + spread) / p collateral units. If that exceeds
    the collateral on hand, the seizure is clamped to the full balance and
    the repayment reduced proportionally (shortfall). The position is
    mutated in place; the outcome reports the exact ledger movements.
    """
    if repay.unit is not Unit.DEBT:
        raise UnitMismatchError("repay must be a debt-unit amount")
    if not is_liquidatable(pos, p, params.theta):
        raise NotLiquidatableError(f"position {pos.id} is healthy")
    max_repay = LEDGER.multiply(pos.debt.value, params.close_factor)
    if repay.value > max_repay:
        raise CloseFactorViolationError(
            f"repay {repay.value} exceeds close-factor bound {max_repay}"
        )
    repaid, seized, shortfall = _seizure(pos, p, params.spread, repay.value)
    profit = LEDGER.multiply(repaid, params.spread)
    pos.debt = pos.debt - Amount.debt(repaid)
    pos.collateral = pos.collateral - Amount.collateral(seized)
    return FslOutcome(
        debt_repaid=Amount.debt(repaid),
        collateral_seized=Amount.collateral(seized),
        liquidator_profit=Amount.debt(profit),
        shortfall=shortfall,
    )


def fsl_post_health_factor(
    pos: BorrowingPosition, p: Price, params: FslParams
) -> Fraction | float:
    """Health factor the position would have after a maximal liquidation.

    A pure counterfactual on the numbers; the position is never mutated
    and need not currently be liquidatable. A full close (close_factor 1
    with sufficient collateral) leaves no debt, so the result is the
    +infinity sentinel. The seizure is clamped to the collateral as in
    :func:`execute_fsl`.
    """
    max_repay = LEDGER.multiply(pos.debt.value, params.close_factor)
    repaid, seized, _ = _seizure(pos, p, params.spread, max_repay)
    debt_after = LEDGER.subtract(pos.debt.value, repaid)
    coll_after = LEDGER.subtract(pos.collateral.value, seized)
    if debt_after == 0:
        return math.inf
    after = replace(pos, debt=Amount.debt(debt_after), collateral=Amount.collateral(coll_after))
    return health_factor(after, p, params.theta)
