"""The Miqado support protocol: a reversible call option on a distressed
borrowing position.

Lifecycle. A supporter tops up an eligible position by a premium factor
lambda of its collateral, which buys the right to take the whole position
over at maturity. Before maturity the borrower may terminate, returning
the top-up plus a reimbursement; at maturity the supporter either
exercises (repays the debt, takes all collateral) or defaults (forfeits
the top-up, which stays in the position).

Termination economics. The borrower's reimbursement is
top-up * (1 + borrow_rate) * k_re with 0 < k_re < 1, and the top-up itself
goes back to the supporter. The supporter therefore always exits a
termination with more collateral than they put in: an effective multiple
of 1 + (1 + borrow_rate) * k_re > 1 on the premium.

Sessions move Active -> {Terminated, Exercised, Defaulted} exactly once;
replaying a terminal session raises SessionStateError.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from enum import Enum

from .core import (
    EXACT,
    LEDGER,
    SECONDS_PER_YEAR,
    Amount,
    BorrowingPosition,
    Numeric,
    Price,
    # Unused here; the benchmark probe ("miqado.protocol", "health_factor") patches the name.
    health_factor,  # noqa: F401
    is_liquidatable,
    to_decimal,
)
from .errors import (
    ActiveSessionError,
    NotEligibleError,
    SessionStateError,
    TooEarlyError,
    TooLateError,
)
from .option import optimal_premium_factor


class SessionState(Enum):
    ACTIVE = "active"
    TERMINATED = "terminated"
    EXERCISED = "exercised"
    DEFAULTED = "defaulted"


@dataclass(frozen=True)
class MiqadoParams:
    """Protocol constants. An option's own terms, its premium factor and
    term, are arguments of `initiate` and `supporter_decision`.

    k_re: borrower reimbursement factor in (0, 1).
    buffer: addition to theta in the engagement window
        CR * (theta + buffer) < 1; non-negative, small values are the
        useful range. Buffer 0 makes the window the liquidation threshold.
    rescue_above_hf: borrower policy. None means the borrower never
        terminates; a threshold means they terminate at the first price
        where the topped-up health factor reaches it.
    """

    k_re: Decimal
    buffer: Decimal = Decimal("0")
    rescue_above_hf: Decimal | None = None

    def __post_init__(self):
        object.__setattr__(self, "k_re", to_decimal(self.k_re))
        object.__setattr__(self, "buffer", to_decimal(self.buffer))
        if self.rescue_above_hf is not None:
            object.__setattr__(self, "rescue_above_hf", to_decimal(self.rescue_above_hf))
        if not 0 < self.k_re < 1:
            raise ValueError("k_re must lie in (0, 1)")
        if self.buffer < 0:
            raise ValueError("buffer must be >= 0")


@dataclass
class MiqadoSession:
    """One live engagement between a supporter and a position."""

    id: str
    position_id: str
    topup: Amount  # collateral units, lambda * C_t0
    premium_value: Amount  # debt units, lambda * C_t0 * p_t0
    borrow_rate: Decimal
    started: int
    maturity: int
    state: SessionState = SessionState.ACTIVE


@dataclass(frozen=True)
class SettlementOutcome:
    """How a session ended and who got what.

    supporter_payoff is in debt units; borrower_cost and
    supporter_receipt_collateral are in collateral units.
    """

    state: SessionState
    supporter_payoff: Decimal
    borrower_cost: Decimal
    premium_value: Decimal
    supporter_receipt_collateral: Decimal


def can_initiate(
    pos: BorrowingPosition, p: Price, theta: Numeric, params: MiqadoParams
) -> bool:
    """Engagement window test: the health factor at the discount
    theta + buffer, which is exactly CR * (theta + buffer), is strictly
    below one. With buffer 0 this is the liquidation threshold HF < 1.
    """
    return is_liquidatable(pos, p, LEDGER.add(to_decimal(theta), params.buffer))


def initiate(
    pos: BorrowingPosition,
    p: Price,
    theta: Numeric,
    params: MiqadoParams,
    premium_factor: Decimal,
    term_seconds: int,
    now: int,
) -> MiqadoSession:
    """Open a session with premium factor lambda and term, both > 0: top
    up lambda * collateral, lock the position.

    The top-up multiplies the collateral, hence the health factor, by
    exactly (1 + lambda). The premium's debt-unit value is fixed at the
    initiation price.
    """
    if premium_factor <= 0 or term_seconds <= 0:
        raise ValueError("premium_factor and term_seconds must be > 0")
    if pos.active_session_id is not None:
        raise ActiveSessionError(
            f"position {pos.id} already has session {pos.active_session_id}"
        )
    if not can_initiate(pos, p, theta, params):
        raise NotEligibleError(f"position {pos.id} is outside the engagement window")
    topup = pos.collateral.scaled(premium_factor)
    premium_value = LEDGER.multiply(topup.value, p.value)
    session = MiqadoSession(
        id=f"{pos.id}@{now}",
        position_id=pos.id,
        topup=topup,
        premium_value=Amount.debt(premium_value),
        borrow_rate=pos.borrow_rate,
        started=now,
        maturity=now + term_seconds,
    )
    pos.collateral = pos.collateral + topup
    pos.active_session_id = session.id
    return session


def _require_active(session: MiqadoSession) -> None:
    if session.state is not SessionState.ACTIVE:
        raise SessionStateError(
            f"session {session.id} is {session.state.value}, not active"
        )


def terminate(
    session: MiqadoSession,
    pos: BorrowingPosition,
    p: Price,
    now: int,
    params: MiqadoParams,
) -> SettlementOutcome:
    """Borrower buys the supporter out before maturity.

    The position's collateral reverts to its pre-session level; the
    supporter walks away with the top-up plus the reimbursement
    topup * (1 + borrow_rate) * k_re, paid by the borrower out of pocket.
    """
    _require_active(session)
    if now >= session.maturity:
        raise TooLateError(f"cannot terminate at/after maturity {session.maturity}")
    if now <= session.started:
        raise TooEarlyError("termination window opens after the session starts")
    topup = session.topup.value
    reimbursement = LEDGER.multiply(
        LEDGER.multiply(topup, LEDGER.add(1, session.borrow_rate)), params.k_re
    )
    receipt = LEDGER.add(topup, reimbursement)
    payoff = LEDGER.multiply(reimbursement, p.value)
    pos.collateral = pos.collateral - session.topup
    pos.active_session_id = None
    session.state = SessionState.TERMINATED
    return SettlementOutcome(
        state=SessionState.TERMINATED,
        supporter_payoff=payoff,
        borrower_cost=reimbursement,
        premium_value=session.premium_value.value,
        supporter_receipt_collateral=receipt,
    )


def settle_at_maturity(
    session: MiqadoSession,
    pos: BorrowingPosition,
    p_maturity: Price,
    now: int,
) -> SettlementOutcome:
    """Exercise-or-default decision at maturity.

    The supporter exercises (full takeover) when the collateral including
    the top-up is worth at least the outstanding debt, C'·p_T ≥ D exactly:
    they repay the debt, take all collateral, and the position closes; the
    payoff C'·p_T − D − premium is ledger arithmetic on the exact C'·p_T.
    Otherwise they default: the premium is lost in full and the top-up
    stays in the position, which is then liquidatable, since C'·p_T < D.
    """
    _require_active(session)
    if now < session.maturity:
        raise TooEarlyError(f"maturity is {session.maturity}, cannot settle at {now}")
    strike = pos.debt.value  # outstanding-debt strike rule
    collateral_value = EXACT.multiply(pos.collateral.value, p_maturity.value)
    premium = session.premium_value.value
    if collateral_value >= strike:
        payoff = LEDGER.subtract(LEDGER.subtract(collateral_value, strike), premium)
        receipt = pos.collateral.value
        # Full takeover: supporter repays the debt, takes every collateral
        # unit, and the position closes.
        pos.debt = Amount(Decimal(0), pos.debt.unit)
        pos.collateral = Amount(Decimal(0), pos.collateral.unit)
        pos.active_session_id = None
        session.state = SessionState.EXERCISED
        return SettlementOutcome(
            state=SessionState.EXERCISED,
            supporter_payoff=payoff,
            borrower_cost=Decimal(0),
            premium_value=premium,
            supporter_receipt_collateral=receipt,
        )
    pos.active_session_id = None
    session.state = SessionState.DEFAULTED
    return SettlementOutcome(
        state=SessionState.DEFAULTED,
        supporter_payoff=LEDGER.minus(premium),
        borrower_cost=Decimal(0),
        premium_value=premium,
        supporter_receipt_collateral=Decimal(0),
    )


def supporter_decision(
    pos: BorrowingPosition,
    p: Price,
    term_seconds: int,
    sigma: float,
    foreign_rate: float = 0.0,
) -> float:
    """The break-even premium factor lambda* of the term's option: the
    supporter engages at lambda iff float(lambda) <= lambda*; ties engage.

    It prices the takeover right as a European call on the whole
    collateral, with strike equal to the current outstanding debt,
    domestic rate equal to the position's borrow rate, and the given
    volatility. Eligibility is not tested here: `initiate` enforces the
    engagement window.
    """
    return optimal_premium_factor(
        p,
        pos.collateral,
        strike=float(pos.debt.value),
        domestic_rate=float(pos.borrow_rate),
        foreign_rate=foreign_rate,
        sigma=sigma,
        term=term_seconds / SECONDS_PER_YEAR,
    )
