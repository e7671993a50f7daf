"""Support-protocol state machine: eligibility, top-up, termination,
maturity settlement, and the engage/decline pricing rule."""

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from miqado.core import (
    EXACT,
    LEDGER,
    Amount,
    BorrowingPosition,
    Price,
    health_factor,
    is_liquidatable,
)
from miqado.errors import (
    ActiveSessionError,
    NotEligibleError,
    SessionStateError,
    TooEarlyError,
    TooLateError,
)
from miqado.protocol import (
    MiqadoParams,
    MiqadoSession,
    SessionState,
    can_initiate,
    initiate,
    settle_at_maturity,
    supporter_decision,
    terminate,
)

THETA = Decimal("0.8")
HOUR = 3600


def make_pos(debt="100", collateral="100", rate="0.05", pid="b1"):
    return BorrowingPosition(
        id=pid,
        debt=Amount.debt(Decimal(debt)),
        collateral=Amount.collateral(Decimal(collateral)),
        borrow_rate=Decimal(rate),
    )


def params(k_re="0.5", **kw):
    return MiqadoParams(k_re=Decimal(k_re), **kw)


#: 80 digits, the ledger's precision, at orders of magnitude within ±1000:
#: the product of two has up to 160, so its 80-digit rounding is seen.
ledger_decimals = st.builds(
    lambda digits, adjusted: Decimal(f"{digits}E{adjusted - 79}"),
    st.integers(min_value=10**79, max_value=10**80 - 1),
    st.integers(-1000, 1000),
)


@st.composite
def maturity_cases(draw):
    """Topped-up collateral, a maturity price and a debt. The debt is drawn
    on its own, or within one unit in the 80th digit of C'·p, where the
    exercise decision turns."""
    collateral = draw(st.one_of(st.just(Decimal(0)), ledger_decimals))
    price = draw(ledger_decimals)
    boundary = LEDGER.plus(EXACT.multiply(collateral, price))
    if boundary and draw(st.booleans()):
        neighbours = [LEDGER.next_minus(boundary), boundary, LEDGER.next_plus(boundary)]
        debt = draw(st.sampled_from(neighbours))
    else:
        debt = draw(ledger_decimals)
    return collateral, price, debt


class TestCanInitiate:
    def test_pure_below_one(self):
        pos = make_pos("100", "123.75")  # HF = 123.75*0.8/100 = 0.99
        assert can_initiate(pos, Price(Decimal(1)), THETA, params())

    def test_pure_boundary_excluded(self):
        pos = make_pos("100", "125")  # HF = 1 exactly
        assert not can_initiate(pos, Price(Decimal(1)), THETA, params())

    def test_pure_hand_example(self):
        pos = make_pos("80", "100")
        assert can_initiate(pos, Price(Decimal("0.9")), Decimal("0.85"), params())

    def test_hybrid_support_factor(self):
        # CR = 1.1, theta+buffer = 0.85 -> support factor 0.935 < 1
        pos = make_pos("100", "110")
        p = params(buffer=Decimal("0.05"))
        assert can_initiate(pos, Price(Decimal(1)), THETA, p)

    def test_hybrid_window_closed(self):
        # CR = 1.2 -> support factor 1.02 >= 1 at buffer 0.05, even though
        # HF = 0.96 < 1, which is the window at buffer 0
        pos = make_pos("100", "120")
        p = params(buffer=Decimal("0.05"))
        assert not can_initiate(pos, Price(Decimal(1)), THETA, p)
        assert can_initiate(pos, Price(Decimal(1)), THETA, params(buffer=Decimal(0)))


class TestInitiate:
    def test_topup_and_health_boost(self):
        pos = make_pos("100", "100")
        hf_before = health_factor(pos, Price(Decimal(1)), THETA)
        session = initiate(pos, Price(Decimal(1)), THETA, params(), Decimal("0.05"), HOUR, now=0)
        assert pos.collateral.value == Decimal("105")
        hf_after = health_factor(pos, Price(Decimal(1)), THETA)
        assert hf_after == hf_before * Fraction(Decimal("1.05"))
        assert session.state is SessionState.ACTIVE
        assert session.maturity == HOUR

    def test_lambda_one_doubles_collateral(self):
        pos = make_pos("100", "100")
        initiate(pos, Price(Decimal(1)), THETA, params(), Decimal("1"), HOUR, now=0)
        assert pos.collateral.value == Decimal("200")

    def test_premium_value(self):
        pos = make_pos("900", "100")  # HF = 100*10*0.8/900 < 1
        session = initiate(pos, Price(Decimal(10)), THETA, params(), Decimal("0.2"), HOUR, now=0)
        assert session.premium_value.value == Decimal("200")
        assert session.topup.value == Decimal("20")

    def test_one_session_per_position(self):
        pos = make_pos("100", "100")
        initiate(pos, Price(Decimal(1)), THETA, params(), Decimal("0.1"), HOUR, now=0)
        with pytest.raises(ActiveSessionError):
            initiate(pos, Price(Decimal(1)), THETA, params(), Decimal("0.1"), HOUR, now=10)

    def test_not_eligible(self):
        pos = make_pos("100", "200")  # HF = 1.6
        with pytest.raises(NotEligibleError):
            initiate(pos, Price(Decimal(1)), THETA, params(), Decimal("0.1"), HOUR, now=0)

    @given(
        lam=st.decimals(min_value=Decimal("0.000001"), max_value=Decimal("2"),
                        places=6, allow_nan=False, allow_infinity=False),
        c=st.decimals(min_value=Decimal("0.01"), max_value=Decimal("100000"),
                      places=6, allow_nan=False, allow_infinity=False),
        p=st.decimals(min_value=Decimal("0.01"), max_value=Decimal("10000"),
                      places=6, allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=300)
    def test_health_boost_exact(self, lam, c, p):
        # debt chosen so HF is always just under one
        price = Price(p)
        hf_target = Fraction(95, 100)
        debt = Fraction(c) * Fraction(p) * Fraction(THETA) / hf_target
        pos = BorrowingPosition(
            id="x",
            debt=Amount.debt(Decimal(debt.numerator) / Decimal(debt.denominator)),
            collateral=Amount.collateral(c),
            borrow_rate=Decimal("0.05"),
        )
        hf_before = health_factor(pos, price, THETA)
        if hf_before >= 1:
            return
        initiate(pos, price, THETA, params(), lam, HOUR, now=0)
        hf_after = health_factor(pos, price, THETA)
        assert hf_after == hf_before * (1 + Fraction(lam))


class TestTerminate:
    def setup_session(self, lam="0.2", k_re="0.5", rate="0.05"):
        pos = make_pos("100", "100", rate=rate)
        prm = params(k_re=k_re)
        session = initiate(pos, Price(Decimal(1)), THETA, prm, Decimal(lam), 2 * HOUR, now=0)
        return pos, session, prm

    def test_hand_example(self):
        pos, session, prm = self.setup_session()
        out = terminate(session, pos, Price(Decimal(1)), now=HOUR, params=prm)
        # reimbursement = 0.2 * 100 * 1.05 * 0.5 = 10.5 collateral units
        assert out.borrower_cost == Decimal("10.5")
        assert out.supporter_receipt_collateral == Decimal("30.5")
        assert pos.collateral.value == Decimal("100")
        assert session.state is SessionState.TERMINATED
        assert pos.active_session_id is None

    def test_small_k_re_limit(self):
        pos, session, prm = self.setup_session(k_re="0.000000001")
        out = terminate(session, pos, Price(Decimal(1)), now=HOUR, params=prm)
        # effective multiple stays above one: receipt exceeds the top-up
        assert out.supporter_receipt_collateral > session.topup.value
        assert out.borrower_cost == Decimal("0.2") * 100 * Decimal("1.05") * Decimal("0.000000001")

    def test_conservation(self):
        pos, session, prm = self.setup_session()
        out = terminate(session, pos, Price(Decimal(1)), now=HOUR, params=prm)
        gain = out.supporter_receipt_collateral - session.topup.value
        assert gain == session.topup.value * (1 + Decimal("0.05")) * Decimal("0.5")
        assert gain > 0

    def test_too_late(self):
        pos, session, prm = self.setup_session()
        with pytest.raises(TooLateError):
            terminate(session, pos, Price(Decimal(1)), now=session.maturity, params=prm)

    def test_too_early(self):
        pos, session, prm = self.setup_session()
        with pytest.raises(TooEarlyError):
            terminate(session, pos, Price(Decimal(1)), now=session.started, params=prm)

    def test_terminal_session_rejected(self):
        pos, session, prm = self.setup_session()
        terminate(session, pos, Price(Decimal(1)), now=HOUR, params=prm)
        with pytest.raises(SessionStateError):
            terminate(session, pos, Price(Decimal(1)), now=HOUR, params=prm)
        with pytest.raises(SessionStateError):
            settle_at_maturity(session, pos, Price(Decimal(1)), now=HOUR)


class TestSettleAtMaturity:
    def setup_session(self, debt="100", collateral="100", lam="0.1", p0="1"):
        pos = make_pos(debt, collateral)
        prm = params()
        session = initiate(pos, Price(Decimal(p0)), THETA, prm, Decimal(lam), HOUR, now=0)
        return pos, session

    def test_exercise_hand_example(self):
        pos, session = self.setup_session()
        out = settle_at_maturity(session, pos, Price(Decimal("1.2")), now=HOUR)
        assert out.state is SessionState.EXERCISED
        # 110 * 1.2 - 100 - 10 = 22
        assert out.supporter_payoff == Decimal("22")
        assert pos.debt.value == 0
        assert pos.collateral.value == 0
        assert pos.active_session_id is None

    def test_boundary_exercises_at_minus_premium(self):
        # lambda 0.25: collateral 125; at p=0.8 its value is exactly the debt
        pos, session = self.setup_session(lam="0.25")
        out = settle_at_maturity(session, pos, Price(Decimal("0.8")), now=HOUR)
        assert out.state is SessionState.EXERCISED
        assert out.supporter_payoff == -session.premium_value.value

    def test_default_hand_example(self):
        pos, session = self.setup_session()
        out = settle_at_maturity(session, pos, Price(Decimal("0.8")), now=HOUR)
        assert out.state is SessionState.DEFAULTED
        assert out.supporter_payoff == Decimal("-10")
        assert out.supporter_payoff == -session.premium_value.value
        # top-up stays put; position remains open
        assert pos.collateral.value == Decimal("110")
        assert pos.debt.value == Decimal("100")
        assert pos.active_session_id is None

    def test_too_early(self):
        pos, session = self.setup_session()
        with pytest.raises(TooEarlyError):
            settle_at_maturity(session, pos, Price(Decimal(1)), now=HOUR - 1)

    def test_double_settlement_rejected(self):
        pos, session = self.setup_session()
        settle_at_maturity(session, pos, Price(Decimal("0.8")), now=HOUR)
        with pytest.raises(SessionStateError):
            settle_at_maturity(session, pos, Price(Decimal("0.8")), now=HOUR)

    @given(
        lam1=st.decimals(min_value=Decimal("0.01"), max_value=Decimal("1"),
                         places=4, allow_nan=False, allow_infinity=False),
        lam2=st.decimals(min_value=Decimal("0.01"), max_value=Decimal("1"),
                         places=4, allow_nan=False, allow_infinity=False),
        p_t=st.decimals(min_value=Decimal("0.1"), max_value=Decimal("2"),
                        places=4, allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=200)
    def test_exercise_monotone_in_lambda(self, lam1, lam2, p_t):
        if lam1 > lam2:
            lam1, lam2 = lam2, lam1
        outcomes = []
        for lam in (lam1, lam2):
            pos = make_pos("100", "100")
            session = initiate(pos, Price(Decimal(1)), THETA, params(), lam, HOUR, now=0)
            out = settle_at_maturity(session, pos, Price(p_t), now=HOUR)
            outcomes.append(out.state)
        if outcomes[0] is SessionState.EXERCISED:
            assert outcomes[1] is SessionState.EXERCISED

    @given(case=maturity_cases())
    @settings(max_examples=300, deadline=None)
    def test_exercises_iff_the_exact_collateral_value_covers_the_debt(self, case):
        # The decision is C'·p ≥ D on the unrounded product, so a default
        # has C'·p < D and its position is liquidatable at every θ < 1.
        collateral, price, debt = case
        pos = make_pos(debt, collateral)
        session = MiqadoSession(
            id="b1@0", position_id="b1", topup=Amount.collateral(0),
            premium_value=Amount.debt(1), borrow_rate=Decimal("0.05"), started=0, maturity=HOUR,
        )
        covered = Fraction(collateral) * Fraction(price) >= Fraction(debt)
        out = settle_at_maturity(session, pos, Price(price), now=HOUR)
        assert (out.state is SessionState.EXERCISED) == covered
        if not covered:
            assert is_liquidatable(pos, Price(price), Decimal("0." + "9" * 100))


class TestSupporterDecision:
    def test_worthless_option_declined(self):
        # sigma 0, strike above the deterministic forward: value 0
        pos = make_pos("100", "120")  # all 120 units are worth 96 at spot 0.8
        lam_star = supporter_decision(pos, Price(Decimal("0.8")), HOUR, sigma=0.0)
        assert not 0.05 <= lam_star

    def test_tie_engages(self):
        # sigma 0, in-the-money forward: lambda* = 1 - e^{-0.3} exactly
        lam_star = 1 - __import__("math").exp(-0.3)
        pos = make_pos("1", "1", rate="0.3")
        lam = Decimal(repr(lam_star))
        assert float(lam) <= supporter_decision(pos, Price(Decimal(1)), 31_536_000, sigma=0.0)

    def test_band_around_break_even(self):
        # lambda* ~ 0.077 for these inputs (verified against the MC oracle)
        pos = make_pos("95", "1")
        price = Price(Decimal(100))
        term = 31_536_000 // 4
        lam_star = supporter_decision(pos, price, term, sigma=0.2)
        engage, decline = 0.05 <= lam_star, 0.2 <= lam_star
        assert engage
        assert not decline


class TestParamsValidation:
    def test_bounds(self):
        with pytest.raises(ValueError):
            initiate(make_pos(), Price(Decimal(1)), THETA, params(), Decimal("0"), HOUR, now=0)
        with pytest.raises(ValueError):
            params(k_re="1")
        with pytest.raises(ValueError):
            params(k_re="0")
        with pytest.raises(ValueError):
            initiate(make_pos(), Price(Decimal(1)), THETA, params(), Decimal("0.1"), 0, now=0)
        with pytest.raises(ValueError):
            MiqadoParams(k_re=Decimal("0.5"), buffer=Decimal("-0.1"))
