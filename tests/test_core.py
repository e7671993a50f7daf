"""Ledger arithmetic: health factors, collateralization, fixed-spread
liquidation. Expected values are hand evaluations of the definitions."""

import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from miqado.core import (
    EXACT,
    LEDGER,
    Amount,
    BorrowingPosition,
    FslParams,
    Price,
    csv_decimal,
    csv_int,
    dec_str,
    execute_fsl,
    fsl_post_health_factor,
    health_factor,
    is_liquidatable,
    quantize,
)
from miqado.errors import (
    CloseFactorViolationError,
    NotLiquidatableError,
    UndefinedHealthError,
    UnitMismatchError,
)
from miqado.protocol import MiqadoParams, can_initiate


def make_pos(debt="100", collateral="150", rate="0.05", pid="p1"):
    return BorrowingPosition(
        id=pid,
        debt=Amount.debt(Decimal(debt)),
        collateral=Amount.collateral(Decimal(collateral)),
        borrow_rate=Decimal(rate),
    )


# Strategies producing on-grid decimals (values exactly representable at
# 18 fractional digits), so ledger products stay exact.
pos_decimals = st.decimals(
    min_value=Decimal("0.000001"), max_value=Decimal("1000000"),
    places=6, allow_nan=False, allow_infinity=False,
)
unit_fractions = st.decimals(
    min_value=Decimal("0.000001"), max_value=Decimal("0.999999"),
    places=6, allow_nan=False, allow_infinity=False,
)


#: Decimals anywhere in the CSV cell range: orders of magnitude within ±1000.
csv_range_decimals = st.builds(
    lambda digits, exponent: Decimal(digits).scaleb(exponent),
    st.integers(min_value=1, max_value=10**20 - 1),
    st.integers(min_value=-1000, max_value=980),
)


def _digits_at(digits: int, adjusted: int) -> Decimal:
    """`digits` with its leading digit at 10**adjusted."""
    return Decimal(digits).scaleb(adjusted - len(str(digits)) + 1)


#: Up to 80 digits, the ledger's precision, at every order of magnitude
#: that `csv_decimal` accepts.
ledger_decimals = st.builds(
    _digits_at, st.integers(min_value=1, max_value=10**80 - 1), st.integers(-1000, 1000)
)
#: Discounts in (0, 1], of up to 80 digits, down to 1e-1000.
discounts = st.one_of(
    st.just(Decimal(1)),
    st.builds(_digits_at, st.integers(min_value=1, max_value=10**80 - 1), st.integers(-1000, -1)),
)


@st.composite
def guard_cases(draw):
    """A position, a price, theta and a buffer with theta + buffer in
    (0, 1]. The debt is drawn on its own, or within one unit in the 80th
    digit of C·p·(theta + buffer), where the guards' answer turns."""
    collateral = draw(st.one_of(st.just(Decimal(0)), ledger_decimals))
    price = draw(ledger_decimals)
    theta = draw(discounts)
    buffer = draw(st.one_of(st.just(Decimal(0)), discounts))
    assume(Fraction(theta) + Fraction(buffer) <= 1)
    discount = LEDGER.add(theta, buffer)
    boundary = LEDGER.plus(EXACT.multiply(EXACT.multiply(collateral, price), discount))
    if boundary and draw(st.booleans()):
        debt = draw(st.sampled_from([LEDGER.next_minus(boundary), boundary, LEDGER.next_plus(boundary)]))
    else:
        debt = draw(ledger_decimals)
    pos = BorrowingPosition(
        id="p1",
        debt=Amount.debt(debt),
        collateral=Amount.collateral(collateral),
        borrow_rate=Decimal("0.05"),
    )
    return pos, Price(price), theta, buffer


class TestHealthFactor:
    @given(
        c=csv_range_decimals,
        d=csv_range_decimals,
        p=csv_range_decimals,
        theta=st.one_of(st.just(Decimal(1)), csv_range_decimals),
    )
    def test_equals_four_fraction_product(self, c, d, p, theta):
        # The definition, one Fraction per operand, is the reference.
        pos = make_pos(str(d), str(c))
        expected = Fraction(c) * Fraction(p) * Fraction(theta) / Fraction(d)
        assert health_factor(pos, Price(p), theta) == expected

    def test_hand_example(self):
        pos = make_pos("100", "150")
        assert health_factor(pos, Price(Decimal(1)), Decimal("0.8")) == Fraction(6, 5)

    def test_boundary_identity(self):
        pos = make_pos("100", "125")
        assert health_factor(pos, Price(Decimal(1)), Decimal("0.8")) == 1

    def test_second_hand_example(self):
        pos = make_pos("80", "100")
        hf = health_factor(pos, Price(Decimal("0.9")), Decimal("0.85"))
        assert hf == Fraction(Decimal("0.95625"))

    def test_zero_debt_rejected(self):
        pos = make_pos()
        pos.debt = Amount.debt(0)  # post-takeover state
        with pytest.raises(UndefinedHealthError):
            health_factor(pos, Price(Decimal(1)), Decimal("0.8"))
        with pytest.raises(UndefinedHealthError):
            health_factor(pos, Price(Decimal(1)), 1)

    @given(c=pos_decimals, d=pos_decimals, p=pos_decimals, theta=unit_fractions)
    def test_cr_theta_identity(self, c, d, p, theta):
        pos = make_pos(str(d), str(c))
        price = Price(p)
        assert health_factor(pos, price, 1) * Fraction(theta) == health_factor(pos, price, theta)

    @given(c=pos_decimals, d=pos_decimals, p=pos_decimals, theta=unit_fractions)
    def test_monotonicity(self, c, d, p, theta):
        pos = make_pos(str(d), str(c))
        price = Price(p)
        hf = health_factor(pos, price, theta)
        bigger_c = make_pos(str(d), str(c * 2))
        assert health_factor(bigger_c, price, theta) > hf
        assert health_factor(pos, Price(p * 2), theta) > hf
        bigger_d = make_pos(str(d * 2), str(c))
        assert health_factor(bigger_d, price, theta) < hf


class TestCollateralizationRatio:
    def test_identity_case(self):
        assert health_factor(make_pos("100", "100"), Price(Decimal(1)), 1) == 1

    def test_hand_example(self):
        assert health_factor(make_pos("100", "150"), Price(Decimal(1)), 1) == Fraction(3, 2)


class TestIsLiquidatable:
    def test_strictly_below_one(self):
        # HF = 0.999999...: just under the threshold
        pos = make_pos("100.000001", "125")
        assert is_liquidatable(pos, Price(Decimal(1)), Decimal("0.8"))

    def test_boundary_not_liquidatable(self):
        pos = make_pos("100", "125")
        assert not is_liquidatable(pos, Price(Decimal(1)), Decimal("0.8"))

    def test_hand_example(self):
        pos = make_pos("80", "100")
        assert is_liquidatable(pos, Price(Decimal("0.9")), Decimal("0.85"))

    @given(case=guard_cases())
    @settings(max_examples=300, deadline=None)
    def test_guards_equal_the_exact_health_factor(self, case):
        # `is_liquidatable` compares C·p·θ with D without a Fraction, and
        # `can_initiate` is it at θ + buffer; both answer HF < 1 exactly.
        pos, price, theta, buffer = case
        discount = LEDGER.add(theta, buffer)
        exact = (
            Fraction(pos.collateral.value) * Fraction(price.value) * Fraction(discount)
            / Fraction(pos.debt.value)
        )
        params = MiqadoParams(k_re=Decimal("0.5"), buffer=buffer)
        assert health_factor(pos, price, discount) == exact
        assert is_liquidatable(pos, price, discount) == (exact < 1)
        assert can_initiate(pos, price, theta, params) == (exact < 1)
        pos.debt = Amount.debt(0)  # post-takeover state
        for guard in (health_factor, is_liquidatable):
            with pytest.raises(UndefinedHealthError):
                guard(pos, price, discount)
        with pytest.raises(UndefinedHealthError):
            can_initiate(pos, price, theta, params)


FSL = FslParams(theta=Decimal("0.8"), close_factor=Decimal("0.5"), spread=Decimal("0.05"))
# Low discount variant: makes moderately collateralized test positions
# liquidatable at p=1 so the classic worked numbers apply directly.
FSL_LOW = FslParams(theta=Decimal("0.4"), close_factor=Decimal("0.5"), spread=Decimal("0.05"))


class TestExecuteFsl:
    def test_hand_example(self):
        # D=100, C=200, p=1, repay 50, spread 5%: seize 52.5, profit 2.5
        pos = make_pos("100", "200")
        out = execute_fsl(pos, Price(Decimal(1)), FSL_LOW, Amount.debt(50))
        assert out.collateral_seized.value == Decimal("52.5")
        assert out.debt_repaid.value == Decimal("50")
        assert out.liquidator_profit.value == Decimal("2.5")
        assert not out.shortfall
        assert pos.debt.value == Decimal("50")
        assert pos.collateral.value == Decimal("147.5")

    def test_seizure_scales_with_price(self):
        pos = make_pos("100", "200")
        price = Price(Decimal("0.45"))
        out = execute_fsl(pos, price, FSL, Amount.debt(50))
        assert quantize(out.collateral_seized.value) == Decimal("116.666666666666666667")
        assert out.liquidator_profit.value == Decimal("2.5")
        assert pos.debt.value == Decimal("50")

    def test_zero_repay(self):
        pos = make_pos("100", "130")
        out = execute_fsl(pos, Price(Decimal(1)), FSL_LOW, Amount.debt(0))
        assert out.collateral_seized.value == 0
        assert out.debt_repaid.value == 0
        assert out.liquidator_profit.value == 0
        assert pos.debt.value == Decimal("100")
        assert pos.collateral.value == Decimal("130")

    def test_close_factor_violation(self):
        pos = make_pos("100", "130")
        with pytest.raises(CloseFactorViolationError):
            execute_fsl(pos, Price(Decimal(1)), FSL_LOW, Amount.debt(Decimal("50.0001")))

    def test_healthy_position_rejected(self):
        pos = make_pos("100", "200")
        with pytest.raises(NotLiquidatableError):
            execute_fsl(pos, Price(Decimal(1)), FSL, Amount.debt(50))

    def test_shortfall_clamp(self):
        pos = make_pos("1000", "10")
        out = execute_fsl(pos, Price(Decimal(1)), FSL_LOW, Amount.debt(500))
        assert out.shortfall
        assert out.collateral_seized.value == Decimal("10")
        assert pos.collateral.value == 0
        assert pos.debt.value > 0
        # repaid = seized * p / (1 + S)
        assert quantize(out.debt_repaid.value) == quantize(Decimal(10) / Decimal("1.05"))

    def test_case_study_bookkeeping(self):
        # Reconstructed from the published figures: 4.61M repaid, 1933.43
        # collateral units sold to cover it, 2034.64 seized.
        repay = Decimal("4610000")
        sold = Decimal("1933.43")
        seized_expected = Decimal("2034.64")
        price = Price(repay / sold)
        spread = seized_expected / sold - 1
        params = FslParams(theta=Decimal("0.8"), close_factor=Decimal("0.5"), spread=spread)
        pos = make_pos("9220000", "2100")
        out = execute_fsl(pos, price, params, Amount.debt(repay))
        assert abs(out.collateral_seized.value - seized_expected) < Decimal("1e-12")
        profit_in_collateral = out.liquidator_profit.value / price.value
        assert abs(profit_in_collateral - Decimal("101.20")) <= Decimal("0.02")

    @given(
        d=pos_decimals, c=pos_decimals, p=pos_decimals,
        theta=unit_fractions,
        spread=st.decimals(min_value=Decimal("0.000001"), max_value=Decimal("0.5"),
                           places=6, allow_nan=False, allow_infinity=False),
        k=st.decimals(min_value=Decimal("0.000001"), max_value=Decimal("1"),
                      places=6, allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=200)
    def test_conservation_and_sign_invariants(self, d, c, p, theta, spread, k):
        pos = make_pos(str(d), str(c))
        price = Price(p)
        params = FslParams(theta=theta, close_factor=k, spread=spread)
        if not is_liquidatable(pos, price, theta):
            return
        pre_debt = pos.debt.value
        out = execute_fsl(pos, price, params, Amount.debt(pre_debt * k))
        assert pos.debt.value >= 0
        assert pos.collateral.value >= 0
        # value conservation: seized * p == repaid * (1 + S) to working precision
        err = abs(out.collateral_seized.value * price.value - out.debt_repaid.value * (1 + spread))
        assert err <= Decimal("1e-40") * max(1, out.debt_repaid.value)
        if not out.shortfall:
            # maximal uncapped close: post-debt = (1 - k) * pre-debt exactly
            assert pos.debt.value == pre_debt - pre_debt * k


class TestFslPostHealthFactor:
    def test_hand_example(self):
        pos = make_pos("100", "130")
        hf_after = fsl_post_health_factor(pos, Price(Decimal(1)), FSL)
        assert hf_after == Fraction(Decimal("1.24"))
        # pure: position untouched, second call identical
        assert pos.debt.value == Decimal("100")
        assert fsl_post_health_factor(pos, Price(Decimal(1)), FSL) == hf_after

    def test_full_close_sentinel(self):
        params = FslParams(theta=Decimal("0.8"), close_factor=Decimal(1), spread=Decimal("0.05"))
        pos = make_pos("100", "130")
        assert fsl_post_health_factor(pos, Price(Decimal(1)), params) == math.inf

    def test_clamped_seizure(self):
        pos = make_pos("1000", "10")
        hf_after = fsl_post_health_factor(pos, Price(Decimal(1)), FSL)
        assert hf_after == 0  # all collateral gone, debt remains

    @given(
        d=pos_decimals, c=pos_decimals, p=pos_decimals,
        theta=unit_fractions,
        spread=st.decimals(min_value=Decimal("0.000001"), max_value=Decimal("0.5"),
                           places=6, allow_nan=False, allow_infinity=False),
        k=st.one_of(
            st.just(Decimal(1)),
            st.decimals(min_value=Decimal("0.000001"), max_value=Decimal("1"),
                        places=6, allow_nan=False, allow_infinity=False),
        ),
    )
    @settings(max_examples=200)
    def test_equals_health_factor_after_maximal_liquidation(self, d, c, p, theta, spread, k):
        pos = make_pos(str(d), str(c))
        price = Price(p)
        params = FslParams(theta=theta, close_factor=k, spread=spread)
        assume(is_liquidatable(pos, price, theta))
        predicted = fsl_post_health_factor(pos, price, params)
        execute_fsl(pos, price, params, Amount.debt(d * k))
        if pos.debt.value == 0:
            assert predicted == math.inf
        else:
            assert predicted == health_factor(pos, price, theta)


class TestAmountAndPrice:
    def test_unit_mismatch_rejected(self):
        with pytest.raises(UnitMismatchError):
            Amount.debt(1) + Amount.collateral(1)
        with pytest.raises(UnitMismatchError):
            Amount.debt(1) - Amount.collateral(1)

    def test_negative_amount_rejected(self):
        with pytest.raises(ValueError):
            Amount.debt(-1)
        with pytest.raises(ValueError):
            Amount.debt(1) - Amount.debt(2)

    def test_price_positive(self):
        with pytest.raises(ValueError):
            Price(Decimal(0))
        with pytest.raises(ValueError):
            Price(Decimal(-1))

    def test_position_validation(self):
        with pytest.raises(ValueError):
            make_pos(debt="0")
        with pytest.raises(ValueError):
            make_pos(rate="1.5")
        # 82 digits would round to 2 in the ledger, above the debt itself;
        # 80 digits, or more whose tail is zeros, are held exactly.
        with pytest.raises(ValueError, match="more digits than the ledger holds"):
            make_pos(debt="1." + "9" * 80 + "7")
        assert make_pos(debt="1." + "9" * 79).debt.value == Decimal("1." + "9" * 79)
        assert make_pos(debt="1.5" + "0" * 100).debt.value == Decimal("1.5")


class TestQuantize:
    def test_half_even_on_report_grid(self):
        assert quantize(Decimal("0.0000000000000000025")) == Decimal("2E-18")
        assert quantize(Decimal("-0.0000000000000000001")) == Decimal("0E-18")

    def test_keeps_digits_beyond_ledger_precision(self):
        # 10**70 + 0.5 on the 1e-18 grid needs 89 digits, more than the
        # 80 of the ledger context
        value = Decimal("1" + "0" * 70 + ".5")
        assert quantize(value) == value
        assert str(quantize(value)).endswith(".500000000000000000")


class TestDecStrOfEqualValues:
    """`dec_str` depends only on a value's number, so equal Decimals, which
    also hash alike, render alike: outcomes.csv renders each distinct
    value once."""

    @pytest.mark.parametrize(
        "values",
        [
            ("1.5", "1.50", "15E-1"),
            ("0", "-0", "0E-30", "-0E+5"),
            # 80 digits, a tie at the 18th fractional digit: half-even keeps the 8.
            ("0.1234567890123456785", "0.1234567890123456785" + "0" * 61),
            # 80 digits that round up at the 18th fractional digit.
            ("0.123456789012345678" + "6" * 62, "0.123456789012345678" + "6" * 62 + "000"),
        ],
    )
    def test_examples(self, values):
        decimals = [Decimal(v) for v in values]
        assert len(set(decimals)) == 1
        assert len({dec_str(d) for d in decimals}) == 1

    @given(value=ledger_decimals, negative=st.booleans(), zeros=st.integers(0, 40))
    def test_trailing_zeros_do_not_change_the_rendering(self, value, negative, zeros):
        _, digits, exponent = value.as_tuple()
        value = value.copy_negate() if negative else value
        padded = Decimal((int(negative), digits + (0,) * zeros, exponent - zeros))
        assert padded == value and hash(padded) == hash(value)
        assert dec_str(padded) == dec_str(value)


class TestCsvDecimal:
    @pytest.mark.parametrize("cell", ["0", "-0.10", "1e1000", "-9.9e1000", "1e-1000", "0E-18"])
    def test_accepts_finite_decimals_within_range(self, cell):
        assert csv_decimal(cell) == Decimal(cell)

    @pytest.mark.parametrize(
        "cell", ["", "abc", "NaN", "-Infinity", "sNaN", "1e1001", "1e-1001", "1e100000000000"]
    )
    def test_rejects_anything_else_with_value_error(self, cell):
        with pytest.raises(ValueError):
            csv_decimal(cell)


class TestCsvInt:
    @pytest.mark.parametrize("cell", ["0", "-17", "9223372036854775807", "-9223372036854775808"])
    def test_accepts_64_bit_integers(self, cell):
        assert csv_int(cell) == int(cell)

    @pytest.mark.parametrize(
        "cell",
        [
            "", "abc", "1.0", "1e3", "9223372036854775808", "-9223372036854775809",
            pytest.param("9" * 400, id="400-digits"), pytest.param("9" * 5000, id="5000-digits"),
        ],
    )
    def test_rejects_anything_else_with_value_error(self, cell):
        with pytest.raises(ValueError):
            csv_int(cell)
