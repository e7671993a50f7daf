"""Option payoffs, normal CDF, call valuation, volatility estimation.

The option's payoffs are settled by the support protocol, so they are
checked through `settle_at_maturity` and `terminate` on a session whose
takeover right is the option.

Monte-Carlo reference values were produced by an independent seeded
GBM payoff simulation (antithetic, inverse-CDF normals over PCG64) and
frozen here. The CDF references come from quadrature of the Gaussian
density.
"""

import math
from decimal import Decimal

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from miqado.core import Amount, BorrowingPosition, Price, ledger_context
from miqado.errors import InsufficientDataError, UnitMismatchError
from miqado.market import PricePath
from miqado.option import (
    BsInputs,
    ModelInputError,
    bs_call_price,
    historical_volatility,
    optimal_premium_factor,
    std_normal_cdf,
)
from miqado.protocol import (
    MiqadoParams,
    SessionState,
    initiate,
    settle_at_maturity,
    terminate,
)

# Frozen output of the independent Monte-Carlo oracle for
# (S0=100, K=100, r=0.05, r_f=0, sigma=0.2, T=1), seed 20240811,
# 500k antithetic pairs.
MC_ATM_CALL = 10.452096058627289


def mc_call_estimate(spot, strike, r, rf, sigma, term, n_pairs=500_000, seed=20240811):
    """Independent discounted-payoff estimate under risk-neutral GBM."""
    import numpy as np
    from scipy.special import ndtri

    rng = np.random.default_rng(np.random.PCG64(seed))
    u = rng.integers(1, 2**53, size=n_pairs).astype(np.float64) / 2**53
    z = ndtri(u)
    drift = (r - rf - 0.5 * sigma * sigma) * term
    vol = sigma * math.sqrt(term)
    up = spot * np.exp(drift + vol * z)
    dn = spot * np.exp(drift - vol * z)
    payoff = 0.5 * (np.maximum(up - strike, 0.0) + np.maximum(dn - strike, 0.0))
    return math.exp(-r * term) * payoff.mean()


HOUR = 3600


def takeover_session(
    debt="100", collateral="80", lam="0.25", p0="0.25", rate="0.05", k_re="0.5", term=HOUR
):
    """A support session on a position with health factor below one. Its
    option has strike D = debt, premium lam * C * p0 and underlying the
    topped-up collateral C * (1 + lam). The defaults give premium 5 on 100
    collateral units."""
    pos = BorrowingPosition(
        id="b1",
        debt=Amount.debt(Decimal(debt)),
        collateral=Amount.collateral(Decimal(collateral)),
        borrow_rate=Decimal(rate),
    )
    params = MiqadoParams(k_re=Decimal(k_re))
    session = initiate(pos, Price(Decimal(p0)), Decimal("0.8"), params, Decimal(lam), term, now=0)
    return pos, session, params


def settle(asset_value, **kw):
    """Settle at maturity at the price where the topped-up collateral is
    worth `asset_value`."""
    pos, session, _ = takeover_session(**kw)
    p_t = Decimal(asset_value) / pos.collateral.value
    return settle_at_maturity(session, pos, Price(p_t), now=HOUR)


def buyer_payoff(asset_value, **kw):
    return settle(asset_value, **kw).supporter_payoff


def termination(p="0.25", **kw):
    pos, session, params = takeover_session(**kw)
    return session, terminate(session, pos, Price(Decimal(p)), now=HOUR // 2, params=params)


class TestBuyerPayoff:
    """At maturity the supporter holds a call on the collateral struck at
    the debt, bought for the premium: C*p - D - premium when C*p >= D,
    otherwise -premium."""

    def test_branch_boundary(self):
        # at the strike the supporter still takes the position over
        out = settle("100")
        assert out.state is SessionState.EXERCISED
        assert out.supporter_payoff == -5

    def test_in_the_money(self):
        assert buyer_payoff("120") == 15

    def test_out_of_the_money(self):
        assert buyer_payoff("80") == -5

    @given(
        debt=st.decimals(min_value=1, max_value=10**6, places=4),
        lam=st.decimals(min_value=Decimal("0.0001"), max_value=2, places=4),
        p0=st.decimals(min_value=Decimal("0.01"), max_value=100, places=4),
        p_t=st.decimals(min_value=Decimal("0.0001"), max_value=10**4, places=4),
    )
    def test_floor_is_minus_premium(self, debt, lam, p0, p_t):
        assume(100 * p0 * Decimal("0.8") < debt)  # health factor below one
        pos, session, _ = takeover_session(debt=debt, collateral="100", lam=lam, p0=p0)
        premium = session.premium_value.value
        with ledger_context():
            asset = pos.collateral.value * p_t
            expected = asset - debt - premium if asset >= debt else -premium
        payoff = settle_at_maturity(session, pos, Price(p_t), now=HOUR).supporter_payoff
        assert payoff == expected
        assert payoff >= -premium

    def test_continuous_at_strike(self):
        below = buyer_payoff("99.999999999")
        above = buyer_payoff("100.000000001")
        assert abs(above - below) < Decimal("1e-6")

    def test_negative_premium_rejected(self):
        with pytest.raises(ValueError):
            takeover_session(lam="-0.25")


class TestTerminationPayoff:
    """On termination the supporter is paid topup * (1 + r) * k_re
    collateral units, worth that times the terminating price."""

    def test_identity_factor(self):
        # (1 + 0.25) * 0.8 = 1: the payoff is the top-up itself, which at
        # the initiation price is the premium
        session, out = termination(rate="0.25", k_re="0.8")
        assert out.supporter_payoff == session.premium_value.value == 5

    def test_scaling(self):
        # (1 + 0.875) * 0.8 = 1.5 times the top-up of 20 units
        _, out = termination(rate="0.875", k_re="0.8")
        assert out.supporter_payoff == Decimal("7.5")
        _, out = termination(p="0.5", rate="0.875", k_re="0.8")
        assert out.supporter_payoff == 15

    def test_zero_premium(self):
        # no collateral: zero top-up, zero premium, zero reimbursement
        session, out = termination(collateral="0")
        assert session.premium_value.value == 0
        assert out.supporter_payoff == 0

    def test_nonpositive_factor_rejected(self):
        for k_re in ("0", "-0.5"):
            with pytest.raises(ValueError):
                takeover_session(k_re=k_re)


class TestStdNormalCdf:
    def test_symmetry_point(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_quadrature_values(self):
        # quadrature of the Gaussian density, frozen
        assert abs(std_normal_cdf(1.96) - 0.9750021048517795) < 1e-9
        assert abs(std_normal_cdf(-1.96) - 0.024997895148220425) < 1e-9
        assert abs(std_normal_cdf(3.0) - 0.9986501019683698) < 1e-9

    def test_quadrature_sweep(self):
        import numpy as np
        from scipy.integrate import quad

        pdf = lambda t: math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi)
        for x in np.linspace(-6, 6, 49):
            ref, _ = quad(pdf, -40.0, float(x), limit=400)
            assert abs(std_normal_cdf(float(x)) - ref) < 1e-9

    @given(st.floats(-30, 30, allow_nan=False))
    def test_complement(self, x):
        assert abs(std_normal_cdf(x) + std_normal_cdf(-x) - 1.0) < 1e-14


class TestBsCallPrice:
    def test_zero_vol_limit(self):
        price = bs_call_price(BsInputs(120.0, 100.0, 0.0, 0.0, 0.0, 1.0))
        assert price == 20.0

    def test_tiny_strike_limit(self):
        inputs = BsInputs(100.0, 1e-9, 0.02, 0.01, 0.3, 1.0)
        assert abs(bs_call_price(inputs) - 100.0 * math.exp(-0.01)) < 1e-6

    def test_against_frozen_mc_oracle(self):
        price = bs_call_price(BsInputs(100.0, 100.0, 0.05, 0.0, 0.2, 1.0))
        assert abs(price - MC_ATM_CALL) / MC_ATM_CALL < 0.005

    @given(
        s0=st.floats(10, 1000),
        k=st.floats(10, 1000),
        sigma=st.floats(0.01, 1.5),
        t=st.floats(0.05, 5),
        r=st.floats(0, 0.2),
        rf=st.floats(0, 0.2),
    )
    @settings(max_examples=300)
    def test_bounds(self, s0, k, sigma, t, r, rf):
        price = bs_call_price(BsInputs(s0, k, r, rf, sigma, t))
        lower = max(s0 * math.exp(-rf * t) - k * math.exp(-r * t), 0.0)
        upper = s0 * math.exp(-rf * t)
        assert price >= lower - 1e-9
        assert price <= upper + 1e-9

    @given(
        s0=st.floats(10, 1000),
        k=st.floats(10, 1000),
        sigma=st.floats(0.01, 1.0),
        t=st.floats(0.05, 5),
    )
    @settings(max_examples=300)
    def test_monotonicity(self, s0, k, sigma, t):
        base = bs_call_price(BsInputs(s0, k, 0.05, 0.0, sigma, t))
        assert bs_call_price(BsInputs(s0, k, 0.05, 0.0, sigma * 1.5, t)) >= base - 1e-12
        assert bs_call_price(BsInputs(s0 * 1.1, k, 0.05, 0.0, sigma, t)) >= base - 1e-12
        assert bs_call_price(BsInputs(s0, k * 1.1, 0.05, 0.0, sigma, t)) <= base + 1e-12

    @pytest.mark.parametrize(
        "inputs, fields",
        [
            pytest.param((1e-300, 1e300, 0.0, 0.0, 100.0, 1e10), ("spot", "strike"), id="log"),
            pytest.param(
                (100.0, 100.0, 0.0, -1e6, 0.2, 1.0), ("foreign_rate", "term"), id="disc_f"
            ),
            pytest.param(
                (1e300, 1e-300, -1.0, 0.0, 0.0, 1e10), ("domestic_rate", "term"), id="disc_d"
            ),
            pytest.param((100.0, 100.0, 0.0, 0.0, 1e200, 1.0), ("volatility",), id="sigma**2"),
        ],
    )
    def test_value_out_of_float_range_names_inputs(self, inputs, fields):
        with pytest.raises(ModelInputError) as err:
            bs_call_price(BsInputs(*inputs))
        assert isinstance(err.value, ValueError)
        assert err.value.fields == fields
        assert str(err.value).endswith("; check " + ", ".join(fields))
        flags = {f: f"--{f}" for f in fields}
        assert err.value.naming(flags).endswith("; check " + ", ".join(flags.values()))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            BsInputs(0.0, 100.0, 0.0, 0.0, 0.2, 1.0)
        with pytest.raises(ValueError):
            BsInputs(100.0, 100.0, 0.0, 0.0, -0.2, 1.0)
        with pytest.raises(ValueError):
            BsInputs(100.0, 100.0, 0.0, 0.0, 0.2, 0.0)


class TestOptimalPremiumFactor:
    def test_definitional_identity(self):
        p = Price(Decimal(100))
        c = Amount.collateral(Decimal(10))
        lam = optimal_premium_factor(p, c, 100.0, 0.05, 0.0, 0.2, 1.0)
        price = bs_call_price(BsInputs(100.0, 100.0, 0.05, 0.0, 0.2, 1.0))
        assert lam * 10.0 * 100.0 == pytest.approx(price, rel=1e-12)

    def test_homogeneity_in_collateral(self):
        p = Price(Decimal(100))
        lam1 = optimal_premium_factor(p, Amount.collateral(10), 100.0, 0.05, 0.0, 0.2, 1.0)
        lam2 = optimal_premium_factor(p, Amount.collateral(20), 100.0, 0.05, 0.0, 0.2, 1.0)
        assert lam2 == pytest.approx(lam1 / 2, rel=1e-12)

    def test_concrete_value_against_mc(self):
        # lambda* = (MC price of the (100,100,0.05,0,0.2,1) call) / 1000
        lam = optimal_premium_factor(
            Price(Decimal(100)), Amount.collateral(10), 100.0, 0.05, 0.0, 0.2, 1.0
        )
        assert lam == pytest.approx(MC_ATM_CALL / 1000.0, rel=0.005)

    def test_zero_collateral_rejected(self):
        with pytest.raises(ModelInputError, match="value is zero.*; check spot, collateral$"):
            optimal_premium_factor(
                Price(Decimal(100)), Amount.collateral(0), 100.0, 0.05, 0.0, 0.2, 1.0
            )


class TestHistoricalVolatility:
    def test_constant_path(self):
        path = PricePath.from_pairs([(i, "50") for i in range(5)])
        assert historical_volatility(path, 365.0) == 0.0

    def test_alternating_hand_value(self):
        # p,2p,p,2p,p: returns [ln2,-ln2,ln2,-ln2], sample std 2*ln2/sqrt(3)
        path = PricePath.from_pairs([(0, "100"), (1, "200"), (2, "100"), (3, "200"), (4, "100")])
        expected = 2 * math.log(2) / math.sqrt(3)
        assert historical_volatility(path, 1.0) == pytest.approx(expected, abs=1e-12)
        assert historical_volatility(path, 8760.0) == pytest.approx(
            expected * math.sqrt(8760.0), rel=1e-12
        )

    def test_scale_invariance(self):
        base = [(i, str(100 + 7 * ((i * i) % 13))) for i in range(10)]
        scaled = [(t, str(Decimal(v) * 37)) for t, v in base]
        v1 = historical_volatility(PricePath.from_pairs(base), 365.0)
        v2 = historical_volatility(PricePath.from_pairs(scaled), 365.0)
        assert v1 == pytest.approx(v2, rel=1e-9)

    def test_short_path_rejected(self):
        path = PricePath.from_pairs([(0, "1"), (1, "2")])
        with pytest.raises(InsufficientDataError):
            historical_volatility(path, 365.0)


class TestPricingAgainstRuntimeMc:
    def test_atm_cell_runtime(self):
        est = mc_call_estimate(100.0, 100.0, 0.05, 0.0, 0.2, 1.0, n_pairs=200_000)
        price = bs_call_price(BsInputs(100.0, 100.0, 0.05, 0.0, 0.2, 1.0))
        assert abs(price - est) / est < 0.005


class TestReversibleCallOption:
    """One contract, strike 100 and premium 5, settled each way."""

    def test_payoffs(self):
        assert buyer_payoff("120") == 15
        assert buyer_payoff("80") == -5
        # terminated: the supporter takes back the top-up of 20 units plus
        # (1 + 0.25) * 0.4 = 0.5 of it, 1.5 times the premium at p0
        session, out = termination(rate="0.25", k_re="0.4")
        assert out.supporter_receipt_collateral == Decimal("1.5") * session.topup.value
        assert out.supporter_receipt_collateral * Decimal("0.25") == Decimal("7.5")

    def test_validation(self):
        with pytest.raises(ValueError):
            takeover_session(term=0)
        with pytest.raises(ValueError):
            takeover_session(lam="0")
        with pytest.raises(UnitMismatchError):
            BorrowingPosition(
                id="b1",
                debt=Amount.debt(100),
                collateral=Amount.debt(10),
                borrow_rate=Decimal("0.05"),
            )
