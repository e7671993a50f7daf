"""Price path CSV round-trip, GBM generation, constant-product AMM."""

import math
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from miqado._gbm_draws import ndtri, open_uniforms
from miqado.core import Amount, Price, ledger_context
from miqado.errors import CsvFormatError, PathRangeError
from miqado.market import (
    CpAmmPool,
    GbmParams,
    PricePath,
    amm_swap_base_for_quote,
    direct_price_decline,
    generate_gbm,
    load_price_csv,
    pool_from_price_impact,
    serialize_price_csv,
)


class TestPriceCsv:
    def test_two_row_smoke(self):
        path = load_price_csv(b"timestamp,price\n0,1.50\n60,2.25\n")
        assert len(path) == 2
        assert path[0].timestamp == 0
        assert path[1].price.value == Decimal("2.25")

    def test_duplicate_timestamp_names_line(self):
        with pytest.raises(CsvFormatError) as err:
            load_price_csv(b"timestamp,price\n0,1.5\n0,1.6\n")
        assert err.value.line == 3
        assert "line 3" in str(err.value)

    def test_header_only_rejected(self):
        with pytest.raises(CsvFormatError):
            load_price_csv(b"timestamp,price\n")

    def test_bad_header(self):
        with pytest.raises(CsvFormatError) as err:
            load_price_csv(b"time,price\n0,1\n")
        assert err.value.line == 1

    def test_nonpositive_price_named(self):
        with pytest.raises(CsvFormatError) as err:
            load_price_csv(b"timestamp,price\n0,1\n60,0\n")
        assert err.value.line == 3

    def test_bad_field_count(self):
        with pytest.raises(CsvFormatError) as err:
            load_price_csv(b"timestamp,price\n0,1,2\n")
        assert err.value.line == 2

    def test_round_trip_bit_exact(self):
        text = "timestamp,price\n0,1.50\n60,2.2500\n3600,0.031\n"
        path = load_price_csv(text)
        assert serialize_price_csv(path) == text
        # and a second pass is a fixed point
        again = load_price_csv(serialize_price_csv(path))
        assert serialize_price_csv(again) == text

    def test_index_at_or_after(self):
        path = load_price_csv("timestamp,price\n0,1\n60,1\n120,1\n")
        assert path.index_at_or_after(0) == 0
        assert path.index_at_or_after(59) == 1
        assert path.index_at_or_after(120) == 2
        with pytest.raises(PathRangeError):
            path.index_at_or_after(121)


class TestGbm:
    def test_zero_vol_closed_form(self):
        params = GbmParams(p0=Price(Decimal(100)), mu=0.5, sigma=0.0, dt=0.01, steps=200, seed=1)
        path = generate_gbm(params)
        for i, pt in enumerate(path.points):
            expected = 100.0 * math.exp(0.5 * i * 0.01)
            assert abs(float(pt.price.value) - expected) <= 1e-12 * expected

    def test_seed_determinism(self):
        params = GbmParams(p0=Price(Decimal(100)), mu=0.1, sigma=0.4, dt=0.001, steps=100, seed=42)
        a = serialize_price_csv(generate_gbm(params))
        b = serialize_price_csv(generate_gbm(params))
        assert a == b
        c = serialize_price_csv(
            generate_gbm(
                GbmParams(p0=Price(Decimal(100)), mu=0.1, sigma=0.4, dt=0.001, steps=100, seed=43)
            )
        )
        assert c != a

    def test_timestamps(self):
        params = GbmParams(
            p0=Price(Decimal(100)), mu=0.0, sigma=0.2, dt=1 / 8760, steps=3, seed=7, start_ts=1000
        )
        path = generate_gbm(params)
        assert [pt.timestamp for pt in path.points] == [1000, 4600, 8200, 11800]

    def test_terminal_mean_matches_drift(self):
        # 1e5 seeded one-step paths: sample mean of p_T within 3 standard
        # errors of p0 * exp(mu T)
        n = 100_000
        mu, sigma, dt = 0.07, 0.3, 0.25
        total = 0.0
        sq = 0.0
        for seed in range(n):
            path = generate_gbm(
                GbmParams(p0=Price(Decimal(100)), mu=mu, sigma=sigma, dt=dt, steps=1, seed=seed)
            )
            v = float(path[-1].price.value)
            total += v
            sq += v * v
        mean = total / n
        se = math.sqrt((sq / n - mean * mean) / n)
        assert abs(mean - 100.0 * math.exp(mu * dt)) <= 3 * se

    def test_validation(self):
        with pytest.raises(ValueError):
            GbmParams(p0=Price(Decimal(100)), mu=0, sigma=-0.1, dt=0.01, steps=1, seed=0)
        with pytest.raises(ValueError):
            GbmParams(p0=Price(Decimal(100)), mu=0, sigma=0.1, dt=0.0, steps=1, seed=0)
        with pytest.raises(ValueError):
            GbmParams(p0=Price(Decimal(100)), mu=0, sigma=0.1, dt=0.01, steps=0, seed=0)


class TestGbmDraws:
    """The pure-Python draws against the NumPy and SciPy routines they port."""

    @pytest.mark.parametrize(
        "seed",
        [0, 1, 2, 100, 101, 12345, 2**32 - 1, 2**32, 2**32 + 7, 2**63 - 1, 2**64 - 1,
         2**64 + 3, 2**100 + 9, 2**200 + 1, 12345678901234567890123456789012345678901234],
    )
    def test_uniforms_equal_numpy(self, seed):
        # Seeds past 2**128 have more than four 32-bit words, which
        # SeedSequence mixes into the pool in a third loop.
        import numpy as np

        n = 20_000
        expected = np.random.Generator(np.random.PCG64(seed)).integers(1, 2**53, n) / 2**53
        assert open_uniforms(seed, n) == expected.tolist()

    def test_ndtri_equals_scipy(self):
        import numpy as np
        import scipy.special

        rng = np.random.default_rng(2023)
        y = np.concatenate([
            rng.random(1_000_000),
            np.exp(-rng.uniform(0, 700, 100_000)),  # lower tail, to about 1e-304
            1 - np.exp(-rng.uniform(0, 36, 100_000)),  # upper tail, to 1 - 2**-52
        ])
        got = [ndtri(v) for v in y.tolist()]
        mismatches = [
            (v, a, b)
            for v, a, b in zip(y.tolist(), got, scipy.special.ndtri(y).tolist())
            if a != b
        ]
        assert mismatches == []

    @pytest.mark.parametrize(
        "boundary",
        # where Cephes switches approximation: the central band's two edges,
        # and sqrt(-2 log y) crossing 8
        [1 - math.exp(-2), math.exp(-2), math.exp(-32)],
    )
    def test_ndtri_equals_scipy_at_branch_boundaries(self, boundary):
        import numpy as np
        import scipy.special

        y = [boundary]
        for toward in (0.0, 1.0):
            v = boundary
            for _ in range(64):
                v = math.nextafter(v, toward)
                y.append(v)
        assert [ndtri(v) for v in y] == scipy.special.ndtri(np.array(y)).tolist()

    def test_ndtri_edges_equal_scipy(self):
        import numpy as np
        import scipy.special

        y = [0.0, 1.0, 5e-324, 0.5, math.nextafter(1.0, 0.0)]
        assert [ndtri(v) for v in y] == scipy.special.ndtri(np.array(y)).tolist()
        outside = [-0.5, 1.5, math.nan]
        assert all(math.isnan(v) for v in scipy.special.ndtri(np.array(outside)))
        assert all(math.isnan(ndtri(v)) for v in outside)


class TestAmm:
    def make_pool(self, x="1000000", y="10000", fee="0"):
        return CpAmmPool(reserve_quote=Decimal(x), reserve_base=Decimal(y), fee=Decimal(fee))

    def test_zero_swap(self):
        pool = self.make_pool()
        spot_before = pool.spot
        out, spot = amm_swap_base_for_quote(pool, 0)
        assert out == 0
        assert spot == spot_before

    def test_product_preserved_fee_zero(self):
        pool = self.make_pool()
        k_before = pool.reserve_quote * pool.reserve_base
        amm_swap_base_for_quote(pool, Decimal("137.25"))
        k_after = pool.reserve_quote * pool.reserve_base
        assert abs(k_after - k_before) <= Decimal("1e-60") * k_before

    def test_product_non_decreasing_with_fee(self):
        pool = self.make_pool(fee="0.003")
        k_before = pool.reserve_quote * pool.reserve_base
        amm_swap_base_for_quote(pool, Decimal("500"))
        assert pool.reserve_quote * pool.reserve_base >= k_before

    def test_price_ratio_law(self):
        pool = self.make_pool()
        y = pool.reserve_base
        dy = Decimal("250")
        spot_before = pool.spot
        _, spot_after = amm_swap_base_for_quote(pool, dy)
        with ledger_context():
            expected_ratio = (y / (y + dy)) ** 2
            assert abs(spot_after / spot_before - expected_ratio) < Decimal("1e-50")

    def test_path_independence_fee_zero(self):
        a, b = Decimal("111.5"), Decimal("93.25")
        pool1 = self.make_pool()
        amm_swap_base_for_quote(pool1, a)
        amm_swap_base_for_quote(pool1, b)
        pool2 = self.make_pool()
        amm_swap_base_for_quote(pool2, a + b)
        assert abs(pool1.reserve_quote - pool2.reserve_quote) < Decimal("1e-50")
        assert pool1.reserve_base == pool2.reserve_base

    @given(
        sold1=st.decimals(min_value=Decimal("0.01"), max_value=Decimal("1000"),
                          places=4, allow_nan=False, allow_infinity=False),
        sold2=st.decimals(min_value=Decimal("0.01"), max_value=Decimal("1000"),
                          places=4, allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=100)
    def test_decline_monotone_in_amount(self, sold1, sold2):
        pool = self.make_pool()
        lo, hi = sorted([sold1, sold2])
        d_lo = direct_price_decline(pool, Amount.collateral(lo), 1)
        d_hi = direct_price_decline(pool, Amount.collateral(hi), 1)
        if lo == hi:
            assert d_lo == d_hi
        else:
            assert d_lo < d_hi

    def test_decline_zero_fraction(self):
        pool = self.make_pool()
        assert direct_price_decline(pool, Amount.collateral(100), 0) == 0

    def test_decline_does_not_mutate(self):
        pool = self.make_pool()
        x, y = pool.reserve_quote, pool.reserve_base
        direct_price_decline(pool, Amount.collateral(100), 1)
        assert (pool.reserve_quote, pool.reserve_base) == (x, y)


class TestCaseStudyReconstruction:
    SPOT_BEFORE = Decimal("2477.96")
    SPOT_AFTER = Decimal("2305.85")
    SOLD = Decimal("1933.43")

    def test_reconstructed_reserves(self):
        pool = pool_from_price_impact(self.SPOT_BEFORE, self.SPOT_AFTER, self.SOLD)
        # closed form: y = dy * rho / (1 - rho), rho = sqrt(after/before)
        assert abs(pool.reserve_base - Decimal("52755.717159248659")) < Decimal("1e-6")
        assert abs(pool.spot - self.SPOT_BEFORE) < Decimal("1e-50")

    def test_swap_reproduces_decline(self):
        pool = pool_from_price_impact(self.SPOT_BEFORE, self.SPOT_AFTER, self.SOLD)
        decline = direct_price_decline(pool, Amount.collateral(self.SOLD), 1)
        # published figure: -6.95%, tolerance 0.05 percentage points
        assert abs(decline * 100 - Decimal("6.95")) <= Decimal("0.05")
        # and the ratio law pins the exact reconstruction value
        assert abs(decline - Decimal("0.069456326978643723")) < Decimal("1e-15")

    def test_new_spot_matches(self):
        pool = pool_from_price_impact(self.SPOT_BEFORE, self.SPOT_AFTER, self.SOLD)
        _, new_spot = amm_swap_base_for_quote(pool, self.SOLD)
        assert abs(new_spot - self.SPOT_AFTER) < Decimal("1e-40")
