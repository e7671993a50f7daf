"""Price paths (historical CSV or synthetic GBM) and a constant-product AMM.

The CSV wire format is `timestamp,price`: one point per line, integer Unix
seconds, decimal price literal, strictly increasing timestamps. Parsing and
serialization round-trip bit-exactly because prices are kept as Decimal.

Synthetic paths use geometric Brownian motion driven by a PCG64 generator;
normal variates come from the inverse CDF applied to open-interval
uniforms (53-bit integers mapped into (0,1)), so a seed pins the path
bytes on every platform. The draws (`_gbm_draws`) are a pure-Python port
that reproduces NumPy's `Generator(PCG64(seed)).integers(1, 2**53)` and
SciPy's `special.ndtri` bit for bit:
- S. Moshier, Cephes Math Library, `ndtri.c`;
- M. O'Neill, "PCG: A Family of Simple Fast Space-Efficient Statistically
  Good Algorithms for Random Number Generation", 2014;
- D. Lemire, "Fast Random Integer Generation in an Interval", ACM TOMACS,
  2019;
- NumPy's `SeedSequence` entropy mixing.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, replace
from decimal import Decimal
from typing import Iterable

from ._gbm_draws import ndtri, open_uniforms
from .core import (
    LEDGER,
    SECONDS_PER_YEAR,
    Amount,
    Numeric,
    Price,
    csv_decimal,
    csv_int,
    read_csv,
    to_decimal,
    write_csv,
)
from .errors import CsvFormatError, PathRangeError

PRICE_CSV_HEADER = "timestamp,price"

#: Most steps a synthetic path may have; bounds its memory and time.
MAX_GBM_STEPS = 1_000_000


@dataclass(frozen=True)
class PricePoint:
    timestamp: int
    price: Price


@dataclass(frozen=True)
class PricePath:
    """An ordered, strictly-increasing-in-time series of positive prices."""

    points: tuple[PricePoint, ...]

    def __post_init__(self):
        if len(self.points) == 0:
            raise ValueError("price path must contain at least one point")
        for a, b in zip(self.points, self.points[1:]):
            if b.timestamp <= a.timestamp:
                raise ValueError(
                    f"timestamps must be strictly increasing ({a.timestamp} then {b.timestamp})"
                )

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, i: int) -> PricePoint:
        return self.points[i]

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, Numeric]]) -> "PricePath":
        return cls(tuple(PricePoint(int(t), Price(to_decimal(v))) for t, v in pairs))

    @functools.cached_property
    def timestamps(self) -> tuple[int, ...]:
        """Every point's timestamp, built once per path."""
        return tuple(pt.timestamp for pt in self.points)

    @functools.cached_property
    def prices(self) -> tuple[Decimal, ...]:
        """Every point's price value, built once per path."""
        return tuple(pt.price.value for pt in self.points)

    @functools.cached_property
    def next_higher(self) -> tuple[int, ...]:
        """For every index, the index of the next point with a strictly
        higher price, or the path's length if none follows; built once per
        path in one stack pass. Following it from i visits the record
        highs of the path from i on: every point that exceeds all the
        points from i before it."""
        prices = self.prices
        n = len(prices)
        nxt = [n] * n
        waiting: list[int] = []  # indices with no higher point yet, prices non-increasing
        for j, p in enumerate(prices):
            while waiting and prices[waiting[-1]] < p:
                nxt[waiting.pop()] = j
            waiting.append(j)
        return tuple(nxt)

    def index_at_or_after(self, timestamp: int) -> int:
        """Index of the first point with timestamp >= the argument."""
        stamps = self.timestamps
        i = bisect.bisect_left(stamps, timestamp)
        if i == len(self.points):
            raise PathRangeError(
                f"path ends at {stamps[-1]}, before requested timestamp {timestamp}"
            )
        return i


def load_price_csv(data: bytes | str) -> PricePath:
    """Parse the price CSV format, reporting the offending line on error."""
    last_ts: int | None = None

    def point(cells: list[str]) -> PricePoint:
        nonlocal last_ts
        ts = csv_int(cells[0])
        if last_ts is not None and ts <= last_ts:
            raise ValueError(f"timestamp {ts} not greater than previous {last_ts}")
        last_ts = ts
        return PricePoint(ts, Price(csv_decimal(cells[1])))

    points = read_csv(data, PRICE_CSV_HEADER, point)
    if not points:
        raise CsvFormatError("no data rows after header")
    return PricePath(tuple(points))


def serialize_price_csv(path: PricePath) -> str:
    return write_csv(PRICE_CSV_HEADER, ((pt.timestamp, pt.price.value) for pt in path.points))


@dataclass(frozen=True)
class GbmParams:
    """Geometric Brownian motion inputs. `dt` is years per step."""

    p0: Price
    mu: float
    sigma: float
    dt: float
    steps: int
    seed: int
    start_ts: int = 0

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")
        if self.dt <= 0:
            raise ValueError("dt must be > 0")
        if not 1 <= self.steps <= MAX_GBM_STEPS:
            raise ValueError(f"steps must lie in [1, {MAX_GBM_STEPS}]")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not 0.5 < self.dt * SECONDS_PER_YEAR < math.inf:  # rounds to >= 1 s
            raise ValueError("dt is below one second of resolution or not finite")
        last_ts = self.start_ts + self.steps * round(self.dt * SECONDS_PER_YEAR)
        if not (-(2**63) <= self.start_ts and last_ts < 2**63):  # the price CSV's range
            raise ValueError("timestamps must lie in [-2**63, 2**63)")


def generate_gbm(params: GbmParams) -> PricePath:
    """Simulate p_{i+1} = p_i * exp((mu - sigma^2/2) dt + sigma sqrt(dt) z_i).

    z_i are standard normals from ndtri over PCG64 uniforms. Identical
    seeds give identical paths. With sigma == 0 the closed form
    p_i = p0 * exp(mu * i * dt) is used directly. A price that overflows
    or leaves (0, inf) raises ValueError.
    """
    step_seconds = round(params.dt * SECONDS_PER_YEAR)
    p0 = float(params.p0.value)
    stamps = [params.start_ts + i * step_seconds for i in range(params.steps + 1)]
    try:
        if params.sigma == 0:
            values = [p0 * math.exp(params.mu * i * params.dt) for i in range(params.steps + 1)]
        else:
            z = [ndtri(u) for u in open_uniforms(params.seed, params.steps)]
            drift = (params.mu - 0.5 * params.sigma * params.sigma) * params.dt
            vol = params.sigma * math.sqrt(params.dt)
            values = [p0]
            for zi in z:
                values.append(values[-1] * math.exp(drift + vol * zi))
    except OverflowError:
        raise ValueError("a price overflows; mu, sigma or dt is too large") from None
    return PricePath.from_pairs(zip(stamps, (Decimal(repr(v)) for v in values)))


@dataclass
class CpAmmPool:
    """Constant-product pool: reserve_quote (debt units) x reserve_base
    (collateral units). Spot price is quote/base. Fee is taken on the way
    in, Uniswap-v2 style, and stays in the reserves; analytic identities
    (product preservation, the price-ratio law) need fee=0."""

    reserve_quote: Decimal
    reserve_base: Decimal
    fee: Decimal = Decimal("0.003")

    def __post_init__(self):
        self.reserve_quote = to_decimal(self.reserve_quote)
        self.reserve_base = to_decimal(self.reserve_base)
        self.fee = to_decimal(self.fee)
        if self.reserve_quote <= 0 or self.reserve_base <= 0:
            raise ValueError("reserves must be > 0")
        if not 0 <= self.fee < 1:
            raise ValueError("fee must lie in [0, 1)")

    @property
    def spot(self) -> Decimal:
        return LEDGER.divide(self.reserve_quote, self.reserve_base)


def amm_swap_base_for_quote(
    pool: CpAmmPool, amount_base_in: Numeric
) -> tuple[Decimal, Decimal]:
    """Sell base into the pool; returns (quote_out, new_spot).

    Mutates the pool reserves. With fee == 0 the product x*y is preserved
    to the working precision, so the price ratio after selling dy is
    (y / (y + dy))^2.
    """
    dy = to_decimal(amount_base_in)
    if dy < 0:
        raise ValueError("amount_base_in must be >= 0")
    if dy == 0:
        return Decimal(0), pool.spot
    x, y = pool.reserve_quote, pool.reserve_base
    dy_eff = LEDGER.multiply(dy, LEDGER.subtract(1, pool.fee))
    k = LEDGER.multiply(x, y)
    new_x = LEDGER.divide(k, LEDGER.add(y, dy_eff))
    quote_out = LEDGER.subtract(x, new_x)
    pool.reserve_quote = LEDGER.subtract(x, quote_out)
    pool.reserve_base = LEDGER.add(y, dy)
    new_spot = LEDGER.divide(pool.reserve_quote, pool.reserve_base)
    return quote_out, new_spot


def direct_price_decline(
    pool: CpAmmPool, seized: Amount, sold_fraction: Numeric
) -> Decimal:
    """Relative spot decline from selling seized * sold_fraction.

    Works on a copy of the pool, so repeated metric evaluation does not
    drain the reserves.
    """
    frac = to_decimal(sold_fraction)
    if not 0 <= frac <= 1:
        raise ValueError("sold_fraction must lie in [0, 1]")
    scratch = replace(pool)
    before = scratch.spot
    sold = LEDGER.multiply(seized.value, frac)
    _, after = amm_swap_base_for_quote(scratch, sold)
    return LEDGER.divide(LEDGER.subtract(before, after), before)


def pool_from_price_impact(
    spot_before: Numeric, spot_after: Numeric, base_sold: Numeric, fee: Numeric = 0
) -> CpAmmPool:
    """Reconstruct fee-free-equivalent reserves from one observed trade.

    Under the constant product rule the price ratio after selling dy is
    (y/(y+dy))^2, so y = dy * r / (1 - r) with r = sqrt(after/before).
    The returned pool has the given spot and reproduces the observed
    decline when `base_sold` is sold into it.
    """
    p0 = to_decimal(spot_before)
    p1 = to_decimal(spot_after)
    dy = to_decimal(base_sold)
    if not 0 < p1 < p0:
        raise ValueError("need 0 < spot_after < spot_before")
    if dy <= 0:
        raise ValueError("base_sold must be > 0")
    rho = LEDGER.sqrt(LEDGER.divide(p1, p0))
    y = LEDGER.divide(LEDGER.multiply(dy, rho), LEDGER.subtract(1, rho))
    x = LEDGER.multiply(p0, y)
    return CpAmmPool(reserve_quote=x, reserve_base=y, fee=to_decimal(fee))
