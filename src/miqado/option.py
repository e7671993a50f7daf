"""Black-Scholes-style valuation of the takeover option.

Unlike the ledger modules this one computes in binary floating point:
option values are model estimates, not account balances. The option's
payoffs themselves are settled exactly, in Decimal, by the protocol
(`miqado.protocol.settle_at_maturity` and `terminate`).
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, fields
from typing import Mapping

from .core import Amount, Price
from .errors import InsufficientDataError
from .market import PricePath

_SQRT2 = math.sqrt(2.0)


def std_normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-x / _SQRT2)


class ModelInputError(ValueError):
    """A model value that is undefined or out of the float range. `fields`
    are the model inputs it was computed from: the `BsInputs` fields and
    `collateral`."""

    def __init__(self, what: str, *fields: str):
        self.what, self.fields = what, fields
        super().__init__(self.naming({}))

    def naming(self, names: Mapping[str, str]) -> str:
        """The message, with each input called by its name in `names`
        (a flag or a config field), or by its own name when it has none."""
        return f"{self.what}; check {', '.join(names.get(f, f) for f in self.fields)}"


def _finite(value: float, what: str, *fields: str) -> float:
    """`value`, or ModelInputError when the model gave no finite value."""
    if not math.isfinite(value):
        raise ModelInputError(f"{what} is undefined or out of the float range ({value})", *fields)
    return value


@dataclass(frozen=True)
class BsInputs:
    """Inputs for the two-rate European call formula.

    spot is the exchange rate at valuation time, domestic_rate discounts
    the strike currency, foreign_rate the asset currency, volatility is
    annualized, term is in years.
    """

    spot: float
    strike: float
    domestic_rate: float
    foreign_rate: float
    volatility: float
    term: float

    def __post_init__(self):
        if self.spot <= 0:
            raise ModelInputError("spot must be > 0", "spot")
        if self.strike <= 0:
            raise ModelInputError("strike must be > 0", "strike")
        if self.volatility < 0:
            raise ModelInputError("volatility must be >= 0", "volatility")
        if self.term <= 0:
            raise ModelInputError("term must be > 0", "term")


#: The inputs of the call price: every BsInputs field.
_CALL_INPUTS = tuple(f.name for f in fields(BsInputs))


def _discount(inputs: BsInputs, rate: str) -> float:
    """exp(-rate * term) for the `rate` field, or ModelInputError when it
    overflows a float."""
    try:
        return math.exp(-getattr(inputs, rate) * inputs.term)
    except OverflowError:
        raise ModelInputError(f"exp(-{rate} * term) overflows a float", rate, "term") from None


def bs_call_price(inputs: BsInputs) -> float:
    """European call value S0 e^{-rf T} N(d1) - K e^{-r T} N(d2).

    d1 = (ln(S0/K) + (r - rf + sigma^2/2) T) / (sigma sqrt(T)) and
    d2 = d1 - sigma sqrt(T). Zero volatility degenerates to the
    deterministic forward payoff max(S0 e^{-rf T} - K e^{-r T}, 0). A
    value the formula cannot give raises ModelInputError naming its inputs.
    """
    s0, k, term = inputs.spot, inputs.strike, inputs.term
    disc_f = _discount(inputs, "foreign_rate")
    disc_d = _discount(inputs, "domestic_rate")
    vol_sqrt_t = inputs.volatility * math.sqrt(term)
    if vol_sqrt_t == 0:
        return _finite(max(s0 * disc_f - k * disc_d, 0.0), "call price", *_CALL_INPUTS)
    try:
        d1 = (
            math.log(s0 / k)
            + (inputs.domestic_rate - inputs.foreign_rate + 0.5 * inputs.volatility**2) * term
        ) / vol_sqrt_t
    except ValueError:  # spot / strike underflowed to zero
        raise ModelInputError("log(spot / strike) is undefined", "spot", "strike") from None
    except OverflowError:
        raise ModelInputError("volatility**2 overflows a float", "volatility") from None
    d2 = d1 - vol_sqrt_t
    price = s0 * disc_f * std_normal_cdf(d1) - k * disc_d * std_normal_cdf(d2)
    return _finite(max(price, 0.0), "call price", *_CALL_INPUTS)


def optimal_premium_factor(
    p_t0: Price,
    c_t0: Amount,
    strike: float,
    domestic_rate: float,
    foreign_rate: float,
    sigma: float,
    term: float,
) -> float:
    """Break-even premium factor: option value over collateral value.

    The option is the takeover right on the whole position: a call whose
    spot is the collateral's value C·p0 and whose strike is the whole debt.
    A supporter paying a top-up fraction at or below this factor pays no
    more than its model value, whatever unit the collateral is counted in.
    """
    collateral_value = float(c_t0.value) * float(p_t0.value)
    if collateral_value == 0:
        raise ModelInputError(
            "collateral value is zero, premium factor undefined", "spot", "collateral"
        )
    collateral_value = _finite(collateral_value, "collateral value", "spot", "collateral")
    try:
        price = bs_call_price(
            BsInputs(
                spot=collateral_value,
                strike=strike,
                domestic_rate=domestic_rate,
                foreign_rate=foreign_rate,
                volatility=sigma,
                term=term,
            )
        )
    except ModelInputError as exc:
        if "spot" not in exc.fields:
            raise
        # The call's spot is the collateral value, so the collateral is an input too.
        raise ModelInputError(exc.what, *exc.fields, "collateral") from None
    return _finite(price / collateral_value, "premium factor", "spot", "collateral")


def historical_volatility(path: PricePath, periods_per_year: float) -> float:
    """Annualized sample standard deviation of log returns.

    Uses n-1 normalization; needs at least three points (two returns).
    """
    if len(path) < 3:
        raise InsufficientDataError(
            f"need at least 3 price points, got {len(path)}"
        )
    prices = [float(pt.price.value) for pt in path.points]
    returns = [math.log(b / a) for a, b in zip(prices, prices[1:])]
    return statistics.stdev(returns) * math.sqrt(periods_per_year)
