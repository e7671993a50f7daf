"""Metamorphic relations of the sweep engine.

Each test runs a drawn sweep twice, once on a transformed input, and
checks that the outcome rows change exactly as the transformation says.
None needs a reference implementation, so they also catch a wrong rule
that every cell shares:

* time shift: moving every path timestamp by the same amount changes no
  row, since every term is measured from its event's trigger;
* unit scaling: counting debt, collateral and pool reserves in units
  1000 times smaller scales every amount by exactly 1000 and changes no
  class or price decline, gate on or off, since the gate prices the
  whole position;
* event concatenation: events run independently, since no sale moves the
  pool or the path, so the rows of E1 ++ E2 are E1's rows, then E2's;
* grid refinement: cells run independently, so a sweep over a sub-grid
  of the premium factors and terms gives each of its cells the report it
  has in the full sweep, and the payoff table restricted to its cells.
"""

from dataclasses import replace
from decimal import Decimal

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from miqado.core import Amount
from miqado.market import PricePath
from miqado.protocol import supporter_decision
from miqado.sim import LiquidationEvent, path_volatility, run_sweep

from test_sim import sweep_scenarios

#: Examples per relation: the module stays within a few seconds of tier-1.
EXAMPLES = 25


def cell_rows(s, lambdas, terms):
    """Each cell's outcome rows, in the sweep's cell order."""
    return [report.results for _, _, report in run_sweep(s, lambdas, terms).cells]


def milli(x: Decimal) -> Decimal:
    """`x` counted in units 1000 times smaller: the same digits, exponent + 3.
    Outside the ledger context, `scaleb` and `*` would round to 28 digits."""
    sign, digits, exponent = x.as_tuple()
    return Decimal((sign, digits, exponent + 3))


def milli_or_none(x: Decimal | None) -> Decimal | None:
    return None if x is None else milli(x)


def off_the_ties(s, lambdas, terms):
    """The premium factors more than 1e-9 (relative) from every event's
    break-even factor. The float model is unit invariant only to rounding,
    so a factor on a tie may engage in one unit and decline in the other."""
    sigma = path_volatility(s.path)
    ties = [
        supporter_decision(ev.position, s.path[ev.path_offset].price, term, sigma)
        for ev in s.events
        for term in terms
    ]
    return [lam for lam in lambdas if all(abs(float(lam) - t) > 1e-9 * t for t in ties)]


@given(case=sweep_scenarios())
@settings(max_examples=EXAMPLES, deadline=None)
def test_time_shift_leaves_every_row(case):
    s, lambdas, terms = case
    shifted = PricePath(tuple(replace(pt, timestamp=pt.timestamp + 10**9) for pt in s.path))
    assert cell_rows(replace(s, path=shifted), lambdas, terms) == cell_rows(s, lambdas, terms)


@pytest.mark.parametrize("gate", [False, True], ids=["gate-off", "gate-on"])
@given(case=sweep_scenarios())
@settings(max_examples=EXAMPLES, deadline=None)
def test_unit_scaling_scales_every_amount(case, gate):
    s, lambdas, terms = case
    s = replace(s, supporter_gate=gate)
    if gate:
        lambdas = off_the_ties(s, lambdas, terms)
        assume(lambdas)
    events = [
        LiquidationEvent(
            position=replace(
                ev.position,
                debt=Amount.debt(milli(ev.position.debt.value)),
                collateral=Amount.collateral(milli(ev.position.collateral.value)),
            ),
            path_offset=ev.path_offset,
        )
        for ev in s.events
    ]
    pool = None
    if s.pool is not None:
        pool = replace(
            s.pool,
            reserve_quote=milli(s.pool.reserve_quote),
            reserve_base=milli(s.pool.reserve_base),
        )
    scaled = cell_rows(replace(s, events=events, pool=pool), lambdas, terms)
    expected = [
        [
            replace(
                r,
                supporter_payoff=milli_or_none(r.supporter_payoff),
                premium_value=milli_or_none(r.premium_value),
                release_usd=milli(r.release_usd),
                restraint_usd=milli(r.restraint_usd),
            )
            for r in rows
        ]
        for rows in cell_rows(s, lambdas, terms)
    ]
    assert scaled == expected


@given(case=sweep_scenarios(), data=st.data())
@settings(max_examples=EXAMPLES, deadline=None)
def test_event_concatenation_concatenates_rows(case, data):
    s, lambdas, terms = case
    k = data.draw(st.integers(0, len(s.events)), label="split")
    first = cell_rows(replace(s, events=s.events[:k]), lambdas, terms)
    second = cell_rows(replace(s, events=s.events[k:]), lambdas, terms)
    whole = cell_rows(s, lambdas, terms)
    assert whole == [
        a + [replace(r, event_index=r.event_index + k) for r in b] for a, b in zip(first, second)
    ]


@given(case=sweep_scenarios(), data=st.data())
@settings(max_examples=EXAMPLES, deadline=None)
def test_grid_refinement_leaves_every_kept_cell(case, data):
    s, lambdas, terms = case
    sub_lambdas = data.draw(st.lists(st.sampled_from(lambdas), min_size=1, unique=True))
    sub_terms = data.draw(st.lists(st.sampled_from(terms), min_size=1, unique=True))
    full = run_sweep(s, lambdas, terms)
    sub = run_sweep(s, sub_lambdas, sub_terms)
    reports = {(lam, term): report for lam, term, report in full.cells}
    assert len(sub.cells) == len(sub_lambdas) * len(sub_terms)
    for lam, term, report in sub.cells:
        assert report.to_json_dict() == reports[lam, term].to_json_dict()
        assert report.results == reports[lam, term].results
    assert sub.payoff_rows == [
        row
        for row in full.payoff_rows
        if row.premium_factor in sub_lambdas and row.term_seconds in sub_terms
    ]
