"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Tolerances are pinned here, not configurable.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from miqado.cli import load_config, main
from miqado.core import (
    Amount,
    BorrowingPosition,
    FslParams,
    Price,
    execute_fsl,
    health_factor,
)
from miqado.errors import SessionStateError
from miqado.market import PricePath, pool_from_price_impact, direct_price_decline
from miqado.option import BsInputs, bs_call_price, std_normal_cdf
from miqado.protocol import (
    MiqadoParams,
    SessionState,
    initiate,
    settle_at_maturity,
    terminate,
)
from miqado.sim import (
    LiquidationEvent,
    Regime,
    Scenario,
    run_scenario,
    run_sweep,
)

FIXTURES = Path(__file__).parent / "fixtures"
MC_SEED = 20240811


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {status}{suffix}")


def test_1_case_study_liquidation_profit():
    """Seized 2034.64, sold 1933.43 of collateral: profit 101.21, matching
    the published 101.20 within 0.02."""
    repay = Decimal("4610000")
    sold = Decimal("1933.43")
    seized_published = Decimal("2034.64")
    price = Price(repay / sold)
    spread = seized_published / sold - 1
    params = FslParams(theta=Decimal("0.8"), close_factor=Decimal("0.5"), spread=spread)
    pos = BorrowingPosition(
        id="case-study",
        debt=Amount.debt(Decimal("9220000")),
        collateral=Amount.collateral(Decimal("2100")),
        borrow_rate=Decimal("0.05"),
    )
    out = execute_fsl(pos, price, params, Amount.debt(repay))
    profit_collateral = out.liquidator_profit.value / price.value
    gap = abs(profit_collateral - Decimal("101.20"))
    ok = (
        abs(out.collateral_seized.value - seized_published) < Decimal("1e-9")
        and abs(profit_collateral - Decimal("101.21")) < Decimal("1e-9")
        and gap <= Decimal("0.02")
    )
    report("1 case-study liquidation profit", ok, f"profit={profit_collateral:.4f} gap={gap:.4f}")
    assert ok


def test_2_case_study_amm_price_decline():
    """Reserves reconstructed from the price-ratio law reproduce the
    2477.96 -> 2305.85 decline (-6.95%) within 0.05 percentage points."""
    pool = pool_from_price_impact("2477.96", "2305.85", "1933.43")
    decline = direct_price_decline(pool, Amount.collateral(Decimal("1933.43")), 1)
    gap_pp = abs(decline * 100 - Decimal("6.95"))
    ok = gap_pp <= Decimal("0.05")
    report("2 case-study AMM price decline", ok, f"decline={float(decline) * 100:.4f}% gap={float(gap_pp):.4f}pp")
    assert ok


def _mc_call(spot, strike, r, rf, sigma, term, n_pairs, seed):
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


def test_3_pricing_oracle():
    """Closed-form call value within 0.5% of a seeded 10^6-path Monte-Carlo
    estimate on a 3x3x3 grid; normal CDF within 1e-7 of quadrature."""
    import numpy as np
    from scipy.integrate import quad

    worst = 0.0
    for i, moneyness in enumerate([0.9, 1.0, 1.1]):
        for j, sigma in enumerate([0.15, 0.25, 0.40]):
            for k, term in enumerate([0.5, 1.0, 2.0]):
                est = _mc_call(
                    100.0, 100.0 * moneyness, 0.05, 0.01, sigma, term,
                    n_pairs=500_000, seed=MC_SEED + 97 * i + 13 * j + k,
                )
                closed = bs_call_price(
                    BsInputs(100.0, 100.0 * moneyness, 0.05, 0.01, sigma, term)
                )
                worst = max(worst, abs(est - closed) / closed)
    grid_ok = worst < 0.005

    pdf = lambda t: math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi)
    cdf_worst = 0.0
    for x in np.linspace(-8, 8, 65):
        ref, _ = quad(pdf, -40.0, float(x), limit=400)
        cdf_worst = max(cdf_worst, abs(std_normal_cdf(float(x)) - ref))
    cdf_ok = cdf_worst < 1e-7

    ok = grid_ok and cdf_ok
    report("3 pricing oracle", ok, f"worst MC gap={worst:.2e}, worst CDF gap={cdf_worst:.2e}")
    assert ok


def test_4_protocol_invariants_randomized():
    """Over >= 10^4 randomized sessions: the top-up multiplies the health
    factor by exactly (1 + lambda); default loses exactly the premium;
    termination pays exactly topup * (1 + rate) * k_re on top of the
    returned top-up; terminal sessions reject replays."""
    rng = Random(4)
    n = 12_000
    theta = Decimal("0.8")

    def rand_dec(lo, hi, places=6):
        u = rng.random()
        return Decimal(repr(round(lo + (hi - lo) * u, places)))

    checked_double_settle = 0
    for i in range(n):
        lam = rand_dec(0.0001, 2.0)
        coll = rand_dec(0.01, 100_000.0)
        p0 = rand_dec(0.01, 10_000.0)
        rate = rand_dec(0.001, 0.5)
        k_re = rand_dec(0.000001, 0.999999)
        hf_target = Fraction(rand_dec(0.5, 0.9999))
        debt_frac = Fraction(coll) * Fraction(p0) * Fraction(theta) / hf_target
        debt = Decimal(debt_frac.numerator) / Decimal(debt_frac.denominator)
        pos = BorrowingPosition(
            id=f"r{i}", debt=Amount.debt(debt),
            collateral=Amount.collateral(coll), borrow_rate=rate,
        )
        price = Price(p0)
        if health_factor(pos, price, theta) >= 1:
            continue
        params = MiqadoParams(k_re=k_re)
        hf_before = health_factor(pos, price, theta)
        session = initiate(pos, price, theta, params, lam, 3600, now=0)
        hf_after = health_factor(pos, price, theta)
        assert hf_after == hf_before * (1 + Fraction(lam)), "health boost not exact"

        action = rng.random()
        if action < 0.45:
            # drive a default: price at maturity makes collateral worth
            # less than the debt
            p_t = Price(pos.debt.value / (2 * pos.collateral.value))
            out = settle_at_maturity(session, pos, p_t, now=3600)
            assert out.state is SessionState.DEFAULTED
            assert out.supporter_payoff == -session.premium_value.value, "default payoff not exact"
        elif action < 0.9:
            out = terminate(session, pos, price, now=1800, params=params)
            topup = Fraction(session.topup.value)
            expected_gain = topup * (1 + Fraction(rate)) * Fraction(k_re)
            gain = Fraction(out.supporter_receipt_collateral) - topup
            assert gain == expected_gain, "termination receipt not exact"
            assert Fraction(out.supporter_receipt_collateral) == topup * (
                1 + (1 + Fraction(rate)) * Fraction(k_re)
            ), "termination multiple not exact"
        else:
            p_t = Price(2 * pos.debt.value / pos.collateral.value)
            out = settle_at_maturity(session, pos, p_t, now=3600)
            assert out.state is SessionState.EXERCISED
            with pytest.raises(SessionStateError):
                settle_at_maturity(session, pos, p_t, now=3600)
            with pytest.raises(SessionStateError):
                terminate(session, pos, p_t, now=1800, params=params)
            checked_double_settle += 1

    ok = checked_double_settle > 0
    report("4 protocol invariants (12000 randomized sessions)", ok)
    assert ok


def _sweep_reports(regime: Regime):
    config = load_config(FIXTURES / "config_sweep.json")
    scenario = Scenario(
        events=config.events,
        path=config.path,
        fsl=config.fsl,
        miqado=config.miqado,
        regime=regime,
        sold_fraction=config.sold_fraction,
        supporter_gate=config.supporter_gate,
        foreign_rate=config.foreign_rate,
    )
    return run_sweep(scenario, config.sweep_lambdas, config.sweep_terms_seconds), config


def test_5_payoff_table_structure():
    """Per row: class probabilities partition to 1 +- 1e-9; over the fixed
    50-event set the default probability is non-increasing in the premium
    factor, strictly lower at 20% than at 1% for every term with defaults."""
    sweep, config = _sweep_reports(Regime.HYBRID)
    rows = sweep.payoff_rows
    assert rows, "sweep produced no payoff rows"
    partitions_ok = all(
        abs(r.p_exercise_profit + r.p_exercise_loss + r.p_default - 1) <= Decimal("1e-9")
        for r in rows
    )
    by_term: dict[int, list] = {}
    for r in rows:
        by_term.setdefault(r.term_seconds, []).append(r)
    trend_ok = True
    strict_ok = True
    for term, term_rows in by_term.items():
        term_rows.sort(key=lambda r: r.premium_factor)
        defaults = [r.p_default for r in term_rows]
        trend_ok &= all(a >= b for a, b in zip(defaults, defaults[1:]))
        if defaults[0] > 0:
            strict_ok &= defaults[-1] < defaults[0]

    # hand fixture: one event per class makes each probability exactly 1/3
    path = PricePath.from_pairs([(0, "1.00"), (3600, "0.95")])
    def ev(debt, coll, pid):
        return LiquidationEvent(
            position=BorrowingPosition(
                id=pid, debt=Amount.debt(Decimal(debt)),
                collateral=Amount.collateral(Decimal(coll)), borrow_rate=Decimal("0.05"),
            ),
            path_offset=0,
        )
    hand = run_scenario(
        Scenario(
            events=[ev("170", "200", "plus"), ev("100", "100", "minus"), ev("110", "100", "hash")],
            path=path,
            fsl=FslParams(theta=Decimal("0.8"), close_factor=Decimal("0.5"), spread=Decimal("0.05")),
            miqado=MiqadoParams(k_re=Decimal("0.5")),
            regime=Regime.MIQADO_ONLY,
            supporter_gate=False,
        ),
        Decimal("0.1"),
        3600,
    )
    row = hand.payoff_rows[0]
    third = Fraction(1, 3)
    hand_ok = all(
        abs(Fraction(p) - third) < Fraction(1, 10**9)
        for p in (row.p_exercise_profit, row.p_exercise_loss, row.p_default)
    ) and abs(Fraction(row.mean_payoff) - Fraction(7, 6)) < Fraction(1, 10**9)

    ok = partitions_ok and trend_ok and strict_ok and hand_ok
    report(
        "5 payoff-table structure", ok,
        f"{len(rows)} rows, partition<=1e-9={partitions_ok}, default trend ok={trend_ok and strict_ok}",
    )
    assert ok


def test_6_restraint_linearity():
    """Doubling the premium factor exactly doubles collateral restraint
    over a fixed event set."""
    _, config = _sweep_reports(Regime.HYBRID)

    def restraint(lam: str) -> Decimal:
        scenario = Scenario(
            events=config.events,
            path=config.path,
            fsl=config.fsl,
            miqado=MiqadoParams(k_re=Decimal("0.5")),
            regime=Regime.MIQADO_ONLY,
            supporter_gate=False,
        )
        return run_scenario(scenario, Decimal(lam), 3600).collateral_restraint_usd

    pairs = [("0.01", "0.02"), ("0.05", "0.10"), ("0.10", "0.20")]
    ok = True
    for lam, lam2 in pairs:
        ok &= restraint(lam2) == 2 * restraint(lam)
    report("6 restraint linearity", ok, "restraint(2*lam) == 2*restraint(lam) exactly")
    assert ok


def test_7_release_reduction():
    """Hybrid never releases more than liquidation-only on the bundled
    fixture, cell by cell; the two-event hand fixture reproduces the
    precomputed reduction to 1e-9."""
    hybrid_sweep, _ = _sweep_reports(Regime.HYBRID)
    fsl_sweep, _ = _sweep_reports(Regime.FSL_ONLY)
    per_cell_ok = True
    for (lam, term, hyb), (_, _, fsl) in zip(hybrid_sweep.cells, fsl_sweep.cells):
        per_cell_ok &= hyb.collateral_release_usd <= fsl.collateral_release_usd

    path = PricePath.from_pairs(
        [(0, "1.00"), (3600, "0.90"), (7200, "1.20"), (10800, "0.60"), (14400, "0.30"), (18000, "0.35")]
    )
    def ev(pid, offset):
        return LiquidationEvent(
            position=BorrowingPosition(
                id=pid, debt=Amount.debt(Decimal("100")),
                collateral=Amount.collateral(Decimal("130")), borrow_rate=Decimal("0.05"),
            ),
            path_offset=offset,
        )
    def scenario(regime):
        return Scenario(
            events=[ev("evA", 1), ev("evB", 3)],
            path=path,
            fsl=FslParams(theta=Decimal("0.8"), close_factor=Decimal("0.5"), spread=Decimal("0.05")),
            miqado=MiqadoParams(k_re=Decimal("0.5")),
            regime=regime,
            supporter_gate=False,
        )
    hybrid = run_scenario(scenario(Regime.HYBRID), Decimal("0.1"), 3600)
    # hand oracle: fsl-only releases 105; hybrid releases 42.9 (one event
    # exercised, the other defaults into a clamped liquidation)
    oracle = Fraction(621, 1050)
    hand_ok = abs(Fraction(hybrid.release_reduction) - oracle) <= Fraction(1, 10**9)

    ok = per_cell_ok and hand_ok
    report(
        "7 release reduction", ok,
        f"hybrid<=fsl per cell={per_cell_ok}, hand reduction={float(hybrid.release_reduction):.9f}",
    )
    assert ok


def test_8_determinism(tmp_path, capsys):
    """Two simulate runs on the bundled config produce byte-identical
    report files."""
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        code = main([
            "simulate", "--config", str(FIXTURES / "config_sweep.json"), "--out", str(out),
        ])
        assert code == 0
    capsys.readouterr()
    same = all(
        (out1 / name).read_bytes() == (out2 / name).read_bytes()
        for name in ("report.json", "payoff_table.csv", "metrics.csv", "outcomes.csv")
    )
    report("8 determinism", same, "byte-identical report.json across runs")
    assert same
