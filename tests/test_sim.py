"""Scenario engine and metrics against hand-computed oracles.

The fixtures here are small enough that every expected number was worked
out by hand from the mechanism definitions before the engine ran them.
"""

import copy
import json
import math
import random
import statistics
from collections import Counter
from dataclasses import astuple, replace
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from miqado.cli import load_config
from miqado.core import (
    LEDGER,
    Amount,
    BorrowingPosition,
    FslParams,
    Price,
    csv_decimal,
    dec_str,
    execute_fsl,
    health_factor,
)
from miqado.errors import CsvFormatError, InsufficientDataError, ScenarioError
from miqado.market import (
    CpAmmPool,
    GbmParams,
    PricePath,
    direct_price_decline,
    generate_gbm,
    load_price_csv,
)
from miqado.protocol import (
    MiqadoParams,
    SessionState,
    can_initiate,
    initiate,
    settle_at_maturity,
    supporter_decision,
    terminate,
)
from miqado.sim import (
    DistSummary,
    LiquidationEvent,
    OutcomeRow,
    PayoffRow,
    Regime,
    Scenario,
    aggregate_outcome_rows,
    load_events_csv,
    load_outcomes_csv,
    path_volatility,
    payoff_rows,
    report_to_json,
    run_scenario,
    run_sweep,
    _fraction_to_decimal,
    serialize_events_csv,
    serialize_outcomes_csv,
    synthesize_events,
)

FIXTURES = Path(__file__).parent / "fixtures"
FSL = FslParams(theta=Decimal("0.8"), close_factor=Decimal("0.5"), spread=Decimal("0.05"))
HOUR = 3600


def pos(debt, collateral, pid="b1", rate="0.05"):
    return BorrowingPosition(
        id=pid,
        debt=Amount.debt(Decimal(debt)),
        collateral=Amount.collateral(Decimal(collateral)),
        borrow_rate=Decimal(rate),
    )


def miq(**kw):
    return MiqadoParams(k_re=Decimal("0.5"), **kw)


def path_a():
    return PricePath.from_pairs(
        [(0, "1.00"), (3600, "0.90"), (7200, "0.85"), (10800, "1.08"), (14400, "1.20")]
    )


def event_a():
    # HF at offset 1: 130 * 0.9 * 0.8 / 100 = 0.936
    return LiquidationEvent(position=pos("100", "130"), path_offset=1)


def scenario_a(regime, pool=None, **kw):
    return Scenario(
        events=[event_a()],
        path=path_a(),
        fsl=FSL,
        miqado=miq(),
        regime=regime,
        pool=pool,
        supporter_gate=False,
        **kw,
    )


class TestSingleEventOracle:
    def test_fsl_only(self):
        report = run_scenario(scenario_a(Regime.FSL_ONLY), "0.1", 2 * HOUR)
        # repay 50, seize 50*1.05/0.9 worth 52.5 at p=0.9
        assert report.collateral_release_usd.quantize(Decimal("1e-15")) == Decimal("52.5")
        assert report.collateral_restraint_usd == 0
        assert report.release_reduction == 0
        assert report.class_counts == {"fsl": 1}
        assert report.healthy_fraction_fsl == 1  # post-FSL HF = 1.032
        assert report.payoff_rows == []

    def test_miqado_only_exercise(self):
        report = run_scenario(scenario_a(Regime.MIQADO_ONLY), "0.1", 2 * HOUR)
        assert report.collateral_release_usd == 0
        # top-up 13 collateral at p 0.9
        assert report.collateral_restraint_usd == Decimal("11.7")
        assert report.release_reduction is not None
        assert report.release_reduction.quantize(Decimal("1e-15")) == 1
        assert report.class_counts == {"exercise_profit": 1}
        row = report.payoff_rows[0]
        # payoff = 143 * 1.08 - 100 - 11.7 = 42.74
        assert row.n == 1
        assert row.p_exercise_profit == 1
        assert row.mean_payoff == Decimal("42.74")
        assert row.std_payoff == 0
        assert report.healthy_fraction_miqado == 1  # 0.936 * 1.1 = 1.0296
        result = report.results[0]
        assert result.outcome_class == "exercise_profit"
        assert result.supporter_payoff == Decimal("42.74")
        assert result.premium_value == Decimal("11.7")

    def test_hybrid_same_as_miqado_when_exercised(self):
        report = run_scenario(scenario_a(Regime.HYBRID), "0.1", 2 * HOUR)
        assert report.collateral_release_usd == 0
        assert report.class_counts == {"exercise_profit": 1}

    def test_price_decline_recorded(self):
        # pool at spot 0.9: selling 58.333... of base moves it down
        pool = CpAmmPool(
            reserve_quote=Decimal("900"), reserve_base=Decimal("1000"), fee=Decimal("0")
        )
        report = run_scenario(scenario_a(Regime.FSL_ONLY, pool=pool), "0.1", 2 * HOUR)
        assert len(report.price_declines) == 1
        # decline = 1 - (1000 / 1058.3333...)^2, hand value ~ 0.1072
        assert abs(report.price_declines[0] - Decimal("0.107198")) < Decimal("0.000001")

    def test_determinism_byte_identical(self):
        a = report_to_json(run_scenario(scenario_a(Regime.HYBRID), "0.1", 2 * HOUR).to_json_dict())
        b = report_to_json(run_scenario(scenario_a(Regime.HYBRID), "0.1", 2 * HOUR).to_json_dict())
        assert a == b

    def test_scenario_not_mutated(self):
        s = scenario_a(Regime.HYBRID)
        before = serialize_events_csv(s.events)
        run_scenario(s, "0.1", 2 * HOUR)
        assert serialize_events_csv(s.events) == before
        assert s.events[0].position.collateral.value == Decimal("130")


def path_b():
    return PricePath.from_pairs(
        [(0, "1.00"), (3600, "0.90"), (7200, "1.20"), (10800, "0.60"), (14400, "0.30"), (18000, "0.35")]
    )


def events_b():
    return [
        LiquidationEvent(position=pos("100", "130", pid="evA"), path_offset=1),
        LiquidationEvent(position=pos("100", "130", pid="evB"), path_offset=3),
    ]


def scenario_b(regime):
    return Scenario(
        events=events_b(),
        path=path_b(),
        fsl=FSL,
        miqado=miq(),
        regime=regime,
        supporter_gate=False,
    )


class TestTwoEventReductionOracle:
    """One exercised event, one that defaults into a capped liquidation.

    Hand numbers: fsl_only releases 52.5 + 52.5 = 105. Hybrid: event A
    exercises (release 0); event B defaults at p=0.30 where the maximal
    seizure (175) exceeds the topped-up collateral (143), so everything
    is seized: release 143 * 0.30 = 42.9. Reduction = 1 - 42.9/105.
    """

    def test_fsl_only_release(self):
        report = run_scenario(scenario_b(Regime.FSL_ONLY), "0.1", HOUR)
        assert report.collateral_release_usd.quantize(Decimal("1e-15")) == Decimal("105")

    def test_hybrid_oracle(self):
        report = run_scenario(scenario_b(Regime.HYBRID), "0.1", HOUR)
        assert report.collateral_release_usd == Decimal("42.9")
        assert report.class_counts == {"exercise_profit": 1, "default": 1}
        assert report.collateral_restraint_usd == Decimal("19.5")  # 11.7 + 7.8
        # the defaulted event's liquidation was capped: it seized all 143
        # collateral units, not the uncapped 175
        defaulted = [r for r in report.results if r.outcome_class == "default"][0]
        assert defaulted.release_usd == Decimal("143") * Decimal("0.30")
        assert defaulted.supporter_payoff == Decimal("-7.8")

    def test_reduction_matches_hand_value(self):
        fsl_report = run_scenario(scenario_b(Regime.FSL_ONLY), "0.1", HOUR)
        hybrid_report = run_scenario(scenario_b(Regime.HYBRID), "0.1", HOUR)
        oracle = Fraction(621, 1050)  # 1 - 42.9/105, by hand
        # the baseline is the fsl_only run's release
        assert hybrid_report.fsl_baseline_release_usd == fsl_report.collateral_release_usd
        reduction = 1 - hybrid_report.collateral_release_usd / fsl_report.collateral_release_usd
        assert abs(Fraction(reduction) - oracle) <= Fraction(1, 10**9)
        assert abs(Fraction(hybrid_report.release_reduction) - oracle) <= Fraction(1, 10**9)

    def test_payoff_row_hand_values(self):
        report = run_scenario(scenario_b(Regime.HYBRID), "0.1", HOUR)
        row = report.payoff_rows[0]
        assert row.n == 2
        assert row.p_exercise_profit == Decimal("0.5")
        assert row.p_default == Decimal("0.5")
        # payoffs 59.9 and -7.8: mean 26.05, population std 33.85
        assert row.mean_payoff == Decimal("26.05")
        assert row.std_payoff == Decimal("33.85")

    def test_restraint_linearity(self):
        r1 = run_scenario(scenario_b(Regime.HYBRID), "0.01", HOUR)
        r2 = run_scenario(scenario_b(Regime.HYBRID), "0.02", HOUR)
        assert r2.collateral_restraint_usd == 2 * r1.collateral_restraint_usd


def path_c():
    return PricePath.from_pairs([(0, "1.00"), (3600, "0.95")])


def events_c():
    return [
        LiquidationEvent(position=pos("170", "200", pid="plus"), path_offset=0),
        LiquidationEvent(position=pos("100", "100", pid="minus"), path_offset=0),
        LiquidationEvent(position=pos("110", "100", pid="hash"), path_offset=0),
    ]


class TestThreeClassOracle:
    """One event per settlement class at maturity price 0.95.

    plus:  220 * 0.95 = 209 >= 170, payoff 209 - 170 - 20 = 19
    minus: 110 * 0.95 = 104.5 >= 100, payoff 104.5 - 100 - 10 = -5.5
    hash:  110 * 0.95 = 104.5 < 110, default, payoff -10
    """

    def scenario(self):
        return Scenario(
            events=events_c(),
            path=path_c(),
            fsl=FSL,
            miqado=miq(),
            regime=Regime.MIQADO_ONLY,
            supporter_gate=False,
        )

    def test_classes_and_row(self):
        report = run_scenario(self.scenario(), "0.1", HOUR)
        assert report.class_counts == {
            "exercise_profit": 1,
            "exercise_loss": 1,
            "default": 1,
        }
        row = report.payoff_rows[0]
        third = Fraction(1, 3)
        for p in (row.p_exercise_profit, row.p_exercise_loss, row.p_default):
            assert abs(Fraction(p) - third) < Fraction(1, 10**17)
        assert row.p_exercise_profit + row.p_exercise_loss + row.p_default == pytest.approx(
            1, abs=1e-9
        )
        # mean = (19 - 5.5 - 10)/3 = 7/6; population variance = 2923/18
        assert abs(Fraction(row.mean_payoff) - Fraction(7, 6)) < Fraction(1, 10**17)
        std_sq = Fraction(row.std_payoff) ** 2
        assert abs(std_sq - Fraction(2923, 18)) < Fraction(1, 10**12)

    def test_payoffs(self):
        report = run_scenario(self.scenario(), "0.1", HOUR)
        by_id = {r.position_id: r for r in report.results}
        assert by_id["plus"].supporter_payoff == Decimal("19")
        assert by_id["minus"].supporter_payoff == Decimal("-5.5")
        assert by_id["hash"].supporter_payoff == Decimal("-10")


class TestEmptyAndErrors:
    def empty_scenario(self):
        return Scenario(
            events=[],
            path=path_a(),
            fsl=FSL,
            miqado=miq(),
            regime=Regime.HYBRID,
            supporter_gate=False,
        )

    def test_empty_events_zero_report(self):
        report = run_scenario(self.empty_scenario(), "0.1", 2 * HOUR)
        assert report.n_events == 0
        assert report.collateral_release_usd == 0
        assert report.collateral_restraint_usd == 0
        assert report.release_reduction is None
        assert report.payoff_rows == []
        assert report.price_declines == []
        assert report.hf_pre.count == 0

    def test_zero_baseline_reduction_rejected(self):
        # Liquidating a position without collateral releases nothing, so
        # the baseline is zero and no reduction is reported against it.
        s = scenario_a(Regime.FSL_ONLY)
        s.events = [LiquidationEvent(position=pos("100", "0"), path_offset=1)]
        report = run_scenario(s, "0.1", 2 * HOUR)
        assert report.fsl_baseline_release_usd == 0
        assert report.release_reduction is None
        assert report.to_json_dict()["release_reduction"] is None

    def test_healthy_event_rejected_with_index(self):
        s = scenario_a(Regime.FSL_ONLY)
        s.events = [
            event_a(),
            LiquidationEvent(position=pos("100", "200", pid="healthy"), path_offset=0),
        ]
        with pytest.raises(ScenarioError) as err:
            run_scenario(s, "0.1", 2 * HOUR)
        assert "event 1" in str(err.value)
        assert err.value.event_index == 1

    def test_maturity_beyond_path_rejected(self):
        s = scenario_a(Regime.MIQADO_ONLY)
        with pytest.raises(ScenarioError) as err:
            run_scenario(s, "0.1", 10 * 24 * HOUR)
        assert err.value.event_index == 0

    def test_bad_offset_rejected(self):
        s = scenario_a(Regime.FSL_ONLY)
        s.events[0].path_offset = 99
        with pytest.raises(ScenarioError):
            run_scenario(s, "0.1", 2 * HOUR)


class TestBorrowerRescue:
    def test_terminates_at_threshold(self):
        path = PricePath.from_pairs(
            [(0, "1.00"), (3600, "0.90"), (7200, "1.50"), (10800, "1.00")]
        )
        s = Scenario(
            events=[event_a()],
            path=path,
            fsl=FSL,
            miqado=miq(rescue_above_hf=Decimal("1.05")),
            regime=Regime.MIQADO_ONLY,
            supporter_gate=False,
        )
        report = run_scenario(s, "0.1", 2 * HOUR)
        assert report.class_counts == {"terminated": 1}
        outcome = report.results[0]
        assert outcome.outcome_class == "terminated"
        # reimbursement = 13 * 1.05 * 0.5 = 6.825 collateral units, paid to
        # the supporter at the terminating price 1.50
        assert outcome.supporter_payoff == Decimal("6.825") * Decimal("1.50")
        assert report.collateral_release_usd == 0
        # terminated sessions still restrained the top-up while live
        assert report.collateral_restraint_usd == Decimal("11.7")
        assert report.payoff_rows == []  # no maturity classes


class TestHealthRecovery:
    """The top-up multiplies each health factor by (1 + lambda), so an event
    recovers exactly when its pre-support health factor is at least
    1 / (1 + lambda)."""

    def report(self, events, lam):
        return run_scenario(
            Scenario(
                events=events,
                path=PricePath.from_pairs([(0, "1.00"), (3600, "1.00")]),
                fsl=FSL,
                miqado=miq(),
                regime=Regime.MIQADO_ONLY,
                supporter_gate=False,
            ),
            lam,
            HOUR,
        )

    def test_hand_example(self):
        # HF exactly 0.97: C = 121.25 at p=1, theta=0.8, D=100
        events = [
            LiquidationEvent(position=pos("100", "121.25", pid=f"e{i}"), path_offset=0)
            for i in range(4)
        ]
        report = self.report(events, "0.05")
        assert report.healthy_fraction_miqado == 1
        post = report.hf_post_miqado
        assert post.count == 4
        assert post.minimum == post.maximum == Decimal("1.0185")

    def test_threshold_fraction_zero(self):
        events = [LiquidationEvent(position=pos("100", "121.25"), path_offset=0)]
        report = self.report(events, "0.01")
        assert report.healthy_fraction_miqado == 0  # 1/1.01 > 0.97

    def test_monotone_in_lambda(self):
        events = [
            LiquidationEvent(position=pos("100", str(100 + i), pid=f"e{i}"), path_offset=0)
            for i in range(20)
        ]
        fractions = [
            self.report(events, lam).healthy_fraction_miqado
            for lam in ("0.01", "0.05", "0.10", "0.25")
        ]
        assert fractions == sorted(fractions)
        assert fractions[0] < fractions[-1]


def outcome(klass, payoff=None, lam="0.05", term=HOUR):
    return OutcomeRow(
        event_index=0,
        position_id="x",
        premium_factor=Decimal(lam),
        term_seconds=term,
        outcome_class=klass,
        supporter_payoff=None if payoff is None else Decimal(payoff),
        premium_value=None,
        release_usd=Decimal(0),
        restraint_usd=Decimal(0),
        price_decline=None,
    )


class TestMetricOps:
    def test_release_additivity(self):
        # Events settle independently, so a report's release is the sum of
        # the releases of its events run alone.
        s = scenario_b(Regime.FSL_ONLY)
        total = run_scenario(s, "0.1", HOUR).collateral_release_usd
        first = run_scenario(replace(s, events=s.events[:1]), "0.1", HOUR).collateral_release_usd
        second = run_scenario(replace(s, events=s.events[1:]), "0.1", HOUR).collateral_release_usd
        assert total == first + second
        assert run_scenario(replace(s, events=[]), "0.1", HOUR).collateral_release_usd == 0

    def test_restraint_example(self):
        # Top-up 0.2 * 100 collateral units at price 10 restrains 200.
        s = Scenario(
            events=[LiquidationEvent(position=pos("900", "100"), path_offset=0)],
            path=PricePath.from_pairs([(0, "10"), (3600, "10")]),
            fsl=FSL,
            miqado=miq(),
            regime=Regime.MIQADO_ONLY,
            supporter_gate=False,
        )
        report = run_scenario(s, "0.2", HOUR)
        assert report.collateral_restraint_usd == Decimal("200")
        assert report.results[0].restraint_usd == Decimal("200")
        assert run_scenario(replace(s, events=[]), "0.2", HOUR).collateral_restraint_usd == 0

    def test_payoff_table_all_defaults(self):
        rows = payoff_rows([outcome("default", "-10"), outcome("default", "-30")])
        assert len(rows) == 1
        row = rows[0]
        assert (row.p_exercise_profit, row.p_exercise_loss, row.p_default) == (0, 0, 1)
        assert row.mean_payoff == Decimal("-20")

    def test_payoff_table_empty_group_omitted(self):
        # A cell in which no event settled at maturity gets no row.
        assert payoff_rows([]) == []
        rows = payoff_rows(
            [
                outcome("terminated", "3", lam="0.05"),
                outcome("fsl"),
                outcome("default", "-1", lam="0.1"),
            ]
        )
        assert [(row.premium_factor, row.n) for row in rows] == [(Decimal("0.1"), 1)]

    def test_rows_ordered_by_term_then_premium_factor(self):
        rows = payoff_rows(
            [
                outcome("default", "-1", lam="0.2", term=HOUR),
                outcome("default", "-1", lam="0.1", term=2 * HOUR),
                outcome("default", "-1", lam="0.1", term=HOUR),
            ]
        )
        assert [(row.term_seconds, row.premium_factor) for row in rows] == [
            (HOUR, Decimal("0.1")),
            (HOUR, Decimal("0.2")),
            (2 * HOUR, Decimal("0.1")),
        ]


class TestSweep:
    def test_cell_grid(self):
        sweep = run_sweep(scenario_b(Regime.HYBRID), ["0.01", "0.1"], [HOUR, 2 * HOUR])
        assert [(str(l), t) for l, t, _ in sweep.cells] == [
            ("0.01", HOUR),
            ("0.1", HOUR),
            ("0.01", 2 * HOUR),
            ("0.1", 2 * HOUR),
        ]
        # every event lands in exactly one settlement class per cell
        for _, _, rep in sweep.cells:
            assert sum(rep.class_counts.values()) == rep.n_events

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            run_sweep(scenario_b(Regime.HYBRID), [], [HOUR])

    @pytest.mark.parametrize(
        "lambdas, terms",
        [
            pytest.param(["0.1"], [], id="no-terms"),
            pytest.param(["0"], [HOUR], id="lambda=0"),
            pytest.param(["0.1", "-0.1"], [HOUR], id="lambda<0"),
            pytest.param(["0.1"], [0], id="term=0"),
            pytest.param(["0.1"], [HOUR, -HOUR], id="term<0"),
            pytest.param(["0.1", "0.10"], [2 * HOUR], id="lambdas=0.1,0.10"),
            pytest.param(["0.1"], [HOUR, HOUR], id="terms=1h,1h"),
        ],
    )
    def test_bad_grid_rejected(self, lambdas, terms):
        # Every regime, even one that never opens a session, checks the grid.
        for regime in Regime:
            with pytest.raises(ValueError):
                run_sweep(scenario_a(regime), lambdas, terms)


#: A quarter year in seconds, the supporter-gate fixture's term.
QUARTER = 31_536_000 // 4


class TestSupporterGate:
    """Gate wiring through the engine: sigma estimation, engage/decline,
    and the hybrid fall-through to liquidation on decline."""

    def gated_scenario(self, regime, sigma=0.2):
        # lambda* ~ 0.077 for spot 100, strike 95, rate 0.05, sigma 0.2,
        # quarter-year term (verified against the MC oracle in option tests)
        path = PricePath.from_pairs(
            [(i * HOUR, "100") for i in range(2200)]  # flat, quarter-year span
        )
        events = [
            LiquidationEvent(position=pos("95", "1", pid=f"g{i}"), path_offset=0)
            for i in range(3)
        ]
        return Scenario(
            events=events,
            path=path,
            fsl=FSL,
            miqado=miq(),
            regime=regime,
            supporter_gate=True,
            sigma_override=sigma,
        )

    def test_engages_below_break_even(self):
        report = run_scenario(self.gated_scenario(Regime.MIQADO_ONLY), "0.05", QUARTER)
        assert "declined" not in report.class_counts
        assert report.collateral_restraint_usd > 0

    def test_declines_above_break_even(self):
        report = run_scenario(self.gated_scenario(Regime.MIQADO_ONLY), "0.2", QUARTER)
        assert report.class_counts == {"declined": 3}
        assert report.collateral_restraint_usd == 0
        assert report.collateral_release_usd == 0
        assert report.payoff_rows == []

    def test_tie_engages(self):
        # sigma 0, in-the-money forward over one year at borrow rate 0.3:
        # lambda* = 1 - e^{-0.3} exactly; the next float above it declines
        lam_star = 1 - math.exp(-0.3)
        year = 31_536_000
        s = Scenario(
            events=[LiquidationEvent(position=pos("1", "1", rate="0.3"), path_offset=0)],
            path=PricePath.from_pairs([(0, "1"), (year, "1")]),
            fsl=FSL,
            miqado=miq(),
            regime=Regime.MIQADO_ONLY,
            supporter_gate=True,
            sigma_override=0.0,
        )
        tie = run_scenario(s, Decimal(repr(lam_star)), year)
        assert "declined" not in tie.class_counts
        above = run_scenario(s, Decimal(repr(math.nextafter(lam_star, 1))), year)
        assert above.class_counts == {"declined": 1}

    def test_hybrid_decline_falls_through_to_liquidation(self):
        report = run_scenario(self.gated_scenario(Regime.HYBRID), "0.2", QUARTER)
        assert report.class_counts == {"declined": 3}
        assert report.collateral_release_usd > 0
        declined = report.results[0]
        assert declined.release_usd > 0
        assert declined.supporter_payoff is None
        assert declined.restraint_usd == 0

    def test_model_input_out_of_range_names_event(self):
        # exp(-foreign_rate * term) overflows a float in the option value
        s = self.gated_scenario(Regime.MIQADO_ONLY)
        s.foreign_rate = -1e6
        with pytest.raises(ScenarioError, match="foreign_rate") as err:
            run_scenario(s, "0.05", QUARTER)
        assert err.value.event_index == 0

    def test_model_volatility_out_of_range_names_sigma_override(self):
        # volatility**2 overflows a float in the option value
        s = self.gated_scenario(Regime.MIQADO_ONLY, sigma=1e200)
        with pytest.raises(ScenarioError, match="check sigma_override$") as err:
            run_scenario(s, "0.05", QUARTER)
        assert err.value.event_index == 0

    def test_model_value_out_of_float_range_names_event(self):
        # spot 1e307 grown by exp(20 * 0.25) overflows the call value
        s = self.gated_scenario(Regime.MIQADO_ONLY)
        s.path = PricePath.from_pairs([(i * HOUR, "1e307") for i in range(2200)])
        s.events = [LiquidationEvent(position=pos("1e307", "1"), path_offset=0)]
        s.foreign_rate = -20.0
        with pytest.raises(ScenarioError, match="call price") as err:
            run_scenario(s, "0.05", QUARTER)
        assert err.value.event_index == 0

    def test_zero_collateral_value_names_event(self):
        # 1e-400 collateral is not zero, but its float value is
        s = self.gated_scenario(Regime.MIQADO_ONLY)
        s.events = [LiquidationEvent(position=pos("95", "1e-400"), path_offset=0)]
        with pytest.raises(ScenarioError) as err:
            run_scenario(s, "0.05", QUARTER)
        assert str(err.value) == (
            "event 0: collateral value is zero, premium factor undefined; "
            "check the trigger price, collateral"
        )

    def test_undefined_call_names_the_collateral(self):
        # The call's spot is the collateral value 1e-300 · 100, and its
        # ratio to the strike 1e300 underflows to zero.
        s = self.gated_scenario(Regime.MIQADO_ONLY)
        s.events = [LiquidationEvent(position=pos("1e300", "1e-300"), path_offset=0)]
        with pytest.raises(ScenarioError) as err:
            run_scenario(s, "0.05", QUARTER)
        assert str(err.value) == (
            "event 0: log(spot / strike) is undefined; check the trigger price, debt, collateral"
        )

    def test_ineligible_event_is_never_priced(self):
        # HF 0.96 is below one, but buffer 0.05 closes hybrid's window
        # (CR * (theta + buffer) = 1.02). A priced event would fail here:
        # volatility**2 overflows a float.
        s = self.gated_scenario(Regime.HYBRID, sigma=1e200)
        s.events = [LiquidationEvent(position=pos("100", "120"), path_offset=0)]
        s.path = PricePath.from_pairs([(i * HOUR, "1") for i in range(2200)])
        s.miqado = replace(s.miqado, buffer=Decimal("0.05"))
        report = run_scenario(s, "0.05", QUARTER)
        assert report.class_counts == {"ineligible": 1}

    def test_path_too_short_to_estimate_sigma(self):
        s = self.gated_scenario(Regime.MIQADO_ONLY, sigma=None)
        s.path = PricePath.from_pairs([(0, "100")])
        s.events = s.events[:1]
        with pytest.raises(InsufficientDataError):
            run_scenario(s, "0.05", QUARTER)

    def test_negative_sigma_override_names_it(self):
        s = self.gated_scenario(Regime.MIQADO_ONLY, sigma=-0.1)
        with pytest.raises(ScenarioError) as err:
            run_scenario(s, "0.05", QUARTER)
        assert str(err.value) == "event 0: volatility must be >= 0; check sigma_override"

    def test_declined_term_never_looks_up_its_maturity(self):
        # lambda* is about 0.08 at a quarter year and 0.1 at half a year,
        # so both terms decline both premium factors. The half-year
        # maturity lies past the path's end; a declined cell never needs it.
        s = self.gated_scenario(Regime.HYBRID)
        assert s.path[-1].timestamp < 2 * QUARTER
        sweep = run_sweep(s, ["0.2", "0.3"], [QUARTER, 2 * QUARTER])
        for _, _, report in sweep.cells:
            assert report.class_counts == {"declined": 3}

    def test_sigma_estimated_from_path_when_not_overridden(self):
        # flat path: estimated sigma is 0; with the debt above the spot's
        # forward value the takeover right is worthless, so all decline
        s = self.gated_scenario(Regime.MIQADO_ONLY, sigma=None)
        s.events = [
            LiquidationEvent(position=pos("110", "1", pid=f"g{i}"), path_offset=0)
            for i in range(3)
        ]
        report = run_scenario(s, "0.05", QUARTER)
        assert report.class_counts == {"declined": 3}


class TestRegimeSetsWindow:
    """Debt 100, collateral 120, theta 0.8 at p 1: HF 0.96 < 1, but with
    buffer 0.05 the window CR * (theta + buffer) = 1.02 is closed. Only
    hybrid keeps the buffer; miqado_only opens at HF < 1."""

    def scenario(self, regime):
        return Scenario(
            events=[LiquidationEvent(position=pos("100", "120"), path_offset=0)],
            path=PricePath.from_pairs([(0, "1"), (HOUR, "1")]),
            fsl=FSL,
            miqado=miq(buffer=Decimal("0.05")),
            regime=regime,
            supporter_gate=False,
        )

    def test_miqado_only_initiates_below_hf_one(self):
        report = run_scenario(self.scenario(Regime.MIQADO_ONLY), "0.1", HOUR)
        # top-up 12 at p 1; at maturity 132 >= 100: exercised
        assert report.class_counts == {"exercise_profit": 1}
        assert report.collateral_restraint_usd == 12

    def test_hybrid_buffer_closes_window_and_liquidates(self):
        report = run_scenario(self.scenario(Regime.HYBRID), "0.1", HOUR)
        # repay 50, seize 52.5 at p 1
        assert report.class_counts == {"ineligible": 1}
        assert report.collateral_release_usd.quantize(Decimal("1e-15")) == Decimal("52.5")
        assert report.collateral_restraint_usd == 0


class TestPureModeNewRound:
    def test_reinitiation_after_default(self):
        from miqado.protocol import initiate, settle_at_maturity

        position = pos("100", "100")
        price = Price(Decimal(1))
        session = initiate(position, price, Decimal("0.8"), miq(), Decimal("0.1"), HOUR, now=0)
        settle_at_maturity(session, position, Price(Decimal("0.8")), now=HOUR)
        # defaulted: the lock is released and the (still unhealthy)
        # position can host another round
        assert position.active_session_id is None
        again = initiate(
            position, Price(Decimal("0.8")), Decimal("0.8"), miq(), Decimal("0.1"), HOUR, now=HOUR
        )
        assert again.started == HOUR
        assert position.collateral.value == Decimal("121")  # 110 * 1.1

    def test_report_matches_health_recovery_op(self):
        s = scenario_b(Regime.MIQADO_ONLY)
        report = run_scenario(s, "0.1", HOUR)
        lam = Fraction("0.1")
        recovered = [
            health_factor(ev.position, s.path[ev.path_offset].price, FSL.theta) * (1 + lam) >= 1
            for ev in s.events
        ]
        # evA: 0.936 * 1.1 >= 1; evB: 0.624 * 1.1 < 1
        assert recovered == [True, False]
        assert Fraction(report.healthy_fraction_miqado) == Fraction(sum(recovered), len(recovered))


class TestEventsCsv:
    def test_round_trip(self):
        events = events_b()
        text = serialize_events_csv(events)
        back = load_events_csv(text)
        assert serialize_events_csv(back) == text
        assert back[0].position.debt.value == Decimal("100")
        assert back[1].path_offset == 3

    def test_bad_rows_name_lines(self):
        with pytest.raises(CsvFormatError) as err:
            load_events_csv("position_id,debt,collateral,borrow_rate,path_offset\na,1,2\n")
        assert err.value.line == 2
        with pytest.raises(CsvFormatError) as err:
            load_events_csv(
                "position_id,debt,collateral,borrow_rate,path_offset\na,0,2,0.05,0\n"
            )
        assert err.value.line == 2
        with pytest.raises(CsvFormatError):
            load_events_csv("bad,header\n")


class TestSynthesizeEvents:
    def test_deterministic_and_liquidatable(self):
        path = PricePath.from_pairs([(i * HOUR, "100") for i in range(60)])
        a = synthesize_events(path, "0.8", count=25, seed=9, max_term_seconds=24 * HOUR)
        b = synthesize_events(path, "0.8", count=25, seed=9, max_term_seconds=24 * HOUR)
        assert serialize_events_csv(a) == serialize_events_csv(b)
        from miqado.core import health_factor

        for ev in a:
            hf = health_factor(ev.position, path[ev.path_offset].price, Decimal("0.8"))
            assert Fraction(9, 10) - Fraction(1, 10**6) <= hf < 1
            # maturity for the longest term stays on the path
            assert path[ev.path_offset].timestamp + 24 * HOUR <= path[-1].timestamp

    def test_debt_bump_keeps_trigger_below_one(self):
        # A band this close to one rounds the drawn health factor to one,
        # so the solved debt gives HF >= 1 and is bumped up.
        path = PricePath.from_pairs([(i * HOUR, "100") for i in range(60)])
        theta = Decimal("0.8")
        band = ("0.99999999999999999999999999999", "0.999999999999999999999999999999")
        events = synthesize_events(path, theta, count=5, seed=1, hf_band=band)
        unbumped_hfs = []
        for ev in events:
            price = path[ev.path_offset].price
            assert health_factor(ev.position, price, theta) < 1
            debt = ev.position.debt.value / Decimal("1.000000000001")
            unbumped = replace(ev.position, debt=Amount.debt(debt))
            unbumped_hfs.append(health_factor(unbumped, price, theta))
        assert max(unbumped_hfs) >= 1

    def test_band_validation(self):
        path = PricePath.from_pairs([(i * HOUR, "100") for i in range(60)])
        with pytest.raises(ValueError):
            synthesize_events(path, "0.8", count=1, seed=0, hf_band=("0.9", "1.1"))

    @pytest.mark.parametrize(
        "changes",
        [
            pytest.param({"count": -1}, id="count=-1"),
            pytest.param({"hf_band": ("0.9",)}, id="hf_band-of-one"),
            pytest.param({"hf_band": ("0.9", "0.95", "0.99")}, id="hf_band-of-three"),
        ],
    )
    def test_argument_out_of_range_raises(self, changes):
        path = PricePath.from_pairs([(i * HOUR, "100") for i in range(60)])
        with pytest.raises(ValueError):
            synthesize_events(path, "0.8", **{"count": 1, "seed": 0, **changes})

    @pytest.mark.parametrize(
        "band",
        [
            # Both ends underflow the float, so every draw rounds to 0.
            pytest.param(("1e-900", "2e-900"), id="below-float-range"),
            # Both ends round to the float 0.9, below the band's low end.
            pytest.param(
                ("0.90000000000000000001", "0.90000000000000000009"), id="narrower-than-float"
            ),
        ],
    )
    def test_trigger_health_factor_in_band(self, band):
        path = PricePath.from_pairs([(i * HOUR, "100") for i in range(60)])
        theta = Decimal("0.8")
        lo, hi = (Fraction(v) for v in band)
        for ev in synthesize_events(path, theta, count=200, seed=4, hf_band=band):
            assert lo <= health_factor(ev.position, path[ev.path_offset].price, theta) < hi


class TestDistSummaryMean:
    """The mean is bracketed with integer floors; it must equal the exact
    Fraction mean rounded to the report grid for every input."""

    @staticmethod
    def exact_mean(values):
        return _fraction_to_decimal(sum(values, Fraction(0)) / len(values))

    @staticmethod
    def bracket_ends(values):
        # The two rounded ends of the integer-floor bracket of the mean.
        n = len(values)
        floor_sum = sum(v.numerator * 10**100 // v.denominator for v in values)
        return {_fraction_to_decimal(Fraction(floor_sum + i * n, n * 10**100)) for i in (0, 1)}

    @given(
        st.lists(
            st.tuples(st.integers(10**69, 2 * 10**80), st.integers(10**70, 10**80)),
            min_size=1,
            max_size=40,
            unique_by=lambda nd: nd[1],
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_exact_mean(self, pairs):
        # Health-factor-like values near one, each with its own large
        # denominator, as C * p * theta / D gives them.
        values = [Fraction(n, d) for n, d in pairs]
        assert DistSummary.from_values(values).mean == self.exact_mean(values)

    @given(st.integers(0, 10**6), st.integers(1, 30))
    @settings(max_examples=100, deadline=None)
    def test_half_quantum_ties(self, k, n):
        # Every value, hence the mean, sits exactly on a half-quantum tie.
        values = [Fraction(2 * k + 1, 2 * 10**18)] * n
        assert DistSummary.from_values(values).mean == self.exact_mean(values)

    @pytest.mark.parametrize(
        "numerator, expected, ends",
        [(1, "0E-18", {"0E-18", "1E-18"}), (3, "2E-18", {"2E-18"})],
        ids=["1-0E-18", "3-2E-18"],
    )
    def test_explicit_ties_round_half_even(self, numerator, expected, ends):
        # The mean sits exactly on a half-quantum tie and rounds half-even.
        # The bracket's upper end lies 1e-100 above the tie and rounds up,
        # so 1/2 quantum falls back to the exact sum; 3/2 rounds up either way.
        values = [Fraction(numerator, 2 * 10**18)]
        assert self.bracket_ends(values) == {Decimal(e) for e in ends}
        assert str(DistSummary.from_values(values).mean) == expected

    # The report-grid tie 1.0...0015, which rounds half-even to ...002:
    # means below it round to ...001, means at or above it to ...002.
    TIE = Fraction(Decimal("1.0000000000000000015"))
    UNIT = Fraction(1, 10**100)

    @pytest.mark.parametrize(
        "values, expected",
        [
            ([TIE - UNIT / 10**20], "1.000000000000000001"),
            ([TIE + UNIT * 6 / 10, TIE - UNIT * 4 / 10], "1.000000000000000002"),
        ],
    )
    def test_undecided_bracket_falls_back_to_exact_sum(self, values, expected):
        assert self.bracket_ends(values) == {
            Decimal("1.000000000000000001"),
            Decimal("1.000000000000000002"),
        }
        assert DistSummary.from_values(values).mean == Decimal(expected)
        assert DistSummary.from_values(values).mean == self.exact_mean(values)

    def test_infinities_are_only_counted(self):
        summary = DistSummary.from_values([Fraction(1, 3), math.inf, Fraction(2, 3)])
        assert summary.count == 3
        assert summary.infinite_count == 1
        assert summary.mean == Decimal("0.5")


class TestOutcomesCsv:
    def test_equal_values_written_differently_render_alike(self):
        # outcomes.csv renders each distinct value once, keyed by the
        # Decimal: every cell must still read as dec_str of its own value.
        values = ["1.5", "1.50", "0", "-0", "0E-30", "0.1234567890123456785" + "0" * 61]
        rows = [
            replace(
                outcome("default", payoff=v),
                premium_value=Decimal(v), release_usd=Decimal(v), restraint_usd=Decimal(v),
                price_decline=Decimal(v),
            )
            for v in values
        ]
        lines = serialize_outcomes_csv(rows).splitlines()[1:]
        for v, line in zip(values, lines):
            assert line.split(",")[5:] == [dec_str(Decimal(v))] * 5


class TestRoundOnce:
    """Every report statistic and total is exact and rounds once, half-even,
    to the 18-digit grid: no intermediate rounding moves its last digit."""

    @pytest.mark.parametrize(
        "value",
        [
            Fraction(1, 2 * 10**18) + Fraction(1, 10**100),
            Fraction(3, 2 * 10**18) - Fraction(1, 10**100),
        ],
    )
    def test_near_half_quantum(self, value):
        # An 80-digit quotient would land on the tie and round it to even.
        assert str(_fraction_to_decimal(value)) == "1E-18"

    def test_payoff_moments_near_half_quantum(self):
        # Payoffs 0 and 3e-18 - 2e-100: the mean and the std are both
        # 1.5e-18 - 1e-100, just below the tie.
        near_three = f"{3 * 10**82 - 2}E-100"
        settled = [outcome("exercise_loss", "0"), outcome("exercise_profit", near_three)]
        (row,) = payoff_rows(settled)
        assert (str(row.mean_payoff), str(row.std_payoff)) == ("1E-18", "1E-18")

    def test_release_total_keeps_every_digit(self):
        # 62 integer and 18 fractional digits: one more than the ledger's 80.
        rows = [
            replace(outcome("fsl"), release_usd=Decimal(v)) for v in ("1E+62", "4E-18")
        ]
        total = aggregate_outcome_rows(rows)["collateral_release_usd"]
        assert total == "1" + "0" * 62 + ".000000000000000004"

    @given(st.lists(st.integers(-(10**24), 10**24), min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_std_matches_wide_sqrt(self, scaled):
        # Payoffs on the 18-digit grid, as outcome rows hold them; a square
        # root at 200 digits is far too close to rounding twice to matter.
        payoffs = [Fraction(k, 10**18) for k in scaled]
        (row,) = payoff_rows([outcome("exercise_profit", f"{k}E-18") for k in scaled])
        mean = sum(payoffs, Fraction(0)) / len(payoffs)
        var = sum(((p - mean) ** 2 for p in payoffs), Fraction(0)) / len(payoffs)
        with localcontext(Context(prec=200)):
            std = (Decimal(var.numerator) / Decimal(var.denominator)).sqrt()
            assert row.std_payoff == std.quantize(Decimal("1E-18"))


def oracle_payoff_rows(rows):
    """The payoff table folded as `statistics` folds it: the exact mean and
    population variance of each cell's payoffs as Fractions, then the same
    rounding as `payoff_rows`."""
    groups = {}
    for r in rows:
        if r.outcome_class in ("exercise_profit", "exercise_loss", "default"):
            groups.setdefault((r.term_seconds, r.premium_factor), []).append(r)
    table = []
    for (term, lam), settled in sorted(groups.items()):
        n = len(settled)
        counts = Counter(r.outcome_class for r in settled)
        payoffs = [Fraction(r.supporter_payoff) for r in settled]
        mean = statistics.mean(payoffs)
        four_var = 4 * statistics.pvariance(payoffs, mean)
        t = math.isqrt(math.floor(four_var * 10**36)) / Fraction(10**18)
        std = t / 2 if t * t == four_var else t / 2 + Fraction(1, 4 * 10**18)
        table.append(
            PayoffRow(
                premium_factor=lam,
                term_seconds=term,
                n=n,
                p_exercise_profit=_fraction_to_decimal(Fraction(counts["exercise_profit"], n)),
                p_exercise_loss=_fraction_to_decimal(Fraction(counts["exercise_loss"], n)),
                p_default=_fraction_to_decimal(Fraction(counts["default"], n)),
                mean_payoff=_fraction_to_decimal(mean),
                std_payoff=_fraction_to_decimal(std),
            )
        )
    return table


def payoff_table_cells(table):
    """Each row as the strings payoff_table.csv writes, so a sign or an
    exponent that equality of Decimals ignores still shows."""
    return [tuple(map(str, astuple(row))) for row in table]


@st.composite
def payoffs(draw):
    """A supporter payoff as outcomes.csv can hold it: up to 80 significant
    digits of either sign, of order of magnitude within `csv_decimal`'s
    ±1000, ledger-sized values on the 18-digit grid among them, and zeros."""
    kind = draw(st.sampled_from(["wide", "ledger", "grid", "zero"]))
    if kind == "zero":
        return Decimal(draw(st.sampled_from(["0", "-0E-18", "0E+5"])))
    sign = draw(st.sampled_from(["", "-"]))
    mantissa = draw(st.integers(1, 10**80 - 1))
    if kind == "wide":
        exponent = draw(st.integers(-1000, 1000)) - (len(str(mantissa)) - 1)
    elif kind == "ledger":
        exponent = draw(st.integers(-78, -60))
    else:
        mantissa %= 10**24
        exponent = -18
    return csv_decimal(f"{sign}{mantissa}E{exponent}")


@st.composite
def payoff_cells(draw):
    """Outcome rows of 1-4 interleaved (λ, term) cells in shuffled order, as
    `analyze` reads them in file order. A cell holds 1-8 settled rows, all
    equal in some cells, and rows of classes that settle at no maturity."""
    cells = draw(
        st.lists(
            st.tuples(st.sampled_from(["0.01", "0.05", "0.2"]), st.sampled_from([HOUR, 6 * HOUR])),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    rows = []
    for lam, term in cells:
        settled = draw(st.lists(payoffs(), min_size=1, max_size=8))
        if draw(st.booleans()):
            settled = [settled[0]] * len(settled)
        for payoff in settled:
            klass = draw(st.sampled_from(["exercise_profit", "exercise_loss", "default"]))
            rows.append(outcome(klass, str(payoff), lam=lam, term=term))
        for klass in draw(st.lists(st.sampled_from(["terminated", "declined", "fsl"]), max_size=2)):
            rows.append(outcome(klass, "1" if klass == "terminated" else None, lam=lam, term=term))
    random.Random(draw(st.integers(0, 2**32))).shuffle(rows)
    return rows


class TestPayoffFold:
    """Each cell's payoff mean and std come from exact `Decimal` sums of the
    payoffs and their squares: the table equals the Fraction fold of
    `statistics`, byte for byte, for every payoff outcomes.csv can hold."""

    @given(rows=payoff_cells())
    @settings(max_examples=300, deadline=None)
    def test_equals_statistics_fold(self, rows):
        table = payoff_rows(rows)
        assert payoff_table_cells(table) == payoff_table_cells(oracle_payoff_rows(rows))
        for row in table:
            cell = {
                Fraction(r.supporter_payoff)
                for r in rows
                if (r.premium_factor, r.term_seconds) == (row.premium_factor, row.term_seconds)
                and r.outcome_class in ("exercise_profit", "exercise_loss", "default")
            }
            if len(cell) == 1:  # one row, or a constant cell
                assert str(row.std_payoff) == "0E-18"

    def test_equals_statistics_fold_on_sweep_rows(self):
        # The unrounded rows simulate folds, and their 18-digit CSV round
        # trip that analyze folds.
        sweep = run_sweep(gated_rescue_scenario(), ["0.01", "0.05", "0.2"], [HOUR, 3 * HOUR])
        rows = [row for _, _, report in sweep.cells for row in report.results]
        parsed = load_outcomes_csv(serialize_outcomes_csv(rows))
        for fold in (rows, parsed):
            table = payoff_table_cells(payoff_rows(fold))
            assert table == payoff_table_cells(oracle_payoff_rows(fold))


def gated_rescue_scenario(regime=Regime.HYBRID):
    path = generate_gbm(
        GbmParams(p0=Price(Decimal(100)), mu=0.0, sigma=2.0, dt=1 / 525_600, steps=400, seed=5)
    )
    pool = CpAmmPool(
        reserve_quote=Decimal("10000000"), reserve_base=Decimal("100000"), fee=Decimal("0.003")
    )
    return Scenario(
        events=synthesize_events(path, FSL.theta, count=12, seed=3, max_term_seconds=3 * HOUR),
        path=path,
        fsl=FSL,
        miqado=miq(rescue_above_hf=Decimal("1.0")),
        regime=regime,
        pool=pool,
        sold_fraction=Decimal("0.95"),
        supporter_gate=True,
    )


class TestSweepSharesTriggerFacts:
    """A sweep replays each event in every cell before the next event, and
    checks, liquidates and tests each trigger for eligibility once for all
    cells. Every cell must still equal a standalone replay of the same
    (lambda, term), and the sweep fails at its lowest-index failing event."""

    def test_trigger_rows_equal_the_fsl_only_liquidation(self, tmp_path):
        # The sweep fixture in hybrid with the gate on, buffer 0.05 and
        # rescue at 1.0: every ineligible and declined event is liquidated
        # at its trigger, exactly as under fsl_only.
        config = json.loads((FIXTURES / "config_sweep.json").read_text())
        config.update(supporter_gate=True)
        config["miqado"].update(buffer="0.05", rescue_above_hf="1.0")
        (tmp_path / "config.json").write_text(json.dumps(config))
        base = load_config(tmp_path / "config.json")
        grid = (base.sweep_lambdas, base.sweep_terms_seconds)
        fsl = run_sweep(replace(base, regime=Regime.FSL_ONLY), *grid)
        liquidated = {r.event_index: r for r in fsl.cells[0][2].results}
        rows = [r for _, _, report in run_sweep(base, *grid).cells for r in report.results]
        at_trigger = [r for r in rows if r.outcome_class in ("ineligible", "declined")]
        assert Counter(r.outcome_class for r in at_trigger) == {"ineligible": 480, "declined": 36}
        for r in at_trigger:
            fsl_row = liquidated[r.event_index]
            assert r.price_decline is not None
            assert (r.release_usd, r.price_decline) == (fsl_row.release_usd, fsl_row.price_decline)

    @pytest.mark.parametrize("regime", [Regime.FSL_ONLY, Regime.HYBRID])
    def test_events_share_the_scenario_pool_without_draining_it(self, regime):
        pool = CpAmmPool(
            reserve_quote=Decimal("900"), reserve_base=Decimal("1000"), fee=Decimal("0.003")
        )
        s = scenario_a(regime, pool=pool, sold_fraction=Decimal("0.5"))
        s.path = path_b()
        s.events = [event_a(), event_a()]
        sweep = run_sweep(s, ["0.1"], [2 * HOUR])
        first, second = sweep.cells[0][2].results
        assert first.price_decline is not None
        assert first.price_decline == second.price_decline
        assert (pool.reserve_quote, pool.reserve_base) == (Decimal("900"), Decimal("1000"))

    @pytest.mark.parametrize("regime", list(Regime))
    def test_cells_equal_standalone_runs(self, regime):
        base = gated_rescue_scenario(regime)
        # Unsorted terms: each term of an event finds its own maturity and
        # running peaks.
        lambdas, terms = ["0.01", "0.05", "0.2"], [HOUR, 3 * HOUR, 2 * HOUR]
        sweep = run_sweep(base, lambdas, terms)
        assert len(sweep.cells) == len(lambdas) * len(terms)
        # The gate's break-even factor is found once per (event, term) and
        # splits that term's cells: some engage and some decline.
        classes: dict[tuple[int, int], set[str]] = {}
        for _, term, report in sweep.cells:
            for r in report.results:
                classes.setdefault((r.event_index, term), set()).add(r.outcome_class)
        split = [
            key for key, found in classes.items()
            if "declined" in found and found - {"declined", "ineligible"}
        ]
        assert bool(split) == (regime is not Regime.FSL_ONLY)
        for lam, term, report in sweep.cells:
            alone = run_scenario(base, lam, term)
            assert report.to_json_dict() == alone.to_json_dict()

    def test_payoff_rows_of_all_cells_equal_sweep_payoff_rows(self):
        sweep = run_sweep(gated_rescue_scenario(), ["0.01", "0.05", "0.2"], [HOUR, 3 * HOUR])
        rows = [row for _, _, report in sweep.cells for row in report.results]
        assert sweep.payoff_rows
        assert payoff_rows(rows) == sweep.payoff_rows

    def test_first_failing_event_wins_in_sweeps_too(self):
        # Event 0 fails only once the cell's term is known (its maturity
        # runs off the path); event 1 already fails its trigger check. Both
        # a sweep and a single replay must report event 0.
        s = scenario_a(Regime.MIQADO_ONLY)
        s.events = [
            event_a(),
            LiquidationEvent(position=pos("100", "200", pid="healthy"), path_offset=0),
        ]
        # With a term that fits, the trigger failure of event 1 surfaces.
        for term, message in [
            (10 * 24 * HOUR, "event 0: path ends at 14400, before requested timestamp 867600"),
            (HOUR, "event 1: health factor 1.600000 at offset 0 is not below one"),
        ]:
            with pytest.raises(ScenarioError) as alone:
                run_scenario(s, "0.1", term)
            with pytest.raises(ScenarioError) as swept:
                run_sweep(s, ["0.1"], [term])
            assert str(alone.value) == str(swept.value) == message

    def test_lowest_failing_event_wins_across_cells(self):
        # Event 0 fails only in the 10-day cell, event 1 at its trigger in
        # every cell. The 1-hour cell alone would reach event 1 first, but
        # the sweep replays event 0 in both cells before event 1.
        s = scenario_a(Regime.MIQADO_ONLY)
        s.events = [
            event_a(),
            LiquidationEvent(position=pos("100", "200", pid="healthy"), path_offset=0),
        ]
        with pytest.raises(ScenarioError) as swept:
            run_sweep(s, ["0.1"], [HOUR, 10 * 24 * HOUR])
        assert str(swept.value) == "event 0: path ends at 14400, before requested timestamp 867600"


def _milli(k: int) -> Decimal:
    return Decimal(k).scaleb(-3)


class TestMaturityLiquidationPerTerm:
    """A default in the hybrid regime liquidates (D, C·(1+λ)) at p_T. Its
    seizure close_factor·D·(1+spread)/p_T does not depend on λ, so the
    sweep liquidates once per (event, term), unless the seizure clamps to
    the topped-up collateral, which it does for small λ."""

    # Trigger HF 1·100·0.8/100 = 0.8. At maturity p_T = 50: every λ < 1
    # defaults, since (1+λ)·50 < 100, and the seizure 0.5·100·1.5/50 = 1.5
    # clamps to the collateral 1+λ exactly when λ < 0.5. The grid is
    # unsorted: a clamped cell comes first, then one after an unclamped one.
    LAMBDAS = ["0.2", "0.6", "0.4", "0.8", "0.7", "0.45"]

    def scenario(self):
        return Scenario(
            events=[LiquidationEvent(position=pos("100", "1"), path_offset=0)],
            path=PricePath.from_pairs([(0, "100"), (HOUR, "50")]),
            fsl=FslParams(theta=Decimal("0.8"), close_factor=Decimal("0.5"), spread=Decimal("0.5")),
            miqado=miq(),
            regime=Regime.HYBRID,
            pool=CpAmmPool(
                reserve_quote=Decimal("1000"), reserve_base=Decimal("20"), fee=Decimal("0.003")
            ),
            sold_fraction=Decimal("0.95"),
            supporter_gate=False,
        )

    def test_rows_equal_a_liquidation_per_cell(self, monkeypatch):
        s = self.scenario()
        ev, start, maturity = s.events[0], s.path[0], s.path[1]
        liquidations = 0

        def counted(*args):
            nonlocal liquidations
            liquidations += 1
            return execute_fsl(*args)

        monkeypatch.setattr("miqado.sim.execute_fsl", counted)
        sweep = run_sweep(s, self.LAMBDAS, [HOUR])
        clamped = set()
        for lam, _, report in sweep.cells:
            (row,) = report.results
            assert row.outcome_class == "default"
            topped_up = copy.copy(ev.position)
            initiate(topped_up, start.price, s.fsl.theta, s.miqado, lam, HOUR, start.timestamp)
            repay = Amount.debt(LEDGER.multiply(topped_up.debt.value, s.fsl.close_factor))
            outcome = execute_fsl(topped_up, maturity.price, s.fsl, repay)
            seized = outcome.collateral_seized
            release = LEDGER.multiply(seized.value, maturity.price.value)
            decline = direct_price_decline(s.pool, seized, s.sold_fraction)
            assert (row.release_usd, row.price_decline) == (release, decline)
            clamped.add(outcome.shortfall)
        assert clamped == {True, False}
        # The trigger, the three clamped cells and the first unclamped one.
        assert liquidations == 5

    def test_crash_fixture_clamps_on_both_sides_within_a_term(self):
        # config_crash.json: in 10 (event, term) groups some default cells
        # clamp at maturity and others do not, so the sweep both reuses
        # the term's unclamped liquidation and redoes a clamped one. Every
        # default row releases what its own liquidation would.
        s = load_config(FIXTURES / "config_crash.json")
        sweep = run_sweep(s, s.sweep_lambdas, s.sweep_terms_seconds)
        clamps: dict[tuple[int, int], list[bool]] = {}
        for lam, term, report in sweep.cells:
            for row in report.results:
                if row.outcome_class != "default":
                    continue
                ev = s.events[row.event_index]
                start = s.path[ev.path_offset]
                maturity = s.path[s.path.index_at_or_after(start.timestamp + term)]
                topped_up = copy.copy(ev.position)
                initiate(topped_up, start.price, s.fsl.theta, s.miqado, lam, term, start.timestamp)
                repay = Amount.debt(LEDGER.multiply(topped_up.debt.value, s.fsl.close_factor))
                outcome = execute_fsl(topped_up, maturity.price, s.fsl, repay)
                release = LEDGER.multiply(outcome.collateral_seized.value, maturity.price.value)
                assert row.release_usd == release
                clamps.setdefault((row.event_index, term), []).append(outcome.shortfall)
        assert sum(map(len, clamps.values())) == 484
        assert sum(map(sum, clamps.values())) == 59
        assert sum(set(c) == {True, False} for c in clamps.values()) == 10

    def test_exercise_compares_the_exact_collateral_value(self):
        # p_T = 1 − 1e-85 and D = 1.5. At λ = 0.5 the exact C'·p_T = 1.5·p_T
        # is below D, though it reads 1.5 at the ledger's 80 digits, so the
        # supporter defaults. The default liquidates unclamped: it repays
        # 0.5·1.5 and seizes 0.75·1.5/p_T, 1.125 at 80 digits, worth 1.125.
        # The λ = 0.4 cell liquidated first, so the sweep reuses that.
        s = replace(
            self.scenario(),
            events=[LiquidationEvent(position=pos("1.5", "1"), path_offset=0)],
            path=PricePath.from_pairs([(0, "1"), (HOUR, "0." + "9" * 85)]),
        )
        alone = run_scenario(s, "0.5", HOUR)
        (row,) = alone.results
        assert (row.outcome_class, row.release_usd) == ("default", Decimal("1.125"))
        sweep = run_sweep(s, ["0.4", "0.5", "0.6"], [HOUR])
        classes = [report.class_counts for _, _, report in sweep.cells]
        assert classes == [{"default": 1}, {"default": 1}, {"exercise_loss": 1}]
        assert sweep.cells[1][2].results == alone.results
        assert sweep.cells[1][2].to_json_dict() == alone.to_json_dict()


@st.composite
def rescue_cases(draw):
    """A non-monotone hourly path with 3-decimal prices, drawn either from
    a wide range or from a few values so that plateaus and repeated
    records occur; an eligible event on it; 1-3 premium factors and 1-3
    terms whose maturities land on the path, so a shorter term cuts the
    records a longer one sees; and a rescue threshold. Half the time the
    threshold is exactly the topped-up health factor at some path price
    under one of the premium factors."""
    n = draw(st.integers(3, 16))
    price = draw(st.sampled_from([st.integers(500, 1500), st.sampled_from([800, 1000, 1250])]))
    prices = draw(st.lists(price, min_size=n, max_size=n))
    path = PricePath.from_pairs([(i * HOUR, _milli(k)) for i, k in enumerate(prices)])
    offset = draw(st.integers(0, n - 3))
    term_hours = st.integers(1, n - 1 - offset)
    terms = draw(st.lists(term_hours, min_size=1, max_size=3, unique=True))
    lam = st.sampled_from(["0.01", "0.1", "0.5"]).map(Decimal)
    lams = draw(st.lists(lam, min_size=1, max_size=3, unique=True))
    collateral = Decimal(draw(st.integers(0, 200)))
    if draw(st.booleans()):
        # Debt above the discounted collateral value: HF < 1 at the trigger.
        debt = collateral * _milli(prices[offset]) * FSL.theta + draw(st.integers(1, 100))
        threshold = _milli(draw(st.integers(0, 2000)))
    else:
        # A debt of the form 2^a·5^b makes every health factor a finite
        # decimal; above 200 · 1.5 · 0.8, it keeps HF < 1 at the trigger.
        debt = Decimal(draw(st.sampled_from([250, 256, 400, 500, 512, 1000])))
        topped_up = pos(debt, collateral * (1 + draw(st.sampled_from(lams))))
        hf = health_factor(topped_up, Price(_milli(draw(st.sampled_from(prices)))), FSL.theta)
        threshold = Decimal(hf.numerator) / hf.denominator
        assert threshold == hf
    event = LiquidationEvent(position=pos(debt, collateral), path_offset=offset)
    return path, event, lams, [h * HOUR for h in terms], threshold


class TestRescuePriceBound:
    """The borrower rescues at the first point where the topped-up health
    factor reaches the threshold. The engine bisects the path's record
    highs on the exact comparison C'·p·θ ≥ h·D; the boundary must stay
    `>=`, and on any path the point must be the one a step-by-step replay
    finds."""

    # Event A topped up by 10%: HF(p) = 143 * p * 0.8 / 100 = 1.144 * p,
    # so at p = 1.25 (index 3) the topped-up HF is exactly 1.43.
    PATH_CSV = (
        "timestamp,price\n"
        "0,1.00\n"
        "3600,0.90\n"
        "5400,1.2499999999999999\n"
        "6000,1.25\n"
        "6600,1.30\n"
        "10800,1.00\n"
    )

    def scenario(self, threshold, event=None):
        return Scenario(
            events=[event or event_a()],
            path=load_price_csv(self.PATH_CSV),
            fsl=FSL,
            miqado=miq(rescue_above_hf=Decimal(threshold)),
            regime=Regime.MIQADO_ONLY,
            supporter_gate=False,
        )

    @pytest.mark.parametrize(
        "threshold, price",
        [("1.43", "1.25"), ("1.4300000000000001", "1.30")],
    )
    def test_terminates_at_first_price_reaching_threshold(self, threshold, price):
        report = run_scenario(self.scenario(threshold), "0.1", 2 * HOUR)
        assert report.class_counts == {"terminated": 1}
        settlement = report.results[0]
        assert settlement.outcome_class == "terminated"
        # payoff = reimbursement * p, reimbursement = 13 * 1.05 * 0.5 = 6.825
        assert settlement.supporter_payoff == Decimal("6.825") * Decimal(price)

    def test_exact_hf_at_terminating_point(self):
        path = load_price_csv(self.PATH_CSV)
        topped_up = pos("100", "143")
        assert health_factor(topped_up, path[3].price, FSL.theta) == Fraction("1.43")
        assert health_factor(topped_up, path[2].price, FSL.theta) < Fraction("1.43")

    @pytest.mark.parametrize("threshold, klass", [("0", "terminated"), ("0.5", "default")])
    def test_no_collateral(self, threshold, klass):
        # With no collateral the health factor is zero at every price: the
        # borrower rescues at once iff the threshold is at most zero.
        empty = LiquidationEvent(position=pos("100", "0", pid="empty"), path_offset=1)
        report = run_scenario(self.scenario(threshold, event=empty), "0.1", 2 * HOUR)
        assert report.class_counts == {klass: 1}

    @given(case=rescue_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_step_by_step_reference(self, case):
        path, event, lams, terms, h = case
        params = miq(rescue_above_hf=h)
        s = Scenario(
            events=[event],
            path=path,
            fsl=FSL,
            miqado=params,
            regime=Regime.MIQADO_ONLY,
            supporter_gate=False,
        )
        for lam, term, report in run_sweep(s, lams, terms).cells:
            row = report.results[0]

            # Reference: test the topped-up health factor at every point
            # between initiation and maturity, then terminate or settle.
            position = copy.copy(event.position)
            start = path[event.path_offset]
            session = initiate(position, start.price, FSL.theta, params, lam, term, start.timestamp)
            maturity_idx = path.index_at_or_after(start.timestamp + term)
            for pt in path.points[event.path_offset + 1 : maturity_idx]:
                if health_factor(position, pt.price, FSL.theta) >= h:
                    outcome = terminate(session, position, pt.price, pt.timestamp, params)
                    klass = "terminated"
                    break
            else:
                end = path[maturity_idx]
                outcome = settle_at_maturity(session, position, end.price, end.timestamp)
                if outcome.state is SessionState.EXERCISED:
                    klass = "exercise_profit" if outcome.supporter_payoff > 0 else "exercise_loss"
                else:
                    klass = "default"
            assert (row.outcome_class, row.supporter_payoff) == (klass, outcome.supporter_payoff)

    @pytest.mark.parametrize("steps", [240, 2880])
    @pytest.mark.parametrize("lambdas", [["0.1"], ["0.01", "0.02", "0.05", "0.10", "0.20"]])
    def test_one_health_factor_per_event(self, monkeypatch, steps, lambdas):
        # The rescue compares C'·p·θ with h·D and builds no health factor,
        # so the sweep evaluates one only at each event's trigger, however
        # long the path and however many premium factors.
        path = generate_gbm(
            GbmParams(p0=Price(Decimal(100)), mu=0.0, sigma=8.0, dt=1 / 525600, steps=steps, seed=7)
        )
        terms = [HOUR, 2 * HOUR]
        events = synthesize_events(path, FSL.theta, count=12, seed=3, max_term_seconds=max(terms))
        s = Scenario(
            events=events,
            path=path,
            fsl=FSL,
            miqado=miq(rescue_above_hf=Decimal("1.05")),
            regime=Regime.HYBRID,
            supporter_gate=False,
        )
        calls = 0

        def counted(*args):
            nonlocal calls
            calls += 1
            return health_factor(*args)

        monkeypatch.setattr("miqado.sim.health_factor", counted)
        sweep = run_sweep(s, lambdas, terms)
        assert calls == len(events)
        assert any(report.class_counts.get("terminated") for _, _, report in sweep.cells)


#: The classes of an engaged cell, ranked in the order λ may step through.
_RANK = {"default": 0, "exercise_profit": 1, "exercise_loss": 1, "terminated": 2}


@st.composite
def sweep_scenarios(draw):
    """A small sweep: 1-6 events of 1, 0.37 or 250 collateral units on a
    240-step hourly GBM path, any regime, the gate, the rescue and a pool
    each on or off, a buffer, and an unsorted grid. With the gate on, the
    grid holds the first eligible event's break-even factor of the first
    term, so a cell sits on the tie."""
    sigma = draw(st.sampled_from([0.5, 2.0, 8.0]))
    path = generate_gbm(
        GbmParams(
            p0=Price(Decimal(100)), mu=0.0, sigma=sigma, dt=1 / 8760, steps=240,
            seed=draw(st.integers(0, 2**32)),
        )
    )
    terms = draw(st.lists(st.sampled_from([1, 6, 24]), min_size=1, max_size=3, unique=True))
    terms = [h * HOUR for h in terms]
    events = synthesize_events(
        path, FSL.theta, count=draw(st.integers(1, 6)), seed=draw(st.integers(0, 2**32)),
        hf_band=draw(st.sampled_from([("0.9", "0.9999"), ("0.5", "0.9999")])),
        collateral=draw(st.sampled_from([Decimal(1), Decimal("0.37"), Decimal(250)])),
        max_term_seconds=max(terms),
    )
    pool = CpAmmPool(
        reserve_quote=Decimal("10000000"), reserve_base=Decimal("100000"), fee=Decimal("0.003")
    )
    s = Scenario(
        events=events,
        path=path,
        fsl=FSL,
        miqado=miq(
            buffer=draw(st.sampled_from([Decimal(0), Decimal("0.1")])),
            rescue_above_hf=draw(st.integers(900, 1200).map(_milli) | st.none()),
        ),
        regime=draw(st.sampled_from([Regime.HYBRID, Regime.MIQADO_ONLY, Regime.FSL_ONLY])),
        pool=draw(st.sampled_from([None, pool])),
        supporter_gate=draw(st.booleans()),
    )
    lambdas = draw(st.lists(st.integers(1, 500).map(_milli), min_size=1, max_size=4, unique=True))
    for ev in events if s.supporter_gate else []:
        p0 = path[ev.path_offset].price
        if can_initiate(ev.position, p0, FSL.theta, s.miqado):
            lam_star = supporter_decision(ev.position, p0, terms[0], path_volatility(path))
            tie = Decimal(repr(lam_star))
            if tie > 0 and tie not in lambdas:
                lambdas.insert(draw(st.integers(0, len(lambdas))), tie)
            break
    return s, lambdas, terms


class TestSweepOrder:
    """Per (event, term), with the premium factor ascending: the engaged
    cells are a prefix, the class never steps down (default < exercise <
    terminated), each step at its own threshold in λ, and a session
    restrains exactly λ·C·p0. Across events, permuting the events permutes
    the rows and leaves every cell's figures unchanged."""

    @given(case=sweep_scenarios())
    @settings(max_examples=100, deadline=None)
    def test_each_class_step_is_a_threshold_in_lambda(self, case):
        s, lambdas, terms = case
        result = run_sweep(s, lambdas, terms)
        params = s.miqado
        if s.regime is Regime.MIQADO_ONLY:  # its window is the liquidation threshold
            params = replace(params, buffer=Decimal(0))
        sigma = path_volatility(s.path) if s.supporter_gate else 0.0
        h = s.miqado.rescue_above_hf
        for idx, ev in enumerate(s.events):
            start = s.path[ev.path_offset]
            coll, debt = Fraction(ev.position.collateral.value), Fraction(ev.position.debt.value)
            eligible = can_initiate(ev.position, start.price, FSL.theta, params)
            for term in terms:
                cells = sorted(
                    (lam, report.results[idx])
                    for lam, cell_term, report in result.cells
                    if cell_term == term
                )
                klasses = [row.outcome_class for _, row in cells]
                if s.regime is Regime.FSL_ONLY or not eligible:
                    assert set(klasses) == {"fsl" if s.regime is Regime.FSL_ONLY else "ineligible"}
                    continue
                lam_star = math.inf
                if s.supporter_gate:
                    lam_star = supporter_decision(ev.position, start.price, term, sigma)
                engaged = [k in _RANK for k in klasses]
                assert engaged == [float(lam) <= lam_star for lam, _ in cells]
                assert engaged == sorted(engaged, reverse=True)
                ranks = [_RANK[k] for k in klasses if k in _RANK]
                assert ranks == sorted(ranks)

                # Rescue iff (1+λ)·HF reaches h strictly between initiation
                # and maturity; else exercise iff (1+λ)·C·p_T covers the debt.
                maturity_idx = s.path.index_at_or_after(start.timestamp + term)
                window = s.path.points[ev.path_offset + 1 : maturity_idx]
                hfs = [health_factor(ev.position, pt.price, FSL.theta) for pt in window]
                peak = max(hfs, default=None)
                p_t = Fraction(s.path[maturity_idx].price.value)
                for lam, row in cells:
                    if row.outcome_class not in _RANK:
                        assert row.restraint_usd == 0
                        continue
                    factor = 1 + Fraction(lam)
                    if h is not None and peak is not None and factor * peak >= h:
                        expected = {"terminated"}
                    elif factor * coll * p_t >= debt:
                        expected = {"exercise_profit", "exercise_loss"}
                    else:
                        expected = {"default"}
                    assert row.outcome_class in expected
                    premium = Fraction(lam) * coll * Fraction(start.price.value)
                    assert Fraction(row.restraint_usd) == premium

    @given(case=sweep_scenarios(), data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_permuting_events_permutes_rows(self, case, data):
        s, lambdas, terms = case
        result = run_sweep(s, lambdas, terms)
        order = data.draw(st.permutations(range(len(s.events))))
        permuted = run_sweep(replace(s, events=[s.events[i] for i in order]), lambdas, terms)
        assert permuted.payoff_rows == result.payoff_rows
        for (_, _, report), (_, _, moved) in zip(result.cells, permuted.cells):
            assert [replace(r, event_index=order[r.event_index]) for r in moved.results] == [
                report.results[i] for i in order
            ]
            # Only the order of the price declines may move.
            got, want = moved.to_json_dict(), report.to_json_dict()
            assert sorted(got.pop("price_declines")) == sorted(want.pop("price_declines"))
            assert got == want
