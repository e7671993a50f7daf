"""CLI behavior: flag parsing, output formats, exit codes, determinism."""

import hashlib
import json
import math
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from decimal import Decimal, Inexact
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from miqado import cli, core, market, protocol, sim
from miqado.cli import load_config, main
from miqado.errors import CsvFormatError
from miqado.market import load_price_csv
from miqado.sim import (
    Regime,
    load_events_csv,
    load_outcomes_csv,
    run_sweep,
    serialize_events_csv,
    serialize_outcomes_csv,
)

FIXTURES = Path(__file__).parent / "fixtures"
README = Path(__file__).parents[1] / "README.md"
GBM = {"p0": "100", "mu": 0.0, "sigma": 8.0, "dt_years": 0.00011415525114155251, "steps": 240}

#: sha256 of each `simulate` output for config_sweep.json.
SWEEP_DIGESTS = {
    "report.json": "f3dfe815c1b70978d5f430e0e30472ddacb3b21c5ef94dea050a515d1db2ca2a",
    "payoff_table.csv": "b7ff88494039f1a242628ca3fb37065f8e4bc04cb66d5a22722b32fcbe583a50",
    "metrics.csv": "0e9628ca173cd5a34dc3820e3f7a88ee3304c1a72c7d655b6b24efdfc2af4c3b",
    "outcomes.csv": "78f075a2432b9b1d24fee75fdb60e06ba869e858c96d6696bd29062ad24a7c89",
}

#: Changes to a fixture config, each taking the sweep down another outcome
#: path, and the sha256 of each `simulate` output under it.
OUTCOME_PATH_PINS = {
    # 750 fsl rows, each with a price decline.
    "fsl_only": (
        "config_sweep.json",
        {"regime": "fsl_only"},
        {
            "report.json": "b88610d8309c455acf8df239c8c1c40b8baa020bc7b58c0f12e48e53bf6877fb",
            "payoff_table.csv": "887958a1195fd5036fc82c4f156dc46cfe84ccd536b173c1c6009fa452b0ce95",
            "metrics.csv": "a62a418ed2db3876f0a251fd8c10f593894e4aa782c3eca0a3a17fcbda4c7c85",
            "outcomes.csv": "fca3ea0f3796dd3b902dd18818fcacb2066bb06849a676ba60f8b0706299d2fe",
        },
    ),
    # Terminated, exercise and default rows, and 92 declined rows.
    "miqado_only-gated-rescue": (
        "config_sweep.json",
        {"regime": "miqado_only", "supporter_gate": True,
         "miqado": {"k_re": "0.5", "buffer": "0", "rescue_above_hf": "1.0"}},
        {
            "report.json": "7d4efb6a25e2a75a53944c88ff8c882d04dc02ada6d8d69942d5671618fd1e31",
            "payoff_table.csv": "21288aeaae9016a03ac07627128418642208049aa3162d6c74364f358002a778",
            "metrics.csv": "296ff4b640a86e3634d5074d732d4c6a5ad18624b49b22e0abc8330374103d04",
            "outcomes.csv": "a2c0e1e0637dc5647423dc4f2db5cb5ce14d0db24f4f4fe063ab6396cc3995f0",
        },
    ),
    # 480 ineligible rows and 36 declined rows, each liquidated at its trigger.
    "hybrid-gated-buffer": (
        "config_sweep.json",
        {"regime": "hybrid", "supporter_gate": True,
         "miqado": {"k_re": "0.5", "buffer": "0.05", "rescue_above_hf": "1.0"}},
        {
            "report.json": "5af3fa623f18d2f0bbe806db5a19cc8e78ef2e57bdfe52dda39705c588542c31",
            "payoff_table.csv": "9eef9c00da719974d4e94ec41d3ebf5bb5af96ab42849c5c8f0166881067524e",
            "metrics.csv": "ebc814976998d7d477d34aa0556132e91e8c015b9f41f6f8449e6b202801fdfc",
            "outcomes.csv": "72bd6c66bb85fb05260adb976751f4bc06a9d0d942b9ff32f7d68777bc053db9",
        },
    ),
    # CSV events with a pool: the default liquidated at maturity records a decline.
    "hand-csv-pool": (
        "config_hand.json",
        {"pool": {"reserve_quote": "1000", "reserve_base": "1000", "fee": "0.003"}},
        {
            "report.json": "817cf8089d55111a3427bf4ff1c0b7418d367321b8b43b1f17a74fc8232143eb",
            "payoff_table.csv": "ec324fe41365f724c97224a8af31ddcfe5a34ae7ce91f3260e5f2354dbafa662",
            "metrics.csv": "1fa1217c42cfbd585c563c36bb3932012693f4b4a0205da32698834bb006235f",
            "outcomes.csv": "a6fc74629d5c9224b378c76d277ab45b2ca7a5ffc52032db9c71b1d95e5c3ef9",
        },
    ),
}

#: Every function whose ledger arithmetic rounds on config_sweep.json, as
#: module.function: divisions, products of quotients, and `quantize`'s
#: rounding of ledger values and exact totals to the 18-digit grid. Report
#: statistics are exact and round once, outside any ledger context.
ROUNDING_SITES = {
    "core._seizure", "core.execute_fsl", "core.fsl_post_health_factor", "core.quantize",
    "market.amm_swap_base_for_quote", "market.direct_price_decline",
    "sim._liquidate", "sim.synthesize_events",
}

# Frozen Monte-Carlo oracle value for (100, 100, r=0.05, rf=0, sigma=0.2, T=1).
MC_ATM_CALL = 10.452096058627289


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejected a flag
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_price_output(out):
    values = {}
    for line in out.splitlines():
        key, val = line.split()
        values[key] = float(val)
    return values


class TestPrice:
    def test_zero_vol_closed_form(self, capsys):
        code, out, _ = run_cli(
            capsys, "price", "--spot", "120", "--strike", "100",
            "--rate", "0", "--sigma", "0", "--term", "1",
        )
        assert code == 0
        assert parse_price_output(out)["call_price"] == 20.0

    def test_tiny_strike(self, capsys):
        code, out, _ = run_cli(
            capsys, "price", "--spot", "100", "--strike", "1e-9",
            "--foreign-rate", "0.01", "--sigma", "0.3", "--term", "1",
        )
        assert code == 0
        expected = 100.0 * math.exp(-0.01)
        assert parse_price_output(out)["call_price"] == pytest.approx(expected, abs=1e-5)

    def test_mc_oracle_parameters(self, capsys):
        code, out, _ = run_cli(
            capsys, "price", "--spot", "100", "--strike", "100",
            "--rate", "0.05", "--sigma", "0.2", "--term", "1", "--collateral", "10",
        )
        assert code == 0
        values = parse_price_output(out)
        assert values["call_price"] == pytest.approx(MC_ATM_CALL, rel=0.005)
        assert values["lambda_star"] == pytest.approx(MC_ATM_CALL / 1000.0, rel=0.005)

    @pytest.mark.parametrize(
        "changed, message",
        [
            pytest.param({"--sigma": "-0.2"}, "usage error", id="sigma=-0.2"),
            # Values outside the model's range name their flag.
            pytest.param(
                {"--sigma": "-1"}, "volatility must be >= 0; check --sigma", id="sigma=-1"
            ),
            pytest.param({"--spot": "-1"}, "spot must be > 0; check --spot", id="spot=-1"),
            pytest.param(
                {"--strike": "-5"}, "strike must be > 0; check --strike", id="strike=-5"
            ),
            pytest.param({"--term": "0"}, "term must be > 0; check --term", id="term=0"),
            pytest.param({"--sigma": "inf"}, "--sigma", id="sigma=inf"),
            pytest.param({"--spot": "nan"}, "--spot", id="spot=nan"),
            pytest.param({"--strike": "-inf"}, "--strike", id="strike=-inf"),
            pytest.param({"--rate": "nan"}, "--rate", id="rate=nan"),
            pytest.param({"--term": "abc"}, "--term", id="term=abc"),
            # Finite flags whose model value is undefined or not finite.
            pytest.param(
                {"--collateral": "1e-400"},
                "collateral value is zero, premium factor undefined; check --spot, --collateral",
                id="collateral=1e-400",
            ),
            pytest.param(
                {"--spot": "1e-200", "--collateral": "1e-200"},
                "collateral value is zero, premium factor undefined; check --spot, --collateral",
                id="spot*collateral=1e-400",
            ),
            pytest.param({"--collateral": "1e400"}, "usage error", id="collateral=1e400"),
            # Unreadable or non-positive decimal flags name the flag.
            pytest.param({"--collateral": "-1"}, "--collateral", id="collateral=-1"),
            pytest.param({"--collateral": "0"}, "--collateral", id="collateral=0"),
            pytest.param({"--collateral": "abc"}, "--collateral", id="collateral=abc"),
            pytest.param({"--collateral": "nan"}, "--collateral", id="collateral=nan"),
            pytest.param(
                {"--spot": "1e-300", "--strike": "1e300", "--sigma": "100", "--term": "1e10"},
                "log(spot / strike) is undefined; check --spot, --strike",
                id="log(spot/strike)-undefined",
            ),
            pytest.param(
                {"--spot": "1e300", "--strike": "1e-300", "--sigma": "0", "--term": "1e10",
                 "--rate": "-1"},
                "exp(-domestic_rate * term) overflows a float; check --rate, --term",
                id="discount-overflows",
            ),
            pytest.param(
                {"--spot": "1e300", "--sigma": "0.2", "--foreign-rate": "-700"},
                "call price",
                id="call-price=inf",
            ),
        ],
    )
    def test_bad_value_is_usage_error(self, capsys, changed, message):
        flags = {"--spot": "100", "--strike": "100", "--sigma": "0.2", "--term": "1", **changed}
        code, out, err = run_cli(capsys, "price", *(x for kv in flags.items() for x in kv))
        assert code == 2
        assert message in err
        assert out == ""

    def test_missing_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["price", "--spot", "100"])
        assert exc.value.code == 2


class TestGbm:
    def test_zero_vol_zero_drift_constant(self, capsys):
        code, out, _ = run_cli(
            capsys, "gbm", "--p0", "50", "--mu", "0", "--sigma", "0",
            "--dt", "0.001", "--steps", "5", "--seed", "1",
        )
        assert code == 0
        path = load_price_csv(out)
        assert len(path) == 6
        assert all(pt.price.value == Decimal("50.0") for pt in path.points)

    def test_seeded_run_stable(self, capsys):
        args = ["gbm", "--p0", "100", "--mu", "0.1", "--sigma", "0.5",
                "--dt", "0.0001", "--steps", "20", "--seed", "9"]
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_round_trips_through_loader(self, capsys):
        _, out, _ = run_cli(
            capsys, "gbm", "--p0", "100", "--mu", "0.1", "--sigma", "0.5",
            "--dt", "0.0001", "--steps", "20", "--seed", "9",
        )
        from miqado.market import serialize_price_csv

        assert serialize_price_csv(load_price_csv(out)) == out

    @pytest.mark.parametrize(
        "flag, value",
        [
            pytest.param("--sigma", "nan", id="sigma=nan"),
            pytest.param("--mu", "inf", id="mu=inf"),
            pytest.param("--dt", "-inf", id="dt=-inf"),
            # --p0 is a decimal > 0 by the config number rule.
            pytest.param("--p0", "1e400", id="p0=1e400"),
            pytest.param("--p0", "nan", id="p0=nan"),
            pytest.param("--p0", "abc", id="p0=abc"),
            pytest.param("--p0", "-1", id="p0=-1"),
        ],
    )
    def test_non_finite_value_is_usage_error(self, capsys, flag, value):
        flags = {"--p0": "100", "--sigma": "0.5", "--dt": "0.001", "--steps": "5", flag: value}
        code, out, err = run_cli(capsys, "gbm", *(x for kv in flags.items() for x in kv))
        assert code == 2
        assert flag in err
        assert out == ""

    @pytest.mark.parametrize(
        "flags",
        [
            pytest.param(("--mu", "1e308", "--sigma", "0.5", "--dt", "0.001"), id="mu=1e308"),
            pytest.param(("--mu", "1000", "--sigma", "0", "--dt", "1"), id="sigma=0-overflow"),
            pytest.param(
                ("--p0", "1e300", "--mu", "500", "--sigma", "0.1", "--dt", "1"), id="price=inf"
            ),
            pytest.param(("--mu", "-100000", "--sigma", "0.1", "--dt", "1"), id="price=0"),
            pytest.param(("--sigma", "0.1", "--dt", "1e308"), id="dt=1e308"),
            pytest.param(("--sigma", "0.1", "--dt", "0.001", "--seed", "-1"), id="seed=-1"),
            pytest.param(
                ("--sigma", "0.1", "--dt", "0.001", "--steps", "1000001"), id="steps=1000001"
            ),
            pytest.param(
                ("--sigma", "0.1", "--dt", "0.001", "--start-ts", str(2**63)), id="start_ts=2**63"
            ),
            pytest.param(
                ("--sigma", "0.1", "--dt", "0.001", "--start-ts", str(-(2**63) - 1)),
                id="start_ts=-2**63-1",
            ),
            pytest.param(("--sigma", "0", "--dt", "1e11"), id="last_ts>=2**63"),
        ],
    )
    def test_path_out_of_range_is_usage_error(self, capsys, flags):
        code, out, err = run_cli(capsys, "gbm", "--p0", "100", "--steps", "3", *flags)
        assert code == 2
        assert "usage error" in err
        assert out == ""

    def test_negative_seed_names_flag(self, capsys):
        code, out, err = run_cli(
            capsys, "gbm", "--p0", "100", "--sigma", "0.1", "--dt", "0.001", "--steps", "3",
            "--seed", "-1",
        )
        assert code == 2
        assert "--seed" in err
        assert out == ""

    def test_invalid_dt_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "gbm", "--p0", "100", "--sigma", "0.5",
            "--dt", "0", "--steps", "5",
        )
        assert code == 2
        assert "usage error" in err


class TestSimulate:
    def test_golden_report(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "simulate", "--config", str(FIXTURES / "config_hand.json"),
            "--out", str(tmp_path),
        )
        assert code == 0
        got = (tmp_path / "report.json").read_bytes()
        golden = (FIXTURES / "golden_report.json").read_bytes()
        assert got == golden
        for name in ("payoff_table.csv", "metrics.csv", "outcomes.csv"):
            assert (tmp_path / name).exists()

    def test_synthetic_sweep_pinned_digests(self, capsys, tmp_path):
        # The 15-cell GBM sweep has no golden file; its four outputs are
        # pinned by sha256 so that any change to its bytes fails here.
        code, _, _ = run_cli(
            capsys, "simulate", "--config", str(FIXTURES / "config_sweep.json"),
            "--out", str(tmp_path),
        )
        assert code == 0
        for name, digest in SWEEP_DIGESTS.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name

    def test_rounding_sites_pinned(self, capsys, tmp_path, monkeypatch):
        # Each ledger_context block is recorded, by the function that opened
        # it, when its arithmetic set the Inexact flag: a new rounding site
        # fails here.
        sites = set()
        ledger_context = core.ledger_context

        @contextmanager
        def recorded(site):
            with ledger_context() as ctx:
                yield ctx
                if ctx.flags[Inexact]:
                    sites.add(site)

        def recording_context():
            caller = sys._getframe(1)
            module = caller.f_globals["__name__"].rsplit(".", 1)[-1]
            return recorded(f"{module}.{caller.f_code.co_name}")

        for module in (cli, core, market, protocol, sim):
            monkeypatch.setattr(module, "ledger_context", recording_context)
        code, _, _ = run_cli(
            capsys, "simulate", "--config", str(FIXTURES / "config_sweep.json"),
            "--out", str(tmp_path),
        )
        assert code == 0
        assert sites == ROUNDING_SITES

    @pytest.mark.parametrize("case", list(OUTCOME_PATH_PINS))
    def test_outcome_path_pinned_digests(self, capsys, tmp_path, case):
        fixture, changes, digests = OUTCOME_PATH_PINS[case]
        config = json.loads((FIXTURES / fixture).read_text())
        config.update(changes)
        # referenced CSVs resolve relative to the config file
        for section in ("path", "events"):
            if "csv" in config[section]:
                config[section]["csv"] = str(FIXTURES / config[section]["csv"])
        (tmp_path / "config.json").write_text(json.dumps(config))
        out = tmp_path / "out"
        code, _, _ = run_cli(
            capsys, "simulate", "--config", str(tmp_path / "config.json"), "--out", str(out)
        )
        assert code == 0
        for name, digest in digests.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name

    def test_same_seed_byte_identical(self, capsys, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            code, _, _ = run_cli(
                capsys, "simulate", "--config", str(FIXTURES / "config_sweep.json"),
                "--out", str(out),
            )
            assert code == 0
        for name in ("report.json", "payoff_table.csv", "metrics.csv", "outcomes.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_override_changes_synthesis(self, capsys, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_cli(capsys, "simulate", "--config", str(FIXTURES / "config_sweep.json"),
                "--out", str(out1))
        run_cli(capsys, "simulate", "--config", str(FIXTURES / "config_sweep.json"),
                "--out", str(out2), "--seed", "999")
        assert (out1 / "report.json").read_bytes() != (out2 / "report.json").read_bytes()

    def test_negative_seed_flag_is_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "simulate", "--config", str(FIXTURES / "config_sweep.json"),
            "--out", str(tmp_path), "--seed", "-5",
        )
        assert code == 2
        assert "--seed" in err
        assert not (tmp_path / "report.json").exists()

    # the file's seed is checked even when --seed replaces it
    @pytest.mark.parametrize("flags", [(), ("--seed", "3")], ids=["no-flag", "seed-flag"])
    def test_negative_config_seed_names_field(self, capsys, tmp_path, flags):
        config = json.loads((FIXTURES / "config_sweep.json").read_text())
        config["seed"] = -5
        (tmp_path / "config.json").write_text(json.dumps(config))
        code, _, err = run_cli(
            capsys, "simulate", "--config", str(tmp_path / "config.json"),
            "--out", str(tmp_path), *flags,
        )
        assert code == 1
        assert err.startswith("error: seed: ")
        assert not (tmp_path / "report.json").exists()

    def test_negative_sigma_override_names_field(self, capsys, tmp_path):
        config = json.loads((FIXTURES / "config_sweep.json").read_text())
        config.update(supporter_gate=True, sigma_override=-0.1)
        (tmp_path / "config.json").write_text(json.dumps(config))
        code, _, err = run_cli(
            capsys, "simulate", "--config", str(tmp_path / "config.json"), "--out", str(tmp_path)
        )
        assert code == 1
        assert err == "error: event 0: volatility must be >= 0; check sigma_override\n"
        assert not (tmp_path / "report.json").exists()

    def test_missing_config_names_path(self, capsys, tmp_path):
        missing = tmp_path / "nope.json"
        code, _, err = run_cli(capsys, "simulate", "--config", str(missing), "--out", str(tmp_path))
        assert code == 1
        assert "nope.json" in err

    @pytest.mark.parametrize(
        "keys, value, names",
        [
            pytest.param(("fsl", "theta"), "1.5", ("fsl", "theta"), id="fsl.theta=1.5"),
            pytest.param(
                ("supporter_gate",), "false", ("supporter_gate",), id="supporter_gate=string"
            ),
            pytest.param(("sweep", "lambdas"), ["abc"], ("sweep.lambdas",), id="lambdas=abc"),
            pytest.param(("sweep", "lambdas"), ["NaN"], ("sweep.lambdas",), id="lambdas=NaN"),
            pytest.param(
                ("sweep", "lambdas"), ["Infinity"], ("sweep.lambdas",), id="lambdas=Infinity"
            ),
            pytest.param(
                ("sweep", "lambdas"), ["0.1", "-1"], ("sweep.lambdas",), id="lambdas=negative"
            ),
            pytest.param(
                ("sweep", "terms_hours"), ["x"], ("sweep.terms_hours",), id="terms_hours=x"
            ),
            pytest.param(
                ("sweep", "terms_hours"), [1, 0.0001], ("sweep.terms_hours",), id="terms_hours=0s"
            ),
            pytest.param(("seed",), "x", ("seed",), id="seed=x"),
            pytest.param(("sold_fraction",), "2", ("sold_fraction",), id="sold_fraction=2"),
            pytest.param(("foreign_rate",), "abc", ("foreign_rate",), id="foreign_rate=abc"),
            pytest.param(("sigma_override",), "abc", ("sigma_override",), id="sigma_override=abc"),
            pytest.param(("fsl", "theta"), "NaN", ("fsl.theta",), id="fsl.theta=NaN"),
            pytest.param(("miqado", "k_re"), "NaN", ("miqado.k_re",), id="k_re=NaN"),
            pytest.param(
                ("pool",),
                {"reserve_quote": "NaN", "reserve_base": "100000"},
                ("pool.reserve_quote",),
                id="pool.reserve_quote=NaN",
            ),
            pytest.param(("miqado", "buffer"), "Infinity", ("miqado.buffer",), id="buffer=Infinity"),
            pytest.param(("sweep", "lambdas"), ["1e400"], ("sweep.lambdas",), id="lambdas=1e400"),
            pytest.param(
                ("sweep", "lambdas"),
                ["1e-999999999"],
                ("sweep.lambdas",),
                id="lambdas=1e-999999999",
            ),
            pytest.param(
                ("miqado", "k_re"), "1e-999999999", ("miqado.k_re",), id="k_re=1e-999999999"
            ),
            pytest.param(("seed",), 5.7, ("seed",), id="seed=5.7"),
            pytest.param(
                ("path",), {"gbm": dict(GBM, steps=2.9)}, ("path.gbm.steps",), id="steps=2.9"
            ),
            pytest.param(
                ("events",),
                {"synthetic": {"count": 2.5}},
                ("events.synthetic.count",),
                id="count=2.5",
            ),
            pytest.param(
                ("sweep", "terms_hours"), [1.0001], ("sweep.terms_hours",), id="terms_hours=1.0001"
            ),
            pytest.param(("sold_fraction",), True, ("sold_fraction",), id="sold_fraction=true"),
            pytest.param(
                ("sweep", "terms_hours"), [True], ("sweep.terms_hours",), id="terms_hours=true"
            ),
            pytest.param(("foreign_rate",), math.nan, ("foreign_rate",), id="foreign_rate=NaN"),
            pytest.param(
                ("foreign_rate",), "Infinity", ("foreign_rate",), id="foreign_rate=Infinity"
            ),
            pytest.param(("unknown_key",), 1, ("unknown_key",), id="unknown_key"),
            pytest.param(("fsl", "extra"), "1", ("fsl.extra",), id="fsl.extra"),
            pytest.param(
                ("miqado", "rescue_above_h"), "1.0", ("miqado.rescue_above_h",), id="rescue_typo"
            ),
            pytest.param(
                ("path",), {"gbm": dict(GBM, mu=1e308)}, ("path.gbm",), id="path.gbm.mu=1e308"
            ),
            pytest.param(
                ("sweep", "lambdas"), ["0.1", "0.10"], ("sweep.lambdas",), id="lambdas=0.1,0.10"
            ),
            pytest.param(
                ("sweep", "terms_hours"),
                [1, 1.0],
                ("sweep.terms_hours",),
                id="terms_hours=1,1.0",
            ),
            pytest.param(
                ("path",),
                {"gbm": dict(GBM, steps=1_000_001)},
                ("path.gbm", "steps"),
                id="steps=1000001",
            ),
            pytest.param(
                ("events",),
                {"synthetic": {"count": 100_001}},
                ("events.synthetic", "count"),
                id="count=100001",
            ),
            pytest.param(
                ("events",),
                {"synthetic": {"count": -1}},
                ("events.synthetic", "count"),
                id="count=-1",
            ),
            pytest.param(("schema_version",), 2, ("schema_version",), id="schema_version=2"),
            pytest.param(
                ("path",),
                {"csv": "path_hand.csv", "gbm": GBM},
                ("path", "'csv' or 'gbm'"),
                id="path=both",
            ),
            pytest.param(("path",), {}, ("path", "'csv' or 'gbm'"), id="path=neither"),
            pytest.param(
                ("events",),
                {"csv": "events_hand.csv", "synthetic": {"count": 1}},
                ("events", "'csv' or 'synthetic'"),
                id="events=both",
            ),
            pytest.param(
                ("events",), {}, ("events", "'csv' or 'synthetic'"), id="events=neither"
            ),
            pytest.param(
                ("path",), {"gbm": dict(GBM, seed=-1)}, ("path.gbm", "seed"), id="gbm.seed=-1"
            ),
        ],
    )
    def test_invalid_config_names_field(self, capsys, tmp_path, keys, value, names):
        bad = tmp_path / "bad.json"
        config = json.loads((FIXTURES / "config_hand.json").read_text())
        target = config
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        bad.write_text(json.dumps(config))
        # referenced CSVs resolve relative to the config file
        (tmp_path / "path_hand.csv").write_text((FIXTURES / "path_hand.csv").read_text())
        (tmp_path / "events_hand.csv").write_text((FIXTURES / "events_hand.csv").read_text())
        code, _, err = run_cli(capsys, "simulate", "--config", str(bad), "--out", str(tmp_path))
        assert code == 1
        assert all(name in err for name in names)
        assert not (tmp_path / "report.json").exists()

    def test_malformed_json_names_config(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema_version": 1,')
        code, _, err = run_cli(capsys, "simulate", "--config", str(bad), "--out", str(tmp_path))
        assert code == 1
        assert "config: malformed JSON" in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "synthetic, gbm, code, names",
        [
            # Both band ends underflow the float draw, which rounds to 0.
            pytest.param({"hf_band": ["1e-900", "2e-900"]}, {}, 0, (), id="hf_band=1e-900"),
            # 23 hourly steps end before the longest term, 24 h, matures.
            pytest.param(
                {}, {"steps": 23}, 1, ("events.synthetic", "path too short"), id="path=23h"
            ),
        ],
    )
    def test_synthetic_edge_exits_cleanly(self, capsys, tmp_path, synthetic, gbm, code, names):
        config = json.loads((FIXTURES / "config_sweep.json").read_text())
        config["events"]["synthetic"].update(synthetic, count=5)
        config["path"]["gbm"].update(gbm)
        (tmp_path / "config.json").write_text(json.dumps(config))
        got, _, err = run_cli(
            capsys, "simulate", "--config", str(tmp_path / "config.json"),
            "--out", str(tmp_path / "out"),
        )
        assert got == code
        assert all(name in err for name in names)
        assert "Traceback" not in err

    def test_out_under_a_file_is_runtime_error(self, capsys, tmp_path):
        (tmp_path / "file").write_text("")
        code, out, err = run_cli(
            capsys, "simulate", "--config", str(FIXTURES / "config_hand.json"),
            "--out", str(tmp_path / "file" / "out"),
        )
        assert code == 1
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert out == ""

    def test_config_that_is_not_an_object_is_named(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        code, _, err = run_cli(capsys, "simulate", "--config", str(bad), "--out", str(tmp_path))
        assert code == 1
        assert "config" in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("style", ["omitted", "explicit"])
    def test_optional_fields_take_documented_defaults(self, capsys, tmp_path, style):
        config = json.loads((FIXTURES / "config_sweep.json").read_text())
        if style == "omitted":
            del config["foreign_rate"], config["miqado"]["buffer"], config["pool"]["fee"]
            del config["events"]["synthetic"]["collateral"]
            del config["events"]["synthetic"]["borrow_rate"]
        else:
            config.update(foreign_rate=0, sigma_override=None)
            config["miqado"].update(buffer="0", rescue_above_hf=None)
            config["path"]["gbm"].update(seed=101, start_ts=0)
            config["events"]["synthetic"].update(
                seed=102, hf_band=["0.90", "0.9999"], collateral="1", borrow_rate="0.05"
            )
            config["pool"]["fee"] = "0.003"
        (tmp_path / "config.json").write_text(json.dumps(config))
        out = tmp_path / "out"
        code, _, _ = run_cli(
            capsys, "simulate", "--config", str(tmp_path / "config.json"), "--out", str(out)
        )
        assert code == 0
        for name, digest in SWEEP_DIGESTS.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name

    def test_readme_example_loads(self, tmp_path):
        example = README.read_text().split("```json\n", 1)[1].split("```", 1)[0]
        (tmp_path / "config.json").write_text(example)
        config = load_config(tmp_path / "config.json")
        assert config.regime is Regime.HYBRID
        assert config.sweep_terms_seconds == [3600, 6 * 3600, 24 * 3600]
        assert len(config.events) == 50

    def test_missing_sweep_field_named(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        config = json.loads((FIXTURES / "config_hand.json").read_text())
        del config["sweep"]
        bad.write_text(json.dumps(config))
        code, _, err = run_cli(capsys, "simulate", "--config", str(bad), "--out", str(tmp_path))
        assert code == 1
        assert "sweep" in err


class TestAnalyze:
    # analyze sums the per-event releases that outcomes.csv has already
    # rounded to 18 places, so its total may drift from the sum of the
    # cells' totals by half a quantum per row and per cell. The hand
    # fixture's values need no rounding.
    @pytest.mark.parametrize(
        "config_name, grid, slack",
        [
            pytest.param("config_hand.json", None, 0, id="hand"),
            pytest.param("config_sweep.json", None, Decimal("0.5e-18"), id="sweep"),
            # Both tables are ordered by term, then premium factor, whatever
            # the order of the config's grid.
            pytest.param(
                "config_sweep.json",
                {"lambdas": ["0.20", "0.01", "0.05"], "terms_hours": [24, 1]},
                Decimal("0.5e-18"),
                id="sweep-unsorted-grid",
            ),
        ],
    )
    def test_recomputes_simulate_outputs(self, capsys, tmp_path, config_name, grid, slack):
        config = FIXTURES / config_name
        if grid is not None:
            raw = json.loads(config.read_text())
            raw["sweep"] = grid
            config = tmp_path / "config.json"
            config.write_text(json.dumps(raw))
        run_cli(capsys, "simulate", "--config", str(config), "--out", str(tmp_path))
        events = load_config(config).events
        (tmp_path / "events.csv").write_text(serialize_events_csv(events))
        code, out, _ = run_cli(
            capsys, "analyze",
            "--events", str(tmp_path / "events.csv"),
            "--outcomes", str(tmp_path / "outcomes.csv"),
        )
        assert code == 0
        summary = json.loads(out)
        report = json.loads((tmp_path / "report.json").read_text())
        cells = [cell["report"] for cell in report["cells"]]

        def total(key):
            return sum((Decimal(cell[key]) for cell in cells), Decimal(0))

        assert summary["payoff_table"] == report["payoff_table"]
        assert Decimal(summary["collateral_restraint_usd"]) == total("collateral_restraint_usd")
        drift = Decimal(summary["collateral_release_usd"]) - total("collateral_release_usd")
        assert abs(drift) <= (len(events) * len(cells) + len(cells)) * slack
        assert summary["n_events"] == len(events)

    @pytest.mark.parametrize(
        "name, column, value",
        [
            pytest.param("outcomes.csv", "supporter_payoff", "", id="blank_payoff"),
            pytest.param("outcomes.csv", "outcome_class", "bogus_class", id="bogus_class"),
            *(
                pytest.param("outcomes.csv", column, value, id=f"{column}={value}")
                for column in (
                    "premium_factor", "supporter_payoff", "premium_value", "release_usd",
                    "restraint_usd", "price_decline",
                )
                for value in ("NaN", "Infinity", "sNaN")
            ),
            pytest.param(
                "outcomes.csv", "release_usd", "1E100000000000000000", id="release_usd=1E+1e17"
            ),
            pytest.param("outcomes.csv", "event_index", str(2**63), id="event_index=2**63"),
            pytest.param(
                "outcomes.csv", "term_seconds", str(-(2**63) - 1), id="term_seconds=-2**63-1"
            ),
            pytest.param("events.csv", "path_offset", "9" * 400, id="path_offset=400-digits"),
            pytest.param("events.csv", "path_offset", "-1", id="path_offset=-1"),
            pytest.param("path_hand.csv", "timestamp", "9" * 400, id="timestamp=400-digits"),
            pytest.param("outcomes.csv", "position_id", b"\xff", id="outcomes.csv=0xff"),
            pytest.param("events.csv", "position_id", b"\xff", id="events.csv=0xff"),
            pytest.param("path_hand.csv", "price", b"\xff", id="path.csv=0xff"),
        ],
    )
    def test_malformed_outcome_row_names_line(self, capsys, tmp_path, name, column, value):
        # One cell of one row is replaced: in the exercise_profit row of
        # outcomes.csv (read by analyze), or in the third line of events.csv
        # (analyze) or of the price path (simulate).
        config = FIXTURES / "config_hand.json"
        run_cli(capsys, "simulate", "--config", str(config), "--out", str(tmp_path))
        (tmp_path / "events.csv").write_text(serialize_events_csv(load_config(config).events))
        for fixture in ("config_hand.json", "path_hand.csv", "events_hand.csv"):
            (tmp_path / fixture).write_bytes((FIXTURES / fixture).read_bytes())
        target = tmp_path / name
        lines = target.read_bytes().splitlines()
        index = 2
        if name == "outcomes.csv":
            index = next(i for i, line in enumerate(lines) if b",exercise_profit," in line)
        parts = lines[index].split(b",")
        parts[lines[0].decode().split(",").index(column)] = (
            value if isinstance(value, bytes) else value.encode()
        )
        lines[index] = b",".join(parts)
        target.write_bytes(b"\n".join(lines) + b"\n")
        if name == "path_hand.csv":
            argv = ["simulate", "--config", str(tmp_path / "config_hand.json"),
                    "--out", str(tmp_path / "out")]
        else:
            argv = ["analyze", "--events", str(tmp_path / "events.csv"),
                    "--outcomes", str(tmp_path / "outcomes.csv")]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert f"line {index + 1}" in err
        assert "Traceback" not in err
        assert out == ""

    def test_missing_file_is_runtime_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "analyze", "--events", str(tmp_path / "x.csv"),
            "--outcomes", str(tmp_path / "y.csv"),
        )
        assert code == 1
        assert "x.csv" in err


def _field_paths(value, prefix=()):
    """The path of every field nested in a JSON value, lists included."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _field_paths(child, prefix + (key,))


HAND_CONFIG = json.loads((FIXTURES / "config_hand.json").read_text())

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=5,
)


class TestConfigFuzz:
    @settings(max_examples=75, deadline=None)
    @given(field=st.sampled_from(list(_field_paths(HAND_CONFIG))), value=json_values)
    def test_any_field_value_exits_0_or_1(self, field, value):
        config = json.loads(json.dumps(HAND_CONFIG))
        target = config
        for key in field[:-1]:
            target = target[key]
        target[field[-1]] = value
        with tempfile.TemporaryDirectory() as tmp:
            tmp_dir = Path(tmp)
            for name in ("path_hand.csv", "events_hand.csv"):
                (tmp_dir / name).write_text((FIXTURES / name).read_text())
            (tmp_dir / "config.json").write_text(json.dumps(config))
            code = main(["simulate", "--config", str(tmp_dir / "config.json"),
                         "--out", str(tmp_dir / "out")])
        assert code in (0, 1)


def _hand_csv_inputs() -> dict[str, bytes]:
    """The hand fixture's two CSV inputs and the outcomes.csv it yields."""
    config = load_config(FIXTURES / "config_hand.json")
    sweep = run_sweep(config, config.sweep_lambdas, config.sweep_terms_seconds)
    outcomes = serialize_outcomes_csv([row for _, _, rep in sweep.cells for row in rep.results])
    return {
        "path_hand.csv": (FIXTURES / "path_hand.csv").read_bytes(),
        "events_hand.csv": (FIXTURES / "events_hand.csv").read_bytes(),
        "outcomes.csv": outcomes.encode(),
    }


HAND_CSV = _hand_csv_inputs()
CSV_LOADERS = {
    "path_hand.csv": load_price_csv,
    "events_hand.csv": load_events_csv,
    "outcomes.csv": load_outcomes_csv,
}

#: Replacement text: arbitrary bytes, arbitrary UTF-8 text, and numerals
#: with any exponent, NaN and infinities.
csv_values = (
    st.binary(max_size=8)
    | st.text(max_size=8).map(str.encode)
    | st.from_regex(
        r"[-+]?([0-9]{1,3}(\.[0-9]{0,3})?([eE][-+]?[0-9]{1,7})?|s?NaN|Inf(inity)?)",
        fullmatch=True,
    ).map(str.encode)
)


@st.composite
def csv_edits(draw):
    """One hand CSV input with one field, one whole line, or a run of up to
    eight bytes replaced."""
    name = draw(st.sampled_from(sorted(HAND_CSV)))
    data, new = HAND_CSV[name], draw(csv_values)
    how = draw(st.sampled_from(["field", "line", "bytes"]))
    if how == "bytes":
        start = draw(st.integers(0, len(data)))
        end = draw(st.integers(start, min(len(data), start + 8)))
        return name, data[:start] + new + data[end:]
    lines = data.split(b"\n")
    i = draw(st.integers(0, len(lines) - 1))
    if how == "line":
        lines[i] = new
    else:
        cells = lines[i].split(b",")
        cells[draw(st.integers(0, len(cells) - 1))] = new
        lines[i] = b",".join(cells)
    return name, b"\n".join(lines)


class TestCsvFuzz:
    @settings(max_examples=75, deadline=None)
    @given(edit=csv_edits())
    def test_any_edit_loads_or_is_a_csv_format_error(self, edit):
        name, data = edit
        try:
            CSV_LOADERS[name](data)
            rejected = False
        except CsvFormatError:
            rejected = True
        with tempfile.TemporaryDirectory() as tmp:
            tmp_dir = Path(tmp)
            for fixture, blob in HAND_CSV.items():
                (tmp_dir / fixture).write_bytes(data if fixture == name else blob)
            (tmp_dir / "config.json").write_text(json.dumps(HAND_CONFIG))
            if name == "outcomes.csv":
                argv = ["analyze", "--events", str(tmp_dir / "events_hand.csv"),
                        "--outcomes", str(tmp_dir / "outcomes.csv")]
            else:
                argv = ["simulate", "--config", str(tmp_dir / "config.json"),
                        "--out", str(tmp_dir / "out")]
            code = main(argv)
        assert code == 1 if rejected else code in (0, 1)


#: Flag values: the repr of any float, numerals with any exponent, and
#: short text. Each is passed as `--flag=value`, so text that starts with
#: a dash is still a value.
flag_values = (
    st.floats().map(repr)
    | st.from_regex(r"[-+]?[0-9]{1,3}(\.[0-9]{0,3})?([eE][-+]?[0-9]{1,9})?", fullmatch=True)
    | st.text(max_size=6)
)
#: Steps stay at 1,000 or fewer: a run at the cap would draw a million
#: normals, and the cap+1 case is covered by TestGbm.
FLAGS = {
    "price": dict.fromkeys(
        ("--spot", "--strike", "--rate", "--foreign-rate", "--sigma", "--term", "--collateral"),
        flag_values,
    ),
    "gbm": {
        **dict.fromkeys(("--p0", "--mu", "--sigma", "--dt"), flag_values),
        "--steps": st.integers(max_value=1000).map(str) | st.text(max_size=4),
        "--seed": st.integers().map(str) | flag_values,
        "--start-ts": st.integers().map(str) | flag_values,
    },
}
VALID_FLAGS = {
    "price": {"--spot": "100", "--strike": "95", "--sigma": "0.2", "--term": "0.25"},
    "gbm": {"--p0": "100", "--sigma": "0.5", "--dt": "0.001", "--steps": "5"},
}


@st.composite
def flag_sets(draw):
    """A valid `price` or `gbm` command line with some of its flags set to
    drawn values."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    names = draw(st.lists(st.sampled_from(sorted(FLAGS[command])), min_size=1, unique=True))
    flags = dict(VALID_FLAGS[command], **{name: draw(FLAGS[command][name]) for name in names})
    return [command, *(f"{name}={value}" for name, value in flags.items())]


class TestFlagFuzz:
    @settings(max_examples=50, deadline=None)
    @given(argv=flag_sets())
    def test_any_flag_value_exits_0_1_or_2(self, argv):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejected a flag
            code = exc.code
        assert code in (0, 1, 2)


class TestEntryPoint:
    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "miqado.cli", "price", "--spot", "120",
             "--strike", "100", "--sigma", "0", "--term", "1"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert "call_price 20" in result.stdout

    def test_runs_without_numpy_or_scipy(self, tmp_path):
        # The runtime needs only the standard library: importing the CLI
        # loads neither library, and a sweep with both imports blocked
        # (a None entry in sys.modules makes `import` raise) still writes
        # the pinned bytes.
        script = (
            "import json, sys\n"
            "import miqado.cli\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy'))\n"
            "sys.modules['numpy'] = sys.modules['scipy'] = None\n"
            "code = miqado.cli.main(['simulate', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
            "print(json.dumps({'loaded': loaded, 'code': code}))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script, str(FIXTURES / "config_sweep.json"), str(tmp_path)],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout.splitlines()[-1]) == {"loaded": [], "code": 0}
        for name, digest in SWEEP_DIGESTS.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
