"""Command-line workflow and report emission."""

import json

import numpy as np
import pytest
from conftest import inputless_accounts

from demandgap.cli import main
from demandgap.fixtures import toy_accounts
from demandgap.niot import NiotTable, serialize_niot

HEADER = (
    "industry_index,industry_name,X_1,X_2,final_consumption,"
    "gcf_inventory,export,import,gross_output"
)


@pytest.fixture
def toy_table(tmp_path):
    table = tmp_path / "toy.csv"
    table.write_text(
        HEADER
        + "\n1,Alpha,10,20,40,10,20,5,100\n2,Beta,30,10,25,5,10,15,100\n"
    )
    (tmp_path / "meta.csv").write_text("country,year,currency\nTOY,2010,MUAH\n")
    return table


class TestAnalyze:
    def test_exit_zero_and_files(self, toy_table, tmp_path, capsys):
        out = tmp_path / "reports"
        code = main(["analyze", str(toy_table), "--out", str(out), "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == [
            "country", "year", "pi", "D", "S", "deficit", "recession_set",
            "r", "gdp", "rankings", "diagnostics",
        ]
        assert payload["country"] == "TOY"
        assert payload["recession_set"] == [2]
        assert payload["r"] == pytest.approx(13.75 / 130.0, abs=1e-6)
        for suffix in ("report.json", "deficit.csv", "histogram.csv"):
            assert (out / f"TOY_2010_{suffix}").exists()

    def test_reports_are_byte_identical(self, toy_table, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["analyze", str(toy_table), "--out", str(out1)]) == 0
        assert main(["analyze", str(toy_table), "--out", str(out2)]) == 0
        for suffix in ("report.json", "deficit.csv", "histogram.csv"):
            assert (out1 / f"TOY_2010_{suffix}").read_bytes() == (
                out2 / f"TOY_2010_{suffix}"
            ).read_bytes()

    def test_histogram_supply_sum_check(self, toy_table, tmp_path):
        out = tmp_path / "reports"
        main(["analyze", str(toy_table), "--out", str(out)])
        lines = (out / "TOY_2010_histogram.csv").read_text().strip().splitlines()
        supply = sum(float(line.split(",")[2]) for line in lines[1:])
        acc = toy_accounts()
        assert supply == pytest.approx(float(acc.Xout.sum() + acc.Imp.sum()), rel=1e-6)

    def test_pi_override_changes_demand(self, toy_table, tmp_path, capsys):
        main(["analyze", str(toy_table), "--out", str(tmp_path / "x"), "--format", "json"])
        base = json.loads(capsys.readouterr().out)
        main([
            "analyze", str(toy_table), "--out", str(tmp_path / "y"),
            "--format", "json", "--pi", "0.5",
        ])
        halved = json.loads(capsys.readouterr().out)
        assert halved["pi"] == [0.5, 0.5]
        assert halved["D"] != base["D"]
        # the balance identity survives any pi (up to 6-digit report rounding)
        assert sum(halved["D"]) == pytest.approx(sum(halved["S"]), rel=1e-4)

    def test_aggregate_option(self, toy_table, tmp_path, capsys):
        blocks = tmp_path / "map.txt"
        blocks.write_text("1,2\n")
        code = main([
            "analyze", str(toy_table), "--out", str(tmp_path / "agg"),
            "--format", "json", "--aggregate", str(blocks),
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["D"]) == 1
        assert payload["recession_set"] == []  # merged market clears

    def test_tol_widens_the_recession_cut(self, toy_table, tmp_path, capsys):
        # the shortfall of industry 2 (13.75) is inside 0.5 * max(1, S_2)
        argv = ["analyze", str(toy_table), "--out", str(tmp_path / "o"), "--format", "json"]
        assert main(argv) == 0
        strict = json.loads(capsys.readouterr().out)
        assert strict["recession_set"] == [2] and strict["r"] > 0
        assert main(argv + ["--tol", "0.5"]) == 0
        wide = json.loads(capsys.readouterr().out)
        assert wide["recession_set"] == []
        assert wide["r"] == 0.0
        assert wide["rankings"] == {"sensitive": [], "contributing": []}

    def test_negative_top_exit_code(self, toy_table, tmp_path, capsys):
        out = tmp_path / "neg"
        assert main(["analyze", str(toy_table), "--out", str(out), "--top", "-1"]) == 3
        assert "nonnegative" in capsys.readouterr().err
        assert not out.exists()
        argv = ["analyze", str(toy_table), "--out", str(tmp_path / "zero"), "--format", "json"]
        assert main(argv + ["--top", "0"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["recession_set"] == [2]
        assert report["rankings"] == {"sensitive": [], "contributing": []}

    def test_schema_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,table\n")
        assert main(["analyze", str(bad)]) == 2

    def test_bad_pi_length_exit_code(self, toy_table, tmp_path):
        pi_file = tmp_path / "pi.csv"
        pi_file.write_text("0.5,0.5,0.5\n")
        code = main([
            "analyze", str(toy_table), "--out", str(tmp_path / "z"),
            "--pi", str(pi_file),
        ])
        assert code == 3

    def test_bad_pi_length_after_aggregation_exit_code(self, toy_table, tmp_path):
        blocks = tmp_path / "map.txt"
        blocks.write_text("1,2\n")
        pi_file = tmp_path / "pi.csv"
        pi_file.write_text("0.5,0.5\n")  # one entry per original industry, not per block
        code = main([
            "analyze", str(toy_table), "--out", str(tmp_path / "z"),
            "--aggregate", str(blocks), "--pi", str(pi_file),
        ])
        assert code == 3


@pytest.mark.parametrize("aggregate", [False, True], ids=["table", "aggregated"])
@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--pi", "1.5", "pi entries must lie in [0, 1]"),
        ("--pi", "nan", "pi entries must lie in [0, 1]"),
        ("--tol", "0", "tol must be positive"),
        ("--tol", "nan", "tol must be positive"),
        ("--tol", "inf", "tol must be finite and nonnegative, got inf"),
    ],
)
@pytest.mark.parametrize("command", ["analyze", "equilibrium"])
def test_bad_run_setting_exits_three(
    command, flag, value, message, aggregate, toy_table, tmp_path, capsys
):
    argv = [command, str(toy_table), "--out", str(tmp_path / "out"), flag, value]
    if aggregate:
        blocks = tmp_path / "map.txt"
        blocks.write_text("1,2\n")
        argv += ["--aggregate", str(blocks)]
    assert main(argv) == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_bad_table_is_reported_before_bad_pi(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,table\n")
    assert main(["analyze", str(bad), "--pi", "1.5", "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("schema error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "{table}", "--out", "{out}", "--seed", "5"],
        ["analyze", "{table}", "--out", "{out}", "--format", "xml"],
        ["equilibrium", "{table}", "--out", "{out}", "--top", "1"],
        ["equilibrium", "{table}", "--out", "{out}", "--seed", "5"],
        ["equilibrium", "{table}", "--out", "{out}", "--format", "csv"],
        ["demo", "E1", "--top", "1"],
        ["demo", "E1", "--pi", "0.5"],
        ["demo", "E1", "--tol", "1e-6"],
        ["demo", "E1", "--aggregate", "map.txt"],
        ["demo", "E1", "--out", "reports"],
        ["demo", "E1", "--format", "csv"],
    ],
)
def test_unread_flag_is_an_error(argv, toy_table, tmp_path):
    with pytest.raises(SystemExit) as exit_info:
        main([a.format(table=toy_table, out=tmp_path / "out") for a in argv])
    assert exit_info.value.code == 2
    assert not (tmp_path / "out").exists()


class TestEquilibrium:
    def test_uncertified_exit_four(self, toy_table, tmp_path, capsys):
        out = tmp_path / "eq"
        code = main([
            "equilibrium", str(toy_table), "--out", str(out), "--format", "json",
        ])
        assert code == 4
        payload = json.loads(capsys.readouterr().out)
        assert payload["certified"] is False
        assert "rho" in payload
        assert payload["violated"] == [0]
        assert (out / "TOY_2010_equilibrium.json").exists()

    def test_balanced_autarky_clears_in_value_form(self, tmp_path, capsys):
        # one industry, inputs 3, consumption 7, output 10, no trade
        table = tmp_path / "aut.csv"
        table.write_text(
            "industry_index,industry_name,X_1,final_consumption,"
            "gcf_inventory,export,import,gross_output\n"
            "1,Only,3,7,0,0,0,10\n"
        )
        (tmp_path / "meta.csv").write_text("country,year,currency\nAUT,2000,u\n")
        code = main([
            "equilibrium", str(table), "--out", str(tmp_path / "o"), "--format", "json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert payload["violated"] == []
        assert payload["value_residual"] == [0.0]
        # certification still depends on the spectral radius, not the verdict
        assert code in (0, 4)


    def test_inputless_industry_exits_three(self, tmp_path, capsys):
        acc = inputless_accounts()
        m = acc.m
        table = tmp_path / "inputless.csv"
        serialize_niot(
            NiotTable(
                country="INL", year=2000, currency="u",
                indices=tuple(range(1, m + 1)), names=("",) * m,
                X=acc.X, fc=acc.Cf, gcf=np.zeros(m), E=acc.E, Imp=acc.Imp, Xout=acc.Xout,
            ),
            table,
        )
        pi = tmp_path / "pi.csv"
        pi.write_text("\n".join(repr(float(v)) for v in acc.pi) + "\n")
        with pytest.warns(RuntimeWarning, match=r"positions \[2\] buy no inputs"):
            code = main(["equilibrium", str(table), "--pi", str(pi), "--out", str(tmp_path / "o")])
        assert code == 3
        assert "pi at positions [2]" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestDemo:
    def test_e1_fixture(self, capsys):
        assert main(["demo", "E1", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["is_equilibrium"] is True
        assert payload["certificate_ok"] is True
        assert payload["real_money_value"] == pytest.approx(0.5)

    def test_e2_fixture_shows_family(self, capsys):
        assert main(["demo", "E2", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["transformed_B"] == [[1.0, 1.0], [1.0, 0.0]]
        assert all(step["is_equilibrium"] for step in payload["free_price_family"])
        assert payload["money_value_range"] == [0.0, 2.5]

    def test_random_fixture_deterministic(self, capsys):
        spec = "random:seed=42,n=4,l=3,I=2"
        assert main(["demo", spec, "--format", "json"]) == 0
        first = capsys.readouterr().out
        assert main(["demo", spec, "--format", "json"]) == 0
        assert capsys.readouterr().out == first
        assert json.loads(first)["all_checks_pass"] is True

    def test_seed_zero_overrides_fixture_seed(self, capsys):
        assert main(["demo", "random:seed=42", "--seed", "0", "--format", "json"]) == 0
        overridden = json.loads(capsys.readouterr().out)
        assert overridden["seed"] == 0
        assert main(["demo", "random:seed=0", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == overridden

    def test_unknown_fixture_exit_code(self, capsys):
        assert main(["demo", "E3"]) == 3
