"""Command-line workflow and report emission."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import inputless_accounts
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_map_that_repeats_an_industry_exits_three(self, toy_table, tmp_path, capsys):
        # "1,1" once summed industry 1 twice and dropped industry 2: S = [210]
        blocks = tmp_path / "map.txt"
        blocks.write_text("1,1\n")
        out = tmp_path / "o"
        assert main(["analyze", str(toy_table), "--out", str(out), "--aggregate", str(blocks)]) == 3
        assert capsys.readouterr().err == "error: aggregation block repeats an index\n"
        assert not out.exists()


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

    @pytest.mark.parametrize("command", ["analyze", "equilibrium"])
    def test_overflowing_demand_exits_three(self, command, tmp_path, capsys):
        # household demand Cf * income overflows, so D is not finite; the
        # value check once wrote "value_residual": [NaN, NaN], "violated": []
        table = tmp_path / "huge.csv"
        table.write_text(HEADER + "\n1,A,1,1,1e308,0,1,1,1\n2,B,1,1,1e308,0,1,1,1\n")
        (tmp_path / "meta.csv").write_text("country,year,currency\nHUG,2000,u\n")
        code = main([command, str(table), "--pi", "0.5", "--out", str(tmp_path / "o")])
        assert code == 3
        assert _one_line(capsys.readouterr().err) == "error: D must be finite"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["analyze", "equilibrium"])
    def test_overflowing_aggregate_exits_three(self, command, tmp_path, capsys):
        # the merged X = 2e308 once printed numpy's "overflow encountered in
        # reduce" and then "error: X must be finite", about an X never written
        table = tmp_path / "huge.csv"
        table.write_text(HEADER + "\n1,A,1e308,0,1,0,1,1,1e308\n2,B,0,1e308,1,0,1,1,1e308\n")
        (tmp_path / "meta.csv").write_text("country,year,currency\nHUG,2000,u\n")
        blocks = tmp_path / "map.txt"
        blocks.write_text("1,2\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, str(table), "--aggregate", str(blocks), "--out", str(tmp_path / "o")])
        assert code == 3
        assert _one_line(capsys.readouterr().err) == "error: aggregated data must be finite"
        assert not (tmp_path / "o").exists()

    def test_share_too_small_to_divide_by_exits_three(self, toy_table, tmp_path, capsys):
        pi = tmp_path / "pi.csv"
        pi.write_text("1e-310,1.0\n")
        code = main(["equilibrium", str(toy_table), "--pi", str(pi), "--out", str(tmp_path / "o")])
        assert code == 3
        assert _one_line(capsys.readouterr().err) == (
            "error: zero denominator: pi at positions [0] "
            "(taxation shares too small: dividing by them can overflow)"
        )
        assert not (tmp_path / "o").exists()


def test_warning_prints_as_one_line(tmp_path):
    # a fresh process, as a user runs it: the default warning format would
    # name the frame <frozen runpy> and echo a source line
    table = tmp_path / "toy.csv"
    table.write_text(HEADER + "\n1,Alpha,10,20,40,10,20,5,100\n2,Beta,30,10,25,5,10,15,100\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "demandgap.cli", "analyze", "toy.csv", "--out", "o"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stderr == (
        "warning: no meta.csv beside toy.csv: country XXX and year 0, "
        "so reports are named XXX_0_*\n"
    )


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

    def test_blank_random_token_is_skipped(self, capsys):
        assert main(["demo", "random:seed=42,,n=5", "--format", "json"]) == 0
        blank = capsys.readouterr().out
        assert main(["demo", "random:seed=42,n=5", "--format", "json"]) == 0
        assert capsys.readouterr().out == blank

    def test_seed_zero_overrides_fixture_seed(self, capsys):
        assert main(["demo", "random:seed=42", "--seed", "0", "--format", "json"]) == 0
        overridden = json.loads(capsys.readouterr().out)
        assert overridden["seed"] == 0
        assert main(["demo", "random:seed=0", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == overridden

    def test_unknown_fixture_exit_code(self, capsys):
        assert main(["demo", "E3"]) == 3

    @pytest.mark.parametrize("spec", ["random:sed=5", "random:seed=5,m=3", "random:seed=5,n"])
    def test_unknown_random_key_exit_code(self, spec, capsys):
        assert main(["demo", spec]) == 3
        assert capsys.readouterr().err == (
            f"error: unknown fixture {spec!r}; try E1, E2 or random:...\n"
        )

    @pytest.mark.parametrize("fixture", ["E1", "E2"])
    def test_seed_of_a_fixed_fixture_exit_code(self, fixture, capsys):
        assert main(["demo", fixture, "--seed", "7"]) == 3
        captured = capsys.readouterr()
        assert captured.err == f"error: fixture {fixture} takes no seed\n"
        assert captured.out == ""


def _one_line(err: str) -> str:
    """The only line of ``err`` (a fault is one line, never a traceback)."""
    lines = err.splitlines()
    assert len(lines) == 1, err
    return lines[0]


# The four input files of a run, by file name, and the bytes a mutation puts in.
TOY_FILES = {
    "toy.csv": (HEADER + "\n1,Alpha,10,20,40,10,20,5,100\n2,Beta,30,10,25,5,10,15,100\n").encode(),
    "meta.csv": b"country,year,currency\nTOY,2010,MUAH\n",
    "pi.csv": b"0.5,0.25\n",
    "map.txt": b"# identity\n1\n2\n",
}
NOISE = [b"\x00", b"\xff", b'"', b"/", b"#", b"\n", b"\r", b",", b".", b"-", b"9", b"e"]


@pytest.fixture
def inputs(tmp_path):
    """A folder holding the four toy input files."""
    for name, data in TOY_FILES.items():
        (tmp_path / name).write_bytes(data)
    return tmp_path


def _argv(command, folder, out):
    return [
        command, str(folder / "toy.csv"), "--out", str(out),
        "--pi", str(folder / "pi.csv"), "--aggregate", str(folder / "map.txt"),
    ]


class TestFileFaults:
    """Every input-file fault exits 2 with one schema error line, and an
    unwritable --out exits 3 with one error line and writes no report."""

    @pytest.mark.parametrize(
        "name, what",
        [("toy.csv", ""), ("meta.csv", ""), ("pi.csv", "pi file "), ("map.txt", "map file ")],
    )
    @pytest.mark.parametrize("command", ["analyze", "equilibrium"])
    def test_undecodable_bytes(self, command, name, what, inputs, tmp_path, capsys):
        path = inputs / name
        path.write_bytes(path.read_bytes() + b"\xff\n")
        assert main(_argv(command, inputs, tmp_path / "out")) == 2
        assert _one_line(capsys.readouterr().err).startswith(
            f"schema error: schema error at file: cannot read {what}{path}: "
            "'utf-8' codec can't decode byte 0xff"
        )
        assert not (tmp_path / "out").exists()

    def test_over_long_cell(self, inputs, tmp_path, capsys):
        table = inputs / "toy.csv"
        table.write_text(table.read_text().replace("Alpha", "A" * (1 << 18)))
        assert main(_argv("analyze", inputs, tmp_path / "out")) == 2
        assert _one_line(capsys.readouterr().err) == (
            f"schema error: schema error at file: cannot read {table}: "
            "field larger than field limit (131072)"
        )

    def test_meta_is_a_directory(self, inputs, tmp_path, capsys):
        meta = inputs / "meta.csv"
        meta.unlink()
        meta.mkdir()
        assert main(_argv("analyze", inputs, tmp_path / "out")) == 2
        assert _one_line(capsys.readouterr().err) == (
            f"schema error: schema error at file: cannot read {meta}: "
            f"[Errno 21] Is a directory: '{meta}'"
        )

    @pytest.mark.parametrize("row", ["TOY,2010", "../x,2010,MUAH", "A/B,2010,MUAH", "T\0Y,2010,MUAH"])
    def test_bad_meta_row(self, row, inputs, tmp_path, capsys):
        (inputs / "meta.csv").write_text(f"country,year,currency\n{row}\n")
        out = tmp_path / "deep" / "out"
        assert main(_argv("analyze", inputs, out)) == 2
        assert _one_line(capsys.readouterr().err).startswith("schema error: schema error at row 1")
        assert not (tmp_path / "deep").exists()

    @pytest.mark.parametrize("command", ["analyze", "equilibrium"])
    def test_out_names_a_file(self, command, inputs, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        assert main(_argv(command, inputs, out)) == 3
        assert _one_line(capsys.readouterr().err) == (
            f"error: [Errno 17] File exists: '{out}'"
        )
        assert out.read_text() == ""

    @pytest.mark.parametrize(
        "taken, existing",
        [
            ("TOY_2010_deficit.csv", {}),
            ("TOY_2010_deficit.csv", {"TOY_2010_report.json": "old\n", "TOY_2010_histogram.csv": ""}),
            (".TOY_2010_histogram.csv.tmp", {"TOY_2010_report.json": "old\n"}),
        ],
    )
    def test_failed_write_leaves_no_file(self, taken, existing, inputs, tmp_path, capsys):
        # a directory where a report (or its temporary) goes makes one write fail
        out = tmp_path / "out"
        (out / taken).mkdir(parents=True)
        for name, text in existing.items():
            (out / name).write_text(text)
        assert main([*_argv("analyze", inputs, out), "--format", "json"]) == 3
        captured = capsys.readouterr()
        assert _one_line(captured.err) == f"error: [Errno 21] Is a directory: '{out / taken}'"
        assert captured.out == ""
        assert sorted(f.name for f in out.iterdir()) == sorted([taken, *existing])
        for name, text in existing.items():
            assert (out / name).read_text() == text


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_each_report_is_rendered_once(fmt, toy_table, tmp_path, capsys, monkeypatch):
    from demandgap import reporting

    calls = []
    for name in ("to_json", "deficit_csv", "histogram_csv", "analysis_text"):
        real = getattr(reporting, name)
        monkeypatch.setattr(
            reporting, name, lambda *a, real=real, name=name: calls.append(name) or real(*a)
        )
    out = tmp_path / "out"
    assert main(["analyze", str(toy_table), "--out", str(out), "--format", fmt]) == 0
    shown = {"json": "report.json", "csv": "deficit.csv"}.get(fmt)
    stdout = capsys.readouterr().out
    if shown:
        assert stdout == (out / f"TOY_2010_{shown}").read_text()
    assert sorted(calls) == sorted(
        ["to_json", "deficit_csv", "histogram_csv"] + (["analysis_text"] if fmt == "text" else [])
    )


@st.composite
def mutated_file(draw):
    """One input file with bytes deleted, inserted or replaced, or truncated."""
    name = draw(st.sampled_from(sorted(TOY_FILES)))
    data = TOY_FILES[name]
    at = draw(st.integers(0, len(data)))
    op = draw(st.sampled_from(["delete", "insert", "replace", "truncate"]))
    if op == "truncate":
        return name, data[:at]
    if op == "delete":
        return name, data[:at] + data[at + draw(st.integers(1, 4)):]
    noise = b"".join(draw(st.lists(st.sampled_from(NOISE), min_size=1, max_size=3)))
    return name, data[:at] + noise + data[at + (op == "replace"):]


@settings(max_examples=120, deadline=None, database=None)
@given(change=mutated_file(), command=st.sampled_from(["analyze", "equilibrium"]))
def test_no_input_file_fault_escapes_main(change, command):
    name, data = change
    with tempfile.TemporaryDirectory() as tmp:
        folder = Path(tmp) / "in" / "toy"  # a "../" country stays inside tmp
        folder.mkdir(parents=True)
        for file, content in TOY_FILES.items():
            (folder / file).write_bytes(data if file == name else content)
        # the property is about exceptions and exit codes, so warnings are only recorded
        with warnings.catch_warnings(record=True), contextlib.redirect_stdout(
            io.StringIO()
        ), contextlib.redirect_stderr(io.StringIO()):
            warnings.simplefilter("always")
            assert main(_argv(command, folder, folder / "out")) in (0, 2, 3, 4)
