"""Normalized table parsing, serialization, and config plumbing."""

import dataclasses

import numpy as np
import pytest

from demandgap import NegativeValue, SchemaError, parse_niot, serialize_niot
from demandgap.niot import NiotTable, parse_blocks, parse_pi
from demandgap.registries import UKRAINE_38, WIOD_34, registry_for
from demandgap.fixtures import toy_accounts

HEADER = (
    "industry_index,industry_name,X_1,X_2,final_consumption,"
    "gcf_inventory,export,import,gross_output"
)


def write_toy(tmp_path, body=None, meta="country,year,currency\nTOY,2010,MUAH\n"):
    rows = body or [
        "1,Alpha,10,20,40,10,20,5,100",
        "2,Beta,30,10,25,5,10,15,100",
    ]
    table = tmp_path / "toy.csv"
    table.write_text(HEADER + "\n" + "\n".join(rows) + "\n")
    if meta is not None:
        (tmp_path / "meta.csv").write_text(meta)
    return table


class TestParse:
    def test_golden_fixture_matches_toy_accounts(self, tmp_path):
        table = parse_niot(write_toy(tmp_path))
        assert table.country == "TOY" and table.year == 2010
        assert table.currency == "MUAH"
        assert table.indices == (1, 2)
        acc = table.to_accounts(pi=1.0)
        ref = toy_accounts()
        np.testing.assert_array_equal(acc.X, ref.X)
        np.testing.assert_array_equal(acc.Cf, ref.Cf)
        np.testing.assert_array_equal(acc.Xout, ref.Xout)
        np.testing.assert_array_equal(acc.E, ref.E)
        np.testing.assert_array_equal(acc.Imp, ref.Imp)

    def test_final_consumption_is_sum_of_columns(self, tmp_path):
        table = parse_niot(write_toy(tmp_path))
        np.testing.assert_array_equal(table.fc, [40.0, 25.0])
        np.testing.assert_array_equal(table.gcf, [10.0, 5.0])
        np.testing.assert_array_equal(table.final_consumption, [50.0, 30.0])

    def test_empty_file(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(SchemaError):
            parse_niot(empty)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SchemaError):
            parse_niot(tmp_path / "nope.csv")

    def test_header_mismatch(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(SchemaError, match="header"):
            parse_niot(bad)

    def test_wrong_row_count(self, tmp_path):
        table = write_toy(tmp_path, body=["1,Alpha,10,20,40,10,20,5,100"])
        with pytest.raises(SchemaError, match="industry rows"):
            parse_niot(table)

    def test_non_numeric_cell(self, tmp_path):
        table = write_toy(
            tmp_path,
            body=["1,Alpha,x,20,40,10,20,5,100", "2,Beta,30,10,25,5,10,15,100"],
        )
        with pytest.raises(SchemaError, match="not a number"):
            parse_niot(table)

    def test_negative_cell_fails_loudly(self, tmp_path):
        table = write_toy(
            tmp_path,
            body=["1,Alpha,10,20,40,-10,20,5,100", "2,Beta,30,10,25,5,10,15,100"],
        )
        with pytest.raises(NegativeValue):
            parse_niot(table)

    def test_negative_cell_clamped_on_request(self, tmp_path):
        table = write_toy(
            tmp_path,
            body=["1,Alpha,10,20,40,-10,20,5,100", "2,Beta,30,10,25,5,10,15,100"],
        )
        with pytest.warns(RuntimeWarning, match="clamping"):
            parsed = parse_niot(table, clamp_negative=True)
        assert parsed.gcf[0] == 0.0

    def test_missing_meta_uses_placeholders(self, tmp_path):
        with pytest.warns(RuntimeWarning, match="meta.csv.*XXX_0_"):
            table = parse_niot(write_toy(tmp_path, meta=None))
        assert table.country == "XXX" and table.year == 0

    def test_duplicate_industry_index(self, tmp_path):
        table = write_toy(
            tmp_path,
            body=["1,Alpha,10,20,40,10,20,5,100", "1,Beta,30,10,25,5,10,15,100"],
        )
        with pytest.raises(SchemaError, match="row 2.*duplicate index 1") as err:
            parse_niot(table)
        assert err.value.row == 2


# Each fault kind and the error it raises; the toy body's cells at row 2.
FAULTS = {
    "x": (SchemaError, "not a number: 'x'"),
    "nan": (SchemaError, "non-finite value 'nan'"),
    "inf": (SchemaError, "non-finite value 'inf'"),
    "-3": (NegativeValue, "negative value -3.0"),
}
TOY_ROW_2 = ["2", "Beta", "30", "10", "25", "5", "10", "15", "100"]


class TestCellLabels:
    """A faulty numeric cell is named by its row and its header column."""

    @pytest.mark.parametrize("text", sorted(FAULTS))
    @pytest.mark.parametrize(
        "column",
        ["X_2", "final_consumption", "gcf_inventory", "export", "import", "gross_output"],
    )
    def test_fault_names_row_and_column(self, tmp_path, column, text):
        row = list(TOY_ROW_2)
        row[HEADER.split(",").index(column)] = text
        table = write_toy(tmp_path, body=["1,Alpha,10,20,40,10,20,5,100", ",".join(row)])
        error, reason = FAULTS[text]
        with pytest.raises(error) as err:
            parse_niot(table)
        assert type(err.value) is error
        assert (err.value.row, err.value.col) == (2, column)
        assert str(err.value) == f"schema error at row 2, column {column!r}: {reason}" + (
            " (clamping is off)" if error is NegativeValue else ""
        )

    def test_clamped_cells_warn_in_file_order(self, tmp_path):
        table = write_toy(
            tmp_path,
            body=["1,Alpha,10,20,40,10,-20,5,100", "2,Beta,-30,10,25,5,10,15,100"],
        )
        with pytest.warns(RuntimeWarning) as record:
            parsed = parse_niot(table, clamp_negative=True)
        assert [str(w.message) for w in record] == [
            "clamping negative cell at row 1, column export: -20.0",
            "clamping negative cell at row 2, column X_1: -30.0",
        ]
        assert {w.filename for w in record} == {__file__}  # the caller of parse_niot
        assert parsed.E[0] == 0.0 and parsed.X[1, 0] == 0.0

    def test_first_fault_in_the_row_is_reported(self, tmp_path):
        table = write_toy(
            tmp_path,
            body=["1,Alpha,10,-20,40,x,20,5,100", "2,Beta,30,10,25,5,10,15,100"],
        )
        with pytest.raises(NegativeValue) as err:
            parse_niot(table)
        assert (err.value.row, err.value.col, err.value.value) == (1, "X_2", -20.0)


class TestRowConversion:
    """parse_niot converts each row with one numpy call and parses a row
    that fails it with float() cell by cell, so the two must agree: on
    every string numpy accepts, it must give float()'s value bit for bit."""

    CORPUS = [
        "1_000", " 2 ", "\uff17", "\u0663", "infinity", "-0", "", "0x1p3", "1d3",
        "1e400", "1,5", "nan", "-inf", "1__0", "\t4\n", "1.", ".5", "+7", "1 2",
    ]

    def test_numpy_agrees_with_float(self):
        rng = np.random.default_rng(0)
        values = (rng.standard_normal(300) * 10.0 ** rng.integers(-320, 300, 300)).tolist()
        corpus = self.CORPUS + [repr(v) for v in values] + ["%g" % v for v in values]
        for text in corpus:
            try:
                got = np.array([text], dtype=float)
            except ValueError:
                continue
            assert got.tobytes() == np.array([float(text)]).tobytes(), text


class TestRoundTrip:
    def test_lossless_values(self, tmp_path):
        rng = np.random.default_rng(0)
        m = 34
        table = NiotTable(
            country="GBR",
            year=2011,
            currency="million USD",
            indices=tuple(range(1, m + 1)),
            names=WIOD_34,
            X=rng.uniform(0, 1000, (m, m)),
            fc=rng.uniform(0, 500, m),
            gcf=rng.uniform(0, 100, m),
            E=rng.uniform(0, 300, m),
            Imp=rng.uniform(0, 300, m),
            Xout=rng.uniform(100, 5000, m),
        )
        path = tmp_path / "gbr.csv"
        serialize_niot(table, path)
        back = parse_niot(path)
        assert back.names == WIOD_34
        np.testing.assert_array_equal(back.X, table.X)  # repr round-trips exactly
        np.testing.assert_array_equal(back.Xout, table.Xout)
        np.testing.assert_array_equal(back.fc, table.fc)
        assert back.country == "GBR" and back.year == 2011

    def test_double_round_trip_is_identical(self, tmp_path):
        table = parse_niot(write_toy(tmp_path))
        p1 = tmp_path / "one.csv"
        serialize_niot(table, p1)
        text1 = p1.read_text()
        p2 = tmp_path / "two.csv"
        serialize_niot(parse_niot(p1), p2)
        assert p2.read_text() == text1

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("X", [[10.0, np.nan], [30.0, 10.0]], "X must be finite"),
            ("Imp", [5.0, -1.0], "Imp must be nonnegative"),
            ("Xout", [100.0], "Xout must have length 2, got 1"),
            ("X", np.zeros((0, 0)), "X must be square and non-empty"),
        ],
    )
    def test_unreadable_table_is_not_written(self, tmp_path, field, value, message):
        table = dataclasses.replace(parse_niot(write_toy(tmp_path)), **{field: np.array(value)})
        out = tmp_path / "out"
        out.mkdir()
        with pytest.raises(ValueError, match=message):
            serialize_niot(table, out / "table.csv")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("indices", (1,), "indices must have length 2, got 1"),
            ("names", ("Alpha", "Beta", "Gamma"), "names must have length 2, got 3"),
            ("indices", (7, 7), "duplicate index 7"),
        ],
    )
    def test_unreadable_labels_are_not_written(self, tmp_path, field, value, message):
        table = dataclasses.replace(parse_niot(write_toy(tmp_path)), **{field: value})
        out = tmp_path / "out"
        out.mkdir()
        with pytest.raises(ValueError, match=message):
            serialize_niot(table, out / "t.csv")
        assert list(out.iterdir()) == []


class TestRegistries:
    def test_sizes(self):
        assert len(WIOD_34) == 34
        assert len(UKRAINE_38) == 38

    def test_lookup(self):
        assert registry_for(34) is WIOD_34
        assert registry_for(38) is UKRAINE_38
        assert registry_for(10) is None

    def test_known_entries(self):
        assert WIOD_34[1] == "Mining and Quarrying"
        assert WIOD_34[14] == "Transport Equipment"
        assert UKRAINE_38[4] == "Extraction of crude petroleum and natural gas"
        assert UKRAINE_38[21].startswith("Trade; repair")


class TestConfig:
    def test_pi_scalar(self):
        assert parse_pi("0.5") == 0.5

    def test_pi_file(self, tmp_path):
        f = tmp_path / "pi.csv"
        f.write_text("0.5,0.25\n1.0\n")
        np.testing.assert_array_equal(parse_pi(str(f)), [0.5, 0.25, 1.0])

    def test_pi_missing_file(self):
        with pytest.raises(SchemaError):
            parse_pi("definitely/not/here.csv")

    def test_blocks_file(self, tmp_path):
        f = tmp_path / "map.txt"
        f.write_text("# merge the first two\n1,2\n3\n")
        assert parse_blocks(f) == ((0, 1), (2,))

    def test_pi_vector_reaches_accounts(self, tmp_path):
        table = parse_niot(write_toy(tmp_path))
        np.testing.assert_array_equal(table.to_accounts(pi=0.5).pi, [0.5, 0.5])
        np.testing.assert_array_equal(table.to_accounts(pi=[0.5, 0.6]).pi, [0.5, 0.6])
        with pytest.raises(ValueError, match="length 2"):
            table.to_accounts(pi=[0.5, 0.6, 0.7])


class TestReaderMessages:
    """Each reader fault names its file, row and column in a fixed message."""

    @pytest.mark.parametrize(
        "body, message",
        [
            (
                ["1,Alpha,10,20,40,10,20,5", "2,Beta,30,10,25,5,10,15,100"],
                "schema error at row 1: expected 9 cells, found 8",
            ),
            (
                ["1,Alpha,10,20,40,10,20,5,100", "two,Beta,30,10,25,5,10,15,100"],
                "schema error at row 2, column 'industry_index': not an integer: 'two'",
            ),
        ],
        ids=["cell-count", "industry-index"],
    )
    def test_table_row_faults(self, tmp_path, body, message):
        with pytest.raises(SchemaError) as err:
            parse_niot(write_toy(tmp_path, body=body))
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "meta, message",
        [
            ("nation,year,currency\nTOY,2010,MUAH\n", "schema error at row 0: meta.csv must have header country,year,currency"),
            ("country,year,currency\n", "schema error at row 0: meta.csv must have header country,year,currency"),
            ("country,year,currency\nTOY, 20x0 ,MUAH\n", "schema error at row 1, column 'year': not an integer: ' 20x0 '"),
        ],
        ids=["header", "no-row", "year"],
    )
    def test_meta_faults(self, tmp_path, meta, message):
        with pytest.raises(SchemaError) as err:
            parse_niot(write_toy(tmp_path, meta=meta))
        assert str(err.value) == message

    def test_missing_table(self, tmp_path):
        path = tmp_path / "nope.csv"
        with pytest.raises(SchemaError) as err:
            parse_niot(path)
        assert str(err.value) == (
            f"schema error at file: cannot read {path}: "
            f"[Errno 2] No such file or directory: '{path}'"
        )

    @pytest.mark.parametrize(
        "text, message",
        [
            (None, "cannot read pi file {path}: [Errno 2] No such file or directory: '{path}'"),
            (" , \n\n", "pi file {path} is empty"),
            ("0.5,half\n", "pi file {path}: could not convert string to float: 'half'"),
        ],
        ids=["missing", "empty", "not-a-number"],
    )
    def test_pi_file_faults(self, tmp_path, text, message):
        path = tmp_path / "pi.csv"
        if text is not None:
            path.write_text(text)
        with pytest.raises(SchemaError) as err:
            parse_pi(str(path))
        assert str(err.value) == "schema error at file: " + message.format(path=path)

    @pytest.mark.parametrize(
        "text, message",
        [
            (None, "at file: cannot read map file {path}: [Errno 2] No such file or directory: '{path}'"),
            ("# comment only\n\n", "at file: map file {path} has no blocks"),
            ("1,2\n# next\n3, x\n", "at row 3: bad block line: '3, x'"),
        ],
        ids=["missing", "no-blocks", "bad-line"],
    )
    def test_map_file_faults(self, tmp_path, text, message):
        path = tmp_path / "map.txt"
        if text is not None:
            path.write_text(text)
        with pytest.raises(SchemaError) as err:
            parse_blocks(path)
        assert str(err.value) == "schema error " + message.format(path=path)


class TestMetaRow:
    """meta.csv holds one row of three cells, and its country is one path
    component, because it names the report files."""

    @pytest.mark.parametrize(
        "row, message",
        [
            ("TOY,2010", "schema error at row 1: expected 3 cells, found 2"),
            ("TOY", "schema error at row 1: expected 3 cells, found 1"),
            ("TOY,2010,MUAH,extra", "schema error at row 1: expected 3 cells, found 4"),
            ("../x,2010,MUAH", "schema error at row 1, column 'country': not a single path component: '../x'"),
            ("A/B,2010,MUAH", "schema error at row 1, column 'country': not a single path component: 'A/B'"),
            ("T\0Y,2010,MUAH", "schema error at row 1, column 'country': not a single path component: 'T\\x00Y'"),
        ],
        ids=["two-cells", "one-cell", "four-cells", "parent-dir", "subdir", "nul"],
    )
    def test_bad_row(self, tmp_path, row, message):
        with pytest.raises(SchemaError) as err:
            parse_niot(write_toy(tmp_path, meta=f"country,year,currency\n{row}\n"))
        assert str(err.value) == message

    def test_blank_lines_are_skipped(self, tmp_path):
        table = parse_niot(write_toy(tmp_path, meta="\ncountry,year,currency\n , ,\nTOY,2010,MUAH\n"))
        assert (table.country, table.year, table.currency) == ("TOY", 2010, "MUAH")
