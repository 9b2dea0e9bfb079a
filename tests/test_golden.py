"""Golden CLI outputs: the byte-for-byte regression oracle for refactors.

Each case runs ``demandgap.cli.main`` on the stored inputs of
``tests/golden/inputs/`` and compares its exit code, its stdout and every
file it writes with ``tests/golden/<case>/``.

One exception: in the equilibrium JSON (report file and stdout), a
``value_residual`` entry whose recorded value lies in the tolerance band
``tol * max(1, S_k)`` is roundoff, and may take any other value in that
band; the ``max value residual`` text line may differ in the same way when
every recorded entry is in its band.  Every other byte, ``violated`` and
``certified`` included, must match.

After an intended output change, rewrite the golden files with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest

from demandgap.cli import main
from demandgap.leontief import AggregationMap
from demandgap.niot import parse_blocks, parse_niot

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"
TOL = 1e-9  # the CLI's default --tol; no case overrides it

CASES = {
    "toy-analyze-json": ["analyze", "{toy}", "--out", "{out}", "--format", "json"],
    "toy-analyze-csv": ["analyze", "{toy}", "--out", "{out}", "--format", "csv"],
    "toy-analyze-text": ["analyze", "{toy}", "--out", "{out}"],
    "toy-equilibrium-json": ["equilibrium", "{toy}", "--out", "{out}", "--format", "json"],
    "toy-equilibrium-text": ["equilibrium", "{toy}", "--out", "{out}"],
    "toy-aggregate-analyze-json": [
        "analyze", "{toy}", "--out", "{out}", "--format", "json", "--aggregate", "{toy_map}",
    ],
    "toy-aggregate-equilibrium-json": [
        "equilibrium", "{toy}", "--out", "{out}", "--format", "json", "--aggregate", "{toy_map}",
    ],
    "toy-aggregate-equilibrium-text": [
        "equilibrium", "{toy}", "--out", "{out}", "--aggregate", "{toy_map}",
    ],
    "w34-analyze-json": ["analyze", "{w34}", "--out", "{out}", "--format", "json"],
    "w34-analyze-text": ["analyze", "{w34}", "--out", "{out}"],
    "w34-equilibrium-json": ["equilibrium", "{w34}", "--out", "{out}", "--format", "json"],
    "w34-equilibrium-text": ["equilibrium", "{w34}", "--out", "{out}"],
    "w34-pi-analyze-json": [
        "analyze", "{w34}", "--out", "{out}", "--format", "json", "--pi", "{w34_pi}",
    ],
    "w34-pi-equilibrium-json": [
        "equilibrium", "{w34}", "--out", "{out}", "--format", "json", "--pi", "{w34_pi}",
    ],
    "u38-analyze-json": ["analyze", "{u38}", "--out", "{out}", "--format", "json"],
    "u38-equilibrium-json": ["equilibrium", "{u38}", "--out", "{out}", "--format", "json"],
    "u38-aggregate-analyze-json": [
        "analyze", "{u38}", "--out", "{out}", "--format", "json", "--aggregate", "{u38_map}",
    ],
    "u38-aggregate-equilibrium-json": [
        "equilibrium", "{u38}", "--out", "{out}", "--format", "json", "--aggregate", "{u38_map}",
    ],
    "demo-E1-json": ["demo", "E1", "--format", "json"],
    "demo-E1-text": ["demo", "E1"],
    "demo-E2-json": ["demo", "E2", "--format", "json"],
    "demo-E2-text": ["demo", "E2"],
    "demo-random-json": ["demo", "random:seed=42", "--format", "json"],
    "demo-random-text": ["demo", "random:seed=42"],
}


def write_inputs(root: Path) -> dict[str, str]:
    """Copy the frozen input tables, pi files and aggregation maps of
    ``tests/golden/inputs`` to ``root``; return their paths by case key.

    The toy table has two industries, as ``fixtures.toy_accounts``.  The
    w34 and u38 tables are registry-sized, with blank names, so the CLI
    labels them from the built-in registries; their gross output closes
    the interindustry balance, so value added is positive and the national
    solve's guaranteed seed fits: every stage runs to a report.  They are
    stored, not generated, so the oracle does not move with a generator or
    with numpy's random stream.
    """
    shutil.copytree(INPUTS, root)
    paths = {}
    for name in ("toy", "w34", "u38"):
        paths[name] = str(root / name / f"{name}.csv")
        paths[f"{name}_map"] = str(root / name / "map.txt")
        if name != "toy":
            paths[f"{name}_pi"] = str(root / name / "pi.csv")
    return paths


def run_case(case: str, inputs: dict[str, str], out: Path) -> dict[str, bytes]:
    """Exit code, stdout and written files of one CLI run."""
    argv = [a.format(out=out, **inputs) for a in CASES[case]]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    got = {"exit_code": f"{code}\n".encode(), "stdout": buf.getvalue().encode()}
    if out.exists():
        got.update((f.name, f.read_bytes()) for f in sorted(out.iterdir()))
    return got


def value_bands(case: str, inputs: dict[str, str]) -> np.ndarray | None:
    """``tol * max(1, S_k)`` of an equilibrium case's analysed accounts."""
    argv = CASES[case]
    if argv[0] != "equilibrium":
        return None
    table = parse_niot(argv[1].format(**inputs))
    S = table.Xout + table.Imp
    if "--aggregate" in argv:
        blocks = parse_blocks(argv[argv.index("--aggregate") + 1].format(**inputs))
        S = AggregationMap(blocks).apply(S)
    return TOL * np.maximum(1.0, S)


def _in_band(values, bands) -> list[bool]:
    return [abs(v) <= b for v, b in zip(values, bands)]


def assert_equilibrium_json(got: bytes, want: bytes, bands: np.ndarray) -> None:
    doc, ref = json.loads(got), json.loads(want)
    assert (json.dumps(doc, indent=2) + "\n").encode() == got
    assert len(doc["value_residual"]) == len(ref["value_residual"]) == len(bands)
    for k, ok in enumerate(_in_band(ref["value_residual"], bands)):
        if ok:
            assert abs(doc["value_residual"][k]) <= bands[k], (k, doc["value_residual"][k])
            doc["value_residual"][k] = ref["value_residual"][k]
    assert (json.dumps(doc, indent=2) + "\n").encode() == want


def assert_equilibrium_text(got: bytes, want: bytes, residual, bands: np.ndarray) -> None:
    got_lines, want_lines = got.decode().splitlines(), want.decode().splitlines()
    assert len(got_lines) == len(want_lines)
    for g, w in zip(got_lines, want_lines):
        prefix = "max value residual: "
        if w.startswith(prefix) and all(_in_band(residual, bands)):
            assert g.startswith(prefix)
            assert abs(float(g[len(prefix):])) <= bands.max()
        else:
            assert g == w
    assert got.endswith(b"\n") == want.endswith(b"\n")


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden(case, tmp_path):
    inputs = write_inputs(tmp_path / "in")
    got = run_case(case, inputs, tmp_path / "out")
    want = {f.name: f.read_bytes() for f in sorted((GOLDEN / case).iterdir())}
    assert sorted(got) == sorted(want)
    bands = value_bands(case, inputs)
    for name, data in want.items():
        if bands is None or name == "exit_code":
            assert got[name] == data, name
        elif name.endswith("_equilibrium.json") or "--format" in CASES[case]:
            assert_equilibrium_json(got[name], data, bands)
        else:
            report = next(v for k, v in want.items() if k.endswith("_equilibrium.json"))
            residual = json.loads(report)["value_residual"]
            assert_equilibrium_text(got[name], data, residual, bands)


def regenerate() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        inputs = write_inputs(Path(tmp) / "in")
        for case in sorted(CASES):
            got = run_case(case, inputs, Path(tmp) / "out" / case)
            target = GOLDEN / case
            shutil.rmtree(target, ignore_errors=True)
            target.mkdir(parents=True)
            for name, data in got.items():
                (target / name).write_bytes(data)


if __name__ == "__main__":
    regenerate()
