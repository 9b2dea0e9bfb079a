"""Start-up cost: no CLI run loads scipy.

Each case runs a fresh interpreter with ``-X importtime``, which logs every
module the process imports, and reads the module names off stderr.  The
cone solve (NNLS) is numpy, so neither a balanced table, whose guaranteed
scale seed fits, nor an unbalanced one, whose solve runs NNLS, loads any
scipy module.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_golden import GOLDEN, assert_equilibrium_json, value_bands, write_inputs

SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(args: list[str], cwd: Path) -> tuple[subprocess.CompletedProcess, set[str]]:
    """Run ``python -X importtime ARGS`` with the package on the path;
    return the process and the names of the modules it imported."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    modules = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    }
    return proc, modules


def scipy_modules(modules: set[str]) -> list[str]:
    return sorted(m for m in modules if m == "scipy" or m.startswith("scipy."))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> dict[str, str]:
    return write_inputs(tmp_path_factory.mktemp("startup") / "in")


def test_no_module_imports_scipy():
    # the cone solve is numpy; scipy serves the tests as a reference only
    offenders = []
    for path in sorted((SRC / "demandgap").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno} imports {name}" for name in names if name.split(".")[0] == "scipy"]
    assert offenders == []


def test_import_loads_no_scipy(tmp_path):
    proc, modules = run_fresh(["-c", "import demandgap, demandgap.cli"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "demandgap.solvers" in modules
    assert scipy_modules(modules) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["equilibrium", "{w34}", "--out", "{out}", "--format", "json"],
        ["analyze", "{w34}", "--out", "{out}", "--format", "json"],
        ["demo", "E1"],
        ["demo", "E2"],
    ],
    ids=["equilibrium-balanced", "analyze", "demo-E1", "demo-E2"],
)
def test_cli_run_loads_no_scipy(argv, inputs, tmp_path):
    args = [a.format(out=tmp_path, **inputs) for a in argv]
    proc, modules = run_fresh(["-m", "demandgap.cli", *args], tmp_path)
    assert proc.returncode in (0, 4), proc.stderr
    assert "demandgap.solvers" in modules
    assert scipy_modules(modules) == []
    if args[0] == "equilibrium":
        assert json.loads(proc.stdout)["diagnostics"]["seed_used"] is True


def test_seed_miss_runs_nnls_without_scipy(inputs, tmp_path):
    # the toy table is not balanced, so its guaranteed seed misses and the
    # solve runs NNLS: the report is the golden one
    case = "toy-equilibrium-json"
    proc, modules = run_fresh(
        ["-m", "demandgap.cli", "equilibrium", inputs["toy"], "--out", str(tmp_path), "--format", "json"],
        tmp_path,
    )
    assert scipy_modules(modules) == []
    assert json.loads(proc.stdout)["diagnostics"]["seed_used"] is False
    assert f"{proc.returncode}\n" == (GOLDEN / case / "exit_code").read_text()
    bands = value_bands(case, inputs)
    assert_equilibrium_json(proc.stdout.encode(), (GOLDEN / case / "stdout").read_bytes(), bands)
    report = "TOY_2010_equilibrium.json"
    assert_equilibrium_json((tmp_path / report).read_bytes(), (GOLDEN / case / report).read_bytes(), bands)


@pytest.mark.parametrize(
    "args",
    ["[[1.0, nan]], [1.0]", "[[1.0, 1.0]], [nan]", "[[1.0, 1.0]], [-1.0]"],
    ids=["nan-matrix", "nan-target", "negative-target"],
)
def test_cone_solve_rejects_bad_input_before_loading_scipy(args, tmp_path):
    code = (
        "from math import nan\n"
        "from demandgap import solve_nonneg\n"
        "try:\n"
        f"    solve_nonneg({args})\n"
        "except ValueError as e:\n"
        "    print(type(e).__name__, e)\n"
    )
    proc, modules = run_fresh(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("ValueError ")
    assert scipy_modules(modules) == []
