"""The four workloads: their inputs, their ops and each op's check.

A workload's setup builds its inputs from the seed, warms up (all but
``periodic_chains``), and returns one round of ops.  The runner repeats whole rounds, so every run attempts
the same ops in the same proportions.  References are computed on first
use, outside both the set-up and the op timings.
"""

from __future__ import annotations

import functools
import json
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import gen
import ref
from ref import require

BENCH = Path(__file__).resolve().parent

# The cyclic table behind the known NoConvergence fault is built from this
# seed, not the workload seed, so it fails on every run.
FAULT_SEED = 20160119
# The largest weight of the seeded periodic matrices, as a multiple of their
# spectral radius: at 8 power iteration needs 3 to 6 thousand iterations on
# them (20-50 ms), short enough to time steadily, against 100,000 at the
# fault's 1.3.  At 16 and more the returned rho and vectors of some seeds'
# 4-cycles are off by more than 1e-8, so those spreads are not used.
CYCLE_SPREAD = 8.0
# How often each completing periodic op runs per round.
CYCLE_REPEATS = 30


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]
    # An exception type the op raises on every run because of a known fault
    # in the program; the op counts as failed, the run stays correct.
    known_fault: type | None = None


def _warm_up(ops: list[Op]) -> None:
    """Run each op once, untimed.  An op that raises here raises again in
    the timed rounds, where it is counted and reported."""
    for op in ops:
        try:
            op.run()
        except Exception:
            pass


@dataclass
class Context:
    root: Path
    work: Path
    seed: int
    tracer: object | None


# --- cli_tables --------------------------------------------------------------

def cli_tables(ctx: Context) -> list[Op]:
    """Fresh ``python -m demandgap.cli`` processes on table files."""
    rng = np.random.default_rng(ctx.seed)
    ops: list[Op] = []
    first_output: dict[str, dict] = {}

    def table(kind, m: int, k: int):
        t = kind(rng, m, f"T{k:02d}", 2000 + k)
        return t, gen.write_table(t, ctx.work / f"t{k:02d}")

    def cli_op(name: str, t, path: Path, command: str, with_pi=False, blocks=None) -> Op:
        out = ctx.work / "out" / name
        args = [command, str(path), "--format", "json", "--out", str(out)]
        if with_pi:
            args += ["--pi", str(gen.write_pi(t.pi, path.parent / "pi.csv"))]
        if blocks is not None:
            args += ["--aggregate", str(gen.write_blocks(blocks, path.parent / "map.txt"))]
        spans = ctx.work / f"{name}.spans.json"
        if ctx.tracer is None:
            argv = [sys.executable, "-m", "demandgap.cli", *args]
        else:
            argv = [sys.executable, str(BENCH / "cli_child.py"), str(spans), *args]

        pi = t.pi if with_pi else np.ones(t.m)
        if blocks is None:
            acc = dict(X=t.X, Xout=t.Xout, Cf=t.Cf, E=t.E, Imp=t.Imp)
            names = t.names
        else:
            acc = gen.aggregate_table(t, blocks)
            names = tuple(" + ".join(t.names[k] for k in b) for b in blocks)
            pi = np.ones(len(blocks))
        certifies = t.certifies and with_pi

        @functools.cache
        def expected():
            r = ref.recession(**acc, pi=pi)
            y = np.concatenate([1.0 + pi, [1.0, 1.0]])
            return r, ref.spectral_radius(ref.a_of_y(acc["X"], acc["Xout"], pi, y))

        stem = f"{t.country}_{t.year}"
        files = (
            [f"{stem}_report.json", f"{stem}_deficit.csv", f"{stem}_histogram.csv"]
            if command == "analyze" else [f"{stem}_equilibrium.json"]
        )
        want_code = 0 if command == "analyze" or certifies else 4

        def run():
            return subprocess.run(argv, cwd=ctx.root, capture_output=True)

        def check(proc):
            if ctx.tracer is not None and spans.exists():
                ctx.tracer.absorb(json.loads(spans.read_text()))
                spans.unlink()
            require(proc.returncode == want_code,
                    f"exit {proc.returncode}, expected {want_code}: {proc.stderr.decode()[-300:]}")
            written = {f: (out / f).read_bytes() for f in files}
            for f in files:
                (out / f).unlink()
            require(proc.stdout == written[files[0]], "stdout JSON differs from the report file")
            require(first_output.setdefault(name, written) == written,
                    "report files differ from the first invocation's")
            doc = json.loads(written[files[0]])
            r, rho = expected()
            if command == "analyze":
                ref.check_report_json(doc, r, acc["Xout"], t.country, t.year, names)
                ref.check_histogram(written[files[2]].decode(), r)
            else:
                ref.check_equilibrium_json(doc, **acc, pi=pi, certifies=certifies, rho_ref=rho, ref=r)

        return Op(name, run, check)

    # Few distinct ops, so that each runs in several rounds of a run.
    t, path = table(gen.random_balanced_table, 34, 1)
    ops.append(cli_op("analyze-34", t, path, "analyze"))
    t, path = table(gen.engineered_table, 38, 2)
    ops.append(cli_op("equilibrium-38", t, path, "equilibrium", with_pi=True))
    t, path = table(gen.random_balanced_table, 34, 3)
    ops.append(cli_op("equilibrium-34", t, path, "equilibrium"))
    t, path = table(gen.random_balanced_table, 38, 4)
    ops.append(cli_op("aggregate-38", t, path, "analyze", blocks=gen.consecutive_blocks(38, 4)))
    t, path = table(gen.engineered_table, 300, 5)
    ops.append(cli_op("equilibrium-300", t, path, "equilibrium", with_pi=True))

    # warm-up: brings the interpreter and libraries into the page cache
    subprocess.run([sys.executable, "-m", "demandgap.cli", "--help"], cwd=ctx.root, capture_output=True)
    return ops


# --- national solves in process ----------------------------------------------

def _national_op(name: str, t, pi, certifies: bool, analyze: bool) -> Op:
    from demandgap import leontief, recession

    acc = leontief.IOAccounts(X=t.X, Xout=t.Xout, Cf=t.Cf, E=t.E, Imp=t.Imp, pi=pi)
    rho_at: dict[bytes, float] = {}
    expected = functools.cache(lambda: ref.recession(t.X, t.Xout, t.Cf, t.E, t.Imp, pi))

    def run():
        if analyze:
            return (
                recession.analyze_accounts(acc),
                leontief.check_value_equilibrium(acc),
                leontief.solve_national_equilibrium(acc, strict=False),
            )
        return None, None, leontief.solve_national_equilibrium(acc, strict=False)

    def check(out):
        rep, bal, sol = out
        if analyze:
            ref.check_recession(rep, expected())
            ref.check_value_balance(bal, expected())
        key = sol.y.tobytes()
        if key not in rho_at:
            rho_at[key] = ref.spectral_radius(ref.a_of_y(t.X, t.Xout, pi, sol.y))
        ref.check_solution(sol, t.X, t.Xout, t.Cf, t.E, t.Imp, pi, certifies, rho_at[key])

    return Op(name, run, check)


def pi_sweep(ctx: Context) -> list[Op]:
    """(table, pi) pairs through analyze, value check and national solve."""
    rng = np.random.default_rng(ctx.seed)
    ops: list[Op] = []
    k = 0
    for m, count in ((34, 3), (38, 3), (300, 1)):
        for _ in range(count):
            for kind in (gen.engineered_table, gen.random_balanced_table):
                k += 1
                t = kind(rng, m, f"P{k:02d}", 2000 + k)
                if t.certifies:
                    # rho(A(y)) grows above 1 as pi shrinks below the table's own
                    sweep = (t.pi, 0.7 * t.pi, 0.5 * t.pi)
                else:
                    sweep = (t.pi, np.minimum(1.0, t.pi + 0.15), np.ones(m))
                for j, pi in enumerate(sweep):
                    ops.append(_national_op(f"sweep-{m}-{k}-{j}", t, pi, t.certifies and j == 0, True))
    _warm_up([ops[0], ops[-1]])
    return ops


def periodic_chains(ctx: Context) -> list[Op]:
    """Periodic matrices: pure cycles and cyclic supply chains."""
    from demandgap import errors, solvers

    rng = np.random.default_rng(ctx.seed)
    ops: list[Op] = []

    def cycle_op(n: int) -> Op:
        M, order, w = gen.pure_cycle(rng, n, CYCLE_SPREAD)
        rho, right, left = gen.cycle_perron(order, w)

        def check(pr):
            require(abs(pr.rho - rho) <= ref.EIG_TOL * max(1.0, rho), f"rho {pr.rho!r} vs geometric mean {rho!r}")
            require(float(np.abs(pr.right - right).max()) <= ref.EIG_TOL, "right Perron vector")
            require(float(np.abs(pr.left - left).max()) <= ref.EIG_TOL, "left Perron vector")

        return Op(f"cycle-{n}", lambda: solvers.perron_eigen(M), check)

    for n in (2, 3):
        ops.append(cycle_op(n))
    for m in (3, 4):
        t = gen.cyclic_table(rng, m, f"C{m:02d}", 2000 + m, CYCLE_SPREAD)
        ops.append(_national_op(f"cyclic-{m}", t, t.pi, True, False))
    t = gen.cyclic_table(np.random.default_rng(FAULT_SEED), 24, "F24", 2024)
    fault = _national_op("cyclic-24", t, t.pi, True, False)
    fault.known_fault = errors.NoConvergence
    # No warm-up: each completing op repeats within a round, so a run gives
    # it about a hundred samples and its best time leaves a cold first call
    # out.  Power iteration is the code most slowed by the host's contention
    # (median 1.8 times its best, against 1.4-1.6 for input generation), so
    # a warm-up made of it would make setup_s follow the host's load.  The
    # faulty op lasts about 1.5 s and runs once per round.
    return ops * CYCLE_REPEATS + [fault]


# --- exchange economies --------------------------------------------------------

def _economy_op(name: str, e: gen.Economy, free_prices: list[np.ndarray]) -> Op:
    from demandgap import exchange, structure

    parts = structure.RepresentationParts(y=e.y, a=e.a, d0=e.d0, I=e.I, case="exact")
    psi_bar = e.C @ e.y
    n = e.C.shape[0]

    def run():
        B = structure.synthesize_property(e.C, e.p, parts)
        econ = exchange.ExchangeEconomy(e.C, B)
        report = exchange.check_equilibrium(econ, e.p)
        cert = exchange.verify_certificate(econ, e.p, e.y, psi_bar)
        back, roundtrip = structure.decompose_property(econ, e.p, e.I)
        tr = structure.degenerate_transform(econ, e.p, e.I)
        econ_bar = exchange.ExchangeEconomy(e.C, tr.B_bar)
        swept = [exchange.check_equilibrium(econ_bar, q) for q in free_prices]
        mult = structure.degeneracy_multiplicity(tr.B_bar, e.C, tr.y, e.I)
        return B, report, cert, back, roundtrip, tr, swept, mult

    def check(out):
        B, report, cert, back, roundtrip, tr, swept, mult = out
        scale = max(1.0, float(np.abs(e.B).max()))
        require(float(np.abs(B - e.B).max()) <= 1e-10 * scale, "synthesized B differs from the formula")
        psi = e.B.sum(axis=1)
        band = ref.TOL * np.maximum(1.0, psi)
        y = (e.B.T @ e.p) / (e.C.T @ e.p)
        require(bool(np.all(np.abs(e.C @ y - psi) <= band)), "p does not clear on substitution")
        require(report.is_equilibrium and len(report.equality_set) == n, "check_equilibrium verdict")
        require(cert.ok, f"certificate rejected: {cert.failed}")
        require(roundtrip <= 1e-9, f"round-trip residual {roundtrip:.3e}")
        require(float(np.abs(back.y - e.y).max()) <= 1e-9 * max(1.0, float(e.y.max())), "decomposed y")
        off = [k for k in range(n) if k not in e.I]
        require(np.allclose(tr.B_bar[off], e.C[off] * e.y[None, :], rtol=1e-9, atol=0), "degenerate B_bar off I")
        psi_bar_sweep = tr.B_bar.sum(axis=1)
        for rep in swept:
            require(rep.is_equilibrium, "swept free-good price is not an equilibrium")
            require(bool(np.all(np.abs(rep.residual) <= ref.TOL * np.maximum(1.0, psi_bar_sweep))),
                    "swept free-good price does not clear")
        require(mult >= n - len(e.I), f"multiplicity {mult} below n - |I| = {n - len(e.I)}")

    return Op(name, run, check)


def _constructive_op(name: str, C: np.ndarray, B1: np.ndarray, unit_value: bool) -> Op:
    from demandgap import solvers

    B = C @ B1
    psi = B.sum(axis=1)

    def run():
        if unit_value:
            return solvers.unit_value_equilibrium(C, B1, psi)
        return solvers.spectral_equilibrium(C, B1)

    def check(res):
        p = res.p
        require(bool((p >= 0).all()) and float(p.max()) > 0, "price not nonnegative")
        y = (B.T @ p) / (C.T @ p)
        require(bool(np.all(np.abs(C @ y - psi) <= 1e-8 * np.maximum(1.0, psi))), "price does not clear")

    return Op(name, run, check)


def exchange_economies(ctx: Context) -> list[Op]:
    """Synthesis, decomposition and degenerate families, plus the two
    constructive solvers; no national code."""
    rng = np.random.default_rng(ctx.seed)
    ops: list[Op] = []

    def free_prices(e: gen.Economy, count: int) -> list[np.ndarray]:
        off = [k for k in range(e.p.shape[0]) if k not in e.I]
        draws = []
        for _ in range(count if off else 0):
            q = e.p.copy()
            q[off] = rng.uniform(0.0, 3.0, len(off))
            draws.append(q)
        return draws

    for i in range(40):
        n = int(rng.integers(2, 9))
        l = int(rng.integers(2, 9))
        e = gen.economy(rng, n, l, int(rng.integers(1, n + 1)))
        ops.append(_economy_op(f"economy-{n}x{l}-{i}", e, free_prices(e, 5)))
    for n, l, s in ((200, 150, 100), (120, 80, 60)):
        e = gen.economy(rng, n, l, s)
        ops.append(_economy_op(f"economy-{n}x{l}", e, free_prices(e, 5)))
    for i in range(16):
        l = int(rng.integers(2, 7))
        n = int(rng.integers(l, l + 3))
        unit_value = i % 2 == 1
        C, B1 = gen.factored_economy(rng, n, l, symmetric=unit_value)
        kind = "unit-value" if unit_value else "spectral"
        ops.append(_constructive_op(f"{kind}-{n}x{l}-{i}", C, B1, unit_value))
    _warm_up([ops[0], ops[40], ops[-1]])
    return ops


WORKLOADS = {
    "cli_tables": cli_tables,
    "pi_sweep": pi_sweep,
    "periodic_chains": periodic_chains,
    "exchange_economies": exchange_economies,
}
