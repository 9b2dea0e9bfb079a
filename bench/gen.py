"""Seeded input generators for the benchmark (numpy only).

Nothing here imports demandgap: the inputs, and the closed forms the checks
compare against, are built from the model's formulas alone.

Value-form tables are balanced (``X @ 1 + Cf + E = Xout + Imp`` row by
row), so the national solve's guaranteed scale seed ``(1 + pi, 1, 1)`` fits.
An *engineered* table also has column input values
``c_i = Xout_i * pi_i / (1 + pi_i)`` and ``sum(Imp) == sum(E)``: then the
price vector ``p = 1`` solves ``y_i (A^T p)_i = pi_i p_i`` with the seed
``y``, both closure identities hold, and ``rho(A(y)) = 1``, so the table
certifies at its own ``pi``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HEADER_TAIL = ("final_consumption", "gcf_inventory", "export", "import", "gross_output")


@dataclass
class Table:
    """One value-form table with the metadata written beside it."""

    X: np.ndarray
    Xout: np.ndarray
    Cf: np.ndarray
    E: np.ndarray
    Imp: np.ndarray
    pi: np.ndarray
    certifies: bool
    country: str
    year: int
    names: tuple
    fc: np.ndarray  # household consumption and capital formation,
    gcf: np.ndarray  # the two columns that sum to Cf

    @property
    def m(self) -> int:
        return self.X.shape[0]


def _finish(rng, X, Xout, E, Imp, pi, certifies, tag, year) -> Table:
    """Close the row balance with final consumption, split into household
    consumption and capital formation.  ``Cf`` is the sum of the two parts,
    as the parser forms it, so it matches the file to the last bit."""
    m = X.shape[0]
    Cf = Xout + Imp - X.sum(axis=1) - E
    if (Cf <= 0.05 * Xout).any():
        raise ValueError("generator produced a table without positive final consumption")
    fc = Cf * rng.uniform(0.6, 0.9, m)
    gcf = Cf - fc
    return Table(
        X=X, Xout=Xout, Cf=fc + gcf, E=E, Imp=Imp, pi=pi, certifies=certifies,
        country=tag, year=year,
        names=tuple(f"{tag} industry {k}" for k in range(1, m + 1)),
        fc=fc, gcf=gcf,
    )


def _columns(rng, m: int, col_value: np.ndarray) -> np.ndarray:
    """Dense positive flows whose column ``i`` sums to ``col_value[i]``."""
    w = rng.uniform(0.5, 1.5, (m, m))
    return w / w.sum(axis=0, keepdims=True) * col_value[None, :]


def engineered_table(rng, m: int, tag: str, year: int) -> Table:
    """Balanced table that certifies at its own ``pi`` (rho(A(y)) = 1)."""
    Xout = rng.uniform(100.0, 150.0, m)
    pi = rng.uniform(0.4, 1.0, m)
    X = _columns(rng, m, Xout * pi / (1.0 + pi))
    E = Xout * rng.uniform(0.05, 0.2, m)
    Imp = rng.uniform(0.5, 1.5, m)
    Imp *= E.sum() / Imp.sum()
    return _finish(rng, X, Xout, E, Imp, pi, True, tag, year)


def random_balanced_table(rng, m: int, tag: str, year: int) -> Table:
    """Balanced table whose input shares keep ``rho(A(y)) <= 0.9`` for every
    ``pi`` in [0.5, 1]: column sums of ``A diag((1 + pi) / pi)`` stay below
    0.9, which bounds the spectral radius."""
    Xout = rng.uniform(100.0, 150.0, m)
    X = _columns(rng, m, Xout * rng.uniform(0.1, 0.3, m))
    E = Xout * rng.uniform(0.05, 0.2, m)
    Imp = Xout * rng.uniform(0.05, 0.2, m)
    pi = rng.uniform(0.5, 1.0, m)
    return _finish(rng, X, Xout, E, Imp, pi, False, tag, year)


def cyclic_table(rng, m: int, tag: str, year: int, spread: float = 1.3) -> Table:
    """Engineered table whose supply chain is one cycle: industry ``k``
    buys only from industry ``k - 1``.

    Its ``A(y)`` is a weighted permutation with period ``m``, weights
    ``pi_k / pi_{k-1}`` and spectral radius exactly 1.  The largest weight
    is ``spread`` on every seed, for the reason given in :func:`pure_cycle`.
    """
    Xout = rng.uniform(100.0, 150.0, m)
    steps = rng.uniform(-1.0, 1.0, m)
    steps -= steps.mean()
    steps *= np.log(spread) / steps.max()
    log_pi = np.cumsum(steps)
    pi = np.exp(log_pi - log_pi.max())
    X = np.zeros((m, m))
    cols = np.arange(m)
    X[(cols - 1) % m, cols] = Xout * pi / (1.0 + pi)
    E = Xout * rng.uniform(0.05, 0.2, m)
    Imp = rng.uniform(0.5, 1.5, m)
    Imp *= E.sum() / Imp.sum()
    return _finish(rng, X, Xout, E, Imp, pi, True, tag, year)


def pure_cycle(rng, n: int, spread: float = 2.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weighted ``n``-cycle ``M[a_k, a_{k+1}] = w_k`` on a random ordering.

    The weights' geometric mean, the spectral radius, is 1 and the largest
    weight is ``spread``.  Power iteration's rate on a cycle depends on
    that ratio, and its stopping test on the scale, so fixing both keeps
    the work per matrix nearly the same on every seed.  Returns the
    matrix, the ordering and the weights.
    """
    u = rng.uniform(-1.0, 1.0, n)
    u -= u.mean()
    u *= np.log(spread) / u.max()
    w = np.exp(u)
    order = rng.permutation(n)
    M = np.zeros((n, n))
    M[order, np.roll(order, -1)] = w
    return M, order, w


def cycle_perron(order: np.ndarray, w: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Closed-form Perron triple of a weighted cycle: ``rho`` is the
    geometric mean of the weights, the right vector solves
    ``w_k v[a_{k+1}] = rho v[a_k]`` and the left one
    ``u[a_k] w_k = rho u[a_{k+1}]``; both at max-norm 1."""
    n = w.shape[0]
    rho = float(np.exp(np.log(w).mean()))
    v = np.empty(n)
    u = np.empty(n)
    v[order[0]] = u[order[0]] = 1.0
    for k in range(n - 1):
        v[order[k + 1]] = rho * v[order[k]] / w[k]
        u[order[k + 1]] = u[order[k]] * w[k] / rho
    return rho, v / v.max(), u / u.max()


def write_table(table: Table, folder: Path) -> Path:
    """Write the normalized CSV and its ``meta.csv``; returns the CSV path."""
    folder.mkdir(parents=True, exist_ok=True)
    m = table.m
    path = folder / "table.csv"
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["industry_index", "industry_name"] + [f"X_{i}" for i in range(1, m + 1)] + list(HEADER_TAIL)
        )
        for k in range(m):
            writer.writerow(
                [k + 1, table.names[k]]
                + [repr(float(v)) for v in table.X[k]]
                + [repr(float(v)) for v in (table.fc[k], table.gcf[k], table.E[k], table.Imp[k], table.Xout[k])]
            )
    with (folder / "meta.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["country", "year", "currency"])
        writer.writerow([table.country, table.year, "value units"])
    return path


def write_pi(pi: np.ndarray, path: Path) -> Path:
    path.write_text(",".join(repr(float(v)) for v in pi) + "\n")
    return path


def consecutive_blocks(m: int, size: int) -> list[list[int]]:
    """0-based blocks of ``size`` consecutive industries (last one shorter)."""
    return [list(range(s, min(s + size, m))) for s in range(0, m, size)]


def write_blocks(blocks: list[list[int]], path: Path) -> Path:
    path.write_text("".join(",".join(str(k + 1) for k in b) + "\n" for b in blocks))
    return path


def aggregate_table(table: Table, blocks: list[list[int]]) -> dict:
    """Block sums of every account, as the CLI's ``--aggregate`` forms them."""
    S = np.zeros((len(blocks), table.m))
    for j, b in enumerate(blocks):
        S[j, b] = 1.0
    return dict(
        X=S @ table.X @ S.T, Xout=S @ table.Xout, Cf=S @ table.Cf,
        E=S @ table.E, Imp=S @ table.Imp,
    )


@dataclass
class Economy:
    """Exchange economy synthesized from representation parts, with the
    parts and the price it clears at."""

    C: np.ndarray
    p: np.ndarray
    I: tuple
    y: np.ndarray
    a: np.ndarray
    d0: np.ndarray
    B: np.ndarray


def clearing_basis(p: np.ndarray, I: tuple) -> np.ndarray:
    """Columns ``g_s = e_s - (p_s / sum_{t in I} p_t) e_I`` for ``s`` in I."""
    n = p.shape[0]
    idx = list(I)
    G = np.zeros((n, len(idx)))
    G[idx, :] = -p[idx][None, :] / p[idx].sum()
    G[idx, np.arange(len(idx))] += 1.0
    return G


def economy(rng, n: int, l: int, support: int) -> Economy:
    """Economy clearing exactly at a random price with ``support`` priced
    goods, money among them.

    ``B = outer(psi_bar, shares) + G a + d0`` with ``psi_bar = C y`` and
    ``shares = y (C^T p) / <psi_bar, p>``; the perturbation is scaled so
    every endowment stays positive.
    """
    rest = rng.choice(np.arange(1, n), size=support - 1, replace=False)
    I = tuple(sorted([0] + [int(k) for k in rest]))
    J = [k for k in range(n) if k not in I]
    C = rng.uniform(0.2, 1.2, (n, l))
    p = np.zeros(n)
    p[list(I)] = rng.uniform(0.5, 1.5, support)
    p /= p[0]
    y = rng.uniform(0.5, 1.5, l)
    psi_bar = C @ y
    base = np.outer(psi_bar, y * (C.T @ p) / float(psi_bar @ p))
    G = clearing_basis(p, I)
    delta = rng.normal(0.0, 1.0, (support, l))
    delta -= delta.mean(axis=1, keepdims=True)
    d0 = np.zeros((n, l))
    if J:
        raw = rng.normal(0.0, 1.0, (len(J), l))
        d0[J, :] = raw - raw.mean(axis=1, keepdims=True)
    pert = G @ delta + d0
    neg = pert < 0
    alpha = min(1.0, 0.45 * float((base[neg] / -pert[neg]).min())) if neg.any() else 1.0
    a = alpha * delta + 1.0 / l
    d0 = alpha * d0
    B = base + G @ a + d0
    return Economy(C=C, p=p, I=I, y=y, a=a, d0=d0, B=B)


def factored_economy(rng, n: int, l: int, symmetric: bool) -> tuple[np.ndarray, np.ndarray]:
    """Demand matrix ``C`` (n x l) and positive factor ``B1`` (l x l) for the
    constructive solvers.

    For the spectral route, ``C`` is scaled so that the budget vector
    ``d`` (left Perron vector of the row-normalised ``B1`` over its row
    sums) equals ``C^T p*`` for a positive ``p*``.  For the unit-value route
    ``B1`` is symmetric and ``C^T p* = 1``.
    """
    raw = rng.uniform(0.1, 1.0, (l, l))
    if symmetric:
        B1 = (raw + raw.T) / 2.0
        budget = np.ones(l)
    else:
        B1 = raw
        y = B1.sum(axis=1)
        vals, vecs = np.linalg.eig((B1 / y[:, None]).T)
        v = np.abs(np.real(vecs[:, int(np.argmax(np.abs(vals)))]))
        budget = v / y
        budget /= budget.max()
    p_star = rng.uniform(0.5, 2.0, n)
    raw_c = rng.uniform(0.2, 1.2, (n, l))
    C = raw_c * (budget / (raw_c.T @ p_star))[None, :]
    return C, B1
