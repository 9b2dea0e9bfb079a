"""Built-in demonstration transcripts for the CLI.

Each fixture produces a JSON-serialisable transcript of construction steps
and verification results.  Transcripts are deterministic for a fixed seed.
"""

from __future__ import annotations

import numpy as np

from .errors import UnknownFixture
from .exchange import ExchangeEconomy, check_equilibrium, demand_scales, verify_certificate
from .fixtures import economy_e1, economy_e2, random_equilibrium
from .reporting import round6
from .structure import (
    decompose_property,
    degeneracy_multiplicity,
    degenerate_transform,
    real_money_value,
)

__all__ = ["run_demo"]


def _e1_transcript() -> dict:
    econ, p = economy_e1()
    report = check_equilibrium(econ, p)
    y = demand_scales(econ, p)
    psi = econ.total_supply()
    cert = verify_certificate(econ, p, y, econ.C @ y)
    parts, residual = decompose_property(econ, p, I=(0, 1))
    return {
        "fixture": "E1",
        "price": p,
        "demand_scales": y,
        "supply": psi,
        "residual": report.residual,
        "is_equilibrium": report.is_equilibrium,
        "equality_set": list(report.equality_set),
        "certificate_ok": cert.ok,
        "decomposition_roundtrip_residual": residual,
        "real_money_value": real_money_value(p, psi),
    }


def _e2_transcript(b21: float = 0.5) -> dict:
    econ, p = economy_e2(b21)
    report = check_equilibrium(econ, p)
    transform = degenerate_transform(econ, p, I=(0,))
    degenerate = ExchangeEconomy(econ.C, transform.B_bar)
    psi = degenerate.total_supply()
    family = []
    for q2 in (0.0, 0.5, 1.0, 2.0, 5.0):
        q = np.array([1.0, q2])
        rep = check_equilibrium(degenerate, q)
        family.append(
            {
                "q": q,
                "max_residual": float(np.abs(rep.residual).max()),
                "is_equilibrium": rep.is_equilibrium,
                "real_money_value": real_money_value(q, psi),
            }
        )
    return {
        "fixture": "E2",
        "b21": b21,
        "price": p,
        "is_equilibrium": report.is_equilibrium,
        "transformed_B": transform.B_bar,
        "transfer": transform.transfer,
        "multiplicity": degeneracy_multiplicity(
            transform.B_bar, econ.C, transform.y, I=transform.I
        ),
        "multiplicity_lower_bound": transform.multiplicity_lower_bound,
        "free_price_family": family,
        "money_value_range": [family[0]["real_money_value"], family[-1]["real_money_value"]],
    }


def _random_transcript(params: dict) -> dict:
    seed = int(params.get("seed", 0))
    n = int(params.get("n", 4))
    l = int(params.get("l", 3))
    support = int(params.get("I", max(1, n // 2)))
    econ, p, parts = random_equilibrium(seed, n=n, l=l, support=support)
    report = check_equilibrium(econ, p)
    _, roundtrip = decompose_property(econ, p, I=parts.I)
    transform = degenerate_transform(econ, p, I=parts.I)
    degenerate = ExchangeEconomy(econ.C, transform.B_bar)
    rng = np.random.default_rng(seed + 1)
    worst = 0.0
    for _ in range(20):
        q = p.copy()
        off = [k for k in range(n) if k not in parts.I]
        q[off] = rng.uniform(0.0, 2.0, len(off))
        rep = check_equilibrium(degenerate, q)
        worst = max(worst, float(np.abs(rep.residual).max()))
    multiplicity = degeneracy_multiplicity(
        transform.B_bar, econ.C, transform.y, I=transform.I
    )
    checks = {
        "equilibrium_at_p": report.is_equilibrium and not report.strict_set,
        "roundtrip_residual_ok": roundtrip <= 1e-9,
        "degenerate_family_residual_ok": worst <= 1e-9 * max(1.0, econ.total_supply().max()),
        "multiplicity_bound_ok": multiplicity >= transform.multiplicity_lower_bound,
    }
    return {
        "fixture": "random",
        "seed": seed,
        "n": n,
        "l": l,
        "support": list(parts.I),
        "max_residual_at_p": float(np.abs(report.residual).max()),
        "roundtrip_residual": roundtrip,
        "worst_family_residual": worst,
        "multiplicity": multiplicity,
        "multiplicity_lower_bound": transform.multiplicity_lower_bound,
        "checks": checks,
        "all_checks_pass": all(checks.values()),
    }


def run_demo(spec: str, seed: int | None = None) -> dict:
    """Run a named demonstration and return its transcript.

    ``spec`` is ``E1``, ``E2``, or ``random:seed=42,n=4,l=3,I=2`` (all
    parameters optional; any other key is :class:`UnknownFixture`).
    ``seed`` overrides the seed parameter; the fixed fixtures take no seed
    (ValueError).
    """
    spec = spec.strip()
    if spec in ("E1", "E2"):
        if seed is not None:
            raise ValueError(f"fixture {spec} takes no seed")
        return round6(_e1_transcript() if spec == "E1" else _e2_transcript())
    if spec == "random" or spec.startswith("random:"):
        params: dict = {}
        if ":" in spec:
            body = spec.split(":", 1)[1]
            for token in body.split(","):
                if not token.strip():
                    continue
                key, eq, value = token.partition("=")
                if not eq or key.strip() not in ("seed", "n", "l", "I"):
                    raise UnknownFixture(spec)
                params[key.strip()] = value.strip()
        if seed is not None:
            params["seed"] = seed
        try:
            return round6(_random_transcript(params))
        except (ValueError, KeyError) as e:
            raise UnknownFixture(f"{spec} ({e})") from e
    raise UnknownFixture(spec)
