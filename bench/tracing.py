"""Spans around the calls into each layer, and the per-layer metrics.

The wrappers replace each public function of the eight layer modules under
every name the program calls it by (``demandgap.leontief.solve_nonneg`` as
well as ``demandgap.solvers.solve_nonneg``), so calls from the benchmark and
calls across module boundaries inside the program both get a span.  Calls
inside one module to its own private helpers get none.

A span is ``[id, parent, key, start, end, note]``: ``key`` is
``<layer>.<function>`` of the function's home module, ``parent`` the id of
the enclosing span (-1 at the top) and ``note`` a value read off the result
where a metric needs one.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time

LAYERS = ("cli", "niot", "reporting", "leontief", "recession", "solvers", "exchange", "structure")

# round6 recurses through its own module global once per value; a span per
# float would measure the tracer, not the report.
SKIP = {"reporting.round6"}

_TEXT_OUT = {"reporting.to_json", "reporting.deficit_csv", "reporting.histogram_csv",
             "reporting.analysis_text", "reporting.equilibrium_text"}


def _note(key: str):
    """What a span keeps from its call, for the metrics that need it."""
    if key == "solvers.perron_eigen":
        return lambda args, out: out.iterations
    if key == "leontief.solve_national_equilibrium":
        return lambda args, out: bool(out.diagnostics["seed_used"])
    if key == "niot.parse_niot":
        return lambda args, out: os.path.getsize(args[0])
    if key in _TEXT_OUT:
        return lambda args, out: len(out.encode())
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.import_ms: list[float] = []

    def wrap(self, key: str, fn):
        spans, stack, clock, note = self.spans, self._stack, time.perf_counter, _note(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, key, clock(), 0.0, None]
            spans.append(span)
            stack.append(span[0])
            try:
                out = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if note is not None:
                span[5] = note(args, out)
            return out

        traced.__bench_traced__ = True
        return traced

    def install(self) -> None:
        """Wrap every public function of the layers under each alias."""
        modules = {name: importlib.import_module(f"demandgap.{name}") for name in LAYERS}
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or getattr(obj, "__bench_traced__", False):
                    continue
                home = obj.__module__.rpartition(".")[2]
                if home not in modules:
                    continue
                # cli declares no __all__; its one public entry point is main
                public = getattr(modules[home], "__all__", ("main",))
                key = f"{home}.{obj.__name__}"
                if obj.__name__ in public and key not in SKIP:
                    setattr(mod, attr, self.wrap(key, obj))

    def absorb(self, doc: dict) -> None:
        """Append the spans a traced child process wrote."""
        base = len(self.spans)
        for sid, parent, key, start, end, note in doc["spans"]:
            self.spans.append([base + sid, base + parent if parent >= 0 else -1, key, start, end, note])
        self.import_ms.append(doc["import_ms"])


# Per-layer metrics reported by the traced run, with their units.
METRICS = {
    "cli.import_ms": "ms",
    "cli.main_ms": "ms",
    "niot.parse_niot.ms": "ms",
    "niot.parse_niot.mb_per_s": "MB/s",
    "reporting.emit_ms": "ms",
    "reporting.bytes_out": "bytes",
    "recession.analyze_accounts.ms": "ms",
    "leontief.check_value_equilibrium.ms": "ms",
    "leontief.solve_national_equilibrium.ms": "ms",
    "leontief.solve_national_equilibrium.self_ms": "ms",
    "solvers.solve_nonneg.ms": "ms",
    "solvers.solve_nonneg.calls": "count",
    "solvers.solve_nonneg.useful_ratio": "ratio",
    "solvers.is_irreducible.ms": "ms",
    "solvers.is_irreducible.calls": "count",
    "solvers.perron_eigen.ms": "ms",
    "solvers.perron_eigen.calls": "count",
    "solvers.perron_eigen.iterations": "count",
    "exchange.check_equilibrium.ms": "ms",
    "exchange.check_equilibrium.calls": "count",
    "exchange.verify_certificate.ms": "ms",
    "structure.synthesize_property.ms": "ms",
    "structure.decompose_property.ms": "ms",
    "structure.decompose_property.self_ms": "ms",
    "structure.clearing_basis.calls_per_decompose": "ratio",
    "structure.degenerate_transform.ms": "ms",
    "structure.degeneracy_multiplicity.ms": "ms",
    "solvers.spectral_equilibrium.ms": "ms",
    "solvers.unit_value_equilibrium.ms": "ms",
}


def layer_metrics(tracer: Tracer, rounds: int) -> dict:
    """Per-layer metrics per round of the workload.

    Times and counts are run totals divided by the number of rounds, so a
    faster program, which fits more rounds into a run, reports the same
    work; ratios and rates are taken over the whole run.  Layers a workload
    never calls read 0.
    """
    spans = tracer.spans
    ms: dict[str, float] = {}
    self_ms: dict[str, float] = {}
    calls: dict[str, int] = {}
    for sid, parent, key, start, end, note in spans:
        dur = (end - start) * 1e3
        ms[key] = ms.get(key, 0.0) + dur
        self_ms[key] = self_ms.get(key, 0.0) + dur
        calls[key] = calls.get(key, 0) + 1
        if parent >= 0:
            pkey = spans[parent][2]
            self_ms[pkey] = self_ms.get(pkey, 0.0) - dur

    def ancestors(span):
        while span[1] >= 0:
            span = spans[span[1]]
            yield span

    nnls = [s for s in spans if s[2] == "solvers.solve_nonneg"]
    # The national solve uses the NNLS answer only when its guaranteed seed
    # does not fit; the constructive solvers always use it.
    useful = sum(
        1 for s in nnls
        if s[1] < 0 or spans[s[1]][2] != "leontief.solve_national_equilibrium" or spans[s[1]][5] is False
    )
    in_decompose = sum(
        1 for s in spans
        if s[2] == "structure.clearing_basis"
        and any(a[2] == "structure.decompose_property" for a in ancestors(s))
    )
    parse_s = ms.get("niot.parse_niot", 0.0) / 1e3
    parse_bytes = sum(s[5] or 0 for s in spans if s[2] == "niot.parse_niot")

    raw = {
        "cli.import_ms": sum(tracer.import_ms),
        "cli.main_ms": ms.get("cli.main", 0.0),
        "niot.parse_niot.mb_per_s": parse_bytes / 1e6 / parse_s if parse_s else 0.0,
        "reporting.emit_ms": sum(v for k, v in ms.items() if k.startswith("reporting.")),
        "reporting.bytes_out": sum(s[5] or 0 for s in spans if s[2] in _TEXT_OUT),
        "solvers.solve_nonneg.useful_ratio": useful / len(nnls) if nnls else 0.0,
        "solvers.perron_eigen.iterations": sum(
            s[5] or 0 for s in spans if s[2] == "solvers.perron_eigen"
        ),
        "structure.clearing_basis.calls_per_decompose": (
            in_decompose / calls["structure.decompose_property"]
            if calls.get("structure.decompose_property") else 0.0
        ),
    }
    out = {}
    for name, unit in METRICS.items():
        if name in raw:
            value = raw[name]
        else:
            key, _, kind = name.rpartition(".")
            value = {"ms": ms, "self_ms": self_ms, "calls": calls}[kind].get(key, 0)
        if unit not in ("ratio", "MB/s"):
            value /= rounds
        out[name] = {"value": float(value), "unit": unit}
    return out
