"""Benchmark runner for demandgap.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all            # every workload in turn

Run from the root of a checkout; the program is imported from ``src``.  One
run sets the workload up, then runs whole rounds of its ops, one after
another in this process, until ``--seconds`` have passed, checking every
output; four more set-ups spread over the run give ``setup_s`` as the
median of five.  The last line of standard output is one JSON object: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of the traced
run with ``--trace 1``.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))
SETUP_REPEATS = 5
DEFAULT_SEED = 1

# BLAS threads are capped at the CPUs this process may use; set before
# numpy loads, and inherited by the CLI processes.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = str(NPROC)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
sys.path[:0] = [str(SRC)]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import demandgap

    import ref
    import tracing
    from workloads import WORKLOADS, Context

    if Path(demandgap.__file__).resolve().parent != SRC / "demandgap":
        raise SystemExit(f"demandgap imported from {demandgap.__file__}, not from {SRC}")
    ref.check_toy_reference()

    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    ctx = Context(root=ROOT, work=work, seed=seed, tracer=tracer)
    setup_s: list[float] = []

    def setup():
        mark = len(tracer.spans) if tracer is not None else 0
        t0 = time.perf_counter()
        ops = WORKLOADS[name](ctx)
        setup_s.append(time.perf_counter() - t0)
        if tracer is not None:
            del tracer.spans[mark:]  # warm-up calls belong to no round
        return ops

    def between_rounds(elapsed: float) -> None:
        # Set-ups spread over the run see the host at different moments,
        # as the rounds do; the inputs they build are identical and unused.
        if len(setup_s) < SETUP_REPEATS and elapsed >= len(setup_s) * seconds / SETUP_REPEATS:
            setup()

    try:
        result = run_rounds(setup(), seconds, between_rounds)
        while len(setup_s) < SETUP_REPEATS:
            setup()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            work.parent.rmdir()

    who = resource.RUSAGE_CHILDREN if name == "cli_tables" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    # Each op's best completed time over the rounds (see run_rounds for
    # why); a round's time is that of its completed ops, so the time an op
    # takes to fail is left out as its latency is.
    best_done = [min(t) if t else None for t in result["latencies"]]
    round_s = sum(best_done[k] for k in result["slots"] if best_done[k] is not None)
    best_done = [t for t in best_done if t is not None]
    e2e = {
        "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
        "ops_per_s": {"value": result["completed"] / result["rounds"] / round_s if round_s else 0.0,
                      "unit": "ops/s"},
        "op_ms_p50": {"value": statistics.median(best_done) * 1e3 if best_done else 0.0, "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    for line in result["wrong"][:20]:
        print(f"WRONG {line}", file=sys.stderr)
    print(
        f"{name}: seed {seed}, {result['rounds']} rounds, {result['attempted']} ops attempted, "
        f"{result['failed']} failed ({', '.join(sorted(set(result['faults']))) or 'none'}), "
        f"{'traced' if trace else 'untraced'}"
    )
    for key, metric in e2e.items():
        print(f"  {key:<12} {metric['value']:.6g} {metric['unit']}")
    metrics = e2e
    if tracer is not None:
        metrics = tracing.layer_metrics(tracer, result["rounds"])
        print(f"  per round ({result['rounds']} rounds, {len(tracer.spans)} spans):")
        for key, metric in metrics.items():
            print(f"    {key:<46} {metric['value']:.6g} {metric['unit']}")
    return {
        "correct": not result["wrong"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def run_rounds(ops, seconds: float, between_rounds) -> dict:
    """Run whole rounds of ``ops`` until ``seconds`` have passed.

    An op fails when it raises or its output fails its check; a failed op
    is attempted but has no latency.  Only a known fault raising its
    declared exception leaves the run correct.  ``latencies[i]`` holds op
    ``i``'s completed times; checking is outside them.  An op may appear
    more than once in a round; its entries share one slot, given by
    ``slots``.

    The metrics take each op's best time over the rounds, as ``timeit``
    does, and the rounds take turns on the CPUs this process may use: on a
    shared host one CPU can run the same round up to 1.8 times slower than
    the other for seconds or minutes at a stretch, and the best time is the
    one such contention leaves alone.  Only the calling thread is pinned;
    BLAS worker threads keep every CPU.  CLI processes inherit the pin.
    """
    slot_of: dict[int, int] = {}
    slots = [slot_of.setdefault(id(op), len(slot_of)) for op in ops]
    latencies: list[list[float]] = [[] for _ in slot_of]
    wrong: list[str] = []
    faults: list[str] = []
    attempted = failed = rounds = 0
    cpus = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        os.sched_setaffinity(0, {cpus[rounds % len(cpus)]})
        for i, op in zip(slots, ops):
            attempted += 1
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # every op failure is counted, not fatal
                failed += 1
                if op.known_fault is not None and isinstance(exc, op.known_fault):
                    faults.append(f"{op.name}: {type(exc).__name__}")
                else:
                    wrong.append(f"{op.name}: {exc!r}")
                continue
            dt = time.perf_counter() - t0
            try:
                op.check(out)
            except Exception as exc:  # a check that cannot read the output fails the op too
                failed += 1
                wrong.append(f"{op.name}: {exc!r}")
                continue
            latencies[i].append(dt)
        rounds += 1
        between_rounds(time.perf_counter() - start)
    os.sched_setaffinity(0, cpus)
    return dict(latencies=latencies, slots=slots, wrong=wrong, faults=faults, attempted=attempted,
                failed=failed, completed=attempted - failed, rounds=rounds)


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="demandgap benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "demandgap" / "__init__.py").is_file():
        print(f"no program to benchmark: {SRC / 'demandgap'} is missing", file=sys.stderr)
        return 2
    if args.workload == "all":
        code = 0
        for name in WORKLOADS:
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True,
            )
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            print(json.dumps({"workload": name, **json.loads(lines[-1])}) if proc.returncode == 0 and lines
                  else f"{name}: exit {proc.returncode}")
            code = code or proc.returncode
        return code
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
