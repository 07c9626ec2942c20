"""Benchmark: time from inputs to a certified solution of poisson_grad.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The load is a closed loop with one
client: one process runs one operation at a time, in-process through
``poisson_grad.cli.main``, with BLAS/OpenMP threads capped at one.  The
workload's pool of operations (see ``workloads.py``) runs in whole rounds
for about ``--seconds``, and at least twice, so that every input is repeated
and checked for identical outputs.

``--trace 0`` prints the end-to-end metrics, with times at a fixed
reference speed of the machine (see ``refspeed.py``) so that the drift of a
shared host's speed does not show in them; ``--trace 1`` runs every
operation of a round twice, first plain and then traced, and prints the
per-layer metrics (per traced operation) and the tracing overhead.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable summary.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_REPEATS = 10
TAIL_BEYOND = 10


def setup_seconds(configs, repeats: int) -> list[tuple[float, float]]:
    """(wall, reference-speed) seconds of a fresh interpreter building every
    config, timed from outside."""
    import refspeed  # loads numpy, so only after main() has capped its threads

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "setup_probe.py"), *map(str, configs)]
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        # no timeout: with one, wait() polls every 50 ms and quantizes the time
        done = subprocess.run(
            cmd, env=env, cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True
        )
        wall = time.perf_counter() - start
        speed = json.loads(done.stdout.splitlines()[-1])
        times.append((wall, refspeed.scale(wall, speed["handler_s"], speed["kernel_s"])))
    return times


def measure(runner, pool, seconds: float, tracer=None):
    """Whole rounds over the pool for about ``seconds``.

    A new round starts while it is expected to end no later than half a
    round past ``seconds``, so runs end near ``seconds`` however long a
    round is.  Untraced: at least two rounds; returns (samples, [], wall
    seconds).  Traced: every operation runs plain, then traced, on the same
    inputs; at least one round; returns (plain samples, traced samples, wall
    seconds).
    """
    plain = []
    traced = []
    rounds = 0
    min_rounds = 2 if tracer is None else 1
    start = time.perf_counter()
    elapsed = 0.0
    while rounds < min_rounds or elapsed + 0.5 * elapsed / rounds < seconds:
        for op in pool:
            plain.append(runner.run(op))
            if tracer is not None:
                traced.append(runner.run(op, tracer, op_id=len(traced)))
        rounds += 1
        elapsed = time.perf_counter() - start
    return plain, traced, elapsed


def tail(seconds: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least TAIL_BEYOND samples above it, as
    (value, percentile); None when the run holds too few samples."""
    n = len(seconds)
    rank = n - TAIL_BEYOND  # 1-based rank of the reported sample
    if rank < 1:
        return None
    return sorted(seconds)[rank - 1], 100.0 * rank / n


def src_lines() -> int:
    return sum(
        1
        for path in SRC.rglob("*.py")
        for line in path.read_text().splitlines()
        if line.strip()
    )


def end_to_end(samples, wall: float, setup) -> tuple[dict, list[str]]:
    """Times at reference speed (see refspeed.py); the wall-clock figures
    are printed beside them."""
    times = [s.ref_seconds for s in samples]
    ok = sum(s.error is None for s in samples)
    failed = len(samples) - ok
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "certified_s_p50": (statistics.median(times), "s"),
        "certified_per_min": (60.0 * ok / sum(times), "1/min"),
        "setup_s": (statistics.median(ref for _, ref in setup), "s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
    }
    lines = [
        f"certified_s_p50 {metrics['certified_s_p50'][0]:.4f} s (n={len(times)}; "
        f"wall clock {statistics.median(s.seconds for s in samples):.4f} s)"
    ]
    high = tail(times)
    if high is None:
        lines.append(
            f"certified_s_tail undefined: n={len(times)}, needs more than {TAIL_BEYOND}"
        )
    else:
        lines.append(
            f"certified_s_tail {high[0]:.4f} s (p{high[1]:.1f}, n={len(times)}, "
            f"{TAIL_BEYOND} beyond)"
        )
    lines += [
        f"certified_per_min {metrics['certified_per_min'][0]:.3f} 1/min "
        f"({ok} succeeded in {sum(times):.1f} s of operations; "
        f"wall clock {60.0 * ok / wall:.3f} 1/min over the whole run)",
        f"failed_fraction {failed / len(samples):.4f} ({failed}/{len(samples)})",
        f"setup_s {metrics['setup_s'][0]:.4f} s (median of {len(setup)}; "
        f"wall clock {statistics.median(w for w, _ in setup):.4f} s)",
        f"peak_rss_mb {metrics['peak_rss_mb'][0]:.1f} MB",
    ]
    return metrics, lines


def per_layer(tracer, plain, traced, field_bytes: int) -> dict:
    """Per-layer metrics per traced operation, plus the tracing overhead."""
    totals = tracer.layer_totals()
    ops = len(traced)
    counters = tracer.counters

    def get(name: str, field: str) -> float:
        return totals.get(name, {}).get(field, 0.0) / ops

    metrics = {}
    for name, fields in (
        ("grid.node_coordinates", ("calls", "s")),
        ("grid.forward_diff", ("calls", "s")),
        ("grid.laplacian", ("calls", "s")),
        ("grid.solve_linear_poisson", ("s",)),
        ("potential.value", ("calls", "s")),
        ("potential.gradient", ("calls", "s")),
        ("potential.checks", ("s",)),
        ("expr.parse", ("s",)),
        ("expr.eval_value", ("calls", "s")),
        ("expr.eval_dual", ("calls", "s")),
        ("action.action", ("calls", "self_s")),
        ("action.action_gradient", ("calls", "self_s")),
        ("solver.minimize", ("self_s",)),
        ("solver.audit", ("s",)),
        ("verify.certify", ("s",)),
        ("verify.el_residual", ("s",)),
        ("verify.boundary_check", ("s",)),
        ("verify.wirtinger_check", ("s",)),
        ("cli.build", ("s",)),
        ("cli.csv_write", ("s",)),
        ("cli.csv_read", ("s",)),
        ("cli.report_write", ("s",)),
    ):
        for field in fields:
            unit = "calls/op" if field == "calls" else "s/op"
            metrics[f"{name}.{field}"] = (get(name, field), unit)

    iterations = counters["solver.iterations"] / ops
    repricings = counters["solver.gauge_repricings"] / ops
    # every action call inside minimize prices the start, a trial point, or
    # the shifted copy of a trial point
    trials = get("action.action", "calls") - get("solver.minimize", "calls") - repricings
    metrics.update(
        {
            "grid.field_bytes": (field_bytes, "bytes"),
            "solver.iterations": (iterations, "iterations/op"),
            "solver.trials": (trials, "trials/op"),
            "solver.accept_ratio": (iterations / trials if trials else 0.0, "ratio"),
            "solver.gauge_repricings": (repricings, "calls/op"),
            "cli.csv_write.bytes": (counters["cli.csv_write.bytes"] / ops, "bytes/op"),
            "cli.csv_read.bytes": (counters["cli.csv_read.bytes"] / ops, "bytes/op"),
            "cli.report.bytes": (counters["cli.report.bytes"] / ops, "bytes/op"),
            "ops_attempted": (ops, "count"),
            "ops_failed": (sum(s.error is not None for s in traced), "count"),
            "trace.overhead_s": (
                statistics.median(s.seconds for s in traced)
                - statistics.median(s.seconds for s in plain),
                "s",
            ),
            "src_lines": (src_lines(), "lines"),
        }
    )
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "poisson_grad" / "cli.py").is_file():
        print(f"error: no poisson_grad sources under {SRC}", file=sys.stderr)
        return 2
    # one CPU for the whole run, the last one allowed: CPU 0 carries most of
    # the kernel's housekeeping and interrupts, which make timings noisy
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # caps must be in place before numpy loads its BLAS
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {', '.join(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2

    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        plan = workloads.WORKLOADS[args.workload](work, args.seed)
        # half the set-up probes before the operations and half after, so
        # that their median spans the run
        setup = [] if args.trace else setup_seconds(plan.configs, SETUP_REPEATS // 2)
        runner = workloads.Runner(reference_speed=not args.trace)
        tracer = spans.Tracer() if args.trace else None
        plain, traced, wall = measure(runner, plan.pool, args.seconds, tracer)
        if not args.trace:
            setup += setup_seconds(plan.configs, SETUP_REPEATS - SETUP_REPEATS // 2)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    samples = plain + traced
    errors = Counter(s.error for s in samples if s.error is not None)
    lines = [
        f"workload={args.workload} seed={args.seed} trace={args.trace} "
        f"ops={len(samples)} failed={sum(errors.values())}"
        + "".join(f" [{err} x{count}]" for err, count in sorted(errors.items()))
    ]
    if tracer is None:
        metrics, more = end_to_end(samples, wall, setup)
        lines += more
    else:
        metrics = per_layer(tracer, plain, traced, plan.field_bytes)
        trace_file = OUT / "traces" / f"{args.workload}-seed{args.seed}.npz"
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        tracer.save(trace_file)
        lines += [f"{name} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
        lines.append(f"spans: {len(tracer.start)} written to {trace_file.relative_to(ROOT)}")
    print("\n".join(lines))
    result = {
        "correct": not any(s.wrong for s in samples),
        "attempted": len(samples),
        "failed": sum(errors.values()),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
