"""Layered benchmark for cregcert.

    python3 perfbench/run.py --workload {classify,replay,analyze} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Each workload is a single-client
closed loop: one iteration at a time, each in fresh child processes, one
child at a time.  With ``--trace 0`` the end-to-end metrics are measured
untraced over as many iterations as ``--seconds`` allow, at least one
(two for analyze);
with ``--trace 1`` one untraced and one traced iteration give the
per-layer metrics and the tracing overhead.

The host's speed swings by up to 2x within minutes, so every time is
given in reference seconds: seconds multiplied by the host speed that a
calibrator pinned to the program's CPU measured while it ran (see
``cregbench.calibrate``).  ``wall_s`` and ``cpu_s`` sum, over an
iteration's timed parts (each child process, or each operation inside a
batch child plus that child's start-up), the part's fastest time across
the run's iterations, so a burst of load in one iteration does not move
them either.  ``setup_s`` is the median of several set-ups.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Exit status 2, and
no JSON line, when the checkout holds no cregcert source.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

from cregbench.calibrate import CalibrationError, Calibrator
from cregbench.layers import PER_LAYER, PREDICTIONS, Profile, per_layer_values
from cregbench.reports import HarnessError
from cregbench.tracer import TracerCoverageError
from cregbench.workloads import WORKLOADS, Context, fastest

# measuring ends this long after the one-time prepare step, so every run
# that finds the verified genuine reports in place ends well within 180 s
RUN_BUDGET_S = 150.0
SETUP_REPEATS = 9


def machine_notes() -> str:
    import numpy
    import sympy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return (
        f"nproc={os.cpu_count()} python={platform.python_version()} cpu={cpu!r} "
        f"numpy={numpy.__version__} sympy={sympy.__version__}"
    )


def timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_scaled(workload, cal: Calibrator, trace_dir: Path | None):
    """One iteration, with the host speed while it ran."""
    start = time.perf_counter()
    it = workload.run(trace_dir)
    it.scale = cal.scale(start, time.perf_counter())
    return it


def measure(workload, cal: Calibrator, seconds: float, deadline: float) -> list:
    """Closed loop: iterate until ``seconds`` have passed and the workload
    has its fewest iterations, and never start an iteration that could
    overrun the run's budget."""
    iterations = []
    start = time.perf_counter()
    while True:
        iterations.append(run_scaled(workload, cal, None))
        now = time.perf_counter()
        longest = max(it.wall_s for it in iterations)
        done = now - start >= seconds and len(iterations) >= workload.min_iterations
        if done or now + 1.5 * longest > deadline:
            return iterations


def end_to_end(setups: list[float], iterations: list) -> dict:
    wall = fastest(iterations, 0)
    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "wall_s": metric(wall, "s"),
        "cpu_s": metric(fastest(iterations, 1), "s"),
        "peak_rss_mb": metric(statistics.median(it.maxrss_mb for it in iterations), "MB"),
        "ops_per_s": metric(iterations[0].attempted / wall, "1/s"),
    }


def traced(workload, cal: Calibrator, trace_dir: Path) -> tuple[list, dict]:
    """One untraced and one traced iteration; per-layer metrics."""
    plain = run_scaled(workload, cal, None)
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir(parents=True)
    with_trace = run_scaled(workload, cal, trace_dir)
    traces = [json.loads(p.read_text()) for p in sorted(trace_dir.glob("*.json"))]
    profile = Profile(traces)
    misses = profile.coverage_misses(workload.name)
    if misses:
        raise TracerCoverageError("tracer coverage self-check failed: " + "; ".join(misses))
    overhead = (with_trace.wall_s * with_trace.scale) / (plain.wall_s * plain.scale)
    facts = dict(with_trace.facts, **{"trace.overhead_ratio": overhead})
    values = per_layer_values(profile, facts)
    units = {name: unit for name, unit, _ in PER_LAYER}
    shares = {
        name[len("layer."):-2]: value / with_trace.wall_s
        for name, value in values.items()
        if name.startswith("layer.")
    }
    print("# layer share of traced wall time: " + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))
    return [plain, with_trace], {name: metric(values[name], units[name]) for name in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "cregcert" / "__init__.py").is_file():
        print("error: no cregcert source at src/cregcert; run from a checkout's root", file=sys.stderr)
        return 2
    bench_dir = Path(__file__).resolve().parent
    base = root / ".bench_build" / "perfbench"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(bench_dir)])
    ctx = Context(
        root=root,
        work=base / args.workload,
        cache=base,
        seed=args.seed,
        env=env,
        deadline=0.0,
    )
    workload = WORKLOADS[args.workload](ctx)
    # the program's children and the calibrator share one CPU, so the
    # calibrator sees the speed the program got
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    shutil.rmtree(ctx.work, ignore_errors=True)
    ctx.work.mkdir(parents=True)

    print(f"# cregcert benchmark: workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# machine: {machine_notes()}")
    print(f"# why: {workload.why}")
    for group, moves in PREDICTIONS:
        print(f"# prediction: {group} -> {moves}")
    try:
        prepare_s = timed(workload.prepare)
        ctx.deadline = time.perf_counter() + RUN_BUDGET_S
        workload.build_inputs()
        with Calibrator(ctx.work / "calibration.txt", env, root) as cal:
            start = time.perf_counter()
            setups = [timed(workload.setup) for _ in range(1 if args.trace else SETUP_REPEATS)]
            if args.trace:
                iterations, metrics = traced(workload, cal, ctx.work / "trace")
            else:
                setup_scale = cal.scale(start, time.perf_counter())
                iterations = measure(workload, cal, args.seconds, ctx.deadline)
                metrics = end_to_end([s * setup_scale for s in setups], iterations)
    except (HarnessError, TracerCoverageError, CalibrationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(it.attempted for it in iterations)
    failed = sum(it.failed for it in iterations)
    for it in iterations:
        for problem in it.problems:
            print(f"FAILED: {problem}", file=sys.stderr)
    print(f"# prepare (verified genuine reports, once per source tree): {prepare_s:.3f} s")
    print(f"# setup repetitions: {', '.join(f'{s:.4f}' for s in setups)} s")
    print(f"# iterations: {len(iterations)}, walls {', '.join(f'{it.wall_s:.3f}' for it in iterations)} s, "
          f"host speed {', '.join(f'{it.scale:.3f}' for it in iterations)} reference s per s")
    print(f"# fail_rate: {failed / attempted:.4f} ({failed} of {attempted} {workload.ops_unit} failed)")
    if workload.name == "analyze" and not args.trace:
        print(f"# codes_per_s: {metrics['ops_per_s']['value']:.3f} 1/s")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
