#!/usr/bin/env python3
"""frozenplanet benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {orbits,trajectory} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports the package from ``src``.
One caller drives the package in a closed loop for S seconds, checking
every result outside the timed span.  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run (see
METRICS.md).  The line before it carries the run's metadata.  The exit
code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

# The package under test is the checkout's own source tree, never an
# installed copy; without it the benchmark stops before measuring anything.
sys.path.insert(0, str(SRC))
try:
    import frozenplanet as fp
except ImportError as exc:
    sys.exit(f"error: cannot import frozenplanet from {SRC}: {exc}")
if not Path(fp.__file__).resolve().is_relative_to(SRC.resolve()):
    sys.exit(f"error: frozenplanet imported from {fp.__file__}, not from {SRC}")

import numpy  # noqa: E402
import scipy  # noqa: E402

import selftest  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from frozenplanet import certify  # noqa: E402
from frozenplanet.errors import ConvergenceError, DomainError  # noqa: E402

SETUP_REPEATS = 5
# The reference kernel is timed again once a stretch of operations has
# taken this long (see speed.py).
CALIBRATE_EVERY_S = 0.05
# One fixed tail percentile, so that the number of ops in a run never
# changes which one is reported.  p95 lies inside the slow cluster of each
# workload's charges (u < -10 on trajectory, u > 9 on orbits) rather than
# at its edge, where p90 sits on trajectory and swings between clusters;
# p99 has too few ops beyond it for a steady figure.
TAIL_PERCENTILE = 95.0
TAIL_BEYOND = 10  # ops that must lie beyond the reported tail percentile
BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


@dataclass
class Loop:
    """What one closed-loop measurement saw."""

    # Per op, in order, kept compact so that the benchmark's own memory
    # does not weigh in peak_rss_mb: wall seconds, whether it passed, and
    # its scale to the reference speed.
    seconds: array = field(default_factory=lambda: array("d"))
    passed: array = field(default_factory=lambda: array("b"))
    scale: array = field(default_factory=lambda: array("d"))
    attempted: int = 0
    failures: Counter = field(default_factory=Counter)
    problems: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def times(self, scaled: bool = True) -> numpy.ndarray:
        """Seconds of every op, at the reference speed unless not ``scaled``."""
        seconds = numpy.array(self.seconds)
        return seconds * numpy.array(self.scale) if scaled else seconds

    def latencies(self, scaled: bool = True) -> numpy.ndarray:
        """Seconds of the passed ops."""
        return self.times(scaled)[numpy.array(self.passed, dtype=bool)]

    def p50_ms(self, scaled: bool = True) -> float:
        ok = self.latencies(scaled)
        return float(numpy.median(ok)) * 1e3 if ok.size else 0.0


def run_loop(workload, mus, seconds: float, tracer=None) -> Loop:
    """Run ops back to back for ``seconds``; only the op itself is timed.

    The reference kernel is timed before the first op and after every
    stretch of CALIBRATE_EVERY_S, outside the ops' timed spans.
    """
    loop = Loop()
    calibration = speed.Calibration()
    marks = [0]  # number of ops done at each reference timing
    stretch_end = time.perf_counter() + CALIBRATE_EVERY_S
    deadline = time.perf_counter() + seconds
    while loop.attempted == 0 or time.perf_counter() < deadline:
        mu = next(mus)
        loop.attempted += 1
        kind = None
        if tracer is not None:
            tracer.active = True
        start = time.perf_counter()
        try:
            out = workload.op(mu)
        except (DomainError, ConvergenceError) as exc:
            kind = type(exc).__name__
        except Exception as exc:  # an undocumented error type is a defect
            kind = "other"
            loop.problems.append(f"mu={mu!r}: {type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
        if kind is None:
            problem = workload.check(mu, out)
            if problem:
                kind = "wrong"
                loop.problems.append(problem)
        if kind is not None:
            loop.failures[kind] += 1
        loop.seconds.append(elapsed)
        loop.passed.append(kind is None)
        if time.perf_counter() >= stretch_end:
            calibration.mark()
            marks.append(loop.attempted)
            stretch_end = time.perf_counter() + CALIBRATE_EVERY_S
    if marks[-1] < loop.attempted:
        calibration.mark()
        marks.append(loop.attempted)
    loop.scale = array("d", numpy.repeat(calibration.scales(), numpy.diff(marks)))
    for problem in workload.finish():
        loop.failures["wrong"] += 1
        loop.problems.append(problem)
    return loop


def tail(latencies: list) -> tuple[float, float]:
    """Latency at TAIL_PERCENTILE.

    Returns (latency_ms, percentile).  A run with fewer than TAIL_BEYOND
    ops beyond that percentile reports its slowest op, at percentile 100.
    """
    ordered = numpy.sort(latencies)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0
    if n * (100.0 - TAIL_PERCENTILE) / 100.0 < TAIL_BEYOND:
        return float(ordered[-1]) * 1e3, 100.0
    return float(ordered[math.ceil(n * TAIL_PERCENTILE / 100.0) - 1]) * 1e3, TAIL_PERCENTILE


def measure_setup(ctx, workload) -> tuple[list, list]:
    """Time fresh interpreters that import the package and make the first op.

    One unmeasured start comes first so that bytecode caches exist.  Each
    child then times the reference kernel on the core it ran on, right
    after its set-up work; a timing taken in this process after waiting for
    the child would say nothing about that core.  Returns the wall seconds
    of each start and its scale to the reference speed.
    """
    code = (
        f"{workload.setup_code}\n"
        f"import sys; sys.path.insert(0, {str(HERE)!r}); import speed; print(speed.reference_s())"
    )
    ctx.python("-c", code)
    samples, problems = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = ctx.python("-c", code)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            problems.append(f"set-up child exited {proc.returncode}: {proc.stderr[-300:]}")
        else:
            samples.append((elapsed, speed.NOMINAL_S / float(proc.stdout.split()[-1])))
    return samples, problems


def untraced(name, ctx, seed, seconds):
    workload = workloads.WORKLOADS[name]()
    setup_times, problems = measure_setup(ctx, workload)
    loop = run_loop(workload, workloads.charges(seed), seconds)
    ok = loop.latencies()
    tail_ms, tail_pct = tail(ok)
    metrics = {
        "setup_s": statistics.median(s * k for s, k in setup_times) if setup_times else 0.0,
        "ops_per_s": len(ok) / loop.times().sum(),
        "op_p50_ms": loop.p50_ms(),
        "op_tail_ms": tail_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    meta = {
        "setup_samples": [{"wall_s": s, "scale": k} for s, k in setup_times],
        "op_tail_percentile": tail_pct,
        # The same figures in wall time, not scaled to the reference speed.
        "wall": {
            "setup_s": statistics.median(s for s, _ in setup_times) if setup_times else 0.0,
            "ops_per_s": len(ok) / loop.times(scaled=False).sum(),
            "op_p50_ms": loop.p50_ms(scaled=False),
            "op_tail_ms": tail(loop.latencies(scaled=False))[0],
        },
        "speed_scale_median": float(numpy.median(loop.scale)),
        "ops_ok": len(ok),
        "fail_ratio": loop.failed / loop.attempted,
    }
    units = END_TO_END_UNITS
    return loop, problems, {k: (v, units[k]) for k, v in metrics.items()}, meta


def traced(name, ctx, seed, seconds):
    """Untraced then traced loops over the same charges, plus probes."""
    half = seconds / 2.0
    base = run_loop(workloads.WORKLOADS[name](), workloads.charges(seed), half)
    problems = []

    # A cold traced CLI child: import times and the lemniscatic constant.
    probe_spans, probe_out = OUT_DIR / "probe_spans.npz", OUT_DIR / "probe_solve.json"
    probe_spans.unlink(missing_ok=True)
    probe_out.unlink(missing_ok=True)
    proc = ctx.python(
        "-X", "importtime", str(workloads.CHILD), str(probe_spans), "--probe",
        "solve", "--mu", "2.0", "--out", str(probe_out),
    )
    if proc.returncode != 0:
        problems.append(f"probe child exited {proc.returncode}: {proc.stderr[-300:]}")
    else:
        problems += filter(None, [workloads.cli_payload_problem(2.0, probe_out.read_text())])
    probe = tracing.load(probe_spans) if probe_spans.exists() else tracing.Tracer().spans()
    imports = tracing.import_seconds(proc.stderr)

    tracer = tracing.Tracer()
    absent = tracing.install(tracer)

    # Reference counts at mu = 2, comparable across versions of the code.
    tracer.active = True
    sol = fp.solve_orbit(2.0)
    mark = len(tracer)
    traj = fp.reconstruct(sol, 512)
    fp.mean_residual(traj)
    fp.energy_residual(traj)
    tracer.active = False
    ref_solve, ref_rec = tracer.spans(0, mark), tracer.spans(mark)

    # The certify layer: its fast suite, and a small dense-x grid of the
    # full suite's monotonicity certificate (25 x 10,000 points in full).
    mark = len(tracer)
    tracer.active = True
    suite_ok = all(r.passed for r in certify.run_suite("fast"))
    grid_ok = certify.check_monotone_unique_grid(n_mu=2, n_grid=2000).passed
    tracer.active = False
    if not (suite_ok and grid_ok):
        problems.append(f"certify probe failed: fast suite {suite_ok}, grid {grid_ok}")
    ref_certify = tracer.spans(mark)
    solved_share, refused = workloads.full_range_probe()

    start = len(tracer)
    loop = run_loop(workloads.WORKLOADS[name](), workloads.charges(seed), half, tracer)
    spans = tracer.spans(start)
    tracing.save(spans, OUT_DIR / f"spans_{name}.npz")

    metrics = dict.fromkeys(tracing.PER_LAYER, 0.0)
    metrics.update(tracing.layer_metrics(spans, loop.attempted))
    n_ri = max(tracing.count(ref_solve, "quadrature.ratio_integrals"), 1)
    metrics.update({
        "specialfn.lemniscate_constant.first_call_s":
            tracing.first_duration(probe, "specialfn.lemniscate_constant"),
        "orbit.residuals.self_s": tracing.total_self(ref_rec, "orbit.residuals"),
        "certify.run_suite.self_s": tracing.total_self(ref_certify, "certify.run_suite"),
        "certify.grid.self_s": tracing.total_self(ref_certify, "certify.grid"),
        "certify.grid.big_f_calls": tracing.count(ref_certify, "quadrature.big_f", within="certify.grid"),
        "cli.main.self_s": tracing.total_self(probe, "cli.main"),
        "cli.import.numpy_s": imports["numpy"],
        "cli.import.scipy_s": imports["scipy"],
        "cli.import.frozenplanet_s": imports["frozenplanet"],
        "probe.mu2.f_evals": tracing.count(ref_solve, "quadrature.big_f", within="solver.solve_orbit"),
        "probe.mu2.ratio_integrals_calls": tracing.count(ref_solve, "quadrature.ratio_integrals"),
        "probe.mu2.levels_per_call":
            tracing.count(ref_solve, "gauss.gauss_level", within="quadrature.ratio_integrals") / n_ri,
        "probe.mu2.reconstruct512_time_integral_calls":
            tracing.count(ref_rec, "quadrature.time_integral", within="orbit.reconstruct"),
        "solver.full_range.solved_share": solved_share,
        "trace.overhead_ms": loop.p50_ms() - base.p50_ms(),
        "trace.overhead_pct": 100.0 * (loop.p50_ms() / base.p50_ms() - 1.0) if base.p50_ms() else 0.0,
    })
    meta = {
        "absent_targets": absent,
        "full_range_refused_mu": refused,
        "untraced_op_p50_ms": base.p50_ms(),
        "traced_op_p50_ms": loop.p50_ms(),
        "spans_recorded": int(len(spans["name"])),
    }
    merged = Loop(
        seconds=base.seconds + loop.seconds,
        passed=base.passed + loop.passed,
        scale=base.scale + loop.scale,
        attempted=base.attempted + loop.attempted,
        failures=base.failures + loop.failures,
        problems=base.problems + loop.problems,
    )
    units = tracing.PER_LAYER
    return merged, problems, {k: (float(v), units[k]) for k, v in metrics.items()}, meta


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    OUT_DIR.mkdir(exist_ok=True)
    ctx = workloads.Context(root=ROOT, env=child_env())

    harness = selftest.run_all()
    if harness:
        print("harness self-test failed:\n  " + "\n  ".join(harness), file=sys.stderr)
        return 1
    problems = workloads.golden_sentinels()

    run = traced if args.trace else untraced
    loop, run_problems, metrics, meta = run(args.workload, ctx, args.seed, args.seconds)
    problems += run_problems + loop.problems
    correct = not problems and not loop.failures["wrong"] and not loop.failures["other"]

    kernel_name = getattr(fp, "kernel_name", None)
    meta.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "kernel": kernel_name() if kernel_name else "absent",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_env": {k: os.environ.get(k) for k in BLAS_VARS},
        "attempted": loop.attempted,
        "failures": dict(loop.failures),
        "problems": problems[:20],
    })
    for key, (value, unit) in metrics.items():
        print(f"{args.workload:<10} {key:<46} {value:>14.6g} {unit}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
