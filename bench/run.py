"""mrange benchmark: one workload, one seed, a fixed number of passes.

    python3 bench/run.py --workload radius-scan --seed 1 --seconds 16 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 16 --trace 0

Run from the repository root. mrange is imported from ``src/`` next to
this directory. One process and one caller run a closed loop: each
operation starts when the previous one returns, with BLAS pinned to one
thread. The workload's fixed operation list is run pass after pass, as
many passes as fill ``--seconds`` on the tuning machine; every answer is
checked against numpy references after its call returns, outside the
timed region. The last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``. ``correct`` is false, and the exit code 1, when an answer is
wrong or an operation without a known defect fails. ``--workload all``
runs every workload in its own process and prints their reports.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import spans
from oracle import MARGIN_CAP, CheckFailed, margin
from setup_probe import warm_up
from workloads import WORKLOADS, CliResult, Unanswered

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
MIN_OPS = 100
MIN_PASSES = 3     # an operation's latency is its median over the passes
# Wall seconds of one untraced pass on the tuning machine (below). They fix
# how many passes fit into --seconds, so that the arguments alone decide
# which operations run and fail; the wall time follows the host's speed.
NOMINAL_PASS_S = {"radius-scan": 8.0, "extremal-boundary": 6.5,
                  "psd-feasibility": 5.0, "cli-interior": 4.7}
DEADLINE_FACTOR = 4  # a much slower program stops early and still exits in time
MARGIN_WORST = 3   # tol_margin_digits averages this many lowest margins
CALIBRATE_EVERY_S = 0.2
# Median time of reference_kernel() on the machine the benchmark was tuned
# on: 2-core x86-64, Python 3.11, numpy 2.4 with OpenBLAS 0.3.31 on one thread.
REFERENCE_S = 0.004

END_TO_END_UNITS = {"pass_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
                    "verified_share": "share", "tol_margin_digits": "digits",
                    "peak_rss_mb": "MB", "setup_s": "s"}
TRACE_UNITS = {"trace.pass_s": "s", "trace.overhead_share": "share"}

_REF = np.random.default_rng(0).standard_normal((2, 96, 16, 16))
_REF = _REF[0] + 1j * _REF[1]
_REF = _REF + np.conj(np.swapaxes(_REF, 1, 2))


def reference_kernel():
    """A fixed mix of small LAPACK calls, small matrix products and
    interpreter work, the kinds of work mrange spends its time on."""
    np.linalg.eigvalsh(_REF)
    M = _REF[0]
    for _ in range(100):
        M = (M @ _REF[1]) / 32.0
    s = 0.0
    for i in range(8000):
        s += i * 0.5
    return s


def timed_kernel():
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


def kernel_sample():
    """Median of three reference-kernel times."""
    return statistics.median(timed_kernel() for _ in range(3))


def speed_factor(samples):
    """REFERENCE_S over the median reference-kernel time. Multiplying a wall
    time by it removes the host's speed drift, which on a shared machine
    moves every wall time by tens of percent within minutes."""
    return REFERENCE_S / statistics.median(samples)


def import_mrange():
    """mrange from this checkout's ``src/``, never from site-packages."""
    if not (SRC / "mrange" / "__init__.py").is_file():
        sys.exit(f"bench: no mrange sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import mrange

    if Path(mrange.__file__).resolve().parent != SRC / "mrange":
        sys.exit(f"bench: imported mrange from {mrange.__file__}, not from {SRC}")
    return mrange


def environment(seed):
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def measure_setup(workload):
    """Median over fresh interpreters that import mrange and run one warm-up
    operation (setup_probe.py), each speed-corrected by reference-kernel
    samples taken just before and just after it. Returns (corrected, raw)
    seconds."""
    corrected, raw = [], []
    for _ in range(SETUP_REPEATS):
        before = [timed_kernel() for _ in range(5)]
        start = time.perf_counter()
        subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), workload],
                       check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        raw.append(time.perf_counter() - start)
        corrected.append(raw[-1] * speed_factor(before + [timed_kernel() for _ in range(5)]))
    return statistics.median(corrected), statistics.median(raw)


class Run:
    """Outcomes of every operation over the passes of one run."""

    def __init__(self):
        self.latencies = []      # speed-corrected seconds, one list per pass
        self.pass_seconds = []   # speed-corrected seconds, one per pass
        self.raw_pass_seconds = []
        self.margins = {}        # operation name -> smallest margin over passes
        self.failures = {}
        self.incorrect = {}      # operation name -> reason the run is incorrect
        self.attempted = 0
        self.stdout = {}

    def run_pass(self, ops):
        """One pass over ``ops``. The host's speed changes within a pass, so
        each operation's time is corrected by the kernel samples taken just
        before and just after it, one every CALIBRATE_EVERY_S of timed work."""
        segments, points = [[]], [kernel_sample()]
        since = 0.0
        for op in ops:
            self.attempted += 1
            start = time.perf_counter()
            try:
                result = op.call()
            except Exception as exc:
                elapsed = time.perf_counter() - start
                self._fail(op, f"raises {type(exc).__name__}: {exc}")
            else:
                elapsed = time.perf_counter() - start
                self._check(op, result)
            segments[-1].append(elapsed)
            since += elapsed
            if since >= CALIBRATE_EVERY_S:
                points.append(kernel_sample())
                segments.append([])
                since = 0.0
        if segments[-1]:
            points.append(kernel_sample())
        else:
            segments.pop()
        corrected = [x * speed_factor(points[i:i + 2])
                     for i, segment in enumerate(segments) for x in segment]
        self.latencies.append(corrected)
        self.pass_seconds.append(sum(corrected))
        self.raw_pass_seconds.append(sum(map(sum, segments)))

    def _check(self, op, result):
        if isinstance(result, CliResult):
            # CLI output must not change from one pass to the next
            first = self.stdout.setdefault(op.name, result.stdout)
            if first != result.stdout:
                self._fail(op, "wrong answer: stdout differs from the first pass",
                           wrong=True)
                return
        try:
            digits = [margin(r, b) for r, b in op.check(result)]
        except Unanswered as exc:
            self._fail(op, f"unanswered: {exc}")
        except CheckFailed as exc:
            self._fail(op, f"wrong answer: {exc}", wrong=True)
        else:
            # a known defect's margins are erratic by nature; fail_share tracks it
            if digits and not op.known_defect:
                self.margins[op.name] = min(self.margins.get(op.name, MARGIN_CAP),
                                            *digits)

    def _fail(self, op, reason, wrong=False):
        """A wrong answer, or any failure of an operation without a known
        defect, also makes the run incorrect."""
        self.failures.setdefault(op.name, [reason, 0])[1] += 1
        if wrong or not op.known_defect:
            self.incorrect[op.name] = reason

    @property
    def failed(self):
        return sum(count for _, count in self.failures.values())


def pass_count(workload, ops, seconds):
    """Passes that fill ``seconds`` on the tuning machine: at least
    MIN_PASSES, and at least MIN_OPS operations."""
    return max(MIN_PASSES, -(-MIN_OPS // len(ops)), round(seconds / NOMINAL_PASS_S[workload]))


def run_passes(run, ops, passes, seconds):
    """``passes`` passes, unless they take longer than DEADLINE_FACTOR times
    ``seconds``."""
    start = time.perf_counter()
    for _ in range(passes):
        run.run_pass(ops)
        if time.perf_counter() - start > DEADLINE_FACTOR * seconds:
            print(f"bench: stopped after {len(run.pass_seconds)} of {passes} passes, "
                  f"past {DEADLINE_FACTOR} x {seconds} s")
            return


def end_to_end(run, setup_s):
    # one latency per operation, its median over the passes: the first pass
    # runs cold and the host's slow moments hit single calls
    lat_ms = [statistics.median(times) * 1000.0 for times in zip(*run.latencies)]
    values = {
        "pass_s": statistics.median(run.pass_seconds),
        "op_p50_ms": statistics.median(lat_ms),
        "op_p90_ms": statistics.quantiles(lat_ms, n=10)[8],
        "verified_share": 1.0 - run.failed / run.attempted,
        "tol_margin_digits": statistics.fmean(sorted(run.margins.values())[:MARGIN_WORST]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }
    return {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}


def traced_metrics(run, ops, passes, seconds):
    """Half the passes untraced, the other half traced.
    Spans are recorded only inside the calls into mrange, never in the
    checks or the calibration, and reported per traced pass."""
    half = max(1, round(passes / 2))
    run_passes(run, ops, half, seconds / 2.0)
    plain = statistics.median(run.pass_seconds)
    tracer = spans.Tracer()
    traced = Run()
    recorded = [dataclasses.replace(op, call=tracer.recorded(op.call)) for op in ops]
    tracer.install()
    try:
        run_passes(traced, recorded, half, seconds / 2.0)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(SRC, len(traced.pass_seconds))
    print(f"traced half: {len(traced.pass_seconds)} passes; untraced half: "
          f"{len(run.pass_seconds)} passes")
    traced_s = statistics.median(traced.pass_seconds)
    values = {"trace.pass_s": traced_s, "trace.overhead_share": traced_s / plain - 1.0}
    metrics.update({name: (values[name], unit) for name, unit in TRACE_UNITS.items()})
    run.attempted += traced.attempted
    run.failures.update({f"{k} [traced]": v for k, v in traced.failures.items()})
    run.incorrect.update({f"{k} [traced]": v for k, v in traced.incorrect.items()})
    return metrics


def run_workload(args, mrange):
    print(json.dumps({"env": environment(args.seed)}))
    setup_s, setup_raw = (None, None) if args.trace else measure_setup(args.workload)
    warm_up(args.workload)

    workdir = ROOT / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        rng = np.random.default_rng([args.seed, list(WORKLOADS).index(args.workload)])
        ops = WORKLOADS[args.workload](mrange, rng, workdir)
        run = Run()
        passes = pass_count(args.workload, ops, args.seconds)
        if args.trace:
            metrics = traced_metrics(run, ops, passes, args.seconds)
        else:
            run_passes(run, ops, passes, args.seconds)
            metrics = end_to_end(run, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    print(f"workload {args.workload}: {len(run.pass_seconds)} passes of {len(ops)} "
          f"operations, {run.attempted} operations, {run.failed} failed, "
          f"fail_share {run.failed / run.attempted:.4f}")
    print(f"  raw wall seconds: passes {[round(x, 3) for x in run.raw_pass_seconds]}"
          + ("" if args.trace else f", set-up {setup_raw:.3f}"))
    for name, (reason, count) in sorted(run.failures.items()):
        kind = "UNEXPECTED " if name in run.incorrect else ""
        print(f"  {kind}FAILED x{count} {name}: {reason}")
    if run.margins:
        name = min(run.margins, key=run.margins.get)
        print(f"  smallest accuracy margin {run.margins[name]:.3f} digits: {name}")
    if args.trace:
        print(f"  flops formulas: {spans.FLOP_FORMULAS}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": not run.incorrect,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return run


def run_all(args):
    """Each workload in a fresh process; their reports without the JSON line."""
    ok = True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{name}: exit {proc.returncode}, no result\n{proc.stderr}")
            ok = False
            continue
        print("\n".join(lines[:-1]))
        ok = ok and result["correct"]
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)} or all")
    mrange = import_mrange()
    if args.workload == "all":
        return run_all(args)
    return 1 if run_workload(args, mrange).incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
