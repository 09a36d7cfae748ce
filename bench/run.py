"""diamramsey benchmark: one workload, one seed, one closed-loop caller.

Run from the repository root:

    python3 bench/run.py --workload spread_solve --seed 1 --seconds 24 --trace 0
    python3 bench/run.py --workload cli_session --seed 1 --seconds 24 --trace 1
    python3 bench/run.py --workload primitives --seed 1 --seconds 1 --trace 0 --smoke

The package is imported from src/ of the same checkout.  One caller runs the
workload's op list in passes: the next op starts only when the previous one
has returned.  --seconds sets the number of passes (see pass_count), so the
run measures for about that long at the speed the benchmark was defined at.  Every op's output is checked once the
window closes.  Each stdout line but the last is a JSON record: the
environment, one line per op with its time and computed values, and a
summary.  The last line is the result: {"correct", "attempted", "failed",
"metrics"}; --trace 0 gives the end-to-end metrics, --trace 1 the per-layer
ones, taken from a traced pass whose spans go to bench/out/.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT = BENCH / "out"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 3
# Median speed_kernel() time on the reference machine (2 vCPU Xeon, quiet).
SPEED_NOMINAL_S = 0.016

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_s_p50": "s", "op_s_tail": "s",
              "peak_rss_mb": "MB"}
PER_LAYER = {
    "geometry.diameter.calls": "count",
    "geometry.diameter.busy_s": "s",
    "geometry.diameter.peak_alloc_mb": "MB",
    "spheres.min_enclosing_ball.calls": "count",
    "spheres.min_enclosing_ball.busy_s": "s",
    "spheres.min_enclosing_ball.peak_alloc_mb": "MB",
    "spheres.circumsphere.calls": "count",
    "spheres.circumsphere.busy_s": "s",
    "obstruction.obstruction_verdict.calls": "count",
    "obstruction.obstruction_verdict.busy_s": "s",
    "constructions.busy_s": "s",
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "cli.import.scipy_s": "s",
    "trace.overhead_ratio": "ratio",
}


def cap_blas_threads() -> int:
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ[var] = str(min(int(os.environ.get(var) or nproc), nproc))
    return nproc


def emit(record: dict) -> None:
    print(json.dumps(record, default=str), flush=True)


def import_workloads():
    """Import the harness against src/ of this checkout, or exit with an error."""
    if not (ROOT / "src" / "diamramsey" / "__init__.py").is_file():
        sys.exit(f"bench: no package at {ROOT / 'src' / 'diamramsey'}")
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import diamramsey
    if Path(diamramsey.__file__).resolve().parent != ROOT / "src" / "diamramsey":
        sys.exit(f"bench: imported diamramsey from {diamramsey.__file__}")
    import workloads
    return workloads


def make_workload(workloads, args, in_process: bool = False):
    cls = workloads.WORKLOADS[args.workload]
    if cls is workloads.CliSession:
        return cls(args.seed, args.smoke, ROOT, in_process=in_process)
    return cls(args.seed, args.smoke)


def speed_kernel() -> float:
    """Seconds for a fixed mix of small-array numpy calls in a Python loop and
    vectorised pairwise arithmetic, the two kinds of work diamramsey does.
    It touches nothing in the package, so no change to the package moves it."""
    import numpy as np

    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((6, 4))
    rot = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    shift = np.zeros(4)
    acc = 0.0
    for i in range(800):
        shift[0] = i * 1e-4
        norms = np.linalg.norm(pts @ rot.T + shift, axis=1)
        acc += norms.max() - norms.min()
    block = rng.standard_normal((250, 1, 3))  # ~1.5 MB, so peak RSS barely moves
    for _ in range(5):
        diff = block - block.reshape(1, 250, 3)
        acc += float(np.sqrt(np.einsum("ijk,ijk->ij", diff, diff)).max())
    return time.perf_counter() - t0


class Speed:
    """The machine's speed during one run, sampled once before every op or
    set-up probe and once after the last of each group.

    The vCPUs here run up to ~1.8x slower for seconds to minutes at a time,
    whatever the workload.  Each op's time is scaled by its factor
    SPEED_NOMINAL_S / (mean of the kernel times just before and just after
    it) raised to the workload's SPEED_EXPONENT (set-up probes: to
    FRESH_PROCESS_EXPONENT), which follows the drift op by op; per-layer
    times use the median sample.  The sample count is fixed by the op list, so the scaling weighs
    the same however fast the ops are.  Raw times stay in the summary record.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.times: list[float] = []

    def sample(self) -> None:
        self.times.append(time.perf_counter())
        self.samples.append(speed_kernel())

    @property
    def factor(self) -> float:
        return SPEED_NOMINAL_S / statistics.median(self.samples)


class Record:
    __slots__ = ("op", "pass_index", "start", "seconds", "result", "error", "factor")

    def __init__(self, op, pass_index, start, seconds, result, error):
        self.op, self.pass_index, self.start, self.seconds = op, pass_index, start, seconds
        self.result, self.error = result, error
        self.factor = 1.0  # kernel speed ratio, set by run_window when it samples


def run_window(ops, passes: int, speed: Speed | None = None, tracer=None):
    """Closed loop over the op list, `passes` times; returns one record per op.

    With `speed`, the kernel runs between ops, outside their timed spans."""
    records = []
    for pass_index in range(passes):
        for i, op in enumerate(ops):
            if speed is not None:
                speed.sample()
            if tracer is not None:
                tracer.op = i
            t0 = time.perf_counter()
            try:
                result, error = op.run(), None
            except Exception as exc:  # a raising op is a failed op, not a crash
                result, error = None, f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - t0
            records.append(Record(i, pass_index, t0, seconds, result, error))
    if speed is not None:
        speed.sample()
        around = speed.samples[-len(records) - 1:]
        for rec, before, after in zip(records, around, around[1:]):
            rec.factor = 2.0 * SPEED_NOMINAL_S / (before + after)
    return records


def pass_times(records, exponent: float) -> list[float]:
    """Each pass's time: the sum of its op latencies, scaled by
    factor ** exponent (0 for raw times)."""
    totals: dict[int, float] = {}
    for rec in records:
        totals[rec.pass_index] = totals.get(rec.pass_index, 0.0) \
            + rec.seconds * rec.factor ** exponent
    return list(totals.values())


def pass_count(wl, seconds: float) -> int:
    """Passes that fill `seconds` at the speed the benchmark was defined at.

    The count depends on --seconds alone, so a run does the same work on every
    commit and the op count behind op_s_p50 and op_s_tail never changes."""
    return max(2, round(seconds / wl.PASS_S))


def check_records(workloads, ops, records, phase: str) -> list[bool]:
    """Check every op output and print it next to its time; one flag per record."""
    flags = []
    for rec in records:
        op = ops[rec.op]
        values, error = {}, rec.error
        if error is None:
            try:
                values = op.check(rec.result)
            except workloads.CheckFailed as exc:
                error = f"check failed: {exc}"
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        flags.append(error is None)
        line = {"record": "op", "phase": phase, "op": op.label, "pass": rec.pass_index,
                "start": rec.start, "seconds": rec.seconds, "speed_factor": rec.factor,
                "ok": error is None, "values": values}
        if error is not None:
            line["error"] = error
        emit(line)
    return flags


def tail(latencies):
    """Latency at the highest percentile with at least ten ops beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def setup_probe(args) -> float:
    """Seconds from starting a fresh process to its first timed op."""
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--probe"] + ["--smoke"] * args.smoke
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT)
    with proc.stdout:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.wait() != 0 or line.strip() != b"ready":
        raise RuntimeError(f"setup probe failed: {line!r}")
    return elapsed


def import_probes(repeats: int = 3) -> dict:
    """Bare interpreter start, `import diamramsey`, and its scipy share."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    interpreter = []
    for _ in range(repeats + 2):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, env=env, cwd=ROOT)
        interpreter.append(time.perf_counter() - t0)
    imports, scipy = [], []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import diamramsey"],
                              check=True, env=env, cwd=ROOT, capture_output=True, text=True)
        total = scipy_self = 0.0
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not line.startswith("import time:"):
                continue
            try:
                self_us = int(parts[0].split(":")[1])
                cumulative_us = int(parts[1])
            except ValueError:
                continue  # the header line
            name = parts[2].strip()
            if name == "diamramsey":
                total = cumulative_us / 1e6
            if name == "scipy" or name.startswith("scipy."):
                scipy_self += self_us / 1e6
        imports.append(total)
        scipy.append(scipy_self)
    return {"cli.interpreter_s": statistics.median(interpreter),
            "cli.import_s": statistics.median(imports),
            "cli.import.scipy_s": statistics.median(scipy)}


def environment(args, nproc: int) -> dict:
    return {"record": "environment", "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
            "nproc": nproc, "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
            "python": platform.python_version(), "numpy": importlib.metadata.version("numpy"),
            "scipy": importlib.metadata.version("scipy"), "loop": "closed, one caller"}


def run_untraced(workloads, args) -> tuple[dict, int, int]:
    speed = Speed()
    speed.sample()
    setup = []  # (seconds, speed factor) per probe, sampled as around an op
    for _ in range(1 if args.smoke else SETUP_PROBES):
        seconds = setup_probe(args)
        speed.sample()
        setup.append((seconds, 2.0 * SPEED_NOMINAL_S / sum(speed.samples[-2:])))
    wl = make_workload(workloads, args)
    try:
        ops = wl.ops()
        ops[0].run()  # warm-up
        records = run_window(ops, pass_count(wl, args.seconds), speed)
        if args.workload == "cli_session":
            peak_rss = max(wl.child_rss_mb)
        else:
            peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failed = check_records(workloads, ops, records, "untraced").count(False)
    finally:
        if hasattr(wl, "close"):
            wl.close()

    def times(exponent, setup_exponent):
        latencies = [rec.seconds * rec.factor ** exponent for rec in records]
        tail_value, tail_pct, n_ops = tail(latencies)
        return {"setup_s": statistics.median(t * f ** setup_exponent for t, f in setup),
                "wall_s": statistics.median(pass_times(records, exponent)),
                "op_s_p50": statistics.median(latencies), "op_s_tail": tail_value,
                "peak_rss_mb": peak_rss}, tail_pct, n_ops

    exponent = wl.SPEED_EXPONENT
    values, tail_pct, n_ops = times(exponent, workloads.FRESH_PROCESS_EXPONENT)
    summary = {"record": "summary", "ops": n_ops, "passes": len(pass_times(records, 0)),
               "ops_per_pass": len(ops), "op_s_tail_percentile": tail_pct,
               "fail_ratio": failed / len(records), "speed_factor": speed.factor,
               "speed_exponent": exponent, "speed_samples": len(speed.samples),
               "raw": times(0, 0)[0], "speed_trace": list(zip(speed.times, speed.samples)),
               "setup_s_samples": setup, "pass_s": pass_times(records, exponent)}
    copies = sum(ops[rec.op].copies for rec in records)
    if copies:
        summary["copies_per_s"] = copies / sum(pass_times(records, exponent))
    emit(summary)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return metrics, len(records), failed


def run_traced(workloads, args) -> tuple[dict, int, int]:
    from spans import Tracer

    speed = Speed()
    speed.sample()
    probes = import_probes(1 if args.smoke else 3)
    in_process = args.workload == "cli_session"
    wl = make_workload(workloads, args, in_process=in_process)
    traced_wl = None
    tracer = Tracer()
    try:
        ops = wl.ops()
        ops[0].run()  # warm-up
        base = run_window(ops, pass_count(wl, args.seconds / 2), speed)
        base_passes = pass_times(base, 0)
        with tracer:
            tracer.op = "setup"
            traced_wl = make_workload(workloads, args, in_process=in_process)
            traced_ops = traced_wl.ops()
            traced = run_window(traced_ops, 1, tracer=tracer)
        traced_passes = pass_times(traced, 0)
        tracer.replay_allocations()
        base_ok = check_records(workloads, ops, base, "untraced")
        traced_ok = check_records(workloads, traced_ops, traced, "traced")
    finally:
        for w in (wl, traced_wl):
            if hasattr(w, "close"):
                w.close()
    layers = tracer.summary()
    row = lambda name: layers.get(name, {"calls": 0, "busy_s": 0.0, "peak_alloc_mb": 0.0})
    values = dict(probes)
    for name in ("geometry.diameter", "spheres.min_enclosing_ball",
                 "spheres.circumsphere", "obstruction.obstruction_verdict"):
        values[f"{name}.calls"] = row(name)["calls"]
        values[f"{name}.busy_s"] = row(name)["busy_s"]
        if f"{name}.peak_alloc_mb" in PER_LAYER:
            values[f"{name}.peak_alloc_mb"] = row(name)["peak_alloc_mb"] or 0.0
    values["constructions.busy_s"] = tracer.module_busy("constructions")
    values["trace.overhead_ratio"] = traced_passes[0] / statistics.median(base_passes)

    derived = {f"{m}.busy_s": tracer.module_busy(m) for m in
               ("geometry", "spheres", "obstruction", "spread", "coloring",
                "constructions", "formats", "cli")}
    for fname in ("spread.sample_spread_oracle", "coloring.falsify_coloring"):
        copies = sum(traced_ops[s.op].copies for s in tracer.spans
                     if s.name == fname and isinstance(s.op, int))
        if copies:
            derived[f"{fname}.copies_per_s"] = copies / row(fname)["busy_s"]
    solves = [ok for rec, ok in zip(traced, traced_ok)
              if traced_ops[rec.op].label.startswith("estimate_c")]
    if solves:
        restarts = workloads.SpreadSolve.RESTARTS
        derived["spread.estimate_c.s_per_restart"] = \
            row("spread.estimate_c")["busy_s"] / (row("spread.estimate_c")["calls"] * restarts)
        derived["spread.estimate_c.ref_hit_ratio"] = sum(solves) / len(solves)
    if in_process:
        derived["cli.run_s"] = statistics.median(base_passes)
    emit({"record": "summary", "trace_overhead_ratio": values["trace.overhead_ratio"],
          "speed_factor": speed.factor, "speed_samples": len(speed.samples),
          "untraced_pass_s": base_passes, "traced_pass_s": traced_passes[0],
          "derived": derived, "functions": layers})
    OUT.mkdir(parents=True, exist_ok=True)
    span_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    span_file.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                     "ops": [op.label for op in traced_ops],
                                     "functions": layers, "derived": derived,
                                     "spans": tracer.to_json()}))
    emit({"record": "spans", "path": str(span_file.relative_to(ROOT)),
          "count": len(tracer.spans)})
    failed = (base_ok + traced_ok).count(False)
    # Per-layer times are scaled by the run's median speed sample.
    metrics = {name: {"value": values[name] * speed.factor if unit == "s" else values[name],
                      "unit": unit} for name, unit in PER_LAYER.items()}
    return metrics, len(base) + len(traced), failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("spread_solve", "shell_sampling", "primitives", "cli_session"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one set-up probe, all checks on")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    nproc = cap_blas_threads()
    workloads = import_workloads()
    if args.probe:  # set-up probe: inputs plus one warm-up op, then report ready
        wl = make_workload(workloads, args)
        try:
            wl.ops()[0].run()
            print("ready", flush=True)
        finally:
            if hasattr(wl, "close"):
                wl.close()
        return 0

    emit(environment(args, nproc))
    runner = run_traced if args.trace else run_untraced
    metrics, attempted, failed = runner(workloads, args)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
