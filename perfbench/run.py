#!/usr/bin/env python3
"""twofold benchmark: three closed-loop workloads, validated outputs, traced layers.

    python3 perfbench/run.py --workload {cycles,band,trajectory} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root; twofold is imported from ./src, nothing is
installed.  Each workload runs in fresh child interpreters (worker.py) with
the BLAS/OpenMP thread pools pinned to one thread:

* ``--trace 0`` starts SETUP_PROBES set-up-only children and one measuring
  child, and prints the end-to-end metrics;
* ``--trace 1`` runs a fixed, seeded list of ops once untraced and once with
  every public twofold function wrapped in a span, times the desk case, probes
  ``python -X importtime``, and prints the per-layer metrics.

Times are scaled to a reference machine speed by a calibration kernel
sampled all through each measured phase (calibration.py); the wall-clock
figures are printed next to them.

The last line of stdout is the result JSON.  Spans and a full record of each
run (git SHA, versions, nproc, seed, failures) go to .perfbench/ in the
repository root; CLI outputs go to a temporary directory there that is
removed on exit.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from calibration import REF_KERNEL_S, kernel_seconds

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUTDIR = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("cycles", "band", "trajectory")  # as in workloads.py, which imports twofold
SETUP_PROBES = 6
IMPORTTIME_PROBES = 3
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=SRC)
    return env


def remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"time limit of {TIME_LIMIT_S:.0f} s reached")
    return left


def run_worker(args, mode: str, tmpdir: str, deadline: float) -> dict:
    env = child_env()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), args.workload,
           str(args.seed), str(args.seconds), mode, tmpdir, OUTDIR]
    kernel_before_s = kernel_seconds()
    env["PERFBENCH_SPAWN_NS"] = str(time.perf_counter_ns())
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining(deadline))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"worker ({mode}) did not finish in time") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker ({mode}) exited with code {proc.returncode}")
    return {**json.loads(lines[-1]), "kernel_before_s": kernel_before_s}


IMPORT_PROBE = ("import twofold, sys; sys.path.insert(0, sys.argv[1]); "
                "from calibration import kernel_seconds; print(kernel_seconds())")


def import_times(deadline: float) -> dict:
    """Median cumulative import time of twofold and of scipy.optimize, in s,
    scaled to reference speed by a kernel run right after the import."""
    samples = {"twofold": [], "scipy.optimize": []}
    for _ in range(IMPORTTIME_PROBES):
        try:
            proc = subprocess.run([sys.executable, "-X", "importtime", "-c", IMPORT_PROBE, HERE],
                                  env=child_env(), cwd=ROOT, capture_output=True, text=True,
                                  timeout=remaining(deadline))
        except subprocess.TimeoutExpired as exc:
            raise BenchError("import-time probe did not finish in time") from exc
        if proc.returncode != 0:
            raise BenchError(f"import twofold failed:\n{proc.stderr[-2000:]}")
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1e6
        speed = REF_KERNEL_S / float(proc.stdout.split()[-1])
        for name in samples:
            samples[name].append(cumulative.get(name, 0.0) * speed)
    return {name: statistics.median(vals) for name, vals in samples.items()}


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile (numpy's default), q in [0, 1]."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def scaled_setup(sample: dict) -> float:
    """Set-up time at reference speed, from kernel runs just before the spawn
    and just after set-up."""
    kernel_s = (sample["kernel_before_s"] + sample["kernel_s"]) / 2.0
    return sample["setup_s"] * REF_KERNEL_S / kernel_s


def timings(lat: list, failed: int, setups: list) -> dict:
    """Set-up, throughput and latency figures from per-op latencies in s."""
    lat_ms = [x * 1e3 for x in lat]
    return {"setup_s": statistics.median(setups),
            "ops_per_s": (len(lat) - failed) / sum(lat),
            "op_p50_ms": quantile(lat_ms, 0.5),
            "op_p90_ms": quantile(lat_ms, 0.9)}


def end_to_end(worker: dict, setups: list) -> tuple:
    attempted = len(worker["latencies"])
    failed = sum(worker["failures"].values())
    scaled = timings(worker["latencies"], failed, [scaled_setup(x) for x in setups])
    wall = timings(worker["raw_latencies"], failed, [x["setup_s"] for x in setups])
    units = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms"}
    metrics = {key: metric(value, units[key]) for key, value in scaled.items()}
    metrics["ok_frac"] = metric((attempted - failed) / attempted, "ratio")
    metrics["peak_rss_mb"] = metric(worker["peak_rss_mb"], "MB")
    samples = {"setup_s": len(setups), "ops_per_s": attempted, "op_p50_ms": attempted,
               "op_p90_ms": attempted, "ok_frac": attempted, "peak_rss_mb": 1}
    return metrics, samples, attempted, failed, wall


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(worker: dict, imports: dict) -> dict:
    layers = worker["layers"]
    groups = layers["groups"]
    counts = layers["counts"]
    op_ns = sum(worker["latencies"]) * 1e9
    speed = op_ns / (sum(worker["raw_latencies"]) * 1e9)

    def g(prefix, field, scale=1):
        data = groups.get(prefix)
        if data is None:
            return None
        return data[field] * scale * (speed if field == "self_ns" else 1)

    hr_calls = g("returns.half_return", "calls")
    newton_calls = g("cycles.newton", "calls")
    z_points = counts.get("z_points", 0) if layers["z_observable"] else None
    band_self_s = g("stability.band", "self_ns", 1e-9)
    cli_self_s = g("cli.main", "self_ns", 1e-9)
    m = {
        "returns.half_return.calls": (hr_calls, "count"),
        "returns.half_return.self_ms": (g("returns.half_return", "self_ns", 1e-6), "ms"),
        "returns.half_return.failed": (g("returns.half_return", "failed"), "count"),
        "returns.half_return.op_share": (
            None if hr_calls is None
            else _ratio(g("returns.half_return", "self_ns"), op_ns), "ratio"),
        "returns.brent_iters_per_half_return": (
            None if hr_calls is None
            else _ratio(counts.get("half_return_iterations", 0), hr_calls), "iters/call"),
        "returns.first_crossing.calls": (g("returns.first_crossing", "calls"), "count"),
        "returns.first_crossing.self_ms": (g("returns.first_crossing", "self_ns", 1e-6), "ms"),
        "flow.z_points": (z_points, "count"),
        "flow.z_points_per_half_return": (
            None if z_points is None or hr_calls is None
            else _ratio(z_points, hr_calls), "points/call"),
        "flow.flow.calls": (g("flow.flow", "calls"), "count"),
        "flow.flow.self_ms": (g("flow.flow", "self_ns", 1e-6), "ms"),
        "flow.fundamental.calls": (g("flow.fundamental", "calls"), "count"),
        "flow.fundamental.self_ms": (g("flow.fundamental", "self_ns", 1e-6), "ms"),
        "cycles.newton.calls": (newton_calls, "count"),
        "cycles.newton.self_ms": (g("cycles.newton", "self_ns", 1e-6), "ms"),
        "cycles.newton.converged_ratio": (
            None if newton_calls is None
            else _ratio(newton_calls - layers["newton_failed"], newton_calls), "ratio"),
        "cycles.newton.half_returns_per_solve": (
            None if newton_calls is None or hr_calls is None
            else _ratio(layers["half_returns_in_newton"], newton_calls), "calls/solve"),
        "invariants.branch_x.calls": (g("invariants.branch_x", "calls"), "count"),
        "invariants.branch_x.self_ms": (g("invariants.branch_x", "self_ns", 1e-6), "ms"),
        "invariants.conic.calls": (g("invariants.conic", "calls"), "count"),
        "stability.monodromy.calls": (g("stability.monodromy", "calls"), "count"),
        "stability.monodromy.self_ms": (g("stability.monodromy", "self_ns", 1e-6), "ms"),
        "stability.band.self_ms": (g("stability.band", "self_ns", 1e-6), "ms"),
        "stability.band.points_per_s": (
            None if band_self_s is None else _ratio(worker["band_points"], band_self_s), "1/s"),
        "sigma.classify_point.calls": (g("sigma.classify_point", "calls"), "count"),
        "sigma.classify_point.self_ms": (g("sigma.classify_point", "self_ns", 1e-6), "ms"),
        "system.eval.calls": (g("system.eval", "calls"), "count"),
        "cli.main.self_ms": (g("cli.main", "self_ns", 1e-6), "ms"),
        "cli.output_bytes": (worker["output_bytes"], "bytes"),
        "cli.output_mb_per_s": (
            None if cli_self_s is None
            else _ratio(worker["output_bytes"] / 1e6, cli_self_s), "MB/s"),
        "setup.import_s": (imports["twofold"], "s"),
        "setup.import_scipy_s": (imports["scipy.optimize"], "s"),
        "trace.overhead_frac": (
            sum(worker["latencies"]) / sum(worker["plain_latencies"]) - 1.0, "ratio"),
    }
    for key, value in worker["desk"].items():
        m[f"desk.{key}"] = (value, "count" if key == "newton_residual_evals" else "us")
    return {name: metric(value, unit) for name, (value, unit) in m.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "twofold", "__init__.py")):
        print(f"perfbench: no twofold sources under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    os.makedirs(OUTDIR, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix=f"tmp-{args.workload}-", dir=OUTDIR)
    try:
        if args.trace:
            imports = import_times(deadline)
            worker = run_worker(args, "trace", tmpdir, deadline)
        else:
            setups = [run_worker(args, "setup", tmpdir, deadline)
                      for _ in range(SETUP_PROBES)]
            worker = run_worker(args, "run", tmpdir, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "git_sha": git_sha(), "nproc": len(os.sched_getaffinity(0)),
              **worker["versions"], "canary": worker["canary"], "failures": worker["failures"]}
    if args.trace:
        attempted = len(worker["latencies"])
        failed = sum(worker["failures"].values())
        metrics = per_layer(worker, imports)
        samples = {name: attempted for name in metrics}
        record["module_self_ms"] = {k: v / 1e6 for k, v in worker["layers"]["module_self_ns"].items()}
        record["functions"] = worker["layers"]["by_name"]
    else:
        setups.append(worker)
        metrics, samples, attempted, failed, record["wall"] = end_to_end(worker, setups)
    record["metrics"] = metrics
    record["samples"] = samples

    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUTDIR, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print("record " + json.dumps({k: record[k] for k in (
        "workload", "seed", "trace", "git_sha", "python", "numpy", "scipy", "nproc")}))
    for reason, n in sorted(worker["failures"].items()):
        print(f"failed op x{n}: {reason}")
    if worker["canary"] is not None:
        print(f"reference op failed: {worker['canary']}")
    for key, m in metrics.items():
        value = "absent" if m["value"] is None else f"{m['value']:.6g}"
        wall = record.get("wall", {}).get(key)
        wall = "" if wall is None else f"  (wall {wall:.6g})"
        print(f"{key:40s} {value:>14s} {m['unit']:12s} n={samples[key]}{wall}")
    result = {"correct": worker["canary"] is None, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
