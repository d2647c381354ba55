"""One workload in a fresh interpreter; run.py starts it and reads its last line.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS MODE TMPDIR OUTDIR

MODE is ``setup`` (set up, report set-up time, exit), ``run`` (the untraced
measured phase) or ``trace`` (the same ops untraced then traced, plus the desk
section).  The environment variable PERFBENCH_SPAWN_NS holds the
perf_counter_ns reading taken just before this process was spawned; on Linux
it is CLOCK_MONOTONIC, shared by all processes.
"""
import os
import sys
import time

T_SPAWN_NS = int(os.environ["PERFBENCH_SPAWN_NS"])

import json  # noqa: E402
import resource  # noqa: E402
from collections import Counter  # noqa: E402

import numpy as np  # noqa: E402

import twofold as tf  # noqa: E402
from calibration import SpeedSampler, kernel_seconds  # noqa: E402
from tracing import SPAN_GROUPS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DESK = (1.0, 0.04, 1.0)


def main():
    name, seed, seconds, mode, tmpdir, outdir = sys.argv[1:7]
    seed, seconds = int(seed), float(seconds)
    src = os.path.realpath(os.path.join(os.path.dirname(__file__), "..", "src"))
    if not os.path.realpath(tf.__file__).startswith(src + os.sep):
        sys.exit(f"twofold was imported from {tf.__file__}, not from {src}")
    wl = WORKLOADS[name](seed, tmpdir)
    setup_s = (time.perf_counter_ns() - T_SPAWN_NS) / 1e9
    setup = {"setup_s": setup_s, "kernel_s": kernel_seconds()}
    if mode == "setup":
        emit(setup)
        return
    canary = check_op(wl, wl.reference())
    result = {**setup, "canary": canary,
              "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                           "scipy": _scipy_version()}}
    if mode == "run":
        result.update(measure(wl, seconds))
    else:
        result.update(traced(wl, name, seed, seconds, outdir))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    emit(result)


def emit(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def _scipy_version():
    mod = sys.modules.get("scipy")
    return getattr(mod, "__version__", None)


def validate(wl, inp, out):
    """None when the op's output is valid, else a short reason."""
    try:
        return wl.check(inp, out)
    except (OSError, ValueError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def check_op(wl, inp):
    """Run one op untimed; None when it succeeds with valid output, else why not."""
    try:
        out = wl.call(inp)
    except Exception as exc:  # a failed op, reported by class
        return f"{type(exc).__name__}: {exc}"
    return validate(wl, inp, out)


def run_ops(wl, count, tracer=None):
    """The first ``count`` ops of the workload, from index 0, in a closed loop.

    Returns (wall latencies in s, the same scaled to reference speed,
    failures by reason, bytes written by valid ops).  With a tracer, spans
    are recorded while each op runs and only then.
    """
    clock = time.perf_counter
    spans, failures, written = [], Counter(), 0
    with SpeedSampler() as speed:
        for i in range(count):
            inp = wl.input(i)
            if tracer is not None:
                tracer.op, tracer.active = i, True
            t0 = clock()
            try:
                out = wl.call(inp)
                err = None
            except Exception as exc:  # counted as a failed op
                out, err = None, type(exc).__name__
            t1 = clock()
            if tracer is not None:
                tracer.active = False
            spans.append((t0, t1))
            if err is None:
                reason = validate(wl, inp, out)
                if reason is not None:
                    err = "invalid output: " + reason
                elif hasattr(wl, "output_bytes"):
                    written += wl.output_bytes()
            if err is not None:
                failures[err] += 1
    raw = [t1 - t0 for t0, t1 in spans]
    return raw, [speed.scale(t0, t1) for t0, t1 in spans], failures, written


def op_count(rounds_per_s: float, round_size: int, seconds: float) -> int:
    """Whole rounds for ``seconds`` at ``rounds_per_s``, at least one.

    The count depends on --seconds only, never on how fast the ops run, so a
    seed always gives the same ops and the same failures."""
    return max(1, round(rounds_per_s * seconds)) * round_size


def measure(wl, seconds: float):
    raw, scaled, failures, _ = run_ops(wl, op_count(wl.run_rounds_per_s, wl.round_size, seconds))
    return {"latencies": scaled, "raw_latencies": raw, "failures": dict(failures)}


def traced(wl, name, seed, seconds, outdir):
    count = op_count(wl.trace_rounds_per_s, wl.round_size, seconds)
    desk = desk_timings()
    _, plain_lat, _, _ = run_ops(wl, count=count)

    tracer = Tracer()
    tracer.install()
    raw_lat, traced_lat, failures, written = run_ops(wl, count=count, tracer=tracer)
    counts = dict(tracer.counts)
    desk.update(desk_residual_evals(tracer))
    tracer.uninstall()
    tracer.write_spans(os.path.join(outdir, f"spans-{name}-seed{seed}.csv.gz"))
    points = (sum(wl.grid_points(wl.input(i)) for i in range(count))
              if hasattr(wl, "grid_points") else 0)
    return {"latencies": traced_lat, "raw_latencies": raw_lat, "plain_latencies": plain_lat,
            "failures": dict(failures), "layers": layer_report(tracer, count, counts),
            "output_bytes": written, "band_points": points, "desk": desk}


def layer_report(tracer, count, counts):
    ops = set(range(count))
    by_name, module_ns = tracer.summary(ops)
    groups = {}
    for prefix, names in SPAN_GROUPS.items():
        if not any(tracer.has(n) for n in names):
            groups[prefix] = None  # renamed away: reported as absent
            continue
        calls = sum(by_name.get(n, (0, 0, 0))[0] for n in names)
        self_ns = sum(by_name.get(n, (0, 0, 0))[1] for n in names)
        failed = sum(tracer.failed[n] for n in names)
        groups[prefix] = {"calls": calls, "self_ns": self_ns, "failed": failed}
    inside_newton = tracer.descendants_by_ancestor("cycles.find_cycle_newton", ops)
    return {
        "groups": groups,
        "by_name": by_name,
        "module_self_ns": module_ns,
        "counts": counts,
        "z_observable": tracer.has("flow.z_closed_form")
                        and not counts.get("z_closed_form_opaque"),
        "half_returns_in_newton": inside_newton["returns.half_return_X"]
                                  + inside_newton["returns.half_return_Y"],
        "newton_failed": tracer.failed["cycles.find_cycle_newton"],
    }


def _per_call_us(speed, fn, *args, repeat=5, min_s=0.01):
    """Time ``repeat`` batches of calls; returns a function that gives the
    median time of one call in us at reference speed once ``speed`` has
    stopped sampling."""
    clock = time.perf_counter
    n = 1
    while True:
        t0 = clock()
        for _ in range(n):
            fn(*args)
        if clock() - t0 >= min_s:
            break
        n *= 2
    batches = []
    for _ in range(repeat):
        t0 = clock()
        for _ in range(n):
            fn(*args)
        batches.append((t0, clock()))
    return lambda: float(np.median([speed.scale(a, b) for a, b in batches])) / n * 1e6


def desk_timings():
    """Per-call times of the layers on the desk case C=1, H=0.04, Lambda=1."""
    p = tf.resonant_system(*DESK)
    seed = tf.asymptotic_seed(p)
    cycle = tf.find_cycle_newton(p, seed)
    s0 = [cycle.p0[0], cycle.p0[1], 0.0]
    cases = {
        "eval_X": (getattr(tf, "eval_X", None), (p, s0)),
        "flow_X": (getattr(tf, "flow_X", None), (p, s0, cycle.t_x)),
        "fundamental_Y": (getattr(tf, "fundamental_Y", None), (p, cycle.t_y)),
        "half_return_X": (getattr(tf, "half_return_X", None), (p, cycle.p0)),
        "half_return_Y": (getattr(tf, "half_return_Y", None), (p, cycle.p0)),
        "find_cycle_newton": (tf.find_cycle_newton, (p, seed)),
        "monodromy": (tf.monodromy, (p, cycle)),
        "return_map": (getattr(tf, "return_map", None), (p, cycle.p0)),
    }
    with SpeedSampler() as speed:
        timers = {k: (None if fn is None else _per_call_us(speed, fn, *args))
                  for k, (fn, args) in cases.items()}
    return {f"{k}_us": (None if t is None else t()) for k, t in timers.items()}


def desk_residual_evals(tracer):
    """half_return_X calls made by one traced desk solve."""
    p = tf.resonant_system(*DESK)
    seed = tf.asymptotic_seed(p)
    tracer.op, tracer.active = "desk", True
    try:
        tf.find_cycle_newton(p, seed)
    finally:
        tracer.active = False
    if not tracer.has("returns.half_return_X"):
        return {"newton_residual_evals": None}
    n = sum(1 for s in tracer.spans if s[4] == "desk" and s[0] == "returns.half_return_X")
    return {"newton_residual_evals": n}


if __name__ == "__main__":
    main()
