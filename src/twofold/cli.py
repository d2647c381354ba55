"""Command-line front end.

Subcommands: simulate, find-cycle, verify-series, classify-conic,
stability-band, scan.  Single-object results are emitted as JSON, grids and
series as CSV (UTF-8, LF, '.' decimal separator).  A JSON config file can
supply any flag value; explicit flags win.  Exit codes: 0 success, 1
numerical failure, 2 usage error (a DomainError, raised here or by the library).
"""
from __future__ import annotations

import argparse
import json
import math
import re
import sys

import numpy as np

from . import cycles, invariants, returns, stability
from .errors import DivergenceError, DomainError, NoReturnError, TwofoldError
from .sigma import RegionKind, classify_point
from .system import SystemParams, build_system, resonant_system
from .flow import flow_X, flow_Y


def _fmt(value) -> str:
    if isinstance(value, float):  # incl. numpy scalars; shortest round-trip form
        return repr(float(value))
    return str(value)


def _write_text(path: str, chunks):
    """Write the str chunks in order to path ('-' = stdout)."""
    if path == "-":
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)


def _csv_line(cells) -> str:
    return ",".join(_fmt(v) for v in cells) + "\n"


def _write_csv(path: str, header: list[str], rows: list[list]):
    _write_text(path, ["".join(map(_csv_line, [header, *rows]))])


def _write_json(path: str, obj):
    _write_text(path, [json.dumps(obj, indent=2, sort_keys=True) + "\n"])


def _merge_config(args: argparse.Namespace) -> dict:
    merged = dict(vars(args))
    cfg_path = merged.pop("config", None)
    if cfg_path:
        try:
            with open(cfg_path, "r", encoding="utf-8") as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise DomainError(f"cannot read config {cfg_path!r}: {exc}") from exc
        if not isinstance(cfg, dict):
            raise DomainError(f"config {cfg_path!r} must hold a JSON object")
        flags = merged.keys() - {"command", "handler"}
        for key, value in cfg.items():
            dest = key.replace("-", "_")
            if dest not in flags:
                raise DomainError(f"config key {key!r} is not a flag of {merged['command']}")
            if merged.get(dest) is None:
                merged[dest] = value
    return merged


def _number(merged: dict, key: str, default=None, kind=float):
    """merged[key] (a flag or config value) as a kind, or default when unset.

    A value that is not a number is a usage error.
    """
    value = merged.get(key)
    if value is None:
        return default
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{key} must be a number, got {value!r}") from None


def _params_from(merged: dict) -> SystemParams:
    missing = [k for k in ("C", "H", "Lambda") if merged.get(k) is None]
    if missing:
        raise DomainError(f"missing required parameter(s): {', '.join(missing)}")
    C, H, L = (_number(merged, k) for k in ("C", "H", "Lambda"))
    if merged.get("A") is None:
        return resonant_system(C, H, L)
    return build_system(_number(merged, "A"), C, H, L)


def _add_param_flags(sp: argparse.ArgumentParser):
    sp.add_argument("--A", type=float, default=None,
                    help="real eigenvalue (default: -2C; only simulate accepts another)")
    sp.add_argument("--C", type=float, default=None, help="real part of the complex pair")
    sp.add_argument("--H", type=float, default=None, help="focal-line slope parameter")
    sp.add_argument("--Lambda", type=float, default=None, help="fold-visibility parameter")


def _add_common(sp: argparse.ArgumentParser):
    sp.add_argument("--config", default=None, help="JSON file with flag defaults")
    sp.add_argument("--output", "-o", default="-", help="output path ('-' = stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twofold",
        description=("Symmetric crossing limit cycles of a 3D piecewise-linear "
                     "family: simulation, cycle detection, and stability maps."),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="integrate a trajectory across the switching plane")
    _add_param_flags(sp)
    _add_common(sp)
    sp.add_argument("--x0", type=float, default=None)
    sp.add_argument("--y0", type=float, default=None)
    sp.add_argument("--z0", type=float, default=None)
    sp.add_argument("--t-max", type=float, default=None, help="simulation horizon")
    sp.add_argument("--dt", type=float, default=None, help="sampling interval (default 0.01)")
    sp.set_defaults(handler=cmd_simulate)

    sp = sub.add_parser("find-cycle", help="locate a symmetric crossing cycle")
    _add_param_flags(sp)
    _add_common(sp)
    sp.add_argument("--seed", type=float, default=None,
                    help="initial y0 (default: series-head prediction, else a log-grid scan)")
    sp.set_defaults(handler=cmd_find_cycle)

    sp = sub.add_parser("verify-series", help="flight-time expansions vs numeric times")
    _add_param_flags(sp)
    _add_common(sp)
    sp.add_argument("--v0", default=None,
                    help="comma-separated v0 values (default 1e-3,1e-4,1e-5)")
    sp.set_defaults(handler=cmd_verify_series)

    sp = sub.add_parser("classify-conic", help="reduced conic coefficients and kind")
    _add_param_flags(sp)
    _add_common(sp)
    sp.set_defaults(handler=cmd_classify_conic)

    sp = sub.add_parser("stability-band", help="asymptotic stability region grid")
    _add_common(sp)
    sp.add_argument("--cmin", type=float, default=None)
    sp.add_argument("--cmax", type=float, default=None)
    sp.add_argument("--hmin", type=float, default=None)
    sp.add_argument("--hmax", type=float, default=None)
    sp.add_argument("--grid", type=int, default=None, help="grid count per axis (default 400)")
    sp.add_argument("--boundaries", default=None,
                    help="output path for boundary polylines CSV")
    sp.set_defaults(handler=cmd_stability_band)

    sp = sub.add_parser("scan", help="cycle catalogue over an H grid")
    # A = -2C, and scan sets H itself
    sp.add_argument("--C", type=float, default=None, help="real part of the complex pair")
    sp.add_argument("--Lambda", type=float, default=None, help="fold-visibility parameter")
    _add_common(sp)
    sp.add_argument("--hmin", type=float, default=None)
    sp.add_argument("--hmax", type=float, default=None)
    sp.add_argument("--count", type=int, default=None, help="number of H values (default 20)")
    sp.set_defaults(handler=cmd_scan)

    # read -1.5e-05, -2E+3 and -.5 as numbers, not options (the Python 3.13 rule)
    for sp in sub.choices.values():
        sp._negative_number_matcher = re.compile(r"-\.?\d")
    return parser


# ---------------------------------------------------------------------------


def _simulate_rows(p: SystemParams, s0, t_max: float, dt: float):
    """The simulate CSV: the header, then one chunk per flight segment holding
    its samples and the crossing or terminal row that ends it.

    The text is byte for byte what _write_csv writes for those rows; each
    segment's samples come from one flow call on its array of times.
    """
    yield "t,x,y,z,field,event,region,saltation_det\n"
    sample_ts = np.arange(int(np.floor(t_max / dt)) + 1) * dt
    if sample_ts[-1] < t_max - 1e-15:
        sample_ts = np.append(sample_ts, t_max)

    s = np.asarray(s0, dtype=float).copy()
    ztol = 1e-12 * (1.0 + float(np.max(np.abs(s))))
    if s[2] > ztol:
        field = "X"
    elif s[2] < -ztol:
        field = "Y"
    else:
        cls = classify_point(p, s[:2])
        if cls.kind is not RegionKind.CROSSING:
            yield _csv_line([0.0, s[0], s[1], s[2], "", "terminal", cls.kind.value, ""])
            return
        field = "X" if cls.lie_x > 0 else "Y"

    t0 = 0.0
    idx = 0
    on_sigma = abs(s[2]) <= ztol
    while t0 < t_max:
        remaining = t_max - t0
        try:
            tc, _ = returns.first_crossing(p, s, field, remaining, skip_zero_start=on_sigma)
        except NoReturnError:
            tc = None  # orbit stays in its half-space for the rest of the run
        seg_end = t_max if tc is None else t0 + tc
        flow = flow_X if field == "X" else flow_Y
        end = int(np.searchsorted(sample_ts, seg_end + 1e-15, side="right"))
        ts = sample_ts[idx:end]
        with np.errstate(over="ignore", invalid="ignore"):
            states = flow(p, s, ts - t0)
        if not np.isfinite(states).all():
            raise DivergenceError(
                f"the {field} flow overflows floating point by t={float(ts[-1])!r}")
        tail = f",{field},,,\n"
        yield "".join([f"{t!r},{x!r},{y!r},{z!r}{tail}"
                       for t, (x, y, z) in zip(ts.tolist(), states.tolist())])
        idx = end
        if tc is None:
            break
        hit = flow(p, s, tc)
        q = hit[:2]
        cls = classify_point(p, q)
        if field == "X":
            det = cls.lie_y / cls.lie_x if cls.lie_x != 0 else float("nan")
        else:
            det = cls.lie_x / cls.lie_y if cls.lie_y != 0 else float("nan")
        if cls.kind is RegionKind.CROSSING:
            yield _csv_line([t0 + tc, q[0], q[1], 0.0, field, "crossing", cls.kind.value, det])
            field = "Y" if field == "X" else "X"
            s = np.array([q[0], q[1], 0.0])
            t0 = t0 + tc
            on_sigma = True
        else:
            yield _csv_line([t0 + tc, q[0], q[1], 0.0, field, "terminal", cls.kind.value, ""])
            break


def cmd_simulate(merged: dict) -> int:
    p = _params_from(merged)
    for key in ("x0", "y0", "z0"):
        if merged.get(key) is None:
            raise DomainError(f"missing required initial condition --{key}")
    s0 = [_number(merged, key) for key in ("x0", "y0", "z0")]
    if not all(map(math.isfinite, s0)):
        raise DomainError(f"the initial condition must be finite, got {s0!r}")
    t_max = _number(merged, "t_max", 20.0)
    dt = _number(merged, "dt", 0.01)
    if not (0.0 < t_max < math.inf and 0.0 < dt < math.inf):
        raise DomainError("t-max and dt must be positive and finite")
    if not math.isfinite(t_max / dt):
        raise DomainError(f"t-max / dt must be finite, got {t_max!r} / {dt!r}")
    # the whole text is built before the output opens, so a run that fails
    # part way leaves no partial file
    _write_text(merged["output"], list(_simulate_rows(p, s0, t_max, dt)))
    return 0


def cmd_find_cycle(merged: dict) -> int:
    p = _params_from(merged)
    seed = _number(merged, "seed")
    cycle = cycles.find_cycle_newton(p, cycles.asymptotic_seed(p) if seed is None else seed)
    report = stability.monodromy(p, cycle)
    _write_json(merged["output"], {
        "p0": [cycle.p0[0], cycle.p0[1]],
        "p1": [cycle.p1[0], cycle.p1[1]],
        "T": cycle.T,
        "t_x": cycle.t_x,
        "t_y": cycle.t_y,
        "residual": cycle.residual,
        "trace": report.trace,
        "det": report.det,
        "multipliers": [[mu.real, mu.imag] for mu in report.multipliers],
        "stable": report.stable,
    })
    return 0


def cmd_verify_series(merged: dict) -> int:
    p = _params_from(merged)
    raw = merged.get("v0") or "1e-3,1e-4,1e-5"
    items = [tok for tok in raw.split(",") if tok.strip()] if isinstance(raw, str) else raw
    try:
        v0s = [float(v) for v in items]
    except (TypeError, ValueError):
        v0s = []
    if not v0s or any(v <= 0 for v in v0s):
        raise DomainError("--v0 needs a comma-separated list of positive values")
    table = returns.time_matching_table(p, v0s)
    header = ["v0", "tau_x_numeric", "tau_x_series", "tau_y_numeric", "tau_y_series", "tau"]
    rows = [[row[k] for k in header] for row in table]
    _write_csv(merged["output"], header, rows)
    return 0


def cmd_classify_conic(merged: dict) -> int:
    p = _params_from(merged)
    conic = invariants.gamma1_conic(p)
    _write_json(merged["output"], conic.to_json_dict())
    return 0


_BAND_FLAG_CELLS = [",".join(str(code >> bit & 1) for bit in (3, 2, 1, 0)) + "\n"
                    for code in range(16)]


def _band_csv(result):
    """The stability-band grid CSV: the header, then one chunk per C holding
    its rows [C, H, m2, tau_inf, ineq_det, ineq_upper, ineq_lower, inside].

    The text is byte for byte what _write_csv writes for those rows, but
    repr runs once per H for (H, m2), once per C and once per tau, and the
    four flags pick one of 16 fixed cells by their bits.
    """
    yield "C,H,m2,tau_inf,ineq_det,ineq_upper,ineq_lower,inside\n"
    h_cells = [f"{h!r},{m2!r}," for h, m2 in zip(result.hs.tolist(), result.m2.tolist())]
    codes = (8 * result.ineq_det + 4 * result.ineq_upper
             + 2 * result.ineq_lower + result.inside)
    for c, taus, row_codes in zip(result.cs.tolist(), result.tau_inf, codes):
        c_cell = f"{c!r},"
        yield "".join([c_cell + h_cell + repr(tau) + "," + _BAND_FLAG_CELLS[code]
                       for h_cell, tau, code in zip(h_cells, taus.tolist(),
                                                    row_codes.tolist())])


def cmd_stability_band(merged: dict) -> int:
    c_lo, c_hi = _number(merged, "cmin", 0.01), _number(merged, "cmax", 3.0)
    h_lo, h_hi = _number(merged, "hmin", 0.001), _number(merged, "hmax", 0.999)
    grid = _number(merged, "grid", 400, int)
    result = stability.stability_band((c_lo, c_hi), (h_lo, h_hi), grid)
    _write_text(merged["output"], _band_csv(result))
    if merged.get("boundaries"):
        curves = {"upper": result.upper, "lower": result.lower, "hcrit": result.hcrit}
        _write_csv(merged["boundaries"], ["curve", "C", "H"],
                   [[name, c, h] for name, xy in curves.items() for c, h in xy])
    return 0


def cmd_scan(merged: dict) -> int:
    if merged.get("C") is None or merged.get("Lambda") is None:
        raise DomainError("scan requires --C and --Lambda")
    # scan varies H itself; the base H is only a placeholder
    p_base = resonant_system(_number(merged, "C"), 0.5, _number(merged, "Lambda"))
    hc = float(stability.critical_h(p_base.C))
    h_lo, h_hi = _number(merged, "hmin", 0.5 * hc), _number(merged, "hmax", 0.995 * hc)
    count = _number(merged, "count", 20, int)
    if not (0.0 < h_lo < 1.0 and 0.0 < h_hi < 1.0 and count >= 1):
        raise DomainError(f"scan needs hmin and hmax in (0, 1) and count >= 1, got "
                         f"{h_lo!r}, {h_hi!r} and {count}")
    grid = np.linspace(h_lo, h_hi, count)
    entries = cycles.scan_cycles(p_base, grid)
    header = ["H", "y0", "T", "mu2_re", "mu2_im", "mu3_re", "mu3_im", "stable"]
    rows = []
    for e in entries:
        if e.error is not None:
            print(f"scan: H={e.H!r} failed: {e.error}", file=sys.stderr)
            continue
        mu2, mu3 = e.monodromy.multipliers[1], e.monodromy.multipliers[2]
        rows.append([e.H, e.cycle.p0[1], e.cycle.T,
                     mu2.real, mu2.imag, mu3.real, mu3.imag, int(e.monodromy.stable)])
    _write_csv(merged["output"], header, rows)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        merged = _merge_config(args)
        return args.handler(merged)
    except DomainError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (TwofoldError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
