"""Command-line front end.

Subcommands: simulate, find-cycle, verify-series, classify-conic,
stability-band, scan.  Single-object results are emitted as JSON, grids and
series as CSV (UTF-8, LF, '.' decimal separator).  A JSON config file can
supply any flag value; explicit flags win.  Exit codes: 0 success, 1
numerical failure, 2 usage error (a DomainError, raised here or by the library).
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import stat
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


def _orjson_differs(a):
    """Where orjson's text of the float64 array a, after ``_plus_exponents``,
    is not repr's.

    Each value is of one of three kinds:
    (a) orjson writes repr's text: 0, 0 < |v| < 1e-9 (both write '1e-10'
        and '5e-324') and 1e-4 <= |v| < 1e16;
    (b) finite |v| >= 1e16: repr's digits with no '+' in the exponent
        ('1.5e16' for '1.5e+16'), which ``_plus_exponents`` puts back;
    (c) NaN, +-inf and 1e-9 <= |v| < 1e-4, where orjson writes 'null',
        '0.00001' for '1e-05' or '1e-7' for '1e-07': the mask returned,
        of the cells that need their own repr.
    """
    mag = np.abs(a)
    return ~((mag < 1e-9) | (mag >= 1e-4) & (mag < np.inf))


def _plus_exponents(text: str) -> str:
    """orjson's text with repr's '+' in each positive exponent: the text of
    kinds (a) and (b) of ``_orjson_differs`` is then repr's.

    The second replace undoes the first on the negative exponents, which
    orjson writes as repr does below 1e-9; 'null' has no 'e', and no ','
    moves.  A text with no 'e' is returned as it is, after one scan.
    """
    if "e" not in text:
        return text
    return text.replace("e", "e+").replace("e+-", "e-")


def _reprs(a) -> list[str]:
    """repr(float(v)) of each value of the float64 array a, in C order: one
    orjson text split on ',', with its positive exponents given their '+'
    by ``_plus_exponents`` and only the kind-(c) cells of
    ``_orjson_differs`` given their own repr."""
    import orjson  # an 11 ms import, left to the commands that write floats

    a = np.ascontiguousarray(a, dtype=np.float64).ravel()
    if not a.size:
        return []
    cells = _plus_exponents(
        orjson.dumps(a, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode()).split(",")
    idx = np.flatnonzero(_orjson_differs(a))
    for i, v in zip(idx.tolist(), a[idx].tolist()):
        cells[i] = repr(v)
    return cells


_ROW_BLOCK = 512  # rows per text, so no segment-long text is held


def _row_texts(samples, tail: str):
    """The CSV text of the (n, 4) float64 rows of samples, each row its four
    reprs joined by ',' and followed by tail: one str per block of up to
    512 rows.

    A block is one orjson text of an (m, 5) buffer [t, x, y, z, NaN],
    flattened, so each row ends in the 'null' of its NaN, and one replace
    turns every ',null,' into tail.  Each block's positive exponents get
    their '+' back by ``_plus_exponents``.  The kind-(c) cells of
    ``_orjson_differs`` are found once per call, and only a block that holds
    one is split into cells, where only those cells get their own repr
    ('nan' and 'inf' among them, never 'null').
    """
    import orjson

    own = _orjson_differs(samples)
    buf = np.empty((min(len(samples), _ROW_BLOCK), 5))
    buf[:, 4] = np.nan
    for k in range(0, len(samples), _ROW_BLOCK):
        block = samples[k:k + _ROW_BLOCK]
        filled = buf[:len(block)]
        filled[:, :4] = block
        text = orjson.dumps(filled.ravel(), option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode()
        text = _plus_exponents(text)
        rows, cols = np.nonzero(own[k:k + _ROW_BLOCK])
        if rows.size:
            cells = text.split(",")
            for i, v in zip((5 * rows + cols).tolist(), block[rows, cols].tolist()):
                cells[i] = repr(v)
            text = ",".join(cells)
        yield (text + ",").replace(",null,", tail)


_WRITE_BUFFER = 1 << 18  # bytes gathered per write(2) of an output file


def _write_text(path: str, chunks):
    """Write the str chunks in order to path ('-' = stdout).

    A file is written through a 256 KiB buffer: with the default one, the
    text layer passes each chunk over 8 KiB straight to write(2), one call
    per band C row.  An existing file is rewritten in place and then cut at
    the new end, keeping its inode, mode and symlink target.  It is not
    opened with O_TRUNC: truncation frees every block of the old text, which
    the filesystem then allocates again for the new one.  Over an existing
    7.6 MB band CSV on ext4 mounted with discard (2-vCPU VM),
    truncate-then-write took 10-12 ms and the rewrite in place 2 ms.  The
    cut runs in a finally, so a write that fails part way leaves a prefix of
    the new text with no old bytes after it.  Only a regular file is cut:
    /dev/null, a FIFO or a terminal is written as is.
    """
    if path == "-":
        sys.stdout.writelines(chunks)
        return
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", buffering=_WRITE_BUFFER, encoding="utf-8", newline="") as fh:
        try:
            fh.writelines(chunks)
            fh.flush()
        finally:
            # the fd's offset counts the bytes that reached the file, not
            # those still buffered after a failed write
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))


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
        flags = merged.keys() - {"command"}
        for key, value in cfg.items():
            dest = key.replace("-", "_")
            if dest not in flags:
                raise DomainError(f"config key {key!r} is not a flag of {merged['command']}")
            if merged.get(dest) is None:
                merged[dest] = value
    return merged


def _number(merged: dict, key: str, default=None, kind=float):
    """merged[key] (a flag or config value) as a kind, or default when unset.

    A value that is not a number is a usage error, and so is a bool or a
    number with a fractional part where kind is int: a config's 3.7 or true
    is not truncated to 3 or 1.  A bool is no float either: a config's true
    is not C = 1.0.
    """
    value = merged.get(key)
    if value is None:
        return default
    try:
        if kind is float and isinstance(value, bool):
            raise TypeError
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{key} must be a number, got {value!r}") from None
    if kind is int and (isinstance(value, bool) or isinstance(value, float) and number != value):
        raise DomainError(f"{key} must be an integer, got {value!r}")
    return number


def _params_from(merged: dict) -> SystemParams:
    missing = [k for k in ("C", "H", "Lambda") if merged.get(k) is None]
    if missing:
        raise DomainError(f"missing required parameter(s): {', '.join(missing)}")
    C, H, L = (_number(merged, k) for k in ("C", "H", "Lambda"))
    if merged.get("A") is None:
        return resonant_system(C, H, L)
    return build_system(_number(merged, "A"), C, H, L)


def _add_param_flags(sp: argparse.ArgumentParser):
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
    sp.add_argument("--A", type=float, default=None, help="real eigenvalue (default: -2C)")
    _add_param_flags(sp)
    _add_common(sp)
    sp.add_argument("--x0", type=float, default=None)
    sp.add_argument("--y0", type=float, default=None)
    sp.add_argument("--z0", type=float, default=None)
    sp.add_argument("--t-max", type=float, default=None, help="simulation horizon")
    sp.add_argument("--dt", type=float, default=None, help="sampling interval (default 0.01)")

    sp = sub.add_parser("find-cycle", help="locate a symmetric crossing cycle")
    _add_param_flags(sp)
    _add_common(sp)

    sp = sub.add_parser("verify-series", help="flight-time expansions vs numeric times")
    _add_param_flags(sp)
    _add_common(sp)
    sp.add_argument("--v0", default=None,
                    help="comma-separated v0 values in (0, inf) (default "
                         "1e-3,1e-4,1e-5); one so small that the branch point at "
                         "y0 = 1/v0 overflows, e.g. 1e-155, exits 2, and one whose y0 "
                         "lies at the X fold, e.g. 1e12, exits 1 with "
                         "TangentialGrazeError")

    sp = sub.add_parser("classify-conic", help="reduced conic coefficients and kind")
    _add_param_flags(sp)
    _add_common(sp)

    sp = sub.add_parser("stability-band", help="asymptotic stability region grid")
    _add_common(sp)
    sp.add_argument("--cmin", type=float, default=None)
    sp.add_argument("--cmax", type=float, default=None)
    sp.add_argument("--hmin", type=float, default=None)
    sp.add_argument("--hmax", type=float, default=None)
    sp.add_argument("--grid", type=int, default=None, help="grid count per axis (default 400)")
    sp.add_argument("--boundaries", default=None,
                    help="output path for boundary polylines CSV")

    sp = sub.add_parser("scan", help="cycle catalogue over an H grid")
    # A = -2C, and scan sets H itself
    sp.add_argument("--C", type=float, default=None, help="real part of the complex pair")
    sp.add_argument("--Lambda", type=float, default=None, help="fold-visibility parameter")
    _add_common(sp)
    sp.add_argument("--hmin", type=float, default=None)
    sp.add_argument("--hmax", type=float, default=None)
    sp.add_argument("--count", type=int, default=None, help="number of H values (default 20)")

    # read -1.5e-05, -2E+3 and -.5 as numbers, not options (the Python 3.13 rule)
    for sp in sub.choices.values():
        sp._negative_number_matcher = re.compile(r"-\.?\d")
    return parser


# ---------------------------------------------------------------------------


def _simulate_rows(p: SystemParams, s0, t_max: float, dt: float):
    """The simulate CSV: the header, then per flight segment the texts of
    ``_row_texts`` for its samples, one per block of up to 512 rows, and the
    crossing or terminal row that ends it.

    The text is byte for byte what _write_csv writes for those rows; each
    segment's samples and crossing come from one flow call on its times.
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
        s[2] = 0.0  # classified as on the plane, so put on it

    t0 = 0.0
    idx = 0
    while t0 < t_max:
        try:  # first_crossing works in the upper chart: a Y segment passes S s
            tc, _ = returns.first_crossing(p, s if field == "X" else -s[[1, 0, 2]], t_max - t0)
        except NoReturnError:
            tc = None  # orbit stays in its half-space for the rest of the run
        seg_end = t_max if tc is None else t0 + tc
        flow = flow_X if field == "X" else flow_Y
        end = int(np.searchsorted(sample_ts, seg_end + 1e-15, side="right"))
        ts = sample_ts[idx:end]
        # the crossing state is the last row of the segment's stack
        times = ts - t0 if tc is None else np.append(ts - t0, tc)
        with np.errstate(over="ignore", invalid="ignore"):
            states = flow(p, s, times)
        if not np.isfinite(states).all():
            raise DivergenceError(f"the {field} flow overflows floating point "
                                  f"by t={t0 + float(times[-1])!r}")
        tail = f",{field},,,\n"
        yield from _row_texts(np.column_stack((ts, states[:ts.size])), tail)
        idx = end
        if tc is None:
            break
        x, y, _ = states[-1].tolist()
        cls = classify_point(p, (x, y))
        if cls.kind is not RegionKind.CROSSING:
            yield _csv_line([t0 + tc, x, y, 0.0, field, "terminal", cls.kind.value, ""])
            break
        det = cls.lie_y / cls.lie_x if field == "X" else cls.lie_x / cls.lie_y
        yield _csv_line([t0 + tc, x, y, 0.0, field, "crossing", cls.kind.value, det])
        field = "Y" if field == "X" else "X"
        s = np.array([x, y, 0.0])
        t0 = t0 + tc


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
    cycle = cycles.find_cycle_newton(p)
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
    raw = merged.get("v0")
    if isinstance(raw, (int, float)):
        raw = [raw]  # a config's bare number is a one-value list
    raw = raw or "1e-3,1e-4,1e-5"
    items = [tok for tok in raw.split(",") if tok.strip()] if isinstance(raw, str) else raw
    try:
        if any(isinstance(v, bool) for v in items):
            raise TypeError  # a config's true is no v0 = 1.0
        v0s = [float(v) for v in items]
    except (TypeError, ValueError, OverflowError):
        v0s = []
    if not v0s or not all(0.0 < v < math.inf for v in v0s):  # the rule of time_matching
        raise DomainError("--v0 needs a comma-separated list of positive finite values")
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


_BAND_FLAG_CELLS = ["".join("," + str(code >> bit & 1) for bit in (3, 2, 1, 0)) + "\n"
                    for code in range(16)]
_BAND_BLOCK = 4096  # tau cells per orjson text at most, so no whole-grid text is held


def _band_csv(result):
    """The stability-band grid CSV: the header, then one chunk per C holding
    its rows [C, H, m2, tau_inf, ineq_det, ineq_upper, ineq_lower, inside].

    The text is byte for byte what _write_csv writes for those rows.  A C
    chunk is one join of a reused list: the 'C,' cell, then three cells per
    grid row: the 'H,m2,' cell, set once per band; the tau cell; and the
    flag cell ',a,b,c,d\\n' of the four flags, which also carries the 'C,'
    of the next grid row, except in the last.  Along H the flags change only
    where H crosses H_min or H_crit, so a row's flag cells are set run by run
    of equal flag codes, each run by one list multiplication.  The tau cells
    come from one ``_reprs`` text per block of C rows of at most 4096 cells.
    """
    yield "C,H,m2,tau_inf,ineq_det,ineq_upper,ineq_lower,inside\n"
    n_h = result.hs.size
    u8 = np.uint8
    codes = (result.ineq_det.view(u8) << 3 | result.ineq_upper.view(u8) << 2
             | result.ineq_lower.view(u8) << 1 | result.inside.view(u8))
    # the runs of equal codes along H, each by its first flag slot in out,
    # its length and its code; every C row starts a run
    starts = np.ones(codes.shape, dtype=bool)
    np.not_equal(codes[:, 1:], codes[:, :-1], out=starts[:, 1:])
    at = np.flatnonzero(starts)
    slots = (at % n_h * 3 + 3).tolist()
    lengths = np.diff(at, append=codes.size).tolist()
    run_codes = codes.ravel()[at].tolist()
    row_runs = np.searchsorted(at, np.arange(0, codes.size + 1, n_h)).tolist()
    out = [None] * (1 + 3 * n_h)
    out[1::3] = [f"{h},{m2}," for h, m2 in zip(_reprs(result.hs), _reprs(result.m2))]
    c_cells = [c + "," for c in _reprs(result.cs)]
    n_rows = max(1, _BAND_BLOCK // n_h)
    for k in range(0, len(c_cells), n_rows):
        taus = _reprs(result.tau_inf[k:k + n_rows])
        for i, c in enumerate(c_cells[k:k + n_rows], k):
            out[0] = c
            out[2::3] = taus[(i - k) * n_h:(i - k + 1) * n_h]
            lo, hi = row_runs[i], row_runs[i + 1]
            for slot, n, code in zip(slots[lo:hi], lengths[lo:hi], run_codes[lo:hi]):
                out[slot:slot + 3 * n:3] = [_BAND_FLAG_CELLS[code] + c] * n
            out[-1] = _BAND_FLAG_CELLS[code]
            yield "".join(out)


def _boundaries_csv(result):
    """The boundaries CSV: the header, then one row per polyline point of the
    upper, lower and hcrit curves, in that order."""
    yield "curve,C,H\n"
    for name, xy in (("upper", result.upper), ("lower", result.lower),
                     ("hcrit", result.hcrit)):
        cells = iter(_reprs(xy))
        yield "".join([f"{name},{c},{h}\n" for c, h in zip(cells, cells)])


def cmd_stability_band(merged: dict) -> int:
    c_lo, c_hi = _number(merged, "cmin", 0.01), _number(merged, "cmax", 3.0)
    h_lo, h_hi = _number(merged, "hmin", 0.001), _number(merged, "hmax", 0.999)
    grid = _number(merged, "grid", 400, int)
    result = stability.stability_band((c_lo, c_hi), (h_lo, h_hi), grid)
    _write_text(merged["output"], _band_csv(result))
    if merged.get("boundaries"):
        _write_text(merged["boundaries"], _boundaries_csv(result))
    return 0


def cmd_scan(merged: dict) -> int:
    if merged.get("C") is None or merged.get("Lambda") is None:
        raise DomainError("scan requires --C and --Lambda")
    # scan varies H itself; the base H is only a placeholder
    p_base = resonant_system(_number(merged, "C"), 0.5, _number(merged, "Lambda"))
    # a C or Lambda off the cycle branch fails at every H; it also keeps
    # cosh(pi C) in H_crit finite
    cycles._check_chart(p_base)
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built on the first main call."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        merged = _merge_config(args)
        # the handler is looked up now, not bound into the parser, so a
        # rebinding of cmd_* after the first call is seen
        return globals()["cmd_" + args.command.replace("-", "_")](merged)
    except DomainError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (TwofoldError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
