"""Command-line front end.

Subcommands: simulate, find-cycle, verify-series, classify-conic,
stability-band, scan.  Single-object results are emitted as JSON, grids and
series as CSV (UTF-8, LF, '.' decimal separator).  A JSON config file can
supply any flag value; explicit flags win.  Exit codes: 0 success, 1
numerical failure, 2 usage error (a DomainError, raised here or by the library).

Each subcommand imports the library modules it runs when it runs, and NumPy
is imported only by the functions that build arrays: find-cycle,
verify-series, classify-conic and scan never load it.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import re
import stat
import sys
from typing import TYPE_CHECKING

from .errors import DomainError, TwofoldError

if TYPE_CHECKING:  # pragma: no cover
    from .system import SystemParams


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
    import numpy as np

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
    import numpy as np
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


def _row_texts(rows, own, tail: str) -> str:
    """The CSV text of the C-contiguous (n, 5) float64 rows [t, x, y, z, NaN],
    each row its first four reprs joined by ',' and followed by tail, as one
    str: ``orbit.simulate``'s 4096-sample blocks bound n.  own is the
    ``_orjson_differs`` mask of the rows' first four columns.

    The text is one orjson text of the flattened rows, so each row ends in
    the 'null' of its NaN, which one replace turns into tail, with its '+'
    exponents put back by ``_plus_exponents``.  Only where own holds a cell
    is the text split, and only those cells get their own repr ('nan' and
    'inf' among them, never 'null').
    """
    import numpy as np
    import orjson

    text = _plus_exponents(
        orjson.dumps(rows.ravel(), option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode())
    if own.any():
        r, c = np.nonzero(own)
        cells = text.split(",")
        for i, v in zip((5 * r + c).tolist(), rows[r, c].tolist()):
            cells[i] = repr(v)
        text = ",".join(cells)
    return (text + ",").replace(",null,", tail)


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
    # strict JSON: a NaN or infinity is a ValueError (exit 1), not a token
    # that JSON parsers reject
    _write_text(path, [json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"])


def _read(name: str, kind: str, value):
    """The value of flag name as its kind ('float', 'int', 'list' or 'path'),
    whether it is command-line text, a config's JSON value or the declared
    default: one set of usage errors for every source.  None (unset) stays None.

    A bool is no number: a config's true is not C = 1.0 or a grid of 1.  An
    int is exact for integer text and JSON integers, and an integral float
    is accepted from either source (--grid 3.0), but 3.7 is not cut to 3.  A
    list is comma-separated text, whose empty tokens are skipped, a JSON
    list or a bare JSON number, of at least one positive finite float.  A
    path is a non-empty string.
    """
    if value is None or kind == "path" and isinstance(value, str) and value:
        return value
    if kind == "path":
        raise DomainError(f"{name} must be a path, got {value!r}")
    if kind == "list":
        items = ([tok for tok in value.split(",") if tok.strip()] if isinstance(value, str)
                 else value if isinstance(value, list) else [value])
        try:
            values = [_read(name, "float", v) for v in items]
        except DomainError:
            values = []
        if not values or not all(isinstance(v, float) and 0.0 < v < math.inf for v in values):
            raise DomainError(f"--{name} needs a comma-separated list of positive finite values")
        return values
    if isinstance(value, bool):
        raise DomainError(f"{name} must be {'an integer' if kind == 'int' else 'a number'}, "
                          f"got {value!r}")
    if kind == "int" and isinstance(value, (int, str)):
        with contextlib.suppress(ValueError):
            return int(value)
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{name} must be a number, got {value!r}") from None
    if kind == "float":
        return number
    if not number.is_integer():
        raise DomainError(f"{name} must be an integer, got {value!r}")
    return int(number)


def _params_from(values: dict) -> SystemParams:
    from .system import build_system, resonant_system

    missing = [k for k in ("C", "H", "Lambda") if values[k] is None]
    if missing:
        raise DomainError(f"missing required parameter(s): {', '.join(missing)}")
    C, H, L = values["C"], values["H"], values["Lambda"]
    if values.get("A") is None:
        return resonant_system(C, H, L)
    return build_system(values["A"], C, H, L)


# Each subcommand's help and flags, each flag as name -> (kind, default,
# help).  A default is command-line text, read as a flag's text is, and None
# is unset.  Shared by every main call of a process, and never mutated.
_PARAMS = {"C": ("float", None, "real part of the complex pair"),
           "H": ("float", None, "focal-line slope parameter"),
           "Lambda": ("float", None, "fold-visibility parameter")}
_COMMON = {"config": ("path", None, "JSON file of flag values; explicit flags win"),
           "output": ("path", "-", "output path, '-' for stdout")}
_COMMANDS = {
    "simulate": ("integrate a trajectory across the switching plane", {
        "A": ("float", None, "real eigenvalue (default -2C)"), **_PARAMS,
        **{f"{axis}0": ("float", None, f"initial {axis}") for axis in "xyz"},
        "t_max": ("float", "20", "simulation horizon"),
        "dt": ("float", "0.01", "sampling interval"), **_COMMON}),
    "find-cycle": ("locate a symmetric crossing cycle", {**_PARAMS, **_COMMON}),
    "verify-series": ("flight-time expansions vs numeric times", {
        **_PARAMS,
        "v0": ("list", "1e-3,1e-4,1e-5",
               "comma-separated v0 values in (0, inf); one so small that the branch "
               "point at y0 = 1/v0 overflows, e.g. 1e-155, exits 2, and one whose y0 "
               "lies next to the X fold, e.g. 1e12, exits 1 with NoReturnError"),
        **_COMMON}),
    "classify-conic": ("reduced conic coefficients and kind", {**_PARAMS, **_COMMON}),
    "stability-band": ("asymptotic stability region grid", {
        "cmin": ("float", "0.01", "lowest C"), "cmax": ("float", "3", "highest C"),
        "hmin": ("float", "0.001", "lowest H"), "hmax": ("float", "0.999", "highest H"),
        "grid": ("int", "400", "grid count per axis"),
        "boundaries": ("path", None, "output path for boundary polylines CSV"), **_COMMON}),
    # A = -2C, and scan sets H itself
    "scan": ("cycle catalogue over an H grid", {
        "C": _PARAMS["C"], "Lambda": _PARAMS["Lambda"],
        "hmin": ("float", None, "lowest H (default 0.5 H_crit(C))"),
        "hmax": ("float", None, "highest H (default 0.995 H_crit(C))"),
        "count": ("int", "20", "number of H values"), **_COMMON}),
}


def build_parser() -> argparse.ArgumentParser:
    """The parser of _COMMANDS.  It only splits the command line: an unset
    flag is absent from the namespace, and a given one is its text."""
    parser = argparse.ArgumentParser(
        prog="twofold",
        description=("Symmetric crossing limit cycles of a 3D piecewise-linear "
                     "family: simulation, cycle detection, and stability maps."),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, flags) in _COMMANDS.items():
        sp = sub.add_parser(command, help=summary, argument_default=argparse.SUPPRESS)
        for name, (_, default, text) in flags.items():
            names = ["--" + name.replace("_", "-")] + (["-o"] if name == "output" else [])
            sp.add_argument(*names,
                            help=text if default is None else f"{text} (default {default})")
        # read -1.5e-05, -2E+3 and -.5 as numbers, not options (the Python 3.13 rule)
        sp._negative_number_matcher = re.compile(r"-\.?\d")
    parser.commands = sub.choices  # each subcommand's parser by name, for main
    return parser


def _values(command: str, given: dict) -> dict:
    """Every flag of command as its kind: the given flag's text, else the
    config's value, else the declared default."""
    flags, config = _COMMANDS[command][1], {}
    path = _read("config", "path", given.get("config"))
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                config = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise DomainError(f"cannot read config {path!r}: {exc}") from exc
        if not isinstance(config, dict):
            raise DomainError(f"config {path!r} must hold a JSON object")
        for key in config:
            if key.replace("-", "_") not in flags or key == "config":
                raise DomainError(f"config key {key!r} is not a flag of {command}")
        config = {key.replace("-", "_"): value for key, value in config.items()}
    values = {}
    for name, (kind, default, _) in flags.items():
        value = given.get(name, config.get(name))
        values[name] = _read(name, kind, default if value is None else value)
    return values


# ---------------------------------------------------------------------------


def _simulate_rows(p: SystemParams, s0, t_max: float, dt: float):
    """The simulate CSV of ``orbit.simulate``, byte for byte what _write_csv
    writes for its rows: the header, then ``_row_texts`` for each run of
    samples, from one [t, x, y, z, NaN] buffer and one ``_orjson_differs``
    mask per block, and each event's row."""
    import numpy as np

    from .orbit import Event, simulate

    yield "t,x,y,z,field,event,region,saltation_det\n"
    buf = held = None
    for item in simulate(p, s0, t_max, dt):
        if type(item) is Event:
            t, x, y, z, field, kind, region, det = item
            yield _csv_line([t, x, y, z, field or "", kind, region.value,
                             "" if det is None else det])
            continue
        block, lo, hi, field = item
        if block is not held:
            if buf is None or len(buf) < len(block):
                buf = np.empty((len(block), 5))
                buf[:, 4] = np.nan
            held, rows = block, buf[:len(block)]
            rows[:, :4] = block
            own = _orjson_differs(block)
        yield _row_texts(rows[lo:hi], own[lo:hi], f",{field},,,\n")


def cmd_simulate(values: dict) -> int:
    p = _params_from(values)
    for key in ("x0", "y0", "z0"):
        if values[key] is None:
            raise DomainError(f"missing required initial condition --{key}")
    s0 = [values[key] for key in ("x0", "y0", "z0")]
    # the whole text is built before the output opens, so a run that fails
    # part way leaves no partial file
    _write_text(values["output"], list(_simulate_rows(p, s0, values["t_max"], values["dt"])))
    return 0


def cmd_find_cycle(values: dict) -> int:
    from .cycles import find_cycle_newton
    from .stability import monodromy

    p = _params_from(values)
    cycle = find_cycle_newton(p)
    report = monodromy(p, cycle)
    _write_json(values["output"], {
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


def cmd_verify_series(values: dict) -> int:
    from .returns import time_matching_table

    p = _params_from(values)
    table = time_matching_table(p, values["v0"])
    header = ["v0", "tau_x_numeric", "tau_x_series", "tau_y_numeric", "tau_y_series", "tau"]
    rows = [[row[k] for k in header] for row in table]
    _write_csv(values["output"], header, rows)
    return 0


def cmd_classify_conic(values: dict) -> int:
    from .invariants import gamma1_conic

    p = _params_from(values)
    conic = gamma1_conic(p)
    _write_json(values["output"], conic.to_json_dict())
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
    import numpy as np

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


def cmd_stability_band(values: dict) -> int:
    from .stability import stability_band

    result = stability_band((values["cmin"], values["cmax"]),
                            (values["hmin"], values["hmax"]), values["grid"])
    _write_text(values["output"], _band_csv(result))
    if values["boundaries"] is not None:
        _write_text(values["boundaries"], _boundaries_csv(result))
    return 0


def _linspace(lo: float, hi: float, n: int):
    """np.linspace(lo, hi, n)'s values for n >= 1, bit for bit and one at a
    time, with no NumPy: i * step + lo, and the last of n > 1 is hi.  A step
    that underflows to 0 gives i / (n - 1) * (hi - lo) + lo, as NumPy does."""
    div = max(n - 1, 1)
    step = (hi - lo) / div
    for i in range(n - 1):
        yield (i * step if step else i / div * (hi - lo)) + lo
    yield hi if n > 1 else lo


def cmd_scan(values: dict) -> int:
    from .cycles import _check_chart, scan_cycles
    from .stability import critical_h
    from .system import resonant_system

    if values["C"] is None or values["Lambda"] is None:
        raise DomainError("scan requires --C and --Lambda")
    # scan varies H itself; the base H is only a placeholder
    p_base = resonant_system(values["C"], 0.5, values["Lambda"])
    _check_chart(p_base)  # a C or Lambda off the cycle branch fails at every H
    hc = critical_h(p_base.C)
    h_lo = 0.5 * hc if values["hmin"] is None else values["hmin"]
    h_hi = 0.995 * hc if values["hmax"] is None else values["hmax"]
    count = values["count"]
    if not (0.0 < h_lo < 1.0 and 0.0 < h_hi < 1.0 and count >= 1):
        raise DomainError(f"scan needs hmin and hmax in (0, 1) and count >= 1, got "
                         f"{h_lo!r}, {h_hi!r} and {count}")
    entries = scan_cycles(p_base, _linspace(h_lo, h_hi, count))
    header = ["H", "y0", "T", "mu2_re", "mu2_im", "mu3_re", "mu3_im", "stable"]
    rows = []
    for e in entries:
        if e.error is not None:
            print(f"scan: H={e.H!r} failed: {e.error}", file=sys.stderr)
            continue
        mu2, mu3 = e.monodromy.multipliers[1], e.monodromy.multipliers[2]
        rows.append([e.H, e.cycle.p0[1], e.cycle.T,
                     mu2.real, mu2.imag, mu3.real, mu3.imag, int(e.monodromy.stable)])
    _write_csv(values["output"], header, rows)
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built on the first main call."""
    return build_parser()


def main(argv=None) -> int:
    """Run the command line argv (default sys.argv[1:]); return its exit code.

    A command line that starts with a subcommand's name is parsed by that
    subcommand's parser alone, and the top-level parser reports what it
    leaves, as one full parse does; any other, such as --help, takes the
    full parse.
    """
    parser = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in parser.commands:
        command = argv[0]
        namespace, extra = parser.commands[command].parse_known_args(argv[1:])
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
        given = vars(namespace)
    else:
        given = vars(parser.parse_args(argv))
        command = given.pop("command")
    try:
        values = _values(command, given)
        # the handler is looked up now, not bound into the parser, so a
        # rebinding of cmd_* after the first call is seen
        return globals()["cmd_" + command.replace("-", "_")](values)
    except DomainError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (TwofoldError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
