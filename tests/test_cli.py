import contextlib
import copy
import csv
import dataclasses
import errno
import hashlib
import io
import json
import math
import os
import re
import shlex
import stat
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, seed, settings, strategies as st
from hypothesis.extra import numpy as hnp

import twofold
from twofold import (RegionKind, apply_involution, classify_point, critical_h, errors,
                     flow_X, flow_Y, m_gamma1, resonant_system, stability_band,
                     tau_gamma1)
from twofold import cli, orbit
from twofold.cli import (_band_csv, _boundaries_csv, _fmt, _orjson_differs, _reprs,
                         _row_texts)
from twofold.returns import first_crossing

# the package's own source root, so the CLI imports from any working directory
_PYTHONPATH = os.pathsep.join(filter(None, [str(Path(twofold.__file__).parents[1]),
                                            os.environ.get("PYTHONPATH")]))


def run_cli(*args, cwd=None, timeout=None):
    # a numpy overflow or invalid-value warning fails the CLI as it fails a test
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "twofold",
                           *args], capture_output=True, text=True, cwd=cwd, timeout=timeout,
                          env=dict(os.environ, PYTHONPATH=_PYTHONPATH))


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_help_lists_subcommands():
    proc = run_cli("--help")
    assert proc.returncode == 0
    for name in ("simulate", "find-cycle", "verify-series", "classify-conic",
                 "stability-band", "scan"):
        assert name in proc.stdout


def _main_in_process(*args):
    """(exit code, stdout, stderr) of one cli.main call in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(args))
        except SystemExit as exc:  # argparse usage errors exit
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


_GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name, args, sha", [
    ("find_cycle_desk.json", ("find-cycle", "--C", "1", "--H", "0.04", "--Lambda", "1"),
     "319ef2e480d4ba0d1693c1799871ca2b0f398b85fb35a7a37aaf04279eb1a7e2"),
    ("scan_c1.csv", ("scan", "--C", "1", "--Lambda", "1", "--count", "20"),
     "723079092b2dd27ab27956e19efa04f894ae603eb0ad8773eeb4eff753bee8a6"),
])
def test_readme_cycle_outputs_match_their_golden_bytes(tmp_path, name, args, sha):
    # the README's find-cycle and scan examples, byte for byte: the cycle and
    # monodromy fields behind them must not move by one ulp
    golden = (_GOLDEN / name).read_bytes()
    assert hashlib.sha256(golden).hexdigest() == sha
    out = tmp_path / name
    rc, _, err = _main_in_process(*args, "-o", str(out))
    assert (rc, err) == (0, "")
    assert out.read_bytes() == golden


def test_readme_simulate_matches_its_golden_bytes(tmp_path):
    # the README's simulate example, byte for byte: no sample, crossing or
    # cell text may move.  Every state is a fixed-order sum of products with
    # no BLAS call, so OpenBLAS's non-FMA (Prescott) and FMA (Haswell)
    # kernels write the same bytes as the default one
    argv = next(argv for argv in _readme_cli_commands() if argv[0] == "simulate")
    assert argv[-2:] == ["-o", "trajectory.csv"]
    golden = (_GOLDEN / "simulate_readme.csv").read_bytes()
    assert hashlib.sha256(golden).hexdigest() == (
        "f36d2011d8a54d679390b0cc77048551fae6606389080609e14241ec9cfdd88f")
    out = tmp_path / "trajectory.csv"
    rc, _, err = _main_in_process(*argv[:-1], str(out))
    assert (rc, err) == (0, "")
    assert out.read_bytes() == golden
    for core in ("Prescott", "Haswell"):
        proc = subprocess.run([sys.executable, "-m", "twofold", *argv[:-1], "-"],
                              capture_output=True, env=dict(os.environ, PYTHONPATH=_PYTHONPATH,
                                                            OPENBLAS_CORETYPE=core))
        assert (proc.returncode, proc.stderr) == (0, b""), core
        assert proc.stdout == golden, core


# the README stability-band outputs, (bytes, sha256) each, too large to keep
# as golden files: under NumPy's default dispatch, and with its AVX-512 paths
# (X86_V4 and up) switched off, where np.exp along C rounds some C apart
_BAND_README = {
    "band.csv": [
        (13491643, "908709a87e25c95b2dd73675cb0572e0165333b32cd28685cb5fcf11144c0ff9"),
        (13491646, "da4cbb613b0c18c842a558929417e22b0071daff3a2e9076a16eda68ae0f195c")],
    "boundaries.csv": [
        (48654, "782e5d247ec1fe6777c7fd82324eaa15c85bb683cb421e2b81da7af681efb569"),
        (48654, "ee138bf72ba6e8c2b43cdd0e61b798ed37cabc39bdb17afe2436076f532ccf79")],
}


def test_readme_stability_band_matches_its_pinned_hashes(tmp_path):
    # the README's stability-band example, byte for byte: no m2, tau_inf or
    # boundary cell may move.  A machine without AVX-512 writes the second
    # pair by default, so the default run may match either pair, and the
    # run with those paths off must match the second
    argv = next(argv for argv in _readme_cli_commands() if argv[0] == "stability-band")
    assert argv[-4:] == ["-o", "band.csv", "--boundaries", "boundaries.csv"]
    default, plain = tmp_path / "default", tmp_path / "plain"
    default.mkdir()
    plain.mkdir()
    rc, _, err = _main_in_process(*argv[:-3], str(default / "band.csv"), "--boundaries",
                                  str(default / "boundaries.csv"))
    assert (rc, err) == (0, "")
    proc = subprocess.run([sys.executable, "-m", "twofold", *argv], cwd=plain,
                          capture_output=True, env=dict(
                              os.environ, PYTHONPATH=_PYTHONPATH,
                              NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"))
    assert (proc.returncode, proc.stderr) == (0, b"")
    for name, pins in _BAND_README.items():
        for folder, allowed in ((default, pins), (plain, pins[1:])):
            data = (folder / name).read_bytes()
            assert (len(data), hashlib.sha256(data).hexdigest()) in allowed, (folder.name, name)


def test_shared_parser_leaks_no_state(tmp_path, monkeypatch):
    # one process, one parser: every call writes what a fresh process writes
    calls = [
        ("stability-band", "--cmin", "0.2", "--cmax", "1.2", "--hmin", "0.001",
         "--hmax", "0.2", "--grid", "6", "-o", "band.csv", "--boundaries", "bounds.csv"),
        ("simulate", "--C", "1", "--H", "0.04", "--Lambda", "1", "--x0", "219.892",
         "--y0", "8.431", "--z0", "0", "--t-max", "1", "--dt", "0.1", "-o", "traj.csv"),
        ("find-cycle", "--config", "cfg.json", "-o", "cycle.json"),
        ("stability-band", "--grid", "3", "--threads", "2"),
        ("stability-band", "--grid", "4", "--cmin", "0.5", "--hmax", "0.6"),
    ]
    fresh, inproc = tmp_path / "fresh", tmp_path / "inproc"
    for where in (fresh, inproc):
        where.mkdir()
        (where / "cfg.json").write_text(json.dumps({"C": 1, "H": 0.04, "Lambda": 1}))
    built, build_parser = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    cli._parser.cache_clear()
    monkeypatch.chdir(inproc)
    declared = copy.deepcopy(cli._COMMANDS)
    try:
        got = [_main_in_process(*args) for args in calls]
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    assert cli._COMMANDS == declared  # the flag declaration every call reads
    assert [rc for rc, _, _ in got] == [0, 0, 0, 2, 0]
    for args, (rc, out, err) in zip(calls, got):
        proc = run_cli(*args, cwd=fresh)
        assert (rc, out, err) == (proc.returncode, proc.stdout, proc.stderr), args
    files = sorted(p.name for p in fresh.iterdir())
    assert files == sorted(p.name for p in inproc.iterdir())
    for name in files:
        assert (inproc / name).read_bytes() == (fresh / name).read_bytes(), name


def _full_parse(*args):
    """(exit code, stdout, stderr) of one parse of args by a new parser with
    every subcommand, the reference for main's usage bytes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.build_parser().parse_args(list(args))
            rc = None
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("args, rc, piece", [
    ((), 2, "\ntwofold: error: the following arguments are required: command\n"),
    (("no-such-command",), 2, "\ntwofold: error: argument command: invalid choice: "
                              "'no-such-command' (choose from "),
    (("simulate", "--bogus", "1"), 2, "\ntwofold: error: unrecognized arguments: --bogus 1\n"),
    (("find-cycle", "--C=1", "extra", "--H", "2", "-z"), 2,
     "\ntwofold: error: unrecognized arguments: extra -z\n"),
    (("simulate", "--x0"), 2,
     "\ntwofold simulate: error: argument --x0: expected one argument\n"),
    (("simulate", "-h"), 0, "usage: twofold simulate [-h] "),
    (("--help",), 0, "usage: twofold [-h]"),
], ids=["none", "unknown", "simulate-bogus", "find-cycle-extra", "simulate-no-value",
        "simulate-help", "help"])
def test_usage_bytes_match_one_full_parse(monkeypatch, args, rc, piece):
    # a command line that starts with a subcommand's name is parsed by that
    # subcommand's parser alone, with no top-level parse: its usage errors
    # and help write, byte for byte, what one parse by the whole parser
    # writes on this Python, from one parser per process
    built, full, build_parser = [], [], cli.build_parser

    def counted():
        parser = build_parser()
        parse_args = parser.parse_args
        parser.parse_args = lambda argv: full.append(1) or parse_args(argv)
        built.append(parser)
        return parser

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        got = [_main_in_process(*args) for _ in range(2)]
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    assert len(full) == (0 if args and args[0] in cli._COMMANDS else 2)
    monkeypatch.undo()
    want = _full_parse(*args)
    assert got == [want, want]
    code, out, err = want
    text, other = (err, out) if rc else (out, err)
    assert code == rc and other == ""
    assert text.startswith("usage: twofold") and piece in text


def test_usage_error_exit_code():
    assert run_cli("find-cycle").returncode == 2          # missing parameters
    assert run_cli("no-such-command").returncode == 2     # argparse rejection
    assert run_cli("simulate", "--C", "1", "--H", "0.04", "--Lambda", "1",
                   "--y0", "5", "--z0", "0").returncode == 2  # missing --x0


def test_non_finite_inputs_are_usage_errors():
    sim = ("simulate", "--C", "1", "--H", "0.04", "--Lambda", "1")
    start = ("--x0", "1", "--y0", "1", "--z0", "0")
    for args in ((*sim, *start, "--t-max=inf"), (*sim, *start, "--t-max=nan"),
                 (*sim, *start, "--dt=nan"), (*sim, "--x0=nan", "--y0", "1", "--z0", "0"),
                 ("find-cycle", "--C=nan", "--H", "0.04", "--Lambda", "1")):
        proc = run_cli(*args)
        assert proc.returncode == 2, (args, proc.stderr)
        assert proc.stderr.startswith("usage error: ") and proc.stdout == ""


@pytest.mark.parametrize("args", [
    ("scan", "--C", "nan", "--Lambda", "1"),
    ("scan", "--C", "0", "--Lambda", "1"),
    # off the chart of the cycle branch, which no H can mend: find-cycle's checks
    ("scan", "--C", "-1", "--Lambda", "1", "--count", "3"),
    ("scan", "--C", "1", "--Lambda", "-1", "--count", "3"),
    ("stability-band", "--cmin=nan", "--grid", "3", "-o", "-"),
    ("stability-band", "--hmin", "0.5", "--hmax", "0.2", "--grid", "3", "-o", "-"),
    ("stability-band", "--grid", "1", "-o", "-"),
    ("find-cycle", "--C", "1", "--H", "0.04", "--Lambda", "0"),
    ("find-cycle", "--C", "1", "--H", "1.5", "--Lambda", "1"),
    ("verify-series", "--C", "1", "--H", "0.5", "--Lambda", "1", "--v0", "-1e-3"),
    ("classify-conic", "--C", "0", "--H", "0.5", "--Lambda", "1"),
    ("scan", "--C", "1", "--Lambda", "1", "--hmin=nan", "--count", "3"),
    ("scan", "--C", "1", "--Lambda", "1", "--hmin", "1.5", "--hmax", "2"),
    ("scan", "--C", "1", "--Lambda", "1", "--count", "0"),
    ("scan", "--C", "1", "--Lambda", "1", "--count", "-2"),
    ("simulate", "--A", "nan", "--C", "1", "--H", "0.04", "--Lambda", "1",
     "--x0", "1", "--y0", "1", "--z0", "0"),
    ("verify-series", "--C", "1", "--H", "0.5", "--Lambda", "1", "--v0", "inf"),
    ("verify-series", "--C", "1", "--H", "0.5", "--Lambda", "1", "--v0", "1e-3,nan"),
    # H^2 is subnormal, and the series head's discriminant over H^2 overflows
    ("verify-series", "--C", "183.77", "--H", "2.07e-162", "--Lambda", "1"),
    # the branch is charted for visible folds only
    ("find-cycle", "--C", "1", "--H", "0.04", "--Lambda", "-1"),
    # H^2 underflows to 0
    ("find-cycle", "--C", "1", "--H", "1e-163", "--Lambda", "1"),
])
def test_domain_errors_exit_2(args):
    # a DomainError, from a library parameter guard or from the CLI's own
    # checks such as scan's H range and count, is a usage error
    proc = run_cli(*args)
    assert proc.returncode == 2, (args, proc.stderr)
    assert proc.stderr.startswith("usage error: ") and proc.stdout == ""


def test_overflowing_squares_are_a_usage_error():
    # (A - C) ** 2 once overflowed in the field: a traceback, not a usage error
    proc = run_cli("simulate", "--A", "1e160", "--C", "1", "--H", "0.5", "--Lambda", "1",
                   "--x0", "1", "--y0", "1", "--z0", "0", "--t-max", "1", "--dt", "0.5")
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("usage error: ") and proc.stderr.count("\n") == 1
    assert "A=1e+160, C=1.0" in proc.stderr and proc.stdout == ""


@pytest.mark.parametrize("command, flag", [("find-cycle", "--A"), ("verify-series", "--A"),
                                           ("classify-conic", "--A"), ("find-cycle", "--seed")])
def test_removed_flags_are_unrecognized(command, flag):
    # only simulate takes --A, and find-cycle takes no start value: the other
    # subcommands work in A = -2C, where the cycle is the one root of H(t) = H
    proc = run_cli(command, "--C", "1", "--H", "0.04", "--Lambda", "1", flag, "-1")
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.endswith(f"twofold: error: unrecognized arguments: {flag} -1\n")
    assert proc.stdout == ""


def test_help_lists_a_only_for_simulate():
    for command in ("find-cycle", "verify-series", "classify-conic", "simulate"):
        proc = run_cli(command, "--help")
        assert proc.returncode == 0, proc.stderr
        assert ("--A" in proc.stdout) is (command == "simulate"), command
        assert "--seed" not in proc.stdout, command


def test_verify_series_v0_range_ends():
    # a subnormal v0 passes 0 < v0 < inf, but y0 = 1/v0 overflows: a usage
    # error that names v0; at v0 = 1e-155, y0 is finite but the branch point's
    # x^2 overflows: one that names y; a v0 of 1e12 puts y0 = 1e-12 next to
    # the X fold, where the lower flight finds no return (once a tangential start)
    series = ("verify-series", "--C", "1", "--H", "0.5", "--Lambda", "1")
    proc = run_cli(*series, "--v0", "1e-320")
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("usage error: v0 = 1e-320 is too small") and proc.stdout == ""
    proc = run_cli(*series, "--v0", "1e-155")
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("usage error: y = 1e+155 is too large") and proc.stdout == ""
    proc = run_cli(*series, "--v0", "1e12")
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: NoReturnError: ") and proc.stdout == ""


def test_malformed_config_is_usage_error(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    proc = run_cli("find-cycle", "--config", str(bad))
    assert proc.returncode == 2
    # a value that is not a number is a usage error too
    bad.write_text(json.dumps({"C": "abc", "H": 0.5, "Lambda": 1}))
    proc = run_cli("classify-conic", "--config", str(bad))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("usage error: C must be a number, got 'abc'")


@pytest.mark.parametrize("command, cfg, key, value", [
    pytest.param("stability-band", {}, "grid", 3.7, id="grid-3.7"),
    pytest.param("stability-band", {}, "grid", True, id="grid-true"),
    pytest.param("scan", {"C": 1, "Lambda": 1}, "count", 2.9, id="count-2.9"),
    pytest.param("scan", {"C": 1, "Lambda": 1}, "count", True, id="count-true"),
])
def test_config_integer_flag_is_not_truncated(tmp_path, command, cfg, key, value):
    # from a config, a grid of 3.7 was once a 3 x 3 band, and a count of 2.9
    # or true gave 2 or 1 scan rows
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**cfg, key: value}))
    proc = run_cli(command, "--config", str(path), "-o", str(tmp_path / "out.csv"))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == f"usage error: {key} must be an integer, got {value!r}\n"
    assert not (tmp_path / "out.csv").exists()


def test_config_integral_float_is_an_integer(tmp_path):
    # a JSON 3.0 (or 400.0) is the integer it names
    path, out = tmp_path / "cfg.json", tmp_path / "out.csv"
    path.write_text(json.dumps({"grid": 3.0}))
    proc = run_cli("stability-band", "--config", str(path), "-o", str(out))
    assert proc.returncode == 0, proc.stderr
    assert len(read_csv(out)) == 9
    path.write_text(json.dumps({"C": 1, "Lambda": 1, "count": 2.0}))
    proc = run_cli("scan", "--config", str(path), "-o", str(out))
    assert proc.returncode == 0, proc.stderr
    assert [float(row["H"]) for row in read_csv(out)] == pytest.approx(
        [0.5 * critical_h(1.0), 0.995 * critical_h(1.0)])


@pytest.mark.parametrize("command, cfg, key, value, kind", [
    pytest.param("classify-conic", {"H": 0.04, "Lambda": 1}, "C", True, "a number", id="C-true"),
    pytest.param("simulate", {"C": 1, "H": 0.04, "Lambda": 1, "x0": 1, "y0": 1, "z0": 1},
                 "t_max", True, "a number", id="t_max-true"),
    pytest.param("stability-band", {}, "grid", False, "an integer", id="grid-false"),
])
def test_config_bool_is_not_a_number(tmp_path, command, cfg, key, value, kind):
    # a JSON true is a Python bool, an int: float(True) ran classify-conic at
    # C = 1.0 and simulate to t = 1
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**cfg, key: value}))
    proc = run_cli(command, "--config", str(path), "-o", str(tmp_path / "out"))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == f"usage error: {key} must be {kind}, got {value!r}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, key, value", [
    pytest.param("scan", "A", 5, id="A-5"),
    pytest.param("scan", "H", 0.3, id="H-0.3"),
    pytest.param("scan", "colour", "red", id="colour-red"),
    pytest.param("find-cycle", "A", -2, id="find-cycle-A--2"),
    pytest.param("find-cycle", "seed", 20, id="find-cycle-seed-20"),
])
def test_config_key_that_is_not_a_flag_is_usage_error(tmp_path, command, key, value):
    # the config file holds flag defaults: scan has no --A or --H flag and
    # find-cycle no --A or --seed, so a config naming them would otherwise be
    # ignored without a word
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"C": 1, "Lambda": 1, key: value}))
    count = ("--count", "2") if command == "scan" else ()
    proc = run_cli(command, "--config", str(cfg), *count)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == f"usage error: config key {key!r} is not a flag of {command}\n"
    assert proc.stdout == ""


def test_numerical_failure_exit_code():
    # above H_crit the branch has no point: no cycle exists, a numerical
    # outcome rather than a usage error, and the message names the band
    proc = run_cli("find-cycle", "--C", "1", "--H", "0.2", "--Lambda", "1")
    assert proc.returncode == 1
    assert "error" in proc.stderr
    assert proc.stderr.startswith("error: NoCycleError: no symmetric crossing cycle: H = 0.2 "
                                  "lies outside the band (H_graze, H_crit) = (")


def test_find_cycle_json(tmp_path):
    out = tmp_path / "cycle.json"
    proc = run_cli("find-cycle", "--C", "1", "--H", "0.04", "--Lambda", "1",
                   "-o", str(out))
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(out.read_text())
    assert set(payload) >= {"p0", "p1", "T", "residual", "multipliers", "stable"}
    assert payload["stable"] is True
    assert abs(payload["p1"][0] + payload["p0"][1]) <= 1e-8
    assert payload["residual"] <= 1e-9


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"C": 1.0, "H": 0.5, "Lambda": 1.0}))
    out = tmp_path / "conic.json"
    proc = run_cli("classify-conic", "--config", str(cfg), "-o", str(out))
    assert proc.returncode == 0
    assert json.loads(out.read_text())["kind"] == "hyperbola"
    # explicit flag beats the config value
    proc = run_cli("classify-conic", "--config", str(cfg), "--H", "2.0", "-o", str(out))
    assert proc.returncode == 0
    assert json.loads(out.read_text())["kind"] == "ellipse"


def test_config_bare_v0_is_a_one_value_list(tmp_path):
    # a JSON number is read as the one v0 it names, as --v0 0.001 reads it
    path, out = tmp_path / "cfg.json", tmp_path / "series.csv"
    path.write_text(json.dumps({"v0": 0.001}))
    series = ("verify-series", "--C", "1", "--H", "0.5", "--Lambda", "1")
    proc = run_cli(*series, "--config", str(path), "-o", str(out))
    assert proc.returncode == 0, proc.stderr
    flag = run_cli(*series, "--v0", "0.001", "-o", "-")
    assert flag.returncode == 0, flag.stderr
    assert out.read_text() == flag.stdout
    assert [r["v0"] for r in read_csv(out)] == ["0.001"]


_V0_ERROR = "usage error: --v0 needs a comma-separated list of positive finite values\n"


@pytest.mark.parametrize("value", [True, False, [True], 0, [10 ** 400], [], "",
                                   [1e-3, "abc"], {"v0": 1e-3}])
def test_config_v0_that_is_no_positive_float_is_a_usage_error(tmp_path, value):
    # a JSON true is a bool, an int: it is no v0 = 1.0, and false, 0 and []
    # are no request for the default list; an integer past the float range
    # once raised a bare OverflowError
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"v0": value}))
    proc = run_cli("verify-series", "--C", "1", "--H", "0.5", "--Lambda", "1",
                   "--config", str(path), "-o", str(tmp_path / "out"))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == _V0_ERROR
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text", ["", ",", " , ", "abc", "inf,abc", "1e-3,0"])
def test_v0_text_that_names_no_positive_float_is_a_usage_error(tmp_path, text):
    # an empty --v0= once ran the default list, while --v0=, exited 2
    proc = run_cli("verify-series", "--C", "1", "--H", "0.5", "--Lambda", "1", f"--v0={text}",
                   "-o", str(tmp_path / "out"))
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", _V0_ERROR)
    assert not (tmp_path / "out").exists()


def test_verify_series_past_c_3_75():
    # at C = 5 the branch points once failed their conic check with
    # BranchPointError (exit 1); each numeric tau column now meets its
    # series head to 1e-6 relative at v0 = 1e-5 (about 7e-10 measured)
    proc = run_cli("verify-series", "--C", "5", "--H", repr(0.5 * float(critical_h(5.0))),
                   "--Lambda", "1")
    assert proc.returncode == 0, proc.stderr
    rows = list(csv.DictReader(io.StringIO(proc.stdout)))
    assert [r["v0"] for r in rows] == ["0.001", "0.0001", "1e-05"]
    last = rows[-1]
    for axis in "xy":
        numeric, series = float(last[f"tau_{axis}_numeric"]), float(last[f"tau_{axis}_series"])
        assert abs(numeric - series) <= 1e-6 * abs(series), axis


def test_v0_skips_empty_tokens_between_values():
    series = ("verify-series", "--C", "1", "--H", "0.5", "--Lambda", "1")
    proc = run_cli(*series, "--v0=1e-3,,1e-4,")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == run_cli(*series, "--v0", "1e-3,1e-4").stdout
    assert [row["v0"] for row in csv.DictReader(io.StringIO(proc.stdout))] == ["0.001", "0.0001"]


def test_config_sets_the_output_and_an_explicit_flag_wins(tmp_path):
    cfg, out, flag_out = tmp_path / "cfg.json", tmp_path / "x.json", tmp_path / "flag.json"
    cfg.write_text(json.dumps({"C": 1, "H": 0.5, "Lambda": 1, "output": str(out)}))
    proc = run_cli("classify-conic", "--config", str(cfg))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    assert out.read_text() == run_cli(*_DESK_CONIC).stdout
    out.unlink()
    proc = run_cli("classify-conic", "--config", str(cfg), "-o", str(flag_out))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    assert flag_out.read_bytes() == run_cli(*_DESK_CONIC).stdout.encode()
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("boundaries", True), ("output", 5),
                                        ("boundaries", ["b.csv"]), ("output", None)])
def test_config_path_that_is_no_string_is_a_usage_error(tmp_path, key, value):
    # {"boundaries": true} once ended in a TypeError traceback; a JSON null
    # is an unset key, so output falls back to its default '-'
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": 3, key: value}))
    proc = run_cli("stability-band", "--config", str(cfg), cwd=tmp_path)
    if value is None:
        assert proc.returncode == 0 and proc.stdout.startswith("C,H,m2,"), proc.stderr
        return
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"usage error: {key} must be a path, got {value!r}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("args, flag", [
    (("stability-band", "--grid", "3", "-o", "g.csv", "--boundaries", ""), "boundaries"),
    (("stability-band", "--grid", "3", "-o", ""), "output"),
    (("find-cycle", "--C", "1", "--H", "0.04", "--Lambda", "1", "-o", ""), "output"),
    (("find-cycle", "--config", ""), "config"),
])
def test_empty_path_is_a_usage_error(tmp_path, args, flag):
    # --boundaries "" once exited 0 with no boundaries file, and -o "" exited 1
    # with a FileNotFoundError after the compute
    proc = run_cli(*args, cwd=tmp_path)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"usage error: {flag} must be a path, got ''\n"
    assert list(tmp_path.iterdir()) == []


def test_config_empty_output_is_a_usage_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"C": 1, "H": 0.04, "Lambda": 1, "output": ""}))
    proc = run_cli("find-cycle", "--config", str(cfg), cwd=tmp_path)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "usage error: output must be a path, got ''\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("key, value", [("C", "abc"), ("H", "0.04x"), ("C", "")])
def test_a_bad_number_reads_alike_from_flag_and_config(tmp_path, key, value):
    params = {"C": "1", "H": "0.04", "Lambda": "1", key: value}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(params))
    by_flag = run_cli("find-cycle", *[f"--{k}={v}" for k, v in params.items()])
    by_config = run_cli("find-cycle", "--config", str(cfg))
    for proc in (by_flag, by_config):
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"usage error: {key} must be a number, got {value!r}\n"


@pytest.mark.parametrize("argv, exact", [
    (("stability-band", "--grid", "3.0"), ("stability-band", "--grid", "3")),
    (("scan", "--C", "1", "--Lambda", "1", "--count", "2.0"),
     ("scan", "--C", "1", "--Lambda", "1", "--count", "2")),
    (("scan", "--C", "1", "--Lambda", "1", "--count", "2e0"),
     ("scan", "--C", "1", "--Lambda", "1", "--count", "2")),
])
def test_int_flag_accepts_an_integral_float_on_the_command_line(argv, exact):
    # as a config's 3.0 is: --grid 3.0 was an argparse error
    proc, want = run_cli(*argv), run_cli(*exact)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == want.stdout


@pytest.mark.parametrize("text", ["3.7", "inf", "nan", "1e400"])
def test_int_flag_that_is_no_integer_is_a_usage_error(text):
    proc = run_cli("stability-band", "--grid", text, "-o", "-")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"usage error: grid must be an integer, got {text!r}\n"


def test_verify_series_csv(tmp_path):
    out = tmp_path / "series.csv"
    proc = run_cli("verify-series", "--C", "1", "--H", "0.5", "--Lambda", "1",
                   "-o", str(out))
    assert proc.returncode == 0, proc.stderr
    rows = read_csv(out)
    assert [r["v0"] for r in rows] == ["0.001", "0.0001", "1e-05"]
    for row in rows:
        assert abs(float(row["tau_x_numeric"]) - float(row["tau_x_series"])) <= 1e-6
        assert abs(float(row["tau_y_numeric"]) - float(row["tau_y_series"])) <= 1e-5


def test_stability_band_outputs(tmp_path):
    grid_path = tmp_path / "band.csv"
    bounds_path = tmp_path / "bounds.csv"
    args = ("stability-band", "--cmin", "0.5", "--cmax", "1.5",
            "--hmin", "0.002", "--hmax", "0.3", "--grid", "60",
            "-o", str(grid_path), "--boundaries", str(bounds_path))
    proc = run_cli(*args)
    assert proc.returncode == 0, proc.stderr
    rows = read_csv(grid_path)
    assert len(rows) == 60 * 60
    assert set(rows[0]) == {"C", "H", "m2", "tau_inf", "ineq_det", "ineq_upper",
                            "ineq_lower", "inside"}
    assert any(r["inside"] == "1" for r in rows)
    bounds = read_csv(bounds_path)
    cell = (0.3 - 0.002) / 59
    uppers = [r for r in bounds if r["curve"] == "upper"]
    assert uppers
    for r in uppers:
        assert abs(float(r["H"]) - float(critical_h(float(r["C"])))) <= cell
    assert {r["curve"] for r in bounds} == {"upper", "lower", "hcrit"}
    # determinism: identical bytes on a rerun
    first = grid_path.read_bytes()
    proc = run_cli(*args)
    assert proc.returncode == 0
    assert grid_path.read_bytes() == first


def _band_csv_oracle(c_range, h_range, n_c, n_h):
    """(grid CSV, boundaries CSV) of the band, built one cell at a time from
    the scalar closed forms, each boundary point by a scan along its C row."""
    grid = ["C,H,m2,tau_inf,ineq_det,ineq_upper,ineq_lower,inside"]
    curves = {"upper": [], "lower": [], "hcrit": []}
    hs = np.linspace(*h_range, n_h).tolist()
    for C in np.linspace(*c_range, n_c).tolist():
        margins = {"upper": [], "lower": []}
        for H in hs:
            m = m_gamma1(H)
            m2 = float(m * m)  # m ** 2 is pow for a NumPy scalar, which can round apart
            tau = float(tau_gamma1(C, H))
            margins["upper"].append(2.0 + m2 - tau)
            margins["lower"].append(tau + m2)
            flags = (1.0 - m2 > 0.0, 2.0 + m2 - tau > 0.0, tau + m2 > 0.0)
            cells = [repr(C), repr(H), repr(m2), repr(tau)]
            cells += [str(int(bool(f))) for f in flags + (all(flags),)]
            grid.append(",".join(cells))
        for curve, margin in margins.items():
            for j in range(n_h - 1):
                m0, m1 = margin[j], margin[j + 1]
                # m0 * m1 can overflow; a 0.0 between neighbours of opposite
                # sign is a change at hs[j], a 0.0 between two of one sign none
                prev = margin[j - 1] if j else 0.0
                if (m0 < 0.0 < m1 or m1 < 0.0 < m0
                        or m0 == 0.0 and (prev < 0.0 < m1 or m1 < 0.0 < prev)):
                    curves[curve].append(f"{curve},{C!r},"
                                         f"{hs[j] + m0 * (hs[j + 1] - hs[j]) / (m0 - m1)!r}")
                    break
        curves["hcrit"].append(f"hcrit,{C!r},{float(critical_h(C))!r}")
    bounds = ["curve,C,H"] + curves["upper"] + curves["lower"] + curves["hcrit"]
    return "\n".join(grid) + "\n", "\n".join(bounds) + "\n"


def test_stability_band_csv_matches_scalar_oracle(tmp_path):
    # the box holds points inside, above and below the band, and both boundaries
    c_range, h_range = (0.2, 1.2), (0.001, 0.2)
    grid, bounds = _band_csv_oracle(c_range, h_range, 7, 5)
    assert {row[-8:] for row in grid.splitlines()[1:]} == {
        ",1,1,1,1", ",1,1,0,0", ",1,0,1,0"}
    assert {row.split(",")[0] for row in bounds.splitlines()[1:]} == {
        "upper", "lower", "hcrit"}
    assert "".join(_band_csv(stability_band(c_range, h_range, (7, 5)))) == grid
    grid_path, bounds_path = tmp_path / "band.csv", tmp_path / "bounds.csv"
    proc = run_cli("stability-band", "--cmin", "0.2", "--cmax", "1.2",
                   "--hmin", "0.001", "--hmax", "0.2", "--grid", "6",
                   "-o", str(grid_path), "--boundaries", str(bounds_path))
    assert proc.returncode == 0, proc.stderr
    grid, bounds = _band_csv_oracle(c_range, h_range, 6, 6)
    assert grid_path.read_bytes() == grid.encode()
    assert bounds_path.read_bytes() == bounds.encode()
    # C in [6, 9]: most tau_inf values lie past 1e16, written with a '+' put
    # back, and the hcrit curve falls through 1e-9, below which orjson's text
    # is repr's again
    grid, bounds = _band_csv_oracle((6.0, 9.0), (0.001, 0.999), 40, 40)
    assert sum("e+" in row.split(",")[3] for row in grid.splitlines()[1:]) >= 0.9 * 40 * 40
    assert {"e-09", "e-10"} <= {row[-4:] for row in bounds.splitlines()[1:]}
    proc = run_cli("stability-band", "--cmin", "6", "--cmax", "9", "--grid", "40",
                   "-o", str(grid_path), "--boundaries", str(bounds_path))
    assert proc.returncode == 0, proc.stderr
    assert grid_path.read_bytes() == grid.encode()
    assert bounds_path.read_bytes() == bounds.encode()


# rows of 400 to 1500 cells put 2 to 10 C rows in a tau block of
# cli._BAND_BLOCK cells, so most such draws reach a second block
@settings(max_examples=60, deadline=None)
@given(c_lo=st.floats(0.01, 3.0), c_width=st.floats(0.0, 2.0),
       h_lo=st.floats(0.001, 0.99), h_hi=st.floats(0.002, 0.999),
       n_c=st.integers(2, 12), n_h=st.one_of(st.integers(2, 12), st.integers(400, 1500)))
@example(c_lo=0.2, c_width=1.0, h_lo=0.001, h_hi=0.2, n_c=9, n_h=2)
# wholly inside the band (every flag 1), wholly above it and wholly below
# it (inside 0 everywhere): no upper or lower rows in any of the three
@example(c_lo=0.2, c_width=0.1, h_lo=0.4, h_hi=0.5, n_c=3, n_h=11)
@example(c_lo=1.0, c_width=1.0, h_lo=0.2, h_hi=0.9, n_c=12, n_h=5)
@example(c_lo=2.0, c_width=1.0, h_lo=1e-8, h_hi=5e-7, n_c=6, n_h=4)
# an H whose m ** 2 by pow is 0.5006 ulp off, the product 0.4994 ulp
@example(c_lo=1.0, c_width=0.0, h_lo=0.07803846459741555, h_hi=0.11515159854389588,
         n_c=2, n_h=8)
# the --cmin 0.3 --cmax 0.6 --hmin 1e-6 --hmax 1e-3 --grid 7 box: H and m2
# print in exponent form, as 1e-06 and 9.999980000049999e-13
@example(c_lo=0.3, c_width=0.3, h_lo=1e-6, h_hi=1e-3, n_c=7, n_h=7)
# 9 C rows of 1000 cells: tau blocks of 4, 4 and 1 rows, with both
# boundaries; the first H column lies below the band in the first block,
# inside and above it in the second and above it in the third
@example(c_lo=0.2, c_width=1.0, h_lo=0.05, h_hi=0.5, n_c=9, n_h=1000)
# C = 1 with H_min(1) in the first H step and H_crit(1) in the last: the
# flag codes 12, 15, 15, 15, 15, 10, runs of one at both ends
@example(c_lo=1.0, c_width=0.0, h_lo=0.005412721233137776, h_hi=0.04868363251876334,
         n_c=2, n_h=6)
# C = 0.5, H within 4 ulps of H_crit(0.5): the codes 15, 15, 15, 15, 10,
# 15, 10, 10, 10, four runs, one of them a single cell; the upper margin
# there is 0.0 between two positive neighbours, a touch and no boundary point
@example(c_lo=0.5, c_width=0.0, h_lo=0.24885793139390633, h_hi=0.24885793139390655,
         n_c=2, n_h=9)
# the upper margin along the first C row is (0.00385, 0.0, -0.00385): the
# middle H is H_crit(C), and the upper boundary point is that grid point
@example(c_lo=2.2020148549027954, c_width=1.0, h_lo=0.0009899985744201425,
         h_hi=0.000991905923052955, n_c=3, n_h=3)
def test_band_writers_match_scalar_oracle(c_lo, c_width, h_lo, h_hi, n_c, n_h):
    assume(h_lo < h_hi)
    c_range, h_range = (c_lo, c_lo + c_width), (h_lo, h_hi)
    result = stability_band(c_range, h_range, (n_c, n_h))
    grid, bounds = _band_csv_oracle(c_range, h_range, n_c, n_h)
    assert "".join(_band_csv(result)) == grid
    assert "".join(_boundaries_csv(result)) == bounds


def test_stability_band_at_the_float_range_edge(tmp_path):
    # tau_inf reaches 1e158 at C = 58: finite, but the product of two margins
    # is not; from about C = 113 tau_inf itself leaves the float range
    grid_path, bounds_path = tmp_path / "band.csv", tmp_path / "bounds.csv"
    proc = run_cli("stability-band", "--cmin", "56", "--cmax", "58", "--grid", "5",
                   "-o", str(grid_path), "--boundaries", str(bounds_path))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    grid, bounds = _band_csv_oracle((56.0, 58.0), (0.001, 0.999), 5, 5)
    assert grid_path.read_bytes() == grid.encode()
    assert bounds_path.read_bytes() == bounds.encode()
    proc = run_cli("stability-band", "--cmin", "100", "--cmax", "200", "--grid", "3", "-o", "-")
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("usage error: tau_inf at C=150.0, H=0.001 is not finite")
    assert proc.stdout == ""


def test_stability_band_writes_no_boundaries_unasked(tmp_path):
    proc = run_cli("stability-band", "--grid", "3", "-o", "-", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("C,H,m2,tau_inf,")
    assert list(tmp_path.iterdir()) == []


def test_stability_band_default_grid_runtime(tmp_path):
    import time
    grid_path = tmp_path / "band_default.csv"
    bounds_path = tmp_path / "bounds_default.csv"
    start = time.perf_counter()
    proc = run_cli("stability-band", "-o", str(grid_path),
                   "--boundaries", str(bounds_path))
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 60.0
    with open(grid_path, encoding="utf-8") as fh:
        assert sum(1 for _ in fh) == 400 * 400 + 1


def test_scan_catalogue_csv(tmp_path):
    out = tmp_path / "catalogue.csv"
    proc = run_cli("scan", "--C", "1", "--Lambda", "1", "--count", "20", "-o", str(out))
    assert proc.returncode == 0, proc.stderr
    rows = read_csv(out)
    assert set(rows[0]) == {"H", "y0", "T", "mu2_re", "mu2_im", "mu3_re",
                            "mu3_im", "stable"}
    assert sum(r["stable"] == "1" for r in rows) >= 1


def test_stdout_output():
    proc = run_cli("classify-conic", "--C", "1", "--H", "0.5", "--Lambda", "1")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["kind"] == "hyperbola"


_DESK_CONIC = ("classify-conic", "--C", "1", "--H", "0.5", "--Lambda", "1")


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="needs /dev/null")
def test_output_to_dev_null():
    # /dev/null is written but cannot be cut to a length
    for argv in (_DESK_CONIC, ("stability-band", "--grid", "3", "--boundaries", "/dev/null")):
        proc = run_cli(*argv, "-o", "/dev/null")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == ""


def test_rewrite_keeps_inode_and_mode(tmp_path):
    fresh, out = tmp_path / "fresh.json", tmp_path / "out.json"
    assert run_cli(*_DESK_CONIC, "-o", str(fresh)).returncode == 0
    out.write_bytes(b"z" * 2**20)
    out.chmod(0o640)
    before = out.stat()
    assert run_cli(*_DESK_CONIC, "-o", str(out)).returncode == 0
    after = out.stat()
    assert (after.st_ino, stat.S_IMODE(after.st_mode)) == (before.st_ino, 0o640)
    assert out.read_bytes() == fresh.read_bytes()


def test_rewrite_through_a_symlink_writes_its_target(tmp_path):
    fresh, target, link = tmp_path / "fresh.json", tmp_path / "target.json", tmp_path / "link"
    assert run_cli(*_DESK_CONIC, "-o", str(fresh)).returncode == 0
    target.write_bytes(b"z" * 2**20)
    link.symlink_to(target)
    assert run_cli(*_DESK_CONIC, "-o", str(link)).returncode == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == fresh.read_bytes()


# cli.main under a 64 KiB file-size limit; CPython ignores SIGXFSZ, so a
# write past the limit raises EFBIG
_FSIZE_LIMITED_MAIN = (
    "import resource, sys\n"
    "hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]\n"
    "resource.setrlimit(resource.RLIMIT_FSIZE, (1 << 16, hard))\n"
    "from twofold.cli import main\n"
    "sys.exit(main(sys.argv[1:]))\n")


def test_failed_write_leaves_a_prefix_of_the_new_text(tmp_path):
    pytest.importorskip("resource")
    args = ("simulate", "--C", "1", "--H", "0.04", "--Lambda", "1",
            "--x0", "219.892", "--y0", "8.431", "--z0", "0", "--t-max", "20")
    full, out = tmp_path / "full.csv", tmp_path / "out.csv"
    assert run_cli(*args, "-o", str(full)).returncode == 0
    text = full.read_bytes()
    assert len(text) > 1 << 16
    out.write_bytes(b"z" * 2**20)
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c",
                           _FSIZE_LIMITED_MAIN, *args, "-o", str(out)],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=_PYTHONPATH,
                                   PYTHONDONTWRITEBYTECODE="1"))
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith(f"error: OSError: [Errno {errno.EFBIG}]"), proc.stderr
    partial = out.read_bytes()
    assert b"zzzz" not in partial
    assert len(partial) <= 1 << 16 and text.startswith(partial)


def test_scan_is_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ("scan", "--C", "1", "--Lambda", "1", "--count", "4")
    assert run_cli(*base, "-o", str(out1)).returncode == 0
    assert run_cli(*base, "-o", str(out2)).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("args", [
    ("stability-band", "--grid", "3", "--threads", "2", "-o", "-"),
    ("scan", "--C", "1", "--Lambda", "1", "--count", "3", "--threads", "2"),
    ("scan", "--C", "1", "--Lambda", "1", "--count", "3", "--A=5"),
    ("scan", "--C", "1", "--Lambda", "1", "--count", "3", "--H", "0.1"),
])
def test_unknown_flags_are_argparse_errors(args):
    # scan takes only --C and --Lambda of the parameters, and neither
    # subcommand has a --threads option
    proc = run_cli(*args)
    assert proc.returncode == 2, (args, proc.stderr)
    assert "unrecognized arguments: " in proc.stderr and proc.stdout == ""


@pytest.mark.parametrize("args, code, prefix", [
    # C pi past 709, where e^{Ct} on the branch leaves the float range
    (("find-cycle", "--C", "300", "--H", "0.5", "--Lambda", "1"), 2, "usage error: "),
    (("find-cycle", "--C", "-300", "--H", "0.5", "--Lambda", "1"), 2, "usage error: "),
    # e^{Ct} in the crossing walk leaves the float range
    (("simulate", "--C", "300", "--H", "0.5", "--Lambda", "1", "--x0", "1", "--y0", "1",
      "--z0", "1", "--t-max", "10", "--dt", "1"), 1, "error: DivergenceError: "),
    # the sample count t-max / dt is not finite
    (("simulate", "--C", "300", "--H", "0.5", "--Lambda", "1", "--x0", "1", "--y0", "1",
      "--z0", "1", "--t-max", "1e300", "--dt", "1e-300"), 2, "usage error: "),
    # 10^18 samples: np.arange fails to allocate 6.94 EiB before touching memory
    (("simulate", "--C", "1", "--H", "0.04", "--Lambda", "1", "--x0", "1", "--y0", "1",
      "--z0", "0", "--t-max", "1e9", "--dt", "1e-9"), 1, "error: MemoryError: "),
    # 3e302 samples: finite, but past NumPy's maximum array size
    (("simulate", "--C", "1", "--H", "0.04", "--Lambda", "1", "--x0", "1", "--y0", "1",
      "--z0", "0", "--t-max", "300", "--dt", "1e-300"), 2, "usage error: "),
    # an integral grid count past NumPy's maximum array size, as --grid 2.5 is
    (("stability-band", "--grid", "1e300", "-o", "-"), 2, "usage error: "),
])
def test_float_range_failures_are_typed(args, code, prefix):
    proc = run_cli(*args)
    assert proc.returncode == code, (args, proc.stderr)
    assert proc.stderr.startswith(prefix) and proc.stdout == ""
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("C", ["2.2e119", "300", "-300"])
def test_scan_past_the_cosh_range_names_c(C):
    # cosh(pi C) in the default H range overflows from |C| pi of about 710.5;
    # it once warned and then blamed hmin and hmax
    proc = run_cli("scan", "--C", C, "--Lambda", "-0.005", "--count", "3")
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("usage error: ") and f"C={float(C)!r}" in proc.stderr
    assert "Warning" not in proc.stderr and proc.stdout == ""


@pytest.mark.parametrize("C, H", [("1", "1e-160"), ("183.77", "2.07e-162")])
def test_h_below_the_band_exits_1(C, H):
    # the solve runs no series, so an H whose series coefficients are not
    # finite but whose square is positive gets the band's answer
    proc = run_cli("find-cycle", "--C", C, "--H", H, "--Lambda", "1")
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith(f"error: NoCycleError: no symmetric crossing cycle: H = {H} ")
    assert proc.stdout == ""


def test_tiny_c_exits_with_an_empty_band():
    # a subnormal Lambda at a tiny C once ended in a ZeroDivisionError
    # traceback: the band (H_graze, H_crit) rounds to (1, 1)
    proc = run_cli("find-cycle", "--C", "5.619557498025321e-149",
                   "--H", "1.7677918110819456e-08", "--Lambda", "1e-320")
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: NoCycleError: ") and "= (1, 1)" in proc.stderr
    proc = run_cli("scan", "--C", "1e-320", "--Lambda", "1e-320", "--count", "3")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.count("failed: NoCycleError: ") == 3
    assert proc.stdout == "H,y0,T,mu2_re,mu2_im,mu3_re,mu3_im,stable\n"


_EXTREMES = (0.0, 5e-324, 1e-320, 1e-155, 113.0, 226.0, 300.0, 1e200, 1.7e308)
_extreme = st.tuples(
    st.sampled_from([1.0, -1.0]),
    st.one_of(st.sampled_from(_EXTREMES), st.floats(-324.0, 308.0).map(lambda e: 10.0 ** e)),
).map(lambda sm: sm[0] * sm[1])


@st.composite
def _extreme_argv(draw):
    command = draw(st.sampled_from(["find-cycle", "scan", "verify-series", "classify-conic"]))
    C, Lambda = draw(_extreme), draw(_extreme)
    if command == "scan":
        return [command, f"--C={C!r}", f"--Lambda={Lambda!r}",
                f"--count={draw(st.integers(1, 3))}"]
    argv = [command, f"--C={C!r}", f"--H={draw(_extreme)!r}", f"--Lambda={Lambda!r}"]
    if command == "verify-series":
        argv.append(f"--v0={draw(_extreme)!r}")
    return argv


@seed(23)
@settings(max_examples=800, deadline=None)
@given(argv=_extreme_argv())
@example(argv=["find-cycle", "--C=5.619557498025321e-149", "--H=1.7677918110819456e-08",
               "--Lambda=1e-320"])
@example(argv=["scan", "--C=1e-320", "--Lambda=1e-320", "--count=3"])
@example(argv=["scan", "--C=2.2e119", "--Lambda=-0.005", "--count=3"])
@example(argv=["scan", "--C=-300.0", "--Lambda=1.0", "--count=3"])
def test_extreme_values_exit_typed(argv):
    # parameters at and past the ends of the float range end in exit 0, 1 or
    # 2: no RuntimeWarning and no exception other than argparse's SystemExit
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc, _, _ = _main_in_process(*argv)
    assert rc in (0, 1, 2), argv


def test_simulate_on_a_huge_window_ends():
    # this X orbit never meets the plane: z = 0.8 + 0.1 e^{-u/2} (cos u - sin u / 2).
    # --t-max / --dt is finite, but the crossing walk once stepped by pi to
    # t = 1e300 and never ended; the run must end with a typed exit code
    proc = run_cli("simulate", "--C", "-0.5", "--H", "0.2", "--Lambda", "1", "--x0", "0",
                   "--y0", "0.8", "--z0", "0.9", "--t-max", "1e300", "--dt", "1e299",
                   timeout=20)
    assert proc.returncode in (0, 1, 2), proc.stderr
    assert "Traceback" not in proc.stderr


def _readme_cli_commands():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## CLI$.*?^```sh\n(.*?)^```$", readme, re.M | re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("twofold ")]


def test_readme_cli_commands_run(tmp_path):
    commands = _readme_cli_commands()
    assert len(commands) == 6
    fresh, rewritten = tmp_path / "fresh", tmp_path / "rewritten"
    fresh.mkdir()
    rewritten.mkdir()
    for argv in commands:
        proc = run_cli(*argv, cwd=fresh)
        assert proc.returncode == 0, (argv, proc.stderr)
        # again over files 1 MB longer than the outputs: the new text, and
        # none of the old bytes after it
        names = [argv[i + 1] for i, arg in enumerate(argv) if arg in ("-o", "--boundaries")]
        assert names, argv
        for name in names:
            (rewritten / name).write_bytes(b"z" * ((fresh / name).stat().st_size + 2**20))
        proc = run_cli(*argv, cwd=rewritten)
        assert proc.returncode == 0, (argv, proc.stderr)
        for name in names:
            assert (rewritten / name).read_bytes() == (fresh / name).read_bytes(), name


def _reject_constant(token):
    raise ValueError(f"{token} is not strict JSON")


def test_readme_json_outputs_are_strict_json(tmp_path):
    for argv in _readme_cli_commands():
        if argv[0] in ("find-cycle", "classify-conic"):
            rc, _, err = _main_in_process(*argv[:-1], str(tmp_path / argv[-1]))
            assert (rc, err) == (0, "")
            json.loads((tmp_path / argv[-1]).read_text(), parse_constant=_reject_constant)


@pytest.mark.parametrize("argv, code", [
    # x0 overflows to inf: DivergenceError, where the residual check once read
    # inf > inf and wrote "residual": Infinity with a wrong trace
    (("find-cycle", "--C", "1", "--H", "0.04", "--Lambda", "1e306"), 1),
    # the conic's constant term overflows to -inf: DomainError
    (("classify-conic", "--C", "1", "--H", "0.04", "--Lambda", "1e200"), 2),
])
def test_json_outputs_past_the_float_range_exit_nonzero(tmp_path, argv, code):
    out = tmp_path / "out.json"
    rc, _, err = _main_in_process(*argv, "-o", str(out))
    assert rc == code, err
    assert not out.exists()


def test_a_non_finite_json_value_exits_1(tmp_path, monkeypatch):
    # a NaN or infinity that reaches the JSON writer is an error, not a token
    report = twofold.monodromy(resonant_system(1.0, 0.04, 1.0),
                               twofold.find_cycle_newton(resonant_system(1.0, 0.04, 1.0)))
    monkeypatch.setattr(twofold.stability, "monodromy",
                        lambda p, cycle: dataclasses.replace(report, trace=math.nan))
    out = tmp_path / "cycle.json"
    rc, _, err = _main_in_process("find-cycle", "--C", "1", "--H", "0.04", "--Lambda", "1",
                                  "-o", str(out))
    assert rc == 1 and "ValueError" in err
    assert not out.exists()


def _as_json(text):
    """A flag's text as the JSON number it names, else as the string."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def test_readme_cli_commands_read_alike_from_a_config(tmp_path):
    # every flag, -o and --boundaries included, moved into a --config file:
    # numbers as JSON numbers, the rest as strings
    flagged, configured = tmp_path / "flagged", tmp_path / "configured"
    flagged.mkdir()
    configured.mkdir()
    for argv in _readme_cli_commands():
        command, pairs = argv[0], argv[1:]
        cfg = {("output" if flag == "-o" else flag.lstrip("-")): _as_json(value)
               for flag, value in zip(pairs[::2], pairs[1::2])}
        (configured / "cfg.json").write_text(json.dumps(cfg))
        for where, args in ((flagged, argv), (configured, (command, "--config", "cfg.json"))):
            proc = run_cli(*args, cwd=where)
            assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", ""), (args, proc.stderr)
    (configured / "cfg.json").unlink()
    names = sorted(p.name for p in flagged.iterdir())
    assert len(names) == 7 and names == sorted(p.name for p in configured.iterdir())
    for name in names:
        assert (configured / name).read_bytes() == (flagged / name).read_bytes(), name


_START = ("--C", "1", "--H", "0.04", "--Lambda", "1", "--x0", "219.892", "--y0", "8.431",
          "--z0", "0")


@pytest.mark.parametrize("command, base, defaults", [
    ("stability-band", (), ("--cmin", "0.01", "--cmax", "3", "--hmin", "0.001",
                            "--hmax", "0.999", "--grid", "400")),
    ("simulate", _START, ("--t-max", "20", "--dt", "0.01")),
    ("verify-series", ("--C", "1", "--H", "0.5", "--Lambda", "1"), ("--v0", "1e-3,1e-4,1e-5")),
    ("scan", ("--C", "1", "--Lambda", "1"), ("--count", "20")),
])
def test_stated_defaults_are_the_defaults(command, base, defaults):
    # each default named in --help writes what passing it explicitly writes
    left_out, explicit = run_cli(command, *base), run_cli(command, *base, *defaults)
    assert (left_out.returncode, left_out.stderr) == (0, "")
    assert left_out.stdout == explicit.stdout
    proc = run_cli(command, "--help")
    assert proc.returncode == 0, proc.stderr
    help_text = " ".join(proc.stdout.split())  # wrapped as the terminal width allows
    for flag, value in zip(defaults[::2], defaults[1::2]):
        assert f"{flag} " in help_text and f"(default {value})" in help_text, flag


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Library example$.*?^```python\n(.*?)^```$", readme,
                      re.M | re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert "True" in capsys.readouterr().out  # the desk cycle is stable


def test_simulate_closes_a_cycle(tmp_path):
    cyc_path = tmp_path / "cycle.json"
    run_cli("find-cycle", "--C", "1", "--H", "0.04", "--Lambda", "1",
            "-o", str(cyc_path))
    cyc = json.loads(cyc_path.read_text())
    out = tmp_path / "traj.csv"
    proc = run_cli("simulate", "--C", "1", "--H", "0.04", "--Lambda", "1",
                   "--x0", repr(cyc["p0"][0]), "--y0", repr(cyc["p0"][1]),
                   "--z0", "0", "--t-max", repr(cyc["T"]), "--dt", "0.05",
                   "-o", str(out))
    assert proc.returncode == 0, proc.stderr
    rows = read_csv(out)
    states = [r for r in rows if r["event"] == ""]
    first, last = states[0], states[-1]
    assert float(last["t"]) == pytest.approx(cyc["T"])
    start = np.array([float(first["x"]), float(first["y"]), float(first["z"])])
    end = np.array([float(last["x"]), float(last["y"]), float(last["z"])])
    assert np.max(np.abs(end - start)) <= 1e-6
    crossings = [r for r in rows if r["event"] == "crossing"]
    assert len(crossings) >= 1
    q = crossings[0]
    assert float(q["saltation_det"]) == pytest.approx(float(q["x"]) / float(q["y"]))


def test_simulate_terminal_at_sliding_point(tmp_path):
    out = tmp_path / "slide.csv"
    # a start on the sliding region, then one whose orbit dips to z ~ -1e-7
    # near t = 0.945 and meets the plane on the sliding region
    starts = (("--C", "1", "--H", "0.04", "--x0", "1", "--y0", "-1", "--z0", "0"),
              ("--C", "-0.3", "--H", "0.2", "--x0", "0", "--y0", "-0.7760452247418252",
               "--z0", "0.5", "--t-max", "3", "--dt", "0.001"))
    for start in starts:
        proc = run_cli("simulate", *start, "--Lambda", "1", "-o", str(out))
        assert proc.returncode == 0
        rows = read_csv(out)
        assert rows[-1]["event"] == "terminal"
        assert rows[-1]["region"] == "sliding"
        for r in rows[:-1]:
            assert r["field"] == "X"
            assert float(r["z"]) >= -1e-9 * (1 + abs(float(r["x"])) + abs(float(r["y"])))
    assert float(rows[-1]["t"]) == pytest.approx(0.94445, abs=1e-5)


def test_simulate_passes_over_a_touch(tmp_path):
    # the desk-case upper orbit through the visible fold point (-3, 0, 0),
    # flowed back by 0.5: it touches the plane at t = 0.5, where z rounds to
    # -2.2e-16, and stays above it, so the run has no crossing
    out = tmp_path / "touch.csv"
    proc = run_cli("simulate", "--C", "1", "--H", "0.04", "--Lambda", "1",
                   "--x0=-8.180631575431374", "--y0=-0.4677192697843293",
                   "--z0=0.0884664907858187", "--t-max", "1", "--dt", "0.25", "-o", str(out))
    assert proc.returncode == 0, proc.stderr
    rows = read_csv(out)
    assert [float(r["t"]) for r in rows] == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert all((r["event"], r["field"]) == ("", "X") for r in rows)


def test_simulate_start_within_round_off_above_the_plane(tmp_path):
    # z0 = 1e-11 lies above the plane, but the closed form's z(0) rounds to
    # zero or below: the run is the plane start's, where it
    # once exited 1 with TangentialGrazeError.  Its t = 0 row is the start
    # itself, where the closed form at t = 0 once printed z = 0.0
    argv = ("simulate", "--C", "1", "--H", "0.04", "--Lambda", "1e6", "--x0", "1", "--y0",
            "1", "--t-max", "5", "--dt", "1")
    near, plane = run_cli(*argv, "--z0", "1e-11"), run_cli(*argv, "--z0", "0")
    assert (near.returncode, near.stderr) == (0, "")
    near_rows, plane_rows = near.stdout.splitlines(), plane.stdout.splitlines()
    assert near_rows[1] == "0.0,1.0,1.0,1e-11,X,,,"
    assert plane_rows[1] == "0.0,1.0,1.0,0.0,X,,,"
    assert near_rows[2:] == plane_rows[2:]
    crossing = [r for r in csv.DictReader(io.StringIO(near.stdout)) if r["event"]]
    assert [r["t"] for r in crossing] == ["3.940732135693901"]


def test_simulate_start_far_along_x_keeps_its_side():
    # a point of the X orbit through (-1e305, -1e-4, 0), 2 before it: z0 is
    # far above the plane in its chart, however large x0.  A start cutoff
    # 1e-12 (1 + max|s0|) once put it on the plane and flew the Y field
    proc = run_cli("simulate", "--C", "1", "--H", "0.04", "--Lambda", "1",
                   "--x0", "-5.4598150033144235e306", "--y0", "-1.0563260240596093",
                   "--z0", "0.46664196859565615", "--t-max", "1", "--dt", "0.5")
    assert (proc.returncode, proc.stderr) == (0, "")
    rows = list(csv.DictReader(io.StringIO(proc.stdout)))
    assert proc.stdout.splitlines()[1] == ("0.0,-5.4598150033144235e+306,-1.0563260240596093,"
                                           "0.46664196859565615,X,,,")
    assert [r["t"] for r in rows] == ["0.0", "0.5", "1.0"]
    assert all(r["field"] == "X" and float(r["z"]) > 0.0 for r in rows)


def test_simulate_shallow_exit_crosses_where_the_unscaled_orbit_does():
    # Lambda and the start at 1e-12 scale the Lambda = 1 orbit, which
    # crosses at t = 2.613737508100637; the scaled run once exited 1 on an
    # exit-slope cutoff of 1e-10 (1 + |s0|)
    proc = run_cli("simulate", "--C", "1", "--H", "0.5", "--Lambda", "1e-12", "--x0", "0",
                   "--y0", "0", "--z0", "2e-12", "--t-max", "4", "--dt", "0.5")
    assert (proc.returncode, proc.stderr) == (0, "")
    rows = list(csv.DictReader(io.StringIO(proc.stdout)))
    events = [(r["t"], r["z"]) for r in rows if r["event"]]
    assert events[0] == ("2.613737508100637", "0.0")
    assert [r["t"] for r in rows[:6]] == ["0.0", "0.5", "1.0", "1.5", "2.0", "2.5"]


def test_simulate_start_a_subnormal_off_the_fold_does_not_enter():
    # (1, 1e-310, 0) is a crossing point, where the plane cutoff 1e-10 (1 + |q|)
    # once wrote a terminal tangency_x row; its X flight rises by less than
    # rounding, and the crossing walk's touch bound rejects the entry
    proc = run_cli("simulate", "--C", "1", "--H", "0.5", "--Lambda", "1", "--x0", "1",
                   "--y0", "1e-310", "--z0", "0", "--t-max", "1", "--dt", "0.5")
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == ("error: TangentialGrazeError: entry into the half-space is not "
                           "transversal\n") and proc.stdout == ""


def test_simulate_saltation_determinant_past_the_float_range_is_a_graze():
    # A = 144 drives x to -8.7e304 by the exit, whose Lie derivative y is
    # -8.3e-5: the crossing's Yf / Xf leaves the float range.  The plane cutoff
    # 1e-10 (1 + |q|) once called the exit a tangency and wrote a terminal row
    proc = run_cli("simulate", "--A", "144", "--C", "-0.2", "--H", "0.04", "--Lambda", "1",
                   "--x0", "0.01", "--y0", "2.6174250841140747", "--z0", "0", "--t-max", "6",
                   "--dt", "2")
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: GrazingCrossingError: the saltation determinant")
    assert proc.stdout == ""


def test_simulate_readme_example(tmp_path):
    # the return crossing lies 4e-4 before t-max
    out = tmp_path / "trajectory.csv"
    proc = run_cli("simulate", "--C", "1", "--H", "0.04", "--Lambda", "1",
                   "--x0", "219.892", "--y0", "8.431", "--z0", "0",
                   "--t-max", "6.4", "--dt", "0.01", "-o", str(out))
    assert proc.returncode == 0, proc.stderr
    rows = read_csv(out)
    crossings = [float(r["t"]) for r in rows if r["event"] == "crossing"]
    assert crossings[-1] == pytest.approx(6.39960, abs=1e-5)
    last = rows[-1]
    assert float(last["t"]) == pytest.approx(6.4)
    assert (last["event"], last["field"]) == ("", "X")
    assert float(last["z"]) > 0


def _simulate_csv_oracle(C, H, Lambda, x0, y0, z0, t_max, dt):
    """The simulate CSV built one sample at a time from scalar flow calls,
    for a start that is off the plane or on its crossing region; the t = 0
    row is the start itself."""
    p = resonant_system(C, H, Lambda)
    rows = [["t", "x", "y", "z", "field", "event", "region", "saltation_det"]]
    sample_ts = [k * dt for k in range(int(np.floor(t_max / dt)) + 1)]
    if sample_ts[-1] < t_max - 1e-15:
        sample_ts.append(t_max)
    s = np.array([x0, y0, z0])
    field = ("X" if y0 > 0 else "Y") if z0 == 0.0 else (
        "X" if z0 > 0 else "Y")
    t0, k = 0.0, 0
    while t0 < t_max:
        try:
            tc, _ = first_crossing(p, s if field == "X" else apply_involution(s), t_max - t0)
        except errors.NoReturnError:
            tc = None
        seg_end = t_max if tc is None else t0 + tc
        flow = flow_X if field == "X" else flow_Y
        while k < len(sample_ts) and sample_ts[k] <= seg_end + 1e-15:
            st = s if k == 0 else flow(p, s, sample_ts[k] - t0)
            rows.append([sample_ts[k], st[0], st[1], st[2], field, "", "", ""])
            k += 1
        if tc is None:
            break
        q = flow(p, s, tc)[:2]
        region = classify_point(q)
        x, y = float(q[0]), float(q[1])  # Yf = x, Xf = y
        if region is not RegionKind.CROSSING:
            rows.append([t0 + tc, q[0], q[1], 0.0, field, "terminal", region.value, ""])
            break
        rows.append([t0 + tc, q[0], q[1], 0.0, field, "crossing", region.value,
                     x / y if field == "X" else y / x])
        field = "Y" if field == "X" else "X"
        s, t0 = np.array([q[0], q[1], 0.0]), t0 + tc
    return "".join(",".join(_fmt(v) for v in row) + "\n" for row in rows)


@pytest.mark.parametrize("start", [
    (1.0, 0.04, 1.0, 219.892, 8.431, 0.0, 6.4, 0.01),       # README: crossing 4e-4 before t-max
    (-0.3, 0.2, 1.0, 0.0, -0.7760452247418252, 0.5, 3.0, 0.001),  # graze, then sliding
    (-0.28, 0.47, 1.0, 1.4, 6.3, 0.0, 8.0, 0.05),           # on the plane, C < 0
    (-0.4, 0.22, 1.15, -7.8, 7.4, 16.5, 8.0, 0.05),         # off the plane, C < 0
    (1.0, 0.04, 1.0, 219.892, 8.431, 0.0, 12.75, 0.125),    # 4 segments, 102 * dt == t-max
])
def test_simulate_csv_matches_scalar_oracle(tmp_path, start):
    expected = _simulate_csv_oracle(*start)
    assert expected.count(",crossing,") >= 1 or ",terminal," in expected
    _assert_simulate_csv(tmp_path, start, expected)


def _assert_simulate_csv(tmp_path, start, expected):
    out = tmp_path / "traj.csv"
    flags = ("--C", "--H", "--Lambda", "--x0", "--y0", "--z0", "--t-max", "--dt")
    proc = run_cli("simulate", *[f"{flag}={v!r}" for flag, v in zip(flags, start)],
                   "-o", str(out))
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == expected.encode()


@pytest.mark.parametrize("start, block_edge", [
    # the README orbit scaled by 1e-6: nearly every value lies below 1e-4,
    # where orjson's text is not repr's
    ((1.0, 0.04, 1e-6, 219.892e-6, 8.431e-6, 0.0, 6.4, 0.01), False),
    ((1.0, 0.04, 1e-6, 219.892e-6, 8.431e-6, 0.0, 6.4, 0.005), True),  # 640-row segments
], ids=["scaled-desk", "scaled-desk-block-edge"])
def test_simulate_repr_cells_match_scalar_oracle(tmp_path, start, block_edge):
    expected = _simulate_csv_oracle(*start)
    rows = [line.split(",") for line in expected.splitlines()[1:]]
    # repr writes a value in exponent form where orjson's text differs
    patched = ["e" in "".join(row[:4]) for row in rows]
    assert sum(patched) >= 0.9 * len(rows)
    if block_edge:  # the first segment's rows 512 and 513 lie in two 512-row blocks
        assert next(k for k, row in enumerate(rows) if row[5]) > 512
        assert patched[511] and patched[512]
    _assert_simulate_csv(tmp_path, start, expected)


# a trajectory-benchmark start: an X orbit with 1435 values of 1e+16 and
# above (C < 0, no crossing), and no nonzero value below 1e-4
_PAST_1E16 = (-0.8773278276064809, 0.03973082761867977, 1.2162123334729966,
              2.7238392779576315, 0.7052569303124683, 0.0, 35.40593092422011,
              0.01044215465926146)


@pytest.mark.parametrize("start, values", [
    # two trajectory-benchmark starts: the one past 1e16, and one with a
    # value of -7.4e-05
    (_PAST_1E16, r"e\+(1[6-9]|[2-9]\d)"),
    ((0.7270512548982141, 0.024908678558272525, 1.8382140139124026, -3.7827369933409534,
      -1.5654161701974056, 0.0, 35.961148289992124, 0.012459090060531338), r",-7\.4\d*e-05,"),
], ids=["past-1e16", "minus-7.4e-05"])
def test_simulate_exponent_form_matches_scalar_oracle(tmp_path, start, values):
    expected = _simulate_csv_oracle(*start)
    assert re.search(values, expected)
    _assert_simulate_csv(tmp_path, start, expected)


def _simulate_in_process(start):
    """(exit code, stdout, stderr) of simulate from start, as
    (C, H, Lambda, x0, y0, z0, t-max, dt), in this process, where a NumPy
    RuntimeWarning is an error as in run_cli."""
    flags = ("--C", "--H", "--Lambda", "--x0", "--y0", "--z0", "--t-max", "--dt")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return _main_in_process("simulate", *[f"{flag}={v!r}" for flag, v in zip(flags, start)])


# a desk start over 5001 samples: the first 4096-sample block spans 13
# segments, and the segment flown from t = 38.4 runs across its edge
_BLOCK_EDGE = (1.0, 0.04, 1.0, 219.892, 8.431, 0.0, 50.0, 0.01)


@settings(max_examples=40, deadline=None)
@given(C=st.floats(0.15, 1.5), negative=st.booleans(), u=st.floats(0.05, 0.95),
       Lambda=st.floats(0.5, 2.0), log_r=st.floats(-0.5, 1.5), on_plane=st.booleans(),
       theta=st.floats(0.05, math.pi / 2 - 0.05), flip=st.booleans(),
       off=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
       z_off=st.floats(0.05, 1.0), t_max=st.floats(30.0, 40.0), dt=st.floats(0.006, 0.013))
# next to the desk cycle over 5001 samples: 4096-sample blocks across segments
@example(C=1.0, negative=False, u=0.04 / float(critical_h(1.0)), Lambda=1.0, log_r=2.3425,
         on_plane=True, theta=0.0383, flip=False, off=(0.0, 0.0), z_off=0.05, t_max=50.0,
         dt=0.01)
def test_simulate_matches_scalar_oracle_on_trajectory_draws(C, negative, u, Lambda, log_r,
                                                            on_plane, theta, flip, off, z_off,
                                                            t_max, dt):
    # the trajectory benchmark's draw, with dt down to 0.006 so that runs
    # pass 4096 samples: C of either sign, starts in the crossing region
    # x y > 0 of the plane and off it on either side
    r, sign = 10.0 ** log_r, -1.0 if flip else 1.0
    x0, y0, z0 = ((sign * math.cos(theta) * r, sign * math.sin(theta) * r, 0.0) if on_plane
                  else (off[0] * r, off[1] * r, sign * z_off * r))
    start = (-C if negative else C, float(critical_h(C)) * u, Lambda, x0, y0, z0, t_max, dt)
    rc, out, err = _simulate_in_process(start)
    try:
        expected = _simulate_csv_oracle(*start)
    except errors.TwofoldError as exc:
        assert (rc, out) == (1, "") and err.startswith(f"error: {type(exc).__name__}: "), err
        return
    assert (rc, err) == (0, "")
    assert out == expected


def test_simulate_block_edge_inside_a_segment():
    # pass 2 flows 4096 samples per exp(DX tau) stack: the first block holds
    # 12 whole segments, and the 13th has samples on both sides of its edge
    expected = _simulate_csv_oracle(*_BLOCK_EDGE)
    rows = [line.split(",") for line in expected.splitlines()[1:]]
    samples = [k for k, row in enumerate(rows) if not row[5]]
    assert len(samples) == 5001
    before = [row[5] for row in rows[:samples[4095]]]
    assert before.count("crossing") == 12
    assert samples[4096] == samples[4095] + 1  # no crossing between the two
    assert rows[samples[4096]][4] == rows[samples[4095]][4]
    assert _simulate_in_process(_BLOCK_EDGE) == (0, expected, "")


@pytest.mark.parametrize("start, message", [
    # the samples of the Y segment from t = 100.5 overflow; the walk of
    # crossings goes on to the next segment's crossing state, which
    # overflows at t = 163.4, but the first overflow in time is the error
    ((1.1048692016485047, 0.8875724325691856, 1.0, -1.440251037342838e+260,
      -1.9010803178995184e+259, 0.0, 164.43123718475292, 1.581069588314932),
     "the Y flow overflows floating point by t=103.67255756846325"),
    # the first segment's samples overflow, though its crossing state and
    # every later one are finite
    ((0.9824682996738777, 0.7423375036882195, 1.0, -4.496100369310528e+305,
      -4.810029248731897e+305, -1.874168864402456e+305, 107.4642866817738,
      0.5455039933084964), "the X flow overflows floating point by t=5.995649654769595"),
])
def test_simulate_overflow_in_a_segment_comes_before_later_errors(start, message):
    # the error names the segment, by its last flown time t0 + tc, whose
    # samples first overflow, as when every segment was flown before the
    # next crossing was sought
    p = resonant_system(*start[:3])
    s = np.array(start[3:6])
    field = "X" if start[5] > 0.0 or start[5] == 0.0 and start[4] > 0.0 else "Y"
    _, later = orbit._segments(p, s, field, start[6])
    assert later is None or str(later) != message
    assert _simulate_in_process(start) == (1, "", f"error: DivergenceError: {message}\n")


def _crossing_rows(p, s, field, t_max):
    """Each crossing or terminal event of orbit._segments from s on field, as
    (flight start, field, tc, event x, event y), and the walk's error."""
    segments, error = orbit._segments(p, s, field, t_max)
    assert all(type(start) is tuple for _, _, start, _, _ in segments)
    rows = [(start, fld, tc, event.x, event.y)
            for _, fld, start, tc, event in segments if event is not None]
    return segments, rows, error


@settings(max_examples=80, deadline=None)
@given(C=st.floats(0.15, 1.5), negative=st.booleans(), u=st.floats(0.05, 0.95),
       Lambda=st.floats(0.5, 2.0), log_r=st.floats(-0.5, 1.5), on_plane=st.booleans(),
       theta=st.floats(0.05, math.pi / 2 - 0.05), flip=st.booleans(),
       off=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
       z_off=st.floats(0.05, 1.0), t_max=st.floats(1.0, 40.0))
def test_crossing_states_are_the_flow_calls_bit_for_bit(C, negative, u, Lambda, log_r,
                                                        on_plane, theta, flip, off, z_off,
                                                        t_max):
    # pass 1 forms each crossing state in Python floats; every crossing row's
    # x and y are the flow_X or flow_Y call's at tc, bit for bit, for C of
    # either sign, starts on the plane and on either side of it, and the
    # Y segments after each crossing.  The next flight starts from (x, y, 0)
    r, sign = 10.0 ** log_r, -1.0 if flip else 1.0
    x0, y0, z0 = ((sign * math.cos(theta) * r, sign * math.sin(theta) * r, 0.0) if on_plane
                  else (off[0] * r, off[1] * r, sign * z_off * r))
    p = resonant_system(-C if negative else C, float(critical_h(C)) * u, Lambda)
    field = ("X" if z0 > 0.0 else "Y") if z0 != 0.0 else (
        "X" if y0 > 0.0 else "Y")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        segments, rows, _ = _crossing_rows(p, (x0, y0, z0), field, t_max)
    for s, fld, tc, x, y in rows:
        flow = flow_X if fld == "X" else flow_Y
        want = flow(p, np.array(s), tc).tolist()
        assert (repr(x), repr(y)) == (repr(want[0]), repr(want[1]))
    for (_, _, _, _, event), (_, fld, s, _, _) in zip(segments, segments[1:]):
        assert s == (event.x, event.y, 0.0)


def test_an_overflowing_crossing_exponential_is_the_segments_divergence():
    # C = -120, so A = 240: the second flight, a Y flight from t = 0.0084,
    # meets the plane at tc = 3.1416, where e^{A tc} leaves the float range.
    # Pass 1 returns that segment's DivergenceError, with no RuntimeWarning,
    # and so does the CLI; flow_Y raises the one that names tc
    p = resonant_system(-120.0, 0.5, 1.0)
    message = "the Y flow overflows floating point by t=3.14999581713744"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        segments, rows, error = _crossing_rows(p, (1.0, 1e250, 1e250), "X", 10.0)
    assert [field for _, field, _, _, _ in segments] == ["X", "Y"]
    t0, _, s, tc, event = segments[-1]
    assert event is None and p.A * tc > math.log(np.finfo(float).max)
    with pytest.raises(errors.DivergenceError, match=rf"^the Y flow overflows floating point "
                       rf"at t={re.escape(repr(tc))}$"):
        flow_Y(p, np.array(s), tc)
    assert isinstance(error, errors.DivergenceError) and str(error) == message
    start = (-120.0, 0.5, 1.0, 1.0, 1e250, 1e250, 10.0, 0.01)
    assert _simulate_in_process(start) == (1, "", f"error: DivergenceError: {message}\n")
    flags = ("--C", "--H", "--Lambda", "--x0", "--y0", "--z0", "--t-max", "--dt")
    proc = run_cli("simulate", *[f"{flag}={v!r}" for flag, v in zip(flags, start)])
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"error: DivergenceError: {message}\n"


def test_negative_values_in_exponent_form(tmp_path):
    out = tmp_path / "neg.csv"
    proc = run_cli("simulate", "--C", "1", "--H", "0.04", "--Lambda", "1",
                   "--x0", "-1.5e-05", "--y0", "-2E+3", "--z0", "-.5",
                   "--t-max", "0.02", "-o", str(out))
    assert proc.returncode == 0, proc.stderr
    first = read_csv(out)[0]
    assert float(first["y"]) == -2000.0 and float(first["z"]) == -0.5
    assert float(first["x"]) == pytest.approx(-1.5e-05, rel=1e-9)


def test_import_does_not_load_scipy():
    code = "import sys, twofold, twofold.cli; assert 'scipy' not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_import_does_not_load_orjson():
    # orjson is imported by the CSV writers when they run, not by the import
    code = "import sys, twofold, twofold.cli; assert 'orjson' not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=_PYTHONPATH))
    assert proc.returncode == 0, proc.stderr


def test_import_loads_only_errors_and_no_numpy():
    # public names resolve on first access: the import loads errors alone,
    # the CLI module adds itself, and a first access imports its module and
    # keeps the name
    code = ("import sys, twofold\n"
            "def loaded(): return sorted(m for m in sys.modules if m.startswith('twofold.'))\n"
            "print(loaded(), 'numpy' in sys.modules, 'find_cycle_newton' in vars(twofold))\n"
            "import twofold.cli\n"
            "print(loaded(), 'numpy' in sys.modules)\n"
            "twofold.find_cycle_newton\n"
            "print('twofold.cycles' in sys.modules, 'find_cycle_newton' in vars(twofold),"
            " twofold.sigma.__name__)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=_PYTHONPATH))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["['twofold.errors'] False False",
                                        "['twofold.cli', 'twofold.errors'] False",
                                        "True True twofold.sigma"]


# the commands whose compute is scalar, each with its parent's bytes
_SCALAR_COMMANDS = [
    ("find_cycle_desk.json", ("find-cycle", "--C", "1", "--H", "0.04", "--Lambda", "1"),
     "319ef2e480d4ba0d1693c1799871ca2b0f398b85fb35a7a37aaf04279eb1a7e2"),
    ("verify_series_readme.csv", ("verify-series", "--C", "1", "--H", "0.5", "--Lambda", "1",
                                  "--v0", "1e-3,1e-4,1e-5"),
     "62edf834ea34d35670f18c9af97c859d21289927c57699414c321ed28631dd17"),
    ("classify_conic_readme.json", ("classify-conic", "--C", "1", "--H", "0.5",
                                    "--Lambda", "1"),
     "664a624f7aaac6b9c5c376d3c2da13892e2fb47e23fdc9e42bd28de00753782c"),
    ("scan_c1_bounds.csv", ("scan", "--C", "1", "--Lambda", "1", "--hmin", "0.02",
                            "--hmax", "0.045", "--count", "12"),
     "36e3ab385e28aac8bc3b35cb591c3bfc4067d8ec08fc98618deb69e97bde4c45"),
    # the README form: its default bounds come from critical_h's math.cosh
    ("scan_c1.csv", ("scan", "--C", "1", "--Lambda", "1", "--count", "20"),
     "723079092b2dd27ab27956e19efa04f894ae603eb0ad8773eeb4eff753bee8a6"),
]


@pytest.mark.parametrize("name, args, sha", _SCALAR_COMMANDS)
def test_scalar_commands_run_without_numpy(tmp_path, name, args, sha):
    # each in a fresh interpreter: the same bytes, and neither NumPy nor the
    # orbit engine of simulate ever loaded
    golden = (_GOLDEN / name).read_bytes()
    assert hashlib.sha256(golden).hexdigest() == sha
    out = tmp_path / name
    code = ("import sys\nfrom twofold.cli import main\nrc = main(sys.argv[1:])\n"
            "print('numpy' in sys.modules, 'twofold.orbit' in sys.modules)\nsys.exit(rc)\n")
    proc = subprocess.run([sys.executable, "-c", code, *args, "-o", str(out)],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=_PYTHONPATH))
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "False False\n")
    assert out.read_bytes() == golden


@settings(max_examples=500, deadline=None)
@given(lo=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True, allow_subnormal=True),
       hi=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True, allow_subnormal=True),
       n=st.integers(1, 60))
@example(lo=5e-324, hi=1e-323, n=5)  # the step underflows to 0
@example(lo=0.3, hi=0.3, n=4)
@example(lo=0.9, hi=0.1, n=7)
def test_scan_grid_is_numpy_linspace(lo, hi, n):
    grid = list(cli._linspace(lo, hi, n))
    assert all(type(h) is float for h in grid)
    assert [struct.pack("<d", h) for h in grid] == [
        struct.pack("<d", h) for h in np.linspace(lo, hi, n).tolist()]


_EDGES = ([np.nextafter(1e-4, 0), 1e-4, 1e-5, 9.999999999999999e-05],
          [np.nextafter(1e16, 0), 1e16, 5e-324, 1.7976931348623157e308])


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0),
                  elements=st.floats(allow_nan=True, allow_infinity=True,
                                     allow_subnormal=True)))
@example(np.array(_EDGES[0] + [-v for v in _EDGES[0]]))
@example(np.array(_EDGES[1] + [-v for v in _EDGES[1]]))
@example(np.zeros(0))
@example((np.arange(12.0).reshape(4, 3) * 1e-5)[:, 1])  # a non-contiguous column
# exponents given their '+' next to negative ones that orjson writes as repr does
@example(np.array([1e16, -1e16, -1e22, 1.7976931348623157e308, 1e-10, -2.5e-17, 5e-324]))
def test_reprs_is_repr(a):
    assert _reprs(a) == list(map(repr, a.ravel().tolist()))


def test_reprs_is_repr_on_random_bit_patterns():
    # 10^6 seeded doubles: whole random bit patterns, and random bits with the
    # exponent set in or next to [1e-4, 1e16), the range written by orjson as is
    rng = np.random.default_rng(2018)
    exponent = np.uint64(0x7FF << 52)
    for k in range(10):
        bits = rng.integers(0, 2**64, 10**5, dtype=np.uint64)
        if k % 2:
            biased = rng.integers(1023 - 16, 1023 + 56, bits.size, dtype=np.uint64)
            bits = (bits & ~exponent) | (biased << np.uint64(52))
        a = bits.view(np.float64)
        assert _reprs(a) == list(map(repr, a.tolist()))


def _row_texts_oracle(a, tail):
    return "".join(",".join(map(repr, row)) + tail for row in a.tolist())


def _text_of(a, tail):
    """_row_texts of the (n, 4) rows a, from the [t, x, y, z, NaN] buffer
    and the mask that simulate hands it."""
    buf = np.column_stack((a, np.full(len(a), np.nan)))
    return _row_texts(buf, _orjson_differs(a), tail)


def test_row_texts_is_repr_on_random_bit_patterns():
    # seeded (n, 4) rows, 1 to 1500 of them in one text, with both field
    # tails: whole random bit patterns, random bits with the
    # exponent set in or next to [1e-4, 1e16), values inside that range
    # alone, and each of those with +-0.0, subnormals and values on both
    # sides of 1e-4 and 1e16 put in at random cells
    rng = np.random.default_rng(2027)
    exponent = np.uint64(0x7FF << 52)
    edges = np.array([0.0, 5e-324, 2.2250738585072e-308, np.nextafter(1e-4, 0), 1e-4,
                      np.nextafter(1e-4, 1), np.nextafter(1e16, 0), 1e16, 1e17])
    edges = np.concatenate([edges, -edges])
    for n in (1, 511, 512, 513, 1500):
        for kind in ("bits", "biased", "in range", "in range with edges"):
            if kind.startswith("in range"):
                a = 10.0 ** rng.uniform(-4.0, 15.9, (n, 4)) * rng.choice([-1.0, 1.0], (n, 4))
            else:
                bits = rng.integers(0, 2**64, (n, 4), dtype=np.uint64)
                if kind == "biased":
                    biased = rng.integers(1023 - 16, 1023 + 56, bits.shape, dtype=np.uint64)
                    bits = (bits & ~exponent) | (biased << np.uint64(52))
                a = bits.view(np.float64)
            if kind != "in range":
                cells = rng.choice(a.size, min(a.size, 8), replace=False)
                a.flat[cells] = rng.choice(edges, cells.size)
            for tail in (",X,,,\n", ",Y,,,\n"):
                assert _text_of(a, tail) == _row_texts_oracle(a, tail)


def test_repr_runs_only_on_cells_orjson_cannot_write(monkeypatch):
    # the samples of the past-1e16 start: both writers format them with no
    # repr call at all
    C, H, L, x0, y0, z0, t_max, dt = _PAST_1E16
    ts = np.arange(int(t_max / dt) + 1) * dt
    a = np.column_stack((ts, flow_X(resonant_system(C, H, L), (x0, y0, z0), ts)))
    assert (np.abs(a) >= 1e16).sum() >= 1000
    assert ((a == 0.0) | (np.abs(a) >= 1e-4)).all() and np.isfinite(a).all()
    calls = []

    def counted_repr(v):
        calls.append(v)
        return repr(v)

    monkeypatch.setattr(cli, "repr", counted_repr, raising=False)
    assert _text_of(a, ",X,,,\n") == _row_texts_oracle(a, ",X,,,\n")
    assert _reprs(a) == list(map(repr, a.ravel().tolist()))
    assert calls == []
    # one call for each cell that orjson writes as 'null', '0.00001' or
    # '1e-9', none for a cell of 1e-10, whose text is repr's
    own = [np.nan, np.inf, -np.inf, 1e-5, -3e-7, 1e-9]
    cells = np.random.default_rng(28).choice(a.size, len(own) + 1, replace=False)
    a.flat[cells] = own + [1e-10]
    assert _text_of(a, ",X,,,\n") == _row_texts_oracle(a, ",X,,,\n")
    assert len(calls) == len(own)
    assert _reprs(a) == list(map(repr, a.ravel().tolist()))
    assert len(calls) == 2 * len(own)


def test_simulate_stationary_z(tmp_path):
    # z stays at its stationary value 0.5 along this X orbit; e^{Ct} leaves
    # floating point past t = 709
    out = tmp_path / "still.csv"
    start = ("simulate", "--C", "1", "--H", "0.04", "--Lambda", "1",
             "--x0", "0.76", "--y0", "-1", "--z0", "0.5", "--dt", "100", "-o", str(out))
    proc = run_cli(*start, "--t-max", "600")
    assert proc.returncode == 0, proc.stderr
    rows = read_csv(out)
    assert [float(r["t"]) for r in rows] == [100.0 * k for k in range(7)]
    assert all(r["field"] == "X" and float(r["z"]) == 0.5 for r in rows)
    proc = run_cli(*start, "--t-max", "800")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    kind = proc.stderr[len("error: "):].split(":")[0]
    assert issubclass(getattr(errors, kind), errors.TwofoldError)
