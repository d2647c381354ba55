import csv
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import twofold
from twofold import (RegionKind, classify_point, critical_h, errors, flow_X, flow_Y,
                     m_gamma1, resonant_system, stability_band, tau_gamma1)
from twofold.cli import _band_csv, _fmt
from twofold.returns import first_crossing

# the package's own source root, so the CLI imports from any working directory
_PYTHONPATH = os.pathsep.join(filter(None, [str(Path(twofold.__file__).parents[1]),
                                            os.environ.get("PYTHONPATH")]))


def run_cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "twofold", *args],
                          capture_output=True, text=True, cwd=cwd,
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
    ("stability-band", "--cmin=nan", "--grid", "3", "-o", "-"),
    ("stability-band", "--hmin", "0.5", "--hmax", "0.2", "--grid", "3", "-o", "-"),
    ("stability-band", "--grid", "1", "-o", "-"),
    ("find-cycle", "--A", "-1", "--C", "1", "--H", "0.04", "--Lambda", "1"),
    ("find-cycle", "--C", "1", "--H", "1.5", "--Lambda", "1"),
    ("verify-series", "--A", "-1", "--C", "1", "--H", "0.5", "--Lambda", "1"),
    ("classify-conic", "--A", "-1", "--C", "1", "--H", "0.5", "--Lambda", "1"),
    ("scan", "--C", "1", "--Lambda", "1", "--hmin=nan", "--count", "3"),
    ("scan", "--C", "1", "--Lambda", "1", "--hmin", "1.5", "--hmax", "2"),
    ("scan", "--C", "1", "--Lambda", "1", "--count", "0"),
    ("scan", "--C", "1", "--Lambda", "1", "--count", "-2"),
    ("find-cycle", "--C", "1", "--H", "0.04", "--Lambda", "1", "--seed", "nan"),
])
def test_domain_errors_exit_2(args):
    # a DomainError, from a library parameter guard or from the CLI's own
    # checks such as scan's H range and count, is a usage error
    proc = run_cli(*args)
    assert proc.returncode == 2, (args, proc.stderr)
    assert proc.stderr.startswith("usage error: ") and proc.stdout == ""


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


@pytest.mark.parametrize("key, value", [("A", 5), ("H", 0.3), ("colour", "red")])
def test_config_key_that_is_not_a_flag_is_usage_error(tmp_path, key, value):
    # the config file holds flag defaults: scan has no --A or --H flag, so a
    # config naming them would otherwise be ignored without a word
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"C": 1, "Lambda": 1, key: value}))
    proc = run_cli("scan", "--config", str(cfg), "--count", "2")
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == f"usage error: config key {key!r} is not a flag of scan\n"
    assert proc.stdout == ""


def test_numerical_failure_exit_code():
    # above H_crit the closure residual keeps one sign on the whole branch:
    # no cycle is bracketed, a numerical outcome rather than a usage error
    proc = run_cli("find-cycle", "--C", "1", "--H", "0.2", "--Lambda", "1")
    assert proc.returncode == 1
    assert "error" in proc.stderr
    assert proc.stderr.startswith("error: NoCycleError: no sign change on ")


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
    # an explicit seed lands on the same cycle (up to solver tolerance)
    proc = run_cli("find-cycle", "--C", "1", "--H", "0.04", "--Lambda", "1",
                   "--seed", "20", "-o", str(out))
    assert proc.returncode == 0
    seeded = json.loads(out.read_text())
    assert seeded["p0"] == pytest.approx(payload["p0"], rel=1e-9)


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
            m2 = float(m_gamma1(H) ** 2)
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
                if m0 * m1 < 0.0:
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
    # e^{pi C} in the series head leaves the float range
    (("find-cycle", "--C", "300", "--H", "0.5", "--Lambda", "1"), 2, "usage error: "),
    (("find-cycle", "--C", "-300", "--H", "0.5", "--Lambda", "1"), 2, "usage error: "),
    # e^{Ct} in the crossing walk leaves the float range
    (("simulate", "--C", "300", "--H", "0.5", "--Lambda", "1", "--x0", "1", "--y0", "1",
      "--z0", "1", "--t-max", "10", "--dt", "1"), 1, "error: DivergenceError: "),
    # the sample count t-max / dt is not finite
    (("simulate", "--C", "300", "--H", "0.5", "--Lambda", "1", "--x0", "1", "--y0", "1",
      "--z0", "1", "--t-max", "1e300", "--dt", "1e-300"), 2, "usage error: "),
])
def test_float_range_failures_are_typed(args, code, prefix):
    proc = run_cli(*args)
    assert proc.returncode == code, (args, proc.stderr)
    assert proc.stderr.startswith(prefix) and proc.stdout == ""
    assert "Traceback" not in proc.stderr


def _readme_cli_commands():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## CLI$.*?^```sh\n(.*?)^```$", readme, re.M | re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("twofold ")]


def test_readme_cli_commands_run(tmp_path):
    commands = _readme_cli_commands()
    assert len(commands) == 6
    for argv in commands:
        proc = run_cli(*argv, cwd=tmp_path)
        assert proc.returncode == 0, (argv, proc.stderr)


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
    for a start that is off the plane or on its crossing region."""
    p = resonant_system(C, H, Lambda)
    rows = [["t", "x", "y", "z", "field", "event", "region", "saltation_det"]]
    sample_ts = [k * dt for k in range(int(np.floor(t_max / dt)) + 1)]
    if sample_ts[-1] < t_max - 1e-15:
        sample_ts.append(t_max)
    s = np.array([x0, y0, z0])
    on_sigma = z0 == 0.0
    field = ("X" if classify_point(p, s[:2]).lie_x > 0 else "Y") if on_sigma else (
        "X" if z0 > 0 else "Y")
    t0, k = 0.0, 0
    while t0 < t_max:
        try:
            tc, _ = first_crossing(p, s, field, t_max - t0, skip_zero_start=on_sigma)
        except errors.NoReturnError:
            tc = None
        seg_end = t_max if tc is None else t0 + tc
        flow = flow_X if field == "X" else flow_Y
        while k < len(sample_ts) and sample_ts[k] <= seg_end + 1e-15:
            st = flow(p, s, sample_ts[k] - t0)
            rows.append([sample_ts[k], st[0], st[1], st[2], field, "", "", ""])
            k += 1
        if tc is None:
            break
        q = flow(p, s, tc)[:2]
        cls = classify_point(p, q)
        lie_in, lie_out = (cls.lie_x, cls.lie_y) if field == "X" else (cls.lie_y, cls.lie_x)
        if cls.kind is not RegionKind.CROSSING:
            rows.append([t0 + tc, q[0], q[1], 0.0, field, "terminal", cls.kind.value, ""])
            break
        rows.append([t0 + tc, q[0], q[1], 0.0, field, "crossing", cls.kind.value,
                     lie_out / lie_in])
        field = "Y" if field == "X" else "X"
        s, t0, on_sigma = np.array([q[0], q[1], 0.0]), t0 + tc, True
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
    out = tmp_path / "traj.csv"
    flags = ("--C", "--H", "--Lambda", "--x0", "--y0", "--z0", "--t-max", "--dt")
    proc = run_cli("simulate", *[f"{flag}={v!r}" for flag, v in zip(flags, start)],
                   "-o", str(out))
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == expected.encode()


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
