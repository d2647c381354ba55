"""The three benchmark workloads: seeded inputs, one operation, and its check.

Each workload is a single caller issuing one operation after the previous one
returns (a closed loop), which is how library and CLI users drive twofold.
Operations are grouped into rounds of a fixed composition, and a run always
runs whole rounds: ``run_rounds_per_s`` of them per second of --seconds in
the measured phase.  That count is fixed by --seconds, not by a time box, so
a seed gives the same ops, and so the same failed ops, however fast the host
runs; the rate is set so that the phase takes about --seconds of wall time
on a 2-vCPU Xeon VM.

* ``cycles`` calls the library directly: resonant_system -> asymptotic_seed ->
  find_cycle_newton -> monodromy.  The draws reach the small-amplitude and
  near-H_crit edges where the solver raises today.
* ``band`` runs ``twofold stability-band`` in-process on random (C, H) boxes.
* ``trajectory`` runs ``twofold simulate`` in-process from starts on and off
  the switching plane, plus two fixed ops per round on which a pi/64
  crossing scan skips a crossing.

An operation returns an outcome object; ``check`` returns None when the
output is valid and a short reason otherwise.  Checks read the program's
outputs only after the operation's timer has stopped.

``trace_rounds_per_s`` sizes the traced run: a fixed op list of that many
rounds per second of --seconds, so its counts repeat exactly for a seed.
Both passes over it together take well under --seconds, which keeps the
in-memory span list small.
"""
from __future__ import annotations

import contextlib
import io
import math
import os

import numpy as np

import twofold as tf
from twofold import cli


def h_crit(C):
    """Upper stability boundary 1 / (2 cosh(pi C) - 1), computed here, not by twofold."""
    return 1.0 / (2.0 * np.cosh(np.pi * np.asarray(C, dtype=float)) - 1.0)


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([salt, seed])


def _run_cli(argv: list[str]):
    """twofold.cli.main in-process; returns (exit code, stderr text).

    Values are passed as ``--flag=value``: argparse reads a separate
    ``-1.5e-05`` as an option, not as a negative number.
    """
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors exit in-process
            rc = exc.code
    return rc, err.getvalue()


class Cycles:
    """Cycle solve plus saltation monodromy on random resonant parameters."""

    name = "cycles"
    run_rounds_per_s = 6.0
    trace_rounds_per_s = 1.0
    round_size = 100
    rounds = 2000  # inputs wrap around if a run ever needs more

    def __init__(self, seed: int, tmpdir: str):
        rng = _rng(seed, 1)
        n = self.round_size * self.rounds
        self.C = rng.uniform(0.25, 2.0, n)
        self.H = h_crit(self.C) * rng.uniform(0.02, 0.995, n)
        self.L = rng.uniform(0.5, 2.0, n)

    def input(self, i: int):
        i %= self.C.size
        return float(self.C[i]), float(self.H[i]), float(self.L[i])

    @staticmethod
    def reference():
        return 1.0, 0.04, 1.0  # the desk case of the paper

    def call(self, inp):
        p = tf.resonant_system(*inp)
        seed = tf.asymptotic_seed(p)
        if seed is None:
            return p, None, None
        cycle = tf.find_cycle_newton(p, seed)
        return p, cycle, tf.monodromy(p, cycle)

    @staticmethod
    def check(inp, out):
        p, cycle, report = out
        if cycle is None:
            return "series head predicts no cycle"
        x0, y0 = (float(v) for v in cycle.p0)
        end = tf.flow_X(p, [x0, y0, 0.0], cycle.t_x)
        scale = 1.0 + max(abs(x0), abs(y0))
        if np.max(np.abs(np.asarray(end) - [-y0, -x0, 0.0])) > 1e-8 * scale:
            return "re-flowed p0 misses the involution image"
        if abs(cycle.t_x - cycle.t_y) > 1e-9 * cycle.T:
            return "half times differ"
        m2 = (y0 / x0) ** 2
        if abs(report.det - m2) > 1e-8 * m2:
            return "det M differs from (y0/x0)^2"
        if report.trivial_residual > 1e-7:
            return "trivial multiplier residual above 1e-7"
        return None


class Band:
    """``twofold stability-band`` on a random box inside C > 0, 0 < H < 1."""

    name = "band"
    run_rounds_per_s = 0.2
    trace_rounds_per_s = 0.05
    # One round, in this order.  The median op of a run is then the median of
    # the 300 grids and its 90th percentile one of the default 400 grids, so
    # neither falls between two grid sizes, and the heap history before each
    # 400 grid (which sets peak RSS) is the same in every round.
    grids = (100, 300, 300, 300, 400)
    round_size = len(grids)
    rounds = 200

    def __init__(self, seed: int, tmpdir: str):
        rng = _rng(seed, 2)
        n = self.round_size * self.rounds
        self.grid = np.tile(self.grids, self.rounds)
        self.cmin = rng.uniform(0.05, 1.5, n)
        self.cmax = self.cmin + rng.uniform(0.25, 1.5, n)
        self.hmin = rng.uniform(0.001, 0.3, n)
        self.hmax = self.hmin + rng.uniform(0.05, 0.999 - self.hmin, n)
        self.out = os.path.join(tmpdir, "band.csv")
        self.bounds = os.path.join(tmpdir, "band_boundaries.csv")

    def input(self, i: int):
        i %= self.grid.size
        return (float(self.cmin[i]), float(self.cmax[i]), float(self.hmin[i]),
                float(self.hmax[i]), int(self.grid[i]))

    @staticmethod
    def reference():
        return 0.25, 2.0, 0.001, 0.98, 60

    def call(self, inp):
        cmin, cmax, hmin, hmax, grid = inp
        return _run_cli(["stability-band", f"--cmin={cmin!r}", f"--cmax={cmax!r}",
                         f"--hmin={hmin!r}", f"--hmax={hmax!r}", f"--grid={grid}",
                         f"--output={self.out}", f"--boundaries={self.bounds}"])

    def output_bytes(self) -> int:
        return os.path.getsize(self.out) + os.path.getsize(self.bounds)

    @staticmethod
    def grid_points(inp) -> int:
        return inp[4] ** 2

    def check(self, inp, out):
        rc, err = out
        if rc != 0:
            return f"exit {rc}: {err.strip()[:120]}"
        cmin, cmax, hmin, hmax, n = inp
        with open(self.out, encoding="utf-8") as fh:
            text = fh.read()
        head, _, body = text.partition("\n")
        if head != "C,H,m2,tau_inf,ineq_det,ineq_upper,ineq_lower,inside":
            return "grid header differs from the README schema"
        rows = body.count("\n")
        if rows != n * n:
            return f"{rows} grid rows, expected {n * n}"
        grid = np.fromstring(body.replace("\n", ","), sep=",").reshape(n * n, 8)
        if (grid[0, 0], grid[0, 1], grid[-1, 0], grid[-1, 1]) != (cmin, hmin, cmax, hmax):
            return "grid corners differ from the requested box"
        flags = grid[:, 4:].astype(int)
        if np.any(flags[:, 3] != (flags[:, 0] & flags[:, 1] & flags[:, 2])):
            return "inside differs from the AND of the three inequalities"
        h_step = (hmax - hmin) / (n - 1)
        with open(self.bounds, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if lines[0] != "curve,C,H":
            return "boundary header differs from the README schema"
        for line in lines[1:]:
            curve, c, h = line.split(",")
            if curve == "upper" and abs(float(h) - h_crit(float(c))) > h_step:
                return f"upper boundary at C={c} is off H_crit by more than one grid step"
        return None


# Fixed ops that close every trajectory round, as (C, H, Lambda, x0, y0, z0,
# t-max, dt).  README_EXAMPLE is the README's simulate command: one period of
# the desk cycle, whose return crossing lies 4e-4 before t-max.  GRAZE starts
# where z dips to about -1e-7 near t=0.945, a shallow crossing that a pi/64
# scan can skip.
README_EXAMPLE = (1.0, 0.04, 1.0, 219.892, 8.431, 0.0, 6.4, 0.01)
GRAZE = (-0.3, 0.2, 1.0, 0.0, -0.7760452247418252, 0.5, 3.0, 0.001)
FIXED = (README_EXAMPLE, GRAZE)


class Trajectory:
    """``twofold simulate`` from starts on and off the switching plane."""

    name = "trajectory"
    run_rounds_per_s = 0.35
    trace_rounds_per_s = 0.1
    round_size = 50  # 48 random starts, then the FIXED ops
    rounds = 400

    def __init__(self, seed: int, tmpdir: str):
        rng = _rng(seed, 3)
        n = (self.round_size - len(FIXED)) * self.rounds
        C = rng.uniform(0.15, 1.5, n) * np.where(rng.random(n) < 0.7, 1.0, -1.0)
        H = h_crit(np.abs(C)) * rng.uniform(0.05, 0.95, n)
        L = rng.uniform(0.5, 2.0, n)
        r = 10.0 ** rng.uniform(-0.5, 1.5, n)  # two decades of amplitude
        on_plane = rng.random(n) < 0.5
        # on-plane starts sit in the crossing quadrants x*y > 0
        theta = rng.uniform(0.05, math.pi / 2 - 0.05, n)
        sign = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        off = rng.uniform(-1.0, 1.0, (n, 2))
        z_off = rng.uniform(0.05, 1.0, n) * np.where(rng.random(n) < 0.5, 1.0, -1.0)
        x0 = np.where(on_plane, sign * np.cos(theta), off[:, 0]) * r
        y0 = np.where(on_plane, sign * np.sin(theta), off[:, 1]) * r
        z0 = np.where(on_plane, 0.0, z_off * r)
        t_max = rng.uniform(30.0, 40.0, n)
        dt = rng.uniform(0.01, 0.013, n)
        self.draws = np.column_stack([C, H, L, x0, y0, z0, t_max, dt])
        self.out = os.path.join(tmpdir, "trajectory.csv")

    def input(self, i: int):
        k, j = divmod(i, self.round_size)
        n_random = self.round_size - len(FIXED)
        if j >= n_random:
            return FIXED[j - n_random]
        row = self.draws[(k * n_random + j) % len(self.draws)]
        return tuple(float(v) for v in row)

    @staticmethod
    def reference():
        # the desk cycle's first crossing and most of its second half-orbit
        return 1.0, 0.04, 1.0, 219.892, 8.431, 0.0, 6.0, 0.01

    def call(self, inp):
        flags = ("--C", "--H", "--Lambda", "--x0", "--y0", "--z0", "--t-max", "--dt")
        argv = [f"{flag}={value!r}" for flag, value in zip(flags, inp)]
        return _run_cli(["simulate", *argv, f"--output={self.out}"])

    def output_bytes(self) -> int:
        return os.path.getsize(self.out)

    def check(self, inp, out):
        rc, err = out
        if rc != 0:
            return f"exit {rc}: {err.strip()[:120]}"
        with open(self.out, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if lines[0] != "t,x,y,z,field,event,region,saltation_det":
            return "header differs from the README schema"
        t_prev = -math.inf
        for line in lines[1:]:
            t, x, y, z, field, event, region, _ = line.split(",")
            t, x, y, z = float(t), float(x), float(y), float(z)
            if t < t_prev:
                return f"t decreases at t={t!r}"
            t_prev = t
            if event == "":
                tol = 1e-9 * (1.0 + abs(x) + abs(y))
                if field == "X" and z < -tol:
                    return f"sample labelled X below the plane, z={z!r} at t={t!r}"
                if field == "Y" and z > tol:
                    return f"sample labelled Y above the plane, z={z!r} at t={t!r}"
            elif event == "crossing" and region != "crossing":
                return f"crossing event in region {region!r}"
        return None


WORKLOADS = {w.name: w for w in (Cycles, Band, Trajectory)}
