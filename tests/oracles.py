"""Independent numerical oracles used by the tests.

Everything here deliberately avoids the library's closed forms: trajectories
come from fixed-step RK4 on the raw right-hand sides, Jacobians and Lie
derivatives from central differences, and series coefficients from exact
polynomial fits through numerically computed flight times.
"""
from __future__ import annotations

import numpy as np


def rk4(f, s0, t, n):
    """Fixed-step RK4 integration of sdot = f(s) from s0 over [0, t]."""
    h = t / n
    s = np.asarray(s0, dtype=float).copy()
    for _ in range(n):
        k1 = f(s)
        k2 = f(s + 0.5 * h * k1)
        k3 = f(s + 0.5 * h * k2)
        k4 = f(s + h * k3)
        s = s + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return s


def field_x_batch(A, C, H, L, s):
    """Upper field evaluated on a batch: s is (N, 3), parameters are (N,)."""
    x, y, z = s[:, 0], s[:, 1], s[:, 2]
    return np.stack([
        A * x - H * (((A - C) ** 2 + 1.0) * z - L),
        L - (1.0 + C * C) * z,
        2.0 * C * z + y,
    ], axis=1)


def rk4_batch(A, C, H, L, s0, ts, n):
    """RK4 for a batch of draws, each integrated to its own final time."""
    h = (np.asarray(ts, dtype=float) / n)[:, None]
    s = np.asarray(s0, dtype=float).copy()

    def f(state):
        return field_x_batch(A, C, H, L, state)

    for _ in range(n):
        k1 = f(s)
        k2 = f(s + 0.5 * h * k1)
        k3 = f(s + 0.5 * h * k2)
        k4 = f(s + h * k3)
        s = s + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return s


def bisect_root(f, lo, hi, xtol):
    """Root of a scalar function with a sign change on [lo, hi], by plain
    bisection until the bracket is narrower than xtol."""
    f_lo = f(lo)
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        f_mid = f(mid)
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def fd_jacobian(fun, x, h):
    """Central-difference Jacobian of a vector function."""
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.size):
        dp = np.zeros_like(x)
        dp[i] = h
        cols.append((np.asarray(fun(x + dp)) - np.asarray(fun(x - dp))) / (2.0 * h))
    return np.stack(cols, axis=1)


def fd_lie_derivative(scalar_fun, field_fun, s, h=1e-6):
    """Directional derivative of a scalar along a field, by central differences."""
    s = np.asarray(s, dtype=float)
    grad = np.zeros(s.size)
    for i in range(s.size):
        dp = np.zeros_like(s)
        dp[i] = h
        grad[i] = (scalar_fun(s + dp) - scalar_fun(s - dp)) / (2.0 * h)
    return float(grad @ np.asarray(field_fun(s)))


def fit_time_series(v0s, taus):
    """Exact quadratic fit of tau(v)/v through three points.

    Returns (g1, g2, g3) with tau(v) ~ g1 v + g2 v^2 + g3 v^3; with machine
    precision flight times the recovered g1, g2 carry O(v_max) truncation
    bias only.
    """
    v0s = np.asarray(v0s, dtype=float)
    g = np.asarray(taus, dtype=float) / v0s
    vm = np.vander(v0s, 3, increasing=True)
    return tuple(np.linalg.solve(vm, g))


def measure_contraction(retmap, fixed_point, seed, *, max_iter=150, drop=4,
                        floor_rel=1e-8):
    """Empirical per-iteration contraction factor toward a fixed point.

    Iterates from ``seed``, collects distances to ``fixed_point`` while they
    stay above a relative floor, and fits log-distance against iteration
    index.  Early iterates are dropped to skip the transient.
    """
    fp = np.asarray(fixed_point, dtype=float)
    scale = 1.0 + float(np.linalg.norm(fp))
    q = np.asarray(seed, dtype=float)
    dists = []
    for _ in range(max_iter):
        q = retmap(q)
        d = float(np.linalg.norm(q - fp))
        dists.append(d)
        if d < floor_rel * scale:
            break
    usable = [d for d in dists if d > floor_rel * scale]
    if len(usable) < drop + 4:
        usable = dists
        drop = max(0, len(usable) - 6)
    ks = np.arange(drop, len(usable))
    logs = np.log(np.asarray(usable[drop:]))
    slope = np.polyfit(ks, logs, 1)[0]
    return float(np.exp(slope))
