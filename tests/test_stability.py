import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from twofold import (asymptotic_invariants, band_width, build_system, critical_h,
                     eval_X, eval_Y, find_cycle_newton, h_min, m_gamma1,
                     monodromy, resonant_system, return_map, saltation,
                     schur_conditions, sigma_restriction,
                     stability_band, tau_gamma1)
from twofold.cycles import asymptotic_seed
from twofold.errors import (DomainError, GrazingCrossingError, SymmetryDefectError,
                            TwofoldError)
from twofold.stability import _deflated_quadratic_roots
from oracles import fd_jacobian


@pytest.fixture(scope="module")
def params():
    return resonant_system(1.0, 0.04, 1.0)


def test_saltation_determinants(params):
    rng = np.random.default_rng(0)
    for _ in range(20):
        x, y = rng.uniform(0.2, 5.0, 2)
        assert np.isclose(np.linalg.det(saltation(params, (x, y), "XtoY")), x / y,
                          rtol=1e-12)
        assert np.isclose(np.linalg.det(saltation(params, (x, y), "YtoX")), y / x,
                          rtol=1e-12)


def test_saltation_is_rank_one_update(params):
    s = saltation(params, (2.0, 3.0), "XtoY")
    assert np.allclose((s - np.eye(3))[:, :2], 0.0)
    assert np.linalg.matrix_rank(s - np.eye(3)) == 1
    # applied to the incoming field the correction produces the outgoing one
    q3 = np.array([2.0, 3.0, 0.0])
    assert np.allclose(s @ eval_X(params, q3), eval_Y(params, q3), atol=1e-12)
    s_back = saltation(params, (2.0, 3.0), "YtoX")
    assert np.allclose(s_back @ eval_Y(params, q3), eval_X(params, q3), atol=1e-12)


def test_saltation_product_is_rank_one_correction(params):
    # with matching divisors the two rank-one corrections cancel exactly:
    # the product's correction has rank <= 1 and in fact vanishes
    q = (2.0, 3.0)
    prod = saltation(params, q, "YtoX") @ saltation(params, q, "XtoY")
    assert np.linalg.matrix_rank(prod - np.eye(3), tol=1e-12) <= 1
    assert np.allclose(prod, np.eye(3), atol=1e-12)


def _signed(lo, hi):
    return st.tuples(st.sampled_from([1.0, -1.0]), st.floats(lo, hi)).map(lambda sm: sm[0] * sm[1])


@settings(max_examples=300, deadline=None)
@given(C=_signed(0.01, 50.0), A=_signed(0.0, 100.0), H=st.floats(-3.0, 3.0),
       Lambda=_signed(0.01, 10.0), x=_signed(1e-3, 1e4), y=st.floats(1e-3, 1e4),
       direction=st.sampled_from(["XtoY", "YtoX"]))
def test_saltation_column_matches_the_field_oracle(C, A, H, Lambda, x, y, direction):
    # the third column minus e3 is (f+ - f-) / f-_z from the 3D fields at
    # (x, y, 0), f- the incoming field, to within 4 ulp of the largest term
    p = build_system(A, C, H, Lambda)
    q = (x, y if x > 0 else -y)  # a crossing point: x y > 0
    q3 = np.array([q[0], q[1], 0.0])
    fx, fy = eval_X(p, q3), eval_Y(p, q3)
    f_in, f_out = (fx, fy) if direction == "XtoY" else (fy, fx)
    column = saltation(p, q, direction)[:, 2] - [0.0, 0.0, 1.0]
    oracle = (f_out - f_in) / f_in[2]
    ulp = np.spacing(np.maximum(np.abs(fx), np.abs(fy))) / abs(f_in[2])
    assert np.all(np.abs(column - oracle) <= 4.0 * ulp)


def test_saltation_rejects_grazing_and_noncrossing(params):
    with pytest.raises(GrazingCrossingError):
        saltation(params, (1.0, 1e-13), "XtoY")
    with pytest.raises(GrazingCrossingError):
        saltation(params, (1.0, -1.0), "XtoY")
    with pytest.raises(ValueError):
        saltation(params, (1.0, 1.0), "sideways")


def test_trivial_multiplier(desk_params, desk_monodromy):
    assert desk_monodromy.trivial_residual <= 1e-7


def test_determinant_identity(desk_params, desk_cycle, desk_monodromy):
    expected = (desk_cycle.p0[1] / desk_cycle.p0[0]) ** 2
    assert abs(desk_monodromy.det / expected - 1.0) <= 1e-8
    # equals the product of the two saltation determinants in the resonant case
    det_saltations = (np.linalg.det(saltation(desk_params, desk_cycle.p0, "YtoX"))
                      * np.linalg.det(saltation(desk_params, desk_cycle.p1, "XtoY")))
    assert abs(desk_monodromy.det / det_saltations - 1.0) <= 1e-8


def test_reduction_agreement(desk_monodromy):
    assert desk_monodromy.reduction_residual <= 1e-9


def test_symmetry_defect_is_typed():
    # a cycle next to the X fold (y0 ~ 3.2e-5) with its Y half time moved by
    # 3.1e-9: the reduced composition misses the 1e-9 bound, and the failure
    # is a TwofoldError that names y0 and t_x - t_y
    p = resonant_system(0.6408946369496937, 0.004598737459894268, 0.6130039364647102)
    cycle = find_cycle_newton(p, asymptotic_seed(p))
    cycle = dataclasses.replace(cycle, t_y=cycle.t_y - 3.1e-9)
    with pytest.raises(SymmetryDefectError, match=r"y0 = 3\.2e-05, t_x - t_y = 3\.1\d*e-09"):
        monodromy(p, cycle)
    assert issubclass(SymmetryDefectError, TwofoldError)


def test_fold_adjacent_cycle_passes_monodromy():
    # the same input: the solve in t closes its half times to round-off, so
    # the direct and half-map compositions agree
    p = resonant_system(0.6408946369496937, 0.004598737459894268, 0.6130039364647102)
    cycle = find_cycle_newton(p, asymptotic_seed(p))
    assert abs(cycle.t_x - cycle.t_y) <= 1e-11
    assert monodromy(p, cycle).reduction_residual <= 1e-9


def test_monodromy_matches_return_map_jacobian(desk_params, desk_cycle, desk_monodromy):
    h = 1e-6 * (1.0 + np.linalg.norm(desk_cycle.p0))
    fd = fd_jacobian(lambda q: return_map(desk_params, q), desk_cycle.p0, h)
    projected = sigma_restriction(desk_params, desk_monodromy.matrix, desk_cycle.p0)
    assert np.max(np.abs(fd - projected)) <= 1e-5
    fd_eigs = np.sort_complex(np.linalg.eigvals(fd))
    mu = np.sort_complex(np.array(desk_monodromy.multipliers[1:]))
    assert np.max(np.abs(fd_eigs - mu)) <= 1e-6


def test_characteristic_polynomial_factorization(desk_monodromy):
    char = np.poly(desk_monodromy.matrix)
    quad = np.convolve([1.0, -1.0],
                       [1.0, -(desk_monodromy.trace - 1.0), desk_monodromy.det])
    assert np.max(np.abs(char - quad)) <= 1e-8 * (1.0 + np.max(np.abs(char)))


@settings(max_examples=200, deadline=None)
@given(tr=st.floats(-10.0, 10.0), det=st.floats(-10.0, 10.0))
def test_deflated_quadratic_roots_match_np_roots(tr, det):
    # both signs of the discriminant (tr - 1)^2 - 4 det: a real pair or a
    # complex-conjugate pair
    b = tr - 1.0
    assume(abs(b * b - 4.0 * det) > 1e-6)
    r1, r2 = _deflated_quadratic_roots(tr, det)
    scale = 1.0 + abs(tr) + abs(det)
    expected = sorted(np.roots([1.0, -b, det]), key=lambda r: (r.real, r.imag))
    got = sorted([r1, r2], key=lambda r: (r.real, r.imag))
    assert np.allclose(got, expected, rtol=1e-9, atol=1e-9 * scale)
    assert abs((r1 + r2) - b) <= 1e-12 * scale
    assert abs(r1 * r2 - det) <= 1e-12 * scale * scale
    if b * b - 4.0 * det < 0.0:
        assert r1.imag != 0.0 and r1 == r2.conjugate()
    else:
        assert r1.imag == 0.0 and r2.imag == 0.0


def test_schur_examples():
    assert schur_conditions(1.5, 0.25) == (True, True, True)
    assert schur_conditions(3.5, 1.2)[0] is False
    assert schur_conditions(-2.0, 0.5)[2] is False


def test_schur_verdict_against_root_moduli(desk_monodromy):
    rng = np.random.default_rng(1)
    for _ in range(1000):
        tr = rng.uniform(-4.0, 4.0)
        det = rng.uniform(-2.0, 2.0)
        stable = all(schur_conditions(tr, det))
        roots = np.roots([1.0, -(tr - 1.0), det])
        inside = bool(np.all(np.abs(roots) < 1.0))
        if stable != inside:
            # exclude razor-edge draws where a root modulus sits on 1
            assert np.min(np.abs(np.abs(roots) - 1.0)) <= 1e-12
        else:
            assert stable == inside
    report = desk_monodromy
    assert report.schur == schur_conditions(report.trace, report.det)
    assert report.stable == all(report.schur)


def test_asymptotic_invariant_values():
    p = resonant_system(1.0, 0.5, 1.0)
    m2, tau = asymptotic_invariants(p)
    assert np.isclose(np.sqrt(m2), 0.38197, atol=1e-5)
    assert np.isclose(m2, 0.14590, atol=1e-5)
    assert np.isclose(tau, tau_gamma1(1.0, 0.5), rtol=1e-15)


def test_m_vanishes_with_h():
    assert abs(m_gamma1(1e-6)) < 1e-5


def test_asymptotic_invariants_domain():
    with pytest.raises(ValueError):
        asymptotic_invariants(resonant_system(1.0, 1.2, 1.0))
    with pytest.raises(ValueError):
        asymptotic_invariants(build_system(-1.9, 1.0, 0.5, 1.0))


def test_m_squared_below_one_on_hyperbola_range():
    hs = np.linspace(-1.0 / 3.0 + 1e-6, 1.0 - 1e-6, 1000)
    assert np.all(m_gamma1(hs) ** 2 < 1.0)


def test_critical_h_value():
    assert abs(float(critical_h(1.0)) - 0.04508) < 5e-6


def test_upper_boundary_is_critical_curve():
    # on the critical curve the first margin vanishes identically
    for c in (0.25, 0.7, 1.3, 2.0):
        hc = float(critical_h(c))
        margin = 2.0 + m_gamma1(hc) ** 2 - tau_gamma1(c, hc)
        assert abs(margin) <= 1e-9


def test_band_grid_and_boundaries():
    result = stability_band((0.5, 1.5), (0.002, 0.3), (40, 200))
    assert (result.cs.shape, result.hs.shape, result.m2.shape) == ((40,), (200,), (200,))
    for flags in (result.tau_inf, result.ineq_det, result.ineq_upper,
                  result.ineq_lower, result.inside):
        assert flags.shape == (40, 200)
    cell = (0.3 - 0.002) / 199
    for c, h_up in result.upper:
        assert abs(h_up - float(critical_h(c))) <= cell
    for c, h_low in result.lower:
        assert abs(h_low - h_min(c)) <= cell
    # membership flags agree with the closed-form interval
    inside_cells = np.argwhere(result.inside)
    assert inside_cells.size
    for i, j in inside_cells[:50]:
        assert h_min(result.cs[i]) < result.hs[j] < float(critical_h(result.cs[i]))


@settings(max_examples=60, deadline=None)
@given(c_lo=st.floats(0.05, 2.9), c_width=st.floats(0.01, 1.0),
       h_lo=st.floats(0.001, 0.95), h_width=st.floats(0.001, 1.0),
       n_c=st.integers(2, 30), n_h=st.integers(2, 80))
def test_band_boundaries_and_flags_on_random_boxes(c_lo, c_width, h_lo, h_width, n_c, n_h):
    c_hi = min(c_lo + c_width, 3.0)
    h_hi = min(h_lo + h_width, 0.999)
    result = stability_band((c_lo, c_hi), (h_lo, h_hi), (n_c, n_h))
    cell = (h_hi - h_lo) / (n_h - 1)
    for c, h_up in result.upper:
        assert abs(h_up - float(critical_h(c))) <= cell
    for c, h_low in result.lower:
        assert abs(h_low - h_min(c)) <= cell
    assert np.array_equal(result.inside,
                          result.ineq_det & result.ineq_upper & result.ineq_lower)


def test_band_point_flags(desk_params):
    m2, tau = asymptotic_invariants(desk_params)
    conds = (1.0 - m2 > 0, 2.0 + m2 - tau > 0, tau + m2 > 0)
    assert all(conds)  # H = 0.04 sits inside the band at C = 1
    outside = asymptotic_invariants(resonant_system(1.0, 0.05, 1.0))
    assert not (2.0 + outside[0] - outside[1] > 0)  # above the upper boundary


def test_band_input_validation():
    with pytest.raises(ValueError):
        stability_band((-0.5, 1.0), (0.01, 0.2), 10)
    with pytest.raises(ValueError):
        stability_band((0.5, 1.0), (0.0, 1.2), 10)
    with pytest.raises(ValueError):
        stability_band((0.5, 1.0), (0.01, 0.2), 1)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_band_rejects_non_finite_endpoints(bad):
    # a NaN C endpoint used to give a grid of nan rows flagged ineq_det = 1
    for c_range, h_range in (((bad, 1.0), (0.01, 0.2)), ((0.5, bad), (0.01, 0.2)),
                             ((0.5, 1.0), (bad, 0.2)), ((0.5, 1.0), (0.01, bad))):
        with pytest.raises(ValueError):
            stability_band(c_range, h_range, 3)


def test_band_width_behaviour():
    widths = {c: band_width(c) for c in (0.25, 0.5, 1.0, 2.0)}
    assert all(w > 0 for w in widths.values())
    assert widths[0.25] > widths[0.5] > widths[1.0] > widths[2.0]
    # any 0 < delta < width keeps (C, H_crit - delta) inside the band
    c = 1.0
    for delta in (0.25 * widths[c], 0.9 * widths[c]):
        h = float(critical_h(c)) - delta
        m2, tau = asymptotic_invariants(resonant_system(c, h, 1.0))
        assert 2.0 + m2 - tau > 0 and tau + m2 > 0


@pytest.mark.parametrize("c", [5.0, 8.0, 70.0])
def test_h_min_at_large_c(c):
    # H_min(5) = 5.9e-11 lies below the fixed bisection floor 1e-9 that once
    # made h_min raise EmptyBandError for every C > 4.3976
    h = h_min(c)
    below, above = h * (1.0 - 1e-9), h * (1.0 + 1e-9)
    assert tau_gamma1(c, below) + m_gamma1(below) ** 2 < 0.0
    assert tau_gamma1(c, above) + m_gamma1(above) ** 2 > 0.0
    assert band_width(c) > 0.0


@pytest.mark.parametrize("c", [80.0, float("nan"), float("inf")])
def test_h_min_past_the_float_range_is_a_domain_error(c):
    # H^2 divides the margin: from about C = 80 the square of H_min leaves the
    # normal float range; a NaN C gave a NaN H_min
    with np.errstate(all="ignore"), pytest.raises(DomainError):
        h_min(c)


@pytest.mark.parametrize("c", [-1.0, 0.0, float("nan")])
def test_h_min_outside_the_band_domain_is_a_domain_error(c):
    # the asymptotic band is established for C > 0, as stability_band says;
    # h_min(-1) once returned 0.0127 and band_width(0) 0.375
    for f in (h_min, band_width):
        with pytest.raises(DomainError, match="C > 0"):
            f(c)


@pytest.mark.parametrize("c", [0.5, 1.0, 1.6])
def test_large_amplitude_invariants_match_limits(c):
    p = resonant_system(c, 0.9995 * float(critical_h(c)), 1.0)
    cycle = find_cycle_newton(p, asymptotic_seed(p))
    assert cycle.p0[1] > 1e3
    report = monodromy(p, cycle)
    m2, tau = asymptotic_invariants(p)
    assert abs(report.det / m2 - 1.0) <= 0.01
    assert abs(report.trace / tau - 1.0) <= 0.02
