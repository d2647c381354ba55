import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from twofold import (INVOLUTION, asymptotic_invariants, band_width, build_system, critical_h,
                     eval_X, eval_Y, find_cycle_newton, h_min, m_gamma1,
                     monodromy, resonant_system, return_map, saltation,
                     schur_conditions, sigma_restriction,
                     stability, stability_band, tau_gamma1)
from twofold.cycles import _graze, asymptotic_seed
from twofold.errors import (DomainError, GrazingCrossingError, NoCycleError,
                            SymmetryDefectError, TwofoldError)
from twofold.flow import fundamental_X, fundamental_Y
from twofold.stability import _deflated_quadratic_roots, _first_zeros
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
    # zero, not a cutoff, is the graze: (1.0, 1e-13) is a transversal crossing
    assert np.isfinite(saltation(params, (1.0, 1e-13), "XtoY")).all()
    with pytest.raises(GrazingCrossingError):
        saltation(params, (1.0, 0.0), "XtoY")
    with pytest.raises(GrazingCrossingError):
        saltation(params, (1.0, -1.0), "XtoY")
    with pytest.raises(ValueError):
        saltation(params, (1.0, 1.0), "sideways")


@pytest.mark.parametrize("q, direction", [((5e-324, 5e-324), "XtoY"),
                                          ((5e-324, 5e-324), "YtoX"),
                                          ((1.0, 1e-310), "XtoY"),
                                          ((-1e-310, -1.0), "YtoX")])
def test_saltation_column_past_the_float_range_is_a_graze(params, q, direction):
    # a crossing point whose divisor is so small that (Y - X) / div leaves the
    # float range: once a column of +-inf
    with pytest.raises(GrazingCrossingError, match="leaves the float range"):
        saltation(params, q, direction)


@pytest.mark.parametrize("q", [(0.0, 0.0), (1.0, -1.0), (1.0, 1e-13)])
def test_saltation_names_a_bad_direction_before_the_point(params, q):
    # the direction is checked first: a grazing or non-crossing point with a
    # bad direction is the DomainError for the direction
    with pytest.raises(DomainError, match=r"^direction must be 'XtoY' or 'YtoX', got 'bogus'$"):
        saltation(params, q, "bogus")


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


def test_symmetry_defect_is_typed(desk_params, desk_cycle):
    # a real defect of Dg: g01 = -h11 of the solve off by 1e-11 relative.
    # tr Dg = g11 does not see it; det(S N) = det Dg does, and the failure is a
    # TwofoldError that names the identity, its bound, y0 and C
    g00, g01, g10, g11 = desk_cycle.dg
    cycle = dataclasses.replace(desk_cycle, dg=(g00, g01 * (1.0 + 1e-11), g10, g11))
    with pytest.raises(SymmetryDefectError, match=r"^S N and the half map disagree: "
                       r"det\(S N\) = det Dg misses by 3\.83e-13 \(bound 5\.45e-16\) at "
                       r"y0 = 8\.43, C = 1$"):
        monodromy(desk_params, cycle)
    assert issubclass(SymmetryDefectError, TwofoldError)


@pytest.mark.parametrize("i, identity", [(1, "det"), (2, "det"), (3, "tr")])
def test_dg_mutants_are_rejected_at_small_c(i, identity):
    # the cycles workload's draw, C <= 2: an entry of Dg moved by 1e-9
    # relative.  g01 and g10 leave tr Dg = g11 unchanged, and only the
    # eigenvalue product det(S N) = det Dg sees them; g11 moves the trace
    rng = np.random.default_rng(42)
    seen = 0
    for C, u, Lambda in zip(rng.uniform(0.25, 2.0, 100), rng.uniform(0.02, 0.995, 100),
                            rng.uniform(0.5, 2.0, 100)):
        p = resonant_system(C, float(critical_h(C)) * u, Lambda)
        try:
            cycle = find_cycle_newton(p)
        except NoCycleError:
            continue
        if identity == "tr" and abs(cycle.dg[3]) < 0.05:  # 1e-9 of a tiny g11
            continue
        dg = tuple(g * (1.0 + 1e-9) if j == i else g for j, g in enumerate(cycle.dg))
        with pytest.raises(SymmetryDefectError, match=rf": {identity}\(S N\) = "):
            monodromy(p, dataclasses.replace(cycle, dg=dg))
        seen += 1
    assert seen >= 80


@pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 1), (1, 2), (2, 1), (2, 2)])
def test_phi_mutants_are_rejected_at_small_c(entry):
    # the same draws: an entry of Phi_X(t_x) moved by 1e-9 relative, so that
    # S N and Dg no longer describe one orbit.  det(S N) reads e^{At} and the
    # (y, z) block of Phi_X itself, not S N's cofactors; a moved (0, 2) entry
    # escapes all three identities on about a third of these draws
    rng = np.random.default_rng(42)
    seen = 0
    for C, u, Lambda in zip(rng.uniform(0.25, 2.0, 100), rng.uniform(0.02, 0.995, 100),
                            rng.uniform(0.5, 2.0, 100)):
        p = resonant_system(C, float(critical_h(C)) * u, Lambda)
        try:
            cycle = find_cycle_newton(p)
        except NoCycleError:
            continue
        phi = tuple(tuple(v * (1.0 + 1e-9) if (i, j) == entry else v for j, v in enumerate(row))
                    for i, row in enumerate(cycle.phi))
        with pytest.raises(SymmetryDefectError):
            monodromy(p, dataclasses.replace(cycle, phi=phi))
        seen += 1
    assert seen >= 80


def test_monodromy_with_a_subnormal_x0_is_grazing(desk_params, desk_cycle):
    # the saltation column at S p0 divides by x0: past the float range it is
    # the GrazingCrossingError saltation raises, once NaN residuals and a
    # stable verdict
    cycle = dataclasses.replace(desk_cycle, p0=(5e-324, desk_cycle.p0[1]))
    with pytest.raises(GrazingCrossingError, match="leaves the float range"):
        monodromy(desk_params, cycle)


def test_fold_adjacent_cycle_passes_monodromy():
    # a cycle next to the X fold (y0 ~ 3.2e-5): the closed-form half times
    # are equal, and S N agrees with the half map
    p = resonant_system(0.6408946369496937, 0.004598737459894268, 0.6130039364647102)
    cycle = find_cycle_newton(p, asymptotic_seed(p))
    assert cycle.t_x == cycle.t_y and cycle.T == 2.0 * cycle.t_x
    assert monodromy(p, cycle).reduction_residual <= 1e-9


def test_half_monodromy_squared_is_the_direct_composition(desk_params, desk_cycle,
                                                          desk_monodromy):
    # (S N)^2 against S_{Y->X}(p0) Phi_Y(t_x) S_{X->Y}(S p0) Phi_X(t_x) of the
    # public saltations and fundamental matrices
    x0, y0 = desk_cycle.p0
    t = desk_cycle.t_x
    direct = (saltation(desk_params, (x0, y0), "YtoX") @ fundamental_Y(desk_params, t)
              @ saltation(desk_params, (-y0, -x0), "XtoY") @ fundamental_X(desk_params, t))
    m = desk_monodromy.matrix
    assert isinstance(m, np.ndarray) and m.shape == (3, 3)
    assert np.max(np.abs(m - direct)) <= 1e-14 * np.max(np.abs(direct))
    # sn is S N itself, from the public saltation and fundamental matrix
    sn = INVOLUTION @ saltation(desk_params, (-y0, -x0), "XtoY") @ fundamental_X(desk_params, t)
    assert np.max(np.abs(np.array(desk_monodromy.sn) - sn)) <= 1e-14 * np.max(np.abs(sn))


@settings(max_examples=150, deadline=None)
@given(C=st.floats(0.25, 3.0), h_frac=st.floats(0.02, 0.995), Lambda=st.floats(0.5, 2.0))
def test_branch_identities_of_the_half_map(C, h_frac, Lambda):
    # on the resonant branch det Dg = y0/x0, and with tr M = 1 + tr_g^2 - 2 det_g
    # and det M = det_g^2 the Schur margins are sums of squares:
    # tr M + det M = (1 - det_g)^2 + tr_g^2, 2 - tr M + det M = (1 + det_g)^2 - tr_g^2.
    # The draw is the benchmark's cycles draw, with C taken up to 3
    p = resonant_system(C, float(critical_h(C)) * h_frac, Lambda)
    try:
        cycle = find_cycle_newton(p)
    except NoCycleError:  # H at or below H_graze
        assume(False)
    report = monodromy(p, cycle)
    g00, g01, g10, g11 = cycle.dg
    tr_g, det_g = g00 + g11, g00 * g11 - g01 * g10
    x0, y0 = cycle.p0
    assert abs(det_g - y0 / x0) <= 1e-12 * (y0 / x0)
    squares = (1.0 - det_g) ** 2 + tr_g ** 2
    assert abs(report.trace + report.det - squares) <= 1e-14 * squares
    upper = (1.0 + det_g) ** 2 - tr_g ** 2
    scale = (1.0 + det_g) ** 2 + tr_g ** 2
    assert abs(2.0 - report.trace + report.det - upper) <= 1e-14 * scale


@pytest.mark.parametrize("p0", [(1.0, 0.0), (0.0, 1.0), (1.0, -1e-300), (math.nan, 1.0)])
def test_monodromy_at_a_start_off_the_open_quadrant_is_grazing(desk_params, desk_cycle, p0):
    # transversality at the cycle is exact: x0 > 0 and y0 > 0, with no
    # relative cutoff
    with pytest.raises(GrazingCrossingError):
        monodromy(desk_params, dataclasses.replace(desk_cycle, p0=p0))


def test_monodromy_matches_return_map_jacobian(desk_params, desk_cycle, desk_monodromy):
    h = 1e-6 * (1.0 + np.linalg.norm(desk_cycle.p0))
    fd = fd_jacobian(lambda q: return_map(desk_params, q), desk_cycle.p0, h)
    projected = sigma_restriction(desk_params, desk_monodromy.matrix, desk_cycle.p0)
    assert np.max(np.abs(fd - projected)) <= 1e-5
    fd_eigs = np.sort_complex(np.linalg.eigvals(fd))
    mu = np.sort_complex(np.array(desk_monodromy.multipliers[1:]))
    assert np.max(np.abs(fd_eigs - mu)) <= 1e-6


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p0", [(1.0, 0.0), (1.0, -0.0), (1.0, 5e-324)])
def test_sigma_restriction_on_the_x_fold_is_grazing(desk_params, desk_monodromy, p0):
    # X_z(p0) = y0 = 0 divides the projection: a typed error naming the
    # point, not a NaN matrix and RuntimeWarnings; at y0 = 5e-324 the
    # projection column X(p0) / y0 overflows
    with pytest.raises(GrazingCrossingError, match=re.escape(repr(p0))):
        sigma_restriction(desk_params, desk_monodromy.matrix, p0)


def test_sigma_restriction_past_the_float_range_is_a_domain_error(desk_params):
    # an infinite M warned "invalid value encountered in matmul" and gave NaNs
    with pytest.raises(DomainError, match="^the monodromy matrix M is not finite$"):
        sigma_restriction(desk_params, np.full((3, 3), math.inf), (1.0, 2.0))
    with pytest.raises(DomainError, match="leaves the float range$"):
        sigma_restriction(desk_params, np.full((3, 3), 1e300), (1.0, 1e-10))


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


def test_scalar_invariants_equal_the_grid_bit_for_bit():
    # every square is a product, on a scalar as on a grid, so one (C, H)
    # rounds alike alone and in a band; the first box holds an H whose
    # m ** 2 by pow rounds apart from m * m
    boxes = [((1.0, 1.0), (0.07803846459741555, 0.11515159854389588))]
    rng = np.random.default_rng(7)
    for _ in range(3):
        c_lo, h_lo = rng.uniform(0.01, 3.0), rng.uniform(0.001, 0.5)
        boxes.append(((c_lo, c_lo + rng.uniform(0.1, 2.0)), (h_lo, rng.uniform(h_lo, 0.999))))
    for c_range, h_range in boxes:
        band = stability_band(c_range, h_range, (2, 1500))
        for i, C in enumerate(band.cs.tolist()):
            for j, H in enumerate(band.hs.tolist()):
                m2, tau = asymptotic_invariants(resonant_system(C, H, 1.0))
                assert (m2, tau) == (band.m2[j], band.tau_inf[i, j]), (C, H)
                assert tau_gamma1(C, H) == tau


def test_band_forms_the_slope_and_the_root_once(monkeypatch):
    # m_gamma1 once ran twice per band, and the discriminant's square root
    # three times: in each m_gamma1 and again in tau_gamma1
    discriminants, roots = [], []
    disc, sqrt = stability.gamma1_discriminant, np.sqrt
    monkeypatch.setattr(stability, "gamma1_discriminant",
                        lambda H: discriminants.append(H) or disc(H))
    monkeypatch.setattr(np, "sqrt", lambda d: roots.append(d) or sqrt(d))
    band = stability_band((0.5, 2.0), (0.01, 0.9), (4, 5))
    assert (len(discriminants), len(roots)) == (1, 1)
    monkeypatch.undo()
    assert band.m2.tolist() == [m * m for m in m_gamma1(band.hs).tolist()]
    assert band.tau_inf.tolist() == tau_gamma1(band.cs[:, None], band.hs).tolist()


def test_m_vanishes_with_h():
    assert abs(m_gamma1(1e-6)) < 1e-5


@pytest.mark.parametrize("H, bad", [(2.0, 2.0), (-1.0, -1.0), (math.inf, math.inf),
                                    (math.nan, math.nan), (1e200, 1e200),
                                    (np.array([0.5, 3.0, 2.0]), 3.0)])
def test_m_gamma1_off_the_real_branch_is_a_domain_error(H, bad):
    # (1 - H)(3H + 1) < 0 or a non-finite H once gave NaN and a sqrt warning
    with pytest.raises(DomainError, match=rf"got H={re.escape(repr(bad))}$"):
        m_gamma1(H)


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


@pytest.mark.parametrize("C", [1.0, 0.25, 2.2020148549027954, 1e-300, -1.5, 80.0, 225.0])
def test_critical_h_is_the_math_formula(C):
    # one Python float, the math module's rounding bit for bit
    h = critical_h(C)
    assert type(h) is float
    assert h.hex() == (1.0 / (2.0 * math.cosh(math.pi * C) - 1.0)).hex()


@pytest.mark.parametrize("C", [300.0, -300.0])
def test_critical_h_is_zero_where_cosh_overflows(C):
    with pytest.raises(OverflowError):
        math.cosh(math.pi * C)
    h = critical_h(C)
    assert type(h) is float and h == 0.0


def test_band_hcrit_column_is_critical_h():
    result = stability_band((0.01, 3.0), (0.001, 0.999), (400, 3))
    assert result.hcrit[:, 0].tolist() == result.cs.tolist()
    assert result.hcrit[:, 1].tolist() == [critical_h(c) for c in result.cs.tolist()]


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


def test_band_boundary_at_an_exact_zero_margin():
    # the middle H is H_crit(C) itself, where the upper margin is exactly 0.0
    # between neighbours of opposite sign: the boundary point is that grid point
    c = 2.2020148549027954
    result = stability_band((c, c + 1.0), (0.0009899985744201425, 0.000991905923052955), 3)
    margin = 2.0 + result.m2 - result.tau_inf[0]
    assert margin[1] == 0.0 and margin[0] > 0.0 > margin[2]
    assert result.hs[1] == float(critical_h(c))
    assert result.upper.tolist() == [[c, result.hs[1]]]


def test_first_zeros_of_exact_zero_margins():
    cs, hs = np.array([1.0, 2.0, 3.0, 4.0, 5.0]), np.array([0.1, 0.2, 0.3, 0.4])
    margin = np.array([[1.0, 0.0, -1.0, -1.0],   # a crossing at a grid point
                       [-1.0, 0.0, 1.0, 1.0],
                       [1.0, 0.0, 1.0, -1.0],    # a touch, then a change
                       [0.0, -1.0, -1.0, -1.0],  # a zero at an end
                       [-1.0, -1.0, -1.0, 0.0]])
    assert _first_zeros(cs, hs, margin).tolist() == [[1.0, 0.2], [2.0, 0.2], [3.0, 0.35]]


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


@pytest.mark.parametrize("grid", [2.7, (3.9, 4), (4, 2.5), math.nan, math.inf, -math.inf,
                                  True, (3, False), "3", ("3", "3")])
def test_band_grid_counts_are_integral_numbers(grid):
    # a float count was cut (2.7 gave a 2 x 2 grid), NaN and inf raised a bare
    # ValueError and OverflowError; a bool or a str is no count
    with pytest.raises(DomainError, match="grid must be an integral count or a pair"):
        stability_band((0.5, 1.0), (0.01, 0.2), grid)


def test_band_grid_counts_take_any_integral_number():
    want = stability_band((0.5, 1.0), (0.01, 0.2), (3, 4))
    for grid in ((3.0, 4.0), (np.int64(3), np.float64(4.0))):
        assert stability_band((0.5, 1.0), (0.01, 0.2), grid).tau_inf.tobytes() == \
            want.tau_inf.tobytes()
    for grid in ((3,), (3, 4, 5), None):
        with pytest.raises(DomainError, match="grid must be an integral count or a pair"):
            stability_band((0.5, 1.0), (0.01, 0.2), grid)


@pytest.mark.parametrize("grid", [1e300, 2 ** 62, 10 ** 400, (3, 2 ** 61), (2 ** 30, 2 ** 31)])
def test_band_grid_past_the_array_size_is_a_domain_error(grid):
    # checked before any array is made: 1e300 was NumPy's bare ValueError
    with pytest.raises(DomainError, match="exceed NumPy's maximum array size"):
        stability_band((0.5, 1.0), (0.01, 0.2), grid)


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


@pytest.mark.parametrize("c", [113.0, 150.0, 226.0, 300.0, 1e300])
def test_tau_past_the_float_range_is_a_domain_error(c):
    # e^{2 pi C} overflows from about C = 113 (and cosh(pi C) in H_crit from
    # about 226): each caller of tau_inf names C instead of warning or
    # returning inf.  From C of about 4.5e153 the system's (A - C)^2 leaves the
    # float range, and resonant_system names C before asymptotic_invariants runs
    calls = [h_min, band_width, lambda c: stability_band((c, 2.0 * c), (0.001, 0.999), 3),
             lambda c: tau_gamma1(c, 0.5)]  # once inf with a RuntimeWarning
    if c < 4e153:
        calls.append(lambda c: asymptotic_invariants(resonant_system(c, 0.5, 1.0)))
    else:
        with pytest.raises(DomainError, match=rf"C={re.escape(repr(c))}$"):
            resonant_system(c, 0.5, 1.0)
    for call in calls:
        with pytest.raises(DomainError, match=rf"tau_inf at C={re.escape(repr(c))}, H="):
            call(c)


def test_band_near_the_float_range_matches_the_scalar_invariants():
    # tau_inf reaches 1e158 at C = 58: the grid, its flags and boundaries
    # stay finite and the scalar invariants give the same bits
    result = stability_band((56.0, 58.0), (0.001, 0.999), 5)
    assert np.isfinite(result.tau_inf).all() and result.tau_inf.max() > 1e157
    for i, c in enumerate(result.cs.tolist()):
        for j, h in enumerate(result.hs.tolist()):
            m2, tau = asymptotic_invariants(resonant_system(c, h, 1.0))
            assert (m2, tau) == (result.m2[j], result.tau_inf[i, j])
    with pytest.raises(DomainError, match=r"^tau_inf at C=150\.0, H=0\.001 is not finite"):
        stability_band((100.0, 200.0), (0.001, 0.999), 3)
    # 1/H^2 overflows from about H = 1e-154 down, at any C; at H = 0,
    # tau_gamma1 once gave NaN with a RuntimeWarning
    with pytest.raises(DomainError, match=r"^tau_inf at C=1\.0, H=1e-160 is not finite"):
        stability_band((1.0, 2.0), (1e-160, 0.5), 3)
    with pytest.raises(DomainError, match=r"^tau_inf at C=1\.0, H=0\.0 is not finite"):
        tau_gamma1(1.0, 0.0)


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


@pytest.mark.parametrize("C", [0.3, 0.5, 1.0, 2.0])
def test_exact_cycles_below_h_min_are_stable(C):
    # the band's lower boundary is the y0 -> inf limit along the branch: the
    # exact cycles between H_graze and H_min(C), small in amplitude, are all
    # Schur-stable, with the tr M and det M ranges the README gives
    h_graze = _graze(resonant_system(C, 0.5, 1.0))[1]  # H_graze depends on C alone
    for H in np.geomspace(h_graze, h_min(C), 6)[1:-1]:
        p = resonant_system(C, float(H), 1.0)
        report = monodromy(p, find_cycle_newton(p))
        assert report.stable, (C, H)
        assert 0.78 <= report.trace <= 1.005 and report.det <= 0.018, (C, H)
