"""Seeded fuzz of the public library functions at the ends of the float range.

Parameters and points are drawn from +-{0, 5e-324, 1e-320, 1e-300, 1e-155,
1e300}, from magnitudes up to 300, and from +-inf and NaN.  Every call must
return or raise a TwofoldError: no bare exception and no RuntimeWarning.
"""
import inspect
import math
import warnings

import numpy as np
from hypothesis import example, given, seed, settings, strategies as st

import twofold as tf
from twofold.errors import TwofoldError

_EDGES = (0.0, 5e-324, 1e-320, 1e-300, 1e-155, 1e300)
_value = st.one_of(
    st.tuples(st.sampled_from([1.0, -1.0]), st.sampled_from(_EDGES)).map(lambda sm: sm[0] * sm[1]),
    st.floats(-300.0, 300.0),
    st.sampled_from([math.inf, -math.inf, math.nan]),
)

# each call takes the system builder and three drawn values
_CALLS = {
    "half_return_X": lambda system, x, y, z: tf.half_return_X(system(), (x, y)),
    "half_return_Y": lambda system, x, y, z: tf.half_return_Y(system(), (x, y)),
    "return_map": lambda system, x, y, z: tf.return_map(system(), (x, y)),
    "eval_X": lambda system, x, y, z: tf.eval_X(system(), (x, y, z)),
    "eval_Y": lambda system, x, y, z: tf.eval_Y(system(), (x, y, z)),
    "jacobian_X": lambda system, x, y, z: tf.jacobian_X(system()),
    "classify_point": lambda system, x, y, z: tf.classify_point((x, y)),
    "fold_info": lambda system, x, y, z: tf.fold_info(system(), (x, y)),
    "sliding_field": lambda system, x, y, z: tf.sliding_field(system(), (x, y)),
    "saltation": lambda system, x, y, z: tf.saltation(system(), (x, y),
                                                      "XtoY" if z >= 0.0 else "YtoX"),
    "eval_P_X": lambda system, x, y, z: tf.eval_P_X(system(), (x, y, z)),
    "eval_P_Y": lambda system, x, y, z: tf.eval_P_Y(system(), (x, y, z)),
    "verify_darboux": lambda system, x, y, z: tf.verify_darboux(system()),
    "gamma1_branch_x": lambda system, x, y, z: tf.gamma1_branch_x(system(), y),
    "time_matching": lambda system, x, y, z: tf.time_matching(system(), x),
    "series_coeffs": lambda system, x, y, z: tf.series_coeffs(system()),
    "asymptotic_seed": lambda system, x, y, z: tf.asymptotic_seed(system()),
    "find_cycle_newton": lambda system, x, y, z: _cycle(system(), None),
    "find_cycle_newton_seeded": lambda system, x, y, z: _cycle(system(), y),
    "gamma2_at_critical": lambda system, x, y, z: tf.gamma2_at_critical(x, y),
    "h_min": lambda system, x, y, z: tf.h_min(x),
    "simulate": lambda system, x, y, z: list(tf.simulate(system(), (x, y, z), 1.0, 0.25)),
    "flow_X": lambda system, x, y, z: tf.flow_X(system(), (x, y, z), z),
    "flow_Y": lambda system, x, y, z: tf.flow_Y(system(), (x, y, z), z),
    "fundamental_X": lambda system, x, y, z: tf.fundamental_X(system(), z),
    "fundamental_Y": lambda system, x, y, z: tf.fundamental_Y(system(), z),
    "plane_flight": lambda system, x, y, z: tf.plane_flight(system(), (x, y), z),
    "stationary_X": lambda system, x, y, z: tf.stationary_X(system()),
    "stationary_Y": lambda system, x, y, z: tf.stationary_Y(system()),
    "jacobian_Y": lambda system, x, y, z: tf.jacobian_Y(system()),
    "apply_involution": lambda system, x, y, z: tf.apply_involution((x, y, z)),
    "z_closed_form": lambda system, x, y, z: tf.z_closed_form(system(), (x, y, z)),
    # the half-return window: the walk takes about t_max / pi steps
    "first_crossing": lambda system, x, y, z: tf.first_crossing(system(), (x, y, z),
                                                                8.0 * math.pi),
    "gamma1_conic": lambda system, x, y, z: tf.gamma1_conic(system()),
    "gamma1_discriminant": lambda system, x, y, z: tf.gamma1_discriminant(x),
    "time_matching_table": lambda system, x, y, z: tf.time_matching_table(system(), [x, y]),
    "scan_cycles": lambda system, x, y, z: tf.scan_cycles(system(), [x, y]),
    "schur_conditions": lambda system, x, y, z: tf.schur_conditions(x, y),
    "sigma_restriction": lambda system, x, y, z: tf.sigma_restriction(
        system(), np.full((3, 3), z), (x, y)),
    "m_gamma1": lambda system, x, y, z: tf.m_gamma1(x),
    "tau_gamma1": lambda system, x, y, z: tf.tau_gamma1(x, y),
    "asymptotic_invariants": lambda system, x, y, z: tf.asymptotic_invariants(system()),
    "critical_h": lambda system, x, y, z: tf.critical_h(x),
    "band_width": lambda system, x, y, z: tf.band_width(x),
    "stability_band": lambda system, x, y, z: tf.stability_band((x, y), (z, 0.5), 3),
    "stability_band_grid": lambda system, x, y, z: tf.stability_band((0.5, 1.0), (0.1, 0.5),
                                                                     x if z >= 0.0 else (x, y)),
}
# every public function has an entry but the builders, which every entry
# calls, and monodromy, which the find_cycle_newton entries call
_UNFUZZED = ("build_system", "resonant_system", "monodromy")


def test_every_public_function_is_fuzzed():
    functions = {n for n in tf.__all__ if inspect.isfunction(getattr(tf, n))}
    assert sorted(functions - set(_CALLS) - set(_UNFUZZED)) == []


def _cycle(p, y0_init):
    return tf.monodromy(p, tf.find_cycle_newton(p, y0_init))


def _desk(call, x, y, z=0.0):
    """@example arguments for call on the desk system C = 1, H = 0.04, Lambda = 1."""
    return dict(call=call, resonant=True, A=-2.0, C=1.0, H=0.04, Lambda=1.0, x=x, y=y, z=z)


def _off(call, A, x=1.0, y=0.5, z=0.2):
    """@example arguments for call at A, C = 1, H = 0.5, Lambda = 1."""
    return dict(call=call, resonant=False, A=A, C=1.0, H=0.5, Lambda=1.0, x=x, y=y, z=z)


def _cycle_at(C):
    return dict(call="find_cycle_newton", resonant=True, A=0.0, C=C, H=0.5, Lambda=1.0,
                x=0.0, y=0.0, z=0.0)


@seed(25)
@settings(max_examples=2195, deadline=None)  # about 48 for each call
@given(call=st.sampled_from(sorted(_CALLS)),
       resonant=st.booleans(),
       A=_value, C=_value, H=_value, Lambda=_value, x=_value, y=_value, z=_value)
@example(**_cycle_at(225.65))  # e^{C t_graze} overflowed
@example(**_cycle_at(225.68))
@example(**_desk("classify_point", math.nan, 1.0))  # non-finite plane points
@example(**_desk("classify_point", math.inf, 1.0))
@example(**_desk("saltation", math.nan, 0.0))
@example(**_desk("saltation", math.nan, 1.0))
@example(**_desk("sliding_field", math.nan, -1.0))
@example(**_desk("sliding_field", 1.0, math.nan))
@example(**_off("eval_X", 1e160))  # (A - C) ** 2 overflows
@example(call="eval_X", resonant=False, A=0.0, C=5e-324, H=0.0, Lambda=5e-324,
         x=0.0, y=0.0, z=math.inf)  # inf * 0 warned in NumPy scalars
@example(**_off("jacobian_X", 1e160))
@example(**_off("fold_info", 1e160, 1.0, 0.0))
@example(**_off("sliding_field", 1e160, 1.0, -1.0))
@example(**_off("sliding_field", -2.0, 1e300, -1e300))  # field-sized products overflowed
@example(**_off("eval_P_X", 0.0))  # -2C/A is infinite
@example(**_off("eval_P_Y", 0.0))
@example(**_off("verify_darboux", 0.0))
@example(**_off("eval_P_X", 5e-324))
@example(**_off("eval_P_Y", -5e-324))
@example(**_off("eval_P_X", 1e-300))  # the power overflows
@example(**_off("eval_P_X", -1.5, math.nan))  # a NaN point
@example(**_off("verify_darboux", -1.5))
def test_library_raises_only_twofold_errors(call, resonant, A, C, H, Lambda, x, y, z):
    def system():
        return tf.resonant_system(C, H, Lambda) if resonant else tf.build_system(A, C, H, Lambda)

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            _CALLS[call](system, x, y, z)
        except TwofoldError:
            pass

