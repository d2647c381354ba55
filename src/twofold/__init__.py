"""Symmetric crossing limit cycles of a 3D piecewise-linear family.

Closed-form flows of the two affine pieces, switching-plane geometry, shared
first integrals and the reduced conic, half-return flight times with their
large-amplitude expansions, symmetric-cycle detection on the branch
coordinate, and saltation-corrected Floquet stability with the asymptotic
(C, H) stability band.
"""
from .system import (SystemParams, build_system, resonant_system, eval_X, eval_Y,
                     apply_involution, jacobian_X, jacobian_Y, INVOLUTION,
                     params_to_dict, params_from_dict, params_to_json, params_from_json)
from .flow import (flow_X, flow_Y, fundamental_X, fundamental_Y,
                   stationary_X, stationary_Y)
from .sigma import (RegionKind, SigmaClass, FoldKind, FoldInfo, classify_point,
                    tangency_lines, fold_info, sliding_field)
from .invariants import (DarbouxPair, DarbouxReport, eval_P_X, eval_P_Y,
                         verify_darboux, ConicKind, ConicGamma1, gamma1_conic,
                         gamma1_discriminant, gamma1_branch_x, branch_min_y)
from .returns import (HalfReturn, half_return_X, half_return_Y, SeriesCoeffs,
                      series_coeffs, time_matching, time_matching_table,
                      gamma2_at_critical)
from .cycles import (SymmetricCycle, closure_residual, find_cycle_newton,
                     return_map, iterate_reduced_map, ScanEntry, scan_cycles,
                     asymptotic_seed)
from .stability import (saltation, MonodromyReport, monodromy, schur_conditions,
                        sigma_restriction, m_gamma1, tau_gamma1, asymptotic_invariants,
                        critical_h, h_min, band_width, BandResult, stability_band)
from . import errors

__version__ = "0.1.0"
