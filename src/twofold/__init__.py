"""Symmetric crossing limit cycles of a 3D piecewise-linear family.

Closed-form flows of the two affine pieces, switching-plane geometry, shared
first integrals and the reduced conic, half-return flight times with their
large-amplitude expansions, symmetric cycles found on the flight-time branch,
and saltation-corrected Floquet stability with the asymptotic (C, H)
stability band.

Every public name is resolved on first access (PEP 562): ``import twofold``
loads only ``errors``, and ``twofold.find_cycle_newton`` imports its module
then, so a process loads the modules, and NumPy, that its calls need.
"""
import importlib

from . import errors

__version__ = "0.1.0"

# The one declaration of the public API: each public name and its module.  A
# layer module's public names are the functions and classes it defines without
# a leading underscore, and system's INVOLUTION; the modules hold no __all__.
_NAMES = {name: module for module, names in {
    "system": ("SystemParams", "build_system", "resonant_system", "eval_X", "eval_Y",
               "apply_involution", "jacobian_X", "jacobian_Y", "INVOLUTION"),
    "flow": ("flow_X", "flow_Y", "fundamental_X", "fundamental_Y", "plane_flight",
             "stationary_X", "stationary_Y", "z_closed_form"),
    "sigma": ("RegionKind", "FoldKind", "FoldInfo", "classify_point", "fold_info",
              "sliding_field"),
    "invariants": ("DarbouxPair", "DarbouxReport", "eval_P_X", "eval_P_Y", "verify_darboux",
                   "ConicKind", "ConicGamma1", "gamma1_conic", "gamma1_discriminant",
                   "gamma1_branch_x"),
    "returns": ("HalfReturn", "first_crossing", "half_return_X", "half_return_Y",
                "SeriesCoeffs", "series_coeffs", "time_matching", "time_matching_table",
                "gamma2_at_critical"),
    "cycles": ("SymmetricCycle", "find_cycle_newton", "return_map", "ScanEntry",
               "scan_cycles", "asymptotic_seed"),
    "stability": ("saltation", "MonodromyReport", "monodromy", "schur_conditions",
                  "sigma_restriction", "m_gamma1", "tau_gamma1", "asymptotic_invariants",
                  "critical_h", "h_min", "band_width", "BandResult", "stability_band"),
    "orbit": ("Event", "simulate"),
}.items() for name in names}
_MODULES = frozenset(_NAMES.values())

__all__ = [*_NAMES, "errors"]


def __getattr__(name: str):
    """Import a public name's module and keep the value here, so the next
    access is a plain lookup; a layer module's name imports that module, so
    ``twofold.stability`` needs no import of its own."""
    if name in _NAMES:
        module = importlib.import_module(f".{_NAMES[name]}", __name__)
        value = globals()[name] = getattr(module, name)
        return value
    if name in _MODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_MODULES})
