"""Points of the switching plane are pairs of Python floats: the solver
modules that produce them, and the invariants they read, import no NumPy, and
each public point is a tuple (x, y) of floats, never an array."""
import ast
from pathlib import Path

import pytest

import twofold
from twofold import (find_cycle_newton, half_return_Y, resonant_system, return_map,
                     sliding_field)

_FLOAT_MODULES = ("returns.py", "cycles.py", "sigma.py", "invariants.py")


@pytest.mark.parametrize("name", _FLOAT_MODULES)
def test_float_modules_import_no_numpy(name):
    tree = ast.parse((Path(twofold.__file__).parent / name).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            imported.append(node.module)
    assert not [m for m in imported if m.split(".")[0] == "numpy"], imported


def _is_float_pair(q):
    return type(q) is tuple and len(q) == 2 and all(type(v) is float for v in q)


def test_plane_points_are_float_pairs(desk_params, desk_cycle):
    hry = half_return_Y(desk_params, desk_cycle.p0)
    points = {
        "cycle.p0": desk_cycle.p0,
        "cycle.p1": desk_cycle.p1,
        "half_return.start": hry.start,
        "half_return.end": hry.end,
        "return_map": return_map(desk_params, desk_cycle.p0),
        "sliding_field": sliding_field(desk_params, (1.0, -1.0)),
    }
    assert {k: q for k, q in points.items() if not _is_float_pair(q)} == {}
    # the cycle from a fresh solve too, not only the shared fixture
    p = resonant_system(0.5, 0.05, 2.0)
    cycle = find_cycle_newton(p)
    assert _is_float_pair(cycle.p0) and _is_float_pair(cycle.p1)
