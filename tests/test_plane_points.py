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
# modules that build arrays import NumPy inside those functions only, so that
# importing them, and the scalar commands of the CLI, load no NumPy
_LAZY_NUMPY_MODULES = ("system.py", "flow.py", "stability.py", "cli.py")


def _tree(name):
    return ast.parse((Path(twofold.__file__).parent / name).read_text())


def _numpy_imports(nodes):
    imported = []
    for node in nodes:
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            imported.append(node.module)
    return [m for m in imported if m.split(".")[0] == "numpy"]


@pytest.mark.parametrize("name", _FLOAT_MODULES)
def test_float_modules_import_no_numpy(name):
    assert _numpy_imports(ast.walk(_tree(name))) == []


def _run_at_import(body):
    """The statements of body that run when the module is imported: not
    those inside a function body, nor under ``if TYPE_CHECKING:``."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            yield from _run_at_import(node.orelse)
            continue
        yield node
        for field in ("body", "orelse", "finalbody", "handlers"):
            yield from _run_at_import(getattr(node, field, []))


@pytest.mark.parametrize("name", _LAZY_NUMPY_MODULES)
def test_array_modules_import_numpy_inside_functions_only(name):
    tree = _tree(name)
    assert _numpy_imports(_run_at_import(tree.body)) == []
    # the guard sees imports: each of these modules does import NumPy somewhere
    assert _numpy_imports(ast.walk(tree)) != []


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
