"""Surface facts live in ``geometry`` alone: no other library module reads
a surface's parameters, so meshes and solvers place and evaluate points
only through the surface's own methods.  Within ``geometry`` each surface
supplies three hooks and ``ImplicitSurface`` composes the distance routes."""

import ast
import os

import pytest

from beltrami import Ellipsoid, Sphere, Torus
from beltrami.geometry import ImplicitSurface

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "beltrami")
PARAMETERS = {"radius", "abc", "abc2", "major_radius", "minor_radius"}


def parameter_reads(source):
    """``line N: attr`` for each load of a surface parameter attribute."""
    return [f"line {node.lineno}: {node.attr}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and node.attr in PARAMETERS]


def test_the_guard_sees_a_parameter_read():
    source = "def f(s):\n    s.scale = 2\n    return s.radius * s.abc[0]\n"
    assert sorted(parameter_reads(source)) == ["line 3: abc", "line 3: radius"]


@pytest.mark.parametrize("module", sorted(f for f in os.listdir(SRC)
                                          if f.endswith(".py") and f != "geometry.py"))
def test_module_reads_no_surface_parameter(module):
    with open(os.path.join(SRC, module)) as fh:
        assert parameter_reads(fh.read()) == []


HOOKS = {"_parts", "_outside", "_hessian"}
COMPOSED = {"_distance_raw", "_grad_raw", "_guarded_parts", "_guarded_grad", "_jet_raw",
            "_guarded_jet"}


@pytest.mark.parametrize("cls", [Sphere, Torus, Ellipsoid], ids=lambda cls: cls.__name__)
def test_surface_supplies_the_hooks_and_no_composed_route(cls):
    assert HOOKS <= set(vars(cls))
    assert COMPOSED & set(vars(cls)) == set()
    assert COMPOSED <= set(vars(ImplicitSurface))
