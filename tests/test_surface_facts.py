"""Surface facts live in ``geometry`` alone: no other library module reads
a surface's parameters, so meshes and solvers place and evaluate points
only through the surface's own methods."""

import ast
import os

import pytest

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
