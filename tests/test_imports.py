"""Every import in a library module is used by that module.

``__init__.py`` imports only to re-export, so it is left out.  A name
counts as used when the module loads it (``name`` or ``name.attr``).
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "beltrami")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py") and f != "__init__.py")


def unused_imports(source):
    """Names bound by the imports of ``source`` that it never loads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(f"line {line}: {name}" for name, line in bound.items()
                  if name not in loaded)


def test_the_guard_sees_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == [
        "line 1: os", "line 2: b"]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    with open(os.path.join(SRC, module)) as fh:
        assert unused_imports(fh.read()) == []
