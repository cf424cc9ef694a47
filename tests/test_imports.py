"""Every import in a library module is used by that module, and every
private definition in the package is used somewhere in it.

``__init__.py`` imports only to re-export, so it is left out of the
import check.  A name counts as used when code loads it (``name`` or
``name.attr``, for a private definition ``obj.name`` too).
"""

import ast
import os
import subprocess
import sys

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


def unloaded_private_definitions(sources):
    """``_``-prefixed functions, methods and classes (dunders aside) defined
    in ``sources`` (file name -> source text) that none of them loads by
    name or attribute, as ``file:line: name``."""
    defined, loaded = {}, set()
    for name, source in sorted(sources.items()):
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.setdefault(node.name, f"{name}:{node.lineno}")
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    return sorted(f"{where}: {name}" for name, where in defined.items()
                  if name not in loaded)


def test_the_guard_sees_an_unloaded_private_definition():
    sources = {
        "a.py": "def _used():\n    pass\n\n\nclass _Base:\n    def _stub(self):\n"
                "        pass\n\n    def __init__(self):\n        self._hook()\n",
        "b.py": "from a import _used\n_used()\n\n\ndef _hook():\n    pass\n",
    }
    assert unloaded_private_definitions(sources) == ["a.py:5: _Base", "a.py:6: _stub"]


def test_package_loads_every_private_definition():
    sources = {}
    for module in sorted(f for f in os.listdir(SRC) if f.endswith(".py")):
        with open(os.path.join(SRC, module)) as fh:
            sources[module] = fh.read()
    assert unloaded_private_definitions(sources) == []


def test_import_loads_no_solver_modules():
    """``import beltrami`` loads neither ``scipy.sparse.linalg`` nor
    ``scipy.linalg``: a CLI or benchmark start-up pays only for what the
    package uses at import time."""
    code = ("import sys, beltrami; "
            "print([m for m in ('scipy.sparse.linalg', 'scipy.linalg') if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.dirname(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
