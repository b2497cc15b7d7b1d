"""Every ``src/repro`` module is reached from a user-visible entry point.

A module that only tests import is code nobody runs: it still loads with
its package and still costs review, but no user path exercises it.  This
walks the static import graph from the entry points and asserts that
every module other than a package ``__init__`` or a ``__main__`` is
reached.  There is no allow-list: a module either gains a user on one of
these paths or leaves ``src/``.

The users (roots) are:

* ``repro.experiments`` and ``repro.experiments.__main__`` (the paper
  tables);
* ``repro.serve.server`` and ``repro.serve.gateway`` (the two serving
  front ends);
* ``repro.lint.__main__`` and ``repro.lint.cli`` (``reprolint``);
* every ``benchmarks/**/*.py`` and every ``examples/*.py``.

Edges come from every ``import`` / ``from ... import`` node of a reached
file, found with ``ast.walk`` so imports inside functions count.  A
package ``__init__`` that only re-exports does not make its submodules
reached: ``from repro.data import DataFactory`` reaches the module that
defines ``DataFactory`` (through the ``__init__``'s own imports, or the
lazy ``_EXPORTS`` map of :mod:`repro.runtime`), not its siblings.  A
package is reached whole when it is imported as a module
(``import repro.experiments``, ``from repro.tasks import power``) or when
a name its ``__init__`` defines itself is imported.
"""

from __future__ import annotations

import ast
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

ROOT_MODULES = (
    "repro.experiments",
    "repro.experiments.__main__",
    "repro.serve.server",
    "repro.serve.gateway",
    "repro.lint.__main__",
    "repro.lint.cli",
)


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


MODULES: dict[str, Path] = {
    _module_name(p): p for p in sorted((SRC / "repro").rglob("*.py"))
}


def _is_package(name: str) -> bool:
    return MODULES.get(name, Path()).name == "__init__.py"


@lru_cache(maxsize=None)
def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


@lru_cache(maxsize=None)
def _reexports(package: str) -> dict[str, str]:
    """``name -> module it is imported from`` for a package ``__init__``.

    Covers top-level ``from x import name`` statements and a module-level
    ``_EXPORTS = {"name": "module"}`` map (lazy ``__getattr__`` exports).
    """
    out: dict[str, str] = {}
    for stmt in _tree(MODULES[package]).body:
        if isinstance(stmt, ast.ImportFrom):
            for alias in stmt.names:
                out[alias.asname or alias.name] = stmt.module
        elif (
            isinstance(stmt, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "_EXPORTS" for t in stmt.targets)
            and isinstance(stmt.value, ast.Dict)
        ):
            for key, value in zip(stmt.value.keys, stmt.value.values):
                out[ast.literal_eval(key)] = ast.literal_eval(value)
    return out


def _defining_module(package: str, name: str) -> str:
    """Follow re-exports from ``package`` to the module that defines ``name``."""
    while f"{package}.{name}" not in MODULES and _is_package(package):
        source = _reexports(package).get(name)
        if source not in MODULES:
            return package  # defined in the ``__init__`` itself
        package = source
    return f"{package}.{name}" if f"{package}.{name}" in MODULES else package


def _imports(path: Path) -> set[str]:
    """The ``repro`` modules one file's import statements reach."""
    out: set[str] = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            out.update(a.name for a in node.names if a.name in MODULES)
        elif isinstance(node, ast.ImportFrom):
            assert not node.level, f"{path}: the scan reads absolute imports only"
            if node.module not in MODULES:
                continue
            for alias in node.names:
                if alias.name == "*":
                    out.add(node.module)
                else:
                    out.add(_defining_module(node.module, alias.name))
    return out


def _root_files() -> list[Path]:
    files = sorted((ROOT / "benchmarks").rglob("*.py"))
    files += sorted((ROOT / "examples").glob("*.py"))
    return files


def reached_modules() -> set[str]:
    reached: set[str] = set()
    frontier = set(ROOT_MODULES)
    for path in _root_files():
        frontier |= _imports(path)
    while frontier:
        name = frontier.pop()
        if name in reached:
            continue
        reached.add(name)
        frontier |= _imports(MODULES[name]) - reached
    return reached


def test_roots_exist():
    assert set(ROOT_MODULES) <= set(MODULES)
    assert any(p.parent.name == "e2e" for p in _root_files())
    assert any(p.parent.name == "examples" for p in _root_files())


def test_reexports_resolve_to_the_defining_module():
    assert _defining_module("repro.data", "DataFactory") == "repro.data.factory"
    assert _defining_module("repro.runtime", "cast_model") == "repro.runtime.predictor"
    assert _defining_module("repro.lint.rules", "all_rules") == "repro.lint.rules"
    assert _defining_module("repro.tasks", "power") == "repro.tasks.power"


def test_every_src_module_has_a_user():
    reached = reached_modules()
    orphans = sorted(
        name
        for name, path in MODULES.items()
        if path.name not in ("__init__.py", "__main__.py") and name not in reached
    )
    assert not orphans, (
        "src modules reached from no entry point (only tests import them); "
        f"give each a user or delete it: {orphans}"
    )


def _scan(tmp_path: Path, source: str) -> set[str]:
    # A fresh file per call: parsed trees are memoized by path.
    path = tmp_path / f"user{len(list(tmp_path.iterdir()))}.py"
    path.write_text(source)
    return _imports(path)


class TestScanRules:
    """The edge rules the reachability check above relies on."""

    def test_imports_inside_functions_count(self, tmp_path):
        source = "def main():\n    from repro.data import DataFactory\n"
        assert _scan(tmp_path, source) == {"repro.data.factory"}

    def test_a_reexport_reaches_only_its_defining_module(self, tmp_path):
        reached = _scan(tmp_path, "from repro.data import DataFactory, LabelCache\n")
        assert reached == {"repro.data.factory", "repro.data.cache"}
        assert "repro.data" not in reached

    def test_a_lazy_export_reaches_its_defining_module(self, tmp_path):
        reached = _scan(tmp_path, "from repro.runtime import cast_model\n")
        assert reached == {"repro.runtime.predictor"}

    def test_importing_a_package_as_a_module_reaches_the_package(self, tmp_path):
        assert _scan(tmp_path, "import repro.experiments\n") == {"repro.experiments"}
        assert _scan(tmp_path, "from repro.sim import *\n") == {"repro.sim"}

    def test_a_submodule_imported_by_name_is_reached(self, tmp_path):
        assert _scan(tmp_path, "from repro.tasks import power\n") == {
            "repro.tasks.power"
        }

    def test_a_reached_package_reaches_what_its_init_imports(self):
        assert _imports(MODULES["repro.tasks"]) == {
            "repro.tasks.power",
            "repro.tasks.reliability",
        }

    def test_imports_outside_repro_are_ignored(self, tmp_path):
        source = "import numpy as np\nfrom os import path\nimport reprolib\n"
        assert _scan(tmp_path, source) == set()

    def test_relative_imports_are_refused(self, tmp_path):
        with pytest.raises(AssertionError, match="absolute imports only"):
            _scan(tmp_path, "from . import sibling\n")
