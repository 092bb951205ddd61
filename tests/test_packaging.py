"""Packaging: every third-party module ``src/repro`` imports is a declared
dependency, ``repro.__version__`` is the version ``pip`` installs, and every
name a module exports in ``__all__`` exists.

``pip install -e .`` installs only ``[project] dependencies``; a module the
package imports but does not declare leaves an install where ``import repro``
fails.
"""

from __future__ import annotations

import ast
import re
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def imported_top_level_modules(package: Path) -> dict[str, set[str]]:
    """Top-level module name -> files importing it (absolute imports only)."""
    found: dict[str, set[str]] = {}
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                names = [node.module]
            else:
                continue
            for name in names:
                found.setdefault(name.split(".")[0], set()).add(
                    str(path.relative_to(ROOT))
                )
    return found


def declared_dependencies() -> set[str]:
    """Distribution names of ``[project] dependencies``, normalised."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = set()
    for requirement in project["dependencies"]:
        name = re.match(r"[A-Za-z0-9._-]+", requirement).group(0)
        names.add(name.lower().replace("-", "_"))
    return names


def test_third_party_imports_are_declared():
    imports = imported_top_level_modules(ROOT / "src" / "repro")
    third_party = {
        name: files
        for name, files in imports.items()
        if name not in sys.stdlib_module_names and name != "repro"
    }
    assert {"numpy", "scipy"} <= set(third_party)  # the walk sees real imports
    undeclared = {
        name: sorted(files)
        for name, files in third_party.items()
        if name.lower() not in declared_dependencies()
    }
    assert not undeclared, f"imported but not in [project] dependencies: {undeclared}"


def test_package_version_matches_the_installed_metadata():
    import repro

    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert repro.__version__ == project["version"]


def test_console_scripts_resolve():
    import importlib

    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    assert set(scripts) == {"repro", "repro-serve"}
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_every_exported_name_resolves():
    # A name deleted from a module but left in its ``__all__`` would only
    # fail ``from repro.X import *``; the walk catches it here.
    import importlib
    import pkgutil

    import repro

    modules = [repro] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
    ]
    packages = {
        ".".join(path.parent.relative_to(ROOT / "src").parts)
        for path in (ROOT / "src" / "repro").rglob("__init__.py")
    }
    assert packages <= {module.__name__ for module in modules}
    unresolved = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert not unresolved, f"exported but not defined: {unresolved}"
