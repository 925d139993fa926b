"""The dependency lists in pyproject.toml match what the package and its
tests import."""

import ast
import os
import re
import sys

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "cosmo")
TESTS = os.path.join(ROOT, "tests")


def imported_third_party(directory: str) -> set[str]:
    """Top-level modules imported in ``directory`` that are neither the
    standard library, ``cosmo``, nor a module of the directory itself."""
    names = set()
    local = {fname[:-3] for fname in os.listdir(directory) if fname.endswith(".py")}
    for fname in os.listdir(directory):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(directory, fname)) as f:
            tree = ast.parse(f.read(), fname)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return {n for n in names
            if n not in sys.stdlib_module_names and n != "cosmo" and n not in local}


def declared(extra: str | None = None) -> set[str]:
    """The runtime dependencies, or those of one optional extra."""
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as f:
        project = tomllib.load(f)["project"]
    deps = project["optional-dependencies"][extra] if extra else project["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", d).group(0).lower().replace("-", "_")
            for d in deps}


def test_dependencies_declared_and_used():
    assert imported_third_party(PACKAGE) == declared()


def test_runtime_dependency_is_numpy_alone():
    assert declared() == {"numpy"}


def test_test_imports_declared():
    # perfbench is the repository's benchmark package, importable from the
    # checkout; only the tests may use it, so only their scan drops it.
    assert imported_third_party(TESTS) - {"perfbench"} <= declared() | declared("test")
