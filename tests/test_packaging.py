"""The dependency list in pyproject.toml matches what the package imports."""

import ast
import os
import re
import sys

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "cosmo")


def imported_third_party() -> set[str]:
    names = set()
    for fname in os.listdir(PACKAGE):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, fname)) as f:
            tree = ast.parse(f.read(), fname)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return {n for n in names if n not in sys.stdlib_module_names and n != "cosmo"}


def declared() -> set[str]:
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as f:
        deps = tomllib.load(f)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", d).group(0).lower().replace("-", "_")
            for d in deps}


def test_dependencies_declared_and_used():
    assert imported_third_party() == declared()
