"""Packaging metadata stays consistent with what the package imports."""

import ast
import re
import sys
from pathlib import Path

import pytest

import frozenplanet

ROOT = Path(__file__).resolve().parents[1]
PACKAGE_DIR = ROOT / "src" / "frozenplanet"
TESTS_DIR = ROOT / "tests"


def _pyproject():
    tomllib = pytest.importorskip("tomllib")
    with (ROOT / "pyproject.toml").open("rb") as fh:
        return tomllib.load(fh)


def _requirement_names(requirements):
    return {
        re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower().replace("-", "_")
        for req in requirements
    }


def _third_party_imports(directory):
    names = set()
    for path in directory.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return {
        name for name in names
        if name not in sys.stdlib_module_names and name != "frozenplanet"
    }


def test_runtime_dependencies_match_imports():
    declared = _requirement_names(_pyproject()["project"]["dependencies"])
    assert _third_party_imports(PACKAGE_DIR) == declared == {"numpy"}


def test_test_imports_are_declared():
    # SciPy serves the tests as an oracle, so it belongs to the test extra.
    project = _pyproject()["project"]
    declared = _requirement_names(
        project["dependencies"] + project["optional-dependencies"]["test"]
    )
    assert _third_party_imports(TESTS_DIR) <= declared


def test_build_requires_only_setuptools():
    requires = _pyproject()["build-system"]["requires"]
    assert _requirement_names(requires) == {"setuptools"}


def test_readme_lists_every_public_name():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    missing = [
        name for name in frozenplanet.__all__
        if not re.search(rf"`{re.escape(name)}\b", readme)
    ]
    assert missing == []
