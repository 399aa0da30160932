"""Packaging claims: the library imports only the standard library."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import syncomp


def test_package_imports_only_the_standard_library():
    # the README says everything runs on the standard library, and
    # pyproject.toml lists no dependencies
    names = set()
    for path in Path(syncomp.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names.add(node.module.split(".")[0])
    assert names, "no imports found"
    assert names <= sys.stdlib_module_names, names - sys.stdlib_module_names
