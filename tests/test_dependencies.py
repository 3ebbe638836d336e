"""The package imports numpy and the standard library, nothing else."""

import ast
import sys
from pathlib import Path

import diqkd

ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def imported_modules(path: Path) -> set:
    """Top-level names of the absolute imports in one source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_package_imports_only_numpy_and_the_standard_library():
    files = sorted(Path(diqkd.__file__).parent.rglob("*.py"))
    found = {path.name: imported_modules(path) for path in files}
    assert "numpy" in found["linalg.py"]  # the walk sees the imports
    outside = {name: sorted(mods - ALLOWED) for name, mods in found.items() if mods - ALLOWED}
    assert outside == {}
