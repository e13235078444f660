"""Modules of the package import only each other's public names."""

import ast
from pathlib import Path

PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / "lyapcut"


def private_imports(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found += [f"from .{node.module or ''} import {a.name}" for a in node.names if a.name.startswith("_")]
    return found


def test_no_private_names_imported_across_modules():
    paths = sorted(PACKAGE_DIR.glob("*.py"))
    assert paths
    offenders = {p.name: bad for p in paths if (bad := private_imports(p.read_text(encoding="utf-8")))}
    assert offenders == {}


def test_detector_flags_a_private_import():
    assert private_imports("from .experiments import run_suite, _atomic_write\n") == [
        "from .experiments import _atomic_write"
    ]
