"""The package imports only the standard library, numpy and yaml.

scipy, pytest and hypothesis are test dependencies (``pyproject.toml``), so
a kernel under ``src/holoseq`` must not reach for them.
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "holoseq"
ALLOWED = {"holoseq", "numpy", "yaml"}


def foreign_imports(source: str) -> list[tuple[int, str]]:
    """(line, top-level module) of each absolute import outside ALLOWED and
    the standard library."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            if top not in ALLOWED and top not in sys.stdlib_module_names:
                out.append((node.lineno, top))
    return out


def test_package_imports_only_stdlib_numpy_and_yaml():
    files = sorted(SRC.rglob("*.py"))
    assert files
    found = [
        f"{p.relative_to(SRC)}:{line} imports {mod}" for p in files for line, mod in foreign_imports(p.read_text())
    ]
    assert not found, found


def test_scan_sees_every_import_form():
    source = "\n".join(
        [
            "import scipy.linalg",
            "from scipy.sparse import linalg",
            "import numpy as np, hypothesis",
            "from . import series",
            "from __future__ import annotations",
            "def f():\n    import pytest",
        ]
    )
    assert foreign_imports(source) == [(1, "scipy"), (2, "scipy"), (3, "hypothesis"), (7, "pytest")]
