"""The package imports only the standard library, numpy and yaml, and uses
every name it imports.

scipy, pytest and hypothesis are test dependencies (``pyproject.toml``), so
a kernel under ``src/holoseq`` must not reach for them. An import nothing
reads is what a deletion leaves behind, so the scan fails on it too.
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


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, bound name) of each import whose name the module reads
    nowhere, in any scope. A name in ``__all__`` counts as read; ``from
    __future__`` imports bind no name."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            # ``import a.b`` binds ``a``
            bound += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names if a.name != "*"]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                read |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return [(line, name) for line, name in bound if name not in read]


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


def test_package_reads_every_name_it_imports():
    files = sorted(SRC.rglob("*.py"))
    assert files
    found = [f"{p.relative_to(SRC)}:{line} imports {name}" for p in files for line, name in unused_imports(p.read_text())]
    assert not found, found


def test_unused_scan_sees_every_import_form():
    source = "\n".join(
        [
            "from __future__ import annotations",
            "import os.path",
            "import numpy as np, math",
            "from . import series as ser",
            "from .checks import check_keys, is_integer",
            "from .models import expm",
            "__all__ = ['expm']",
            "def f(x: ser.CoeffSeries):",
            "    import sys",
            "    return is_integer(x) and math.pi",
        ]
    )
    assert unused_imports(source) == [(2, "os"), (3, "np"), (5, "check_keys"), (9, "sys")]
