"""The package imports only the standard library, numpy and yaml, uses
every name it imports and reads every private name it defines; a public
name is read inside the package or documented in README. A method counts
as read only as an attribute or a string, so a local variable of the same
name does not hide a dead one.

scipy, pytest and hypothesis are test dependencies (``pyproject.toml``), so
a kernel under ``src/holoseq`` must not reach for them. An import nothing
reads is what a deletion leaves behind, so the scan fails on it too, and a
public name that only tests read is code no result depends on.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "holoseq"
README = ROOT / "README.md"
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


def test_importing_the_package_and_cli_loads_no_scipy():
    # the scan above reads import statements only; an import made at run
    # time, or one a dependency makes, shows only in a fresh interpreter
    code = "import sys, holoseq, holoseq.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
    ).stdout
    assert out.strip() == "[]", out


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


def definitions(source: str) -> list[tuple[int, str, str]]:
    """(line, name, label) of each name the module defines at its top level
    (a function, class or assignment target) and of each method of its
    top-level classes; a method's label is ``Class.method``, any other
    label is the name."""
    tree = ast.parse(source)
    out = []

    def defined(node) -> list[str]:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return [node.name]
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        return []

    for node in tree.body:
        out += [(node.lineno, name, name) for name in defined(node)]
        if isinstance(node, ast.ClassDef):
            out += [
                (m.lineno, m.name, f"{node.name}.{m.name}")
                for m in node.body
                if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
    return out


def names_read(source: str) -> tuple[set[str], set[str]]:
    """(names, attributes): every name a module loads, reads as an attribute
    or imports, and the attributes it reads (``x.m``) with its string
    constants, the ways a method is read."""
    names, attributes = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
            attributes.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names |= {a.name for a in node.names}
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            attributes.add(node.value)
    return names, attributes


def reads(sources) -> tuple[set[str], set[str]]:
    """``names_read`` over several sources, joined."""
    found = [names_read(s) for s in sources]
    return set().union(*(n for n, _ in found)), set().union(*(a for _, a in found))


def is_read(name: str, label: str, read: tuple[set[str], set[str]]) -> bool:
    """Whether a definition of ``definitions`` is read: a method (label
    ``Class.m``) through an attribute or string constant only, so a bare
    local of the same name does not hide it; any other name also through a
    load or an import."""
    names, attributes = read
    return name in (attributes if "." in label else names)


def dead_private_code(sources: dict[str, str]) -> list[str]:
    """``file:line name`` of each private definition that no module of
    ``sources`` (file name -> source) reads."""
    read = reads(sources.values())
    return [
        f"{path}:{line} {name}"
        for path, source in sources.items()
        for line, name, label in definitions(source)
        if name.startswith("_") and not name.startswith("__") and not is_read(name, label, read)
    ]


def test_package_reads_every_private_name_it_defines():
    sources = {str(p.relative_to(SRC)): p.read_text() for p in sorted(SRC.rglob("*.py"))}
    assert sources
    found = dead_private_code(sources)
    assert not found, found


def test_private_scan_sees_every_definition_form():
    sources = {
        "a.py": "\n".join(
            [
                "_USED = 1",
                "_UNUSED, _PAIRED = 2, 3",
                "_ANNOTATED: int = 4",
                "def _helper():\n    return _USED",
                "class _Hidden:\n    def _method(self):\n        return self._attr\n    def __init__(self):\n        pass",
                "def public():\n    _local = 5\n    return _local",
                "class _Kept:\n    def _shadowed(self):\n        pass\n    def _by_name(self):\n        pass",
                # a local of a method's name does not read the method
                "def shadowing():\n    _shadowed = 6\n    return _shadowed",
            ]
        ),
        "b.py": "from a import _PAIRED, _Kept\nx = _PAIRED\ngetattr(_Kept(), '_by_name')",
    }
    assert dead_private_code(sources) == [
        "a.py:2 _UNUSED",
        "a.py:3 _ANNOTATED",
        "a.py:4 _helper",
        "a.py:6 _Hidden",
        "a.py:7 _method",
        "a.py:15 _shadowed",
    ]


def readme_code_names(text: str) -> set[str]:
    """Every identifier in the fenced blocks and inline code spans of a
    Markdown text."""
    fence = re.compile(r"^```[^\n]*\n(.*?)^```", re.M | re.S)
    code = fence.findall(text) + re.findall(r"`([^`]+)`", fence.sub("", text))
    return {w for chunk in code for w in re.findall(r"[A-Za-z_]\w*", chunk)}


def undocumented_public_code(sources: dict[str, str], readme: str) -> list[str]:
    """``file:line label`` of each public definition in ``sources`` (file
    name -> source) that no module but ``__init__.py`` reads, and that
    ``readme`` names in no code span or block. ``__init__.py`` only
    re-exports, so its definitions and reads do not count, and neither does
    an ``__all__`` entry."""
    modules = {path: source for path, source in sources.items() if Path(path).name != "__init__.py"}
    read = reads(modules.values())
    documented = readme_code_names(readme)
    return [
        f"{path}:{line} {label}"
        for path, source in modules.items()
        for line, name, label in definitions(source)
        if not name.startswith("_") and not is_read(name, label, read) and name not in documented
    ]


def test_package_reads_or_documents_every_public_name():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert sources
    found = undocumented_public_code(sources, README.read_text())
    assert not found, found


def test_public_scan_sees_every_definition_form():
    sources = {
        "a.py": "\n".join(
            [
                "USED = 1",
                "UNUSED, PAIRED = 2, 3",
                "NOTED: int = 4",
                "def helper():\n    return USED",
                "class Shown:\n    def method(self):\n        return self.attr\n    def read(self):\n        pass",
                "    def _hidden(self):\n        pass",
                "    def ok(self):\n        pass",
                "    def by_name(self):\n        pass",
                # a local of a method's name does not read the method
                "def documented():\n    ok = True\n    return ok",
                "__all__ = ['UNUSED']",
            ]
        ),
        "b.py": "from a import PAIRED\nprint(PAIRED, Shown().read, getattr(Shown(), 'by_name'))",
        "__init__.py": "from a import NOTED, helper\nhelper(NOTED)",
    }
    readme = "The helper and the method, in prose.\n\n```python\nShown()\n```\n\nCall `a.documented()`.\n"
    assert undocumented_public_code(sources, readme) == [
        "a.py:2 UNUSED",
        "a.py:3 NOTED",
        "a.py:4 helper",
        "a.py:7 Shown.method",
        "a.py:13 Shown.ok",
    ]
