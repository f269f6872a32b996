"""Every name a source, test or demo file imports is used in that file.

`src/tinycil/__init__.py` is exempt: its imports are the package's re-exports.
A name counts as used when it appears anywhere in the file, annotations
included, as a bare name or as the root of an attribute chain.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from helpers import run_fresh_python

ROOT = Path(__file__).resolve().parents[1]
EXEMPT = {ROOT / "src" / "tinycil" / "__init__.py"}
FILES = sorted(path for folder in ("src/tinycil", "tests", "demos")
               for path in (ROOT / folder).glob("*.py") if path not in EXEMPT)


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that no other node of `source` reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names
                            if alias.name != "*")
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_finds_what_is_never_read():
    source = ("import os\nimport os.path as osp\nimport numpy.linalg\n"
              "from math import inf, pi as PI\n"
              "def f() -> inf:\n    import sys\n    return numpy.linalg.norm\n")
    assert unused_imports(source) == ["PI", "os", "osp", "sys"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_file_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_tinycil_loads_no_scipy_module():
    loaded = run_fresh_python(
        "-c", "import sys\nimport tinycil.cli\n"
        "print(' '.join(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert loaded.split() == []
