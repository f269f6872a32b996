"""The demos run, and none of them calls `tinycil` in a way it no longer takes.

Each demo runs in a fresh interpreter with `PYTHONPATH=src`, the way the
README tells a reader to run it, and must exit 0. Demos 04 (one training step)
and 05 (a full incremental protocol) take about 4-8 s each on two shared
cores, the others under half a second. Each is also checked statically: it
parses, every name it imports from `tinycil` exists, and every call of an
imported `tinycil` callable binds to its signature.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def tinycil_call_errors(source: str) -> list[str]:
    """Where `source` does not fit the importable `tinycil`: each name it
    imports from the package that does not exist, and each call of an
    imported callable, or of a function of an imported module, whose
    arguments do not bind to its signature. A call that unpacks `*args` or
    `**kwargs` is not checked."""
    tree = ast.parse(source)
    errors, imported = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "tinycil":
            module = importlib.import_module(node.module)
            for alias in node.names:
                if hasattr(module, alias.name):
                    imported[alias.asname or alias.name] = getattr(module, alias.name)
                else:
                    errors.append(f"line {node.lineno}: {node.module} has no {alias.name}")
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in imported:
            name, target = func.id, imported[func.id]
        elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
              and inspect.ismodule(imported.get(func.value.id))):
            name = f"{func.value.id}.{func.attr}"
            target = getattr(imported[func.value.id], func.attr, None)
            if target is None:
                errors.append(f"line {node.lineno}: no {name}")
                continue
        else:
            continue
        if (any(isinstance(a, ast.Starred) for a in node.args)
                or any(k.arg is None for k in node.keywords)):
            continue
        try:
            inspect.signature(target).bind(*node.args,
                                           **{k.arg: k.value for k in node.keywords})
        except TypeError as exc:
            errors.append(f"line {node.lineno}: {name}: {exc}")
    return errors


def test_call_check_finds_a_missing_name_and_calls_that_do_not_bind():
    source = ("from tinycil import generate_synthetic, no_such_name\n"
              "from tinycil import tensor as T\n"
              "generate_synthetic(3, 8, 4, 16, 0.5, 7)\n"
              "generate_synthetic(3, 8, 4, image_size=16, difficulty=0.5, seed=7)\n"
              "T.max_(x)\nT.relu(x)\nT.no_such_op(x)\nnp.max(x)\n")
    errors = tinycil_call_errors(source)
    assert [e.split(":")[0] for e in errors] == [
        "line 1", "line 3", "line 5", "line 7"], errors
    assert "no_such_name" in errors[0] and "T.no_such_op" in errors[3]


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_calls_tinycil_by_its_signatures(demo):
    assert tinycil_call_errors(demo.read_text()) == []


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_exits_0(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
