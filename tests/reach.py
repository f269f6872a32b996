"""List the statements of `src/tinycil` that no system run reaches.

The system runs are what a user or the benchmark does with the package, run
in this one interpreter under `sys.settrace` and `threading.settrace` (the
second because `model.embed` works on pool threads):

- the CLI on `configs/example.ini`: `run`, a rerun from the run's manifest,
  `compare` of the two, `gen-data`, and `ablate` on each of its three axes;
- the six demos;
- the three benchmark workloads at seed 1, each through `perfbench/child.py`
  in `--mode prep` and then `--mode run`.

It then prints `module:line: statement` for every statement inside a function
of `src/tinycil` that none of them executes, leaving out `raise` statements
and docstrings. What is listed is reached by unit tests alone, or by
nothing; ROADMAP.md says why each listed statement stays. Run it from any
directory; it writes only to a temporary directory and takes about 40 s on a
2-vCPU VM, most of it the runs themselves:

    python3 tests/reach.py

It is not a test module, so pytest does not collect it.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import runpy
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tinycil"
CONFIG = ROOT / "configs" / "example.ini"
CHILD = ROOT / "perfbench" / "child.py"
WORKLOADS = ("conv_ft", "patch_steps", "eval_ckpt")

# file name -> the lines that ran in `src/tinycil` frames, and the local
# trace function that records them
executed: dict[str, set[int]] = {}
_line_tracers: dict[str, object] = {}
_PREFIX = str(PACKAGE) + os.sep


def _trace(frame, event, arg):
    path = frame.f_code.co_filename
    if not path.startswith(_PREFIX):
        return None
    if path not in _line_tracers:
        add = executed.setdefault(os.path.basename(path), set()).add

        def line(frame, event, arg):
            add(frame.f_lineno)
            return line
        _line_tracers[path] = line
    return _line_tracers[path]


def _cli(*argv: str) -> None:
    # imported under the tracer, so that what runs at import is seen
    from tinycil import cli
    if cli.main(list(argv)) != 0:
        raise SystemExit(f"tinycil {' '.join(argv)} failed")


def _script(path: Path, *argv: str) -> None:
    """Run `path` as `__main__` with `argv`; a non-zero exit stops the probe."""
    sys.argv = [str(path), *argv]
    try:
        runpy.run_path(str(path), run_name="__main__")
    except SystemExit as exc:
        if exc.code not in (0, None):
            raise SystemExit(f"{path.name} {' '.join(argv)} exited {exc.code}")


def system_runs(tmp: Path) -> None:
    _cli("run", "--config", str(CONFIG), "--out", str(tmp / "run"))
    _cli("run", "--config", str(tmp / "run" / "manifest.json"),
         "--out", str(tmp / "rerun"))
    _cli("compare", str(tmp / "run"), str(tmp / "rerun"), "--out", str(tmp / "compare"))
    _cli("gen-data", "--classes", "4", "--per-class", "8", "--out", str(tmp / "data.cild"))
    for axis in ("stem", "bias_correction", "classifier_lr"):
        _cli("ablate", "--config", str(CONFIG), "--axis", axis,
             "--out", str(tmp / f"ablate-{axis}"))
    for demo in sorted((ROOT / "demos").glob("*.py")):
        _script(demo)
    for name in WORKLOADS:
        work = tmp / name
        work.mkdir()
        common = ["--workload", name, "--seed", "1", "--work", str(work)]
        _script(CHILD, *common, "--mode", "prep", "--result", str(work / "prep.json"))
        _script(CHILD, *common, "--mode", "run", "--out", str(work / "run"),
                "--result", str(work / "run.json"))


def _statements(body: list[ast.stmt]):
    """The statements of a function body, nested blocks included and nested
    function bodies not, less raises and constant expressions (docstrings),
    which compile to no code."""
    for node in body:
        if isinstance(node, ast.Raise) or (
                isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)):
            continue
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for field in ("body", "orelse", "finalbody"):
            yield from _statements(getattr(node, field, []))
        for handler in getattr(node, "handlers", []):
            yield from _statements(handler.body)


def _own_lines(node: ast.stmt) -> range:
    """The lines whose line events execute `node` itself: a compound
    statement's header (decorators included), a simple statement's lines."""
    start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    body = getattr(node, "body", None)
    stop = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
    return range(start, stop + 1)


def unreached() -> list[str]:
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        functions = [node for node in ast.walk(ast.parse(source))
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for func in functions:
            for node in _statements(func.body):
                if executed.get(path.name, set()).isdisjoint(_own_lines(node)):
                    text = ast.get_source_segment(source, node).splitlines()[0]
                    found.append((path.name, node.lineno, text.strip()))
    return [f"{name}:{line}: {text}" for name, line, text in sorted(found)]


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    cwd, argv = os.getcwd(), sys.argv
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        os.chdir(tmp)
        threading.settrace(_trace)
        sys.settrace(_trace)
        try:
            system_runs(Path(tmp))
        finally:
            sys.settrace(None)
            threading.settrace(None)
            os.chdir(cwd)
            sys.argv = argv
    for line in unreached():
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
