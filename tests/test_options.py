"""The option count and the size of `src/tinycil` do not grow, and no constant
has two owners.

An option is a value a caller can set: a parameter with a default (keyword-only
ones included) or an annotated field of a `@dataclass`. Each one multiplies
the configurations the tests must cover, so an added option removes one
elsewhere or raises MAX_OPTIONS in plain sight. The package's lines, counted
as the benchmark counts them, are bounded by MAX_SRC_LINES in the same way.

A constant is an upper-case name bound at module level. Two modules that
define the same one can drift apart; one module owns it and the others import
it.

A public module-level function or class that only tests call is code the
program does not need; the package, the benchmark, the demos or the
acceptance criteria must name it somewhere outside its own definition. The
same holds for each public method or property of a module-level class.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "tinycil").glob("*.py"))
MAX_OPTIONS = 92
MAX_SRC_LINES = 3472
# the files whose names keep a public definition of `src/tinycil` reachable
REACHING = [*SOURCES, *sorted((ROOT / "perfbench").glob("*.py")),
            *sorted((ROOT / "demos").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else getattr(
            target, "id", None)
        if name == "dataclass":
            return True
    return False


def count_options(source: str) -> int:
    """Defaulted parameters of every function, method and lambda in `source`,
    plus the annotated fields of its `@dataclass` classes."""
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(s, ast.AnnAssign) for s in node.body)
    return count


def module_constants(source: str) -> set[str]:
    """Upper-case names bound by a module-level assignment in `source`."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            elts = target.elts if isinstance(target, ast.Tuple) else [target]
            names.update(e.id for e in elts
                         if isinstance(e, ast.Name) and e.id.isupper())
    return names


def duplicate_constants(sources: dict[str, str]) -> dict[str, list[str]]:
    """Each constant that more than one of `sources` (name -> text) defines,
    with the names of the sources that define it."""
    owners: dict[str, list[str]] = {}
    for name, source in sorted(sources.items()):
        for const in module_constants(source):
            owners.setdefault(const, []).append(name)
    return {c: files for c, files in owners.items() if len(files) > 1}


def public_definitions(source: str) -> set[str]:
    """Functions and classes that `source` defines at module level, without a
    leading underscore."""
    return {node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def public_methods(source: str) -> set[str]:
    """`Class.name` for each method and property, without a leading
    underscore, of the classes that `source` defines at module level."""
    return {f"{top.name}.{node.name}" for top in ast.parse(source).body
            if isinstance(top, ast.ClassDef) for node in top.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_")}


def _reads(node: ast.AST) -> set[str]:
    used = set()
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        used.add(node.id)
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        used.add(node.attr)
    elif isinstance(node, ast.alias):
        used.add(node.name.rsplit(".", 1)[-1])
    for child in ast.iter_child_nodes(node):
        used |= _reads(child)
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        used.discard(node.name)
    return used


def names_used(source: str) -> set[str]:
    """Every name `source` reads, as a name, an attribute or an import,
    outside the definition (function, method or class) of that name; an
    assigned name is not read."""
    return _reads(ast.parse(source))


def test_count_options_counts_defaults_and_dataclass_fields():
    source = ("from dataclasses import dataclass\n"
              "@dataclass(frozen=True)\nclass A:\n    x: int\n    y: int = 1\n"
              "    Z = 3\n    def m(self, k=0):\n        pass\n"
              "class B:\n    x: int = 0\n"
              "def f(a, b=1, *args, c, d=2, **kw):\n    return lambda e=3: e\n")
    # A.x, A.y, A.m's k, f's b and d, the lambda's e; B is no dataclass
    assert count_options(source) == 6


def test_duplicate_constants_finds_names_two_modules_bind():
    sources = {"a.py": "X = 1\n_Y, z = 2, 3\ndef f():\n    W = 1\n",
               "b.py": "from a import X\nX = 2\n_Y: int = 4\nW = 0\n",
               "c.py": "z = 5\nV = 6\n"}
    assert duplicate_constants(sources) == {"X": ["a.py", "b.py"],
                                            "_Y": ["a.py", "b.py"]}


def test_option_count_does_not_grow():
    per_module = {path.name: count_options(path.read_text()) for path in SOURCES}
    total = sum(per_module.values())
    assert total <= MAX_OPTIONS, (
        f"src/tinycil has {total} options, above {MAX_OPTIONS}: "
        + ", ".join(f"{name} {n}" for name, n in per_module.items() if n))


def test_source_lines_do_not_grow():
    per_module = {path.name: len(path.read_text().splitlines()) for path in SOURCES}
    total = sum(per_module.values())
    assert total <= MAX_SRC_LINES, (
        f"src/tinycil has {total} lines, above {MAX_SRC_LINES}: "
        + ", ".join(f"{name} {n}" for name, n in per_module.items()))


def test_no_constant_is_defined_in_two_modules():
    assert duplicate_constants({p.name: p.read_text() for p in SOURCES}) == {}


def test_reachability_helpers_see_names_attributes_and_imports():
    source = ("import a.b\nfrom c import d as e\n"
              "def f():\n    return f() + g.h\n"
              "class K:\n    x = K\n    y.z = 1\n"
              "def _p():\n    return q\n")
    assert public_definitions(source) == {"f", "K"}
    # f and K are read only inside their own definitions; x and z are assigned
    assert names_used(source) == {"b", "d", "g", "h", "q", "y"}


def test_a_method_read_only_inside_itself_is_not_used():
    source = ("class K:\n    def m(self):\n        return self.m()\n"
              "    @property\n    def p(self):\n        return self.n()\n"
              "    @p.setter\n    def p(self, v):\n        pass\n"
              "    def n(self):\n        return 1\n    def _q(self):\n        pass\n"
              "def f():\n    def g():\n        pass\n")
    assert public_methods(source) == {"K.m", "K.p", "K.n"}
    # m reads itself and the setter's decorator reads p, each inside its own
    # definition; n is read by p
    assert names_used(source) == {"n", "property", "self", "setter"}


def test_every_public_definition_is_named_outside_the_tests():
    used = set().union(*(names_used(path.read_text()) for path in REACHING))
    unreached = {f"{path.name}: {name}" for path in SOURCES
                 for name in public_definitions(path.read_text()) - used}
    assert not unreached, sorted(unreached)


def test_every_public_method_is_named_outside_the_tests():
    used = set().union(*(names_used(path.read_text()) for path in REACHING))
    unreached = {f"{path.name}: {name}" for path in SOURCES
                 for name in public_methods(path.read_text())
                 if name.split(".")[1] not in used}
    assert not unreached, sorted(unreached)
