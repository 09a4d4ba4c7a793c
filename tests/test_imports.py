"""Every name a module of the package imports is used in that module, and
every function and class it defines is read by the package or the
benchmark.

``__init__`` is left out: its imports are the package's exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "kirillov"
MODULES = sorted(path for path in PACKAGE.glob("*.py")
                 if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of ``source`` that nothing reads.

    An attribute chain such as ``np.int32`` starts at a ``Name``, so it
    reads ``np``; ``from __future__`` imports bind nothing.
    """
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\n"
              "from . import g2 as g2mod, typea as typea_mod\n"
              "x = np.int32(os.sep)\n"
              "def f(t: g2mod.G2Params):\n    pass\n")
    assert unused_imports(source) == ["typea_mod"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# Definitions that nothing in the package or the benchmark reads, each
# kept for the reason given.
READ_ONLY_OUTSIDE = {
    "quadratic_character": "the symbolic point counter of ROADMAP item 5 "
                           "counts quadratic equations with it",
    "evaluate": "MultiPoly.evaluate is the tests' oracle for x_of",
    "predicted_rank_sequence": "public and documented in the README",
    "conservation_sum": "public and documented in the README",
}


def definitions(source: str) -> tuple[set[str], set[str]]:
    """Names of the methods, and of the other functions and classes,
    that ``source`` defines, dunders excepted."""
    methods, others = set(), set()
    for node in ast.walk(ast.parse(source)):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef))
                    and not (child.name.startswith("__")
                             and child.name.endswith("__"))):
                is_method = (isinstance(node, ast.ClassDef)
                             and not isinstance(child, ast.ClassDef))
                (methods if is_method else others).add(child.name)
    return methods, others


def reads(source: str) -> tuple[set[str], set[str]]:
    """What ``source`` reads: the loaded bare names, and the loaded
    attributes with the string constants (the benchmark's tracer names
    what it wraps by string).

    A method is read only through the second set, so a local or builtin
    of the same name does not keep it alive.  Attributes still match by
    name: ``FieldCtx.mul`` is kept alive by ``FieldTables.mul`` calls too.
    """
    names, attrs = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attrs.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            attrs.add(node.value)
    return names, attrs


def unread(sources, readers) -> list[str]:
    """Definitions of ``sources`` that none of ``readers`` reads."""
    methods, others, names, attrs = set(), set(), set(), set()
    for source in sources:
        m, o = definitions(source)
        methods |= m
        others |= o
    for source in readers:
        n, a = reads(source)
        names |= n
        attrs |= a
    return sorted((methods - attrs) | (others - names - attrs))


def test_unread_definitions_are_found():
    source = ("class K:\n    def used(self):\n        pass\n"
              "    def __len__(self):\n        return 0\n"
              "    def unused(self):\n        pass\n"
              "def helper():\n    return K().used()\n"
              "def patched():\n    pass\n"
              "TARGETS = ('patched',)\n")
    assert unread([source], [source]) == ["helper", "unused"]


def test_a_same_named_local_does_not_read_a_method():
    source = ("class K:\n    def zero(self):\n        return 0\n"
              "    def pow(self):\n        return 1\n"
              "def f():\n    zero = K()\n    return zero, pow(2, 3)\n"
              "f()\n")
    assert unread([source], [source]) == ["pow", "zero"]
    reader = "def g(k):\n    return k.zero()\n"
    assert unread([source], [source, reader]) == ["pow"]


def test_every_definition_is_read_by_the_package_or_the_benchmark():
    package = [path.read_text(encoding="utf-8") for path in MODULES]
    bench = [path.read_text(encoding="utf-8")
             for path in sorted((ROOT / "perfbench").glob("*.py"))]
    unread_anywhere = set(unread(package, package + bench))
    assert sorted(unread_anywhere - set(READ_ONLY_OUTSIDE)) == []
    # every entry still names a definition that nothing else reads
    assert sorted(set(READ_ONLY_OUTSIDE) - unread_anywhere) == []
