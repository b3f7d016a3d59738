"""Every name a module of ``src/arbscan`` imports is used in that module,
and every private function, class or constant it defines at module level is
read somewhere in the package.

A name counts as used when the module reads it (an ``ast.Name`` anywhere,
annotations included) or lists it in ``__all__``.  ``from __future__``
imports are directives, not names, and are skipped.  An import left behind
when the code that read it moves away, such as ``atoms_of`` in a module that
no longer groups atoms, fails here.  So does a helper left behind when its
last caller goes, such as a row-rewriting ``_substitute`` in a solver that
no longer needs it, or a constant such as ``_ZERO = Fraction(0)`` in a module
that no longer builds a zero vector.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "arbscan"


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads, in order of import."""
    tree = ast.parse(source)
    imported: list[str] = []
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(elt.value for elt in node.value.elts)
    return [name for name in imported if name not in used]


def test_the_check_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import json\n"
        "import os.path\n"
        "from .market import Market, atoms_of as atoms\n"
        "__all__ = ['Market']\n"
        "def f(m: Market) -> str:\n"
        "    return json.dumps(m)\n"
    )
    assert unused_imports(source) == ["os", "atoms"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_what_it_uses(path):
    assert unused_imports(path.read_text("utf-8")) == []


def _defined_names(node: ast.stmt) -> list[str]:
    """The names a module-level statement defines: a function, a class or assigned names."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [target.id for target in node.targets if isinstance(target, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def unread_private_definitions(sources: dict[str, str]) -> list[str]:
    """The module-level private functions, classes and constants no module reads, as "module.name".

    ``sources`` maps module names to their text.  A definition is read when
    its own module reads the name (assigning it is no read), another module imports it by name from
    that module, or any module reads an attribute of that name.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    names: dict[str, set[str]] = {module: set() for module in trees}
    imported: set[tuple[str, str]] = set()
    attributes: set[str] = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                # an assignment stores the name and does not read it
                if not isinstance(node.ctx, ast.Store):
                    names[module].add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module:
                source = node.module.rpartition(".")[2]
                imported.update((source, a.name) for a in node.names)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            for name in _defined_names(node):
                if not name.startswith("_") or name.startswith("__"):
                    continue
                if name in names[module] or (module, name) in imported or name in attributes:
                    continue
                unread.append(f"{module}.{name}")
    return unread


def test_the_check_finds_an_unread_private_definition():
    sources = {
        "ratgeom": (
            "_ZERO = 0\n"
            "_ONE: int = 1\n"
            "_MAX_EXPONENT = 4300\n"
            "__all__ = ['public']\n"
            "def _pivot(row): return row if row else _ONE\n"
            "def _substitute(row): return row\n"
            "class _Tableau:\n"
            "    def flip(self, row): return _pivot(row)\n"
            "def _farkas_holds(lp): return lp\n"
            "def _eliminate(row): return row\n"
            "def __getattr__(name): raise AttributeError(name)\n"
        ),
        "oracle": (
            "from .ratgeom import _farkas_holds\n"
            "from . import ratgeom\n"
            "def _unused(): return _farkas_holds(ratgeom._eliminate(1))\n"
            "def public(): return ratgeom._Tableau, ratgeom._MAX_EXPONENT\n"
        ),
    }
    assert unread_private_definitions(sources) == [
        "ratgeom._ZERO",
        "ratgeom._substitute",
        "oracle._unused",
    ]


def test_every_private_definition_is_read():
    sources = {path.stem: path.read_text("utf-8") for path in sorted(SRC.glob("*.py"))}
    assert unread_private_definitions(sources) == []


def package_imports(source: str) -> set[str]:
    """The ``arbscan`` modules ``source`` imports from, relatively or by the package name."""
    found: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            parts = [a.name.split(".") for a in node.names]
            found.update(p[1] for p in parts if p[0] == "arbscan" and len(p) > 1)
            continue
        if not isinstance(node, ast.ImportFrom):
            continue
        parts = (node.module or "").split(".")
        if not node.level:
            if parts[0] != "arbscan":
                continue
            parts = parts[1:]
        # "from . import x" and "from arbscan import x" name the modules themselves
        found.update([parts[0]] if parts and parts[0] else [a.name for a in node.names])
    return found


def test_the_check_finds_every_package_import():
    source = (
        "import json\n"
        "import arbscan.splitter\n"
        "from fractions import Fraction\n"
        "from .errors import InternalError\n"
        "from . import measures\n"
        "from .ratgeom import lp_solve\n"
        "from arbscan import arbitrage\n"
        "from arbscan.cli import main\n"
        "def f():\n"
        "    from .market import Market\n"
    )
    assert package_imports(source) == {
        "splitter", "errors", "measures", "ratgeom", "arbitrage", "cli", "market"
    }


def test_oracle_imports_only_errors_market_and_ratgeom():
    # the oracle is the ground truth the geometric path (splitter, measures,
    # arbitrage) is checked against, so it may not reuse any of that path
    assert package_imports((SRC / "oracle.py").read_text("utf-8")) <= {"errors", "market", "ratgeom"}
