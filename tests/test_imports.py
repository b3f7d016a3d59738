"""Every name a module of ``src/arbscan`` imports is used in that module.

A name counts as used when the module reads it (an ``ast.Name`` anywhere,
annotations included) or lists it in ``__all__``.  ``from __future__``
imports are directives, not names, and are skipped.  An import left behind
when the code that read it moves away, such as ``atoms_of`` in a module that
no longer groups atoms, fails here.
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
