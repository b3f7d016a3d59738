"""Production invariants raise, so they survive ``python -O``.

``python -O`` strips every ``assert`` statement, so an invariant that
arbscan relies on is checked by raising ``InternalError`` (exit 4), never by
``assert``.  This scans the package's source with ``ast`` and fails on any
``assert`` statement, naming its file and line.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "arbscan"


def test_src_holds_no_assert_statement():
    files = sorted(SRC.glob("*.py"))
    # pytest.fail, not assert, so the guard also holds under python -O
    if not files:
        pytest.fail(f"no source files under {SRC}")
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    if found:
        pytest.fail(f"assert statements in src/arbscan (raise InternalError instead): {found}")
