"""README's Library example runs as written, and every exported name resolves."""

import json
import re
from pathlib import Path

import arbscan

from conftest import SVU_DOC

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(tmp_path, capsys):
    library = README.read_text("utf-8").split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    market = tmp_path / "svu.json"
    market.write_text(json.dumps(SVU_DOC), "utf-8")
    assert '"market.json"' in code
    exec(code.replace('"market.json"', repr(str(market))), {})
    assert capsys.readouterr().out == "[['w1', 'w2'], ['w3', 'w4']]\nFalse\n"


def test_every_exported_name_resolves():
    missing = [name for name in arbscan.__all__ if not hasattr(arbscan, name)]
    assert missing == []
    assert len(set(arbscan.__all__)) == len(arbscan.__all__)
