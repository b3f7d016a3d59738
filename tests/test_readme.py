"""README's Library example runs as written, and every name it exports or reads off an analysis resolves."""

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


def test_every_pa_attribute_in_readme_resolves():
    from arbscan.market import load_market
    from arbscan.splitter import backward_eliminate

    # pa is the README's name for a PolarAnalysis, in prose and in code
    named = set(re.findall(r"\bpa\.([A-Za-z_]\w*)", README.read_text("utf-8")))
    assert {"omega_star", "nodes"} <= named
    pa = backward_eliminate(load_market(SVU_DOC))
    assert sorted(name for name in named if not hasattr(pa, name)) == []
