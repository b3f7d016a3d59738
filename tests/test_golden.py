"""Golden reports: the exact bytes of every pinned command output.

The files ``tests/golden/<market>.json`` hold ``build_report(m, verify=True)``
rendered as the CLI renders it.  They pin every rational the LP layer
produces (separators, aggregator positions, measure weights), so a kernel
change that keeps the same pivots must leave them byte-identical.  Beside
them, ``<market>.<command>.json`` pins the natural-filtration verdicts
``check --class MI`` and ``check --class 1p`` (whose witness is the oracle
LP's strategy) and the ``oracle`` command's output.  A change that alters
the bytes on purpose regenerates them with
``PYTHONPATH=src python tests/test_golden.py`` and says so in CHANGES.md.

The loader keeps integral prices as ``int``s.  The same bytes must come
from each market rebuilt with every price a ``Fraction``, and from the CLI
run under ``python -O``, which strips ``assert`` statements.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from arbscan.cli import build_report, main
from arbscan.market import load_market

sys.path.insert(0, str(Path(__file__).parent))
from conftest import (  # noqa: E402
    COUNTNA_DOC,
    EX1000_DOC,
    EX3D_DOC,
    MULTI_DOC,
    SVU_DOC,
    fraction_market,
)

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"

# two-period, two-asset tree with "p/q" prices: one node has a one-sided
# direction (c3 is polar), so separators and measure weights are fractional
FRACTREE_DOC = {
    "d": 2,
    "T": 2,
    "scenarios": [
        {"id": "a1", "prices": [["7/2", "5/3"], ["9/2", "4/3"], ["11/2", "3/2"]]},
        {"id": "a2", "prices": [["7/2", "5/3"], ["9/2", "4/3"], ["7/2", "5/4"]]},
        {"id": "a3", "prices": [["7/2", "5/3"], ["9/2", "4/3"], ["9/2", "2/3"]]},
        {"id": "b1", "prices": [["7/2", "5/3"], ["5/2", "7/3"], ["3", "8/3"]]},
        {"id": "b2", "prices": [["7/2", "5/3"], ["5/2", "7/3"], ["2", "7/3"]]},
        {"id": "b3", "prices": [["7/2", "5/3"], ["5/2", "7/3"], ["5/2", "2"]]},
        {"id": "c1", "prices": [["7/2", "5/3"], ["23/6", "2/3"], ["13/3", "11/12"]]},
        {"id": "c2", "prices": [["7/2", "5/3"], ["23/6", "2/3"], ["10/3", "5/12"]]},
        {"id": "c3", "prices": [["7/2", "5/3"], ["23/6", "2/3"], ["23/6", "1"]]},
    ],
    "classes": {"branch": [["a1", "a2"], ["c3"]]},
}

# one-asset trinomial tree whose middle node at t=1 is an arbitrage node:
# its two rising children are polar and its flat child survives, so the
# full-support measure is a product of two levels of max-min weights
TRINOMIAL_DOC = {
    "d": 1,
    "T": 2,
    "scenarios": [
        {"id": "a1", "prices": [[10], [13], [15]]},
        {"id": "a2", "prices": [[10], [13], [12]]},
        {"id": "a3", "prices": [[10], [13], [10]]},
        {"id": "b1", "prices": [[10], [11], [11]]},
        {"id": "b2", "prices": [[10], [11], [12]]},
        {"id": "b3", "prices": [[10], [11], [13]]},
        {"id": "c1", "prices": [[10], [8], [7]]},
        {"id": "c2", "prices": [[10], [8], [6]]},
        {"id": "c3", "prices": [[10], [8], [9]]},
    ],
    "classes": {"mixed": [["a1", "b2"], ["c3"]], "rising": [["b2", "b3"]]},
}

DOCS = {
    "svu": SVU_DOC,
    "multi": MULTI_DOC,
    "ex3d": EX3D_DOC,
    "ex1000": EX1000_DOC,
    "countna": COUNTNA_DOC,
    "fractree": FRACTREE_DOC,
    "trinomial": TRINOMIAL_DOC,
}


# name -> CLI arguments after the market file; the golden is <market>.<name>.json
COMMANDS = {
    "check-MI-natural": ["check", "--class", "MI", "--filtration", "natural"],
    "check-1p-natural": ["check", "--class", "1p", "--filtration", "natural"],
    "oracle": ["oracle"],
}


def render(doc: dict, rebuild=lambda m: m) -> str:
    report, _agrees = build_report(rebuild(load_market(doc)), verify=True)
    return json.dumps(report, indent=2) + "\n"


def render_command(doc: dict, command: str) -> str:
    """What ``arbscan <command> market.json`` writes for the market ``doc``."""
    cmd, *rest = COMMANDS[command]
    with tempfile.TemporaryDirectory() as tmp:
        market, out = Path(tmp, "market.json"), Path(tmp, "out.json")
        market.write_text(json.dumps(doc), "utf-8")
        main([cmd, str(market), "--out", str(out), *rest])
        return out.read_text("utf-8")


@pytest.mark.parametrize("name", sorted(DOCS))
def test_report_matches_golden(name):
    expected = (GOLDEN / f"{name}.json").read_text("utf-8")
    assert render(DOCS[name]) == expected


@pytest.mark.parametrize("name", sorted(DOCS))
def test_fraction_priced_market_matches_golden(name):
    expected = (GOLDEN / f"{name}.json").read_text("utf-8")
    assert render(DOCS[name], fraction_market) == expected


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("name", sorted(DOCS))
def test_command_matches_golden(name, command):
    expected = (GOLDEN / f"{name}.{command}.json").read_text("utf-8")
    assert render_command(DOCS[name], command) == expected


# one integral and one fractional market
@pytest.mark.parametrize("name", ["trinomial", "fractree"])
def test_cli_under_python_O_matches_golden(name, tmp_path):
    market = tmp_path / f"{name}.json"
    market.write_text(json.dumps(DOCS[name]), "utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-O", "-m", "arbscan.cli", "analyze", "--verify", str(market)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == (GOLDEN / f"{name}.json").read_text("utf-8")


if __name__ == "__main__":
    for name, doc in sorted(DOCS.items()):
        (GOLDEN / f"{name}.json").write_text(render(doc), "utf-8")
        for command in COMMANDS:
            (GOLDEN / f"{name}.{command}.json").write_text(render_command(doc, command), "utf-8")
