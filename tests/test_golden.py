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

``golden/digests.json`` pins many more markets by digest only: per seeded
market, one sha256 over its ``build_report(m, verify=True)`` JSON and its
natural ``MI`` and ``1p`` verdict JSON.  The markets are 300 random corpus
markets, 8 one-period Tree(16, 1, 4) markets and 2 trinomial T=4 trees, all
drawn from one seeded ``Random`` by the tests' generators; the same
regeneration command rewrites them.  ``golden/shape_digests.json`` pins, the
same way, the ``build_report(m)`` JSON (no oracle) of the benchmark's
``deep`` shape, a trinomial T=5 tree with 6 arbitrage nodes, of that tree
with a few scenarios copied under new ids, so that some final nodes hold 2
or 3 identical paths, and of a Tree(3, 3, 2) whose events fall at every
period.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from arbscan.arbitrage import classify
from arbscan.cli import _resolve_class, _verdict_json, build_report, main
from arbscan.market import Market, load_market
from arbscan.splitter import backward_eliminate

sys.path.insert(0, str(Path(__file__).parent))
from conftest import (  # noqa: E402
    COUNTNA_DOC,
    EX1000_DOC,
    EX3D_DOC,
    MULTI_DOC,
    SVU_DOC,
    fraction_market,
    paths_market,
    random_market,
    seeded_tree_market,
    seeded_trinomial_market,
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


def seeded_markets() -> dict[str, Market]:
    """The digest-pinned markets by name, all drawn from ``Random(931)`` in this order."""
    rng = random.Random(931)
    markets = {f"corpus-{k:03d}": random_market(rng) for k in range(300)}
    markets.update({f"wide-{k}": seeded_tree_market(rng, 16, 1, 4) for k in range(8)})
    markets.update({f"trinomial-{k}": seeded_trinomial_market(rng, 4, 1 + 2 * k) for k in range(2)})
    return markets


def digest(m: Market) -> str:
    """sha256 of the verified report and the natural MI and 1p verdicts, as the CLI renders them."""
    report, _agrees = build_report(m, verify=True)
    pa = backward_eliminate(m)
    docs = [report] + [
        _verdict_json(m, classify(m, pa, _resolve_class(m, name), "natural")) for name in ("MI", "1p")
    ]
    text = "".join(json.dumps(doc, indent=2) + "\n" for doc in docs)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# scenarios of the T=5 shape copied under new ids: w0 twice and w120, w58 and
# w242 once, so final nodes hold 3 and 2 identical paths (w58's is polar) and
# the full-support measure splits node masses over lcm(2, 3)
_COPIED = (0, 0, 120, 58, 242)


def shape_markets() -> dict[str, Market]:
    """The shape-pinned markets by name, each drawn from its own seeded ``Random``."""
    tri = seeded_trinomial_market(random.Random(931), 5, 6)
    paths = [s.path for s in tri.scenarios]
    return {
        "trinomial-T5": tri,
        "trinomial-T5-copied": paths_market(paths + [paths[i] for i in _COPIED]),
        "tree-332-nested": seeded_tree_market(random.Random(63), 3, 3, 2),
    }


def report_digest(m: Market) -> str:
    """sha256 of the report without the oracle, as the CLI renders it."""
    report, _agrees = build_report(m)
    return hashlib.sha256((json.dumps(report, indent=2) + "\n").encode("utf-8")).hexdigest()


def test_benchmark_shapes_match_digests():
    expected = json.loads((GOLDEN / "shape_digests.json").read_text("utf-8"))
    markets = shape_markets()
    assert list(markets) == list(expected)
    # the deep shape: n = 243 and one event per arbitrage node, all at T
    tri = markets["trinomial-T5"]
    assert tri.n == 243 and [sp.t for sp in backward_eliminate(tri).events] == [5] * 6
    # the tree nests eliminations: an event at every period, and survivors
    pa = backward_eliminate(markets["tree-332-nested"])
    assert {sp.t for sp in pa.events} == {1, 2, 3} and pa.omega_star
    for name, m in markets.items():
        assert report_digest(m) == expected[name], f"first market whose report changed: {name}"


def test_seeded_markets_match_digests():
    expected = json.loads((GOLDEN / "digests.json").read_text("utf-8"))
    markets = seeded_markets()
    assert list(markets) == list(expected)
    for name, m in markets.items():
        assert digest(m) == expected[name], f"first market whose outputs changed: {name}"


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
    digests = {name: digest(m) for name, m in seeded_markets().items()}
    (GOLDEN / "digests.json").write_text(json.dumps(digests, indent=1) + "\n", "utf-8")
    shapes = {name: report_digest(m) for name, m in shape_markets().items()}
    (GOLDEN / "shape_digests.json").write_text(json.dumps(shapes, indent=1) + "\n", "utf-8")
