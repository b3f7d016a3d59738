"""Per-node report pieces against the per-scenario computations they replace.

The report builds each event's ``"level"`` off one member of its level
set, groups the enlarged filtration into id lists in one pass per row,
and the aggregator refines no row at a period where nothing is held and
reads each atom's value at any one member.  The references below are those
computations as they stood per scenario and period: the price rows sliced
off the least member, ``atoms_of`` then ``m.ids``, ``node_row`` over every
pair, and the value at ``min(atom)``.  The per-node versions must give the
same values, keys and order.  Tree(3, 3, 2) markets with eliminations at two
or more periods hold a position at more than one period, where the shortcut
for unheld periods does not apply.
"""

from __future__ import annotations

import random

from hypothesis import assume, given, settings, strategies as st

from arbscan.cli import build_report
from arbscan.market import Market, atoms_of, node_row
from arbscan.splitter import PolarAnalysis, backward_eliminate, universal_aggregator

from conftest import corpus_markets, seeded_tree_market, trinomial_tree


def _level_str(rows) -> str:
    return " ".join("(" + ",".join(str(x) for x in row) + ")" for row in rows)


def reference_aggregator(m: Market, pa: PolarAnalysis):
    """The aggregator's positions and enlarged rows, every row built per scenario."""
    id_of = {(0,) * m.d: 0}
    ids = [[0] * m.n for _ in range(m.T + 1)]
    for sp in pa.events:
        k = id_of.setdefault(sp.separator, len(id_of))
        for i in sp.block:
            ids[sp.t][i] = k
    history = [ids[0]]
    for s in range(1, m.T + 1):
        history.append(node_row(zip(history[-1], ids[s])))
    enlarged = tuple(
        node_row(zip(pa.nodes[t], history[min(t + 1, m.T)])) for t in range(m.T + 1)
    )
    values = list(id_of)
    positions = tuple(
        {
            atom: values[ids[t][min(atom)]]
            for atom in atoms_of(node_row(zip(enlarged[t - 1], ids[t])))
        }
        for t in range(1, m.T + 1)
    )
    return positions, enlarged


def reference_report_pieces(m: Market, pa: PolarAnalysis, enlarged) -> tuple[list, dict]:
    """The report's events and enlarged filtration, built per scenario."""
    events = [
        {
            "t": sp.t,
            "level": _level_str(m.scenarios[min(sp.members)].path[: sp.t]),
            "block": m.ids(sp.block),
            "separator": [str(x) for x in sp.separator],
        }
        for sp in pa.events
    ]
    filtration = {str(t): [m.ids(a) for a in atoms_of(enlarged[t])] for t in range(m.T + 1)}
    return events, filtration


def _agrees_with_the_references(m: Market) -> None:
    pa = backward_eliminate(m)
    h, enlarged = universal_aggregator(m, pa)
    positions, ref_enlarged = reference_aggregator(m, pa)
    assert enlarged == ref_enlarged
    assert h.positions == positions
    assert [list(pos) for pos in h.positions] == [list(pos) for pos in positions]

    report, _agrees = build_report(m)
    events, filtration = reference_report_pieces(m, pa, ref_enlarged)
    assert report["events"] == events
    assert report["enlarged_filtration"] == filtration


@settings(max_examples=150, deadline=None)
@given(corpus_markets() | trinomial_tree())
def test_per_node_pieces_match_per_scenario_on_corpus_and_trinomial_markets(m):
    _agrees_with_the_references(m)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_per_node_pieces_match_per_scenario_on_nested_trees(seed):
    m = seeded_tree_market(random.Random(seed), 3, 3, 2)
    assume(len({sp.t for sp in backward_eliminate(m).events}) >= 2)
    _agrees_with_the_references(m)
