"""Per-node report pieces against the per-scenario computations they replace.

The report builds each event's ``"level"`` off one member of its level
set, groups the enlarged filtration into id lists in one pass per row,
and the aggregator refines no row at a period where nothing is held and
holds each event's separator on its block and nothing else.  The
references below are those computations as they stood per scenario and
period: the price rows sliced off the least member, ``atoms_of`` then
``m.ids``, ``node_row`` over every pair, and a position on every atom of
the refined enlarged row, read at ``min(atom)``.  The per-node versions
must give the same values, keys and order, once the reference's zero
positions are dropped.  Tree(3, 3, 2) markets with eliminations at two or
more periods hold a position at more than one period, where the shortcut
for unheld periods does not apply.

The full-support measure walks only the surviving nodes, through
``pa.parents``, builds the measure on ``int`` numerators and re-checks it on
the node tree; the reference is the construction as it stood, grouping
children by parent from every survivor's rows at every period, and the
re-check's reference is ``check_martingale`` on ``pa.nodes``.  Copied
scenarios make final nodes of 2 or 3 identical paths, where node masses
are split over the lcm of the node sizes.
"""

from __future__ import annotations

import random

from collections import Counter
from fractions import Fraction
from math import lcm
from typing import Optional

from hypothesis import assume, example, given, settings, strategies as st

from arbscan.cli import _atom_key, _weights_json, build_report
from arbscan.market import DiscreteMeasure, Market, atoms_of, node_row
from arbscan.measures import _martingale_on_tree, check_martingale, full_support_measure
from arbscan.ratgeom import convex_combination_for_zero
from arbscan.splitter import PolarAnalysis, backward_eliminate, universal_aggregator

from conftest import (
    copied_paths,
    corpus_markets,
    nested_trees,
    seeded_tree_market,
    split_corpus_markets,
    trinomial_tree,
)
from test_golden import shape_markets


def _level_str(rows) -> str:
    return " ".join("(" + ",".join(str(x) for x in row) + ")" for row in rows)


def reference_aggregator(m: Market, pa: PolarAnalysis):
    """The aggregator's positions and enlarged rows, every row built per scenario.

    Every atom of the refined enlarged row holds a position, zero or not.
    """
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
    assert h.positions == tuple({a: v for a, v in pos.items() if any(v)} for pos in positions)

    report, _agrees = build_report(m)
    events, filtration = reference_report_pieces(m, pa, ref_enlarged)
    assert report["events"] == events
    assert report["enlarged_filtration"] == filtration
    # the printed positions keep the reference's order: by least member
    assert [list(pos) for pos in report["aggregator"]["positions"].values()] == [
        [_atom_key(m, a) for a, v in pos.items() if any(v)] for pos in positions
    ]


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


def reference_full_support(m: Market, pa: PolarAnalysis) -> Optional[DiscreteMeasure]:
    """The full-support measure built per scenario: children grouped from every survivor's rows."""
    star = sorted(pa.omega_star)
    if not star:
        return None
    roots = sorted(set(map(pa.nodes[0].__getitem__, star)))
    frontier = [(k, 1) for k in roots]
    den = len(roots)
    for t in range(1, m.T + 1):
        up, row, increments = pa.nodes[t - 1], pa.nodes[t], pa.increments[t]
        parent = dict(zip(map(row.__getitem__, star), map(up.__getitem__, star)))
        children: dict[int, list[int]] = {}
        for c in sorted(parent):
            children.setdefault(parent[c], []).append(c)
        splits = []
        for k, mass in frontier:
            kids = children[k]
            nums, lam_den = convex_combination_for_zero([increments[c] for c in kids])
            splits.append((mass, kids, nums, lam_den))
        step = lcm(*(split[-1] for split in splits))
        den *= step
        frontier = [
            (c, mass * w * (step // lam_den))
            for mass, kids, nums, lam_den in splits for c, w in zip(kids, nums)
        ]
    last = pa.nodes[m.T]
    size = Counter(map(last.__getitem__, star))
    each = {c: Fraction(mass, den * size[c]) for c, mass in frontier}
    return DiscreteMeasure({i: each[last[i]] for i in star})


def _measure_markets():
    markets = corpus_markets() | split_corpus_markets() | trinomial_tree() | nested_trees()
    return markets | copied_paths(markets)


# the benchmark's T=5 shape with w0 copied twice (as w243 and w244) and
# w120, w58 (polar) and w242 once: final nodes of 3 and 2 identical paths
_T5_COPIED = shape_markets()["trinomial-T5-copied"]


@settings(max_examples=200, deadline=None)
@given(_measure_markets())
@example(_T5_COPIED)
def test_full_support_measure_matches_the_per_scenario_construction(m):
    pa = backward_eliminate(m)
    q, ref = full_support_measure(m, pa), reference_full_support(m, pa)
    assert q == ref and repr(q) == repr(ref)
    if q is not None:
        assert (q.numerators, q.denominator) == (ref.numerators, ref.denominator)
        ids = m.scenario_ids
        assert _weights_json(m, q) == {ids[i]: str(w) for i, w in sorted(ref.weights.items())}


def _half_moved(q: DiscreteMeasure, i: int, j: int) -> DiscreteMeasure:
    """``q`` with half of scenario i's weight moved onto scenario j."""
    moved = dict(q.weights)
    moved[j] += moved[i] / 2
    moved[i] /= 2
    return DiscreteMeasure(moved)


def test_tree_recheck_on_copied_paths():
    # w243 and w244 copy w0, and w245 copies w120; w0 and w120 part at t=1
    m = _T5_COPIED
    pa = backward_eliminate(m)
    q = pa.full_support
    for i, j, equal in ((0, 243, True), (244, 243, True), (120, 245, True), (0, 120, False)):
        planted = _half_moved(q, i, j)
        assert _martingale_on_tree(pa, planted) == equal
        assert check_martingale(m, planted, pa.nodes) == equal


@settings(max_examples=200, deadline=None)
@given(_measure_markets(), st.data())
def test_tree_recheck_agrees_with_check_martingale(m, data):
    pa = backward_eliminate(m)
    q = pa.full_support
    if q is None:
        return
    assert _martingale_on_tree(pa, q) and check_martingale(m, q, pa.nodes)
    # half a weight moved between two survivors leaves a martingale measure
    # exactly when their paths are equal; survivors with a twin draw it half
    # the time, so both outcomes are drawn
    star = sorted(pa.omega_star)
    if len(star) < 2:
        return
    paths = [s.path for s in m.scenarios]
    i = data.draw(st.sampled_from(star))
    twins = [j for j in star if j != i and paths[j] == paths[i]]
    pool = twins if twins and data.draw(st.booleans()) else [j for j in star if j != i]
    j = data.draw(st.sampled_from(pool))
    planted = _half_moved(q, i, j)
    equal = paths[i] == paths[j]
    assert _martingale_on_tree(pa, planted) == equal
    assert check_martingale(m, planted, pa.nodes) == equal
