"""Integral prices load as ``int``s, and the answers do not depend on it.

An ``int`` is as exact as the equal ``Fraction`` and cheaper to add, hash and
compare, so the loader keeps integral prices as ``int``s and every LP that
arbscan builds from them holds only ``int``s.  These tests pin both halves:
the types on the hot path, and reports and verdicts that are byte-identical
to those of the same market with every price a ``Fraction``.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import arbscan.ratgeom as ratgeom
from arbscan.arbitrage import classify
from arbscan.cli import _verdict_json, build_report
from arbscan.market import Market, SignificantClass, load_market
from arbscan.oracle import build_polytope
from arbscan.splitter import backward_eliminate

sys.path.insert(0, str(Path(__file__).parent))
from conftest import (  # noqa: E402
    count_calls,
    fraction_market,
    paths_market,
    random_class,
    random_market,
    trinomial_tree,
)

# the golden trinomial tree: the node after 11 is an arbitrage node, so the
# analysis eliminates, builds the aggregator and the full-support measure,
# and the natural checks find a gain
TREE_PATHS = [
    [10, 13, 15], [10, 13, 12], [10, 13, 10],
    [10, 11, 11], [10, 11, 12], [10, 11, 13],
    [10, 8, 7], [10, 8, 6], [10, 8, 9],
]


def _one_price_market(price) -> Market:
    return load_market(
        {"d": 1, "T": 1, "scenarios": [{"id": "a", "prices": [[price], [1]]}]}
    )


@pytest.mark.parametrize("price", [3, "3", "6/2", "1e2", "-4", "2.0"])
def test_integral_prices_load_as_int(price):
    (p,), _ = _one_price_market(price).scenarios[0].path
    assert type(p) is int
    assert p == Fraction(price)


@pytest.mark.parametrize("price", ["7/2", "2.5", "-1e-2"])
def test_fractional_prices_load_as_fraction(price):
    (p,), _ = _one_price_market(price).scenarios[0].path
    assert type(p) is Fraction
    assert p == Fraction(price)


def _natural_checks(m: Market) -> list[dict]:
    pa = backward_eliminate(m)
    classes = (
        SignificantClass("MI", (m.all_indices,)),
        SignificantClass("1p", tuple(frozenset({i}) for i in range(m.n))),
    )
    return [_verdict_json(m, classify(m, pa, cls, "natural")) for cls in classes]


def test_lps_of_an_integral_tree_hold_only_ints(monkeypatch):
    """No ``Fraction`` reaches an LP that arbscan builds from integral prices.

    The golden tree gets a second, constant asset: the answers do not move,
    and its separator questions are two-asset ones over two or more distinct
    points, which still ask an LP (one-asset questions have a closed form).
    Every LP handed to ``lp_solve`` is checked, and each of the four
    functions that build one asks at least one here.
    """
    calls = count_calls(monkeypatch, "ratgeom", "lp_solve")
    asked = set()
    for module_name, name in (
        ("ratgeom", "maximal_separator"),
        ("ratgeom", "convex_combination_for_zero"),
        ("oracle", "oracle_support"),
        ("oracle", "oracle_arbitrage"),
    ):
        fn = getattr(sys.modules[f"arbscan.{module_name}"], name)

        def watched(*args, _fn=fn, _name=name):
            before = len(calls)
            result = _fn(*args)
            if len(calls) > before:
                asked.add(_name)
            return result

        for modname, mod in list(sys.modules.items()):
            if modname.startswith("arbscan") and getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, watched)
    m = paths_market([[(p, 5) for p in path] for path in TREE_PATHS])
    build_report(m, verify=True)
    _natural_checks(m)
    assert asked == {
        "maximal_separator",
        "convex_combination_for_zero",
        "oracle_support",
        "oracle_arbitrage",
    }
    lps = [lp for (lp,) in calls] + [build_polytope(m)]
    for lp in lps:
        numbers = list(lp.objective)
        for coeffs, _rel, rhs in lp.constraints:
            numbers += [*coeffs, rhs]
        for pair in lp.bounds or ():
            numbers += [b for b in pair if b is not None]
        assert {type(v) for v in numbers} == {int}


def _assert_same_answers(m_int: Market, m_frac: Market) -> None:
    assert all(type(x) is int for s in m_int.scenarios for row in s.path for x in row)
    assert all(type(x) is Fraction for s in m_frac.scenarios for row in s.path for x in row)
    reports = [json.dumps(build_report(m, verify=True)[0], indent=2) for m in (m_int, m_frac)]
    assert reports[0] == reports[1]
    assert json.dumps(_natural_checks(m_int)) == json.dumps(_natural_checks(m_frac))


def _as_document(m: Market, cls: SignificantClass) -> dict:
    return {
        "d": m.d,
        "T": m.T,
        "scenarios": [
            {"id": s.id, "prices": [[str(x) for x in row] for row in s.path]}
            for s in m.scenarios
        ],
        "classes": {cls.name: [m.ids(c) for c in cls.sets]},
    }


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_int_and_fraction_corpus_markets_agree(seed):
    rng = random.Random(seed)
    m = random_market(rng)
    m_int = load_market(_as_document(m, random_class(rng, m.n, "drawn")))
    _assert_same_answers(m_int, fraction_market(m_int))


@settings(max_examples=25, deadline=None)
@given(trinomial_tree(horizon=3))
def test_int_and_fraction_trinomial_trees_agree(m):
    _assert_same_answers(m, fraction_market(m))
