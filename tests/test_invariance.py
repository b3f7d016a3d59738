"""Properties the theory asks of any correct analysis, checked with no second solver.

Polar sets depend only on the cone of each node's increments, so the
answers must not move when the scenarios are listed in another order under
other names, and the elimination restricted to any superset of
``omega_star`` must find ``omega_star`` again.  Unlike agreement with the
LP oracle, these reach trees far larger than the oracle solves.
"""

import random
import time

from hypothesis import given, settings, strategies as st

from arbscan.arbitrage import classify, feasibility
from arbscan.market import Market, Scenario, SignificantClass
from arbscan.measures import check_martingale
from arbscan.splitter import backward_eliminate

from conftest import (
    corpus_markets,
    seeded_trinomial_market,
    shaped_tree,
    split_corpus_markets,
    trinomial_tree,
)


@st.composite
def _relabelled(draw, markets):
    """A market, the same market with its scenarios shuffled and renamed, and the renaming."""
    m = draw(markets)
    order = draw(st.permutations(range(m.n)))
    names = draw(st.permutations(range(m.n)))
    scenarios = tuple(Scenario(f"v{names[k]}", m.scenarios[i].path) for k, i in enumerate(order))
    rename = {m.scenarios[i].id: s.id for i, s in zip(order, scenarios)}
    return m, Market(m.d, m.T, scenarios), rename


def _answers(m: Market):
    """``omega_star`` as ids, the MI and 1p verdict kinds under both filtrations, the facets."""
    pa = backward_eliminate(m)
    builtin = [
        SignificantClass("MI", (m.all_indices,)),
        SignificantClass("1p", tuple(frozenset({i}) for i in range(m.n))),
    ]
    kinds = [
        classify(m, pa, cls, filtration).kind
        for cls in builtin
        for filtration in ("natural", "enlarged")
    ]
    q = pa.full_support
    if pa.omega_star:
        assert q.support == pa.omega_star
        assert check_martingale(m, q, pa.nodes)
    else:
        assert q is None
    return set(m.ids(pa.omega_star)), kinds, dict(feasibility(m, pa).facets)


def _assert_invariant(case):
    m, shuffled, rename = case
    star, kinds, facets = _answers(m)
    assert _answers(shuffled) == ({rename[i] for i in star}, kinds, facets)


@settings(max_examples=120, deadline=None)
@given(_relabelled(corpus_markets()))
def test_scenario_order_and_ids_on_corpus_markets(case):
    _assert_invariant(case)


# most corpus markets are all-polar; these keep a survivor and a polar
# scenario, so omega_star, the full-support measure and the aggregator are
# all non-trivial
@settings(max_examples=120, deadline=None)
@given(_relabelled(split_corpus_markets()))
def test_scenario_order_and_ids_on_split_corpus_markets(case):
    _assert_invariant(case)


@settings(max_examples=40, deadline=None)
@given(_relabelled(trinomial_tree()))
def test_scenario_order_and_ids_on_trinomial_trees(case):
    _assert_invariant(case)


# shaped trees ask the same non-symmetric questions about the same points in
# other orders, so a kept answer moved to the wrong order shows here
@settings(max_examples=40, deadline=None)
@given(_relabelled(shaped_tree()))
def test_scenario_order_and_ids_on_shaped_trees(case):
    _assert_invariant(case)


@st.composite
def _superset_of_star(draw, markets):
    """A market, its ``omega_star`` and a random superset of it."""
    m = draw(markets)
    star = backward_eliminate(m).omega_star
    polar = sorted(m.all_indices - star)
    extra = draw(st.sets(st.sampled_from(polar))) if polar else set()
    return m, star, star | extra


def _assert_restriction_keeps_star(case):
    m, star, within = case
    assert backward_eliminate(m, within=within).omega_star == star


@settings(max_examples=120, deadline=None)
@given(_superset_of_star(corpus_markets()))
def test_restriction_to_a_superset_of_star_on_corpus_markets(case):
    _assert_restriction_keeps_star(case)


@settings(max_examples=120, deadline=None)
@given(_superset_of_star(split_corpus_markets()))
def test_restriction_to_a_superset_of_star_on_split_corpus_markets(case):
    m, star, _within = case
    assert star and star != m.all_indices
    _assert_restriction_keeps_star(case)


@settings(max_examples=40, deadline=None)
@given(_superset_of_star(trinomial_tree() | shaped_tree()))
def test_restriction_to_a_superset_of_star_on_trees(case):
    _assert_restriction_keeps_star(case)


def test_restriction_on_a_depth_7_trinomial_tree():
    # n = 2187, far past what the oracle LP solves in a test
    rng = random.Random(931)
    m = seeded_trinomial_market(rng, horizon=7, n_arb=40)
    start = time.perf_counter()
    star = backward_eliminate(m).omega_star
    polar = sorted(m.all_indices - star)
    assert star and polar
    for size in (0, 1, len(polar) // 2, len(polar)):
        _assert_restriction_keeps_star((m, star, star | set(rng.sample(polar, size))))
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"took {elapsed:.2f}s"
