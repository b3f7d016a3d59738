"""Properties the theory asks of any correct analysis, checked with no second solver.

Polar sets depend only on the cone of each node's increments, so the
answers must not move when the scenarios are listed in another order under
other names, or when the assets are shifted, negated, sheared or joined by
a constant asset or an integer combination of the others; a copy of a path
under a new id must survive exactly when its original does; and the
elimination restricted to any superset of ``omega_star`` must find
``omega_star`` again.  Unlike agreement with the LP oracle, these reach
trees far larger than the oracle solves.
"""

import random
import time
from operator import mul

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
# other orders, so an answer that depends on the order of its points shows here
@settings(max_examples=40, deadline=None)
@given(_relabelled(shaped_tree()))
def test_scenario_order_and_ids_on_shaped_trees(case):
    _assert_invariant(case)


@st.composite
def _asset_transformed(draw, markets):
    """A market and the same market under an asset transform that keeps every polar set.

    A price shift keeps every increment.  Negation and x0 += k*x1 map the
    increments by an invertible linear map, and so map separators onto
    separators.  An appended constant asset never moves, and an appended
    asset a.x moves as the portfolio a does, so neither opens a new gain.
    """
    m = draw(markets)
    ints = st.integers(-3, 3)
    kinds = ["shift", "negate", "constant", "combination"]
    if m.d >= 2:
        kinds.append("shear")
    kind = draw(st.sampled_from(kinds))
    if kind == "shift":
        c = draw(st.tuples(*[ints] * m.d))

        def move(row):
            return tuple(map(sum, zip(row, c)))
    elif kind == "negate":

        def move(row):
            return tuple(-x for x in row)
    elif kind == "shear":
        k = draw(st.sampled_from((-2, -1, 1, 2)))

        def move(row):
            return (row[0] + k * row[1],) + row[1:]
    elif kind == "constant":
        c = draw(ints)

        def move(row):
            return row + (c,)
    else:
        a = draw(st.tuples(*[ints] * m.d))

        def move(row):
            return row + (sum(map(mul, a, row)),)
    scenarios = tuple(Scenario(s.id, tuple(map(move, s.path))) for s in m.scenarios)
    return m, Market(len(scenarios[0].path[0]), m.T, scenarios)


def _assert_asset_invariant(case):
    m, moved = case
    assert _answers(moved) == _answers(m)


@settings(max_examples=120, deadline=None)
@given(_asset_transformed(split_corpus_markets()))
def test_asset_transforms_on_split_corpus_markets(case):
    _assert_asset_invariant(case)


@settings(max_examples=40, deadline=None)
@given(_asset_transformed(trinomial_tree()))
def test_asset_transforms_on_trinomial_trees(case):
    _assert_asset_invariant(case)


@st.composite
def _path_copied(draw, markets):
    """A market, the same market with one path copied in under the id ``copy``, and its id."""
    m = draw(markets)
    i = draw(st.integers(0, m.n - 1))
    at = draw(st.integers(0, m.n))
    scenarios = m.scenarios[:at] + (Scenario("copy", m.scenarios[i].path),) + m.scenarios[at:]
    return m, Market(m.d, m.T, scenarios), m.scenarios[i].id


def _assert_copy_follows_its_original(case):
    m, copied, original = case
    star, kinds, facets = _answers(m)
    assert "copy" not in m.scenario_ids
    joined = star | {"copy"} if original in star else star
    assert _answers(copied) == (joined, kinds, facets)


@settings(max_examples=120, deadline=None)
@given(_path_copied(split_corpus_markets()))
def test_a_copied_path_follows_its_original_on_split_corpus_markets(case):
    _assert_copy_follows_its_original(case)


@settings(max_examples=40, deadline=None)
@given(_path_copied(trinomial_tree()))
def test_a_copied_path_follows_its_original_on_trinomial_trees(case):
    _assert_copy_follows_its_original(case)


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
