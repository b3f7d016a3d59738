"""Martingale polytope and measure constructions."""

import random
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings

from arbscan.arbitrage import feasibility
from arbscan.errors import DomainError, InternalError
from arbscan.market import DiscreteMeasure, SignificantClass, load_market, natural_nodes
from arbscan.measures import (
    check_martingale,
    class_measure,
    full_support_measure,
    mix,
    supporting_measure,
)
from arbscan.oracle import build_polytope, oracle_support
from arbscan.ratgeom import INFEASIBLE, OPTIMAL, lp_solve
from arbscan.splitter import backward_eliminate, universal_aggregator

from conftest import tree_market, trinomial_tree


def test_polytope_svu_infeasible(svu):
    poly = build_polytope(svu)
    objective = tuple(F(1) if i == 0 else F(0) for i in range(svu.n))
    assert lp_solve(replace(poly, objective=objective)).status == INFEASIBLE
    assert lp_solve(poly).status == INFEASIBLE


def test_polytope_single_scenario_constant():
    m = load_market({"d": 1, "T": 1, "scenarios": [{"id": "a", "prices": [[3], [3]]}]})
    res = lp_solve(replace(build_polytope(m), objective=(F(1),)))
    assert res.status == OPTIMAL
    assert res.solution == (F(1),)


def test_polytope_multi_infeasible(multi):
    assert lp_solve(build_polytope(multi)).status == INFEASIBLE


def test_polytope_row_order(svu):
    poly = build_polytope(svu)
    assert poly.objective == (0,) * 4 and poly.bounds == ((0, None),) * 4
    assert poly.constraints[0] == ((F(1),) * 4, "=", F(1))
    # t=1 over the single F_0 atom, then t=2 over the two F_1 atoms
    assert poly.constraints[1][0] == (F(1), F(1), F(-4), F(-4))
    assert poly.constraints[2][0] == (F(1), F(-2), F(0), F(0))
    assert poly.constraints[3][0] == (F(0), F(0), F(2), F(1))


def test_supporting_measure_countna(countna):
    pa = backward_eliminate(countna)
    target = countna.index_of("q1")
    q = supporting_measure(countna, pa, target)
    assert q[target] > 0
    assert q.support == pa.omega_star
    assert check_martingale(countna, q, natural_nodes(countna))


def test_supporting_measure_two_point():
    m = load_market(
        {
            "d": 1,
            "T": 1,
            "scenarios": [
                {"id": "up", "prices": [[1], [3]]},
                {"id": "dn", "prices": [[1], [0]]},
            ],
        }
    )
    pa = backward_eliminate(m)
    q = supporting_measure(m, pa, 0)
    assert q.weights == {0: F(1, 3), 1: F(2, 3)}


def test_supporting_measure_polar_is_domain_error(svu):
    pa = backward_eliminate(svu)
    with pytest.raises(DomainError, match="polar"):
        supporting_measure(svu, pa, 0)


def test_mix():
    delta = DiscreteMeasure({0: F(1)})
    assert mix([delta], [F(1)]) == delta
    with pytest.raises(DomainError):
        mix([delta, delta], [F(1, 2)])
    with pytest.raises(DomainError):
        mix([delta, delta], [F(3, 2), F(-1, 2)])


def test_mix_preserves_martingality(countna):
    pa = backward_eliminate(countna)
    f = natural_nodes(countna)
    qa = supporting_measure(countna, pa, countna.index_of("q1"))
    qb = supporting_measure(countna, pa, countna.index_of("q2"))
    q = mix([qa, qb], [F(1, 2), F(1, 2)])
    assert check_martingale(countna, q, f)
    assert q.support == {countna.index_of("q1"), countna.index_of("q2")}


def test_full_support_trivial(constant):
    pa = backward_eliminate(constant)
    q = full_support_measure(constant, pa)
    assert q.support == pa.omega_star == constant.all_indices
    assert check_martingale(constant, q, natural_nodes(constant))
    assert feasibility(constant, pa).facets["full_support_martingale_measure_exists"]


def test_full_support_countna(countna):
    pa = backward_eliminate(countna)
    q = full_support_measure(countna, pa)
    assert q.support == pa.omega_star != countna.all_indices
    assert not feasibility(countna, pa).facets["full_support_martingale_measure_exists"]


def test_full_support_time0_atoms_share_equally():
    doc = {
        "d": 1,
        "T": 1,
        "scenarios": [
            {"id": "a", "prices": [[1], [2]]},
            {"id": "b", "prices": [[1], [0]]},
            {"id": "c", "prices": [[5], [5]]},
        ],
    }
    with pytest.warns(UserWarning, match="initial prices differ"):
        m = load_market(doc)
    q = full_support_measure(m, backward_eliminate(m))
    assert q.weights == {0: F(1, 4), 1: F(1, 4), 2: F(1, 2)}
    assert check_martingale(m, q, natural_nodes(m))


def test_full_support_svu(svu):
    assert full_support_measure(svu, backward_eliminate(svu)) is None


def test_class_measure_whole_space(countna):
    pa = backward_eliminate(countna)
    q = class_measure(countna, pa, SignificantClass("MI", (countna.all_indices,)))
    assert q is not None
    assert q.mass(countna.all_indices) == 1
    assert check_martingale(countna, q, natural_nodes(countna))


def test_class_measure_singletons_none(countna):
    pa = backward_eliminate(countna)
    singles = SignificantClass("1p", tuple(frozenset({i}) for i in range(countna.n)))
    assert class_measure(countna, pa, singles) is None


def test_class_measure_surviving_singleton(countna):
    pa = backward_eliminate(countna)
    target = countna.index_of("q1")
    cls = SignificantClass("pt", (frozenset({target}),))
    q = class_measure(countna, pa, cls)
    assert q[target] > 0


def test_check_martingale_simple():
    m = load_market({"d": 1, "T": 1, "scenarios": [{"id": "a", "prices": [[3], [3]]}]})
    f = natural_nodes(m)
    assert check_martingale(m, DiscreteMeasure({0: F(1)}), f)


def test_check_martingale_uniform_svu_fails(svu):
    uniform = DiscreteMeasure({i: F(1, 4) for i in range(4)})
    assert not check_martingale(svu, uniform, natural_nodes(svu))


def test_emitted_measures_exact_on_corpus(mini_corpus):
    rng = random.Random(7)
    for m in mini_corpus[:30]:
        pa = backward_eliminate(m)
        if not pa.omega_star:
            continue
        f = natural_nodes(m)
        _agg, enlarged = universal_aggregator(m, pa)
        emitted = [full_support_measure(m, pa)]
        emitted.append(supporting_measure(m, pa, min(pa.omega_star)))
        cls = SignificantClass("c", (frozenset({rng.choice(sorted(pa.omega_star))}),))
        q = class_measure(m, pa, cls)
        if q is not None:
            emitted.append(q)
        for q in emitted:
            assert check_martingale(m, q, f)
            assert check_martingale(m, q, enlarged)
            assert q.support <= pa.omega_star
        # feasibility of the polytope is closed under mixing
        pair = [emitted[0], emitted[-1]]
        w = F(rng.randint(1, 9), 10)
        blend = mix(pair, [w, 1 - w])
        assert check_martingale(m, blend, f)


def test_supporting_measure_anchor_weight_positive(mini_corpus):
    for m in mini_corpus[:20]:
        pa = backward_eliminate(m)
        for i in sorted(pa.omega_star):
            q = supporting_measure(m, pa, i)
            assert q[i] > 0
            assert q.support <= pa.omega_star


def _assert_full_support_agrees_with_oracle(m):
    pa = backward_eliminate(m)
    assert oracle_support(m) == pa.omega_star
    q = full_support_measure(m, pa)
    if not pa.omega_star:
        assert q is None
        return
    _agg, enlarged = universal_aggregator(m, pa)
    assert q.support == pa.omega_star
    assert check_martingale(m, q, natural_nodes(m))
    assert check_martingale(m, q, enlarged)


@settings(max_examples=40, deadline=None)
@given(trinomial_tree())
def test_full_support_on_trinomial_trees(m):
    _assert_full_support_agrees_with_oracle(m)


@settings(max_examples=10, deadline=None)
@given(trinomial_tree(horizon=4))
def test_full_support_on_trinomial_trees_n81(m):
    _assert_full_support_agrees_with_oracle(m)


def _all_polar_tree(horizon):
    """Flat internal nodes and increments (1, 2, 3) at every last-level node.

    Every node at the last level gains for sure, so every scenario is polar
    and there is no martingale measure at all.
    """
    paths = [[10]]
    for t in range(horizon):
        incs = (1, 2, 3) if t == horizon - 1 else (0, 0, 0)
        paths = [path + [path[-1] + x] for path in paths for x in incs]
    return tree_market(paths)


@settings(max_examples=3, deadline=None)
@given(trinomial_tree(horizon=5))
@example(_all_polar_tree(5))
def test_full_support_on_trinomial_trees_n243(m):
    # the zero-combination LP at every node of a T=5 tree, and the one
    # support LP of the oracle over all 243 scenarios
    _assert_full_support_agrees_with_oracle(m)


def test_node_weights_in_the_wrong_order_are_caught(monkeypatch, tmp_path, capsys):
    # the nodes at time 1 have the children +1 and -2, in the other order
    # under the second; the max-min weights are 2/3 on +1 and 1/3 on -2, so
    # the first node's weights reversed put 2/3 on -2, which no node
    # re-check sees, and the finished measure is no martingale measure
    import json

    from arbscan import cli, measures

    doc = {
        "d": 1,
        "T": 2,
        "scenarios": [
            {"id": "a", "prices": [[10], [11], [12]]},
            {"id": "b", "prices": [[10], [11], [9]]},
            {"id": "c", "prices": [[10], [9], [7]]},
            {"id": "d", "prices": [[10], [9], [10]]},
        ],
    }
    m = load_market(doc)
    assert backward_eliminate(m).full_support.weights == {
        0: F(1, 3), 1: F(1, 6), 2: F(1, 6), 3: F(1, 3)
    }
    weights = measures.convex_combination_for_zero

    def reversed_on_the_first_node(points):
        nums, den = weights(points)
        return (nums[::-1], den) if list(points) == [(1,), (-2,)] else (nums, den)

    monkeypatch.setattr(measures, "convex_combination_for_zero", reversed_on_the_first_node)
    with pytest.raises(InternalError, match="not a martingale measure"):
        cli.build_report(m)
    path = tmp_path / "market.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["analyze", str(path)]) == 4
    assert "not a martingale measure" in capsys.readouterr().err
