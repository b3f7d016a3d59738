"""Level-set splitting, one-sweep elimination, the LP memo and the aggregator contracts."""

import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from arbscan import splitter
from arbscan.errors import DomainError, InternalError
from arbscan.market import Strategy, atoms_of, check_predictable, natural_nodes, value_process
from arbscan.measures import check_martingale, full_support_measure
from arbscan.oracle import oracle_support
from arbscan.ratgeom import cone_ri_contains_zero, dot, maximal_separator
from arbscan.splitter import (
    Splitting,
    backward_eliminate,
    move_strict,
    move_weights,
    solve_once,
    split_level_set,
    universal_aggregator,
)

from conftest import (
    corpus_markets,
    count_calls,
    group_by,
    position,
    price_children,
    random_market,
    refine,
    seeded_trinomial_market,
    shaped_tree,
    tree_market,
    trinomial_tree,
    wide_trees,
)


def test_split_svu_tail(svu):
    # w3, w4 make up node 1 at t = 1
    sp = split_level_set(2, 1, price_children(svu, 2, {2, 3}), {})
    assert sp == backward_eliminate(svu).splittings[(2, 1)]
    assert sp.block == frozenset({2, 3})
    assert sp.residual == frozenset()
    assert sp.separator == (F(1),)


def test_split_constant(constant):
    sp = split_level_set(1, 0, price_children(constant, 1, {0, 1}), {})
    assert sp == backward_eliminate(constant).splittings[(1, 0)]
    assert sp.block == frozenset() and sp.separator is None
    assert sp.residual == frozenset({0, 1})


def test_split_ex3d_merges_rounds(ex3d):
    # the irrational and the q-below classes gain under different directions;
    # the maximal separator gains on both at once
    sp = split_level_set(1, 0, price_children(ex3d, 1, ex3d.all_indices), {})
    assert sp == backward_eliminate(ex3d).splittings[(1, 0)]
    polar = frozenset(ex3d.index_of(i) for i in ("irr2", "irr5", "qlo16", "qlo9"))
    keep = frozenset(ex3d.index_of(i) for i in ("qge916", "qge4"))
    assert sp.block == polar
    assert sp.residual == keep


def test_split_asks_one_separator_lp(ex3d, monkeypatch):
    calls = count_calls(monkeypatch, "ratgeom", "maximal_separator")
    sp = split_level_set(1, 0, price_children(ex3d, 1, ex3d.all_indices), {})
    assert sp.block and sp.residual
    assert len(calls) == 1


def test_splitting_refuses_an_inconsistent_decomposition():
    members = frozenset({0, 1, 2})
    h = (F(1),)
    Splitting(1, 0, members, frozenset({0}), h, frozenset({1, 2}))
    Splitting(1, 0, members, frozenset(), None, members)
    bad = [
        (frozenset({0}), h, frozenset({1})),  # misses a member
        (frozenset({0, 1}), h, frozenset({1, 2})),  # block and residual overlap
        (frozenset({0}), None, frozenset({1, 2})),  # a block without its separator
        (frozenset(), h, members),  # a separator without a block
    ]
    for block, sep, residual in bad:
        with pytest.raises(ValueError):
            Splitting(1, 0, members, block, sep, residual)


def test_split_errors(svu):
    with pytest.raises(DomainError):
        split_level_set(1, 0, [], {})


def _check_splitting_contracts(m, sp):
    # disjoint cover
    assert not (sp.block & sp.residual)
    assert sp.block | sp.residual == sp.members
    assert (sp.separator is None) == (not sp.block)
    # zero increments never leave the residual
    for i in sp.members:
        if all(x == 0 for x in m.increment(sp.t, i)):
            assert i in sp.residual
    # the separator loses nowhere and gains exactly on the block
    if sp.block:
        for i in sp.members:
            gain = dot(sp.separator, m.increment(sp.t, i))
            assert gain >= 0
            assert (gain > 0) == (i in sp.block)
    # residual admits no one-step gain
    if sp.residual:
        assert cone_ri_contains_zero([m.increment(sp.t, i) for i in sorted(sp.residual)])


def test_splitting_invariants_on_corpus(mini_corpus):
    for m in mini_corpus:
        pa = backward_eliminate(m)
        for sp in pa.splittings.values():
            _check_splitting_contracts(m, sp)
        for sp in pa.events:
            _check_splitting_contracts(m, sp)


def test_backward_eliminate_svu(svu):
    pa = backward_eliminate(svu)
    assert pa.omega_star == frozenset()
    steps = [(sp.t, set(sp.members)) for sp in pa.events]
    assert steps == [(2, {2, 3}), (1, {0, 1})]
    # both level sets are eliminated whole: a block and no residual
    assert all(sp.block and not sp.residual for sp in pa.events)
    # the report prints them so: the block is every member, the residual empty
    from arbscan.cli import build_report

    whole = [
        (sp["t"], sp["members"])
        for sp in build_report(svu)[0]["splittings"]
        if sp["block"] == sp["members"] and not sp["residual"]
    ]
    assert whole == [(1, ["w1", "w2"]), (2, ["w3", "w4"])]


def test_within_outside_the_market_is_refused(svu):
    # negative indices used to pass as scenarios and large ones to raise IndexError
    for within in ({-1, 0}, {5}, {0, 4}):
        with pytest.raises(ValueError, match="outside range"):
            backward_eliminate(svu, within=within)


def _drop_one_strict_point(points):
    """A valid but not maximal separator: the maximal one minus its last strict point."""
    found = maximal_separator(points)
    if found is None or len(found[1]) == 1:
        return found
    h, strict = found
    return h, strict - {max(strict)}


def test_a_non_maximal_separator_is_caught_or_harmless(monkeypatch):
    # one LP vouches for each residual only if its separator is maximal.  A
    # point the separator gains on but leaves in the residual either makes
    # the full-support measure's node LP fail, or is removed with its whole
    # node at an earlier period, which leaves omega_star as it was
    from arbscan.cli import build_report

    rng = random.Random(931)
    markets = [random_market(rng) for _ in range(300)]
    expected = [backward_eliminate(m).omega_star for m in markets]
    monkeypatch.setattr(splitter, "maximal_separator", _drop_one_strict_point)
    raised = 0
    for m, star in zip(markets, expected):
        try:
            report, _agrees = build_report(m)
        except InternalError as exc:
            assert "has no strictly positive martingale weights" in str(exc)
            raised += 1
        else:
            assert report["omega_star"] == m.ids(star)
    assert raised > 0


def test_backward_eliminate_constant(constant):
    pa = backward_eliminate(constant)
    assert pa.omega_star == constant.all_indices
    assert not pa.events
    assert pa.rounds == 1


def _eliminated_at(pa, t):
    """The scenarios the elimination events at period t removed."""
    return frozenset().union(*(sp.block for sp in pa.events if sp.t == t))


def test_backward_eliminate_countna(countna):
    pa = backward_eliminate(countna)
    assert set(countna.ids(pa.omega_star)) == {"q1", "q2"}
    assert _eliminated_at(pa, 1) == frozenset({0, 1})


def test_survivor_chain(mini_corpus):
    for m in mini_corpus[:25]:
        pa = backward_eliminate(m)
        # complement decomposes into the per-period block unions
        dead = set()
        for t in range(1, m.T + 1):
            dead |= _eliminated_at(pa, t)
        assert frozenset(dead) == m.all_indices - pa.omega_star
        # surviving level sets all pass the interior test
        for t in range(1, m.T + 1):
            for gamma in m.level_sets(pa.omega_star, t - 1):
                assert cone_ri_contains_zero([m.increment(t, i) for i in sorted(gamma)])


def _second_sweep_blocks(m, pa):
    """The blocks a second backward sweep over ``pa``'s survivors removes.

    A test-only second sweep, as a loop run to the fixpoint would make it:
    every level set of the survivors is split again from price rows, without
    the analysis's LP memo, and its blocks are removed before the next period.
    """
    surviving = set(pa.omega_star)
    blocks = []
    for t in range(m.T, 0, -1):
        for gamma in m.level_sets(surviving, t - 1):
            node = pa.nodes[t - 1][min(gamma)]
            sp = split_level_set(t, node, price_children(m, t, gamma), {})
            if sp.block:
                blocks.append(sp.block)
                surviving -= sp.block
    return blocks


@st.composite
def _restricted(draw, markets):
    """A market and either no restriction or a random ``within`` set of its scenarios."""
    m = draw(markets)
    within = draw(st.none() | st.sets(st.integers(0, m.n - 1)).map(frozenset))
    return m, within


def _assert_one_sweep_is_the_fixpoint(m, within):
    pa = backward_eliminate(m, within)
    assert pa.rounds == 1
    assert _second_sweep_blocks(m, pa) == []
    # every surviving level set holds 0 in the relative interior of its cone
    for t in range(1, m.T + 1):
        for gamma in m.level_sets(pa.omega_star, t - 1):
            assert cone_ri_contains_zero([m.increment(t, i) for i in sorted(gamma)])


@settings(max_examples=80, deadline=None)
@given(_restricted(corpus_markets()))
def test_one_sweep_is_the_fixpoint_on_corpus_markets(case):
    _assert_one_sweep_is_the_fixpoint(*case)


@settings(max_examples=15, deadline=None)
@given(_restricted(wide_trees()))
def test_one_sweep_is_the_fixpoint_on_wide_trees(case):
    _assert_one_sweep_is_the_fixpoint(*case)


@settings(max_examples=10, deadline=None)
@given(_restricted(trinomial_tree(horizon=4)))
def test_one_sweep_is_the_fixpoint_on_trinomial_trees_n81(case):
    _assert_one_sweep_is_the_fixpoint(*case)


@settings(max_examples=20, deadline=None)
@given(shaped_tree())
def test_repeated_shape_trees_keep_every_contract(m):
    # d = 2, so an answer moved to another order of the points may differ
    # from a fresh solve in that order; every contract must hold regardless
    from arbscan.cli import build_report

    pa = backward_eliminate(m)
    assert pa.omega_star == oracle_support(m)
    agg, enlarged = pa.aggregator
    v = value_process(m, agg)[m.T]
    assert all(x >= 0 for x in v)
    assert {i for i in range(m.n) if v[i] > 0} == m.all_indices - pa.omega_star
    assert check_predictable(agg, enlarged)
    q = pa.full_support
    if pa.omega_star:
        assert q.support == pa.omega_star
        assert check_martingale(m, q, pa.nodes)
        assert check_martingale(m, q, enlarged)
    else:
        assert q is None
    first, second = (json.dumps(build_report(m)[0], indent=2) for _ in range(2))
    assert first == second


def test_aggregator_svu(svu):
    pa = backward_eliminate(svu)
    agg, enlarged = universal_aggregator(svu, pa)
    v = value_process(svu, agg)
    assert all(x > 0 for x in v[svu.T])
    atom23 = frozenset({2, 3})
    assert agg.positions[1][atom23] == (F(1),)
    assert atoms_of(enlarged[0]) == (frozenset({0, 1}), atom23)


def test_aggregator_trivial_market(constant):
    pa = backward_eliminate(constant)
    agg, enlarged = universal_aggregator(constant, pa)
    assert value_process(constant, agg)[constant.T] == [F(0), F(0)]
    assert enlarged == natural_nodes(constant)
    assert all(v == (F(0),) for pos in agg.positions for v in pos.values())


def test_aggregator_ex3d(ex3d):
    pa = backward_eliminate(ex3d)
    agg, enlarged = universal_aggregator(ex3d, pa)
    v = value_process(ex3d, agg)
    polar = ex3d.all_indices - pa.omega_star
    assert {i for i in range(ex3d.n) if v[ex3d.T][i] > 0} == polar
    assert check_predictable(agg, enlarged)
    assert not check_predictable(agg, natural_nodes(ex3d))


def test_check_predictable_constant(svu):
    f = natural_nodes(svu)
    h = Strategy(tuple({frozenset(range(4)): (F(2),)} for _ in range(2)))
    assert check_predictable(h, f)


def test_aggregator_contract_on_corpus(mini_corpus):
    for m in mini_corpus:
        pa = backward_eliminate(m)
        agg, enlarged = universal_aggregator(m, pa)
        v = value_process(m, agg)
        polar = m.all_indices - pa.omega_star
        assert all(x >= 0 for x in v[m.T])
        assert {i for i in range(m.n) if v[m.T][i] > 0} == polar
        assert check_predictable(agg, enlarged)


def test_measures_invariant_under_enlargement(mini_corpus):
    checked = 0
    for m in mini_corpus:
        pa = backward_eliminate(m)
        witness = full_support_measure(m, pa)
        if witness is None:
            continue
        _agg, enlarged = universal_aggregator(m, pa)
        assert check_martingale(m, witness, natural_nodes(m))
        assert check_martingale(m, witness, enlarged)
        checked += 1
    assert checked > 10


def test_fixpoint_matches_oracle_on_corpus(mini_corpus):
    for m in mini_corpus:
        assert backward_eliminate(m).omega_star == oracle_support(m)


@settings(max_examples=60, deadline=None)
@given(st.one_of(corpus_markets(), wide_trees(), trinomial_tree(horizon=3)))
def test_enlarged_filtration_is_the_reference_join(m):
    pa = backward_eliminate(m)
    # node ids group scenarios as price level sets do, numbered by least member
    assert pa.nodes == natural_nodes(m)
    for t, row in enumerate(pa.nodes):
        groups = group_by(row, range(m.n))
        assert [frozenset(g) for g in groups] == m.level_sets(m.all_indices, t)
        assert [row[g[0]] for g in groups] == list(range(len(groups)))
        assert atoms_of(row) == tuple(map(frozenset, groups))
    # F~_t joins F_t with the aggregator's value partitions of periods 1..min(t+1, T)
    agg, enlarged = pa.aggregator
    values = [None]
    for s in range(1, m.T + 1):
        held = [position(agg, s, i, m.d) for i in range(m.n)]
        values.append(tuple(map(frozenset, group_by(held, range(m.n)))))
    for t in range(m.T + 1):
        join = tuple(map(frozenset, group_by(pa.nodes[t], range(m.n))))
        for s in range(1, min(t + 1, m.T) + 1):
            join = refine(join, values[s])
        # the enlarged row groups as the join does, numbered by least member
        groups = group_by(enlarged[t], range(m.n))
        assert tuple(map(frozenset, groups)) == join
        assert [enlarged[t][g[0]] for g in groups] == list(range(len(groups)))


def test_single_drifting_scenario():
    from arbscan.market import load_market

    m = load_market({"d": 1, "T": 1, "scenarios": [{"id": "a", "prices": [[1], [2]]}]})
    pa = backward_eliminate(m)
    assert pa.omega_star == frozenset()
    assert oracle_support(m) == frozenset()
    agg, enlarged = universal_aggregator(m, pa)
    assert value_process(m, agg)[1][0] > 0
    assert check_predictable(agg, enlarged)


def test_build_report_builds_each_artifact_once(monkeypatch, mini_corpus, svu, multi, countna):
    from arbscan.cli import build_report

    counts = {
        name: count_calls(monkeypatch, module, name)
        for module, name in (
            ("splitter", "universal_aggregator"),
            ("measures", "full_support_measure"),
            ("market", "natural_nodes"),
        )
    }
    for m in [svu, multi, countna] + mini_corpus[:20]:
        for calls in counts.values():
            calls.clear()
        before = dict(vars(m))
        build_report(m)
        assert {name: len(calls) for name, calls in counts.items()} == {
            "universal_aggregator": 1,
            "full_support_measure": 1,
            "natural_nodes": 1,
        }
        # nothing from the analysis is left behind on the market
        assert vars(m) == before


def test_natural_classify_reads_the_analysis_rows(monkeypatch, mini_corpus, svu, multi):
    from arbscan.arbitrage import classify
    from arbscan.market import SignificantClass

    nodes_calls = count_calls(monkeypatch, "market", "natural_nodes")
    oracle_calls = count_calls(monkeypatch, "oracle", "oracle_arbitrage")
    for m in [svu, multi] + mini_corpus[:10]:
        pa = backward_eliminate(m)
        nodes_calls.clear()
        oracle_calls.clear()
        for _ in range(2):
            classify(m, pa, SignificantClass("MI", (m.all_indices,)), "natural")
        # the oracle LP is laid out from the rows the analysis already holds
        assert (len(nodes_calls), len(oracle_calls)) == (0, 1)
        assert oracle_calls[0][1] is pa.nodes


def test_natural_classify_reuses_the_filtration(monkeypatch, multi):
    from arbscan.arbitrage import classify
    from arbscan.market import SignificantClass

    calls = count_calls(monkeypatch, "market", "natural_nodes")
    pa = backward_eliminate(multi)
    for cls in (
        SignificantClass("MI", (multi.all_indices,)),
        SignificantClass("1p", tuple(frozenset({i}) for i in range(multi.n))),
    ):
        classify(multi, pa, cls, "natural")
    assert len(calls) == 1


def test_natural_classify_solves_one_lp_per_analysis(monkeypatch, svu, multi, constant):
    from arbscan.arbitrage import classify
    from arbscan.market import SignificantClass

    oracle_calls = count_calls(monkeypatch, "oracle", "oracle_arbitrage")
    lp_calls = count_calls(monkeypatch, "ratgeom", "lp_solve")
    for m, declared in (
        (svu, svu.classes["branch"]),
        (multi, multi.classes["openish"]),
        (constant, SignificantClass("first", (frozenset({0}),))),
    ):
        pa = backward_eliminate(m)
        pa.full_support  # the NoArbitrage certificate, built by its own LPs
        oracle_calls.clear()
        lp_calls.clear()
        for cls in (
            SignificantClass("MI", (m.all_indices,)),
            SignificantClass("1p", tuple(frozenset({i}) for i in range(m.n))),
            declared,
        ):
            classify(m, pa, cls, "natural")
        assert (len(oracle_calls), len(lp_calls)) == (1, 1)


def test_oracle_command_calls_the_oracle_once_per_filtration(monkeypatch, tmp_path, capsys):
    import json

    from arbscan import cli

    from conftest import COUNTNA_DOC

    # r1 and r2 gain one step ahead; q1 and q2 never move
    doc = dict(COUNTNA_DOC, classes={
        "up": [["r1"], ["r1", "r2"]],
        "flat": [["q1"], ["q2"], ["q1", "q2"], ["r1", "q1"]],
    })
    path = tmp_path / "countna.json"
    path.write_text(json.dumps(doc), "utf-8")
    calls = count_calls(monkeypatch, "oracle", "oracle_arbitrage")
    assert cli.main(["oracle", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["classes"] == {
        "up": {"natural": True, "enlarged": True},
        "flat": {"natural": False, "enlarged": False},
    }
    assert len(calls) == 2


def test_cached_artifacts_repeat_and_do_not_leak(countna):
    pa = backward_eliminate(countna)
    assert pa.aggregator is pa.aggregator
    assert pa.full_support is pa.full_support
    assert pa.natural_arbitrage is pa.natural_arbitrage
    assert pa.aggregator == universal_aggregator(countna, pa)
    assert pa.full_support == full_support_measure(countna, pa)

    other = backward_eliminate(countna)
    assert other == pa and repr(other) == repr(pa)
    assert "market" not in repr(pa)
    assert other.aggregator is not pa.aggregator
    assert other.full_support is not pa.full_support
    assert other.natural_arbitrage is not pa.natural_arbitrage


def test_separator_and_support_solve_one_lp_each(monkeypatch, mini_corpus, multi, svu):
    lp_calls = count_calls(monkeypatch, "ratgeom", "lp_solve")
    ties = [(F(1), F(0)), (F(0), F(1)), (F(-1), F(1))]
    assert len(maximal_separator(ties)[1]) == 3
    assert len(lp_calls) == 1
    for m in mini_corpus[:15] + [multi, svu]:
        for t in range(1, m.T + 1):
            for gamma in m.level_sets(m.all_indices, t - 1):
                points = [m.increment(t, i) for i in sorted(gamma)]
                lp_calls.clear()
                maximal_separator(points)
                # points that sum to 0 are answered without an LP
                balanced = not any(map(sum, zip(*points)))
                assert len(lp_calls) == (0 if balanced else 1)
        omega_star = backward_eliminate(m).omega_star
        lp_calls.clear()
        assert oracle_support(m) == omega_star
        assert len(lp_calls) == 1


def _assert_node_level_sets_match(m):
    pa = backward_eliminate(m)
    every_other = frozenset(range(0, m.n, 2))
    for members in (m.all_indices, pa.omega_star, every_other):
        for t in range(m.T + 1):
            by_node = [frozenset(g) for g in group_by(pa.nodes[t], sorted(members))]
            assert by_node == m.level_sets(members, t)
    # each node's members share its increment, and the children read off
    # the rows partition their parent
    assert pa.increments[0] == ()
    for t in range(1, m.T + 1):
        atoms, below = atoms_of(pa.nodes[t - 1]), atoms_of(pa.nodes[t])
        assert len(pa.increments[t]) == len(below)
        for c, atom in enumerate(below):
            assert {m.increment(t, i) for i in atom} == {pa.increments[t][c]}
        for k, atom in enumerate(atoms):
            kids = {pa.nodes[t][i] for i in atom}
            assert frozenset().union(*(below[c] for c in kids)) == atom
            assert all({pa.nodes[t - 1][i] for i in below[c]} == {k} for c in kids)
    # splittings come in report order: t ascending, then least member
    order = [(t, min(sp.members)) for (t, _node), sp in pa.splittings.items()]
    assert order == sorted(order)
    for key, sp in pa.splittings.items():
        t = sp.t
        # each splitting is keyed by the node at t-1 that holds its members
        assert all(key == (t, pa.nodes[t - 1][i]) for i in sp.members)
        assert key == (t, sp.node)
        # the node rows and the price rows split a level set alike
        children = [
            (pa.increments[t][pa.nodes[t][g[0]]], frozenset(g))
            for g in group_by(pa.nodes[t], sorted(sp.members))
        ]
        by_prices = price_children(m, t, sp.members)
        assert split_level_set(t, sp.node, children, {}) == split_level_set(
            t, sp.node, by_prices, {}
        )


def test_node_level_sets_match_price_level_sets(mini_corpus, svu, multi, countna):
    for m in mini_corpus + [svu, multi, countna]:
        _assert_node_level_sets_match(m)


@settings(max_examples=10, deadline=None)
@given(trinomial_tree(horizon=4))
def test_node_level_sets_match_on_trinomial_trees_n81(m):
    _assert_node_level_sets_match(m)


def test_level_sets_are_ordered_by_least_member():
    from arbscan.market import load_market

    rows = {"x": [[1], [2]], "y": [[1], [3]], "z": [[1], [4]]}
    m = load_market({
        "d": 1,
        "T": 1,
        "scenarios": [{"id": f"{k}{i}", "prices": rows[k]} for i, k in enumerate("xyxzy")],
    })
    groups = m.level_sets({4, 3, 2, 1, 0}, 1)
    assert groups == [{0, 2}, {1, 4}, {3}]
    # each group shares its price rows, and no two groups share theirs
    paths = [{m.scenarios[i].path for i in gamma} for gamma in groups]
    assert all(len(p) == 1 for p in paths)
    assert len(set().union(*paths)) == len(groups)
    assert m.level_sets({4, 3, 2, 1}, 1) == [{1, 4}, {2}, {3}]


def _lp_inputs_once_per_analysis(monkeypatch, markets):
    from arbscan.cli import build_report

    inputs = {
        name: count_calls(monkeypatch, "ratgeom", name)
        for name in ("maximal_separator", "convex_combination_for_zero")
    }
    lp_calls = count_calls(monkeypatch, "ratgeom", "lp_solve")
    for m in markets:
        before = dict(vars(m))
        counts = []
        for _fresh in range(2):
            for calls in (*inputs.values(), lp_calls):
                calls.clear()
            report, _agrees = build_report(m)
            for name, calls in inputs.items():
                # the analysis's LP memo answers every repeated question,
                # also one about the same points in another order
                point_sets = [tuple(sorted(args[0])) for args in calls]
                assert len(set(point_sets)) == len(point_sets), name
            counts.append((len(lp_calls), *map(len, inputs.values())))
        # a new analysis shares no memo with the last one, so it asks every
        # question again; balanced questions are answered without an LP, so
        # the questions, not the LPs, are what must be asked: a separator per
        # report, and node weights whenever a scenario survives
        assert counts[0] == counts[1]
        _lps, separators, weights = counts[0]
        assert separators > 0
        assert (weights > 0) == bool(report["omega_star"])
        assert vars(m) == before


def test_one_build_report_asks_each_lp_question_once(monkeypatch, mini_corpus, svu, multi, countna):
    _lp_inputs_once_per_analysis(monkeypatch, mini_corpus[:20] + [svu, multi, countna])


@settings(max_examples=5, deadline=None)
@given(trinomial_tree(horizon=4))
def test_one_build_report_asks_each_lp_question_once_n81(m):
    with pytest.MonkeyPatch.context() as monkeypatch:
        _lp_inputs_once_per_analysis(monkeypatch, [m])


def test_a_symmetric_binomial_tree_is_analyzed_without_an_lp(monkeypatch):
    # every node's increments are +1 and -1, which sum to 0: no separator
    # gains, each node's weights are the equal ones, and the report needs
    # no LP at all
    from itertools import product

    from arbscan.cli import build_report

    m = tree_market([
        [10 + sum(steps[:t]) for t in range(4)] for steps in product((1, -1), repeat=3)
    ])
    lp_calls = count_calls(monkeypatch, "ratgeom", "lp_solve")
    report, _agrees = build_report(m)
    assert not lp_calls
    assert report["omega_star"] == m.ids(m.all_indices)
    assert backward_eliminate(m).full_support.weights == {i: F(1, 8) for i in range(8)}


# lp_solve calls of one build_report on the tree below when the LP memo was
# keyed on the points in the askers' order and elimination swept twice
ORDERED_MEMO_LP_CALLS = 81


def test_build_report_on_an_n243_trinomial_tree_solves_a_third_of_the_lps(monkeypatch):
    from arbscan.cli import build_report

    m = seeded_trinomial_market(random.Random(931), horizon=5, n_arb=6)
    assert m.n == 243
    lp_calls = count_calls(monkeypatch, "ratgeom", "lp_solve")
    build_report(m)
    assert 0 < 3 * len(lp_calls) <= ORDERED_MEMO_LP_CALLS


class _CountedHash:
    """A sortable point that counts how often it is hashed."""

    def __init__(self, rank):
        self.rank = rank
        self.hashes = 0

    def __lt__(self, other):
        return self.rank < other.rank

    def __hash__(self):
        self.hashes += 1
        return 7


def test_solve_once_hashes_once_and_caches_no_failure():
    memo = {}
    calls = []

    def solve(points):
        # a weight per point, in the asker's order, by the point's rank
        calls.append(points)
        if len(calls) == 1:
            raise DomainError("first attempt fails")
        return tuple(F(p.rank, 10) for p in points)

    a, b, c = (_CountedHash(rank) for rank in (3, 1, 2))
    with pytest.raises(DomainError):
        solve_once(memo, solve, (a, b, c), move_weights)
    # the failed solve left no answer: the question is asked again, then kept
    assert solve_once(memo, solve, (a, b, c), move_weights) == (F(3, 10), F(1, 10), F(2, 10))
    # the same points in another order are not solved again, and each
    # point keeps its own weight
    assert solve_once(memo, solve, (c, a, b), move_weights) == (F(2, 10), F(3, 10), F(1, 10))
    assert solve_once(memo, solve, (b, c, a), move_weights) == (F(1, 10), F(2, 10), F(3, 10))
    assert len(calls) == 2
    # one dict operation per call, on a miss as on a hit
    assert [p.hashes for p in (a, b, c)] == [4, 4, 4]
    assert len(memo) == 1


def test_solve_once_reindexes_both_lp_answers_to_the_askers_order(monkeypatch):
    from arbscan.ratgeom import convex_combination_for_zero, maximal_separator

    lp_calls = count_calls(monkeypatch, "ratgeom", "lp_solve")
    memo = {}
    # the strict set of a separator: every point but the flat one
    points = ((F(2),), (F(0),), (F(1),))
    h, strict = solve_once(memo, maximal_separator, points, move_strict)
    assert strict == {0, 2}
    assert solve_once(memo, maximal_separator, points[::-1], move_strict) == (h, {0, 2})
    assert solve_once(memo, maximal_separator, points[1:] + points[:1], move_strict) == (h, {1, 2})
    assert solve_once(memo, maximal_separator, points[1:], move_strict) == (h, {1})
    assert len(lp_calls) == 2
    # max-min zero-combination weights follow their points
    points = ((F(-1), F(0)), (F(1), F(1)), (F(2), F(-3)), (F(-1), F(1)))
    w = solve_once(memo, convex_combination_for_zero, points, move_weights)
    for perm in ((3, 2, 1, 0), (1, 3, 0, 2), (2, 0, 3, 1)):
        moved = solve_once(memo, convex_combination_for_zero, tuple(points[k] for k in perm), move_weights)
        assert moved == tuple(w[k] for k in perm)
    assert len(lp_calls) == 3
    assert w == convex_combination_for_zero(points)
