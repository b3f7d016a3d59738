"""Level-set splitting, one-sweep elimination, the LP questions and the aggregator contracts."""

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
    split_level_set,
    universal_aggregator,
)

from conftest import (
    corpus_markets,
    count_calls,
    group_by,
    nested_trees,
    paths_market,
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
    sp = split_level_set(2, 1, price_children(svu, 2, {2, 3}))
    assert sp in backward_eliminate(svu).events
    assert (sp.t, sp.node) == (2, 1)
    assert sp.block == sp.members == frozenset({2, 3})
    assert sp.separator == (F(1),)


def test_split_constant(constant):
    # nothing gains, so the level set keeps all its members and has no event
    assert split_level_set(1, 0, price_children(constant, 1, {0, 1})) is None
    assert backward_eliminate(constant).events == ()


def test_split_ex3d_merges_rounds(ex3d):
    # the irrational and the q-below classes gain under different directions;
    # the maximal separator gains on both at once
    sp = split_level_set(1, 0, price_children(ex3d, 1, ex3d.all_indices))
    pa = backward_eliminate(ex3d)
    assert pa.events == (sp,)
    polar = frozenset(ex3d.index_of(i) for i in ("irr2", "irr5", "qlo16", "qlo9"))
    keep = frozenset(ex3d.index_of(i) for i in ("qge916", "qge4"))
    assert sp.block == polar
    assert sp.members - sp.block == keep == pa.omega_star


def test_split_asks_one_separator_lp(ex3d, monkeypatch):
    calls = count_calls(monkeypatch, "ratgeom", "maximal_separator")
    sp = split_level_set(1, 0, price_children(ex3d, 1, ex3d.all_indices))
    assert sp.block and sp.members - sp.block
    assert len(calls) == 1


def test_splitting_refuses_an_inconsistent_decomposition():
    members = frozenset({0, 1, 2})
    h = (F(1),)
    Splitting(1, 0, members, frozenset({0}), h)
    Splitting(1, 0, members, members, h)
    bad = [
        (frozenset({0, 3}), h),  # a block outside the level set
        (frozenset(), h),  # a separator without a block
        (frozenset({0}), None),  # a block without its separator
    ]
    for block, sep in bad:
        with pytest.raises(ValueError):
            Splitting(1, 0, members, block, sep)


def test_split_errors(svu):
    with pytest.raises(DomainError):
        split_level_set(1, 0, [])


def _survivors_at(pa, t):
    """The scenarios the sweep meets at period t: the start set minus the blocks of later periods."""
    return pa.start_set - frozenset().union(*(sp.block for sp in pa.events if sp.t > t))


def _check_sweep_contracts(m, pa):
    """Every level set the sweep meets, checked period by period from the price rows."""
    events = {(sp.t, sp.node): sp for sp in pa.events}
    met = 0
    for t in range(1, m.T + 1):
        for gamma in m.level_sets(_survivors_at(pa, t), t - 1):
            sp = events.get((t, pa.nodes[t - 1][min(gamma)]))
            kept = gamma
            if sp is not None:
                met += 1
                assert sp.members == gamma and sp.block
                kept = gamma - sp.block
                # the separator loses nowhere and gains exactly on the block
                for i in gamma:
                    gain = dot(sp.separator, m.increment(t, i))
                    assert gain >= 0
                    assert (gain > 0) == (i in sp.block)
            # zero increments are never eliminated
            for i in gamma:
                if all(x == 0 for x in m.increment(t, i)):
                    assert i in kept
            # what a level set keeps admits no one-step gain
            if kept:
                assert cone_ri_contains_zero([m.increment(t, i) for i in sorted(kept)])
    # every event splits a level set the sweep met, and only the events eliminate
    assert met == len(events) == len(pa.events)
    assert _survivors_at(pa, 0) == pa.omega_star


def test_splitting_invariants_on_corpus(mini_corpus):
    for m in mini_corpus:
        _check_sweep_contracts(m, backward_eliminate(m))


def test_backward_eliminate_svu(svu):
    pa = backward_eliminate(svu)
    assert pa.omega_star == frozenset()
    # events come in report order: t ascending, then least member
    steps = [(sp.t, set(sp.members)) for sp in pa.events]
    assert steps == [(1, {0, 1}), (2, {2, 3})]
    # both level sets are eliminated whole: the block is every member
    assert all(sp.block == sp.members for sp in pa.events)
    # the report prints them so, in the same order
    from arbscan.cli import build_report

    printed = [(ev["t"], ev["block"]) for ev in build_report(svu)[0]["events"]]
    assert printed == [(1, ["w1", "w2"]), (2, ["w3", "w4"])]


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
    every level set of the survivors is split again from price rows, and its
    blocks are removed before the next period.
    """
    surviving = set(pa.omega_star)
    blocks = []
    for t in range(m.T, 0, -1):
        for gamma in m.level_sets(surviving, t - 1):
            node = pa.nodes[t - 1][min(gamma)]
            sp = split_level_set(t, node, price_children(m, t, gamma))
            if sp is not None:
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
    # d = 2, so the LP may answer one question about the same points in two
    # orders differently; every contract must hold regardless
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


def test_a_restricted_analysis_refines_the_last_natural_row():
    # F~_T is F_T on a whole-market analysis, but not on a restricted one:
    # a holds the separator and b, outside ``within``, holds nothing, so the
    # held values split the final node {a, b}
    from arbscan.market import load_market

    m = load_market({"d": 1, "T": 1, "scenarios": [
        {"id": sid, "prices": [[10], [p]]} for sid, p in (("a", 11), ("b", 11), ("c", 12))
    ]})
    pa = backward_eliminate(m, within={0, 2})
    _h, enlarged = universal_aggregator(m, pa)
    assert pa.nodes[m.T] == (0, 0, 1)
    assert enlarged[m.T] == (0, 1, 2)
    whole = backward_eliminate(m)
    assert whole.aggregator[1][m.T] == whole.nodes[m.T]


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
    asked = 0
    for m in mini_corpus[:15] + [multi, svu]:
        for t in range(1, m.T + 1):
            for gamma in m.level_sets(m.all_indices, t - 1):
                points = [m.increment(t, i) for i in sorted(gamma)]
                lp_calls.clear()
                maximal_separator(points)
                # points that sum to 0, one-asset points and one distinct
                # point are answered without an LP; any other set asks one
                needs_lp = m.d > 1 and len(set(points)) > 1 and any(map(sum, zip(*points)))
                assert len(lp_calls) == needs_lp
                asked += needs_lp
        omega_star = backward_eliminate(m).omega_star
        lp_calls.clear()
        assert oracle_support(m) == omega_star
        assert len(lp_calls) == 1
    assert asked > 0


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
    # events come in report order: t ascending, then least member
    order = [(sp.t, min(sp.members)) for sp in pa.events]
    assert order == sorted(set(order))
    for sp in pa.events:
        t = sp.t
        # each event names the node at t-1 that holds its members
        assert all(sp.node == pa.nodes[t - 1][i] for i in sp.members)
        # the node rows and the price rows split a level set alike
        children = [
            (pa.increments[t][pa.nodes[t][g[0]]], frozenset(g))
            for g in group_by(pa.nodes[t], sorted(sp.members))
        ]
        by_prices = price_children(m, t, sp.members)
        assert split_level_set(t, sp.node, children) == split_level_set(t, sp.node, by_prices)


def test_node_level_sets_match_price_level_sets(mini_corpus, svu, multi, countna):
    for m in mini_corpus + [svu, multi, countna]:
        _assert_node_level_sets_match(m)


@settings(max_examples=100, deadline=None)
@given(corpus_markets() | trinomial_tree() | nested_trees())
def test_parents_name_each_node_s_parent(m):
    pa = backward_eliminate(m)
    assert pa.parents[0] == ()
    for t in range(1, m.T + 1):
        assert len(pa.parents[t]) == len(pa.increments[t])
        for i, c in enumerate(pa.nodes[t]):
            assert pa.parents[t][c] == pa.nodes[t - 1][i]


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
    for m in markets:
        before = dict(vars(m))
        for calls in inputs.values():
            calls.clear()
        report, _agrees = build_report(m)
        asked = {name: len(calls) for name, calls in inputs.items()}
        pa = backward_eliminate(m)
        # one separator question per level set the sweep meets, and one
        # weights question per surviving node that has children (every
        # surviving node before T); balanced questions are answered without
        # an LP, so the questions, not the LPs, are what must be asked
        level_sets = sum(
            len({pa.nodes[t - 1][i] for i in _survivors_at(pa, t)}) for t in range(1, m.T + 1)
        )
        assert asked["maximal_separator"] == level_sets > 0
        surviving_nodes = sum(len({row[i] for i in pa.omega_star}) for row in pa.nodes[: m.T])
        assert asked["convex_combination_for_zero"] == surviving_nodes
        assert (surviving_nodes > 0) == bool(report["omega_star"])
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


def test_build_report_on_an_n243_trinomial_tree_solves_one_lp_per_arbitrage_node(monkeypatch):
    from arbscan.cli import build_report

    tree = seeded_trinomial_market(random.Random(931), horizon=5, n_arb=6)
    # a second, constant asset makes each question a two-asset one, so the
    # arbitrage nodes' separators still ask an LP (a one-asset question has
    # a closed form); every other node's increments sum to zero
    m = paths_market([[row + (7,) for row in s.path] for s in tree.scenarios])
    assert m.n == 243
    lp_calls = count_calls(monkeypatch, "ratgeom", "lp_solve")
    build_report(m)
    assert len(lp_calls) == 6
