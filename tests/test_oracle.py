"""The LP oracle: polytope support and strategy search."""

import random
import warnings
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from arbscan.market import atoms_of, check_predictable, load_market, natural_nodes, value_process
from arbscan.oracle import build_polytope, oracle_arbitrage, oracle_support
from arbscan.ratgeom import (
    EQ,
    INFEASIBLE,
    OPTIMAL,
    LinearProgram,
    _Tableau,
    lp_solve,
    maximal_separator,
)
from arbscan.splitter import backward_eliminate, universal_aggregator

from conftest import (
    arbitrage_literal,
    corpus_markets,
    count_calls,
    paths_market,
    seeded_trinomial_market,
    split_corpus_markets,
    strict_set_lp_by_hand,
    trinomial_tree,
    wide_trees,
)


def test_oracle_support_examples(svu, constant, countna):
    assert oracle_support(svu) == frozenset()
    assert oracle_support(constant) == constant.all_indices
    assert set(countna.ids(oracle_support(countna))) == {"q1", "q2"}


def _support_literal(m):
    """One maximization per scenario with no skipping."""
    poly = build_polytope(m)
    out = set()
    for i in range(m.n):
        objective = tuple(F(1) if j == i else F(0) for j in range(m.n))
        res = lp_solve(replace(poly, objective=objective))
        if res.status == INFEASIBLE:
            return frozenset()
        assert res.status == OPTIMAL
        if res.objective_value > 0:
            out.add(i)
    return frozenset(out)


def test_oracle_support_matches_literal_loop(mini_corpus):
    for m in mini_corpus[:25]:
        assert oracle_support(m) == _support_literal(m)


def test_oracle_support_at_729_scenarios():
    # one Tree(3, 6, 1) with 18 arbitrage nodes, 5% of its internal nodes as
    # in the benchmark's deep trees.  Its support LP has 364 homogeneous
    # rows, so phase 1 ends before any pivot: 2.0-2.9 s on a shared 2-vCPU
    # Xeon VM, against 6.6-6.8 s with phase 1's degenerate pivots
    m = seeded_trinomial_market(random.Random(729), horizon=6, n_arb=18)
    assert m.n == 729
    support = oracle_support(m)
    assert len(support) == m.n - 2 * 18
    assert support == backward_eliminate(m).omega_star


def test_capped_slack_lps_have_no_cap_rows(monkeypatch):
    # a one-period Tree(16, 1, 4): each slack in [0, 1] is a native cap, so
    # the tableau holds only the rows that carry content
    rng = random.Random(16)
    scenarios = [
        {"id": f"w{i}", "prices": [[10] * 4, [rng.randint(5, 15) for _ in range(4)]]}
        for i in range(16)
    ]
    m = load_market({"d": 4, "T": 1, "scenarios": scenarios})
    shapes = []
    init = _Tableau.__init__

    def spy(self, *args):
        init(self, *args)
        shapes.append(len(self.body))

    monkeypatch.setattr(_Tableau, "__init__", spy)
    oracle_support(m)
    assert shapes == [m.d]  # the martingale rows of the single time-0 atom
    shapes.clear()
    oracle_arbitrage(m, natural_nodes(m))
    assert shapes == [m.n]  # V_T(i) - s_i >= 0 per scenario
    points = [m.increment(1, i) for i in range(m.n)]
    assert len(set(points)) == 16
    shapes.clear()
    maximal_separator(points + points[:5])
    assert shapes == [16]  # H.x_v - s_v >= 0 per distinct point


# six scenarios on three price paths: a and b rise twice, c rises once and
# stays, d, e and f fall once and stay; the node after the rise gains on a
# and b, so they are polar and gained on, and c, d, e and f survive
_REPEATED_PATHS = {
    "d": 1,
    "T": 2,
    "scenarios": [
        {"id": sid, "prices": path}
        for sid, path in (
            ("a", [[10], [11], [12]]),
            ("b", [[10], [11], [12]]),
            ("c", [[10], [11], [11]]),
            ("d", [[10], [9], [9]]),
            ("e", [[10], [9], [9]]),
            ("f", [[10], [9], [9]]),
        )
    ],
}


def test_oracle_lps_take_one_slack_per_distinct_path(monkeypatch):
    m = load_market(_REPEATED_PATHS)
    lps = count_calls(monkeypatch, "ratgeom", "lp_solve")
    assert m.ids(oracle_support(m)) == ["c", "d", "e", "f"]
    ((lp,),) = lps
    # a remainder and a capped slack per path, against 2 * 6 per scenario
    assert len(lp.objective) == 2 * 3
    assert [hi for _lo, hi in lp.bounds].count(1) == 3
    pa = backward_eliminate(m)
    for rows in (pa.nodes, pa.aggregator[1]):
        lps.clear()
        gain, h = oracle_arbitrage(m, rows)
        assert m.ids(gain) == ["a", "b"]
        _assert_witness(m, rows, gain, h)
        ((lp,),) = lps
        # one V_T - s >= 0 row and one capped slack per path, against 6
        assert len(lp.constraints) == 3
        assert [hi for _lo, hi in lp.bounds].count(1) == 3


def _position_coefficients(m, rows):
    """Each scenario's V_T as coefficients of one position vector per (period, node).

    Asset j on node k of period t is entry first[t-1] + k * d + j, and each
    period's block follows the last.
    """
    first, npos = [], 0
    for row in rows[: m.T]:
        first.append(npos)
        npos += len(atoms_of(row)) * m.d
    out = []
    for i in range(m.n):
        coeffs = [0] * npos
        for t, col in enumerate(first, 1):
            k = col + rows[t - 1][i] * m.d
            coeffs[k : k + m.d] = m.increment(t, i)
        out.append(tuple(coeffs))
    return out


def _gain_per_scenario(m, rows):
    """The gain set of the strategy search with one row and one capped slack per scenario.

    The oracle's LP before it merged scenarios on one path: rows V_T(i) - s_i
    >= 0 over the slacks, then one position vector per (period, node).
    """
    res = lp_solve(strict_set_lp_by_hand(_position_coefficients(m, rows)))
    assert res.status == OPTIMAL
    return frozenset(i for i, s in enumerate(res.solution[: m.n]) if s > 0)


@settings(max_examples=150, deadline=None)
@given(st.one_of(corpus_markets(), split_corpus_markets()))
def test_oracle_lps_over_distinct_paths_match_the_per_scenario_lps(m):
    # both families often send several scenarios down one path
    assert oracle_support(m) == _support_literal(m)
    pa = backward_eliminate(m)
    for rows in (pa.nodes, pa.aggregator[1]):
        gain, h = oracle_arbitrage(m, rows)
        assert gain == _gain_per_scenario(m, rows)
        _assert_witness(m, rows, gain, h)


def _martingale_rows_by_hand(m, nodes, columns):
    """The martingale rows over the scenarios ``columns``, built row by row.

    Row k * d + j of period t holds asset j's increments on node k of
    ``nodes[t-1]``, and each period's rows follow the last.
    """
    rows = []
    for t in range(1, m.T + 1):
        up = nodes[t - 1]
        coeffs = [[0] * len(columns) for _ in range((max(up) + 1) * m.d)]
        for v, i in enumerate(columns):
            for j, x in enumerate(m.increment(t, i)):
                coeffs[up[i] * m.d + j][v] = x
        rows.extend((tuple(c), EQ, 0) for c in coeffs)
    return rows


def _polytope_by_hand(m):
    rows = [((1,) * m.n, EQ, 1)] + _martingale_rows_by_hand(m, natural_nodes(m), range(m.n))
    return LinearProgram((0,) * m.n, tuple(rows), ((0, None),) * m.n)


def _support_lp_by_hand(m):
    """Remainders, then slacks, one pair per final node, over its least member's column."""
    nodes = natural_nodes(m)
    least = {}
    for i, v in enumerate(nodes[m.T]):
        least.setdefault(v, i)
    k = len(least)
    constraints = tuple(
        (coeffs + coeffs, rel, rhs)
        for coeffs, rel, rhs in _martingale_rows_by_hand(m, nodes, list(least.values()))
    )
    return LinearProgram((0,) * k + (1,) * k, constraints, ((0, None),) * k + ((0, 1),) * k)


def _strategy_lp_by_hand(m, rows):
    """One row V_T - s_v >= 0 and one slack per distinct coefficient row."""
    return strict_set_lp_by_hand(list(dict.fromkeys(_position_coefficients(m, rows))))


_ORACLE_MARKETS = st.one_of(corpus_markets(), split_corpus_markets(), trinomial_tree())


@settings(max_examples=100, deadline=None)
@given(_ORACLE_MARKETS)
def test_oracle_lps_are_the_hand_built_lps(m):
    # one table builder and one strict-set LP lay out the same LPs as
    # building the rows, the columns and the slack rows by hand, so every
    # pivot and every answer is the same
    assert build_polytope(m) == _polytope_by_hand(m)
    pa = backward_eliminate(m)
    with pytest.MonkeyPatch.context() as monkeypatch:
        lps = count_calls(monkeypatch, "ratgeom", "lp_solve")
        oracle_support(m)
        assert lps == [(_support_lp_by_hand(m),)]
        for rows in (pa.nodes, pa.aggregator[1]):
            lps.clear()
            oracle_arbitrage(m, rows)
            assert lps == [(_strategy_lp_by_hand(m, rows),)]


@settings(max_examples=100, deadline=None)
@given(_ORACLE_MARKETS)
def test_oracle_support_is_the_complement_of_the_natural_gain_set(m):
    # both LPs read the natural martingale table A: the support of
    # {q >= 0 : A q = 0} and the strict set of {H : H.A >= 0} split the
    # scenarios (Tucker's strict complementarity), so the two oracles must
    # agree scenario by scenario
    assert oracle_support(m) == m.all_indices - oracle_arbitrage(m, natural_nodes(m))[0]


def _assert_witness(m, filtration, gain, h):
    if not gain:
        assert h is None
        return
    assert check_predictable(h, filtration)
    v = value_process(m, h)[m.T]
    assert all(x >= 0 for x in v)
    assert all(v[i] >= 1 for i in gain)
    assert {i for i in range(m.n) if v[i] > 0} == gain


def test_oracle_arbitrage_matches_literal_per_set_search(mini_corpus, multi):
    # c <= gain exactly when the per-set LP finds a strategy gaining on c
    for m in mini_corpus + [multi]:
        pa = backward_eliminate(m)
        for f in (pa.nodes, pa.aggregator[1]):
            gain, h = oracle_arbitrage(m, f)
            _assert_witness(m, f, gain, h)
            for c in [frozenset({i}) for i in range(m.n)] + [m.all_indices]:
                assert (c <= gain) == arbitrage_literal(m, f, c)


@st.composite
def several_roots(draw, markets):
    """A drawn market with each time-1 node's paths shifted by 0, 50 or 100 in
    every asset: the increments and the subtrees below t = 1 stay, and F_0
    has one node per shift in use."""
    m = draw(markets)
    shift = [0] * m.n
    for node in m.level_sets(m.all_indices, 1):
        k = draw(st.sampled_from((0, 50, 100)))
        for i in node:
            shift[i] = k
    paths = [[tuple(x + k for x in row) for row in s.path] for s, k in zip(m.scenarios, shift)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # initial prices differ
        return paths_market(paths)


@settings(max_examples=25, deadline=None)
@given(several_roots(st.one_of(corpus_markets(), wide_trees(), trinomial_tree(horizon=3))))
def test_oracle_arbitrage_matches_literal_search_with_several_time_0_nodes(m):
    # the oracle lays out each period's positions from the row's node ids;
    # with several time-0 nodes, every period's block starts past the last
    pa = backward_eliminate(m)
    for rows in (pa.nodes, pa.aggregator[1]):
        gain, h = oracle_arbitrage(m, rows)
        _assert_witness(m, rows, gain, h)
        for c in [frozenset({i}) for i in range(m.n)] + [m.all_indices]:
            assert (c <= gain) == arbitrage_literal(m, rows, c)


@settings(max_examples=40, deadline=None)
@given(st.one_of(corpus_markets(), trinomial_tree(horizon=3)))
def test_oracle_witness_holds_no_zero_position(m):
    # a node the LP leaves at zero is left out of the witness, which still
    # passes the same checks: predictable, V_T >= 0, V_T >= 1 on the gain set
    # and V_T > 0 only there
    pa = backward_eliminate(m)
    for rows in (pa.nodes, pa.aggregator[1]):
        gain, h = oracle_arbitrage(m, rows)
        _assert_witness(m, rows, gain, h)
        if h is not None:
            assert all(any(vec) for pos in h.positions for vec in pos.values())


def test_oracle_arbitrage_svu_model_independent(svu):
    pa = backward_eliminate(svu)
    _agg, enlarged = universal_aggregator(svu, pa)
    gain, h = oracle_arbitrage(svu, enlarged)
    assert gain == svu.all_indices
    assert all(x >= 1 for x in value_process(svu, h)[svu.T])
    # a natural-filtration witness exists here too (interim loss at t=1,
    # e.g. h1=1 then 5 shares on the down branch); the LP must find one
    gain_nat, h_nat = oracle_arbitrage(svu, natural_nodes(svu))
    assert gain_nat == svu.all_indices
    assert all(x >= 1 for x in value_process(svu, h_nat)[svu.T])


def test_oracle_arbitrage_constant_none(constant):
    assert oracle_arbitrage(constant, natural_nodes(constant)) == (frozenset(), None)


@pytest.mark.parametrize(
    "rows, message",
    [
        (((0, 0, 0, 0), (1, 0, 0, 2)), "not numbered in order of least member"),
        (((0, 0, 0, 0), (0, 2, 1, 1)), "not numbered in order of least member"),
        (((0, 0, 0, 0), (0, 1, 1)), "a row of 4 node ids"),
        (((0, 0, 0, 0),), "a row of 4 node ids"),
    ],
)
def test_oracle_arbitrage_checks_its_rows(svu, monkeypatch, rows, message):
    # rows are checked before any LP is built, and every SVU scenario gains
    calls = count_calls(monkeypatch, "ratgeom", "lp_solve")
    with pytest.raises(ValueError, match=message):
        oracle_arbitrage(svu, rows)
    assert calls == []


def test_oracle_arbitrage_multi_period_restriction(multi):
    # the oracle gains on the target, which needs both periods: neither
    # period alone admits a strategy gaining on it
    f = natural_nodes(multi)
    target = frozenset({0, 1})
    gain, h = oracle_arbitrage(multi, f)
    assert target <= gain and arbitrage_literal(multi, f, target)
    _assert_witness(multi, f, gain, h)
    for only_period in (1, 2):
        assert not arbitrage_literal(multi, f, target, only_period)


def test_oracle_arbitrage_aggregator_is_feasible_point(mini_corpus):
    for m in mini_corpus[:20]:
        pa = backward_eliminate(m)
        polar = m.all_indices - pa.omega_star
        if not polar:
            continue
        agg, enlarged = universal_aggregator(m, pa)
        gain, _h = oracle_arbitrage(m, enlarged)
        assert polar <= gain
        # the aggregator satisfies the same constraint set up to scaling
        v = value_process(m, agg)
        assert all(x >= 0 for x in v[m.T])
        assert all(v[m.T][i] > 0 for i in polar)


def test_oracle_determinism(svu):
    pa = backward_eliminate(svu)
    _agg, enlarged = universal_aggregator(svu, pa)
    first = oracle_arbitrage(svu, enlarged)
    assert oracle_arbitrage(svu, enlarged) == first
