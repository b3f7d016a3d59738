"""Market loading, filtrations, strategies, value processes."""

import copy
import json
import random
import warnings
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from arbscan.errors import MarketFormatError
from arbscan.market import (
    DiscreteMeasure,
    Market,
    Scenario,
    Strategy,
    atoms_of,
    check_predictable,
    load_market,
    load_strategy,
    natural_nodes,
    terminal_values,
    value_process,
)
from arbscan.measures import check_martingale, full_support_measure, mix
from arbscan.splitter import backward_eliminate

from conftest import (
    SVU_DOC,
    corpus_markets,
    fraction_market,
    market_doc,
    position,
    random_measure,
    reference_values,
    refine,
    split_corpus_markets,
    trinomial_tree,
)


def _ids(m, indices):
    return set(m.ids(indices))


def test_load_svu(svu):
    assert svu.n == 4 and svu.d == 1 and svu.T == 2
    assert [s.id for s in svu.scenarios] == ["w1", "w2", "w3", "w4"]
    assert svu.increment(2, 2) == (F(2),)


def test_probability_sum_error():
    doc = dict(SVU_DOC, probabilities={"P": {"w1": "1/2", "w2": "1/2", "w3": "1/2"}})
    with pytest.raises(MarketFormatError, match="does not sum to 1"):
        load_market(doc)


def test_empty_class_set_error():
    doc = dict(SVU_DOC, classes={"bad": [[]]})
    with pytest.raises(MarketFormatError, match="empty set"):
        load_market(doc)


def test_class_without_sets_error():
    doc = dict(SVU_DOC, classes={"bad": []})
    with pytest.raises(MarketFormatError, match="declares no sets"):
        load_market(doc)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d["scenarios"].append(dict(d["scenarios"][0])), "duplicate scenario id"),
        (lambda d: d["scenarios"][0].update(prices=[[7], [8]]), "price rows"),
        (lambda d: d["scenarios"][0]["prices"].__setitem__(0, [7, 7]), "length"),
        (lambda d: d.update(T=0), "T must be at least 1"),
        (lambda d: d.update(scenarios=[]), "no scenarios"),
    ],
)
def test_validation_errors(mutate, message):
    import copy

    doc = copy.deepcopy(SVU_DOC)
    mutate(doc)
    with pytest.raises(MarketFormatError, match=message):
        load_market(doc)


def test_unknown_ids_and_float_prices():
    with pytest.raises(MarketFormatError, match="unknown scenario"):
        load_market(dict(SVU_DOC, classes={"c": [["nope"]]}))
    # 1.0 is integral and True an int subclass, yet neither is a price
    for price in (0.5, 1.0, True, False):
        with pytest.raises(MarketFormatError, match="not a rational"):
            load_market(
                {"d": 1, "T": 1, "scenarios": [{"id": "a", "prices": [[price], [1]]}]}
            )


def test_time_zero_disagreement_warns():
    doc = {
        "d": 1,
        "T": 1,
        "scenarios": [
            {"id": "a", "prices": [[1], [1]]},
            {"id": "b", "prices": [[2], [2]]},
        ],
    }
    with pytest.warns(UserWarning, match="initial prices differ"):
        m = load_market(doc)
    assert natural_nodes(m)[0] == (0, 1)


def test_time_zero_warning_blames_the_caller():
    scenarios = (Scenario("a", ((F(1),), (F(1),))), Scenario("b", ((F(2),), (F(2),))))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        Market(d=1, T=1, scenarios=scenarios)
    assert [w.filename for w in caught] == [__file__]


def test_load_market_builds_the_market_once(monkeypatch, svu):
    built = []
    check = Market.__post_init__
    monkeypatch.setattr(Market, "__post_init__", lambda self: built.append(check(self)))
    m = load_market(SVU_DOC)
    assert len(built) == 1
    assert (m.classes, m.probabilities) == (svu.classes, svu.probabilities)


def test_missing_or_null_tables_are_empty():
    missing = {k: v for k, v in SVU_DOC.items() if k not in ("classes", "probabilities")}
    for doc in (missing, dict(missing, classes=None, probabilities=None)):
        m = load_market(doc)
        assert (m.classes, m.probabilities) == ({}, {})


def test_natural_filtration_svu(svu):
    f = [atoms_of(row) for row in natural_nodes(svu)]
    assert [_ids(svu, a) for a in f[0]] == [{"w1", "w2", "w3", "w4"}]
    assert [_ids(svu, a) for a in f[1]] == [{"w1", "w2"}, {"w3", "w4"}]
    assert all(len(a) == 1 for a in f[2])


def test_natural_filtration_single_scenario():
    m = load_market({"d": 1, "T": 2, "scenarios": [{"id": "a", "prices": [[1], [2], [3]]}]})
    assert natural_nodes(m) == ((0,), (0,), (0,))


def test_natural_filtration_multi(multi):
    f1 = atoms_of(natural_nodes(multi)[1])
    assert [_ids(multi, a) for a in f1] == [{"A1"}, {"A2", "A3"}, {"A4"}]


def test_natural_filtration_groups_shared_price_rows(mini_corpus, ex3d, countna):
    for m in mini_corpus + [ex3d, countna]:
        assert [atoms_of(row) for row in natural_nodes(m)] == [
            tuple(m.level_sets(m.all_indices, t)) for t in range(m.T + 1)
        ]


def test_natural_nodes_number_nodes_by_least_member(svu, multi):
    # w1, w2 rise to 11 and w3, w4 fall to 9; each scenario then moves alone
    assert natural_nodes(svu) == ((0, 0, 0, 0), (0, 0, 1, 1), (0, 1, 2, 3))
    assert natural_nodes(multi)[1] == (0, 1, 1, 2)
    # a scenario whose time-0 price differs opens a node of its own at t = 0
    with pytest.warns(UserWarning, match="initial prices differ"):
        m = load_market({"d": 1, "T": 1, "scenarios": [
            {"id": "a", "prices": [[2], [3]]},
            {"id": "b", "prices": [[1], [3]]},
            {"id": "c", "prices": [[2], [3]]},
        ]})
    assert natural_nodes(m) == ((0, 1, 0), (0, 1, 0))


def test_atoms_of_groups_by_id():
    assert atoms_of((0, 1, 1, 0, 2)) == (
        frozenset({0, 3}), frozenset({1, 2}), frozenset({4}),
    )
    assert atoms_of((0,)) == (frozenset({0}),)


@pytest.mark.parametrize("row", [(0, 2, 1), (1, 0), (0, -1), (1,)])
def test_atoms_of_rejects_a_misnumbered_row(row):
    with pytest.raises(ValueError, match="not numbered in order of least member"):
        atoms_of(row)


def test_filtration_is_monotone(mini_corpus):
    for m in mini_corpus[:20]:
        f = [atoms_of(row) for row in natural_nodes(m)]
        for t in range(1, m.T + 1):
            # every atom at t lies inside one atom at t - 1
            assert all(any(a <= b for b in f[t - 1]) for a in f[t])


def test_refine():
    p = (frozenset({0, 1}), frozenset({2, 3}))
    whole = (frozenset({0, 1, 2, 3}),)
    cross = (frozenset({0, 2}), frozenset({1, 3}))
    assert refine(p, whole) == p
    assert refine(p, cross) == tuple(frozenset({i}) for i in range(4))
    with pytest.raises(ValueError, match="ground"):
        refine(p, (frozenset({0}),))


def test_refine_by_aggregator_values_ex1000(ex1000):
    from arbscan.splitter import backward_eliminate

    pa = backward_eliminate(ex1000)
    agg, _enlarged = pa.aggregator
    groups = {}
    for i in range(ex1000.n):
        groups.setdefault(position(agg, 1, i, ex1000.d), set()).add(i)
    by_value = tuple(frozenset(g) for g in groups.values())
    f1 = atoms_of(natural_nodes(ex1000)[1])
    refined = refine(f1, by_value)
    assert all(len(a) == 1 for a in refined)


def test_value_process_multi(multi):
    f = natural_nodes(multi)
    omega = frozenset(range(4))
    h1_only = Strategy(({omega: (F(-1), F(1))}, {}))
    assert check_predictable(h1_only, f)
    v = value_process(multi, h1_only)
    assert v[2] == [F(4), F(0), F(0), F(0)]

    h2_only = Strategy(({}, {frozenset({1, 2}): (F(1), F(-1))}))
    assert check_predictable(h2_only, f)
    v = value_process(multi, h2_only)
    assert v[2] == [F(0), F(2), F(0), F(0)]

    zero = Strategy(({}, {}))
    assert check_predictable(zero, f)
    assert value_process(multi, zero) == [[F(0)] * 4] * 3


def test_foreign_atom_is_not_predictable(multi):
    # {0, 1} splits the natural node {1, 2} at time 1, and scenario 2 holds zero
    f = natural_nodes(multi)
    bad = Strategy(({}, {frozenset({0, 1}): (F(1), F(0))}))
    assert check_predictable(bad, f) is False
    assert value_process(multi, bad)[2] == [F(0), F(3), F(0), F(0)]


def test_one_vector_on_two_nodes_is_predictable(multi):
    # an atom that is a union of nodes, each holding the same vector
    f = ((0, 0, 0, 0), (0, 1, 1, 2), (0, 1, 2, 3))
    assert f == natural_nodes(multi)
    h = Strategy(({}, {frozenset({0, 3}): (1, 0)}))
    assert check_predictable(h, f) is True
    # A1 and A4 do not move over (1, 2]
    assert value_process(multi, h) == [[F(0)] * 4] * 3


@settings(max_examples=30, deadline=None)
@given(st.integers(-3, 3), st.integers(-3, 3), st.data())
def test_value_process_linear(a, b, data):
    m = load_market(SVU_DOC)
    f = natural_nodes(m)

    def rand_strategy():
        pos = []
        for t in range(1, m.T + 1):
            pos.append(
                {
                    atom: tuple(F(data.draw(st.integers(-3, 3))) for _ in range(m.d))
                    for atom in atoms_of(f[t - 1])
                }
            )
        return Strategy(tuple(pos))

    g, h = rand_strategy(), rand_strategy()
    combo = Strategy(
        tuple(
            {
                atom: tuple(F(a) * x + F(b) * y for x, y in zip(g.positions[t][atom], h.positions[t][atom]))
                for atom in atoms_of(f[t])
            }
            for t in range(m.T)
        )
    )
    vg, vh, vc = (value_process(m, s) for s in (g, h, combo))
    for t in range(m.T + 1):
        for i in range(m.n):
            assert vc[t][i] == F(a) * vg[t][i] + F(b) * vh[t][i]


def _scaled(m, k):
    """``m`` with every price a ``Fraction``, divided by ``k``."""
    scenarios = tuple(
        Scenario(s.id, tuple(tuple(F(x) / k for x in row) for row in s.path))
        for s in m.scenarios
    )
    return Market(m.d, m.T, scenarios)


@st.composite
def scattered_strategies(draw, m):
    """Disjoint atoms drawn freely: they may span several nodes or leave scenarios out."""
    positions = []
    for _t in range(m.T):
        labels = draw(st.lists(st.integers(-1, 3), min_size=m.n, max_size=m.n))
        pos = {}
        for k in sorted(set(labels) - {-1}):  # label -1: uncovered
            atom = frozenset(i for i, label in enumerate(labels) if label == k)
            pos[atom] = tuple(
                draw(st.fractions(-3, 3, max_denominator=6)) for _ in range(m.d)
            )
        positions.append(pos)
    return Strategy(tuple(positions))


@settings(max_examples=80, deadline=None)
@given(corpus_markets(), st.sampled_from([None, 1, 3, 4]), st.data())
def test_value_process_matches_the_reference(m, divisor, data):
    # int prices as loaded, the same as Fractions, and non-integral Fractions
    if divisor is None:
        m = load_market(market_doc(m))
    else:
        m = fraction_market(m) if divisor == 1 else _scaled(m, divisor)
    h = data.draw(scattered_strategies(m))
    v = value_process(m, h)
    assert v == reference_values(m, h)
    assert all(type(x) is F for row in v for x in row)


def test_martingale_kills_expected_terminal_value(countna):
    pa = backward_eliminate(countna)
    q = full_support_measure(countna, pa)
    f = natural_nodes(countna)
    assert check_martingale(countna, q, f)
    h = Strategy(({frozenset(range(4)): (F(3),)},))
    v = value_process(countna, h)
    assert sum(q[i] * v[countna.T][i] for i in range(countna.n)) == 0


def _rise_fall():
    """The 2-scenario, T=1 market whose price rises in s0 and falls in s1."""
    return load_market({
        "d": 1,
        "T": 1,
        "scenarios": [{"id": "s0", "prices": [[10], [11]]}, {"id": "s1", "prices": [[10], [9]]}],
    })


@pytest.mark.parametrize("atom", [-1, 5])
def test_value_process_rejects_an_atom_outside_the_market(atom):
    # -1 would wrap to the last scenario; 5 would fail a bare list lookup
    with pytest.raises(ValueError, match="outside the 2 scenarios"):
        value_process(_rise_fall(), Strategy(({frozenset({atom}): (F(1),)},)))


_TWO_ASSETS = {
    "d": 2,
    "T": 1,
    "scenarios": [
        {"id": "s0", "prices": [[10, 10], [11, 9]]},
        {"id": "s1", "prices": [[10, 10], [9, 12]]},
    ],
}


@pytest.mark.parametrize(
    "doc, vec",
    [(None, (1, 7)), (None, ()), (_TWO_ASSETS, (1,)), (_TWO_ASSETS, (0, 0, 1))],
    ids=["d1-long", "d1-empty", "d2-short", "d2-long"],
)
def test_values_reject_a_position_of_the_wrong_length(doc, vec):
    # zip() stopped at the shorter vector: (1, 7) valued as (1,) on d = 1,
    # and (1,) ignored asset 1 on d = 2
    m = _rise_fall() if doc is None else load_market(doc)
    h = Strategy(({frozenset({0}): vec},))
    message = f"position at period 1 has length {len(vec)}, expected d={m.d}"
    with pytest.raises(ValueError, match=message):
        value_process(m, h)
    with pytest.raises(ValueError, match=message):
        terminal_values(m, h)


_LONG_SHORT = Strategy(({frozenset({0}): (F(1),), frozenset({1}): (F(-1),)},))


@pytest.mark.parametrize(
    "h, rows",
    [
        (_LONG_SHORT, ((0,),)),  # the row leaves scenario 1 out
        (_LONG_SHORT, ()),  # fewer rows than periods
        (Strategy(({frozenset({-1}): (F(1),)},)), ((0, 0), (0, 1))),
    ],
    ids=["short-row", "no-rows", "negative-index"],
)
def test_check_predictable_rejects_rows_that_miss_the_strategy(h, rows):
    # under the rows it reads, a short row would hide the disagreement
    assert check_predictable(_LONG_SHORT, natural_nodes(_rise_fall())) is False
    with pytest.raises(ValueError):
        check_predictable(h, rows)


@pytest.mark.parametrize("rows", [((0,),), (), ((0, 0, 0),)], ids=["short-row", "no-rows", "long-row"])
def test_check_martingale_rejects_rows_of_the_wrong_shape(rows):
    m = _rise_fall()
    q = DiscreteMeasure({0: F(1, 2), 1: F(1, 2)})
    assert check_martingale(m, q, natural_nodes(m))
    with pytest.raises(ValueError, match="node row"):
        check_martingale(m, q, rows)


@pytest.mark.parametrize("outside", [-1, 2], ids=["negative", "past-n"])
def test_check_martingale_rejects_indices_outside_the_market(outside):
    # -1 would read scenario n-1's path and pass as its martingale partner
    m = _rise_fall()
    q = DiscreteMeasure({0: F(1, 2), outside: F(1, 2)})
    with pytest.raises(ValueError, match="outside range"):
        check_martingale(m, q, natural_nodes(m))


def _check_martingale_reference(m, q, rows):
    """``check_martingale`` with each node sum a ``Fraction``: weight times increment, added up."""
    for t, row in enumerate(rows[: m.T], 1):
        totals = {}
        for i, w in q.weights.items():
            total = totals.setdefault(row[i], [F(0)] * m.d)
            for j, x in enumerate(m.increment(t, i)):
                total[j] += w * x
        if any(any(total) for total in totals.values()):
            return False
    return True


@settings(max_examples=80, deadline=None)
@given(corpus_markets() | split_corpus_markets(), st.sampled_from([None, 1, 3, 4]), st.data())
def test_check_martingale_matches_the_fraction_sums(m, divisor, data):
    # int prices as loaded, the same as Fractions, and non-integral Fractions
    if divisor is None:
        m = load_market(market_doc(m))
    else:
        m = fraction_market(m) if divisor == 1 else _scaled(m, divisor)
    pa = backward_eliminate(m)
    rows = data.draw(st.sampled_from([pa.nodes, pa.aggregator[1]]))
    raw = data.draw(st.lists(st.integers(0, 9), min_size=m.n, max_size=m.n).filter(any))
    measures = [DiscreteMeasure({i: F(w, sum(raw)) for i, w in enumerate(raw)})]
    q = pa.full_support
    if q is not None:
        # a martingale measure, and the same mixed with a point mass, which
        # is martingale only when the point mass is
        point = data.draw(st.integers(0, m.n - 1))
        measures += [q, mix([q, DiscreteMeasure({point: F(1)})], [F(2, 3), F(1, 3)])]
        assert check_martingale(m, q, rows)
    for measure in measures:
        assert check_martingale(m, measure, rows) == _check_martingale_reference(m, measure, rows)


def test_all_indices_is_built_once(svu):
    assert svu.all_indices is svu.all_indices
    assert svu.all_indices == frozenset(range(svu.n))
    assert "all_indices" not in repr(svu)
    assert svu == load_market(SVU_DOC)


def test_scenario_ids_are_built_once(svu):
    assert svu.scenario_ids is svu.scenario_ids
    assert svu.scenario_ids == tuple(s.id for s in svu.scenarios)
    assert svu.ids({3, 0, 2}) == ["w1", "w3", "w4"]
    assert "scenario_ids" not in repr(svu)


@settings(max_examples=80, deadline=None)
@given(corpus_markets() | trinomial_tree(), st.sampled_from([None, 1, 3]), st.data())
def test_terminal_values_are_value_process_at_T(m, divisor, data):
    # int prices as loaded, the same as Fractions, and non-integral Fractions
    if divisor is None:
        m = load_market(market_doc(m))
    else:
        m = fraction_market(m) if divisor == 1 else _scaled(m, divisor)
    h = data.draw(scattered_strategies(m))
    nums, den = terminal_values(m, h)
    assert den > 0 and all(type(x) is int for x in nums)
    assert [F(x, den) for x in nums] == value_process(m, h)[m.T]


@settings(max_examples=80, deadline=None)
@given(corpus_markets() | trinomial_tree(), st.integers(0, 2**32 - 1), st.data())
def test_measure_mass_is_the_fraction_sum(m, seed, data):
    measures = [random_measure(random.Random(seed), m.n)]
    full_support = backward_eliminate(m).full_support
    if full_support is not None:
        measures.append(full_support)
    indices = data.draw(st.sets(st.integers(0, m.n - 1)))
    for q in measures:
        mass = q.mass(indices)
        assert type(mass) is F
        assert mass == sum((q[i] for i in indices), F(0))
        assert q.mass(m.all_indices) == 1
        # the numerators are plain attributes: == and repr read the weights
        assert q == DiscreteMeasure(dict(q.weights))
        assert "numerators" not in repr(q)


def test_strategy_atoms_must_be_disjoint():
    with pytest.raises(ValueError, match="overlap"):
        Strategy(({frozenset({0, 1}): (F(1),), frozenset({1, 2}): (F(0),)},))


def test_measure_validation():
    with pytest.raises(MarketFormatError):
        DiscreteMeasure({0: F(1, 2), 1: F(1, 4)})
    with pytest.raises(MarketFormatError):
        DiscreteMeasure({0: F(3, 2), 1: F(-1, 2)})
    q = DiscreteMeasure({0: F(1, 2), 1: F(1, 2), 2: F(0)})
    assert q.support == frozenset({0, 1})


_weight = st.builds(F, st.integers(-2, 12), st.integers(1, 12))


@settings(max_examples=300, deadline=None)
@given(st.lists(_weight, min_size=1, max_size=8), st.data())
def test_measure_sum_is_exact(weights, data):
    # close the sum to 1 on half the examples, so both outcomes are drawn
    if data.draw(st.booleans()):
        weights.append(1 - sum(weights))
    raw = dict(enumerate(weights))
    if any(w < 0 for w in weights):
        with pytest.raises(MarketFormatError, match="negative weight on scenario index"):
            DiscreteMeasure(raw)
    elif sum(weights) != 1:
        with pytest.raises(MarketFormatError, match="weights do not sum to 1"):
            DiscreteMeasure(raw)
    else:
        q = DiscreteMeasure(raw)
        assert q.weights == {i: w for i, w in raw.items() if w}
        # Fractions are kept as they are, not wrapped again
        assert all(q.weights[i] is raw[i] for i in q.weights)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 9), min_size=1, max_size=12), st.integers(1, 6))
def test_measure_from_numerators_equals_the_fraction_weights(raw, factor):
    # scaled by a common factor, so the gcd reduction is exercised too
    nums = {i: k * factor for i, k in enumerate(raw)}
    den = sum(nums.values())
    if den == 0:
        return
    q = DiscreteMeasure.from_numerators(nums, den)
    ref = DiscreteMeasure({i: F(k, den) for i, k in nums.items()})
    assert q == ref and repr(q) == repr(ref)
    assert (q.numerators, q.denominator) == (ref.numerators, ref.denominator)
    assert all(F(k, q.denominator) == q.weights[i] for i, k in q.numerators.items())
    assert q.support == ref.support and q.mass(range(len(raw))) == 1


@pytest.mark.parametrize(
    "nums, den",
    [
        ({0: True}, 1),  # a bool numerator
        ({0: 1.0}, 1),  # a float numerator
        ({0: F(1)}, 1),  # a Fraction numerator
        ({0: 2, 1: -1}, 1),  # a negative numerator
        ({0: 1}, 0),  # den not positive
        ({0: -1}, -1),
        ({0: 1}, True),  # den not an int
        ({0: 2}, 2.0),
        ({0: 1}, F(1)),
        ({0: 1, 1: 1}, 3),  # a sum other than den
        ({}, 1),
    ],
)
def test_measure_from_numerators_rejects(nums, den):
    with pytest.raises(MarketFormatError):
        DiscreteMeasure.from_numerators(nums, den)


def test_measure_accepts_ints_and_near_misses_fail():
    q = DiscreteMeasure({0: 1, 1: 0})
    assert q.weights == {0: F(1)} and type(q.weights[0]) is F
    tiny = F(1, 10**40)
    with pytest.raises(MarketFormatError, match="sum to 1"):
        DiscreteMeasure({0: F(1, 3), 1: F(2, 3) - tiny})
    assert DiscreteMeasure({0: F(1, 3) + tiny, 1: F(2, 3) - tiny}).support == {0, 1}


@pytest.mark.parametrize(
    "weights, index",
    [
        ({0: 0.5, 1: 0.5}, 0),
        ({0: 0.1, 1: 0.9}, 0),
        ({0: F(1, 2), 1: True}, 1),
        ({0: True}, 0),
        ({0: F(1, 2), 1: "1/2"}, 1),
        ({0: 1, 1: None}, 1),
    ],
    ids=["halves", "tenths", "bool", "bool-one", "string", "none"],
)
def test_measure_rejects_weights_that_are_not_int_or_fraction(weights, index):
    # floats used to build, or fail as "weights do not sum to 1"; True as 1
    with pytest.raises(MarketFormatError, match=f"weight on scenario index {index} is "):
        DiscreteMeasure(weights)


def test_probability_negative_weight_error():
    doc = dict(SVU_DOC, probabilities={"P": {"w1": "3/2", "w2": "-1/2"}})
    with pytest.raises(MarketFormatError, match="probability 'P': negative weight"):
        load_market(doc)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)

_STRATEGY_DOC = {"positions": {"1": {"w1,w2,w3,w4": ["1"]}, "2": {"w1,w2": ["-1"], "w3,w4": ["1/2"]}}}


def _malformed(data, base: dict):
    """``base`` with a few nodes replaced or deleted, as a dict or as (cut) JSON text."""
    doc = copy.deepcopy(base)
    for _ in range(data.draw(st.integers(1, 3))):
        parent, key = doc, data.draw(st.sampled_from(sorted(doc)))
        while isinstance(parent[key], (dict, list)) and parent[key] and data.draw(st.booleans()):
            parent = parent[key]
            key = data.draw(st.sampled_from(sorted(parent) if isinstance(parent, dict) else range(len(parent))))
        if isinstance(parent, dict) and data.draw(st.booleans()):
            del parent[key]
            if not doc:
                doc["d"] = 1
        else:
            parent[key] = data.draw(_JSON)
    if data.draw(st.booleans()):
        return doc
    text = json.dumps(doc)
    return text[: data.draw(st.integers(1, len(text)))]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_load_market_rejects_malformed_documents_cleanly(data):
    source = _malformed(data, SVU_DOC)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            load_market(source)
        except MarketFormatError:
            pass


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_load_strategy_rejects_malformed_documents_cleanly(svu, data):
    source = _malformed(data, _STRATEGY_DOC)
    try:
        h = load_strategy(svu, source)
    except MarketFormatError:
        return
    assert len(h.positions) == svu.T
