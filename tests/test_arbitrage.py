"""Classification, defragmentation, decomposition, extraction, feasibility."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from arbscan.arbitrage import (
    ARBITRAGE,
    NO_ARBITRAGE,
    classify,
    defragment,
    extract_p_arbitrage,
    feasibility,
    lebesgue_decompose,
    one_step_1p_check,
)
from arbscan.errors import DomainError
from arbscan.market import (
    DiscreteMeasure,
    Market,
    SignificantClass,
    Strategy,
    atoms_of,
    natural_nodes,
    value_process,
)
from arbscan.splitter import backward_eliminate

from conftest import (
    corpus_markets,
    position,
    predictable_on,
    random_class,
    random_measure,
    split_corpus_markets,
)


def _singletons(m):
    return SignificantClass("1p", tuple(frozenset({i}) for i in range(m.n)))


def test_classify_svu_mi_enlarged(svu):
    pa = backward_eliminate(svu)
    verdict = classify(svu, pa, SignificantClass("MI", (svu.all_indices,)), "enlarged")
    assert verdict.kind == ARBITRAGE
    v = value_process(svu, verdict.witness)
    assert all(x >= 0 for x in v[svu.T])
    assert {i for i in range(svu.n) if v[svu.T][i] > 0} == svu.all_indices
    assert verdict.witness_class <= {i for i in range(svu.n) if v[svu.T][i] > 0}


def test_classify_multi_natural_needs_two_periods(multi):
    pa = backward_eliminate(multi)
    verdict = classify(multi, pa, multi.classes["openish"], "natural")
    assert verdict.kind == ARBITRAGE
    used_periods = [
        t + 1
        for t, pos in enumerate(verdict.witness.positions)
        if any(any(x != 0 for x in v) for v in pos.values())
    ]
    assert len(used_periods) == 2


def test_classify_constant_no_arbitrage(constant):
    pa = backward_eliminate(constant)
    for mode in ("natural", "enlarged"):
        verdict = classify(constant, pa, _singletons(constant), mode)
        assert verdict.kind == NO_ARBITRAGE
        assert verdict.certificate_measure is not None
        assert verdict.certificate_measure.mass(constant.all_indices) == 1


def test_classify_unknown_mode(svu):
    pa = backward_eliminate(svu)
    with pytest.raises(ValueError):
        classify(svu, pa, _singletons(svu), "weird")


def test_one_step_check_countna(countna):
    pa = backward_eliminate(countna)
    entries = one_step_1p_check(countna, pa)
    assert len(entries) == 1
    t, node, h, witness = entries[0]
    assert t == 1 and h == (F(1),)
    assert set(countna.ids(witness)) == {"r1", "r2"}
    # the entry names the split level set by its node at t-1, the root
    assert node == 0
    assert [(sp.t, sp.node, sp.separator, sp.block) for sp in pa.events] == entries


def test_one_step_check_constant(constant):
    pa = backward_eliminate(constant)
    assert one_step_1p_check(constant, pa) == []


def test_one_step_check_ex3d(ex3d):
    pa = backward_eliminate(ex3d)
    entries = one_step_1p_check(ex3d, pa)
    assert len(entries) == 1
    _t, _node, _h, witness = entries[0]
    assert witness == ex3d.all_indices - pa.omega_star


def test_one_step_entries_iff_natural_one_point(mini_corpus):
    # one-step entries exist exactly when some natural-filtration strategy
    # gains somewhere without ever losing (a nonempty oracle gain set)
    from arbscan.oracle import oracle_arbitrage

    for m in mini_corpus[:15]:
        pa = backward_eliminate(m)
        entries = one_step_1p_check(m, pa)
        gain, _h = oracle_arbitrage(m, natural_nodes(m))
        exists_1p = any(frozenset({i}) <= gain for i in range(m.n))
        assert bool(entries) == exists_1p


def test_defragment_multi(multi):
    f = natural_nodes(multi)
    h = Strategy(
        (
            {a: (F(-1), F(1)) for a in atoms_of(f[0])},
            {
                frozenset({1, 2}): (F(1), F(-1)),
                frozenset({0}): (F(0), F(0)),
                frozenset({3}): (F(0), F(0)),
            },
        )
    )
    u, masked = defragment(multi, h)
    assert [set(multi.ids(x)) for x in u] == [{"A1"}, {"A2"}]
    v = value_process(multi, masked)
    assert all(x >= 0 for x in v[multi.T])
    # masked strategy gains strictly at each piece's own period
    for t, u_t in enumerate(u, start=1):
        for i in u_t:
            pos = position(masked, t, i, multi.d)
            inc = multi.increment(t, i)
            assert sum(a * b for a, b in zip(pos, inc)) > 0


def test_defragment_zero_strategy(multi):
    zero = Strategy(({}, {}))
    u, masked = defragment(multi, zero)
    assert all(not x for x in u)
    assert value_process(multi, masked)[multi.T] == [F(0)] * 4


def test_defragment_covers_svu_aggregator(svu):
    from arbscan.splitter import universal_aggregator

    pa = backward_eliminate(svu)
    agg, _ = universal_aggregator(svu, pa)
    u, _masked = defragment(svu, agg)
    assert frozenset().union(*u) == svu.all_indices


def test_defragment_rejects_negative_terminal(svu):
    f = natural_nodes(svu)
    short = Strategy(({a: (F(-1),) for a in atoms_of(f[0])}, {}))
    with pytest.raises(DomainError, match="negative"):
        defragment(svu, short)


def test_lebesgue_decompose_cases(countna):
    pa = backward_eliminate(countna)
    inside = DiscreteMeasure({countna.index_of("q1"): F(1)})
    dec = lebesgue_decompose(countna, pa, inside)
    assert dec.carrier == frozenset() and not dec.singular

    polar_delta = DiscreteMeasure({countna.index_of("r1"): F(1)})
    dec = lebesgue_decompose(countna, pa, polar_delta)
    assert dec.singular == dict(polar_delta.weights) and not dec.continuous

    uniform = DiscreteMeasure({i: F(1, 4) for i in range(4)})
    dec = lebesgue_decompose(countna, pa, uniform)
    assert set(countna.ids(dec.carrier)) == {"r1", "r2"}
    assert sum(dec.singular.values()) == F(1, 2)


def test_extract_ex3d_irrational_mass(ex3d):
    pa = backward_eliminate(ex3d)
    p = ex3d.probabilities["P_I"]
    h = extract_p_arbitrage(ex3d, pa, p)
    v = value_process(ex3d, h)
    assert all(v[ex3d.T][i] >= 0 for i in p.support)
    assert sum(p[i] for i in range(ex3d.n) if v[ex3d.T][i] > 0) > 0


def test_extract_none_inside_star(countna):
    pa = backward_eliminate(countna)
    p = DiscreteMeasure({countna.index_of("q1"): F(1, 2), countna.index_of("q2"): F(1, 2)})
    assert extract_p_arbitrage(countna, pa, p) is None


def test_extract_svu_uniform(svu):
    pa = backward_eliminate(svu)
    h = extract_p_arbitrage(svu, pa, svu.probabilities["U"])
    v = value_process(svu, h)
    assert all(x >= 0 for x in v[svu.T])
    assert sum(v[svu.T]) > 0


def test_feasibility_cases(constant, countna, svu):
    feas = feasibility(constant, backward_eliminate(constant))
    assert feas.feasible and all(feas.facets.values())
    assert feas.full_support is not None

    feas = feasibility(countna, backward_eliminate(countna))
    assert not feas.feasible and not any(feas.facets.values())
    assert feas.ladder == {"no_1p": False, "no_model_independent": True}

    feas = feasibility(svu, backward_eliminate(svu))
    assert not feas.feasible
    assert not feas.ladder["no_model_independent"]


def _ladders_by_classify(m, pa):
    """The ladder and the class ladder, each rung its own enlarged ``classify``."""
    one_point = SignificantClass("1p", tuple(map(frozenset, zip(range(m.n)))))
    ladder = {
        "no_1p": not classify(m, pa, one_point, "enlarged").arbitrage,
        "no_model_independent": not classify(
            m, pa, SignificantClass("MI", (m.all_indices,)), "enlarged"
        ).arbitrage,
    }
    class_ladder = {
        name: not classify(m, pa, cls, "enlarged").arbitrage for name, cls in m.classes.items()
    }
    return ladder, class_ladder


@st.composite
def _with_classes(draw, markets):
    """A drawn market with zero to two random declared classes."""
    m = draw(markets)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    names = [f"c{k}" for k in range(draw(st.integers(0, 2)))]
    return Market(m.d, m.T, m.scenarios, {name: random_class(rng, m.n, name) for name in names})


@settings(max_examples=150, deadline=None)
@given(_with_classes(st.one_of(corpus_markets(), split_corpus_markets())))
def test_feasibility_ladders_match_a_classify_per_rung(m):
    # the ladder is read off omega_star and the class ladder off the verdicts
    # the report prints; both equal one enlarged classify per rung
    pa = backward_eliminate(m)
    feas = feasibility(m, pa)
    ladder, class_ladder = _ladders_by_classify(m, pa)
    assert feas.ladder == ladder
    assert feas.class_ladder == class_ladder
    assert feas.verdicts == {
        name: classify(m, pa, cls, "enlarged") for name, cls in m.classes.items()
    }


def test_extraction_matches_decomposition_on_corpus(mini_corpus):
    rng = random.Random(99)
    for m in mini_corpus[:30]:
        pa = backward_eliminate(m)
        for _ in range(3):
            p = random_measure(rng, m.n)
            dec = lebesgue_decompose(m, pa, p)
            h = extract_p_arbitrage(m, pa, p)
            assert (h is None) == (not dec.singular)
            merged = {
                i: dec.continuous.get(i, F(0)) + dec.singular.get(i, F(0))
                for i in p.support
            }
            assert merged == dict(p.weights)
            if h is not None:
                v = value_process(m, h)
                assert all(v[m.T][i] >= 0 for i in p.support)
                assert sum(p[i] for i in range(m.n) if v[m.T][i] > 0) > 0
                # no look-ahead: one position per natural atom, P-a.s.
                assert predictable_on(m, h, pa.nodes, p.support)


# a: 10 -> 11, b: 10 -> 9, c: 10 -> 12; on the whole market nothing is polar,
# but the analysis restricted to {a, c} finds both polar
_UP_DOWN_UP = {
    "d": 1,
    "T": 1,
    "scenarios": [
        {"id": "a", "prices": [[10], [11]]},
        {"id": "b", "prices": [[10], [9]]},
        {"id": "c", "prices": [[10], [12]]},
    ],
}


def _restricted_analysis():
    from arbscan.market import load_market

    m = load_market(_UP_DOWN_UP)
    assert backward_eliminate(m).omega_star == m.all_indices
    return m, backward_eliminate(m, within={0, 2})


def test_classify_refuses_a_restricted_analysis():
    # it used to call {b} an enlarged arbitrage, "every scenario is polar",
    # with a witness that gains nothing on b
    m, pa = _restricted_analysis()
    for mode in ("enlarged", "natural"):
        with pytest.raises(ValueError, match="restricted"):
            classify(m, pa, SignificantClass("B", (frozenset({1}),)), mode)


def test_feasibility_refuses_a_restricted_analysis():
    # it used to raise InternalError
    m, pa = _restricted_analysis()
    with pytest.raises(ValueError, match="restricted"):
        feasibility(m, pa)


def test_lebesgue_decompose_refuses_a_restricted_analysis():
    # it used to call b singular
    m, pa = _restricted_analysis()
    with pytest.raises(ValueError, match="restricted"):
        lebesgue_decompose(m, pa, DiscreteMeasure({1: F(1)}))


def test_extract_refuses_a_restricted_analysis():
    # it used to raise InternalError on the uniform model
    m, pa = _restricted_analysis()
    with pytest.raises(ValueError, match="restricted"):
        extract_p_arbitrage(m, pa, DiscreteMeasure({i: F(1, 3) for i in range(3)}))
