"""Acceptance criteria: fixture regressions plus corpus-wide properties.

Each test prints one ACCEPTANCE <n> PASS/FAIL line; run with -s to see them.
"""

import random
import time
from fractions import Fraction as F

import pytest

from arbscan.arbitrage import (
    classify,
    extract_p_arbitrage,
    feasibility,
    lebesgue_decompose,
    one_step_1p_check,
)
from arbscan.market import (
    SignificantClass,
    atoms_of,
    check_predictable,
    natural_nodes,
    value_process,
)
from arbscan.measures import (
    check_martingale,
    class_measure,
    full_support_measure,
    mix,
    supporting_measure,
)
from arbscan.oracle import build_polytope, oracle_arbitrage, oracle_support
from arbscan.ratgeom import GE, INFEASIBLE, OPTIMAL, LinearProgram, lp_solve
from arbscan.splitter import backward_eliminate, universal_aggregator

from conftest import (
    arbitrage_literal,
    position,
    predictable_on,
    random_class,
    random_market,
    random_measure,
)

CORPUS_SIZE = 500


def _report(number, description, body):
    start = time.time()
    try:
        body()
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number} PASS: {description} ({time.time() - start:.2f}s)")


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(13571113)
    return [random_market(rng) for _ in range(CORPUS_SIZE)]


@pytest.fixture(scope="module")
def analyses(corpus):
    return {i: backward_eliminate(m) for i, m in enumerate(corpus)}


def test_criterion_1_svu(svu):
    def body():
        start = time.time()
        pa = backward_eliminate(svu)
        assert pa.omega_star == frozenset()
        assert lp_solve(build_polytope(svu)).status == INFEASIBLE
        assert not feasibility(svu, pa).feasible
        verdict = classify(svu, pa, SignificantClass("MI", (svu.all_indices,)), "enlarged")
        assert verdict.kind == "Arbitrage"
        v = value_process(svu, verdict.witness)
        assert all(x >= 0 for x in v[svu.T])
        assert {i for i in range(svu.n) if v[svu.T][i] > 0} == svu.all_indices
        assert time.time() - start < 1.0

    _report(1, "SVU: empty polytope, infeasible market, aggregator gains everywhere", body)


def test_criterion_2_multi(multi):
    from arbscan.arbitrage import defragment
    from arbscan.market import Strategy, value_process

    def body():
        start = time.time()
        f = natural_nodes(multi)
        omega = frozenset(range(4))
        h = Strategy(
            (
                {omega: (F(-1), F(1))},
                {
                    frozenset({1, 2}): (F(1), F(-1)),
                    frozenset({0}): (F(0), F(0)),
                    frozenset({3}): (F(0), F(0)),
                },
            )
        )
        assert check_predictable(h, f)
        v = value_process(multi, h)
        assert v[1] == [F(4), F(0), F(0), F(0)]
        assert v[2] == [F(4), F(2), F(0), F(0)]
        u, _masked = defragment(multi, h)
        assert [set(multi.ids(x)) for x in u] == [{"A1"}, {"A2"}]
        pa = backward_eliminate(multi)
        verdict = classify(multi, pa, multi.classes["openish"], "natural")
        assert verdict.kind == "Arbitrage"
        target = frozenset({0, 1})
        assert target <= oracle_arbitrage(multi, f)[0]
        for only_period in (1, 2):
            assert not arbitrage_literal(multi, f, target, only_period)
        assert time.time() - start < 1.0

    _report(2, "MULTI: exact payoffs, defragmentation, two-period-only class arbitrage", body)


def test_criterion_3_ex3d(ex3d):
    def body():
        start = time.time()
        pa = backward_eliminate(ex3d)
        polar = frozenset(ex3d.index_of(i) for i in ("irr2", "irr5", "qlo16", "qlo9"))
        residual = frozenset(ex3d.index_of(i) for i in ("qge916", "qge4"))
        assert ex3d.all_indices - pa.omega_star == polar
        # one event at the root removes the polar classes; the rest survives
        (sp,) = pa.events
        assert (sp.t, sp.node) == (1, 0)
        assert pa.omega_star == residual
        assert sp.block == polar and sp.separator is not None
        # per-point separator oracle confirms the strict set
        points = [ex3d.increment(1, i) for i in range(ex3d.n)]
        for i in range(ex3d.n):
            cons = [(tuple(p), GE, F(0)) for p in points]
            cons.append((tuple(points[i]), GE, F(1)))
            lp = LinearProgram(tuple(F(0) for _ in range(ex3d.d)), tuple(cons))
            feasible = lp_solve(lp).status == OPTIMAL
            assert feasible == (i in polar)
        assert time.time() - start < 1.0

    _report(3, "EX3D: polar classes split out, residual survives, strict set oracle-confirmed", body)


def test_criterion_4_ex1000_countna(ex1000, countna):
    def body():
        start = time.time()
        assert backward_eliminate(ex1000).omega_star == frozenset()
        pa = backward_eliminate(countna)
        zero_class = frozenset(countna.index_of(i) for i in ("q1", "q2"))
        assert pa.omega_star == zero_class
        entries = one_step_1p_check(countna, pa)
        assert entries and entries[0][0] == 1
        assert lp_solve(build_polytope(countna)).status == OPTIMAL
        for i in sorted(zero_class):
            assert supporting_measure(countna, pa, i)[i] > 0
        assert time.time() - start < 1.0

    _report(4, "EX1000 empties out; CountNA keeps the zero-increment class with measures", body)


def test_criterion_5_oracle_master_equivalence(corpus, analyses):
    def body():
        start = time.time()
        for i, m in enumerate(corpus):
            assert analyses[i].omega_star == oracle_support(m), f"market {i}"
        elapsed = time.time() - start
        assert elapsed <= 60.0, f"took {elapsed:.1f}s"

    _report(5, f"fixpoint support == LP polytope support on {CORPUS_SIZE} random markets", body)


def test_criterion_6_class_ftap(corpus, analyses):
    def body():
        rng = random.Random(246810)
        for i, m in enumerate(corpus):
            pa = analyses[i]
            _agg, enlarged = universal_aggregator(m, pa)
            polar = m.all_indices - pa.omega_star
            # the universal aggregator theorem through the oracle: the
            # enlarged gain set is exactly the polar complement, and so is
            # the natural one: it is the complement of the martingale
            # support (Tucker's strict complementarity), which is omega_star
            gain, _h = oracle_arbitrage(m, enlarged)
            assert gain == polar, f"market {i}"
            assert oracle_arbitrage(m, pa.nodes)[0] == gain, f"market {i}"
            for k in range(5):
                cls = random_class(rng, m.n, f"c{k}")
                verdict = classify(m, pa, cls, "enlarged")
                per_set = []
                for c in cls.sets:
                    found = c <= gain
                    per_set.append(found)
                    expected = (not pa.omega_star) or c <= polar
                    assert found == expected, f"market {i} class {k}"
                assert verdict.arbitrage == any(per_set), f"market {i} class {k}"
                if not verdict.arbitrage:
                    q = class_measure(m, pa, cls)
                    assert q is not None
                    assert all(q.mass(c) > 0 for c in cls.sets)

    _report(6, "classify(enlarged) == oracle gain set per set; class measures charge every set", body)


def test_criterion_7_aggregator_contract(corpus, analyses):
    def body():
        for i, m in enumerate(corpus):
            pa = analyses[i]
            agg, enlarged = universal_aggregator(m, pa)
            v = value_process(m, agg)
            polar = m.all_indices - pa.omega_star
            assert all(x >= 0 for x in v[m.T]), f"market {i}"
            assert {j for j in range(m.n) if v[m.T][j] > 0} == polar, f"market {i}"
            assert check_predictable(agg, enlarged), f"market {i}"
            f = natural_nodes(m)
            splits_atom = any(
                len({position(agg, t, j, m.d) for j in atom}) > 1
                for t in range(1, m.T + 1)
                for atom in atoms_of(f[t - 1])
            )
            assert check_predictable(agg, f) == (not splits_atom), f"market {i}"

    _report(7, "aggregator gains exactly on the polar complement, enlarged-predictable", body)


def test_criterion_8_measure_exactness(corpus, analyses):
    def body():
        rng = random.Random(8642)
        checked = 0
        for i, m in enumerate(corpus):
            pa = analyses[i]
            if not pa.omega_star:
                continue
            f = natural_nodes(m)
            _agg, enlarged = universal_aggregator(m, pa)
            witness = full_support_measure(m, pa)
            emitted = [witness]
            anchor = rng.choice(sorted(pa.omega_star))
            emitted.append(supporting_measure(m, pa, anchor))
            cls = SignificantClass("c", (frozenset({anchor}), pa.omega_star))
            q = class_measure(m, pa, cls)
            assert q is not None
            emitted.append(q)
            emitted.append(mix(emitted[:2], [F(1, 3), F(2, 3)]))
            for q in emitted:
                assert check_martingale(m, q, f), f"market {i}"
                assert check_martingale(m, q, enlarged), f"market {i}"
            assert witness.support == pa.omega_star
            checked += 1
        assert checked > CORPUS_SIZE // 10

    _report(8, "every emitted measure is exactly martingale for both filtrations", body)


def test_criterion_9_feasibility_ladder(corpus, analyses):
    def body():
        rng = random.Random(97531)
        for i, m in enumerate(corpus):
            pa = analyses[i]
            feas = feasibility(m, pa)
            facet_values = set(feas.facets.values())
            assert len(facet_values) == 1, f"market {i}: facets disagree {feas.facets}"
            assert feas.feasible == facet_values.pop()
            no_1p = feas.ladder["no_1p"]
            no_mi = feas.ladder["no_model_independent"]
            cls = random_class(rng, m.n, "ladder")
            no_s = not classify(m, pa, cls, "enlarged").arbitrage
            assert not no_1p or no_s, f"market {i}: 1p ladder inverted"
            assert not no_s or no_mi, f"market {i}: MI ladder inverted"

    _report(9, "feasibility facets agree; no-1p => no-class-S => no-MI never inverts", body)


def test_criterion_10_extraction(corpus, analyses):
    def body():
        rng = random.Random(1928374)
        for i, m in enumerate(corpus):
            pa = analyses[i]
            measures = [random_measure(rng, m.n) for _ in range(3)]
            if pa.omega_star:
                measures.append(random_measure(rng, m.n, support=pa.omega_star))
            for p in measures:
                polar_mass = p.mass(m.all_indices - pa.omega_star)
                h = extract_p_arbitrage(m, pa, p)
                assert (h is None) == (polar_mass == 0), f"market {i}"
                dec = lebesgue_decompose(m, pa, p)
                assert (h is None) == (not dec.singular)
                recomposed = {
                    j: dec.continuous.get(j, F(0)) + dec.singular.get(j, F(0))
                    for j in p.support
                }
                assert recomposed == dict(p.weights), f"market {i}"
                if h is not None:
                    v = value_process(m, h)
                    assert all(v[m.T][j] >= 0 for j in p.support), f"market {i}"
                    gain = sum((p[j] for j in range(m.n) if v[m.T][j] > 0), F(0))
                    assert gain > 0, f"market {i}"
                    assert predictable_on(m, h, pa.nodes, p.support), f"market {i}"

    _report(
        10,
        "extraction none iff no polar mass; returned strategies beat P, "
        "naturally predictable P-a.s.; parts recompose",
        body,
    )
