"""The benchmark's correctness gates, run in tier 1.

``bench/run.py`` reports ``correct: false`` when ``bench/gates.py`` finds a
problem with a report or a natural verdict, and the gates read a strategy's
atom-keyed positions.  This test loads that file, gates the program's own
answers on one market of each workload's kind that has polar scenarios, and
builds a ``Strategy`` from atom-keyed dicts as the benchmark's own tests do,
so a change to the strategy format or to an answer that the benchmark would
refuse fails here first.
"""

import importlib.util
import json
import random
from pathlib import Path

import pytest

from arbscan import SignificantClass, Strategy, Verdict, backward_eliminate, classify
from arbscan import load_market
from arbscan.cli import build_report

from conftest import market_doc, random_market, seeded_trinomial_market, seeded_tree_market

GATES = Path(__file__).resolve().parents[1] / "bench" / "gates.py"


def _gates():
    spec = importlib.util.spec_from_file_location("bench_gates", GATES)
    gates = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gates)
    return gates


def _first_with_polar_scenarios(draw):
    """The first market ``draw()`` yields with survivors and polar scenarios."""
    while True:
        m = draw()
        star = backward_eliminate(m).omega_star
        if star and star != m.all_indices:
            return m


def _markets():
    corpus, wide, deep = random.Random(931), random.Random(931), random.Random(931)
    return [
        _first_with_polar_scenarios(lambda: random_market(corpus)),
        _first_with_polar_scenarios(lambda: seeded_tree_market(wide, 16, 1, 4)),
        _first_with_polar_scenarios(lambda: seeded_trinomial_market(deep, horizon=3, n_arb=1)),
    ]


@pytest.mark.parametrize("market", _markets(), ids=["corpus", "wide", "trinomial"])
def test_the_benchmark_gates_pass_the_program_answers(market):
    gates = _gates()
    doc = market_doc(market)
    book = gates.Book(doc)
    m = load_market(json.dumps(doc))  # as the benchmark loads it
    report, _ = build_report(m)
    assert gates.analyze_problems(book, report) == []

    pa = backward_eliminate(m)
    witnesses = 0
    for cls in (
        SignificantClass("MI", (m.all_indices,)),
        SignificantClass("1p", tuple(frozenset({i}) for i in range(m.n))),
    ):
        verdict = classify(m, pa, cls, "natural")
        assert gates.natural_problems(book, cls.sets, verdict) == []
        if verdict.witness is None:
            continue
        witnesses += 1
        # the benchmark's own tests build strategies from atom-keyed dicts
        rebuilt = Strategy(tuple(
            {atom: vec for atom, vec in pos.items()} for pos in verdict.witness.positions
        ))
        assert rebuilt == verdict.witness
        same = Verdict(verdict.kind, witness=rebuilt, witness_class=verdict.witness_class)
        assert gates.natural_problems(book, cls.sets, same) == []
        flipped = Strategy(tuple(
            {atom: tuple(-x for x in vec) for atom, vec in pos.items()}
            for pos in verdict.witness.positions
        ))
        wrong = Verdict(verdict.kind, witness=flipped, witness_class=verdict.witness_class)
        assert gates.natural_problems(book, cls.sets, wrong)
    # the sweep's first eliminations are naturally predictable, so 1p has a witness
    assert witnesses >= 1
