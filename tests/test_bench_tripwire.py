"""The benchmark's tripwire, run in tier 1.

``bench/run.py --trace 1`` reports ``correct: false`` when a function named in
``bench/tracing.py``'s ``TRACED`` records no call on a workload, or when no
elimination sweep ran.  This test reads ``TRACED`` from that file, runs the
benchmark's operations on one market of each workload's kind, and asks the
same of every market, so a change that moves, renames or stops calling a
traced function fails here first.
"""

import importlib.util
import json
import random
from pathlib import Path

import pytest

from conftest import (
    count_calls,
    market_doc,
    random_market,
    seeded_trinomial_market,
    seeded_tree_market,
)

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _traced() -> tuple:
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TRACED


def _mixed_corpus_market():
    """The first seeded corpus market with both survivors and polar scenarios.

    The tripwire counts calls over a whole workload, and every workload holds
    such markets; one without survivors asks no measure LP at all.
    """
    from arbscan.splitter import backward_eliminate

    rng = random.Random(931)
    while True:
        m = random_market(rng)
        star = backward_eliminate(m).omega_star
        if star and star != m.all_indices:
            return m


@pytest.mark.parametrize(
    "market",
    [
        _mixed_corpus_market(),
        seeded_tree_market(random.Random(931), 16, 1, 4),
        seeded_trinomial_market(random.Random(931), horizon=3, n_arb=1),
    ],
    ids=["corpus", "wide", "trinomial"],
)
def test_every_traced_function_runs_on_each_workload_kind(monkeypatch, market):
    from arbscan import arbitrage, cli, oracle
    from arbscan import market as market_module
    from arbscan import splitter

    calls = {}
    for layer, name in _traced():
        if name == "level_sets":  # a Market method, wrapped on the class
            seen = calls[f"{layer}.{name}"] = []
            original = market_module.Market.level_sets

            def counted(*args, _seen=seen, _original=original, **kwargs):
                _seen.append(args)
                return _original(*args, **kwargs)

            monkeypatch.setattr(market_module.Market, "level_sets", counted)
        else:
            calls[f"{layer}.{name}"] = count_calls(monkeypatch, layer, name)

    # the benchmark's operations: load, analyze, verify and the natural checks
    m = market_module.load_market(json.dumps(market_doc(market)))
    cli.build_report(m)
    oracle.oracle_support(m)
    pa = splitter.backward_eliminate(m)
    for cls in (
        market_module.SignificantClass("MI", (m.all_indices,)),
        market_module.SignificantClass("1p", tuple(frozenset({i}) for i in range(m.n))),
    ):
        arbitrage.classify(m, pa, cls, "natural")

    assert [name for name, seen in calls.items() if not seen] == []
    assert pa.rounds >= 1
