"""The benchmark's own tests.

    python3 -m pytest bench/test_bench.py -q

Two traced runs on one seed must record identical counts on every workload,
and the gates must reject reports that are wrong.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import gates
import gen

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from arbscan import SignificantClass, Strategy, Verdict, backward_eliminate, classify  # noqa: E402
from arbscan import load_market  # noqa: E402
from arbscan.cli import build_report  # noqa: E402

COUNT_FIELDS = ("calls", "distinct", "cells", "max_bits", "infeasible", "sweeps")


CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stderr
    return result


def _counts(result: dict) -> dict:
    return {
        name: m["value"]
        for name, m in result["metrics"].items()
        if name.rsplit(".", 1)[-1] in COUNT_FIELDS
    }


@pytest.mark.parametrize("workload", [w["name"] for w in CONTRACT["workloads"]])
def test_traced_counts_repeat_exactly(workload):
    first = _run(workload, 11, 1)
    declared = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
    assert {k: m["unit"] for k, m in first["metrics"].items()} == declared
    counts = _counts(first)
    assert all(counts[f"ratgeom.lp_solve.{f}"] > 0 for f in ("calls", "cells"))
    assert _counts(_run(workload, 11, 1)) == counts


def test_end_to_end_reports_every_declared_metric():
    result = _run("corpus", 11, 0)
    declared = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def _polar_market():
    """The first corpus market with both survivors and polar scenarios."""
    for doc in gen.corpus_markets(3, 200):
        report, _ = build_report(load_market(json.dumps(doc)))
        if report["omega_star"] and report["polar_complement"]:
            return doc, report
    raise AssertionError("no corpus market with a nontrivial polar complement")


def test_gates_pass_the_program_reports():
    for doc in gen.corpus_markets(5, 40):
        report, _ = build_report(load_market(json.dumps(doc)))
        assert gates.analyze_problems(gates.Book(doc), report) == []


def test_gates_reject_wrong_reports():
    doc, report = _polar_market()
    book = gates.Book(doc)

    moved = copy.deepcopy(report)
    moved["omega_star"] = sorted(moved["omega_star"] + moved["polar_complement"][:1])
    moved["polar_complement"] = moved["polar_complement"][1:]
    assert gates.analyze_problems(book, moved)

    skewed = copy.deepcopy(report)
    weights = skewed["measures"]["full_support"]
    first = min(weights)
    weights[first] = str(2 * Fraction(weights[first]))
    assert gates.analyze_problems(book, skewed)

    idle = copy.deepcopy(report)
    idle["aggregator"]["positions"] = {}
    assert gates.analyze_problems(book, idle)

    assert gates.oracle_problems(book, report["omega_star"][1:], report["omega_star"])


def test_gates_reject_a_losing_natural_witness():
    doc, _report = _polar_market()
    m = load_market(json.dumps(doc))
    singletons = SignificantClass("1p", tuple(frozenset({i}) for i in range(m.n)))
    verdict = classify(m, backward_eliminate(m), singletons, "natural")
    assert verdict.arbitrage
    book = gates.Book(doc)
    assert gates.natural_problems(book, singletons.sets, verdict) == []
    flipped = Strategy(tuple(
        {atom: tuple(-x for x in vec) for atom, vec in pos.items()}
        for pos in verdict.witness.positions
    ))
    wrong = Verdict(verdict.kind, witness=flipped, witness_class=verdict.witness_class)
    assert gates.natural_problems(book, singletons.sets, wrong)
