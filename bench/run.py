#!/usr/bin/env python3
"""arbscan benchmark runner.

    python3 bench/run.py --workload {wide,deep,corpus} --seed N --seconds S --trace {0,1}

Run it from the repository root; it imports arbscan from ``src/``.  The
runner generates the workload's markets from the seed, hands them to arbscan
only as market JSON text through ``load_market``, and times the public entry
points in one process with no threads: a closed loop with one client that
runs each market's operations back to back until ``--seconds`` have passed.
Every answer goes through the gates of ``gates.py``; a failed gate or an
exception is a failed operation, and no market is dropped or re-seeded.

With ``--trace 0`` the last line of stdout is the end-to-end result; with
``--trace 1`` it is the per-layer result of the traced run (``tracing.py``),
whose spans go to ``.bench_out/``.  Earlier lines are for people: the
workload fingerprint, the tail percentile and the raw wall-clock figures.

Times are host-normalized seconds.  A shared host's speed can drift by
half within minutes, so between timed operations the runner times a fixed
calibration task, and each operation's wall time is scaled by the reference
calibration time over the mean calibration time near it (see ``Clock``).
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import importlib
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import gates
import gen
from tracing import TRACED, Tracer, layer_totals

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPS = 3
CAL_EVERY_S = 0.25
CAL_WINDOW_S = 2.0
# Normalized seconds are wall seconds on a host that runs the calibration
# task in exactly this time, about its usual time on a shared 2-vCPU Xeon VM
# under Python 3.11 (5 to 9 ms as the host drifts).
CAL_REF_S = 0.0080

ALL_OPS = ("analyze", "verify", "natural")


@dataclass(frozen=True)
class Workload:
    items: Callable[[int], list[tuple[dict, tuple[str, ...]]]]
    group: int  # items per group; a run ends only on a group boundary
    trace_groups: int  # groups in one traced pass, whose counts must repeat exactly


def _wide(seed: int):
    # the oracle's time varies by a quarter between markets, so each fully
    # analysed market is followed by two verified-only ones
    docs = gen.wide_markets(seed, 96, 16, 4)
    return [(doc, ALL_OPS if k % 3 == 0 else ("verify",)) for k, doc in enumerate(docs)]


def _deep(seed: int):
    # the oracle does not finish on deep trees (65 s at n=243), so verify and
    # the natural checks run on many small trees of the same family instead.
    # The small trees carry no arbitrage node: with one, the 1p check stops
    # at the first polar scenario, whose random position made its median
    # jump between 2, 5 and 8 LPs from seed to seed.
    items = []
    small = gen.deep_markets(seed, 16 * 16, 2, arb_share=0.0)
    for k, big in enumerate(gen.deep_markets(seed, 16, 5)):
        items.append((big, ("analyze",)))
        items += [(doc, ("verify", "natural")) for doc in small[16 * k : 16 * (k + 1)]]
    return items


def _corpus(seed: int):
    return [(doc, ALL_OPS) for doc in gen.corpus_markets(seed, 2000)]


WORKLOADS = {
    "wide": Workload(_wide, group=3, trace_groups=2),
    "deep": Workload(_deep, group=17, trace_groups=1),
    "corpus": Workload(_corpus, group=1, trace_groups=500),
}


def _calibration_task() -> Fraction:
    # the operations arbscan spends its time on: Fraction arithmetic, tuple
    # hashing and dict updates
    acc = Fraction(0)
    seen: dict = {}
    for k in range(1, 900):
        acc += Fraction(k, k + 7) * Fraction(3, 5)
        seen[(k % 13, acc.denominator % 7)] = acc
    return acc


class Clock:
    """Wall-clock timing of operations plus the calibrations around them.

    An operation's factor is ``CAL_REF_S`` over the mean calibration time
    within ``CAL_WINDOW_S`` of it: one calibration is a few milliseconds
    and catches the host mid-flicker, a few seconds of them track its phase.
    Factors use calibrations from after the operation too, so read them
    once the run has ended.
    """

    def __init__(self):
        self.cal_at: list[float] = []
        self.cals: list[float] = []
        self.records: list[tuple[float, float]] = []  # (start, wall seconds)
        self._last = float("-inf")
        self.calibrate()

    def calibrate(self) -> None:
        t0 = time.perf_counter()
        _calibration_task()
        t1 = time.perf_counter()
        self.cal_at.append((t0 + t1) / 2)
        self.cals.append(t1 - t0)
        self._last = t1

    def timed(self, fn):
        """Run ``fn()`` once; return its value and the record id of its time."""
        if time.perf_counter() - self._last >= CAL_EVERY_S:
            self.calibrate()
        t0 = time.perf_counter()
        value = fn()
        self.records.append((t0, time.perf_counter() - t0))
        return value, len(self.records) - 1

    def factor(self, rec: int) -> float:
        start, wall = self.records[rec]
        lo = bisect.bisect_left(self.cal_at, start - CAL_WINDOW_S)
        lo = min(lo, bisect.bisect_right(self.cal_at, start) - 1)
        hi = bisect.bisect_right(self.cal_at, start + wall + CAL_WINDOW_S)
        return CAL_REF_S / statistics.fmean(self.cals[lo:hi])

    def wall(self, rec: int) -> float:
        return self.records[rec][1]

    def seconds(self, rec: int) -> float:
        return self.records[rec][1] * self.factor(rec)


class Run:
    """One benchmark process: the markets, the clock, the gates and the counters."""

    def __init__(self, workload: Workload, seed: int, tracer: Tracer | None):
        self.workload = workload
        self.seed = seed
        self.tracer = tracer
        self.clock = Clock()
        self.attempted = 0
        self.failed = 0
        self.samples: dict[str, list[int]] = {op: [] for op in ALL_OPS}
        self._item: dict[str, object] = {}  # the current market's book and reference
        self.star_sizes: dict[int, int] = {}

    # -- set-up -----------------------------------------------------------

    def import_arbscan(self) -> None:
        for name in [k for k in sys.modules if k == "arbscan" or k.startswith("arbscan.")]:
            del sys.modules[name]
        importlib.import_module("arbscan")
        importlib.import_module("arbscan.cli")
        mods = sys.modules
        self.market, self.splitter = mods["arbscan.market"], mods["arbscan.splitter"]
        self.arbitrage, self.oracle = mods["arbscan.arbitrage"], mods["arbscan.oracle"]
        self.cli = mods["arbscan.cli"]

    def load(self) -> None:
        spec = self.workload.items(self.seed)
        self.docs = [doc for doc, _ops in spec]
        self.ops = [ops for _doc, ops in spec]
        self.texts = [json.dumps(doc) for doc in self.docs]
        self.markets = [self.market.load_market(text) for text in self.texts]

    def setup(self) -> None:
        self.import_arbscan()
        self.load()

    # -- measured operations ----------------------------------------------

    def timed(self, fn):
        if self.tracer is not None:
            self.tracer.request = len(self.clock.records)
        return self.clock.timed(fn)

    def _untraced(self, fn):
        if self.tracer is None:
            return fn()
        self.tracer.paused += 1
        try:
            return fn()
        finally:
            self.tracer.paused -= 1

    def book(self, idx: int) -> gates.Book:
        if "book" not in self._item:
            self._item["book"] = gates.Book(self.docs[idx])
        return self._item["book"]

    def reference(self, idx: int):
        """The geometric analysis that ``verify`` and ``natural`` compare against."""
        if "ref" not in self._item:
            pa = self._untraced(lambda: self.splitter.backward_eliminate(self.markets[idx]))
            self._item["ref"] = pa
            self.star_sizes[idx] = len(pa.omega_star)
        return self._item["ref"]

    def op_analyze(self, idx: int):
        m = self.markets[idx]

        def call():
            report, _agrees = self.cli.build_report(m)
            return report, json.dumps(report, indent=2)

        (report, _text), rec = self.timed(call)
        self.star_sizes[idx] = len(report["omega_star"])
        return self._untraced(lambda: gates.analyze_problems(self.book(idx), report)), rec

    def op_verify(self, idx: int):
        m = self.markets[idx]
        star = self.reference(idx).omega_star
        support, rec = self.timed(lambda: self.oracle.oracle_support(m))
        return gates.oracle_problems(self.book(idx), m.ids(support), m.ids(star)), rec

    def op_natural(self, idx: int):
        m = self.markets[idx]
        pa = self.reference(idx)
        sc = self.market.SignificantClass
        classes = (
            sc("MI", (m.all_indices,)),
            sc("1p", tuple(frozenset({i}) for i in range(m.n))),
        )
        verdicts, rec = self.timed(
            lambda: [self.arbitrage.classify(m, pa, c, "natural") for c in classes]
        )
        problems = self._untraced(lambda: [
            p for c, v in zip(classes, verdicts)
            for p in gates.natural_problems(self.book(idx), c.sets, v)
        ])
        return problems, rec

    def run_item(self, idx: int) -> list[int]:
        """All operations of one market; returns the time records it made."""
        recs = []
        self._item = {}
        for op in self.ops[idx]:
            self.attempted += 1
            try:
                problems, rec = getattr(self, f"op_{op}")(idx)
            except Exception as exc:  # a crash is a failed operation; the run goes on
                problems, rec = [f"{type(exc).__name__}: {exc}"], None
            if rec is not None:
                recs.append(rec)
                self.samples[op].append(rec)
            if problems:
                self.failed += 1
                print(f"FAIL {op} market {idx}: {'; '.join(problems[:3])}", file=sys.stderr)
        return recs

    def run_pass(self, count: int) -> list[int]:
        """One pass over the first ``count`` items; returns its time records."""
        return [r for idx in range(count) for r in self.run_item(idx)]

    # -- reporting --------------------------------------------------------

    def fingerprint(self) -> str:
        digest = hashlib.sha256("\n".join(self.texts).encode()).hexdigest()[:16]
        shapes = sorted({(m.n, m.d, m.T) for m in self.markets})
        shape = (
            f"n={shapes[0][0]} d={shapes[0][1]} T={shapes[0][2]}"
            if len(shapes) == 1
            else f"{len(shapes)} shapes, n={min(s[0] for s in shapes)}..{max(s[0] for s in shapes)}"
        )
        stars = [self.star_sizes[k] for k in sorted(self.star_sizes)]
        return (
            f"fingerprint: markets={len(self.markets)} {shape} "
            f"|omega_star| over {len(stars)} analysed: sum={sum(stars)} "
            f"min={min(stars, default=0)} max={max(stars, default=0)} json_sha256={digest}"
        )


def tail(values: list[float]) -> tuple[float, str]:
    """The highest of p99.9, p99 and p90 with at least ten samples beyond it.

    A fixed ladder keeps runs with similar sample counts on one percentile;
    with too few samples for p90 the median stands in.
    """
    ordered = sorted(values)
    n = len(ordered)
    for pct in (99.9, 99, 90):
        k = int(n * pct / 100)
        if n - 1 - k >= 10:
            return ordered[k], f"p{pct:g} of {n} samples, {n - 1 - k} beyond"
    return statistics.median(ordered), f"p50 of {n} samples (too few for p90)"


def freeze_workload() -> None:
    """Keep the collector from rescanning the loaded markets on every full pass.

    A CLI run holds one market; the benchmark holds thousands, which would
    otherwise make garbage collection, not arbscan, grow with the workload.
    """
    gc.collect()
    gc.freeze()


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(name: str, seed: int, seconds: float) -> dict:
    workload = WORKLOADS[name]
    run = Run(workload, seed, None)
    setups = []
    for _rep in range(SETUP_REPS):
        run.clock.calibrate()
        _none, rec = run.clock.timed(run.setup)
        run.clock.calibrate()
        setups.append(rec)
    freeze_workload()

    deadline = time.perf_counter() + seconds
    done_recs = []
    needed = {op for ops in run.ops for op in ops}
    k = 0
    while (k % workload.group or time.perf_counter() < deadline
           or any(not run.samples[op] for op in needed)):
        done_recs += run.run_item(k % len(run.markets))
        k += 1
    run.clock.calibrate()

    def norm(recs):
        return [run.clock.seconds(r) for r in recs]

    def raw(recs):
        return [run.clock.wall(r) for r in recs]

    analyze = norm(run.samples["analyze"])
    tail_value, tail_note = tail(analyze)
    metrics = {
        "setup_s": _metric(statistics.median(norm(setups)), "s"),
        "analyze_p50_s": _metric(statistics.median(analyze), "s"),
        "analyze_tail_s": _metric(tail_value, "s"),
        "verify_p50_s": _metric(statistics.median(norm(run.samples["verify"])), "s"),
        "check_natural_p50_s": _metric(statistics.median(norm(run.samples["natural"])), "s"),
        "markets_per_s": _metric(k / sum(norm(done_recs)), "1/s"),
        "peak_rss_mib": _metric(peak_rss_mib(), "MiB"),
    }
    print(run.fingerprint())
    print(f"analyze_tail_s is the {tail_note}")
    for key, op in (("setup", None), ("analyze", "analyze"), ("verify", "verify"),
                    ("natural", "natural")):
        recs = setups if op is None else run.samples[op]
        print(f"raw wall p50 {key}: {statistics.median(raw(recs)):.6f} s over {len(recs)} samples")
    print(f"calibration p50: {statistics.median(run.clock.cals):.6f} s "
          f"(reference {CAL_REF_S} s) over {len(run.clock.cals)} samples")
    return {"run": run, "metrics": metrics}


# Per-layer metrics of the traced run: (span, field) pairs besides the LP counts.
LAYER_FIELDS = {
    "ratgeom.maximal_separator": ("calls", "s"),
    "ratgeom.convex_combination_for_zero": ("calls", "s"),
    "splitter.backward_eliminate": ("calls", "s"),
    "splitter.split_level_set": ("calls", "s"),
    "splitter.universal_aggregator": ("calls", "s"),
    "measures.full_support_measure": ("calls", "s", "self_s"),
    "measures.class_measure": ("calls", "s", "self_s"),
    "market.level_sets": ("calls", "s"),
    "market.load_market": ("calls", "s"),
    "arbitrage.classify": ("calls", "s"),
    "arbitrage.feasibility": ("calls", "s"),
    "arbitrage.extract_p_arbitrage": ("calls", "s"),
    "oracle.oracle_support": ("calls", "s"),
    "oracle.oracle_arbitrage": ("calls", "s"),
    "cli.build_report": ("calls", "s", "self_s"),
}
LP_FIELDS = ("calls", "distinct", "distinct_ratio", "cells", "max_bits", "infeasible")
UNITS = {"calls": "count", "s": "s", "self_s": "s", "distinct": "count",
         "distinct_ratio": "ratio", "cells": "count", "max_bits": "bits", "infeasible": "count"}


def traced(name: str, seed: int, seconds: float) -> dict:
    """A warm-up pass, then traced and untraced passes over the same items, alternating.

    Counts come from the first traced pass (set-up loads included) and must
    repeat exactly; times are medians over the traced passes; the overhead is
    the median traced pass over the median untraced pass, minus one.
    """
    workload = WORKLOADS[name]
    tracer = Tracer()
    run = Run(workload, seed, tracer)
    deadline = time.perf_counter() + seconds
    run.import_arbscan()
    tracer.install()
    tracer.request = len(run.clock.records)
    run.clock.timed(run.load)
    setup_spans = list(tracer.spans)
    tracer.clear()
    freeze_workload()

    count = workload.group * workload.trace_groups
    tracer.paused += 1
    run.run_pass(count)  # warm-up, so first-touch costs land in no compared pass
    tracer.paused -= 1

    passes, untraced = [], []
    while not passes or time.perf_counter() < deadline:
        recs = run.run_pass(count)
        passes.append({"recs": recs, "spans": list(tracer.spans),
                       "lp": tracer.lp_stats(), "sweeps": tracer.sweeps})
        tracer.clear()
        tracer.paused += 1
        untraced.append(run.run_pass(count))
        tracer.paused -= 1
    run.clock.calibrate()
    tracer.uninstall()

    scale = run.clock.factor
    setup_totals = layer_totals(setup_spans, scale)
    for p in passes:
        p["s"] = sum(run.clock.seconds(r) for r in p["recs"])
        p["totals"] = layer_totals(p["spans"], scale)
    untraced_s = statistics.median(sum(run.clock.seconds(r) for r in u) for u in untraced)

    first = passes[0]
    counts = {k: v["calls"] for k, v in first["totals"].items()}
    for k, v in setup_totals.items():
        counts[k] = counts.get(k, 0) + v["calls"]

    def seconds_of(span: str, field: str) -> float:
        base = setup_totals.get(span, {}).get(field, 0.0)
        return base + statistics.median(p["totals"].get(span, {}).get(field, 0.0) for p in passes)

    metrics = {}
    for field in LP_FIELDS:
        metrics[f"ratgeom.lp_solve.{field}"] = _metric(first["lp"][field], UNITS[field])
    metrics["ratgeom.lp_solve.self_s"] = _metric(seconds_of("ratgeom.lp_solve", "self_s"), "s")
    for span, fields in LAYER_FIELDS.items():
        for field in fields:
            value = counts.get(span, 0) if field == "calls" else seconds_of(span, field)
            metrics[f"{span}.{field}"] = _metric(value, UNITS[field])
    metrics["splitter.sweeps"] = _metric(first["sweeps"], "count")
    overhead = statistics.median(p["s"] for p in passes) / untraced_s - 1
    metrics["trace.overhead"] = _metric(overhead, "ratio")

    # tripwire: every traced layer must have been called on every workload
    silent = [f"{layer}.{fn}" for layer, fn in TRACED if counts.get(f"{layer}.{fn}", 0) < 1]
    if first["sweeps"] < 1:
        silent.append("splitter.sweeps")
    for span in silent:
        print(f"TRIPWIRE {span}: no calls recorded on workload {name!r}; "
              f"was it moved or renamed?", file=sys.stderr)

    offset = len(setup_spans)
    spans = setup_spans + [
        [name_, req, start, end, parent + offset if parent >= 0 else -1]
        for name_, req, start, end, parent in first["spans"]
    ]
    path = OUT / f"spans-{name}-{seed}.jsonl"
    tracer.write(path, spans)
    print(run.fingerprint())
    print(f"{len(passes)} traced and {len(untraced)} untraced passes of {count} items: "
          f"p50 {statistics.median(p['s'] for p in passes):.4f} s traced, {untraced_s:.4f} s untraced")
    print(f"import sites: {json.dumps(tracer.sites)}")
    print(f"spans: {len(spans)} written to {path.relative_to(ROOT)}")
    return {"run": run, "metrics": metrics, "tripwire": not silent}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "arbscan" / "__init__.py").is_file():
        print(f"error: no arbscan sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.trace:
        result = traced(args.workload, args.seed, args.seconds)
    else:
        result = end_to_end(args.workload, args.seed, args.seconds)
    run = result["run"]
    print(f"fail_rate: {run.failed}/{run.attempted} operations")
    correct = run.failed == 0 and result.get("tripwire", True)
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
