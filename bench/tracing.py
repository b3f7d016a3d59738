"""Outside-in tracing of arbscan's layers for the traced benchmark run.

The program is not edited.  Each traced function is replaced by a wrapper in
every ``arbscan`` module namespace that holds it (its import sites), so calls
between modules and calls within a module are both seen.  A wrapper appends
one span per call (name, request, start, end, parent) to an in-memory list;
the list is written out only when the run ends.  Self time is a span's
duration minus the time its direct children cover; the program is
single-threaded, so children never overlap.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# (layer, function) pairs, each wrapped at every import site.  ``level_sets``
# is a ``Market`` method and is wrapped on the class.
TRACED = (
    ("market", "load_market"),
    ("market", "level_sets"),
    ("splitter", "backward_eliminate"),
    ("splitter", "split_level_set"),
    ("splitter", "universal_aggregator"),
    ("ratgeom", "lp_solve"),
    ("ratgeom", "maximal_separator"),
    ("ratgeom", "convex_combination_for_zero"),
    ("measures", "full_support_measure"),
    ("measures", "class_measure"),
    ("arbitrage", "classify"),
    ("arbitrage", "feasibility"),
    ("arbitrage", "extract_p_arbitrage"),
    ("oracle", "oracle_support"),
    ("oracle", "oracle_arbitrage"),
    ("cli", "build_report"),
)


class Tracer:
    """Span recorder plus the exact LP-input statistics of ``lp_solve``."""

    def __init__(self):
        self.spans: list[list] = []  # [name, request, start, end, parent]
        self._stack: list[int] = []
        self.request = ""
        self.paused = 0
        self.sites: dict[str, list[str]] = {}
        self._lp_calls: list[tuple] = []  # (LinearProgram, LpResult)
        self.sweeps = 0
        self._originals: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [name, self.request, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _after_lp(self, args, result) -> None:
        # kept whole and summarised by lp_stats(), so that hashing and bit
        # counting are not charged to the calling layer's self time
        self._lp_calls.append((args[0], result))

    def _after_eliminate(self, args, result) -> None:
        self.sweeps += result.rounds

    def install(self) -> None:
        """Wrap every traced function at each ``arbscan`` module that imports it.

        A traced name that no longer exists raises, so a renamed or moved
        function fails the traced run instead of reading zero.
        """
        modules = {k: v for k, v in sys.modules.items()
                   if k == "arbscan" or k.startswith("arbscan.")}
        after = {"ratgeom.lp_solve": self._after_lp,
                 "splitter.backward_eliminate": self._after_eliminate}
        for layer, fname in TRACED:
            name = f"{layer}.{fname}"
            home = modules[f"arbscan.{layer}"]
            if fname == "level_sets":
                owner = home.Market
                orig = owner.__dict__[fname]
                self._patch(owner, fname, self._wrap(name, orig))
                self.sites[name] = ["arbscan.market.Market"]
                continue
            orig = getattr(home, fname)
            wrapper = self._wrap(name, orig, after.get(name))
            sites = []
            for modname, mod in sorted(modules.items()):
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, attr, wrapper)
                        sites.append(f"{modname}.{attr}")
            self.sites[name] = sites

    def _patch(self, owner, attr: str, value) -> None:
        self._originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._originals):
            setattr(owner, attr, value)
        self._originals.clear()

    def clear(self) -> None:
        self.spans.clear()
        self._lp_calls.clear()
        self.sweeps = 0

    # -- aggregation ------------------------------------------------------

    def lp_stats(self) -> dict[str, float]:
        """Counts over the recorded ``lp_solve`` inputs and results.

        ``distinct`` counts distinct ``LinearProgram`` inputs (they are
        hashable), ``cells`` sums rows x variables, ``max_bits`` is the
        largest numerator or denominator bit length in any solution.
        """
        calls = len(self._lp_calls)
        distinct = len({lp for lp, _res in self._lp_calls})
        max_bits = 0
        for _lp, res in self._lp_calls:
            for x in res.solution or ():
                max_bits = max(max_bits, x.numerator.bit_length(), x.denominator.bit_length())
        return {
            "calls": calls,
            "distinct": distinct,
            "distinct_ratio": distinct / calls if calls else 0.0,
            "cells": sum(len(lp.constraints) * len(lp.objective) for lp, _res in self._lp_calls),
            "max_bits": max_bits,
            "infeasible": sum(1 for _lp, res in self._lp_calls if res.status == "infeasible"),
        }

    def write(self, path, spans) -> None:
        """Write spans as JSON lines: name, request, start, end, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"sites": self.sites}) + "\n")
            for name, req, start, end, parent in spans:
                fh.write(json.dumps([name, req, round(start, 7), round(end, 7), parent]) + "\n")


def layer_totals(spans, scale) -> dict[str, dict]:
    """Per span name: call count, inclusive seconds and self seconds.

    ``scale(request)`` is the factor that request's times are multiplied by
    (the runner's host-speed normalization).  Parents are list indices, so
    ``spans`` must be one uninterrupted recording.
    """
    child_time = [0.0] * len(spans)
    for _name, _req, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for k, (name, req, start, end, _parent) in enumerate(spans):
        f = scale(req)
        row = out[name]
        row["calls"] += 1
        row["s"] += (end - start) * f
        row["self_s"] += (end - start - child_time[k]) * f
    return dict(out)
