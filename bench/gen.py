"""Seeded market generators for the benchmark workloads.

These are the benchmark's own copies, so that edits under ``tests/`` cannot
shift a workload.  Every generator returns market documents (plain dicts in
the market JSON format); the program only ever sees their JSON text.  The
same seed always yields the same documents: every random stream is a
``random.Random`` seeded with a string, which Python hashes deterministically.
"""

from __future__ import annotations

import random
from itertools import product


def _rng(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def tree_market(rng: random.Random, b: int, horizon: int, d: int) -> dict:
    """Complete tree ``Tree(b, T, d)`` with start prices 10.

    Each child increment is a uniform integer vector in [-3, 3]^d.  With
    probability 0.85 the last child's increment is minus the sum of its
    siblings', so 0 is the mean; otherwise it is a strictly positive vector
    in [1, 3]^d, which can create arbitrage at that node.
    """
    paths = [[(10,) * d]]
    for _t in range(horizon):
        nxt = []
        for path in paths:
            incs = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(b - 1)]
            if rng.random() < 0.15:
                incs.append(tuple(rng.randint(1, 3) for _ in range(d)))
            else:
                incs.append(tuple(-sum(col) for col in zip(*incs)))
            last = path[-1]
            for inc in incs:
                nxt.append(path + [tuple(a + x for a, x in zip(last, inc))])
        paths = nxt
    return {
        "d": d,
        "T": horizon,
        "scenarios": [
            {"id": f"w{i}", "prices": [list(row) for row in path]}
            for i, path in enumerate(paths)
        ],
    }


_STEPS = {d: [tuple(s) for s in product((-1, 0, 1), repeat=d)] for d in (1, 2, 3)}


def corpus_market(rng: random.Random) -> dict:
    """Scenario tree of lattice random walks with integer prices in [0, 20].

    Same construction as the acceptance corpus: n <= 10, T <= 3, d <= 3,
    each node splits its scenarios into up to three children that take
    distinct steps in {-1, 0, 1}^d.
    """
    d = rng.randint(1, 3)
    horizon = rng.randint(1, 3)
    n = rng.randint(2, 10)
    start = tuple(rng.randint(5, 15) for _ in range(d))

    groups = [(list(range(n)), [start])]
    for _t in range(horizon):
        nxt = []
        for members, path in groups:
            k = rng.randint(1, min(3, len(members)))
            shuffled = members[:]
            rng.shuffle(shuffled)
            cuts = sorted(rng.sample(range(1, len(members)), k - 1)) if k > 1 else []
            parts = []
            lo = 0
            for cut in cuts + [len(members)]:
                parts.append(sorted(shuffled[lo:cut]))
                lo = cut
            steps = rng.sample(_STEPS[d], k)
            last = path[-1]
            for part, step in zip(parts, steps):
                row = tuple(min(20, max(0, a + s)) for a, s in zip(last, step))
                nxt.append((part, path + [row]))
        groups = nxt

    paths: dict[int, list] = {}
    for members, path in groups:
        for i in members:
            paths[i] = path
    return {
        "d": d,
        "T": horizon,
        "scenarios": [
            {"id": f"s{i}", "prices": [list(row) for row in paths[i]]} for i in range(n)
        ],
    }


def wide_markets(seed: int, count: int, b: int, d: int) -> list[dict]:
    """One-period ``Tree(b, 1, d)`` markets: few dense LPs with about b columns."""
    return [tree_market(_rng("wide", seed, k), b, 1, d) for k in range(count)]


def trinomial_market(rng: random.Random, horizon: int, n_arb: int) -> dict:
    """One-asset trinomial tree ``Tree(3, T, 1)`` with exactly ``n_arb`` arbitrage nodes.

    Ordinary nodes take distinct increments (x, y, -x-y) with x, y uniform
    in [-3, 3], so 0 is the mean.  The arbitrage nodes are drawn among the
    last internal level and take (0, a, b) with distinct a, b in [1, 3]: the two
    rising children are polar and the flat one survives.  Distinct increments
    keep every node its own level set, and the flat child stops elimination
    from cascading towards the root, so |omega_star| is n - 2 * n_arb for
    every seed; with free placement it swung from a third of n to nearly all
    of n between seeds, and the analysis time with it.
    """
    paths = [[(10,)]]
    for t in range(horizon):
        arb = set(rng.sample(range(len(paths)), n_arb)) if t == horizon - 1 else set()
        nxt = []
        for k, path in enumerate(paths):
            if k in arb:
                incs = [0] + rng.sample((1, 2, 3), 2)
            else:
                incs = [0, 0, 0]
                while len(set(incs)) < 3:
                    x, y = rng.randint(-3, 3), rng.randint(-3, 3)
                    incs = [x, y, -x - y]
            price = path[-1][0]
            nxt.extend(path + [(price + inc,)] for inc in incs)
        paths = nxt
    return {
        "d": 1,
        "T": horizon,
        "scenarios": [
            {"id": f"w{i}", "prices": [list(row) for row in path]}
            for i, path in enumerate(paths)
        ],
    }


def deep_markets(seed: int, count: int, horizon: int, arb_share: float = 0.05) -> list[dict]:
    """Trinomial trees with arbitrage at ``arb_share`` of the internal nodes."""
    n_arb = round(arb_share * ((3**horizon - 1) // 2))
    return [
        trinomial_market(_rng("deep", seed, horizon, k), horizon, n_arb) for k in range(count)
    ]


def corpus_markets(seed: int, count: int) -> list[dict]:
    """The acceptance-corpus family: many tiny markets."""
    rng = _rng("corpus", seed)
    return [corpus_market(rng) for _ in range(count)]
