"""Shared fixtures: benchmark markets, a random scenario-tree corpus, tree families.

Also the reference groupings the program's node ids are checked against:
``group_by`` and ``refine``, the join of two partitions atom by atom;
``price_children``, a level set's children regrouped from price rows; and
``arbitrage_literal``, the per-set strategy search the oracle is checked
against, with its own (period, atom, asset) column layout.

Every hypothesis test runs under one profile: examples are derived from the
test itself (``derandomize``), so two runs of one commit draw the same ones,
no example database is kept, and hypothesis's caches go to a temporary
directory removed at exit, so a test run writes nothing into the checkout.
"""

from __future__ import annotations

import random
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import assume, settings, strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from arbscan.market import (
    Atom,
    DiscreteMeasure,
    Market,
    Scenario,
    SignificantClass,
    Strategy,
    atoms_of,
    load_market,
)
from arbscan.ratgeom import GE, INFEASIBLE, OPTIMAL, LinearProgram, lp_solve

_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="arbscan-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)
settings.register_profile("arbscan", database=None, derandomize=True)
settings.load_profile("arbscan")

SVU_DOC = {
    "d": 1,
    "T": 2,
    "scenarios": [
        {"id": "w1", "prices": [[7], [8], [9]]},
        {"id": "w2", "prices": [[7], [8], [6]]},
        {"id": "w3", "prices": [[7], [3], [5]]},
        {"id": "w4", "prices": [[7], [3], [4]]},
    ],
    "classes": {"branch": [["w1", "w2"]]},
    "probabilities": {
        "U": {"w1": "1/4", "w2": "1/4", "w3": "1/4", "w4": "1/4"},
    },
}

MULTI_DOC = {
    "d": 2,
    "T": 2,
    "scenarios": [
        {"id": "A1", "prices": [[2, 2], [3, 7], [3, 7]]},
        {"id": "A2", "prices": [[2, 2], [2, 2], [5, 3]]},
        {"id": "A3", "prices": [[2, 2], [2, 2], [1, 1]]},
        {"id": "A4", "prices": [[2, 2], [1, 1], [1, 1]]},
    ],
    "classes": {"openish": [["A1", "A2"]]},
}

# two scenarios per class of the three-asset single-period example
EX3D_DOC = {
    "d": 3,
    "T": 1,
    "scenarios": [
        {"id": "irr2", "prices": [[2, 2, 2], [1, 2, 4]]},
        {"id": "irr5", "prices": [[2, 2, 2], [1, 2, 7]]},
        {"id": "qlo16", "prices": [[2, 2, 2], [3, "17/16", 2]]},
        {"id": "qlo9", "prices": [[2, 2, 2], [3, "10/9", 2]]},
        {"id": "qge916", "prices": [[2, 2, 2], [2, "25/16", 2]]},
        {"id": "qge4", "prices": [[2, 2, 2], [2, 5, 2]]},
    ],
    "classes": {"irrationals": [["irr2", "irr5"]]},
    "probabilities": {
        "P_I": {"irr2": "1/2", "irr5": "1/2"},
    },
}

# two-asset single-period market with no martingale measure at all
EX1000_DOC = {
    "d": 2,
    "T": 1,
    "scenarios": [
        {"id": "i1", "prices": [[2, 2], [3, 5]]},
        {"id": "i2", "prices": [[2, 2], [3, 8]]},
        {"id": "z0", "prices": [[2, 2], [2, 1]]},
        {"id": "q1", "prices": [[2, 2], [2, "3/2"]]},
        {"id": "q2", "prices": [[2, 2], [2, "7/4"]]},
    ],
}

# one-step gain on half the scenarios, zero increment on the rest
COUNTNA_DOC = {
    "d": 1,
    "T": 1,
    "scenarios": [
        {"id": "r1", "prices": [[2], [3]]},
        {"id": "r2", "prices": [[2], [3]]},
        {"id": "q1", "prices": [[2], [2]]},
        {"id": "q2", "prices": [[2], [2]]},
    ],
}

CONSTANT_DOC = {
    "d": 1,
    "T": 2,
    "scenarios": [
        {"id": "c1", "prices": [[5], [5], [5]]},
        {"id": "c2", "prices": [[5], [5], [5]]},
    ],
}


@pytest.fixture(scope="session")
def svu() -> Market:
    return load_market(SVU_DOC)


@pytest.fixture(scope="session")
def multi() -> Market:
    return load_market(MULTI_DOC)


@pytest.fixture(scope="session")
def ex3d() -> Market:
    return load_market(EX3D_DOC)


@pytest.fixture(scope="session")
def ex1000() -> Market:
    return load_market(EX1000_DOC)


@pytest.fixture(scope="session")
def countna() -> Market:
    return load_market(COUNTNA_DOC)


@pytest.fixture(scope="session")
def constant() -> Market:
    return load_market(CONSTANT_DOC)


# ---------------------------------------------------------------------------
# Random corpus
# ---------------------------------------------------------------------------


def random_market(rng: random.Random, max_n: int = 10, max_t: int = 3, max_d: int = 3) -> Market:
    """Scenario tree of lattice random walks with integer prices in [0, 20]."""
    d = rng.randint(1, max_d)
    t_horizon = rng.randint(1, max_t)
    n = rng.randint(2, max_n)
    start = tuple(Fraction(rng.randint(5, 15)) for _ in range(d))

    groups = [(list(range(n)), [start])]
    for _t in range(t_horizon):
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
            steps = rng.sample([s for s in _STEPS[d]], k)
            last = path[-1]
            for part, step in zip(parts, steps):
                row = tuple(
                    min(Fraction(20), max(Fraction(0), a + b)) for a, b in zip(last, step)
                )
                nxt.append((part, path + [row]))
        groups = nxt

    paths: dict[int, list] = {}
    for members, path in groups:
        for i in members:
            paths[i] = path
    scenarios = tuple(
        Scenario(f"s{i}", tuple(paths[i])) for i in range(n)
    )
    return Market(d=d, T=t_horizon, scenarios=scenarios)


def _all_steps(d: int):
    out = [()]
    for _ in range(d):
        out = [s + (Fraction(v),) for s in out for v in (-1, 0, 1)]
    return out


_STEPS = {1: _all_steps(1), 2: _all_steps(2), 3: _all_steps(3)}


def random_class(rng: random.Random, n: int, name: str) -> SignificantClass:
    k = rng.randint(1, 3)
    sets = []
    for _ in range(k):
        size = rng.randint(1, n)
        sets.append(frozenset(rng.sample(range(n), size)))
    return SignificantClass(name, tuple(sets))


def random_measure(rng: random.Random, n: int, support=None) -> DiscreteMeasure:
    pool = sorted(support) if support else list(range(n))
    size = rng.randint(1, len(pool))
    chosen = rng.sample(pool, size)
    raw = {i: Fraction(rng.randint(1, 9)) for i in chosen}
    total = sum(raw.values())
    return DiscreteMeasure({i: w / total for i, w in raw.items()})


@pytest.fixture(scope="session")
def mini_corpus() -> list[Market]:
    rng = random.Random(20240811)
    return [random_market(rng, max_n=7) for _ in range(60)]


_MEAN_ZERO = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).map(lambda xy: (*xy, -xy[0] - xy[1]))
# (0, a, b): the flat child survives; (a, b, c): the whole node is polar
_ARBITRAGE = st.one_of(
    st.tuples(st.just(0), st.integers(1, 3), st.integers(1, 3)),
    st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)),
)


@st.composite
def trinomial_tree(draw, horizon=3):
    """Trinomial Tree(3, horizon, 1), n = 3**horizon, with arbitrage nodes at the last level.

    Children may share a price, so level sets can merge branches and final
    groups of identical paths occur.
    """
    paths = [[10]]
    for t in range(horizon):
        nxt = []
        for path in paths:
            last = t == horizon - 1 and draw(st.booleans())
            incs = draw(_ARBITRAGE if last else _MEAN_ZERO)
            nxt.extend(path + [path[-1] + x] for x in incs)
        paths = nxt
    return tree_market(paths)


def corpus_markets():
    """Random acceptance-corpus markets (n <= 10, T <= 3, d <= 3), one per drawn seed."""
    return st.integers(0, 2**32 - 1).map(lambda seed: random_market(random.Random(seed)))


def _balanced_steps(rng: random.Random, k: int, d: int) -> list[tuple]:
    """k distinct steps in {-1, 0, 1}^d carrying a strictly positive zero combination.

    One step is flat; two are s and -s; three are s, -s and 0, or, when a
    draw fits, s, t and u with a*s + b*t + c*u = 0 for weights in {1, 2},
    whose max-min weights are then seldom all equal.
    """
    zero = (0,) * d
    s = rng.choice([x for x in _STEPS[d] if any(x)])
    neg = tuple(-x for x in s)
    if k == 1:
        return [zero]
    if k == 2:
        return [s, neg]
    t = rng.choice([x for x in _STEPS[d] if any(x)])
    a, b, c = (rng.randint(1, 2) for _ in range(3))
    u = [-(a * x + b * y) for x, y in zip(s, t)]
    if all(v % c == 0 and abs(v // c) <= 1 for v in u):
        u = tuple(v // c for v in u)
        if len({s, t, u, zero}) == 4:
            return [s, t, u]
    return [s, neg, zero]


def split_market(rng: random.Random, max_n: int = 10, max_t: int = 3, max_d: int = 3) -> Market:
    """A corpus-like market whose ``omega_star`` holds some, but not all, scenarios.

    Grown like :func:`random_market` (n <= 10, T <= 3, d <= 3, up to three
    children per node, integer prices from [5, 15] moving by -1, 0 or 1), but
    each node's child steps are either balanced (:func:`_balanced_steps`) or
    an arbitrage that keeps a flat child: 0 and steps that all rise, or all
    fall, in one asset.  Nothing gains on a balanced node, and at an
    arbitrage node that asset gains on every child but the flat one, whose
    subtree survives whole.  So ``omega_star`` is every scenario under no
    non-flat child of an arbitrage node, and a draw with no arbitrage node
    is drawn again.
    """
    while True:
        d = rng.randint(1, max_d)
        horizon = rng.randint(1, max_t)
        n = rng.randint(2, max_n)
        zero = (0,) * d
        groups = [(list(range(n)), [tuple(rng.randint(5, 15) for _ in range(d))])]
        arbitrage = False
        for _t in range(horizon):
            nxt = []
            for members, path in groups:
                if len(members) > 1 and rng.random() < 0.3:
                    arbitrage = True
                    j, sign = rng.randrange(d), rng.choice((-1, 1))
                    rising = [x for x in _STEPS[d] if x[j] == sign]
                    k = rng.randint(2, min(3, len(members), 1 + len(rising)))
                    steps = [zero] + rng.sample(rising, k - 1)
                    rng.shuffle(steps)
                else:
                    steps = _balanced_steps(rng, rng.randint(1, min(3, len(members))), d)
                shuffled = rng.sample(members, len(members))
                cuts = sorted(rng.sample(range(1, len(members)), len(steps) - 1))
                for lo, hi, step in zip([0] + cuts, cuts + [len(members)], steps):
                    row = tuple(int(a + b) for a, b in zip(path[-1], step))
                    nxt.append((sorted(shuffled[lo:hi]), path + [row]))
            groups = nxt
        if arbitrage:
            break
    paths = {i: path for members, path in groups for i in members}
    scenarios = tuple(Scenario(f"s{i}", tuple(paths[i])) for i in range(n))
    return Market(d=d, T=horizon, scenarios=scenarios)


def split_corpus_markets():
    """Corpus-like markets with a survivor and a polar scenario, one per drawn seed."""
    return st.integers(0, 2**32 - 1).map(lambda seed: split_market(random.Random(seed)))


def nested_trees():
    """Tree(3, 3, 2) markets, one per drawn seed; their eliminations often fall at several periods."""
    return st.integers(0, 2**32 - 1).map(
        lambda seed: seeded_tree_market(random.Random(seed), 3, 3, 2)
    )


@st.composite
def copied_paths(draw, markets):
    """A market drawn from ``markets`` with one to four scenario copies appended under new ids.

    A scenario drawn twice is copied twice, so final nodes of 2 or 3 (or
    more) identical paths occur, and the full-support measure splits node
    masses over the lcm of their sizes.
    """
    m = draw(markets)
    copies = draw(st.lists(st.integers(0, m.n - 1), min_size=1, max_size=4))
    extra = tuple(
        Scenario(f"{m.scenarios[i].id}.{k}", m.scenarios[i].path) for k, i in enumerate(copies)
    )
    return Market(m.d, m.T, m.scenarios + extra)


def seeded_tree_market(rng: random.Random, b: int, horizon: int, d: int) -> Market:
    """Complete Tree(b, horizon, d) with start prices 10, as the benchmark draws it.

    Each child increment is uniform in [-3, 3]^d.  With probability 0.15 the
    last child rises by [1, 3] in every asset, which can make the node an
    arbitrage; otherwise it cancels its siblings' sum, so 0 is the mean.
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
            nxt.extend(path + [tuple(a + x for a, x in zip(path[-1], inc))] for inc in incs)
        paths = nxt
    return paths_market(paths)


def seeded_trinomial_market(rng: random.Random, horizon: int, n_arb: int) -> Market:
    """Trinomial Tree(3, horizon, 1) with ``n_arb`` arbitrage nodes, as the benchmark draws it.

    Ordinary nodes take distinct increments (x, y, -x-y) with x, y in
    [-3, 3]; the arbitrage nodes, drawn among the last internal level, take
    (0, a, b) with distinct a, b in [1, 3].  Few increment sets exist, so
    many nodes ask about the same points in another order.
    """
    paths = [[10]]
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
            nxt.extend(path + [path[-1] + inc] for inc in incs)
        paths = nxt
    return tree_market(paths)


def wide_trees():
    """One-period Tree(16, 1, 4) markets, the benchmark's ``wide`` family, one per drawn seed."""
    return st.integers(0, 2**32 - 1).map(
        lambda seed: seeded_tree_market(random.Random(seed), 16, 1, 4)
    )


@st.composite
def _shape(draw, b):
    """b distinct increments in Z^2: mean zero, or, one time in four, an arbitrage.

    A mean-zero shape has mean zero under drawn weights in [1, 3], so its
    max-min zero-combination weights are seldom all equal and tell its
    points apart.  The arbitrage shapes never fall in the first asset and
    rise in it at least once, so holding that asset gains on part of the node.
    """
    if draw(st.integers(0, 3)) == 0:
        pts = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(-3, 3)),
                            min_size=b, max_size=b, unique=True))
        assume(any(x > 0 for x, _y in pts))
    else:
        pts = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                            min_size=b - 1, max_size=b - 1, unique=True))
        weights = draw(st.lists(st.integers(1, 3), min_size=b - 1, max_size=b - 1))
        last = tuple(-sum(w * x for w, x in zip(weights, col)) for col in zip(*pts))
        assume(last not in pts)
        pts.append(last)
    return pts


@st.composite
def shaped_tree(draw):
    """Two-asset Tree(b, T, 2), b in {3, 4} and T in {2, 3}, built from a few repeated shapes.

    Every node takes its children's increments as a permutation of one of
    two to four drawn shapes, so many nodes ask the same question about the
    same points in another order, and some of the shapes are arbitrages.
    """
    b = draw(st.integers(3, 4))
    horizon = draw(st.integers(2, 3))
    shapes = draw(st.lists(_shape(b), min_size=2, max_size=4))
    paths = [[(10, 10)]]
    for _t in range(horizon):
        nxt = []
        for path in paths:
            incs = draw(st.permutations(draw(st.sampled_from(shapes))))
            nxt.extend(path + [tuple(a + x for a, x in zip(path[-1], inc))] for inc in incs)
        paths = nxt
    return paths_market(paths)


def fraction_market(m: Market) -> Market:
    """``m`` with every price a ``Fraction``, built directly, not by the loader."""
    scenarios = tuple(
        Scenario(s.id, tuple(tuple(Fraction(x) for x in row) for row in s.path))
        for s in m.scenarios
    )
    return Market(m.d, m.T, scenarios, m.classes, m.probabilities)


def tree_market(paths) -> Market:
    """The one-asset market whose scenarios follow the equal-length price ``paths``."""
    return paths_market([[(p,) for p in path] for path in paths])


def paths_market(paths) -> Market:
    """The market whose scenarios follow the equal-length ``paths`` of price rows."""
    return load_market(
        {
            "d": len(paths[0][0]),
            "T": len(paths[0]) - 1,
            "scenarios": [
                {"id": f"w{i}", "prices": [list(row) for row in path]}
                for i, path in enumerate(paths)
            ],
        }
    )


def strict_set_lp_by_hand(vectors) -> LinearProgram:
    """The capped-slack LP over ``vectors``: one slack per vector, then H, one row each.

    Row v is H.x_v - s_v >= 0, each slack s_v is capped in [0, 1], H is
    free, and the objective is the sum of the slacks.
    """
    nv, d = len(vectors), len(vectors[0])
    constraints = []
    for v, x in enumerate(vectors):
        row = [0] * nv + list(x)
        row[v] = -1
        constraints.append((tuple(row), GE, 0))
    bounds = ((0, 1),) * nv + ((None, None),) * d
    return LinearProgram((1,) * nv + (0,) * d, tuple(constraints), bounds)


def market_doc(m: Market) -> dict:
    """The market document of ``m``'s scenarios, prices as strings."""
    return {
        "d": m.d,
        "T": m.T,
        "scenarios": [
            {"id": s.id, "prices": [[str(x) for x in row] for row in s.path]}
            for s in m.scenarios
        ],
    }


def group_by(key_of, members) -> list[list[int]]:
    """``members`` grouped by ``key_of[i]``, groups and their members in first-seen order."""
    groups: dict = {}
    for i in members:
        groups.setdefault(key_of[i], []).append(i)
    return list(groups.values())


def price_children(m: Market, t: int, gamma) -> list[tuple[tuple, Atom]]:
    """The children of level set ``gamma`` at period t, regrouped from price rows.

    (shared increment, members) pairs, as ``split_level_set`` takes them,
    read off ``m.level_sets(gamma, t)`` instead of the node rows, in order of
    least member.  ``gamma`` must share its price rows 0..t-1.
    """
    assert len(m.level_sets(gamma, t - 1)) == 1, "level set mixes different price histories"
    return [(m.increment(t, min(c)), c) for c in m.level_sets(gamma, t)]


def refine(p, q) -> tuple[Atom, ...]:
    """Coarsest common refinement of two partitions given as atoms (the join of
    the two sigma-algebras), atom by atom, in order of least member."""
    if frozenset().union(*p) != frozenset().union(*q):
        raise ValueError("partitions have different ground sets")
    return tuple(sorted((a & b for a in p for b in q if a & b), key=min))


def arbitrage_literal(m: Market, rows, c, only_period=None) -> bool:
    """One feasibility LP for the set ``c``: V_T >= 0 everywhere, V_T >= 1 on c.

    ``rows`` is the filtration as node-id rows; the LP has one column per
    (period, atom, asset).  ``only_period`` restricts trading to that single
    period.
    """
    periods = [only_period] if only_period is not None else range(1, m.T + 1)
    layout = [
        (t, atom, j) for t in periods for atom in atoms_of(rows[t - 1]) for j in range(m.d)
    ]
    constraints = []
    for i in range(m.n):
        coeffs = tuple(
            m.increment(t, i)[j] if i in atom else Fraction(0) for t, atom, j in layout
        )
        constraints.append((coeffs, GE, Fraction(1) if i in c else Fraction(0)))
    res = lp_solve(LinearProgram(tuple(Fraction(0) for _ in layout), tuple(constraints)))
    assert res.status in (OPTIMAL, INFEASIBLE)
    return res.status == OPTIMAL


def predictable_on(m: Market, h, rows, support) -> bool:
    """True iff each period's positions of ``h`` are constant on every atom of
    the previous row intersected with ``support`` (predictable a.s.)."""
    for t in range(1, m.T + 1):
        for atom in atoms_of(rows[t - 1]):
            if len({position(h, t, i, m.d) for i in atom & support}) > 1:
                return False
    return True


def position(h: Strategy, t: int, i: int, d: int) -> tuple:
    """The d-vector ``h`` holds over (t-1, t] in scenario i; zero where no atom covers i."""
    return next(
        (v for atom, v in h.positions[t - 1].items() if i in atom), (Fraction(0),) * d
    )


def reference_values(m: Market, h: Strategy) -> list[list[Fraction]]:
    """V[t][i] summed one ``Fraction`` product at a time per covered scenario.

    The value function as it stood before values were summed as integer
    numerators; ``value_process`` must agree with it.
    """
    v = [[Fraction(0)] * m.n]
    for t in range(1, m.T + 1):
        row = list(v[-1])
        for atom, pos in h.positions[t - 1].items():
            if any(pos):
                for i in atom:
                    inc = m.increment(t, i)
                    row[i] += sum((a * b for a, b in zip(pos, inc)), Fraction(0))
        v.append(row)
    return v


def count_calls(monkeypatch, module_name: str, name: str) -> list:
    """Count calls to ``module.name`` through every arbscan module that holds it."""
    original = getattr(sys.modules[f"arbscan.{module_name}"], name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for modname, mod in list(sys.modules.items()):
        if modname.startswith("arbscan") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls
