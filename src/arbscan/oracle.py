"""Brute-force LP ground truth, independent of the geometric path.

The module builds its own martingale polytope and imports only ``errors``,
``market`` and ``ratgeom``.  ``oracle_support`` finds the exact support of
the martingale polytope, and ``oracle_arbitrage`` the largest set on which a
predictable strategy that never loses gains strictly, each in one
capped-slack LP.  Scenarios on one price path get the same coefficients in
every row of either LP, so each LP takes one slack per distinct path, not
per scenario.
Disagreement with the geometric modules is a hard test failure, never
silently resolved.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .errors import InternalError
from .market import (
    Atom,
    Market,
    Strategy,
    atoms_of,
    check_predictable,
    natural_nodes,
    terminal_values,
)
from .ratgeom import EQ, GE, OPTIMAL, LinearProgram, Vec, lp_solve


def build_polytope(m: Market) -> LinearProgram:
    """All martingale measures as weight vectors: a zero objective over weights >= 0.

    Constraint 0 normalizes the weights to sum 1; the rest are the
    per-(period, atom, asset) zero-expectation equalities, ordered by period
    ascending, atom by smallest index (its node id), then asset index.
    Nonnegativity is a variable bound, not a row.  Structural numbers are
    ``int``s, and so are the increments of integral prices.
    """
    rows = [((1,) * m.n, EQ, 1)] + _martingale_rows(m, natural_nodes(m), range(m.n))
    return LinearProgram((0,) * m.n, tuple(rows), ((0, None),) * m.n)


def _martingale_rows(
    m: Market, nodes: Sequence[Sequence[int]], columns: Sequence[int]
) -> list[tuple[Vec, str, int]]:
    """The martingale rows of :func:`build_polytope`, one column per scenario in ``columns``.

    ``nodes`` is ``natural_nodes(m)``; row k * d + j of period t holds asset
    j's increments on node k at time t-1.  Every node must hold a scenario
    of ``columns``.
    """
    rows = []
    for t in range(1, m.T + 1):
        up = nodes[t - 1]
        coeffs = [[0] * len(columns) for _ in range((max(up) + 1) * m.d)]
        for v, i in enumerate(columns):
            for j, x in enumerate(m.increment(t, i)):
                coeffs[up[i] * m.d + j][v] = x
        rows.extend((tuple(c), EQ, 0) for c in coeffs)
    return rows


def oracle_support(m: Market) -> Atom:
    """Scenarios with positive weight under some point of the martingale polytope.

    One capped-slack LP in substituted form, the maximal-strict-set method of
    Freund, Roundy and Todd (1985).  Scenarios on one price path share every
    node and increment, so their columns agree in every martingale row; the
    LP takes one column pair per distinct path, a final natural node.  Per
    node v a remainder r_v >= 0 and a slack s_v in [0, 1] make its
    unnormalized mass q_v = r_v + s_v, the rows are the polytope's martingale
    rows without the normalization row, applied to r + s, and the LP
    maximizes the sum of the slacks.  Supports are closed under sums of
    measures, so an optimum with s_v = 0 on a node some measure charges could
    be improved; hence the support is every scenario whose node has
    s_v > 0.  An empty polytope leaves only q = 0, so it yields the empty set.
    """
    nodes = natural_nodes(m)
    final = nodes[m.T]
    least: dict[int, int] = {}  # each final node's least member
    for i, v in enumerate(final):
        least.setdefault(v, i)
    k = len(least)
    # columns: the k remainders first, then the k slacks, which are native
    # caps with no row.  Against slacks first, that order took 1.7 ms in
    # place of 3.5 ms on one-period 16-scenario trees (15 pivots and 12 cap
    # flips in place of 47 pivots), 0.13-0.18 s in place of 0.26-0.36 s on
    # trinomial trees of 243 scenarios (seeds big901 and big902 of
    # bench/gen.py's trinomial_market), and 0.36 ms in place of 0.46 ms on
    # small random markets.
    constraints = tuple(
        (coeffs + coeffs, rel, rhs)
        for coeffs, rel, rhs in _martingale_rows(m, nodes, list(least.values()))
    )
    objective = (0,) * k + (1,) * k
    bounds = ((0, None),) * k + ((0, 1),) * k
    res = lp_solve(LinearProgram(objective, constraints, bounds))
    if res.status != OPTIMAL:
        raise InternalError(f"support LP ended {res.status}")
    slack = res.solution[k:]
    return frozenset(i for i, v in enumerate(final) if slack[v] > 0)


def oracle_arbitrage(
    m: Market, rows: Sequence[Sequence[int]]
) -> tuple[Atom, Optional[Strategy]]:
    """The largest strict-gain set of a nonnegative strategy, and one such strategy.

    Returns (gain, h): ``gain`` is the union of {V_T > 0} over every strategy
    predictable for the filtration ``rows`` (node-id rows, as
    :func:`~arbscan.market.natural_nodes` numbers them) with V_T >= 0
    everywhere, and ``h`` is one such strategy with V_T >= 1 on all of
    ``gain`` (None when ``gain`` is empty).  Variables are one position
    vector per (period t, node of ``rows[t-1]``), and ``h`` holds only the
    nonzero ones: a node left out holds zero.  Malformed rows raise
    ValueError before any LP is built, and ``h`` is re-checked with
    ``check_predictable`` and on the ``int`` numerators of its terminal
    values (``terminal_values``).

    One capped-slack LP, the maximal-strict-set method of Freund, Roundy and
    Todd (1985).  Scenarios whose position coefficients agree, as scenarios
    on one price path do, have the same V_T under every strategy, so the LP
    takes one row and one slack per distinct coefficient row v: s_v in
    [0, 1], V_T(v) - s_v >= 0, and it maximizes the sum of the slacks.  Gain
    sets are closed under sums of strategies, so an optimum with s_v = 0 on
    a row some strategy gains on could be improved; hence ``gain`` is every
    scenario whose row has s_v > 0, and dividing by the least such s_v lifts
    the gain to >= 1 there.
    """
    n, d = m.n, m.d
    if len(rows) < m.T or any(len(row) != n for row in rows):
        raise ValueError(f"a filtration needs a row of {n} node ids per time 0..{m.T - 1}")
    atoms = [atoms_of(row) for row in rows[: m.T]]
    # Asset j of node k in period t is position first[t-1] + k*d + j.
    first = []
    npos = 0
    for period in atoms:
        first.append(npos)
        npos += len(period) * d
    index_of: dict[Vec, int] = {}  # each distinct coefficient row's slack
    slack_of = []  # per scenario
    for i in range(n):
        coeffs = [0] * npos
        for t, col in enumerate(first, 1):
            k = col + rows[t - 1][i] * d
            coeffs[k : k + d] = m.increment(t, i)
        slack_of.append(index_of.setdefault(tuple(coeffs), len(index_of)))
    nk = len(index_of)

    # columns: the nk slacks first, then the positions.  Bland's rule then
    # makes each s_v basic on its own row before any position enters: on
    # one-period 16-scenario trees that is 17 pivots in place of 29 with the
    # positions first, and 1.0 ms in place of 3.0 ms; 3.0 ms in place of
    # 5.9 ms on trinomial trees of 27 scenarios.  Only small random markets
    # favour the positions (0.56 ms against 0.82 ms).
    constraints = []
    for v, coeffs in enumerate(index_of):
        slack = [0] * nk
        slack[v] = -1
        constraints.append((tuple(slack) + coeffs, GE, 0))
    objective = (1,) * nk + (0,) * npos
    bounds = ((0, 1),) * nk + ((None, None),) * npos

    res = lp_solve(LinearProgram(objective, tuple(constraints), bounds))
    if res.status != OPTIMAL:
        raise InternalError(f"strategy search LP ended {res.status}")
    sol = res.solution
    gain = frozenset(i for i, v in enumerate(slack_of) if sol[v] > 0)
    if not gain:
        return gain, None
    scale = min(s for s in sol[:nk] if s > 0)

    positions = []
    for t, col in enumerate(first, 1):
        pos = {}
        for k, atom in enumerate(atoms[t - 1]):
            lo = nk + col + k * d
            vec = sol[lo : lo + d]
            if any(vec):
                pos[atom] = tuple(x / scale for x in vec)
        positions.append(pos)
    strategy = Strategy(tuple(positions))

    if not check_predictable(strategy, rows):
        raise InternalError("oracle strategy is not predictable for its filtration")
    v, den = terminal_values(m, strategy)  # V_T(i) = v[i] / den
    if any(x < 0 for x in v):
        raise InternalError("oracle strategy loses on some scenario")
    if any(v[i] < den for i in gain):
        raise InternalError("oracle strategy gains less than 1 on the gain set")
    if any(v[i] > 0 for i in range(n) if i not in gain):
        raise InternalError("oracle strategy gains outside the maximal gain set")
    return gain, strategy
