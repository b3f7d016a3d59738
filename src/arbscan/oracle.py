"""Brute-force LP ground truth, independent of the geometric path.

The module builds its own martingale polytope and imports only ``errors``,
``market`` and ``ratgeom``.  ``oracle_support`` finds the exact support of
the martingale polytope, and ``oracle_arbitrage`` the largest set on which a
predictable strategy that never loses gains strictly, each in one
capped-slack LP.
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
from .ratgeom import EQ, GE, OPTIMAL, LinearProgram, lp_solve


def build_polytope(m: Market) -> LinearProgram:
    """All martingale measures as weight vectors: a zero objective over weights >= 0.

    Constraint 0 normalizes the weights to sum 1; the rest are the
    per-(period, atom, asset) zero-expectation equalities, ordered by period
    ascending, atom by smallest index (its node id), then asset index.
    Nonnegativity is a variable bound, not a row.  Structural numbers are
    ``int``s, and so are the increments of integral prices.
    """
    rows = [((1,) * m.n, EQ, 1)]
    nodes = natural_nodes(m)
    for t in range(1, m.T + 1):
        up = nodes[t - 1]
        # row k * d + j: asset j's increments on node k at time t-1
        coeffs = [[0] * m.n for _ in range((max(up) + 1) * m.d)]
        for i, k in enumerate(up):
            for j, x in enumerate(m.increment(t, i)):
                coeffs[k * m.d + j][i] = x
        rows.extend((tuple(c), EQ, 0) for c in coeffs)
    return LinearProgram((0,) * m.n, tuple(rows), ((0, None),) * m.n)


def oracle_support(m: Market) -> Atom:
    """Scenarios with positive weight under some point of the martingale polytope.

    One capped-slack LP in substituted form, the maximal-strict-set method of
    Freund, Roundy and Todd (1985): per scenario a remainder r_i >= 0 and a
    slack s_i in [0, 1] make the unnormalized weight q_i = r_i + s_i, the rows
    are the polytope's martingale rows without the normalization row, applied
    to r + s, and the LP maximizes the sum of the slacks.  Supports are closed
    under sums of measures, so an optimum with s_i = 0 on a scenario some
    measure charges could be improved; hence the support is {i : s_i > 0}.
    An empty polytope leaves only q = 0, so it yields the empty set.
    """
    n = m.n
    rows = build_polytope(m).constraints[1:]
    # columns: the n remainders first, then the n slacks, which are native
    # caps with no row.  Against slacks first, that order took 1.7 ms in
    # place of 3.5 ms on one-period 16-scenario trees (15 pivots and 12 cap
    # flips in place of 47 pivots), 0.38 s in place of 0.67 s on trinomial
    # trees of 243 scenarios, and 0.36 ms in place of 0.46 ms on small
    # random markets.
    constraints = tuple((coeffs + coeffs, rel, rhs) for coeffs, rel, rhs in rows)
    objective = (0,) * n + (1,) * n
    bounds = ((0, None),) * n + ((0, 1),) * n
    res = lp_solve(LinearProgram(objective, constraints, bounds))
    if res.status != OPTIMAL:
        raise InternalError(f"support LP ended {res.status}")
    return frozenset(i for i, s in enumerate(res.solution[n:]) if s > 0)


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
    Todd (1985): one slack s_i in [0, 1] per scenario, rows V_T(i) - s_i >= 0,
    maximize the sum of the slacks.  Gain sets are closed under sums of
    strategies, so an optimum with s_i = 0 on a scenario some strategy gains
    on could be improved; hence ``gain`` = {i : s_i > 0}, and dividing by the
    least such s_i lifts the gain to >= 1 there.
    """
    n, d = m.n, m.d
    if len(rows) < m.T or any(len(row) != n for row in rows):
        raise ValueError(f"a filtration needs a row of {n} node ids per time 0..{m.T - 1}")
    atoms = [atoms_of(row) for row in rows[: m.T]]
    # columns: the n slacks first, then one position vector per (period,
    # node).  Bland's rule then makes each s_i basic on its own row before any
    # position enters: on one-period 16-scenario trees that is 17 pivots in
    # place of 29 with the positions first, and 1.0 ms in place of 3.0 ms;
    # 3.0 ms in place of 5.9 ms on trinomial trees of 27 scenarios.  Only
    # small random markets favour the positions (0.56 ms against 0.82 ms).
    # Asset j of node k in period t is column first[t-1] + k*d + j.
    first = []
    nv = n
    for period in atoms:
        first.append(nv)
        nv += len(period) * d

    constraints = []
    for i in range(n):
        coeffs = [0] * nv
        coeffs[i] = -1
        for t, col in enumerate(first, 1):
            k = col + rows[t - 1][i] * d
            coeffs[k : k + d] = m.increment(t, i)
        constraints.append((tuple(coeffs), GE, 0))
    objective = (1,) * n + (0,) * (nv - n)
    bounds = ((0, 1),) * n + ((None, None),) * (nv - n)

    res = lp_solve(LinearProgram(objective, tuple(constraints), bounds))
    if res.status != OPTIMAL:
        raise InternalError(f"strategy search LP ended {res.status}")
    sol = res.solution
    gain = frozenset(i for i, s in enumerate(sol[:n]) if s > 0)
    if not gain:
        return gain, None
    scale = min(sol[i] for i in gain)

    positions = []
    for t, col in enumerate(first, 1):
        pos = {}
        for k, atom in enumerate(atoms[t - 1]):
            vec = sol[col + k * d : col + (k + 1) * d]
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
