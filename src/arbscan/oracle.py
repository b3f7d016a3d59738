"""Brute-force LP ground truth, independent of the geometric path.

The module imports only ``errors``, ``market`` and ``ratgeom``.  Both of
its LPs read one matrix, the martingale table A of a filtration: one row
per (period, node, asset) and one column per scenario, built by
:func:`_martingale_columns`.  The martingale measures are the q >= 0 with
A q = 0, and the strategies that never lose are the H with H.A >= 0 in
every column, the two sides of the first fundamental theorem.
``oracle_support`` finds the exact support of the martingale polytope, and
``oracle_arbitrage`` the largest set on which a predictable strategy that
never loses gains strictly, each in one capped-slack LP.  Scenarios on one
price path have equal columns, so each LP takes one slack per distinct
path, not per scenario.
Disagreement with the geometric modules is a hard test failure, never
silently resolved.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterable, Optional, Sequence

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
from .ratgeom import EQ, OPTIMAL, LinearProgram, Vec, lp_solve, strict_set_lp


def build_polytope(m: Market) -> LinearProgram:
    """All martingale measures as weight vectors: a zero objective over weights >= 0.

    Constraint 0 normalizes the weights to sum 1; the rest are the rows of
    the natural filtration's martingale table, zero-expectation equalities
    ordered by period ascending, atom by smallest index (its node id), then
    asset index.  Nonnegativity is a variable bound, not a row.  Structural
    numbers are ``int``s, and so are the increments of integral prices.
    """
    columns = _martingale_columns(m, natural_nodes(m), range(m.n))
    rows = [((1,) * m.n, EQ, 1)] + [(row, EQ, 0) for row in zip(*columns)]
    return LinearProgram((0,) * m.n, tuple(rows), ((0, None),) * m.n)


def _martingale_columns(
    m: Market, rows: Sequence[Sequence[int]], scenarios: Iterable[int]
) -> list[Vec]:
    """Each scenario's column of the martingale table of the filtration ``rows``.

    ``rows`` are node-id rows numbered as :func:`~arbscan.market.atoms_of`
    expects, and each period's block of entries follows the last: entry
    first[t-1] + k * d + j of scenario i's column holds asset j's increment
    over (t-1, t] if i lies in node k of ``rows[t-1]``, and 0 otherwise.
    """
    d = m.d
    first = list(accumulate(((max(row) + 1) * d for row in rows[: m.T]), initial=0))
    size = first.pop()
    columns = []
    for i in scenarios:
        col = [0] * size
        for t, lo in enumerate(first, 1):
            k = lo + rows[t - 1][i] * d
            col[k : k + d] = m.increment(t, i)
        columns.append(tuple(col))
    return columns


def oracle_support(m: Market) -> Atom:
    """Scenarios with positive weight under some point of the martingale polytope.

    One capped-slack LP in substituted form, the maximal-strict-set method of
    Freund, Roundy and Todd (1985).  Scenarios on one price path share every
    node and increment, so their columns of the martingale table are equal;
    the LP takes one column pair per distinct path, a final natural node.  Per
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
    columns = _martingale_columns(m, nodes, least.values())
    constraints = tuple((row + row, EQ, 0) for row in zip(*columns))
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

    One strict-set LP (:func:`~arbscan.ratgeom.strict_set_lp`) over the
    distinct columns of the martingale table of ``rows``: the positions
    form one vector H, and H times scenario i's column is V_T(i).
    Scenarios with equal columns, as on one price path, have the same V_T
    under every strategy, so the LP takes one row and one slack per
    distinct column.  ``gain`` is every scenario whose column has
    a positive slack, and dividing H by the least such slack lifts the gain
    to >= 1 there.
    """
    n, d = m.n, m.d
    if len(rows) < m.T or any(len(row) != n for row in rows):
        raise ValueError(f"a filtration needs a row of {n} node ids per time 0..{m.T - 1}")
    atoms = [atoms_of(row) for row in rows[: m.T]]
    index_of: dict[Vec, int] = {}  # each distinct column's slack
    slack_of = [  # per scenario
        index_of.setdefault(col, len(index_of)) for col in _martingale_columns(m, rows, range(n))
    ]
    slacks, h = strict_set_lp(list(index_of))
    gain = frozenset(i for i, v in enumerate(slack_of) if slacks[v] > 0)
    if not gain:
        return gain, None
    scale = min(s for s in slacks if s > 0)

    vecs = (h[k : k + d] for k in range(0, len(h), d))  # one per (period, node)
    strategy = Strategy(tuple(
        {atom: tuple(x / scale for x in vec) for atom, vec in zip(period, vecs) if any(vec)}
        for period in atoms
    ))

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
