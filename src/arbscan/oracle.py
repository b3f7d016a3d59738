"""Brute-force LP ground truth, independent of the geometric path.

``oracle_support`` finds the exact support of the martingale polytope by
maximizing each scenario's weight; ``oracle_arbitrage`` searches the full
space of predictable strategies, in one LP, for the largest set on which a
strategy that never loses gains strictly.
Disagreement with the geometric modules is a hard test failure, never
silently resolved.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .errors import InternalError
from .market import Atom, Market, Partition, Strategy, value_process
from .measures import build_polytope
from .ratgeom import GE, INFEASIBLE, OPTIMAL, LinearProgram, lp_solve

_ZERO = Fraction(0)
_ONE = Fraction(1)
_MINUS_ONE = Fraction(-1)


def oracle_support(m: Market) -> Atom:
    """Scenarios with positive weight under some point of the martingale polytope.

    One "maximize q_i" LP per scenario, except that scenarios already strictly
    positive in an earlier optimal solution are skipped (their maximum is
    provably positive too).  An infeasible polytope yields the empty set.
    """
    poly = build_polytope(m)
    support: set[int] = set()
    for i in range(m.n):
        if i in support:
            continue
        objective = tuple(_ONE if j == i else _ZERO for j in range(m.n))
        res = lp_solve(poly.lp(objective))
        if res.status == INFEASIBLE:
            return frozenset()
        if res.status != OPTIMAL:
            raise InternalError(f"support LP for scenario {i} ended {res.status}")
        if res.objective_value > 0:
            support.update(j for j, w in enumerate(res.solution) if w > 0)
    return frozenset(support)


def oracle_arbitrage(
    m: Market,
    filtration: Sequence[Partition],
    only_period: Optional[int] = None,
) -> tuple[Atom, Optional[Strategy]]:
    """The largest strict-gain set of a nonnegative strategy, and one such strategy.

    Returns (gain, h): ``gain`` is the union of {V_T > 0} over every
    ``filtration``-predictable strategy with V_T >= 0 everywhere, and ``h`` is
    one such strategy with V_T >= 1 on all of ``gain`` (None when ``gain`` is
    empty).  Variables are one position vector per (period, conditioning
    atom); ``only_period`` restricts trading to that single period.

    One capped-slack LP, the maximal-strict-set method of Freund, Roundy and
    Todd (1985): one slack s_i in [0, 1] per scenario, rows V_T(i) - s_i >= 0,
    maximize the sum of the slacks.  Gain sets are closed under sums of
    strategies, so an optimum with s_i = 0 on a scenario some strategy gains
    on could be improved; hence ``gain`` = {i : s_i > 0}, and dividing by the
    least such s_i lifts the gain to >= 1 there.
    """
    n = m.n
    periods = [only_period] if only_period is not None else list(range(1, m.T + 1))
    # columns: the n slacks first, then one position vector per (period,
    # atom).  Bland's rule then makes each s_i basic on its own row before any
    # position enters: on one-period 16-scenario trees that is 17 pivots in
    # place of 30 with the positions first, and a quarter of the time.
    layout: list[tuple[int, Atom, int]] = []
    # per period, each scenario's first position column: the block of its atom
    first_col: list[dict[int, int]] = []
    for t in periods:
        cols: dict[int, int] = {}
        for atom in filtration[t - 1].atoms:
            for i in atom:
                cols[i] = n + len(layout)
            for j in range(m.d):
                layout.append((t, atom, j))
        first_col.append(cols)
    nv = n + len(layout)

    constraints = []
    for i in range(n):
        coeffs = [_ZERO] * nv
        coeffs[i] = _MINUS_ONE
        for t, cols in zip(periods, first_col):
            k = cols.get(i)
            if k is not None:
                coeffs[k : k + m.d] = m.increment(t, i)
        constraints.append((tuple(coeffs), GE, _ZERO))
    objective = (_ONE,) * n + (_ZERO,) * len(layout)
    bounds = ((_ZERO, _ONE),) * n + ((None, None),) * len(layout)

    res = lp_solve(LinearProgram(objective, tuple(constraints), bounds))
    if res.status != OPTIMAL:
        raise InternalError(f"strategy search LP ended {res.status}")
    slack = res.solution[:n]
    gain = frozenset(i for i, s in enumerate(slack) if s > 0)
    if not gain:
        return gain, None
    scale = min(slack[i] for i in gain)

    positions: list[dict[Atom, list]] = [
        {atom: [_ZERO] * m.d for atom in filtration[t - 1].atoms}
        for t in range(1, m.T + 1)
    ]
    for (t, atom, j), x in zip(layout, res.solution[n:]):
        positions[t - 1][atom][j] = x / scale
    strategy = Strategy(
        tuple({a: tuple(v) for a, v in pos.items()} for pos in positions)
    )

    v = value_process(m, filtration, strategy)
    if any(x < 0 for x in v[m.T]):
        raise InternalError("oracle strategy loses on some scenario")
    if any(v[m.T][i] < 1 for i in gain):
        raise InternalError("oracle strategy gains less than 1 on the gain set")
    if any(v[m.T][i] > 0 for i in range(n) if i not in gain):
        raise InternalError("oracle strategy gains outside the maximal gain set")
    return gain, strategy
