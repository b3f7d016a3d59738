"""Brute-force LP ground truth, independent of the geometric path.

``oracle_support`` finds the exact support of the martingale polytope by
maximizing each scenario's weight; ``oracle_arbitrage`` searches the full
space of predictable strategies for a strict gain covering a given set.
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
    c: Atom,
    only_period: Optional[int] = None,
) -> Optional[Strategy]:
    """A predictable strategy with V_T >= 0 everywhere and V_T >= 1 on ``c``, or None.

    Scale-freeness makes ">= 1 on c" equivalent to "> 0 on c".  Variables are
    one position vector per (period, conditioning atom); ``only_period``
    restricts trading to that single period.
    """
    if not c:
        raise ValueError("target set is empty")
    periods = [only_period] if only_period is not None else list(range(1, m.T + 1))
    layout: list[tuple[int, Atom, int]] = []
    # per period, each scenario's first column: the block of its atom
    first_col: list[dict[int, int]] = []
    for t in periods:
        cols: dict[int, int] = {}
        for atom in filtration[t - 1].atoms:
            for i in atom:
                cols[i] = len(layout)
            for j in range(m.d):
                layout.append((t, atom, j))
        first_col.append(cols)
    nv = len(layout)

    constraints = []
    for i in range(m.n):
        coeffs = [_ZERO] * nv
        for t, cols in zip(periods, first_col):
            k = cols.get(i)
            if k is not None:
                coeffs[k : k + m.d] = m.increment(t, i)
        rhs = _ONE if i in c else _ZERO
        constraints.append((tuple(coeffs), GE, rhs))

    res = lp_solve(
        LinearProgram(tuple(_ZERO for _ in range(nv)), tuple(constraints))
    )
    if res.status == INFEASIBLE:
        return None
    if res.status != OPTIMAL:
        raise InternalError(f"strategy search LP ended {res.status}")

    positions: list[dict[Atom, tuple]] = []
    for t in range(1, m.T + 1):
        pos: dict[Atom, list] = {
            atom: [_ZERO] * m.d for atom in filtration[t - 1].atoms
        }
        positions.append(pos)
    for k, (t, atom, j) in enumerate(layout):
        positions[t - 1][atom][j] = res.solution[k]
    strategy = Strategy(
        tuple({a: tuple(v) for a, v in pos.items()} for pos in positions)
    )

    v = value_process(m, filtration, strategy)
    if any(x < 0 for x in v[m.T]):
        raise InternalError("oracle strategy loses on some scenario")
    if any(v[m.T][i] < 1 for i in c):
        raise InternalError("oracle strategy gains less than 1 on the target set")
    return strategy
