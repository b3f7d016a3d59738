"""The dense-tableau simplex as it stood before its lean-up, kept as a test oracle.

``lp_solve`` here is the solver with a phase 1 that pivots even when every
artificial starts at 0, artificial columns that ride along through phase 2,
and every row entered through its denominators.  ``tests/test_ratgeom.py``
runs it beside :func:`arbscan.ratgeom.lp_solve` on random programs: outside
the all-homogeneous-artificial case the two must return bit-identical
results.  Nothing in ``src/`` imports this module.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional

from arbscan.errors import InternalError
from arbscan.ratgeom import (
    EQ,
    GE,
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    LpResult,
    Vec,
    _farkas_holds,
    _validate,
    expanded_rows,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


class _Tableau:
    """Internal standard-form tableau with integer rows and native caps.

    Columns: per variable either one column (nonnegative or capped) or a +/-
    pair (free), then one surplus per >= row, then artificials where the row
    has no natural unit column.  Rows are sign-normalized so every right-hand
    side is nonnegative; >=-rows with rhs <= 0 flip so their surplus becomes a
    basic slack and needs no artificial.

    Each row (right-hand side last) is a list of int numerators over one
    positive row denominator in ``den``, reduced so that gcd(den, *row) == 1.
    That pair is the canonical form of the row's rationals, so the tableau
    holds exactly the rationals of a ``Fraction`` tableau at every step.  The
    objective row ``obj`` over ``obj_den`` is kept the same way.

    A capped variable's column is marked in ``cap`` in place of a row.  A
    column at its cap 1 is held as the substitution x = 1 - x': its entries
    are negated and subtracted from the right-hand sides, in place and with
    no change to any row's gcd.  So every nonbasic column sits at 0 and the
    right-hand sides stay the basic values.  ``flipped[c]`` records which
    columns stand for 1 - x.
    """

    def __init__(self, lp: LinearProgram, live: list[int]):
        """The tableau of the constraints of ``lp`` numbered in ``live``."""
        self.lp = lp
        self.live = live
        rows = lp.constraints

        self.var_cols: list[tuple[int, int]] = []  # (var index, sign)
        col_of_var: list[tuple[int, Optional[int]]] = []
        for j, (lo, _hi) in enumerate(lp.bounds):
            plus = len(self.var_cols)
            self.var_cols.append((j, +1))
            if lo is not None:
                col_of_var.append((plus, None))
            else:
                self.var_cols.append((j, -1))
                col_of_var.append((plus, plus + 1))
        self.col_of_var = col_of_var
        nv = len(self.var_cols)

        sigma = []
        slack_kind = []  # +1 unit slack, -1 non-unit surplus, 0 none
        for idx in live:
            coeffs, rel, rhs = rows[idx]
            if rel == EQ:
                s = -1 if rhs < 0 else 1
                slack_kind.append(0)
            else:  # GE: flip whenever that makes the surplus basic
                s = -1 if rhs <= 0 else 1
                slack_kind.append(-s)
            sigma.append(s)
        self.sigma = sigma

        slack_col = {}
        c = nv
        for k, kind in enumerate(slack_kind):
            if kind != 0:
                slack_col[k] = c
                c += 1
        art_col = {}
        for k, kind in enumerate(slack_kind):
            if kind != 1:  # no basic unit column yet
                art_col[k] = c
                c += 1
        self.ncols = c
        self.art_set = frozenset(art_col.values())

        self.cap = [False] * c
        for (_lo, hi), (plus, _minus) in zip(lp.bounds, col_of_var):
            self.cap[plus] = hi is not None
        self.flipped = [False] * c

        body = []
        dens = []
        basis = []
        for k, idx in enumerate(live):
            coeffs, rel, rhs = rows[idx]
            s = sigma[k]
            # the lcm of the row's denominators makes every entry an integer
            qs = [a.denominator for a in coeffs]
            den = lcm(rhs.denominator, *qs)
            row = [0] * (self.ncols + 1)
            for j, (a, q) in enumerate(zip(coeffs, qs)):
                v = a.numerator
                if v:
                    v *= s * (den // q)
                    plus, minus = col_of_var[j]
                    row[plus] = v
                    if minus is not None:
                        row[minus] = -v
            if k in slack_col:
                row[slack_col[k]] = slack_kind[k] * den
            if k in art_col:
                row[art_col[k]] = den
                basis.append(art_col[k])
            else:
                basis.append(slack_col[k])
            row[-1] = s * rhs.numerator * (den // rhs.denominator)
            body.append(row)
            dens.append(den)
        self.body = body
        self.den = dens
        self.basis = basis
        self.obj: Optional[list[int]] = None
        self.obj_den = 1
        # initial unit column of each row, for dual extraction
        self.start_unit = [art_col.get(k, slack_col.get(k)) for k in range(len(live))]

    # -- pivoting ---------------------------------------------------------

    def _pivot(self, r: int, pc: int) -> None:
        """Make column ``pc`` basic in row ``r``; updates ``obj`` if it is set."""
        body, dens = self.body, self.den
        prow = body[r]
        p = prow[pc]
        # the pivot row becomes prow / p: p is in prow, so gcd(*prow) reduces
        # it, and taking g with the sign of p keeps the denominator positive
        g = gcd(*prow)
        if p < 0:
            g = -g
        if g != 1:
            prow = [v // g for v in prow]
            body[r] = prow
        pd = dens[r] = p // g
        nz = [j for j, v in enumerate(prow) if v]
        for i, row in enumerate(body):
            if i != r and row[pc]:
                body[i], dens[i] = _eliminate(row, dens[i], prow, pd, pc, nz)
        obj = self.obj
        if obj is not None and obj[pc]:
            self.obj, self.obj_den = _eliminate(obj, self.obj_den, prow, pd, pc, nz)
        self.basis[r] = pc

    def _flip(self, c: int) -> None:
        """Move nonbasic column ``c`` to its other bound, in place: a flip, no pivot."""
        for row in self.body + [self.obj]:
            a = row[c]
            if a:
                row[-1] -= a
                row[c] = -a
        self.flipped[c] = not self.flipped[c]

    def _flip_basic(self, r: int) -> None:
        """Re-express row ``r``'s basic variable x as 1 - x' before it leaves at 1.

        Other rows and the objective have 0 in a basic column, so only row
        ``r`` changes: den x + a.y = b becomes den x' - a.y = den - b, over
        the same denominator and gcd.
        """
        c = self.basis[r]
        den = self.den[r]
        row = self.body[r] = [-v for v in self.body[r]]
        row[c] = den
        row[-1] += den
        self.flipped[c] = not self.flipped[c]

    def _simplex(self, ncand: int) -> str:
        """Bland's rule; columns below ``ncand`` may enter the basis.

        The entering column stops at the first of: a basic variable reaching
        0, a capped basic variable reaching its cap, or its own cap, which
        is a flip with no pivot.  Ratio ties go to the lowest leaving column,
        the entering column counting as its own flip's.
        """
        body, dens, basis, cap = self.body, self.den, self.basis, self.cap
        while True:
            obj = self.obj
            pc = -1
            for j in range(ncand):
                if obj[j] > 0:
                    pc = j
                    break
            if pc < 0:
                return OPTIMAL
            # each step length is num/den with den > 0; row denominators
            # cancel, so steps compare crosswise.  best_r is -1 for none yet
            # and -2 for the entering column's own flip.
            if cap[pc]:
                best_r, best_n, best_d, best_key = -2, 1, 1, pc
            else:
                best_r = -1
                best_n = best_d = best_key = 0
            best_up = False
            for r, row in enumerate(body):
                a = row[pc]
                if a > 0:
                    num, den, up = row[-1], a, False
                elif a and cap[basis[r]]:
                    # the basic variable rises to its cap 1
                    num, den, up = dens[r] - row[-1], -a, True
                else:
                    continue
                if best_r != -1:
                    lhs = num * best_d
                    rhs = best_n * den
                    if lhs > rhs or (lhs == rhs and basis[r] > best_key):
                        continue
                best_r, best_n, best_d, best_key, best_up = r, num, den, basis[r], up
            if best_r == -1:
                return UNBOUNDED
            if best_r == -2:
                self._flip(pc)
                continue
            if best_up:
                self._flip_basic(best_r)
            self._pivot(best_r, pc)

    # -- phases -----------------------------------------------------------

    def _price(self, cost: list[int]) -> None:
        """Set ``obj`` to the integer ``cost`` row priced out against the basis."""
        terms = [(cost[b], r) for r, b in enumerate(self.basis) if cost[b]]
        den = lcm(*(self.den[r] for _cb, r in terms))
        obj = [c * den for c in cost] + [0]
        for cb, r in terms:
            m = cb * (den // self.den[r])
            for j, v in enumerate(self.body[r]):
                if v:
                    obj[j] -= m * v
        if den != 1:
            g = gcd(den, *obj)
            if g != 1:
                obj = [v // g for v in obj]
                den //= g
        self.obj, self.obj_den = obj, den

    def phase_one(self) -> Optional[Vec]:
        """None when feasible, else the Farkas certificate over :func:`expanded_rows`.

        It holds one multiplier per constraint, then one per cap row.
        """
        if not self.art_set:
            return None
        cost = [0] * self.ncols
        for c in self.art_set:
            cost[c] = -1
        self._price(cost)
        if self._simplex(self.ncols) != OPTIMAL:
            raise InternalError("phase 1 is bounded above by 0 but came back unbounded")
        obj, den = self.obj, self.obj_den
        if obj[-1] > 0:  # the phase-1 optimum -obj[-1]/den is negative
            # row k's price y_k is c - d of its initial unit column
            y = [_ZERO] * len(self.lp.constraints)
            for k, idx in enumerate(self.live):
                unit = self.start_unit[k]
                c_unit = -1 if unit in self.art_set else 0
                y[idx] = self.sigma[k] * (c_unit - Fraction(obj[unit], den))
            # a column at its cap has reduced cost d = -obj >= 0 there; -d on
            # its row -x_j >= -1 makes its entry of the combined row exactly 0
            for (_lo, hi), (c, _minus) in zip(self.lp.bounds, self.col_of_var):
                if hi is not None:
                    y.append(Fraction(obj[c], den) if self.flipped[c] else _ZERO)
            return tuple(y)
        self.obj = None  # drive-out pivots need no objective row
        self._drive_out_artificials()
        return None

    def _drive_out_artificials(self) -> None:
        r = 0
        while r < len(self.body):
            if self.basis[r] in self.art_set:
                row = self.body[r]
                pc = next(
                    (j for j, v in enumerate(row[:-1]) if v and j not in self.art_set),
                    None,
                )
                if pc is None:
                    # redundant row: zero over every structural column
                    del self.body[r]
                    del self.den[r]
                    del self.basis[r]
                    continue
                self._pivot(r, pc)
            r += 1

    def phase_two(self) -> str:
        # a positive scale of the costs steers the same pivots; the caller
        # reads the objective value off the solution, not off this row
        objective = self.lp.objective
        scale = lcm(*(c.denominator for c in objective if c))
        cost = [0] * self.ncols
        for col, (j, sign) in enumerate(self.var_cols):
            c = objective[j]
            if c:
                v = sign * c.numerator * (scale // c.denominator)
                cost[col] = -v if self.flipped[col] else v
        self._price(cost)
        # artificials are the last columns and never re-enter
        return self._simplex(self.ncols - len(self.art_set))

    def solution(self) -> Vec:
        value_of = {}
        for b, row, den in zip(self.basis, self.body, self.den):
            value_of[b] = Fraction(row[-1], den)
        out = []
        for plus, minus in self.col_of_var:
            x = value_of.get(plus, _ZERO)
            if self.flipped[plus]:
                x = _ONE - x
            if minus is not None:
                x -= value_of.get(minus, _ZERO)
            out.append(x)
        return tuple(out)


def _eliminate(row, den, prow, pd, pc, nz):
    """Zero column ``pc`` of ``row``/``den`` with the pivot row ``prow``/``pd``.

    The pivot entry of ``prow`` is ``pd`` itself (the value 1), so the result
    is (pd*row - f*prow) / (den*pd) with f = row[pc]; only the pivot row's
    nonzero columns ``nz`` take the subtraction.  When pd == 1, ``row`` is
    updated in place.
    """
    f = row[pc]
    if pd != 1:
        row = [pd * v for v in row]
        den *= pd
    for j in nz:
        row[j] -= f * prow[j]
    if den != 1:
        g = gcd(den, *row)
        if g != 1:
            row = [v // g for v in row]
            den //= g
    return row, den


def lp_solve(lp: LinearProgram) -> LpResult:
    """Exact optimum of ``lp`` (maximization), deterministic via Bland's rule."""
    _validate(lp)

    live = []
    cert = None
    for idx, (coeffs, rel, rhs) in enumerate(lp.constraints):
        if any(coeffs):
            live.append(idx)
        elif (rhs > 0) if rel == GE else (rhs != 0):
            # 0 >= rhs > 0 or 0 = rhs != 0: this row alone is infeasible
            y = [_ZERO] * len(expanded_rows(lp))
            y[idx] = _ONE if rel == EQ and rhs < 0 else Fraction(-1)
            cert = tuple(y)
            break

    if cert is None:
        tab = _Tableau(lp, live)
        cert = tab.phase_one()
    if cert is not None:
        if not _farkas_holds(lp, cert):
            raise InternalError("invalid Farkas certificate")
        return LpResult(INFEASIBLE, None, None, cert)
    status = tab.phase_two()
    if status == UNBOUNDED:
        return LpResult(UNBOUNDED, None, None)
    x = tab.solution()
    value = sum((c * v for c, v in zip(lp.objective, x) if c and v), _ZERO)
    return LpResult(OPTIMAL, x, value)
