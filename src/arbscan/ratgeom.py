"""Exact rational linear programming and the convex-geometry predicates on top of it.

Inputs and outputs are exact: every coefficient, right-hand side and bound
is an ``int`` or a ``fractions.Fraction``, and every solution, objective
value and certificate entry a ``Fraction``; there are no floats and no
tolerances anywhere.  The solver is a two-phase dense-tableau simplex with
Bland's anti-cycling pivot rule (lowest eligible column index enters, ratio
ties broken by lowest leaving column index), which makes every result both
terminating and bit-reproducible.

The solver takes exactly the programs arbscan builds: rows ``=`` or ``>=``
over variables that are free, nonnegative or capped in [0, 1], the one cap
of the maximal-strict-set slacks.  It is a bounded-variable simplex
(Dantzig 1955): a capped variable is a column with no row, held at either
bound while nonbasic, so a capped slack costs no tableau row.  The tableau
is fraction-free: each row keeps integer numerators over one positive row
denominator, reduced by their gcd, so it holds the same rationals as a
``Fraction`` tableau would, and ``Fraction``s appear only where results are
read off: one per nonzero entry of a solution, and one for its objective
value, summed on the numerators.  Infeasible programs come back with
a Farkas certificate over the constraints and one row -x_j >= -1 per cap,
that callers can re-verify with :func:`verify_farkas_certificate`.

Phase 1 runs the simplex only when some artificial variable starts above 0.
When every one starts at 0, as on the homogeneous martingale rows of
``oracle.oracle_support``, the starting basis already attains phase 1's
bound of 0, so it takes no pivot.  Either way the artificials are then
driven out of the basis, and their columns are cut from the tableau before
phase 2.  Only an LP whose artificials all start at 0 can end on another
optimal vertex than a phase 1 with degenerate pivots would reach; its
status and objective value are the same.

An ``int`` is as exact as the equal ``Fraction`` and far cheaper to add,
compare and hash, so the LPs built here and in ``oracle`` hold ``int``s
wherever a number is integral: the structural 0, +-1, counts, right-hand
sides and caps, and the increments of integral prices.  A row of ``int``s
enters the tableau as it is, after one type screen; any other row is
scaled by the lcm of its denominators, which is 1 for ``3`` and for
``Fraction(3)`` alike, so both give the same integer tableau, the same
pivots and bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul
from typing import Collection, Optional, Sequence, Union

from .errors import DomainError, InternalError

# An exact vector: each entry an ``int`` or a ``Fraction`` (integral prices
# load as ``int``s).  Entries compare, hash and print by value, so equal
# vectors of either type are interchangeable keys.
Vec = tuple[Union[int, Fraction], ...]

EQ = "="
GE = ">="
RELATIONS = (EQ, GE)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_ZERO = Fraction(0)
_ONE = Fraction(1)


# the digit limit Python applies to int(str), so a decimal exponent can add
# no more digits than a plain digit string may have
_MAX_EXPONENT = 4300


def rat(value) -> Fraction:
    """Convert an int, Fraction, "p/q" string or decimal string to a Fraction.

    Floats are rejected: binary floats have no canonical exact meaning here.
    So are decimal exponents beyond +-4300, which would build huge integers.
    So are strings holding ``_`` or a non-ASCII character, or with
    whitespace around the number, which Python's ``Fraction`` parser would
    read: ``"1_0"`` as 10, a typo of ``"1.0"``, other scripts' digits, such
    as ``"١٠"``, as 10 too, and ``" 1/2"`` as 1/2.
    """
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        if "_" in value or not value.isascii() or value != value.strip():
            raise ValueError(
                f"not a rational: {value!r} (use ASCII digits, no '_' or surrounding whitespace)"
            )
        _mantissa, e, exponent = value.upper().partition("E")
        try:
            if not (e and abs(int(exponent)) > _MAX_EXPONENT):
                return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational: {value!r}") from exc
        raise ValueError(
            f"not a rational: {value!r} (decimal exponent beyond +-{_MAX_EXPONENT})"
        )
    raise ValueError(f"not a rational: {value!r} (use an integer or a string)")


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), _ZERO)


def over_common_denominator(values: Collection[Fraction]) -> tuple[list[int], int]:
    """Integer numerators of ``values`` over the lcm of their denominators.

    Exact sums and dot products then run on ints, several times faster than
    on ``Fraction``s, which reduce after every operation.
    """
    dens = [v.denominator for v in values]
    den = lcm(*dens)
    return [v.numerator * (den // d) for v, d in zip(values, dens)], den


@dataclass(frozen=True)
class LinearProgram:
    """maximize objective . x  subject to rows ``coeffs . x rel rhs`` and bounds.

    Every number is an ``int`` or a ``Fraction``; ``bool``, ``float`` and
    every other type are rejected by :func:`lp_solve`.  An ``int`` and the
    equal ``Fraction`` pose the same program and give the same result, but
    ``int``s are cheaper to check and to scale, so builders use them for
    integral numbers.

    Each row's relation is ``EQ`` or ``GE``.  ``bounds`` holds one (lower,
    upper) pair per variable, of one of three kinds: free ``(None, None)``,
    nonnegative ``(0, None)`` or capped ``(0, 1)``; ``None`` stands for
    every variable free.  A capped variable adds no constraint row, and the
    Farkas certificate of an infeasible program covers each cap as a row
    -x_j >= -1 (see :func:`expanded_rows`).  :func:`lp_solve` rejects any
    other relation or bound, a cap other than 1 included, with
    ``ValueError``.
    """

    objective: Vec
    constraints: tuple[tuple[Vec, str, Fraction], ...]
    bounds: Optional[tuple[tuple[Optional[Fraction], Optional[Fraction]], ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "objective", tuple(self.objective))
        object.__setattr__(
            self,
            "constraints",
            tuple((tuple(c), r, b) for (c, r, b) in self.constraints),
        )
        if self.bounds is None:
            bounds = ((None, None),) * len(self.objective)
        else:
            bounds = tuple(tuple(b) for b in self.bounds)
        object.__setattr__(self, "bounds", bounds)


@dataclass(frozen=True)
class LpResult:
    status: str
    solution: Optional[Vec]
    objective_value: Optional[Fraction]
    certificate: Optional[Vec] = None


def _check_exact(values, where: str) -> None:
    for v in values:
        # exact types first: the isinstance test alone cost 6% of a solve;
        # it stays the fallback so that subclasses pass and bool does not
        t = type(v)
        if t is not int and t is not Fraction and (
            not isinstance(v, (int, Fraction)) or isinstance(v, bool)
        ):
            raise ValueError(f"{where} holds {v!r}; use an int or a Fraction")


_EXACT_TYPES = frozenset({int, Fraction})
_INT_TYPES = frozenset({int})
_BOUND_TYPES = frozenset({int, Fraction, type(None)})
_BOUND_KINDS = frozenset({(None, None), (0, None), (0, 1)})


def _validate(lp: LinearProgram) -> None:
    # one C-level screen per row; _check_exact runs only when it fails, to
    # pass subclasses and to name the offender
    exact = _EXACT_TYPES.issuperset
    n = len(lp.objective)
    if not exact(map(type, lp.objective)):
        _check_exact(lp.objective, "objective")
    for k, (coeffs, rel, rhs) in enumerate(lp.constraints):
        if len(coeffs) != n:
            raise ValueError(f"constraint {k} has arity {len(coeffs)}, expected {n}")
        if rel not in RELATIONS:
            raise ValueError(f"constraint {k} has unknown relation {rel!r}")
        if not exact(map(type, coeffs)):
            _check_exact(coeffs, f"constraint {k}")
        if type(rhs) not in _EXACT_TYPES:
            _check_exact((rhs,), f"constraint {k} right-hand side")
    bounds = lp.bounds
    if len(bounds) != n:
        raise ValueError(f"bounds cover {len(bounds)} variables, expected {n}")
    # with every bound an exact type, equality tells the three kinds apart;
    # the loop below runs only to name an offender, or to pass subclasses
    if _BOUND_TYPES.issuperset(map(type, chain.from_iterable(bounds))) and (
        _BOUND_KINDS.issuperset(bounds)
    ):
        return
    for j, pair in enumerate(bounds):
        _check_exact((b for b in pair if b is not None), f"bounds of variable {j}")
        lo, hi = pair
        if not (lo is None and hi is None or lo == 0 and (hi is None or hi == 1)):
            raise ValueError(
                f"bounds of variable {j} are {pair!r}; use (None, None), (0, None) or (0, 1)"
            )


def expanded_rows(lp: LinearProgram) -> list[tuple[Vec, str, Fraction]]:
    """The constraint system of the Farkas verifier.

    The constraints in order, then one row -x_j >= -1 per capped variable,
    in variable order.  Nonnegativity is the variable's domain, not a row.
    The solver keeps no cap row; it builds this system only to check the
    certificate of an infeasible program.
    """
    n = len(lp.objective)
    rows = list(lp.constraints)
    for j, (_lo, hi) in enumerate(lp.bounds):
        if hi is not None:
            rows.append((tuple(-1 if i == j else 0 for i in range(n)), GE, -1))
    return rows


def verify_farkas_certificate(lp: LinearProgram, certificate: Sequence[Fraction]) -> bool:
    """Check that ``certificate`` proves infeasibility of ``lp``.

    With v over :func:`expanded_rows` and g = sum_i v_i a_i, the conditions are
    v_i <= 0 on >= rows, g_j = 0 for free variables, g_j >= 0 for
    nonnegative and capped ones, and v . b < 0.  Any feasible x would then
    give 0 <= g.x <= v.b < 0.
    """
    _validate(lp)
    return _farkas_holds(lp, certificate)


def _farkas_holds(lp: LinearProgram, certificate: Sequence[Fraction]) -> bool:
    """The test of :func:`verify_farkas_certificate` on a validated ``lp``."""
    rows = expanded_rows(lp)
    if len(certificate) != len(rows):
        return False
    g = [_ZERO] * len(lp.objective)
    vb = _ZERO
    for v_i, (coeffs, rel, rhs) in zip(certificate, rows):
        if rel == GE and v_i > 0:
            return False
        if v_i:
            for j, a in enumerate(coeffs):
                if a:
                    g[j] += v_i * a
            vb += v_i * rhs
    for g_j, (lo, _hi) in zip(g, lp.bounds):
        if g_j < 0 or (lo is None and g_j != 0):
            return False
    return vb < 0


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
    objective row ``obj`` over ``obj_den`` is kept the same way.  A row of
    ``int``s enters as it is, over the denominator 1.

    A capped variable's column is marked in ``cap`` in place of a row.  A
    column at its cap 1 is held as the substitution x = 1 - x': its entries
    are negated and subtracted from the right-hand sides, in place and with
    no change to any row's gcd.  So every nonbasic column sits at 0 and the
    right-hand sides stay the basic values.  ``flipped[c]`` records which
    columns stand for 1 - x.

    The artificial columns are the last ones, ``art_set``.  Once phase 1 has
    driven them out of the basis they are cut from every row, ``cap`` and
    ``flipped``, and ``art_set`` is empty: phase 2 never lets them enter, so
    it pivots on rows that no longer carry them.
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
            if type(rhs) is int and _INT_TYPES.issuperset(map(type, coeffs)):
                den, nums = 1, coeffs
            else:
                # the lcm of the row's denominators makes every entry an integer
                qs = [a.denominator for a in coeffs]
                den = lcm(rhs.denominator, *qs)
                nums = [a.numerator * (den // q) for a, q in zip(coeffs, qs)]
                rhs = rhs.numerator * (den // rhs.denominator)
            row = [0] * (c + 1)
            for a, (plus, minus) in zip(nums, col_of_var):
                if a:
                    row[plus] = v = s * a
                    if minus is not None:
                        row[minus] = -v
            row[-1] = s * rhs
            if k in slack_col:
                row[slack_col[k]] = slack_kind[k] * den
            if k in art_col:
                row[art_col[k]] = den
                basis.append(art_col[k])
            else:
                basis.append(slack_col[k])
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

        The phase-1 objective, minus the sum of the artificials, is bounded
        above by 0.  When every artificial starts at 0, as on homogeneous
        rows, the starting basis already attains that bound, so no pivot is
        taken and the artificials are driven out at once.
        """
        if not self.art_set:
            return None
        if not any(row[-1] for row, b in zip(self.body, self.basis) if b in self.art_set):
            self._drive_out_artificials()
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
        """Pivot every basic artificial out, or drop its row, then cut the artificial columns.

        Each basic artificial sits at 0 here, so each pivot is degenerate.
        """
        first = self.ncols - len(self.art_set)  # the artificials are the last columns
        body, dens, basis = self.body, self.den, self.basis
        r = 0
        while r < len(body):
            if basis[r] >= first:
                row = body[r]
                pc = next((j for j in range(first) if row[j]), None)
                if pc is None:
                    # redundant row: zero over every structural column
                    del body[r]
                    del dens[r]
                    del basis[r]
                    continue
                self._pivot(r, pc)
            r += 1
        # each row drops its artificial entries, and its gcd may drop with them
        for r, row in enumerate(body):
            del row[first:-1]
            den = dens[r]
            if den != 1:
                g = gcd(den, *row)
                if g != 1:
                    body[r] = [v // g for v in row]
                    dens[r] = den // g
        del self.cap[first:], self.flipped[first:]
        self.ncols = first
        self.art_set = frozenset()

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
        return self._simplex(self.ncols)

    def solution(self) -> list[tuple[int, int]]:
        """Each variable's value as an ``int`` numerator over a positive denominator."""
        value_of = {b: (row[-1], den) for b, row, den in zip(self.basis, self.body, self.den)}
        out = []
        for plus, minus in self.col_of_var:
            v, den = value_of.get(plus, (0, 1))
            if self.flipped[plus]:
                v = den - v
            if minus is not None:
                w, d = value_of.get(minus, (0, 1))
                if w:
                    v, den = v * d - w * den, den * d
            out.append((v, den))
        return out


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
    values = tab.solution()
    x = tuple(Fraction(v, den) if v else _ZERO for v, den in values)
    # the objective value is summed over the lcm of its terms' denominators
    terms = [
        (c.numerator * v, c.denominator * den)
        for c, (v, den) in zip(lp.objective, values)
        if c and v
    ]
    common = lcm(*(den for _v, den in terms))
    value = Fraction(sum(v * (common // den) for v, den in terms), common)
    return LpResult(OPTIMAL, x, value)


# ---------------------------------------------------------------------------
# Convex-geometry predicates
# ---------------------------------------------------------------------------


def _check_dims(points: Sequence[Vec]) -> int:
    if not points:
        raise ValueError("point list is empty")
    d = len(points[0])
    for p in points:
        if len(p) != d:
            raise ValueError(f"dimension mismatch: {len(p)} vs {d}")
    return d


def maximal_separator(points: Sequence[Vec]) -> Optional[tuple[Vec, frozenset[int]]]:
    """Separating direction with the largest possible strict set, or None.

    Returns None iff 0 lies in the relative interior of the convex cone
    spanned by the points (no one-sided direction gains anywhere).  Otherwise
    returns (H, strict) with H.x >= 0 for every point, max |H_j| = 1, and
    strict = {i : H.x_i > 0} equal to the union of the strict sets of *every*
    valid separator, so the points outside it carry a strictly positive zero
    combination (Tucker's strict complementarity, 1956): on them it is None.

    Three shapes are answered without an LP, each exactly as the LP below
    answers it, so no answer depends on which path gave it:

    * Points that sum to zero are None, and this covers the all-zero case.
      Proof: if H.x_i >= 0 for every i and sum(x_i) = 0, then
      sum(H.x_i) = 0, so every H.x_i = 0 and no direction gains anywhere.
    * One asset (d = 1): a separator is a nonzero multiple of +1 or -1, so
      max |H| = 1 leaves only H = +1 and H = -1.  H = +1 is valid iff no
      point is negative, H = -1 iff none is positive.  Points of both signs
      get None; otherwise the one valid sign gains on the nonzero points.
    * One distinct point x, repeated or not: H = sign(x_j) e_j at the least
      j with x_j != 0, strict everywhere.  Every H with H.x > 0 is a
      maximal separator here, so which one comes back is the simplex's
      choice, and this is the one Bland's rule makes.  The LP has one row
      H.x - s >= 0, its surplus basic at 0.  The slack s, the only column
      with a positive cost, enters first, and the row stops it at 0, so s
      becomes basic there.  The columns of H then price at +-x, and the
      least eligible is H_j's + column if x_j > 0, its - column if x_j < 0.
      Raising it raises s, which leaves at its cap 1 with |H_j| = 1/|x_j|,
      and no cost is positive after that.  Scaled to max |H_j| = 1, H is
      sign(x_j) e_j.

    Any other set asks :func:`strict_set_lp` over the distinct points, and
    the points strict under its H are the strict set; a slack sum of 0
    leaves no separator at all.
    """
    d = _check_dims(points)
    if not any(map(sum, zip(*points))):
        return None
    index_of: dict[Vec, int] = {}  # each distinct point's index in values
    val_idx = [index_of.setdefault(tuple(p), len(index_of)) for p in points]
    values = list(index_of)

    if d == 1:
        signs = {x > 0 for (x,) in values if x}
        if len(signs) > 1:
            return None
        # the points sum to a nonzero, so one sign is left
        h = (_ONE,) if signs.pop() else (-_ONE,)
        return h, frozenset(i for i, (x,) in enumerate(points) if x)
    if len(values) == 1:
        (x,) = values
        j = next(j for j, c in enumerate(x) if c)
        h = [_ZERO] * d
        h[j] = _ONE if x[j] > 0 else -_ONE
        return tuple(h), frozenset(range(len(points)))

    slacks, h = strict_set_lp(values)
    if not any(slacks):
        return None
    strict_vals = {v for v, x in enumerate(values) if dot(h, x) > 0}
    if not strict_vals:
        raise InternalError("positive slack sum without a strict value")
    scale = max(abs(c) for c in h)
    h_out = tuple(c / scale for c in h)
    strict = frozenset(i for i, v in enumerate(val_idx) if v in strict_vals)
    return h_out, strict


def strict_set_lp(values: Sequence[Vec]) -> tuple[Vec, Vec]:
    """The slacks and the H of the maximal-strict-set LP over distinct vectors.

    The capped-slack LP of Freund, Roundy and Todd (1985): H is free, each
    vector x_v gets a slack s_v in [0, 1] and a row H.x_v - s_v >= 0, and
    the LP maximizes the sum of the slacks.  The sum of two feasible H is
    feasible and strict on the union of their strict sets, so an optimum
    with s_v = 0 on a vector some H is strict on could be improved: the
    vectors with s_v > 0 are exactly those that some H makes strict, and
    this optimum's H makes every one of them strict.  H is not boxed: a box
    would stop H from being scaled up until every strict vector reaches its
    cap, and one optimum could then miss a strict vector.  An optimum
    always exists (H = 0 is feasible and the slacks are capped), so any
    other status raises InternalError.

    Columns: the slacks first, then H.  Bland's rule then makes each s_v
    basic on its own row before any entry of H enters.  On one-period
    16-scenario trees that is 17 pivots in place of 29 with H first, and
    1.0-1.2 ms in place of 3.0-3.2 ms for the oracle's strategy search and
    for backward elimination's separators; the strategy search on trinomial
    trees of 27 scenarios took 3.0 ms in place of 5.9 ms.  Only small random
    markets favour H first (0.56 ms against 0.82 ms for the strategy
    search, 0.45 ms against 0.50 ms for the separators).
    """
    nv, d = len(values), len(values[0])
    constraints = []
    for v, x in enumerate(values):
        row = [0] * nv + list(x)
        row[v] = -1
        constraints.append((tuple(row), GE, 0))
    objective = (1,) * nv + (0,) * d
    bounds = ((0, 1),) * nv + ((None, None),) * d
    res = lp_solve(LinearProgram(objective, tuple(constraints), bounds))
    if res.status != OPTIMAL:
        raise InternalError(f"strict-set LP came back {res.status}")
    return res.solution[:nv], res.solution[nv:]


def cone_ri_contains_zero(points: Sequence[Vec]) -> bool:
    """True iff 0 is in the relative interior of the cone spanned by the points."""
    return maximal_separator(points) is None


def convex_combination_for_zero(points: Sequence[Vec]) -> tuple[list[int], int]:
    """Strictly positive weights summing to 1 with sum(w_i x_i) = 0, min weight maximal.

    The weights come as w_i = nums[i] / den: ``int`` numerators over one
    positive denominator, in lowest terms, as :func:`over_common_denominator`
    makes them.

    The max-min LP over the weights w and a floor s is: maximize s subject
    to sum(w) = 1, sum(w_i x_i) = 0 and w_i >= s >= 0.  A strictly positive
    combination of the points is 0 exactly when 0 lies in the relative
    interior of their cone, so the optimum s is positive exactly then; this
    is the single-LP relative-interior test of Freund, Roundy and Todd
    (1985).  When it is not, a DomainError carries a separating direction as
    certificate.

    It is solved in substituted form, w_i = s + r_i with r, s >= 0: maximize
    s subject to n s + sum(r) = 1 and, per coordinate k,
    (sum_i x_ik) s + sum_i r_i x_ik = 0.  (w, s) -> (w - s, s) maps one
    feasible set onto the other and keeps s, so the optimum is the same, and
    the tableau has 1 + d rows instead of 1 + d + n.

    Points that sum to zero get the equal weights 1/n without an LP, and
    they are the LP's unique optimum.  Proof: they are feasible with floor
    1/n, and weights summing to 1 have min w <= 1/n, with equality only when
    every w_i = 1/n.  Either way the weights are re-checked exactly on the
    numerators they are returned as: 1 over n for the equal weights, so no
    ``Fraction`` is read back for them.
    """
    _check_dims(points)
    n = len(points)
    coords = list(zip(*points))  # coords[k] holds x_ik for every point i
    sums = [sum(coord) for coord in coords]
    if not any(sums):
        nums, den = [1] * n, n
    else:
        # columns: s first, then r; on one-period 16-scenario trees this LP
        # took 0.38 ms against 0.44 ms with r first (1.3 ms with the n floor
        # rows), and about 7% less than r first on small trinomial trees and
        # corpus markets
        constraints = [((n,) + (1,) * n, EQ, 1)]
        for total, coord in zip(sums, coords):
            constraints.append(((total,) + coord, EQ, 0))
        objective = (1,) + (0,) * n
        res = lp_solve(LinearProgram(objective, tuple(constraints), ((0, None),) * (n + 1)))
        if res.status != OPTIMAL or res.objective_value == 0:
            sep = maximal_separator(points)
            raise DomainError(
                "zero is not interior to the cone of the given points",
                certificate=None if sep is None else sep[0],
            )
        s = res.solution[0]
        nums, den = over_common_denominator([s + r for r in res.solution[1:]])
    # the exact re-check: w > 0, sum(w) = 1 and sum(w_i x_i) = 0, on the
    # int numerators, which scale each sum alike and keep its zero
    if not (
        min(nums) > 0
        and sum(nums) == den
        and all(sum(map(mul, nums, coord)) == 0 for coord in coords)
    ):
        raise InternalError("zero-combination weights fail their exact re-check")
    return nums, den
