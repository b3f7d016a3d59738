"""Exact LP solver and convex-geometry predicates."""

import re
from decimal import Decimal
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from arbscan.errors import DomainError, InternalError
from arbscan.ratgeom import (
    EQ,
    GE,
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    _Tableau,
    cone_ri_contains_zero,
    convex_combination_for_zero,
    dot,
    expanded_rows,
    lp_solve,
    maximal_separator,
    rat,
    strict_set_lp,
    verify_farkas_certificate,
)

import reference_simplex
from conftest import strict_set_lp_by_hand


def test_rat_parsing():
    assert rat(3) == F(3)
    assert rat("3/4") == F(3, 4)
    assert rat("2.5") == F(5, 2)
    with pytest.raises(ValueError):
        rat(0.5)
    with pytest.raises(ValueError):
        rat("abc")
    with pytest.raises(ValueError):
        rat(True)


def test_rat_bounds_decimal_exponents():
    # the bound is Python's own int(str) digit limit, so no exponent builds a
    # larger integer than a plain digit string may
    assert rat("1e4300") == F(10) ** 4300
    assert rat("-2.5E-4300") == F(-25, 10 ** 4301)
    assert rat("3e+2") == F(300)
    for text in ("1e4301", "1e-4301", "1E1000000", "-7.5e999999999", "1e" + "9" * 5000):
        with pytest.raises(ValueError, match="not a rational"):
            rat(text)


@pytest.mark.parametrize(
    "text",
    ["1_0", "0.2_5", "1_000/3", "1e1_0", "\u0661\u0660", "\uff11\uff10", "1/\u0663", "\u00a010",
     " 1/2", "1/2\n", "\t3", "0.5 "],
    ids=["underscore", "decimal-underscore", "fraction-underscore", "exponent-underscore",
         "arabic-indic", "fullwidth", "arabic-indic-denominator", "nbsp",
         "leading-space", "trailing-newline", "leading-tab", "trailing-space"],
)
def test_rat_rejects_what_only_python_reads(text):
    # Python's own parser reads each of these ("1_0" as 10, a typo of "1.0")
    assert F(text) > 0
    with pytest.raises(ValueError, match="not a rational"):
        rat(text)


def test_single_constraint_optimum():
    lp = LinearProgram((F(1),), (((F(-1),), GE, F(-3, 2)),), bounds=((F(0), None),))
    res = lp_solve(lp)
    assert res.status == OPTIMAL
    assert res.solution == (F(3, 2),)
    assert res.objective_value == F(3, 2)


def test_contradictory_bounds_infeasible():
    # x >= 2 against the cap x <= 1; the certificate covers the cap as -x >= -1
    lp = LinearProgram((F(1),), (((F(1),), GE, F(2)),), ((F(0), F(1)),))
    res = lp_solve(lp)
    assert res.status == INFEASIBLE
    assert res.certificate == (F(-1), F(-1))
    assert verify_farkas_certificate(lp, res.certificate)
    # the same contradiction between two rows of a free variable
    lp = LinearProgram((F(1),), (((F(1),), GE, F(1)), ((F(-1),), GE, F(0))))
    res = lp_solve(lp)
    assert res.status == INFEASIBLE
    assert verify_farkas_certificate(lp, res.certificate)


@pytest.mark.parametrize("rel, rhs, sign", [(GE, F(1), -1), (EQ, F(1), -1), (EQ, F(-2), 1)])
def test_zero_row_certificate(rel, rhs, sign):
    # a row with no coefficient is infeasible on its own; the certificate
    # charges it alone, and the cap row after it takes 0
    lp = LinearProgram((F(1),), (((F(1),), GE, F(0)), ((F(0),), rel, rhs)), ((F(0), F(1)),))
    res = lp_solve(lp)
    assert res.status == INFEASIBLE
    assert res.certificate == (F(0), F(sign), F(0))
    assert verify_farkas_certificate(lp, res.certificate)


def test_unbounded():
    assert lp_solve(LinearProgram((F(1),), tuple())).status == UNBOUNDED


def test_arity_mismatch_is_structural():
    with pytest.raises(ValueError):
        lp_solve(LinearProgram((F(1),), (((F(1), F(2)), GE, F(0)),)))
    with pytest.raises(ValueError):
        lp_solve(LinearProgram((F(1),), (((F(1),), "<", F(0)),)))


@pytest.mark.parametrize("bad", [0.1, 1.0, True, False, Decimal("1")])
@pytest.mark.parametrize("where", ["objective", "coefficient", "rhs", "lower", "upper"])
def test_inexact_numbers_rejected(where, bad):
    objective, coeffs, rhs, lower, upper = (F(1),), (F(1),), F(1), F(0), F(1)
    if where == "objective":
        objective = (bad,)
    elif where == "coefficient":
        coeffs = (bad,)
    elif where == "rhs":
        rhs = bad
    elif where == "lower":
        lower = bad
    else:
        upper = bad
    lp = LinearProgram(objective, ((coeffs, GE, rhs),), ((lower, upper),))
    # the message names where the number sits and the number itself
    named = {
        "objective": "objective",
        "coefficient": "constraint 0",
        "rhs": "constraint 0 right-hand side",
        "lower": "bounds of variable 0",
        "upper": "bounds of variable 0",
    }[where]
    message = re.escape(f"{named} holds {bad!r}; use an int or a Fraction")
    with pytest.raises(ValueError, match=message):
        lp_solve(lp)
    with pytest.raises(ValueError, match=message):
        verify_farkas_certificate(lp, (F(1), F(0)))


class _Int(int):
    pass


class _Frac(F):
    pass


def test_exact_subclasses_pass_validation():
    # a subclass of int or Fraction fails the exact-type screen and is then
    # accepted by the per-entry check, with the same optimum as the base types
    plain = LinearProgram((1, F(1, 2)), (((1, 1), GE, F(-3)), ((-1, -1), GE, -2)), ((0, None), (0, 1)))
    sub = LinearProgram(
        (_Int(1), _Frac(1, 2)),
        (((_Int(1), _Frac(1)), GE, _Frac(-3)), ((-1, -1), GE, _Int(-2))),
        ((_Int(0), None), (0, _Int(1))),
    )
    assert lp_solve(sub) == lp_solve(plain)


@pytest.mark.parametrize(
    "relation, bound",
    [
        ("<=", (0, None)),
        (GE, (1, None)),
        (GE, (None, 5)),
        (GE, (0, -1)),
        (GE, (-1, None)),
        (GE, (0, 0)),
        (GE, (0, 2)),
        (GE, (0, F(1, 2))),
    ],
)
def test_outside_the_contract_rejected(relation, bound):
    # rows are = or >=; each variable is free, nonnegative or capped in [0, 1]
    lp = LinearProgram((F(1),), (((F(1),), relation, F(0)),), (bound,))
    with pytest.raises(ValueError):
        lp_solve(lp)
    with pytest.raises(ValueError):
        verify_farkas_certificate(lp, (F(-1),))


def test_int_inputs_accepted():
    lp = LinearProgram((1, 2), (((-1, -1), GE, -3),), ((0, None), (0, 1)))
    res = lp_solve(lp)
    assert res.status == OPTIMAL
    assert res.solution == (F(2), F(1))
    assert res.objective_value == 4


def _after_phase_one(lp):
    """The tableau of ``lp`` right after phase 1, built as lp_solve builds it."""
    tab = _Tableau(lp, list(range(len(lp.constraints))))
    assert tab.phase_one() is None
    return tab


def _has_no_artificial(tab, ncols):
    """The artificial columns are cut: ``ncols`` columns, none artificial, and none basic past them."""
    return (
        tab.ncols == ncols
        and not tab.art_set
        and len(tab.cap) == len(tab.flipped) == ncols
        and all(len(row) == ncols + 1 for row in tab.body)
        and all(b < ncols for b in tab.basis)
    )


def test_duplicated_equality_row_is_dropped():
    # x + y = 2 twice: phase 1 leaves the second artificial basic at level 0
    # in a row that is zero over every structural column
    row = ((F(1), F(1)), EQ, F(2))
    lp = LinearProgram((F(1), F(0)), (row, row), ((F(0), None), (F(0), None)))
    tab = _after_phase_one(lp)
    assert len(tab.body) == 1
    assert _has_no_artificial(tab, 2)
    res = lp_solve(lp)
    assert res.status == OPTIMAL
    assert res.solution == (F(2), F(0))


def test_drive_out_pivots_on_negative_entry(monkeypatch):
    # the artificial rows sum to -y, so phase 1 is optimal before any pivot
    # and both artificials leave on a negative entry (-x, then -y)
    signs = []
    pivot = _Tableau._pivot

    def spy(self, r, pc):
        signs.append(self.body[r][pc] < 0)
        pivot(self, r, pc)

    monkeypatch.setattr(_Tableau, "_pivot", spy)
    lp = LinearProgram(
        (F(1), F(1)),
        (
            ((F(-1), F(1)), EQ, F(0)),
            ((F(1), F(-2)), EQ, F(0)),
            ((F(-1), F(-1)), GE, F(-2)),
        ),
        ((F(0), None), (F(0), None)),
    )
    tab = _after_phase_one(lp)
    assert signs == [True, True]
    assert _has_no_artificial(tab, 3)  # x, y and the surplus of the >= row
    res = lp_solve(lp)
    assert res.status == OPTIMAL
    assert res.solution == (F(0), F(0))
    assert res.objective_value == 0


def test_determinism_bit_identical():
    lp = LinearProgram(
        (F(2), F(-1), F(1)),
        (
            ((F(-1), F(-1), F(-1)), GE, F(-4)),
            ((F(1), F(-1), F(0)), GE, F(-2)),
            ((F(0), F(1), F(2)), EQ, F(1)),
            ((F(0), F(0), F(-1)), GE, F(-3)),
        ),
        bounds=((F(0), None), (None, None), (F(0), None)),
    )
    first = lp_solve(lp)
    for _ in range(3):
        assert lp_solve(lp) == first


def _satisfies(lp, x):
    """x meets every row of ``expanded_rows(lp)`` and every zero lower bound."""
    for coeffs, rel, rhs in expanded_rows(lp):
        lhs = dot(coeffs, x)
        if not ((lhs >= rhs) if rel == GE else (lhs == rhs)):
            return False
    return all(v >= 0 for v, (lo, _hi) in zip(x, lp.bounds) if lo == 0)


def test_bland_tie_breaks_pin_the_answer():
    # both LPs have ratio ties whose Bland tie-break (lowest leaving column)
    # decides which optimal vertex or which certificate comes back
    lp = LinearProgram(
        (F(1), F(0), F(0)),
        (
            ((F(1), F(1), F(1)), EQ, F(1)),
            ((F(0), F(-1), F(1)), EQ, F(0)),
            ((F(1), F(1), F(1)), EQ, F(0)),
        ),
        ((F(0), None),) * 3,
    )
    res = lp_solve(lp)
    assert res.status == INFEASIBLE
    assert res.certificate == (F(-1), F(-1), F(2))
    # x0, x1 free in [-1, 1] by rows, x2..x4 in [0, 1] native caps
    unit = lambda j, a: tuple(F(a) if i == j else F(0) for i in range(5))
    lp = LinearProgram(
        (F(0), F(0), F(1), F(1), F(1)),
        (
            ((F(1), F(1), F(-1), F(0), F(0)), GE, F(0)),
            ((F(0), F(1), F(0), F(-1), F(0)), GE, F(0)),
            ((F(0), F(0), F(0), F(0), F(-1)), GE, F(0)),
            (unit(0, 1), GE, F(-1)),
            (unit(1, 1), GE, F(-1)),
            (unit(0, -1), GE, F(-1)),
            (unit(1, -1), GE, F(-1)),
        ),
        ((None, None),) * 2 + ((F(0), F(1)),) * 3,
    )
    # the optimum is 2 on an edge, and the bounded-variable ratio test ends
    # on (0, 1, 1, 1, 0) of it
    res = lp_solve(lp)
    assert res.status == OPTIMAL
    assert res.solution == (F(0), F(1), F(1), F(1), F(0))
    assert res.objective_value == 2
    assert _satisfies(lp, res.solution)


def _rat_coeff():
    # proper fractions make the row denominators and their gcd reduction work
    return st.builds(F, st.integers(min_value=-9, max_value=9), st.integers(1, 9))


# every cap is 1, as in the maximal-strict-set slacks arbscan builds
_bounds = st.sampled_from([(None, None), (F(0), None), (F(0), F(1))])


@st.composite
def _random_lp(draw):
    n = draw(st.integers(1, 4))
    rows = draw(st.integers(1, 5))
    constraints = []
    for _ in range(rows):
        coeffs = tuple(draw(_rat_coeff()) for _ in range(n))
        rel = draw(st.sampled_from([EQ, GE]))
        rhs = draw(_rat_coeff())
        constraints.append((coeffs, rel, rhs))
    objective = tuple(draw(_rat_coeff()) for _ in range(n))
    bounds = tuple(draw(_bounds) for _ in range(n))
    return LinearProgram(objective, tuple(constraints), bounds)


@settings(max_examples=120, deadline=None)
@given(_random_lp())
def test_random_lps_exact_and_certified(lp):
    res = lp_solve(lp)
    if res.status == OPTIMAL:
        assert _satisfies(lp, res.solution)
        assert res.objective_value == dot(lp.objective, res.solution)
    elif res.status == INFEASIBLE:
        assert verify_farkas_certificate(lp, res.certificate)
    else:
        # unbounded needs a feasible point: the same program without an objective
        assert res.status == UNBOUNDED
        zero = LinearProgram((F(0),) * len(lp.objective), lp.constraints, lp.bounds)
        assert lp_solve(zero).status == OPTIMAL
    assert lp_solve(lp) == res


def _scipy_linprog(lp):
    """scipy's HiGHS answer to ``lp`` in floats.

    Presolve is off: with it, HiGHS (scipy 1.17.1) reports some feasible,
    unbounded programs as infeasible, such as the one pinned on
    :func:`test_native_caps_match_scipy`.
    """
    from scipy.optimize import linprog

    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for coeffs, rel, rhs in lp.constraints:
        row = [float(c) for c in coeffs]
        if rel == GE:
            a_ub.append([-c for c in row])
            b_ub.append(-float(rhs))
        else:
            a_eq.append(row)
            b_eq.append(float(rhs))
    as_float = lambda b: None if b is None else float(b)
    return linprog(
        [-float(c) for c in lp.objective],
        A_ub=a_ub or None,
        b_ub=b_ub or None,
        A_eq=a_eq or None,
        b_eq=b_eq or None,
        bounds=[(as_float(lo), as_float(hi)) for lo, hi in lp.bounds],
        method="highs",
        options={"presolve": False},
    )


def _assert_matches_scipy(lp, mine):
    res = _scipy_linprog(lp)
    if mine.status == OPTIMAL:
        assert res.status == 0
        assert abs(-res.fun - float(mine.objective_value)) < 1e-7
    elif mine.status == INFEASIBLE:
        assert res.status == 2
    else:
        assert res.status == 3


@settings(max_examples=60, deadline=None)
@given(_random_lp())
def test_random_lps_match_scipy(lp):
    _assert_matches_scipy(lp, lp_solve(lp))


# ---------------------------------------------------------------------------
# Native caps: variables in [0, 1] take no row
# ---------------------------------------------------------------------------


@st.composite
def _capped_lp(draw):
    """Mostly variables in [0, 1], and a few nonnegative or free; GE rows
    with positive right-hand sides beyond the caps make part of the programs
    infeasible."""
    n = draw(st.integers(1, 5))
    capped = st.just((F(0), F(1)))
    bounds = [draw(st.one_of(capped, capped, _bounds)) for _ in range(n)]
    constraints = []
    for _ in range(draw(st.integers(1, 4))):
        coeffs = tuple(draw(_rat_coeff()) for _ in range(n))
        constraints.append((coeffs, draw(st.sampled_from([EQ, GE])), draw(_rat_coeff())))
    objective = tuple(draw(_rat_coeff()) for _ in range(n))
    return LinearProgram(objective, tuple(constraints), tuple(bounds))


def _caps_as_rows(lp):
    """The same program with every cap as an explicit row -x_j >= -1."""
    n = len(lp.objective)
    rows = list(lp.constraints)
    bounds = []
    for j, (lo, hi) in enumerate(lp.bounds):
        if hi is not None:
            rows.append((tuple(F(-int(i == j)) for i in range(n)), GE, -hi))
        bounds.append((lo, None))
    return LinearProgram(lp.objective, tuple(rows), tuple(bounds))


@settings(max_examples=300, deadline=None)
@given(_capped_lp())
def test_native_caps_exact_and_certified(lp):
    res = lp_solve(lp)
    # the row form takes the solver's path without caps: same status and value
    rows_form = lp_solve(_caps_as_rows(lp))
    assert res.status == rows_form.status
    if res.status == OPTIMAL:
        assert _satisfies(lp, res.solution)
        assert res.objective_value == dot(lp.objective, res.solution)
        assert res.objective_value == rows_form.objective_value
    elif res.status == INFEASIBLE:
        assert len(res.certificate) == len(expanded_rows(lp))
        assert verify_farkas_certificate(lp, res.certificate)
    assert lp_solve(lp) == res


@settings(max_examples=100, deadline=None)
@given(_capped_lp())
# x = 0 is feasible and x3 grows without bound along (0, 1, 1)
@example(LinearProgram(
    (F(0), F(0), F(1)),
    (((F(1), F(-1), F(1)), GE, F(-1)), ((F(-1), F(1), F(-1)), GE, F(0))),
    ((F(0), F(1)), (F(0), None), (F(0), None)),
))
def test_native_caps_match_scipy(lp):
    _assert_matches_scipy(lp, lp_solve(lp))


# ---------------------------------------------------------------------------
# int and Fraction inputs
# ---------------------------------------------------------------------------


def _with_numbers(lp, as_number):
    """``lp`` with ``as_number`` applied to every number in it."""
    def vec_(v):
        return tuple(as_number(x) for x in v)

    bounds = tuple(
        tuple(None if b is None else as_number(b) for b in pair) for pair in lp.bounds
    )
    return LinearProgram(
        vec_(lp.objective),
        tuple((vec_(c), rel, as_number(rhs)) for c, rel, rhs in lp.constraints),
        bounds,
    )


def _int_if_integral(x):
    return x.numerator if x.denominator == 1 else x


@settings(max_examples=150, deadline=None)
@given(st.one_of(_random_lp(), _capped_lp()))
def test_int_and_fraction_lps_agree(lp):
    """The LP with every integral number an ``int`` solves as with every number a ``Fraction``."""
    by_int = lp_solve(_with_numbers(lp, _int_if_integral))
    by_fraction = lp_solve(_with_numbers(lp, F))
    # the repr tells 3 from Fraction(3): results are Fractions either way
    assert repr(by_int) == repr(by_fraction)
    assert by_int == by_fraction


def test_native_caps_reach_both_answers(monkeypatch):
    # maximize x1 + x2 with x1/3 + 2 x2 >= 1: x1 enters and stops at its own
    # cap 1 (a flip), x2 enters at 1/3, and in phase 2 the surplus raises
    # the basic x2 until it leaves at its cap 1
    flips = []
    for name in ("_flip", "_flip_basic"):
        real = getattr(_Tableau, name)
        spy = lambda self, k, name=name, real=real: flips.append(name) or real(self, k)
        monkeypatch.setattr(_Tableau, name, spy)
    lp = LinearProgram((F(1), F(1)), (((F(1, 3), F(2)), GE, F(1)),), ((F(0), F(1)),) * 2)
    res = lp_solve(lp)
    assert flips == ["_flip", "_flip_basic"]
    assert res.status == OPTIMAL
    assert res.solution == (F(1), F(1))
    assert res.objective_value == 2
    # caps too small for a row: x1/2 + x2 <= 3/2 < 2
    lp = LinearProgram((F(0), F(0)), (((F(1, 2), F(1)), GE, F(2)),), ((F(0), F(1)),) * 2)
    res = lp_solve(lp)
    assert res.status == INFEASIBLE
    # over expanded_rows: the GE row, then the two cap rows -x_j >= -1
    assert res.certificate == (F(-1), F(-1, 2), F(-1))
    assert verify_farkas_certificate(lp, res.certificate)


# ---------------------------------------------------------------------------
# The lean tableau against the dense one it replaced
# ---------------------------------------------------------------------------


def _artificials_start_at_zero(lp):
    """Some row gets an artificial, and each such row has right-hand side 0.

    A row with a nonzero coefficient gets an artificial when it is ``=``,
    or ``>=`` with a positive right-hand side; a ``>=`` row with rhs <= 0
    flips and starts on its surplus.
    """
    starts = [rhs for coeffs, rel, rhs in lp.constraints if any(coeffs) and (rel == EQ or rhs > 0)]
    return bool(starts) and not any(starts)


@st.composite
def _parity_lp(draw):
    """Free, nonnegative and capped columns; ``=`` and ``>=`` rows of ints and Fractions.

    Half the programs are homogeneous where it matters: every ``=`` row has
    right-hand side 0 and every ``>=`` row one <= 0, so each artificial
    starts at 0.
    """
    n = draw(st.integers(1, 5))
    number = st.one_of(st.integers(-3, 3), _rat_coeff())
    homogeneous = draw(st.booleans())
    constraints = []
    for _ in range(draw(st.integers(1, 5))):
        coeffs = tuple(draw(number) for _ in range(n))
        rel = draw(st.sampled_from([EQ, GE]))
        if not homogeneous:
            rhs = draw(number)
        elif rel == EQ:
            rhs = 0
        else:
            rhs = draw(st.sampled_from([0, -1, -2, F(-1, 2)]))
        constraints.append((coeffs, rel, rhs))
    objective = tuple(draw(number) for _ in range(n))
    bounds = tuple(draw(_bounds) for _ in range(n))
    return LinearProgram(objective, tuple(constraints), bounds)


@settings(max_examples=400, deadline=None)
@given(_parity_lp())
def test_lean_tableau_matches_the_dense_one(lp):
    phase_two = _Tableau.phase_two
    canonical = []

    def spy(self):
        # the artificial columns are gone, and every row is still reduced
        canonical.append(
            _has_no_artificial(self, self.ncols)
            and all(gcd(den, *row) == 1 for row, den in zip(self.body, self.den))
        )
        return phase_two(self)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(_Tableau, "phase_two", spy)
        res = lp_solve(lp)
    ref = reference_simplex.lp_solve(lp)
    assert all(canonical)
    if _artificials_start_at_zero(lp):
        # phase 1 takes no degenerate pivot here, so phase 2 may start from
        # another basis and end on another optimal vertex of equal value
        assert res.status == ref.status
        assert res.objective_value == ref.objective_value
        if res.status == OPTIMAL:
            assert _satisfies(lp, res.solution)
            assert res.objective_value == dot(lp.objective, res.solution)
    else:
        # the repr tells 3 from Fraction(3), so this is bit for bit
        assert repr(res) == repr(ref)


def test_homogeneous_rows_take_no_phase_one_pivot(monkeypatch):
    # x = y = z <= 1 by two = rows with right-hand side 0 and one >= row:
    # both artificials start at 0, so phase 1 is at its optimum at once
    calls = []
    simplex = _Tableau._simplex

    def spy(self, ncand):
        calls.append((ncand, bool(self.art_set)))
        return simplex(self, ncand)

    monkeypatch.setattr(_Tableau, "_simplex", spy)
    bounds = ((0, None),) * 3
    rows = [((1, -1, 0), EQ, 0), ((0, 1, -1), EQ, 0), ((-1, -1, -1), GE, -3)]
    lp = LinearProgram((1, 1, 1), tuple(rows), bounds)
    tab = _after_phase_one(lp)
    assert calls == []
    # x, y, z and the surplus of the >= row; the two artificials are cut
    assert _has_no_artificial(tab, 4)
    res = lp_solve(lp)
    assert calls == [(4, False)]  # phase 2 only
    assert res.solution == (1, 1, 1) and res.objective_value == 3
    # x = y + 1: that artificial starts at 1, so phase 1 pivots over all 6 columns
    calls.clear()
    rows[0] = ((1, -1, 0), EQ, 1)
    res = lp_solve(LinearProgram((1, 1, 1), tuple(rows), bounds))
    assert calls == [(6, True), (4, False)]
    assert res.solution == (F(5, 3), F(2, 3), F(2, 3)) and res.objective_value == 3


# ---------------------------------------------------------------------------
# Convex geometry
# ---------------------------------------------------------------------------


def test_cone_ri_examples():
    assert cone_ri_contains_zero([(F(0),)])
    assert not cone_ri_contains_zero([(F(1),), (F(0),)])
    # brute-force grid oracle: a valid one-sided direction exists, e.g. (-2, 1)
    pts = [(F(1), F(5)), (F(0), F(0)), (F(-1), F(-1))]
    grid = [F(k, 2) for k in range(-4, 5)]
    witnesses = [
        (a, b)
        for a in grid
        for b in grid
        if all(a * x + b * y >= 0 for x, y in pts)
        and any(a * x + b * y > 0 for x, y in pts)
    ]
    assert (F(-2), F(1)) in witnesses
    assert not cone_ri_contains_zero(pts)


def test_maximal_separator_examples():
    h, strict = maximal_separator([(F(1),), (F(0),)])
    assert h == (F(1),) and strict == frozenset({0})
    assert maximal_separator([(F(1),), (F(-1),)]) is None
    assert maximal_separator([(F(0), F(0))]) is None


def _point_strict_feasible(points, i):
    d = len(points[0])
    cons = [(tuple(p), GE, F(0)) for p in points]
    cons.append((tuple(points[i]), GE, F(1)))
    lp = LinearProgram(tuple(F(0) for _ in range(d)), tuple(cons))
    return lp_solve(lp).status == OPTIMAL


def test_separator_handles_capped_slack_ties():
    # every point here is strict under some separator.  With H boxed in
    # [-1,1]^2 a single slack LP could stop short: H = (a, 1) for a in [0, 1]
    # ties at objective 2, and a = 0 or a = 1 leaves a point out.  With H
    # free, H = (1, 2) reaches 3, so the one LP makes all three strict.
    pts = [(F(1), F(0)), (F(0), F(1)), (F(-1), F(1))]
    h, strict = maximal_separator(pts)
    assert strict == frozenset({0, 1, 2})
    assert all(dot(h, p) > 0 for p in pts)


_coord = st.integers(-3, 3).map(F)
_point = st.tuples(_coord, _coord)
_points_1_to_3d = st.integers(1, 3).flatmap(
    lambda d: st.lists(st.tuples(*[_coord] * d), min_size=1, max_size=6)
)


@settings(max_examples=150, deadline=None)
@given(_points_1_to_3d)
def test_separator_xor_and_maximality(points):
    points = [tuple(p) for p in points]
    found = maximal_separator(points)
    assert cone_ri_contains_zero(points) == (found is None)
    oracle = {i for i in range(len(points)) if _point_strict_feasible(points, i)}
    if found is None:
        assert not oracle
    else:
        h, strict = found
        assert strict == frozenset(oracle)
        for i, p in enumerate(points):
            assert dot(h, p) >= 0
            assert (dot(h, p) > 0) == (i in strict)
        assert max(abs(c) for c in h) == 1


@st.composite
def _distinct_points(draw):
    """One to six distinct points in Z^d or Q^d, d <= 3, zero allowed."""
    coord = st.integers(-3, 3)
    if draw(st.booleans()):
        coord = st.builds(F, st.integers(-6, 6), st.integers(1, 4))
    d = draw(st.integers(1, 3))
    return draw(st.lists(st.tuples(*[coord] * d), min_size=1, max_size=6, unique=True))


@settings(max_examples=200, deadline=None)
@given(_distinct_points())
def test_strict_set_lp_slacks_mark_exactly_the_strict_vectors(values):
    slacks, h = strict_set_lp(values)
    assert len(slacks) == len(values) and len(h) == len(values[0])
    assert all(0 <= s <= 1 and dot(h, x) >= s for s, x in zip(slacks, values))
    assert [s > 0 for s in slacks] == [dot(h, x) > 0 for x in values]
    # maximal: a vector some H is strict on has a positive slack
    assert {v for v, s in enumerate(slacks) if s > 0} == {
        v for v in range(len(values)) if _point_strict_feasible(values, v)
    }
    assert (sum(slacks) == 0) == (maximal_separator(values) is None)


@pytest.mark.parametrize("status", [INFEASIBLE, UNBOUNDED])
def test_strict_set_lp_raises_on_a_non_optimal_status(monkeypatch, status):
    import arbscan.ratgeom as ratgeom

    monkeypatch.setattr(ratgeom, "lp_solve", lambda lp: ratgeom.LpResult(status, None, None))
    with pytest.raises(InternalError, match=f"strict-set LP came back {status}"):
        strict_set_lp([(1, 0), (0, 1)])


@st.composite
def _degenerate_points(draw, dims=st.integers(1, 4), min_distinct=1):
    """Points in Z^d or Q^d, d <= 4, with zeros, duplicates and +-pairs mixed in.

    At least ``min_distinct`` of the points are distinct.
    """
    d = draw(dims)
    coord = st.integers(-3, 3)
    if draw(st.booleans()):
        coord = st.builds(F, st.integers(-6, 6), st.integers(1, 4))
    points = draw(st.lists(
        st.tuples(*[coord] * d), min_size=min_distinct, max_size=6, unique=min_distinct > 1
    ))
    points += draw(st.lists(st.sampled_from(points), max_size=3))
    points += [(0,) * d] * draw(st.integers(0, 2))
    points += [tuple(-x for x in p) for p in draw(st.lists(st.sampled_from(points), max_size=2))]
    return draw(st.permutations(points))


@settings(max_examples=300, deadline=None)
@given(_degenerate_points())
def test_one_maximal_separator_leaves_a_strictly_balanced_residual(points):
    # the points the maximal separator does not gain on carry a strictly
    # positive zero combination (Tucker's strict complementarity), so a
    # second separator LP on them never finds a gain
    found = maximal_separator(points)
    strict = frozenset() if found is None else found[1]
    rest = [p for i, p in enumerate(points) if i not in strict]
    if rest:
        assert maximal_separator(rest) is None
        assert _is_zero_combination(_weights(rest), rest)


def _weights(points):
    """``convex_combination_for_zero(points)`` as ``Fraction``s, its pair checked in lowest terms."""
    nums, den = convex_combination_for_zero(points)
    assert all(type(v) is int for v in nums) and type(den) is int
    assert den > 0 and gcd(den, *nums) == 1
    return tuple(F(v, den) for v in nums)


def _is_zero_combination(lam, points):
    d = len(points[0])
    return (
        len(lam) == len(points)
        and all(w > 0 for w in lam)
        and sum(lam) == 1
        and all(sum(w * p[k] for w, p in zip(lam, points)) == 0 for k in range(d))
    )


def test_convex_combination_examples():
    cases = [
        [(F(1),), (F(-1),)],
        [(F(0),)],
        [(F(2),), (F(-1),), (F(0),)],
        [(F(1), F(0)), (F(-1), F(0)), (F(0), F(1)), (F(0), F(-1))],
        [(F(3, 2), F(-1)), (F(-1, 2), F(1, 3)), (F(-1, 2), F(1, 3))],
    ]
    for points in cases:
        assert _is_zero_combination(_weights(points), points)
    # the smallest weight is as large as possible: 2w1 = w2, w3 >= w1
    assert convex_combination_for_zero(cases[2]) == ([1, 2, 1], 4)


def test_convex_combination_precondition_error():
    with pytest.raises(DomainError) as info:
        convex_combination_for_zero([(F(1),), (F(2),)])
    sep = info.value.certificate
    assert sep is not None
    assert all(dot(sep, p) > 0 for p in [(F(1),), (F(2),)])
    # 0 is in the hull but on its boundary: no strictly positive weights
    points = [(F(1),), (F(0),)]
    with pytest.raises(DomainError) as info:
        convex_combination_for_zero(points)
    sep = info.value.certificate
    assert [dot(sep, p) for p in points] == [F(1), F(0)]


@settings(max_examples=100, deadline=None)
@given(st.lists(_point, min_size=1, max_size=6))
def test_convex_combination_exactness(points):
    points = [tuple(p) for p in points]
    if not cone_ri_contains_zero(points):
        with pytest.raises(DomainError):
            convex_combination_for_zero(points)
        return
    assert _is_zero_combination(_weights(points), points)


def _max_min_literal(points):
    """The max-min LP with one floor row per point: w_i - s >= 0, sum(w) = 1, sum(w_i x_i) = 0."""
    d, n = len(points[0]), len(points)
    constraints = [((F(1),) * n + (F(0),), EQ, F(1))]
    for k in range(d):
        constraints.append((tuple(p[k] for p in points) + (F(0),), EQ, F(0)))
    for i in range(n):
        row = [F(0)] * (n + 1)
        row[i], row[n] = F(1), F(-1)
        constraints.append((tuple(row), GE, F(0)))
    objective = (F(0),) * n + (F(1),)
    res = lp_solve(LinearProgram(objective, tuple(constraints), ((F(0), None),) * (n + 1)))
    if res.status != OPTIMAL or res.objective_value == 0:
        raise DomainError("zero is not interior to the cone of the given points")
    return res.solution[:n]


@st.composite
def _zero_combination_inputs(draw):
    d = draw(st.integers(1, 4))
    points = draw(st.lists(st.tuples(*[_coord] * d), min_size=1, max_size=7))
    points += draw(st.lists(st.sampled_from(points), max_size=4))
    points += [(F(0),) * d] * draw(st.integers(0, 2))
    if draw(st.booleans()):
        # a set that sums to zero has the uniform weights
        points.append(tuple(-sum(column) for column in zip(*points)))
    return draw(st.permutations(points))


@settings(max_examples=300, deadline=None)
@given(_zero_combination_inputs())
def test_convex_combination_matches_max_min_literal(points):
    try:
        literal = _max_min_literal(points)
    except DomainError:
        with pytest.raises(DomainError):
            convex_combination_for_zero(points)
        return
    lam = _weights(points)
    assert _is_zero_combination(lam, points)
    # the optimal vertex may differ; the largest minimum weight may not
    assert min(lam) == min(literal)


def test_convex_combination_is_one_lp_with_1_plus_d_rows(monkeypatch):
    import arbscan.ratgeom as ratgeom

    solved = []
    real = ratgeom.lp_solve

    def spy(lp):
        solved.append(lp)
        return real(lp)

    monkeypatch.setattr(ratgeom, "lp_solve", spy)
    # (points, whether they sum to 0)
    cases = [
        ([(F(1),), (F(-1),)], True),
        ([(F(2),), (F(-1),), (F(0),), (F(0),)], False),
        ([(F(1), F(0), F(2)), (F(-1), F(0), F(-1)), (F(0), F(1), F(0)), (F(0), F(-1), F(-1))], True),
        ([(2, 0, 1), (-1, 0, -1), (-1, 0, 0), (0, 2, 0), (0, -1, 0)], False),
        ([(F(3, 2), F(-1)), (F(-1, 2), F(1, 3)), (F(-1, 2), F(1, 3))] * 5, False),
    ]
    for points, balanced in cases:
        solved.clear()
        lam = _weights(points)
        assert _is_zero_combination(lam, points)
        if balanced:
            assert not solved
            assert lam == (F(1, len(points)),) * len(points)
        else:
            assert len(solved) == 1
            assert len(expanded_rows(solved[0])) == 1 + len(points[0])


def _separator_by_lp(points):
    """The capped-slack separator LP of ``maximal_separator``, asked even of balanced points."""
    values = list(dict.fromkeys(tuple(p) for p in points))
    if all(not any(v) for v in values):
        return None
    nv = len(values)
    res = lp_solve(strict_set_lp_by_hand(values))
    assert res.status == OPTIMAL
    if res.objective_value == 0:
        return None
    h = res.solution[nv:]
    scale = max(abs(c) for c in h)
    return tuple(c / scale for c in h), frozenset(
        i for i, p in enumerate(points) if dot(h, p) > 0
    )


def _weights_by_lp(points):
    """The substituted max-min LP of ``convex_combination_for_zero``, asked even of balanced points."""
    n = len(points)
    coords = list(zip(*points))
    constraints = [((n,) + (1,) * n, EQ, 1)]
    for coord in coords:
        constraints.append(((sum(coord),) + coord, EQ, 0))
    res = lp_solve(LinearProgram((1,) + (0,) * n, tuple(constraints), ((0, None),) * (n + 1)))
    if res.status != OPTIMAL or res.objective_value == 0:
        raise DomainError("zero is not interior to the cone of the given points")
    s = res.solution[0]
    return tuple(s + r for r in res.solution[1:])


@settings(max_examples=300, deadline=None)
@given(_degenerate_points(dims=st.integers(2, 4), min_distinct=2), st.booleans())
def test_balanced_points_are_answered_without_an_lp(points, balance):
    # points summing to 0 have the equal weights as a strictly positive zero
    # combination, so nothing separates them and the max-min LP's unique
    # optimum is the equal weights: both predicates answer without an LP,
    # and answer what the LP would.  Two or more distinct points of two or
    # more assets are no closed-form separator shape, so unbalanced ones
    # still ask exactly one LP each.
    import arbscan.ratgeom as ratgeom

    if balance:
        points = points + [tuple(-sum(coord) for coord in zip(*points))]
    balanced = all(sum(coord) == 0 for coord in zip(*points))
    separator = _separator_by_lp(points)
    try:
        weights = _weights_by_lp(points)
    except DomainError:
        weights = None
    if balanced:
        assert separator is None
        assert weights == (F(1, len(points)),) * len(points)
    solved = []
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(ratgeom, "lp_solve", lambda lp: solved.append(lp) or lp_solve(lp))
        assert maximal_separator(points) == separator
        # the one LP is laid out as the hand-built one, so it takes the same pivots
        values = list(dict.fromkeys(map(tuple, points)))
        assert solved == ([] if balanced else [strict_set_lp_by_hand(values)])
        solved.clear()
        if weights is None:
            with pytest.raises(DomainError):
                convex_combination_for_zero(points)
        else:
            assert _weights(points) == weights
            assert len(solved) == (0 if balanced else 1)


# the LP's answer on [2, -1, 0] is s = 1/4, r = (0, 1/4, 0); each broken
# answer fails exactly one of the three checks
@pytest.mark.parametrize(
    "broken",
    [
        (F(1, 4), F(1, 4), F(0), F(0)),  # sums to 1, but sum(w_i x_i) = 3/4
        (F(1, 2), F(0), F(1, 2), F(0)),  # a zero combination summing to 2
        (F(0), F(1, 3), F(2, 3), F(0)),  # a zero combination with a zero weight
    ],
)
def test_convex_combination_rechecks_its_weights(monkeypatch, broken):
    import arbscan.ratgeom as ratgeom

    real = ratgeom.lp_solve

    def broken_solve(lp):
        res = real(lp)
        assert res.solution == (F(1, 4), F(0), F(1, 4), F(0))
        return ratgeom.LpResult(res.status, broken, res.objective_value)

    monkeypatch.setattr(ratgeom, "lp_solve", broken_solve)
    with pytest.raises(InternalError, match="re-check"):
        convex_combination_for_zero([(F(2),), (F(-1),), (F(0),)])


@st.composite
def _closed_form_points(draw):
    """One-asset points, or one distinct point repeated, in Z^d or Q^d.

    One-asset draws mix in zeros, repeats and both signs.  A repeated point
    may be all zero, and comes as ``int``s and as the equal ``Fraction``s,
    which are one point.
    """
    coord = st.integers(-3, 3)
    if draw(st.booleans()):
        coord = st.builds(F, st.integers(-6, 6), st.integers(1, 4))
    if draw(st.booleans()):
        points = draw(st.lists(st.tuples(coord), min_size=1, max_size=7))
        points += [(0,)] * draw(st.integers(0, 2))
        points += draw(st.lists(st.sampled_from(points), max_size=3))
    else:
        x = draw(st.tuples(*[coord] * draw(st.integers(1, 4))))
        points = [x] * draw(st.integers(1, 4)) + [tuple(map(F, x))] * draw(st.integers(0, 2))
    return draw(st.permutations(points))


@settings(max_examples=400, deadline=None)
@given(_closed_form_points())
def test_one_asset_and_one_point_separators_are_the_lps_answer_without_an_lp(points):
    # with one asset the separators are +1 and -1; one distinct point gets
    # the vertex Bland's rule reaches, sign(x_j) e_j at the least nonzero
    # x_j: either way the answer, its types included, is the LP's
    import arbscan.ratgeom as ratgeom

    separator = _separator_by_lp(points)
    solved = []
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(ratgeom, "lp_solve", lambda lp: solved.append(lp) or lp_solve(lp))
        found = maximal_separator(points)
    assert not solved
    assert found == separator
    if found is not None:
        assert all(type(c) is F for c in found[0])
        assert [type(c) for c in found[0]] == [type(c) for c in separator[0]]
