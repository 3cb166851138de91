from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasihopf import errors, linalg
from quasihopf.fields import QQ, FpElement, PrimeField

from linalg_case import (reference_in_span, reference_invert, reference_nullspace,
                         reference_rref, reference_solve)

FP = PrimeField(10007)


def combined(draw, out, scalar):
    """A row that repeats or combines earlier rows of ``out``."""
    a, b = draw(st.sampled_from(out)), draw(st.sampled_from(out))
    c = draw(scalar)
    return [u + c * v for u, v in zip(a, b)]


@st.composite
def fp_matrices(draw):
    """Random matrices over F_p, singular ones included: mostly zeros and
    residues near 0 and p, and rows that repeat or combine earlier rows."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(1, 7))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, 5003, 10006, 3])
    scalar = entry.map(FP.from_int)
    out = []
    for _ in range(rows):
        if out and draw(st.booleans()):
            out.append(combined(draw, out, scalar))
        else:
            out.append([FP.from_int(draw(entry)) for _ in range(cols)])
    return out


@settings(max_examples=200, deadline=None)
@given(fp_matrices())
def test_residue_rref_matches_value_elimination(matrix):
    # the F_p elimination on residues gives the rows and pivots of the
    # same elimination run on FpElement values
    before = [row[:] for row in matrix]
    red, pivots = linalg.rref(FP, matrix)
    assert (red, pivots) == reference_rref(FP, matrix)
    assert matrix == before
    for row in red:
        assert all(type(v) is FpElement and v.p == FP.p for v in row)
    for vec in linalg.nullspace(FP, matrix):
        assert all(sum((a * b for a, b in zip(row, vec)), FP.zero) == 0 for row in matrix)


# rationals with denominators up to 10^6: zero often, small values, and
# numerators and denominators near the bound
Q_ENTRY = st.one_of(
    st.just(Fraction(0)), st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)),
    st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 6)))


@st.composite
def q_matrices(draw, rows=None, cols=None):
    """Random rational matrices, wide and tall: zero rows, repeated rows
    and combinations of earlier rows, so singular ones are common."""
    rows = draw(st.integers(0, 7)) if rows is None else rows
    cols = draw(st.integers(1, 8)) if cols is None else cols
    out = []
    for _ in range(rows):
        kind = draw(st.sampled_from(["fresh", "fresh", "zero", "combined"]))
        if kind == "zero":
            out.append([Fraction(0)] * cols)
        elif kind == "combined" and out:
            out.append(combined(draw, out, Q_ENTRY))
        else:
            out.append([draw(Q_ENTRY) for _ in range(cols)])
    return out


@st.composite
def q_systems(draw):
    """(matrix, rhs, vector, square): a right-hand side and a vector that
    are either drawn freshly or combined from the columns and the rows of
    the matrix, and a square matrix for ``invert``."""
    matrix = draw(q_matrices())
    rows, cols = len(matrix), len(matrix[0]) if matrix else draw(st.integers(1, 8))
    if rows and draw(st.booleans()):
        x = [draw(Q_ENTRY) for _ in range(cols)]
        rhs = [sum((a * b for a, b in zip(row, x)), Fraction(0)) for row in matrix]
    else:
        rhs = [draw(Q_ENTRY) for _ in range(rows)]
    if rows and draw(st.booleans()):
        coeffs = [draw(Q_ENTRY) for _ in range(rows)]
        vector = [sum((c * row[j] for c, row in zip(coeffs, matrix)), Fraction(0))
                  for j in range(cols)]
    else:
        vector = [draw(Q_ENTRY) for _ in range(cols)]
    n = draw(st.integers(0, 6))
    return matrix, rhs, vector, draw(q_matrices(rows=n, cols=max(n, 1)))[:n]


def assert_fractions(rows):
    for row in rows:
        assert all(type(v) is Fraction for v in row)


@settings(max_examples=300, deadline=None)
@given(q_systems())
def test_integer_elimination_matches_value_elimination(system):
    # over Q every linalg function equals the Fraction value elimination
    matrix, rhs, vector, square = system
    before = [row[:] for row in matrix]
    red, pivots = linalg.rref(QQ, matrix)
    assert (red, pivots) == reference_rref(QQ, matrix)
    assert_fractions(red)
    assert matrix == before
    assert linalg.rank(QQ, matrix) == len(pivots)
    null = linalg.nullspace(QQ, matrix)
    assert null == reference_nullspace(QQ, matrix)
    assert_fractions(null)
    if matrix:
        want = reference_solve(QQ, matrix, rhs)
        if want is None:
            with pytest.raises(linalg.NotInvertible):
                linalg.solve(QQ, matrix, rhs)
        else:
            assert linalg.solve(QQ, matrix, rhs) == want
    assert linalg.in_span(QQ, matrix, vector) == reference_in_span(QQ, matrix, vector)
    want = reference_invert(QQ, square)
    if want is None:
        with pytest.raises(linalg.NotInvertible):
            linalg.invert(QQ, square)
    else:
        assert linalg.invert(QQ, square) == want


FRACTION_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                "__truediv__", "__rtruediv__", "__neg__")


def test_q_linalg_does_no_fraction_arithmetic(monkeypatch):
    # the Q path works on integer numerators and forms each Fraction from
    # two ints; no + - * / on Fraction values is left in linalg
    matrix = [[Fraction(1, 2), Fraction(-3, 7), Fraction(0), Fraction(5)],
              [Fraction(2, 3), Fraction(1), Fraction(4, 9), Fraction(0)],
              [Fraction(7, 6), Fraction(4, 7), Fraction(4, 9), Fraction(6)]]
    square = [row[:3] for row in matrix[:2]] + [[Fraction(1), Fraction(0), Fraction(1, 5)]]
    rhs = [Fraction(1), Fraction(2, 5), Fraction(7, 5)]
    vector = [a + b for a, b in zip(*matrix[:2])]
    calls = {
        "rref": lambda: linalg.rref(QQ, matrix),
        "rank": lambda: linalg.rank(QQ, matrix),
        "solve": lambda: linalg.solve(QQ, matrix, rhs),
        "nullspace": lambda: linalg.nullspace(QQ, matrix),
        "invert": lambda: linalg.invert(QQ, square),
        "in_span": lambda: linalg.in_span(QQ, matrix, vector),
    }
    want = {"rref": reference_rref(QQ, matrix), "rank": 3,
            "solve": reference_solve(QQ, matrix, rhs),
            "nullspace": reference_nullspace(QQ, matrix),
            "invert": reference_invert(QQ, square), "in_span": True}
    used = []

    def spy(name):
        def refuse(*args):
            used.append(name)
            raise AssertionError("Fraction.%s called" % name)
        return refuse

    for name in FRACTION_OPS:
        monkeypatch.setattr(Fraction, name, spy(name))
    got = {name: call() for name, call in calls.items()}
    monkeypatch.undo()
    assert used == []
    assert got == want


def test_not_invertible_is_the_package_error():
    # a singular solve reaches the command line as "error: ...", not a traceback
    assert linalg.NotInvertible is errors.NotInvertible
    assert issubclass(linalg.NotInvertible, errors.QuasiHopfError)
    with pytest.raises(errors.NotInvertible, match="singular matrix"):
        linalg.invert(FP, [[FP.one, FP.one], [FP.one, FP.one]])
