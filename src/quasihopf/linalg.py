"""Dense exact elimination, and what is read off it: the reduced row
echelon form, rank, a solution, a nullspace basis, an inverse, and span
membership.

Matrices are lists of row lists over one of the scalar backends from
``fields``.  Sizes in this package stay small (at most a few thousand
unknowns), so Gauss-Jordan elimination is fast enough and exactly what
the verification contracts need; every other linear-map computation of
the package is a tensor contraction (``tensor.apply_linear_map``).  No
function here does field arithmetic on values: one elimination loop,
``_reduce``, runs on plain ints through the hooks of ``fields`` for both
fields, and two of its steps differ by field:

* over F_p the rows are residues, kept in [0, p); each pivot row is
  scaled to pivot 1 by one inverse ``pow``, and a row is cleared as
  (row − b·pivot) mod p in one pass;
* over Q the rows are integers, each scaled by the lcm of its
  denominators; a row is cleared as a·row − b·pivot, divided by its
  content (fraction-free elimination, as in Bareiss, "Sylvester's
  identity and multistep integer-preserving Gaussian elimination",
  Math. Comp. 22, 1968).  A pivot row keeps its pivot entry a as its
  scale, and one ``Fraction`` is formed per entry of the finished pivot
  rows, entry / a.

The reduced row echelon form is unique, so both give the rows and pivots
of elimination on the values themselves (``tests/linalg_case.py``).
"""

from __future__ import annotations

from math import gcd

from .errors import NotInvertible


def zeros(field, rows: int, cols: int):
    return [[field.zero] * cols for _ in range(rows)]


def identity(field, n: int):
    m = zeros(field, n, n)
    for i in range(n):
        m[i][i] = field.one
    return m


def _reduce(field, matrix):
    """(pivot rows, pivot columns) of the reduced row echelon form, each
    row as plain ints whose field values are entry / (entry at its pivot
    column): residues with pivot 1 over F_p, primitive integer rows over
    Q.  ``matrix`` is not changed."""
    p = field.characteristic
    common_den, raw_over = field.common_den, field.raw_over
    m = []
    for row in matrix:
        den = common_den(row)
        ints = [raw_over(v, den) for v in row]
        m.append(ints if p else _primitive(ints))
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot_row = None
        for i in range(r, rows):
            if m[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        if p:
            inv = pow(m[r][c], p - 2, p)
            m[r] = [v * inv % p for v in m[r]]
        pivot = m[r]
        a = pivot[c]
        for i in range(rows):
            b = m[i][c]
            if i != r and b:
                m[i] = _clear(p, m[i], b, pivot, a)
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m[:r], pivots


def rref(field, matrix):
    """Reduced row echelon form; returns (rref_rows, pivot_columns)."""
    rows, pivots = _reduce(field, matrix)
    from_raw_over = field.from_raw_over
    return [[from_raw_over(v, row[c]) for v in row] for row, c in zip(rows, pivots)], pivots


def _primitive(row):
    """``row`` divided by its content (the gcd of its entries)."""
    g = gcd(*row)
    return row if g <= 1 else [v // g for v in row]


def _clear(p, row, b, pivot, a):
    """``row`` with its entry b at a pivot column cleared by ``pivot``,
    whose entry there is a: (row − b·pivot) mod p in one pass over F_p,
    where a is 1; over Q a·row − b·pivot, with a and b first divided by
    their gcd and the result by its content."""
    if p:
        return [(x - b * y) % p for x, y in zip(row, pivot)]
    g = gcd(a, b)
    if g > 1:
        a, b = a // g, b // g
    return _primitive([a * x - b * y for x, y in zip(row, pivot)])


def rank(field, matrix) -> int:
    if not matrix:
        return 0
    return len(_reduce(field, matrix)[1])


def solve(field, matrix, rhs):
    """One exact solution of ``matrix @ x = rhs`` or raise NotInvertible.

    ``rhs`` is a flat column; free variables are set to zero.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    aug = [matrix[i][:] + [rhs[i]] for i in range(rows)]
    red, pivots = _reduce(field, aug)
    if cols in pivots:
        raise NotInvertible("inconsistent linear system")
    x = [field.zero] * cols
    from_raw_over = field.from_raw_over
    for row, c in zip(red, pivots):
        x[c] = from_raw_over(row[cols], row[c])
    return x


def nullspace(field, matrix):
    """Basis of the right nullspace, one flat vector per basis element."""
    if not matrix:
        return []
    cols = len(matrix[0])
    red, pivots = _reduce(field, matrix)
    pivot_set = set(pivots)
    from_raw_over = field.from_raw_over
    basis = []
    for free in range(cols):
        if free in pivot_set:
            continue
        vec = [field.zero] * cols
        vec[free] = field.one
        for row, c in zip(red, pivots):
            if row[free]:
                vec[c] = from_raw_over(-row[free], row[c])
        basis.append(vec)
    return basis


def invert(field, matrix):
    """Exact matrix inverse; raises NotInvertible for singular input."""
    n = len(matrix)
    aug = [row + unit for row, unit in zip(matrix, identity(field, n))]
    red, pivots = _reduce(field, aug)
    if pivots[:n] != list(range(n)):
        raise NotInvertible("singular matrix")
    from_raw_over = field.from_raw_over
    return [[from_raw_over(v, row[c]) for v in row[n:]] for row, c in zip(red, pivots)]


def span_membership(field, basis_rows):
    """Exact membership in the row span of ``basis_rows``, as a test of
    one flat vector: the rows are reduced once, and each vector is then
    cleared at their pivot columns on plain ints."""
    red, pivots = _reduce(field, basis_rows) if basis_rows else ([], [])
    p = field.characteristic
    common_den, raw_over = field.common_den, field.raw_over

    def contains(vector) -> bool:
        den = common_den(vector)
        v = [raw_over(x, den) for x in vector]
        for row, c in zip(red, pivots):
            b = v[c]
            if b:
                v = _clear(p, v, b, row, row[c])
        return not any(v)

    return contains


def in_span(field, basis_rows, vector) -> bool:
    """Exact membership of ``vector`` in the row span of ``basis_rows``."""
    return span_membership(field, basis_rows)(vector)
