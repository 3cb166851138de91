"""Dense exact linear algebra: elimination, solving, nullspaces.

Matrices are lists of row lists over one of the scalar backends from
``fields``.  Sizes in this package stay tiny (at most a few hundred
unknowns), so straightforward Gaussian elimination is both fast enough
and exactly what the verification contracts need; over F_p it runs on
plain residues.
"""

from __future__ import annotations


class NotInvertible(ValueError):
    """Raised when an exact inverse or solution does not exist."""


def zeros(field, rows: int, cols: int):
    return [[field.zero] * cols for _ in range(rows)]


def identity(field, n: int):
    m = zeros(field, n, n)
    for i in range(n):
        m[i][i] = field.one
    return m


def mat_mul(field, a, b):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = zeros(field, rows, cols)
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            v = ai[k]
            if not v:
                continue
            bk = b[k]
            for j in range(cols):
                if bk[j]:
                    oi[j] = oi[j] + v * bk[j]
    return out


def rref(field, matrix):
    """Reduced row echelon form; returns (rref_rows, pivot_columns).

    Over F_p the elimination runs on plain residues; over Q on the
    ``Fraction`` values themselves."""
    if field.characteristic:
        return _rref_residues(field, matrix)
    return _rref_values(field, matrix)


def _rref_residues(field, matrix):
    """``rref`` on residues mod p, kept in [0, p) so that a residue is
    zero exactly when its value is; one inverse ``pow`` per pivot."""
    p, raw, from_raw = field.p, field.raw, field.from_raw
    m = [list(map(raw, row)) for row in matrix]
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
        inv = pow(m[r][c], p - 2, p)
        pivot = m[r] = [v * inv % p for v in m[r]]
        for i in range(rows):
            f = m[i][c]
            if i != r and f:
                m[i] = [(a - f * b) % p for a, b in zip(m[i], pivot)]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return [list(map(from_raw, row)) for row in m[:r]], pivots


def _rref_values(field, matrix):
    """``rref`` by the field's own operators, the form used over Q."""
    m = [row[:] for row in matrix]
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
        inv = field.one / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m[:r], pivots


def rank(field, matrix) -> int:
    if not matrix:
        return 0
    _, pivots = rref(field, matrix)
    return len(pivots)


def solve(field, matrix, rhs):
    """One exact solution of ``matrix @ x = rhs`` or raise NotInvertible.

    ``rhs`` is a flat column; free variables are set to zero.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    aug = [matrix[i][:] + [rhs[i]] for i in range(rows)]
    red, pivots = rref(field, aug)
    if cols in pivots:
        raise NotInvertible("inconsistent linear system")
    x = [field.zero] * cols
    for row, c in zip(red, pivots):
        x[c] = row[cols]
    return x


def nullspace(field, matrix):
    """Basis of the right nullspace, one flat vector per basis element."""
    if not matrix:
        return []
    cols = len(matrix[0])
    red, pivots = rref(field, matrix)
    pivot_set = set(pivots)
    basis = []
    for free in range(cols):
        if free in pivot_set:
            continue
        vec = [field.zero] * cols
        vec[free] = field.one
        for row, c in zip(red, pivots):
            vec[c] = -row[free]
        basis.append(vec)
    return basis


def invert(field, matrix):
    """Exact matrix inverse; raises NotInvertible for singular input."""
    n = len(matrix)
    aug = [row + unit for row, unit in zip(matrix, identity(field, n))]
    red, pivots = rref(field, aug)
    if pivots[:n] != list(range(n)):
        raise NotInvertible("singular matrix")
    return [row[n:] for row in red]


def in_span(field, basis_rows, vector) -> bool:
    """Exact membership of ``vector`` in the row span of ``basis_rows``."""
    if not any(vector):
        return True
    if not basis_rows:
        return False
    red, pivots = rref(field, basis_rows)
    v = vector[:]
    for row, c in zip(red, pivots):
        if v[c]:
            f = v[c]
            v = [a - f * b for a, b in zip(v, row)]
    return not any(v)

