"""Value-elimination references for ``linalg``.

The library eliminates on plain ints: residues over F_p, integer rows
over Q.  The references here run the same Gauss-Jordan elimination by the
field's own operators on the values (``Fraction`` or ``FpElement``), as
``linalg`` did before, with ``solve``, ``nullspace``, ``invert`` and
``in_span`` read off that form.  The linalg tests compare every function
against them.
"""


def reference_rref(field, matrix):
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


def reference_solve(field, matrix, rhs):
    """A solution with the free variables at zero, or None."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    red, pivots = reference_rref(field, [matrix[i][:] + [rhs[i]] for i in range(rows)])
    if cols in pivots:
        return None
    x = [field.zero] * cols
    for row, c in zip(red, pivots):
        x[c] = row[cols]
    return x


def reference_nullspace(field, matrix):
    if not matrix:
        return []
    cols = len(matrix[0])
    red, pivots = reference_rref(field, matrix)
    basis = []
    for free in range(cols):
        if free in pivots:
            continue
        vec = [field.zero] * cols
        vec[free] = field.one
        for row, c in zip(red, pivots):
            vec[c] = -row[free]
        basis.append(vec)
    return basis


def reference_invert(field, matrix):
    """The inverse, or None for a singular matrix."""
    n = len(matrix)
    aug = [row + [field.one if i == j else field.zero for j in range(n)]
           for i, row in enumerate(matrix)]
    red, pivots = reference_rref(field, aug)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in red]


def reference_in_span(field, basis_rows, vector):
    if not any(vector):
        return True
    if not basis_rows:
        return False
    red, pivots = reference_rref(field, basis_rows)
    v = vector[:]
    for row, c in zip(red, pivots):
        if v[c]:
            f = v[c]
            v = [a - f * b for a, b in zip(v, row)]
    return not any(v)
