"""The dense-matrix form of the induction adjunction of ``doihopf``.

The library states the adjunction data on stacked hom tensors: a hom
basis is one tensor with the basis index on its leading leg, and every
map of the adjunction is applied to the whole stack at once.  The
reference here is the form that replaced: each basis map is a dense
matrix (rows the target basis, columns the source basis), the hom bases
are the nullspaces of the per-basis-vector condition rows of
``maps_case``, and every map is a matrix product on the field values,
one basis map at a time, through a per-item ``CheckReport.sweep``.  The
adjunction tests compare the records of the two.
"""

from quasihopf import linalg
from quasihopf.doihopf import (FiniteModule, _reflect_context, _reflect_module,
                               induce_doi_hopf, trivial_module)
from quasihopf.report import CheckReport
from quasihopf.tensor import LinMap, Tensor, all_indices

from maps_case import module_hom_rows


def mat_mul(field, a, b):
    """``a @ b`` on the field values."""
    return [[sum((x * y for x, y in zip(row, col)), field.zero) for col in zip(*b)]
            for row in a]


def module_hom_basis(M, N, alg, colinear=False):
    """Basis of module maps M -> N as dense matrices, N.dim x M.dim."""
    basis = linalg.nullspace(M.field, module_hom_rows(M, N, alg, colinear))
    return [[vec[j * M.dim:(j + 1) * M.dim] for j in range(N.dim)] for vec in basis]


def as_tensor(field, matrix):
    """A dense matrix as the two-leg tensor (row, column)."""
    return Tensor(field, (len(matrix), len(matrix[0])),
                  {(r, c): v for r, row in enumerate(matrix) for c, v in enumerate(row)})


def reference_adjunction_maps(M, N, context):
    if context.variant != "right-left":
        canonical = _reflect_context(context, "right-left")
        return reference_adjunction_maps(_reflect_module(M, canonical),
                                         _reflect_module(N, canonical), canonical)
    A, C = context.comodule, context.coalgebra
    field = context.field
    report = CheckReport("adjunction data")
    dB, dC, dM, dN = A.alg.dim, C.dim, M.dim, N.dim
    induced_N = induce_doi_hopf(N, context)

    def roundtrip(check_id, homs, there, back):
        report.sweep(check_id, all_indices((len(homs),)),
                     lambda k: (back(there(homs[k[0]])), homs[k[0]]))

    # xi(f)(m) = m_(-1) x f(m_(0)), one product per coalgebra block of the
    # coaction matrix; zeta applies the counit to the coalgebra leg
    coaction = M.coaction.to_matrix()
    blocks = [coaction[c * dM:(c + 1) * dM] for c in range(dC)]
    counit = C.counit.to_matrix()[0]

    def xi(f):
        return [row for block in blocks for row in mat_mul(field, f, block)]

    def zeta(g):
        out = [[field.zero] * dM for _ in range(dN)]
        for c, eps in enumerate(counit):
            if eps:
                out = [[a + eps * b for a, b in zip(row, grow)]
                       for row, grow in zip(out, g[c * dN:(c + 1) * dN])]
        return out

    hom_b = module_hom_basis(M, N, A.alg)
    roundtrip("unit-roundtrip", hom_b, xi, zeta)
    roundtrip("counit-roundtrip",
              module_hom_basis(M, induced_N, A.alg, colinear=True), zeta, xi)
    endos = module_hom_basis(M, M, A.alg, colinear=True)
    if endos and hom_b:
        g = endos[0]
        report.sweep("naturality", all_indices((len(hom_b),)),
                     lambda k: (xi(mat_mul(field, hom_b[k[0]], g)),
                                mat_mul(field, xi(hom_b[k[0]]), g)))

    nd = induced_N.dim
    inner = module_hom_basis(induce_doi_hopf(trivial_module(context), context),
                             induced_N, A.alg, colinear=True)
    k_inner = len(inner)
    columns = [list(col) for col in zip(*([v for row in h for v in row]
                                          for h in inner))]

    def coordinates(vectors):
        red, pivots = linalg.rref(field, [b + v for b, v in zip(columns, vectors)])
        if len(pivots) != k_inner:
            raise linalg.NotInvertible("a map leaves the inner hom")
        return [row[k_inner:] for row in red]

    def pull(f, action, d):
        moved = [mat_mul(field, [row[c * d:(c + 1) * d] for row in f], action)
                 for c in range(dC)]
        return [[moved[c][j][y * dB + b] for y in range(d)]
                for j in range(nd) for c in range(dC) for b in range(dB)]

    mult = A.alg.mult.to_matrix()
    acted = coordinates([[v for row in rows for v in row]
                         for rows in zip(*(pull(h, mult, dB) for h in inner))])
    inner_hom = FiniteModule(
        k_inner, A.alg, LinMap.from_matrix(field, (k_inner, dB), (k_inner,), acted),
        "right")
    action = M.action.to_matrix()
    unit = [A.alg.unit.to_flat()]
    at_unit = [mat_mul(field, unit, columns[r * dB:(r + 1) * dB])[0]
               for r in range(nd * dC)]

    def xi_prime(f):
        return coordinates(pull(f, action, dM))

    def zeta_prime(g):
        out = mat_mul(field, at_unit, g)
        return [[v for c in range(dC) for v in out[j * dC + c]] for j in range(nd)]

    roundtrip("second-unit-roundtrip",
              module_hom_basis(induce_doi_hopf(M, context), induced_N, A.alg,
                               colinear=True), xi_prime, zeta_prime)
    roundtrip("second-counit-roundtrip", module_hom_basis(M, inner_hom, A.alg),
              zeta_prime, xi_prime)
    return report
