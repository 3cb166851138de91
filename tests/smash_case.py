"""Per-basis-4-tuple references for the product tables of ``smash``.

The library runs each product-table pipeline once per basis triple and
multiplies the fourth basis element, which enters only by the last
multiplication on one comodule-algebra leg, into that leg from the
structure constants, for all its indices at once.  The references here
run one whole pipeline per basis 4-tuple, the peeled element included,
as the pipelines were first written.  The smash tests compare every
table against them.

The diagonal products also run the part of their pipeline that reads
only the comodule-algebra index k once per k;
``reference_diagonal_product_by_triple`` runs it for every basis triple
(j, k, l), as before that was hoisted.
"""

from quasihopf.smash import ProductAlgebra, _product_from_pairs, _unit_embedding
from quasihopf.tensor import El, FinAlgebra, LinMap, Tensor, all_indices


def reference_product_from_pairs(field, d1, d2, mult_fn, unit: Tensor, provenance,
                                 sub_embedding=None, sub_alg=None) -> ProductAlgebra:
    """The fused product algebra from a pairwise multiplier returning
    two-leg tensors (first factor leg, second factor leg)."""
    dim = d1 * d2
    cols = {(i1 * d2 + j1, i2 * d2 + j2): mult_fn((i1, j1), (i2, j2)).fuse([[0, 1]]).data
            for i1, j1, i2, j2 in all_indices((d1, d2, d1, d2))}
    carrier = FinAlgebra(field, dim, LinMap(field, (dim, dim), (dim,), cols),
                         unit.fuse([[0, 1]]), name=provenance, validate=False)
    return ProductAlgebra(carrier, (d1, d2), provenance,
                          sub_embedding=sub_embedding, sub_alg=sub_alg)


def reference_generalized_smash(A, B) -> ProductAlgebra:
    act = A.left_action

    def mult_fn(x, y):
        i, j = x
        k, l = y
        e = B.re_inv_el()
        e = e.times(El.basis((A.alg,), (i,))).times(El.basis((B.alg,), (j,)))
        e = e.times(El.basis((A.alg,), (k,))).times(El.basis((B.alg,), (l,)))
        e = e.map(B.coaction, 4)          # x1 x2 xB a b-1 b0 a2 b2
        e = e.map(act, (0, 3), at=0)      # (x1 . a)
        e = e.merge(1, 3)                 # x2 b-1
        e = e.map(act, (1, 4), at=1)      # (x2 b-1 . a2)
        e = e.merge(0, 1)                 # product in A
        e = e.merge(1, 2).merge(1, 2)     # xB b0 b2
        return e.t

    return reference_product_from_pairs(
        A.field, A.alg.dim, B.alg.dim, mult_fn, A.alg.unit.outer(B.alg.unit),
        "smash(%s,%s)" % (A.name or "A", B.name or "B"),
        sub_embedding=_unit_embedding(B.alg, A.alg, first=False), sub_alg=B.alg)


def reference_stgsm_product(A, C, D) -> ProductAlgebra:
    """``D`` is ``dualize(C)``."""
    dual, act = D.alg.opposite(), D.left_action

    def mult_fn(x, y):
        f, i = x
        g, k = y
        e = A.re_el()                     # XA X2 X3
        e = e.times(El.basis((dual,), (f,))).times(El.basis((A.alg,), (i,)))
        e = e.times(El.basis((dual,), (g,))).times(El.basis((A.alg,), (k,)))
        e = e.map(A.coaction, 6)          # XA X2 X3 f u g u20 u21
        e = e.merge(1, 7)                 # X2 u21
        e = e.map(act, (1, 3), at=1)      # . f
        e = e.map(act, (2, 4), at=2)      # X3 . g
        e = e.merge(1, 2)                 # functional product
        e = e.merge(0, 3)                 # XA u20
        e = e.merge(0, 2)                 # . u
        return e.perm((1, 0)).t

    return reference_product_from_pairs(
        A.field, C.dim, A.alg.dim, mult_fn, dual.unit.outer(A.alg.unit),
        "stgsm(%s,%s)" % (A.name or "A", C.name or "C"))


def reference_koppinen_smash(C, B) -> ProductAlgebra:
    field = C.field
    dC, dB = C.dim, B.alg.dim
    evals = [LinMap.from_function(field, (dC,), (),
                                  lambda idx, f=f: {(): field.one} if idx[0] == f else {})
             for f in range(dC)]

    def mult_fn(x, y):
        i, j = x
        k, l = y
        out = Tensor(field, (dC, dB))
        for m in range(dC):
            e = El.basis((C.space,), (m,)).map(C.comult, 0)
            e = e.times(B.re_inv_el())    # c1 c2 x1 x2 xB
            e = e.map(C.right_action, (0, 2), at=0)   # c1.x1 c2 x2 xB
            e = e.map(evals[i], (0,), out_spaces=())  # <e^i, .>
            e = e.times(El.basis((B.alg,), (j,)))     # c2 x2 xB bj
            e = e.map(B.coaction, 3)      # c2 x2 xB bj-1 bj0
            e = e.merge(1, 3)             # x2 bj-1
            e = e.map(C.right_action, (0, 1), at=0)   # c2.x2bj-1 xB bj0
            e = e.map(evals[k], (0,), out_spaces=())  # <e^k, .>
            e = e.merge(0, 1)             # xB bj0
            e = e.mul_embedded(El.basis((B.alg,), (l,)), (0,))
            out = out + Tensor.basis(field, (dC,), (m,)).outer(e.t)
        return out

    return reference_product_from_pairs(
        field, dC, dB, mult_fn, C.counit.as_tensor().outer(B.alg.unit),
        "koppinen(%s,%s)" % (C.name or "C", B.name or "B"))


def reference_diagonal_product(A, M, data) -> ProductAlgebra:
    """The right diagonal crossed product; ``data`` is ``build_omega(A,
    order)``."""
    H = A.H
    order = data.kind
    S_inv = H.antipode_inv
    om = El((H.alg, H.alg, A.alg, H.alg, H.alg), data.omega_right)
    lact, ract = M.left_action, M.right_action

    def expand(e, leg):
        if order == "l":
            return e.map(A.right_coaction, leg).map(A.left_coaction, leg)
        return e.map(A.left_coaction, leg).map(A.right_coaction, leg + 1)

    def mult_fn(x, y):
        i, j = x
        k, l = y
        e = om.times(El.basis((A.alg,), (i,))).times(El.basis((M.alg,), (j,)))
        e = e.times(El.basis((A.alg,), (k,))).times(El.basis((M.alg,), (l,)))
        e = expand(e, 7)                  # O1..O5 u phi u2-1 u200 u21 psi
        e = e.merge(5, 8)                 # u u200
        e = e.merge(5, 2)                 # . O3 -> O1 O2 O4 O5 uu2O3 phi u2-1 u21 psi
        e = e.map(S_inv, 6)
        e = e.merge(1, 6)                 # O2 S^-1(u2-1)
        e = e.map(lact, (1, 5), at=4)     # O1 O4 O5 uu2O3 phi2 u21 psi
        e = e.merge(5, 1)                 # u21 O4 -> O1 O5 uu2O3 phi2 u21O4 psi
        e = e.map(ract, (3, 4), at=3)     # O1 O5 uu2O3 phi3 psi
        e = e.map(lact, (0, 4), at=3)     # O5 uu2O3 phi3 psi2
        e = e.map(ract, (3, 0), at=2)     # uu2O3 phi3 psi3
        e = e.merge(1, 2)                 # product in M
        return e.t

    return reference_product_from_pairs(
        A.field, A.alg.dim, M.alg.dim, mult_fn, A.alg.unit.outer(M.alg.unit),
        "diagonal-right-%s(%s,%s)" % (order, A.name or "A", M.name or "M"),
        sub_embedding=_unit_embedding(A.alg, M.alg, True), sub_alg=A.alg)


def reference_diagonal_product_by_triple(A, M, data) -> ProductAlgebra:
    """The right diagonal crossed product with its whole pipeline run
    once per basis triple (j, k, l), u_k multiplied in from the
    structure constants of A as in the library."""
    H = A.H
    order = data.kind
    S_inv = H.antipode_inv
    om = El((H.alg, H.alg, A.alg, H.alg, H.alg), data.omega_right)
    lact, ract = M.left_action, M.right_action

    def expand(e, leg):
        if order == "l":
            return e.map(A.right_coaction, leg).map(A.left_coaction, leg)
        return e.map(A.left_coaction, leg).map(A.right_coaction, leg + 1)

    def mult_fn(j, k, l):
        e = om.times(El.basis((M.alg,), (j,))).times(El.basis((A.alg,), (k,)))
        e = e.times(El.basis((M.alg,), (l,)))
        e = expand(e, 6)                  # O1..O5 phi u2-1 u200 u21 psi
        e = e.merge(7, 2)                 # u200 O3 -> O1 O2 O4 O5 phi u2-1 u2O3 u21 psi
        e = e.map(S_inv, 5)
        e = e.merge(1, 5)                 # O2 S^-1(u2-1)
        e = e.map(lact, (1, 4), at=4)     # O1 O4 O5 u2O3 phi2 u21 psi
        e = e.merge(5, 1)                 # u21 O4 -> O1 O5 u2O3 phi2 u21O4 psi
        e = e.map(ract, (3, 4), at=3)     # O1 O5 u2O3 phi3 psi
        e = e.map(lact, (0, 4), at=3)     # O5 u2O3 phi3 psi2
        e = e.map(ract, (3, 0), at=2)     # u2O3 phi3 psi3
        e = e.merge(1, 2)                 # product in M
        return e.t                        # u on the left of u2O3

    return _product_from_pairs(mult_fn, (0, A.alg, "left"), A.alg.unit.outer(M.alg.unit),
                               "diagonal-right-%s(%s,%s)" % (order, A.name or "A",
                                                             M.name or "M"),
                               sub_embedding=_unit_embedding(A.alg, M.alg, True),
                               sub_alg=A.alg)
