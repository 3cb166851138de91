"""Hand-traced references for the mirrored constructions.

The library builds one side of each left/right pair natively and the
other side as the opcop reflection of its inputs, with the opposite
algebra or coring and its two carrier legs swapped.  The references
here build the mirrored side directly, each by its own leg pipeline:

- ``reference_right_generalized_smash``: the right generalized smash of
  a right comodule algebra with a right module algebra;
- ``reference_coring_ca``: the CA coring of a right comodule algebra
  with a left module coalgebra;
- ``reference_left_diagonal``: the left diagonal crossed products, from
  the left exchange element ``reference_omega_left``;
- ``reference_left_tensor_op``: the two left realizations of a
  bicomodule algebra over H (x) H^op, with their closed-form inverses;
- ``reference_exchange_right``: the exchange data of the "r" coaction
  order by its own five-leg pipeline, which the library builds as the
  cop mirror of the "l" data;
- ``reference_reflected_reassociators`` and
  ``reference_bicomodule_reassociators``: the op / cop / opcop
  reassociators of a base, a comodule algebra and a bicomodule algebra,
  one branch per kind, which the library states as one rule.

The mirror tests compare the library against them entry for entry.
"""

from quasihopf.comodule import ComoduleAlgebra, _reassoc_pair
from quasihopf.coring import Coring
from quasihopf.hopf import drinfeld_twist, tensor_op
from quasihopf.smash import _unit_embedding, build_omega
from quasihopf.tensor import LinMap, Tensor, apply_linear_map, multiply, switch_legs

from smash_case import reference_product_from_pairs
from tensor_case import PositionalEl, embed_legs, from_function


def reference_right_generalized_smash(A, P):
    """Carrier ordered (comodule, module); the second factor's coaction
    threads through the module action."""
    act = P.right_action

    def mult_fn(x, y):
        i, j = x
        k, l = y
        e = PositionalEl(A.reassoc_spaces(), A.reassoc_inv)                 # xA x2 x3
        e = e.times(PositionalEl.basis((A.alg,), (i,))).times(PositionalEl.basis((P.alg,), (j,)))
        e = e.times(PositionalEl.basis((A.alg,), (k,))).times(PositionalEl.basis((P.alg,), (l,)))
        e = e.map(A.coaction, 5)          # xA x2 x3 u p u20 u21 p2
        e = e.merge(3, 5)                 # u u20
        e = e.merge(3, 0)                 # . xA  -> x2 x3 uu2xA p u21 p2
        e = e.merge(4, 0)                 # u21 x2 -> x3 uu2xA p u21x2 p2
        e = e.map(act, (2, 3), at=2)      # p . u21x2 -> x3 A p p2
        e = e.map(act, (3, 0), at=2)      # p2 . x3 -> A p p2x3
        e = e.merge(1, 2)                 # product in P
        return e.t

    return reference_product_from_pairs(
        A.field, A.alg.dim, P.alg.dim, mult_fn, A.alg.unit.outer(P.alg.unit),
        "rsmash(%s,%s)" % (A.name or "A", P.name or "P"),
        sub_embedding=_unit_embedding(A.alg, P.alg, first=True), sub_alg=A.alg)


def reference_coring_ca(A, C, name=None):
    """Carrier C (x) A, free on the right over A."""
    field = A.field
    dA, dC = A.alg.dim, C.dim
    N = dC * dA

    def left_fn(idx):
        r, n = idx
        c, a = divmod(n, dA)
        e = PositionalEl.basis((A.alg,), (r,)).map(A.coaction, 0)   # r0 r1
        e = e.times(PositionalEl.basis((C.space,), (c,))).times(PositionalEl.basis((A.alg,), (a,)))
        e = e.map(C.left_action, (1, 2), at=1)            # r0 (r1.c) a
        e = e.merge(0, 2)                                 # r0 a
        return e.perm((1, 0)).t.fuse([[0, 1]])

    def right_fn(idx):
        n, r = idx
        c, a = divmod(n, dA)
        return Tensor.basis(field, (dC,), (c,)).outer(
            A.alg.basis_product(a, r)).fuse([[0, 1]])

    def comult_rep(idx):
        c, a = divmod(idx[0], dA)
        e = PositionalEl(A.reassoc_spaces(), A.reassoc_inv)                 # xA x2 x3
        e = e.times(PositionalEl.basis((C.space,), (c,))).times(PositionalEl.basis((A.alg,), (a,)))
        e = e.map(C.comult, 3)            # xA x2 x3 c1 c2 a
        e = e.map(C.left_action, (2, 4), at=2)   # x3 . c2 -> xA x2 c2' c1 a
        e = e.map(C.left_action, (1, 3), at=1)   # x2 . c1 -> xA c1' c2' a
        e = e.merge(0, 3)                 # xA a
        # c2' (x) 1 c1' xA a
        return switch_legs(e.t.outer(A.alg.unit), (2, 3, 1, 0)).fuse([[0, 1], [2, 3]])

    def counit_fn(idx):
        c, a = divmod(idx[0], dA)
        eps = C.counit.column((c,)).get(())
        return {(a,): eps} if eps else {}

    return Coring(A.alg, N,
                  from_function(field, (dA, N), (N,), left_fn),
                  from_function(field, (N, dA), (N,), right_fn),
                  from_function(field, (N,), (N, N), comult_rep),
                  from_function(field, (N,), (dA,), counit_fn),
                  name=name or "CA(%s,%s)" % (A.name or "A", C.name or "C"))


def reference_omega_left(A, data):
    """The antipode-corrected exchange element of the left products: the
    inverse exchange element with S^-1 on its two right H legs, times
    (S^-1 x S^-1) of the Drinfeld twist on those legs."""
    H = A.H
    sp5 = (H.alg, H.alg, A.alg, H.alg, H.alg)
    S_inv = H.antipode_inv
    e = PositionalEl(sp5, data.psi_inv).map(S_inv, 3, at=3).map(S_inv, 4, at=4)
    twist = drinfeld_twist(H).t
    f_corr = apply_linear_map(S_inv, apply_linear_map(S_inv, twist, (0,)), (1,))
    return multiply(sp5, e.t, embed_legs(sp5, f_corr, (3, 4)))


def reference_left_diagonal(A, M, order):
    """The left diagonal crossed product of coaction order ``order``
    ("l" or "r"), carrier ordered (module, bicomodule)."""
    H = A.H
    S_inv = H.antipode_inv
    om = PositionalEl((H.alg, H.alg, A.alg, H.alg, H.alg),
                      reference_omega_left(A, build_omega(A, order)))
    lact, ract = M.left_action, M.right_action

    def expand(e, leg):
        if order == "l":
            return e.map(A.right_coaction, leg).map(A.left_coaction, leg)
        return e.map(A.left_coaction, leg).map(A.right_coaction, leg + 1)

    def mult_fn(x, y):
        i, j = x
        k, l = y
        e = om.times(PositionalEl.basis((M.alg,), (i,))).times(PositionalEl.basis((A.alg,), (j,)))
        e = e.times(PositionalEl.basis((M.alg,), (k,))).times(PositionalEl.basis((A.alg,), (l,)))
        e = expand(e, 6)              # O1..O5 phi u-1 u0 u1 psi u2
        e = e.map(lact, (0, 5), at=4)     # O2 O3 O4 O5 O1phi u-1 u0 u1 psi u2
        e = e.map(ract, (4, 3), at=3)     # O2 O3 O4 phi' u-1 u0 u1 psi u2
        e = e.merge(0, 4)                 # O2 u-1
        e = e.map(lact, (0, 6), at=5)     # O3 O4 phi' u0 u1 psi' u2
        e = e.map(S_inv, 4)
        e = e.map(ract, (5, 4), at=4)     # O3 O4 phi' u0 psi'' u2
        e = e.map(ract, (4, 1), at=3)     # O3 phi' u0 psi3 u2
        e = e.merge(1, 3)                 # product in M
        e = e.merge(0, 2).merge(0, 2)     # O3 u0 u2
        return e.perm((1, 0)).t

    return reference_product_from_pairs(
        A.field, M.alg.dim, A.alg.dim, mult_fn, M.alg.unit.outer(A.alg.unit),
        "diagonal-left-%s(%s,%s)" % (order, A.name or "A", M.name or "M"),
        sub_embedding=_unit_embedding(A.alg, M.alg, False), sub_alg=A.alg)


def reference_left_tensor_op(A, base=None):
    """(lam1, lam2, base): the two left realizations over H (x) H^op,
    each reassociator a product of its factors in a stated order and its
    inverse the product of the inverse factors in the reversed order."""
    H = A.H
    HHop = base if base is not None else tensor_op(H)
    alg = A.alg
    S_inv = H.antipode_inv
    twist = drinfeld_twist(H)

    def lam1(idx):
        e = PositionalEl.basis((alg,), idx).map(A.right_coaction, 0).map(A.left_coaction, 0)
        return e.map(S_inv, 2).perm((0, 2, 1)).t.fuse([[0, 1], [2]])

    def lam2(idx):
        e = PositionalEl.basis((alg,), idx).map(A.left_coaction, 0).map(A.right_coaction, 1)
        return e.map(S_inv, 2).perm((0, 2, 1)).t.fuse([[0, 1], [2]])

    sp_l, sp_r, sp_m = (H.alg, H.alg, alg), (alg, H.alg, H.alg), A.mixed_spaces()

    def reassoc1(theta, phi_l, phi_r_inv, g):
        e = PositionalEl(sp_m, theta).times(PositionalEl(sp_l, phi_l))
        e = e.times(PositionalEl(sp_r, phi_r_inv)).times(PositionalEl(H.spaces(2), g))
        e = e.map(A.left_coaction, 1)         # Theta2 -> [-1],[0]
        e = e.map(A.left_coaction, 7)         # x_rho^1 -> [-1],[0]
        e = e.map(H.comult, 7)
        e = e.merge(0, 4).merge(0, 6)         # Theta1 X1 xA-1
        e = e.merge(9, 11).map(S_inv, 9)      # S^-1(x3 g2)
        e = e.merge(1, 4).merge(1, 5)         # Theta2- X2 xA-2
        e = e.merge(3, 6).merge(3, 7).map(S_inv, 3)   # S^-1(Theta3 x2 g1)
        e = e.merge(2, 4).merge(2, 4)         # Theta20 XB xA0
        return e.perm((0, 4, 1, 3, 2)).t.fuse([[0, 1], [2, 3], [4]])

    def reassoc2(phi_l, theta_inv, phi_r_inv, g):
        e = PositionalEl(sp_l, phi_l).times(PositionalEl(sp_m, theta_inv))
        e = e.times(PositionalEl(sp_r, phi_r_inv)).times(PositionalEl(H.spaces(2), g))
        e = e.map(A.right_coaction, 2)        # Y3 -> <0>,<1>
        e = e.map(H.comult, 3)
        e = e.map(A.right_coaction, 6)        # theta2 -> <0>,<1>
        e = e.merge(8, 11).merge(8, 4).merge(7, 11).map(S_inv, 7)
        e = e.merge(4, 1)
        e = e.merge(5, 8).merge(5, 2).merge(4, 7).map(S_inv, 4)
        e = e.merge(3, 6).merge(3, 1)
        return e.perm((0, 4, 1, 3, 2)).t.fuse([[0, 1], [2, 3], [4]])

    spaces = (HHop.alg, HHop.alg, alg)
    re1, re1_inv = _reassoc_pair(
        spaces, reassoc1,
        (A.reassoc_mixed, A.reassoc_left, A.reassoc_right_inv, twist.inv),
        (A.reassoc_mixed_inv, A.reassoc_left_inv, A.reassoc_right, twist.t),
        (sp_m, sp_l, sp_r, H.spaces(2)), (0, 1, 2, 3))
    re2, re2_inv = _reassoc_pair(
        spaces, reassoc2,
        (A.reassoc_left, A.reassoc_mixed_inv, A.reassoc_right_inv, twist.inv),
        (A.reassoc_left_inv, A.reassoc_mixed, A.reassoc_right, twist.t),
        (sp_l, sp_m, sp_r, H.spaces(2)), (1, 2, 0, 3))

    dst = (HHop.dim, alg.dim)
    first = ComoduleAlgebra(HHop, "left", alg,
                            from_function(A.field, (alg.dim,), dst, lam1),
                            re1, re1_inv, name=(A.name + ":lam1") if A.name else "")
    second = ComoduleAlgebra(HHop, "left", alg,
                             from_function(A.field, (alg.dim,), dst, lam2),
                             re2, re2_inv, name=(A.name + ":lam2") if A.name else "")
    return first, second, HHop


def reference_exchange_right(A):
    """The exchange data of the "r" coaction order, by attribute name of
    ``OmegaData``: the composite coaction u -> u-1 (u0)0 (u0)1; psi, the
    product of the inverse mixed reassociator on the right legs, the left
    reassociator expanded by the right coaction and the inverse right
    reassociator; psi_inv, the product of the inverses in the reversed
    order; and their antipode-corrected forms."""
    H, alg = A.H, A.alg
    S_inv = H.antipode_inv
    delta = apply_linear_map(A.right_coaction, A.left_coaction.as_tensor(), (2,))

    def exchange(theta_inv, phi_left, phi_right_inv, reverse):
        theta_inv = PositionalEl(A.mixed_spaces(), theta_inv)    # 1 x Theta^-1 in H H A H
        inner = PositionalEl((H.alg, H.alg, alg), phi_left).map(A.right_coaction, 2)
        e = (inner.mul_embedded if reverse else inner.premul_embedded)(theta_inv, (1, 2, 3))
        e = e.map(A.right_coaction, 2)                # H H A H H
        outer = PositionalEl((alg, H.alg, H.alg), phi_right_inv)
        return (e.premul_embedded if reverse else e.mul_embedded)(outer, (2, 3, 4)).t

    psi = exchange(A.reassoc_mixed_inv, A.reassoc_left, A.reassoc_right_inv, False)
    psi_inv = exchange(A.reassoc_mixed, A.reassoc_left_inv, A.reassoc_right, True)
    sp5 = (H.alg, H.alg, alg, H.alg, H.alg)
    twist = drinfeld_twist(H)
    e = PositionalEl(sp5, psi).map(S_inv, 0, at=0).map(S_inv, 1, at=1)
    g_corr = apply_linear_map(S_inv, apply_linear_map(S_inv, twist.inv, (0,)), (1,))
    e_inv = PositionalEl(sp5, psi_inv).map(S_inv, 0, at=0).map(S_inv, 1, at=1)
    f_corr = apply_linear_map(S_inv, apply_linear_map(S_inv, twist.t, (0,)), (1,))
    return {"delta": LinMap.from_tensor(delta, 1), "psi": psi, "psi_inv": psi_inv,
            "omega_right": multiply(sp5, g_corr, e.t, x_legs=(0, 1)),
            "omega_right_inv": multiply(sp5, e_inv.t, f_corr, y_legs=(0, 1))}


def reference_reflected_reassociators(kind, reassoc, reassoc_inv):
    """(reassociator, inverse) of the ``kind`` reflection, one branch
    per kind."""
    rev = (2, 1, 0)
    if kind == "op":
        return reassoc_inv, reassoc
    if kind == "cop":
        return switch_legs(reassoc_inv, rev), switch_legs(reassoc, rev)
    return switch_legs(reassoc, rev), switch_legs(reassoc_inv, rev)


def reference_bicomodule_reassociators(A, kind):
    """The six reassociator tables of the ``kind`` reflection of a
    bicomodule algebra, in the constructor's order (left, right, mixed,
    then their inverses)."""
    rev = (2, 1, 0)
    if kind == "op":
        return (A.reassoc_left_inv, A.reassoc_right_inv, A.reassoc_mixed_inv,
                A.reassoc_left, A.reassoc_right, A.reassoc_mixed)
    # the coactions trade sides, so the one-sided tables trade places
    tables = [A.reassoc_right, A.reassoc_left, A.reassoc_mixed]
    inverses = [A.reassoc_right_inv, A.reassoc_left_inv, A.reassoc_mixed_inv]
    if kind == "cop":
        tables, inverses = inverses, tables
    return tuple(switch_legs(t, rev) for t in tables + inverses)
