"""Product-algebra constructions: generalized smash products on both
sides, the convolution-carrier smash, the two comparison morphisms, and
the four generalized diagonal crossed products with their exchange data.

Every construction materializes a full multiplication table on the
fused pair basis; associativity and unit laws are then checked over all
basis triples by ``verify_product_algebra``, which is the computational
content of the corresponding structure theorems.

Of each left/right pair one side is native: ``generalized_smash`` and
the right diagonal products.  The other side is its opcop reflection:
the native product over the opcop reflections of the inputs, then its
opposite algebra with the two carrier legs swapped (``_mirror``).
"""

from __future__ import annotations

import functools

from .comodule import (BicomoduleAlgebra, ComoduleAlgebra, bicomodule_to_right_op_tensor,
                       bicomodule_variant, canonical_elements, check_closed_form_inputs,
                       comodule_variant)
from .errors import ShapeMismatch
from .fixtures import regular_comodule_algebra
from .hopf import drinfeld_twist, shared_base
from .modcoalg import (ModuleAlgebra, ModuleCoalgebra,
                       bimodule_to_op_tensor_module_coalgebra, dualize)
from .report import CheckReport
from .tensor import (El, FinAlgebra, LinMap, Tensor, _identity, all_indices,
                     apply_linear_map, multiplicative_sides, multiply, swap_factors,
                     switch_legs)


class ProductAlgebra:
    """Algebra on a fused pair basis, with provenance and the canonical
    unital subalgebra embedding to be verified."""

    def __init__(self, carrier: FinAlgebra, factor_dims, provenance: str,
                 sub_embedding: LinMap = None, sub_alg: FinAlgebra = None):
        self.carrier = carrier
        self.field = carrier.field
        self.factor_dims = tuple(factor_dims)
        self.provenance = provenance
        self.sub_embedding = sub_embedding
        self.sub_alg = sub_alg

    @property
    def dim(self):
        return self.carrier.dim

    def pair(self, i, j):
        return i * self.factor_dims[1] + j

    def __repr__(self):
        return "ProductAlgebra(%s, dim=%d)" % (self.provenance, self.carrier.dim)


def verify_product_algebra(P: ProductAlgebra) -> CheckReport:
    """Associativity and unit laws over every basis triple, plus the
    multiplicativity of the declared subalgebra embedding."""
    report = CheckReport("product algebra %s" % P.provenance)
    alg = P.carrier
    field = P.field

    witness = alg.associativity_witness()
    report.add("associative", witness is None, witness=witness)

    # 1 e_i and e_i 1 against e_i, every i at once
    ident = _identity(field, alg.dim)
    spaces = (alg, alg)
    report.sweep_sides("unit-two-sided", (alg.dim,), [
        (lambda item: ("left",) + item, multiply(spaces, alg.unit, ident, x_legs=(1,)), ident),
        (lambda item: ("right",) + item, multiply(spaces, ident, alg.unit, y_legs=(1,)),
         ident)])

    if P.sub_embedding is not None and P.sub_alg is not None:
        sub, emb = P.sub_alg, P.sub_embedding
        report.sweep_all("subalgebra-multiplicative", (sub.dim,) * 2,
                         *multiplicative_sides(sub, emb, (alg,)))
        report.add("subalgebra-unital",
                   apply_linear_map(emb, sub.unit, (0,)) == alg.unit)
    return report


def _product_from_pairs(mult_fn, peel, unit: Tensor, provenance,
                        sub_embedding=None, sub_alg=None) -> ProductAlgebra:
    """Assemble the fused product algebra on the legs of ``unit``, the
    unit of the two factors.  ``peel`` is (slot, alg, side):
    in (i1, j1)(i2, j2), the basis element at ``slot`` of the 4-tuple
    enters only by the last multiplication, from ``side``, on carrier leg
    slot % 2, of algebra ``alg``.  ``mult_fn`` takes the other three
    indices and returns the two-leg product without it; it is multiplied
    in from the structure constants of ``alg`` for all its indices at
    once, which needs ``alg`` associative (a comodule-algebra carrier)."""
    slot, alg, side = peel
    field, (d1, d2) = unit.field, unit.dims
    witness = alg.associativity_witness()
    if witness is not None:
        raise ShapeMismatch("structure constants not associative at %r" % (witness,))
    leg = slot % 2
    # e_q -> sum over p of (e_q e_p, p), or (e_p e_q, p) from the left: on
    # the peeled leg, it leaves the product there and p right after it
    times_each = LinMap.from_tensor(switch_legs(alg.mult.as_tensor(),
                                                (0, 2, 1) if side == "right" else (1, 2, 0)), 1)
    dims = (d1, d2, d1, d2)
    cols = {}
    for rest in all_indices(dims[:slot] + dims[slot + 1:]):
        for idx, v in apply_linear_map(times_each, mult_fn(*rest), (leg,)).data.items():
            i1, j1, i2, j2 = rest[:slot] + (idx[leg + 1],) + rest[slot:]
            cols.setdefault((i1 * d2 + j1, i2 * d2 + j2), {})[(idx[0] * d2 + idx[2 - leg],)] = v
    dim = d1 * d2
    carrier = FinAlgebra(field, dim, LinMap(field, (dim, dim), (dim,), cols),
                         unit.fuse([[0, 1]]), name=provenance, validate=False)
    return ProductAlgebra(carrier, (d1, d2), provenance,
                          sub_embedding=sub_embedding, sub_alg=sub_alg)


def _mirror(P: ProductAlgebra, provenance: str, sub_alg: FinAlgebra) -> ProductAlgebra:
    """The opposite algebra of ``P`` with its two carrier legs swapped.
    A left/right pair of products is built on its native side over the
    opcop reflections of the inputs, whose carriers are the opposite
    algebras; this gives the other side.  ``sub_alg`` is the opposite of
    the subalgebra of ``P``, embedded on the swapped leg."""
    (d1, d2), field, dim = P.factor_dims, P.field, P.dim
    mult = switch_legs(P.carrier.mult.as_tensor(), (1, 0, 2))
    carrier = FinAlgebra(field, dim, LinMap.from_tensor(swap_factors(mult, (0, 1, 2), d1, d2), 2),
                         swap_factors(P.carrier.unit, (0,), d1, d2),
                         name=provenance, validate=False)
    emb = LinMap.from_tensor(swap_factors(P.sub_embedding.as_tensor(), (1,), d1, d2), 1)
    return ProductAlgebra(carrier, (d2, d1), provenance, sub_embedding=emb, sub_alg=sub_alg)


def _unit_embedding(sub: FinAlgebra, other: FinAlgebra, first: bool) -> LinMap:
    """The embedding b -> b (x) 1 (``first``) or 1 (x) b of a factor
    algebra into the fused pair basis."""
    t = _identity(sub.field, sub.dim).outer(other.unit)     # b b 1
    return LinMap.from_tensor((t if first else switch_legs(t, (0, 2, 1))).fuse([[0], [1, 2]]), 1)


def generalized_smash(A: ModuleAlgebra, B: ComoduleAlgebra) -> ProductAlgebra:
    """Left module algebra against left comodule algebra; the product
    routes the coaction leg through the action and twists by the inverse
    reassociator."""
    if A.side != "left" or B.side != "left":
        raise ShapeMismatch("needs a left module algebra and a left comodule algebra")
    shared_base(A, B)
    act = A.left_action

    @functools.cache
    def reads_only_ij(i, j):
        # the part of the pipeline before a2 is first read, once per (i, j)
        e = B.re_inv_el()
        e = e.times(El.basis((A.alg,), (i,))).times(El.basis((B.alg,), (j,)))
        e = e.map(B.coaction, 4)          # x1 x2 xB a b-1 b0
        e = e.map(act, (0, 3), at=0)      # (x1 . a)
        return e.merge(1, 3)              # x2 b-1

    def mult_fn(i, j, k):
        e = reads_only_ij(i, j).times(El.basis((A.alg,), (k,)))
        e = e.map(act, (1, 4), at=1)      # (x2 b-1 . a2)
        e = e.merge(0, 1)                 # product in A
        return e.merge(1, 2).t            # xB b0, then b2 on the right

    unit = A.alg.unit.outer(B.alg.unit)
    emb = _unit_embedding(B.alg, A.alg, first=False)
    return _product_from_pairs(mult_fn, (3, B.alg, "right"), unit,
                               "smash(%s,%s)" % (A.name or "A", B.name or "B"),
                               sub_embedding=emb, sub_alg=B.alg)


def right_generalized_smash(A: ComoduleAlgebra, P: ModuleAlgebra) -> ProductAlgebra:
    """Right comodule algebra against right module algebra, carrier
    ordered (comodule, module): the mirror of ``generalized_smash`` over
    the opcop reflections of both factors."""
    if A.side != "right" or P.side != "right":
        raise ShapeMismatch("needs a right comodule algebra and a right module algebra")
    shared_base(A, P)
    native = generalized_smash(P.reflect("opcop"), comodule_variant(A, "opcop"))
    return _mirror(native, "rsmash(%s,%s)" % (A.name or "A", P.name or "P"), A.alg)


def stgsm_product(A: ComoduleAlgebra, C: ModuleCoalgebra) -> ProductAlgebra:
    """The opposite-composed smash on the dual carrier: functionals with
    the flipped convolution against a right comodule algebra, the
    reassociator itself (not its inverse) steering the product."""
    if A.side != "right" or C.side != "right":
        raise ShapeMismatch("needs a right comodule algebra and a right module coalgebra")
    shared_base(A, C)
    D = dualize(C)
    dual, act = D.alg.opposite(), D.left_action    # the flipped convolution

    def mult_fn(f, g, k):
        e = A.re_el()                     # XA X2 X3
        e = e.times(El.basis((dual,), (f,))).times(El.basis((dual,), (g,)))
        e = e.times(El.basis((A.alg,), (k,)))
        e = e.map(A.coaction, 5)          # XA X2 X3 f g u20 u21
        e = e.merge(1, 6)                 # X2 u21
        e = e.map(act, (1, 3), at=1)      # . f
        e = e.map(act, (2, 3), at=2)      # X3 . g
        e = e.merge(1, 2)                 # functional product
        e = e.merge(0, 2)                 # XA u20, then u on the right
        return e.perm((1, 0)).t

    return _product_from_pairs(mult_fn, (1, A.alg, "right"), dual.unit.outer(A.alg.unit),
                               "stgsm(%s,%s)" % (A.name or "A", C.name or "C"))


def koppinen_smash(C: ModuleCoalgebra, B: ComoduleAlgebra) -> ProductAlgebra:
    """The convolution-type product on maps from the coalgebra to the
    comodule algebra, represented on the dual-basis carrier."""
    if C.side != "right" or B.side != "left":
        raise ShapeMismatch("needs a right module coalgebra and a left comodule algebra")
    shared_base(C, B)
    field, dC = C.field, C.dim

    # <e^f, .>: the entries at index f of a coalgebra leg
    evals = [LinMap(field, (dC,), (), {(f,): {(): field.one}}) for f in range(dC)]
    # c1 c2 of every basis element m of C, m on the leading leg
    comult = El((C.space,) * 3, C.comult.as_tensor())

    def mult_fn(i, j, k):
        e = comult.times(B.re_inv_el())   # m c1 c2 x1 x2 xB
        e = e.map(C.right_action, (1, 3), at=1)   # m c1.x1 c2 x2 xB
        e = e.map(evals[i], (1,), out_spaces=())  # <e^i, .>
        e = e.times(El.basis((B.alg,), (j,)))     # m c2 x2 xB bj
        e = e.map(B.coaction, 4)          # m c2 x2 xB bj-1 bj0
        e = e.merge(2, 4)                 # x2 bj-1
        e = e.map(C.right_action, (1, 2), at=1)   # m c2.x2bj-1 xB bj0
        e = e.map(evals[k], (1,), out_spaces=())  # <e^k, .>
        return e.merge(1, 2).t            # m, xB bj0, then bl on the right

    full_unit = C.counit.as_tensor().outer(B.alg.unit)
    return _product_from_pairs(mult_fn, (3, B.alg, "right"), full_unit,
                               "koppinen(%s,%s)" % (C.name or "C", B.name or "B"))


def alpha_morphism(C: ModuleCoalgebra, B: ComoduleAlgebra):
    """The comparison map from the generalized smash on the dual to the
    convolution-carrier smash: on the dual-basis representation it is the
    identity matrix, so the content is that the two full multiplication
    tables agree.  Returns (map, report)."""
    shared_base(C, B)
    smash = generalized_smash(dualize(C), B)
    kop = koppinen_smash(C, B)
    dim = smash.dim

    report = CheckReport("alpha comparison (%s,%s)" % (C.name or "C", B.name or "B"))
    report.sweep_all("multiplicative", (dim, dim), smash.carrier.mult.as_tensor(),
                     kop.carrier.mult.as_tensor())
    report.compare("unit-preserving", smash.carrier.unit, kop.carrier.unit)
    # the identity matrix between the carriers is invertible exactly
    # when they have the same dimension
    report.add("bijective", dim == kop.dim, lhs=dim, rhs=kop.dim)
    return LinMap.identity(C.field, (dim,)), report


def phi_isomorphism(C: ModuleCoalgebra):
    """The algebra isomorphism between the smash on the dual over the
    regular left coaction and the opposite-composed smash over the
    regular right coaction, given by antipode-corrected conjugation.

    Returns (phi, phi_inverse, source, target, report).
    """
    if C.side != "right":
        raise ShapeMismatch("needs a right module coalgebra")
    H = C.H
    S, S_inv = H.antipode, H.antipode_inv
    field = C.field
    left_reg = regular_comodule_algebra(H, "left")
    right_reg = regular_comodule_algebra(H, "right")
    dual = dualize(C)
    source = generalized_smash(dual, left_reg)
    target = stgsm_product(right_reg, C)

    twist = drinfeld_twist(H)
    g_el = El(H.spaces(2), twist.inv)
    elements_left = canonical_elements(left_reg, verify=False)
    elements_right = canonical_elements(right_reg, verify=False)
    q_lambda = El(H.spaces(2), elements_left.q.t)
    q_rho = El(H.spaces(2), elements_right.q_right.t)
    dC, dH = C.dim, H.dim

    # every basis element (f, h) of the carrier at once, f and h on the
    # leading legs
    dual_basis = El((dual.alg,) * 2, _identity(field, dC))
    comult = El((H.alg,) * 3, H.comult.as_tensor())

    def acting_on_dual(e):
        # the first leg of e (after h) acts on the dual basis vector e^f
        e = dual_basis.times(e).map(dual.left_action, (3, 1), at=2)   # f h e1.e^f e2
        return LinMap.from_tensor(e.t.fuse([[0, 1], [2, 3]]), 1)

    e = comult.premul_embedded(q_lambda, (1, 2)).mul_embedded(g_el, (1, 2))
    phi = acting_on_dual(e.map(S_inv, 1).map(S_inv, 2))   # S^-1(q1 h1 g1), S^-1(q2 h2 g2)
    e = comult.premul_embedded(q_rho, (1, 2)).map(S, 1).map(S, 2)   # S(qa h1), S(q2 h2)
    phi_inv = acting_on_dual(e.perm((0, 2, 1)).premul_embedded(g_el, (1, 2)))
    dim = dC * dH

    report = CheckReport("smash comparison iso %s" % (C.name or "C"))
    report.sweep_all("multiplicative", (dim, dim),
                     *multiplicative_sides(source.carrier, phi, (target.carrier,)))
    report.compare("unit-preserving",
                   apply_linear_map(phi, source.carrier.unit, (0,)),
                   target.carrier.unit)
    ident = LinMap.identity(field, (dim,))
    report.add("inverse-right", phi.compose(phi_inv) == ident)
    report.add("inverse-left", phi_inv.compose(phi) == ident)
    return phi, phi_inv, source, target, report


class OmegaData:
    """The exchange data of a diagonal crossed product: the composite
    two-sided coaction, its five-leg coherence element with inverse, and
    the antipode-corrected variant used by the right products.

    ``omega_right_inv`` inverts ``omega_right`` with legs 0 and 1 in the
    opposite algebra, where the reshuffle into the one-sided realizations
    puts them (on a commutative base this is the plain inverse).  Only
    the reshuffle checks of Prop 3.10 read it, so it is built from
    ``psi_inv`` on first read."""

    def __init__(self, kind, A: BicomoduleAlgebra, delta, psi, psi_inv, omega_right):
        self.kind = kind
        self.A = A
        self.delta = delta
        self.psi = psi
        self.psi_inv = psi_inv
        self.omega_right = omega_right

    @functools.cached_property
    def omega_right_inv(self):
        # S^-1 on legs 0 and 1 is an algebra map onto H^op there, and
        # (S^-1 x S^-1)(f) inverts g_corr of build_omega in H^op x H^op
        H = self.A.H
        S_inv = H.antipode_inv
        sp5 = (H.alg, H.alg, self.A.alg, H.alg, H.alg)
        e = El(sp5, self.psi_inv).map(S_inv, 0, at=0).map(S_inv, 1, at=1)
        f_corr = apply_linear_map(S_inv, apply_linear_map(S_inv, drinfeld_twist(H).t, (0,)), (1,))
        return multiply(sp5, e.t, f_corr, y_legs=(0, 1))


def build_omega(A: BicomoduleAlgebra, kind: str) -> OmegaData:
    """Materialize the exchange data for one of the two coaction orders."""
    if kind not in ("l", "r"):
        raise ShapeMismatch("kind must be 'l' or 'r'")
    H = A.H
    check_closed_form_inputs(A)
    alg = A.alg
    sp5 = (H.alg, H.alg, alg, H.alg, H.alg)
    twist = drinfeld_twist(H)
    S_inv = H.antipode_inv

    # psi is a product of three invertible factors; psi_inv multiplies
    # their inverses in the reversed order.  They invert each other since
    # the coactions are algebra maps and each stated inverse inverts its
    # factor, both checked at the factors above
    if kind == "l":
        delta = apply_linear_map(A.left_coaction, A.right_coaction.as_tensor(), (1,))

        def exchange(theta, phi_right, phi_left, reverse):
            theta = El(A.mixed_spaces(), theta)            # Theta x 1 in H A H H
            inner = El((alg, H.alg, H.alg), phi_right).map(A.left_coaction, 0)
            e = (inner.mul_embedded if reverse else inner.premul_embedded)(theta, (0, 1, 2))
            e = e.map(A.left_coaction, 1)                 # H H A H H
            outer = El((H.alg, H.alg, alg), phi_left)
            return (e.premul_embedded if reverse else e.mul_embedded)(outer, (0, 1, 2)).t

        psi = exchange(A.reassoc_mixed, A.reassoc_right_inv, A.reassoc_left, False)
        psi_inv = exchange(A.reassoc_mixed_inv, A.reassoc_right, A.reassoc_left_inv, True)
    else:
        delta = apply_linear_map(A.right_coaction, A.left_coaction.as_tensor(), (2,))

        def exchange(theta_inv, phi_left, phi_right_inv, reverse):
            theta_inv = El(A.mixed_spaces(), theta_inv)    # 1 x Theta^-1 in H H A H
            inner = El((H.alg, H.alg, alg), phi_left).map(A.right_coaction, 2)
            e = (inner.mul_embedded if reverse else inner.premul_embedded)(theta_inv, (1, 2, 3))
            e = e.map(A.right_coaction, 2)                # H H A H H
            outer = El((alg, H.alg, H.alg), phi_right_inv)
            return (e.premul_embedded if reverse else e.mul_embedded)(outer, (2, 3, 4)).t

        psi = exchange(A.reassoc_mixed_inv, A.reassoc_left, A.reassoc_right_inv, False)
        psi_inv = exchange(A.reassoc_mixed, A.reassoc_left_inv, A.reassoc_right, True)

    delta = LinMap.from_tensor(delta, 1, (H.alg, alg, H.alg))

    e = El(sp5, psi).map(S_inv, 0, at=0).map(S_inv, 1, at=1)
    g_corr = apply_linear_map(S_inv, apply_linear_map(S_inv, twist.inv, (0,)), (1,))
    omega_right = multiply(sp5, g_corr, e.t, x_legs=(0, 1))
    return OmegaData(kind, A, delta, psi, psi_inv, omega_right)


DIAGONAL_KINDS = ("left-l", "left-r", "right-l", "right-r")


def diagonal_crossed_product(A: BicomoduleAlgebra, M: ModuleAlgebra,
                             kind: str) -> ProductAlgebra:
    """One of the four generalized diagonal crossed products of a
    two-sided module algebra with a bicomodule algebra.  The right
    products are native; left-l and left-r are the mirrors of right-r
    and right-l over the opcop reflections of A and M."""
    if kind not in DIAGONAL_KINDS:
        raise ShapeMismatch("kind must be one of %r" % (DIAGONAL_KINDS,))
    if M.side != "bi":
        raise ShapeMismatch("needs a two-sided module algebra")
    shared_base(A, M)
    side, order = kind.split("-")
    if side == "right":
        return _diagonal_product(M, build_omega(A, order))
    A_mirror = bicomodule_variant(A, "opcop")
    native = _diagonal_product(M.reflect("opcop"),
                               build_omega(A_mirror, "r" if order == "l" else "l"))
    return _mirror(native, "diagonal-left-%s(%s,%s)" % (order, A.name or "A", M.name or "M"),
                   A.alg)


def _diagonal_product(M: ModuleAlgebra, data: OmegaData) -> ProductAlgebra:
    """The right diagonal crossed product from exchange data already
    built for its coaction order, over the bicomodule algebra of the
    data."""
    A = data.A
    H = A.H
    order = data.kind
    S_inv = H.antipode_inv
    om = El((H.alg, H.alg, A.alg, H.alg, H.alg), data.omega_right)
    lact, ract = M.left_action, M.right_action

    def expand(e, leg):
        if order == "l":
            return e.map(A.right_coaction, leg).map(A.left_coaction, leg)
        return e.map(A.left_coaction, leg).map(A.right_coaction, leg + 1)

    @functools.cache
    def reads_only_u(k):
        # the part of the pipeline before m_j is first read, once per k
        e = expand(om.times(El.basis((A.alg,), (k,))), 5)   # O1..O5 u2-1 u200 u21
        e = e.merge(6, 2)                 # u200 O3 -> O1 O2 O4 O5 u2-1 u2O3 u21
        e = e.map(S_inv, 4)
        return e.merge(1, 4)              # O2 S^-1(u2-1) -> O1 O2 O4 O5 u2O3 u21

    def mult_fn(j, k, l):
        e = reads_only_u(k).times(El.basis((M.alg,), (j,))).times(El.basis((M.alg,), (l,)))
        e = e.map(lact, (1, 6), at=4)     # O1 O4 O5 u2O3 phi2 u21 psi
        e = e.merge(5, 1)                 # u21 O4 -> O1 O5 u2O3 phi2 u21O4 psi
        e = e.map(ract, (3, 4), at=3)     # O1 O5 u2O3 phi3 psi
        e = e.map(lact, (0, 4), at=3)     # O5 u2O3 phi3 psi2
        e = e.map(ract, (3, 0), at=2)     # u2O3 phi3 psi3
        e = e.merge(1, 2)                 # product in M
        return e.t                        # u on the left of u2O3

    return _product_from_pairs(mult_fn, (0, A.alg, "left"),
                               A.alg.unit.outer(M.alg.unit), "diagonal-right-%s(%s,%s)" % (
                                   order, A.name or "A", M.name or "M"),
                               sub_embedding=_unit_embedding(A.alg, M.alg, True),
                               sub_alg=A.alg)


def check_prop_3_10(A: BicomoduleAlgebra, C: ModuleCoalgebra) -> CheckReport:
    """Compare the two smash-against-the-dual algebras over the twisted
    tensor square with the two right diagonal crossed products, built by
    independent code paths, entrywise on all product pairs."""
    if C.side != "bi":
        raise ShapeMismatch("needs a bimodule coalgebra")
    shared_base(A, C)
    report = CheckReport("diagonal-crossed-product comparison")

    # path one: one-sided realizations over the twisted tensor square;
    # path two: diagonal crossed products straight from the exchange data
    first, second, square = bicomodule_to_right_op_tensor(A)
    dual_over_square = dualize(bimodule_to_op_tensor_module_coalgebra(C, base=square))
    dual_bi = dualize(C)
    data_l, data_r = build_omega(A, "l"), build_omega(A, "r")
    # one pair of tables at a time, let go before the next is built: at
    # dim 64 each table holds 262144 entries
    for tag, one_sided, data in (("first", first, data_l), ("second", second, data_r)):
        lhs = right_generalized_smash(one_sided, dual_over_square)
        rhs = _diagonal_product(dual_bi, data)
        report.sweep_all("tables-equal-" + tag, (lhs.dim,) * 2,
                         lhs.carrier.mult.as_tensor(), rhs.carrier.mult.as_tensor())
        report.compare("units-equal-" + tag, lhs.carrier.unit, rhs.carrier.unit)
        del lhs, rhs

    # the documented reshuffle: the one-sided reassociators are the
    # inverted exchange elements re-fused into the square base
    for tag, one_sided, data in (("first", first, data_l), ("second", second, data_r)):
        reshuffled = switch_legs(data.omega_right_inv, (2, 1, 3, 0, 4)).fuse(
            [[0], [1, 2], [3, 4]])
        report.compare("reassoc-reshuffle-" + tag, one_sided.reassoc, reshuffled)
    return report
