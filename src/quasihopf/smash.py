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
        e = B.re_inv_el("x1 x2 x").times(El.basis((A.alg,), (i,), "a"))
        e = e.times(El.basis((B.alg,), (j,), "b")).map(B.coaction, "b", "h b")
        return e.map(act, "x1 a", "a").merge("x2", "h")    # x1 . a, x2 b-1

    def mult_fn(i, j, k):
        e = reads_only_ij(i, j).times(El.basis((A.alg,), (k,), "a2"))
        e = e.map(act, "x2 a2", "a2").merge("a", "a2")     # (x1 . a)(x2 b-1 . a2)
        return e.merge("x", "b").tensor("a x")             # xB b0, then b2 on the right

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
        e = A.re_el("x x2 x3").times(El.basis((dual,), (f,), "f"))
        e = e.times(El.basis((dual,), (g,), "g")).times(El.basis((A.alg,), (k,), "u"))
        e = e.map(A.coaction, "u", "u u1").merge("x2", "u1")   # X2 u21
        e = e.map(act, "x2 f", "f").map(act, "x3 g", "g")      # X2 u21 . f, X3 . g
        e = e.merge("f", "g").merge("x", "u")   # functional product; XA u20, then u on the right
        return e.tensor("f x")

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
    evals = [LinMap(field, (dC,), (), {(f,): {(): field.one}}, dst_spaces=())
             for f in range(dC)]
    # c1 c2 of every basis element m of C, m on the leading leg
    comult = El((C.space,) * 3, C.comult.as_tensor(), "m c1 c2")

    def mult_fn(i, j, k):
        e = comult.times(B.re_inv_el("x1 x2 x")).map(C.right_action, "c1 x1", "c1")
        e = e.map(evals[i], "c1", "").times(El.basis((B.alg,), (j,), "b"))   # <e^i, c1 . x1>
        e = e.map(B.coaction, "b", "h b").merge("x2", "h")                 # x2 bj-1
        e = e.map(C.right_action, "c2 x2", "c2").map(evals[k], "c2", "")   # <e^k, c2 . x2 bj-1>
        return e.merge("x", "b").tensor("m x")    # m, xB bj0, then bl on the right

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
    q_lambda = canonical_elements(left_reg, verify=False).q
    q_rho = canonical_elements(right_reg, verify=False).q_right
    dC, dH = C.dim, H.dim

    comult = functools.partial(El, (H.alg,) * 3, H.comult.as_tensor())
    def acting_on_dual(e):
        # e1 acts on the dual basis vector e^f, for every basis element
        # (f, h) of the carrier at once, f and h on the leading legs
        e = El((dual.alg,) * 2, _identity(field, dC), "f d").times(e)
        e = e.map(dual.left_action, "e1 d", "d")
        return LinMap.from_tensor(e.tensor("f h d e2").fuse([[0, 1], [2, 3]]), 1)

    # S^-1(q1 h1 g1), S^-1(q2 h2 g2)
    e = H.el(q_lambda, "e1 e2").mul(comult("h e1 e2")).mul(H.el(twist.inv, "e1 e2"))
    phi = acting_on_dual(e.map(S_inv, "e1", "e1").map(S_inv, "e2", "e2"))
    # g1 S(q2 h2), g2 S(qa h1)
    e = H.el(q_rho, "e2 e1").mul(comult("h e2 e1")).map(S, "e1", "e1").map(S, "e2", "e2")
    phi_inv = acting_on_dual(H.el(twist.inv, "e1 e2").mul(e))
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

    ``delta`` is the composite coaction into H (x) A (x) H of the
    coaction order ``kind``: u -> (u0)-1 (u0)0 u1 for "l" and
    u -> u-1 (u0)0 (u0)1 for "r".  The "r" data are the cop mirror of
    the "l" data (``build_omega``), and the diagonal product expands its
    bicomodule factor by ``delta`` alone: past ``build_omega`` the order
    is only a name.

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
        e = El(sp5, self.psi_inv, "a b c d e").map(S_inv, "a", "a").map(S_inv, "b", "b")
        f_corr = apply_linear_map(S_inv, apply_linear_map(S_inv, drinfeld_twist(H).t, (0,)), (1,))
        return e.mul(H.el(f_corr, "a b")).tensor("a b c d e")


def _exchange_data(A: BicomoduleAlgebra):
    """``(delta, psi, psi_inv)`` of the "l" coaction order, as tensors:
    the composite coaction u -> (u0)-1 (u0)0 u1 and the five-leg exchange
    element with its inverse.  psi is a product of three invertible
    factors; psi_inv multiplies their inverses in the reversed order.
    They invert each other since the coactions are algebra maps and each
    stated inverse inverts its factor, both checked at the factors
    (``check_closed_form_inputs`` in ``build_omega``)."""
    H, alg = A.H, A.alg
    delta = apply_linear_map(A.left_coaction, A.right_coaction.as_tensor(), (1,))

    def exchange(theta, phi_right, phi_left, reverse):
        # on the legs a b c d e in H H A H H, the product of phi_left at a b c,
        # the left coaction of theta at a c d and of phi_right at c d e
        theta = El(A.mixed_spaces(), theta, "a c d")
        inner = El((alg, H.alg, H.alg), phi_right, "c d e").map(A.left_coaction, "c", "a c")
        e = (inner.mul(theta) if reverse else theta.mul(inner)).map(A.left_coaction, "c", "b c")
        outer = El((H.alg, H.alg, alg), phi_left, "a b c")
        return (outer.mul(e) if reverse else e.mul(outer)).tensor("a b c d e")

    return (delta, exchange(A.reassoc_mixed, A.reassoc_right_inv, A.reassoc_left, False),
            exchange(A.reassoc_mixed_inv, A.reassoc_right, A.reassoc_left_inv, True))


def build_omega(A: BicomoduleAlgebra, kind: str) -> OmegaData:
    """Materialize the exchange data for one of the two coaction orders:
    "l" by its own pipeline, "r" as the cop mirror of "l", the "l" data
    of the cop reflection of A with their legs reversed."""
    if kind not in ("l", "r"):
        raise ShapeMismatch("kind must be 'l' or 'r'")
    H = A.H
    check_closed_form_inputs(A)
    if kind == "l":
        delta, psi, psi_inv = _exchange_data(A)
    else:
        delta, psi, psi_inv = _exchange_data(bicomodule_variant(A, "cop"))
        delta = switch_legs(delta, (0, 3, 2, 1))
        psi, psi_inv = (switch_legs(t, (4, 3, 2, 1, 0)) for t in (psi, psi_inv))
    delta = LinMap.from_tensor(delta, 1, (H.alg, A.alg, H.alg))

    S_inv = H.antipode_inv
    sp5 = (H.alg, H.alg, A.alg, H.alg, H.alg)
    e = El(sp5, psi, "a b c d e").map(S_inv, "a", "a").map(S_inv, "b", "b")
    g_corr = apply_linear_map(S_inv, apply_linear_map(S_inv, drinfeld_twist(H).inv, (0,)), (1,))
    omega_right = H.el(g_corr, "a b").mul(e).tensor("a b c d e")
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
    S_inv = H.antipode_inv
    om = El((H.alg, H.alg, A.alg, H.alg, H.alg), data.omega_right, "o1 o2 o3 o4 o5")
    lact, ract = M.left_action, M.right_action

    @functools.cache
    def reads_only_u(k):
        # the part of the pipeline before m_j is first read, once per k;
        # delta sends u to s u r = (u0)-1 (u0)0 u1
        e = om.times(El.basis((A.alg,), (k,), "u")).map(data.delta, "u", "s u r")
        return e.merge("u", "o3").map(S_inv, "s", "s").merge("o2", "s")   # u O3, O2 S^-1(s)

    def mult_fn(j, k, l):
        e = reads_only_u(k).times(El.basis((M.alg,), (j,), "m"))
        e = e.times(El.basis((M.alg,), (l,), "n")).merge("r", "o4")        # r O4
        e = e.map(lact, "o2 m", "m").map(ract, "m r", "m")     # (O2 S^-1(s) . m) . r O4
        e = e.map(lact, "o1 n", "n").map(ract, "n o5", "n")    # (O1 . n) . O5
        return e.merge("m", "n").tensor("u m")                 # u on the left of u O3

    return _product_from_pairs(mult_fn, (0, A.alg, "left"),
                               A.alg.unit.outer(M.alg.unit), "diagonal-right-%s(%s,%s)" % (
                                   data.kind, A.name or "A", M.name or "M"),
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
