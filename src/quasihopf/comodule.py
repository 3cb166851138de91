"""Comodule algebras, bicomodule algebras, twist equivalence, the
canonical comparison elements, and the one-sided realizations of a
bicomodule algebra over the twisted tensor-square bases.
"""

from __future__ import annotations

from .errors import NotInvertible, QuasiHopfError, ShapeMismatch, WitnessNotNormalized
from .hopf import (GaugeTransformation, QuasiBialgebra, QuasiHopfAlgebra, _derived,
                   drinfeld_twist, gauge_twist, op_tensor, tensor_op, variant)
from .report import CheckReport
from .tensor import (El, FinAlgebra, LinMap, Tensor, _identity, apply_linear_map,
                     invert_element, multiplicative_sides, multiply, swap_factors,
                     switch_legs, unit_tensor)


class ComoduleAlgebra:
    """Algebra with a one-sided coaction and invertible reassociator.

    side "right": coaction rho: A -> A (x) H, reassociator in A x H x H.
    side "left":  coaction lam: B -> H (x) B, reassociator in H x H x B.
    """

    def __init__(self, H: QuasiBialgebra, side: str, alg: FinAlgebra,
                 coaction: LinMap, reassoc: Tensor, reassoc_inv: Tensor, name=""):
        if side not in ("left", "right"):
            raise ShapeMismatch("side must be 'left' or 'right'")
        d, dh = alg.dim, H.dim
        want_dst = (d, dh) if side == "right" else (dh, d)
        want_re = (d, dh, dh) if side == "right" else (dh, dh, d)
        if coaction.src != (d,) or coaction.dst != want_dst:
            raise ShapeMismatch("coaction has shape %r -> %r" % (coaction.src, coaction.dst))
        if reassoc.dims != want_re:
            raise ShapeMismatch("reassociator dims %r" % (reassoc.dims,))
        self.H = H
        self.side = side
        self.alg = alg
        self.field = alg.field
        self.coaction = coaction.rebind(
            (alg, H.alg) if side == "right" else (H.alg, alg))
        self.reassoc = reassoc
        self.reassoc_inv = reassoc_inv
        self.name = name

    def reassoc_spaces(self):
        if self.side == "right":
            return (self.alg, self.H.alg, self.H.alg)
        return (self.H.alg, self.H.alg, self.alg)

    def re_el(self) -> El:
        return El(self.reassoc_spaces(), self.reassoc)

    def re_inv_el(self) -> El:
        return El(self.reassoc_spaces(), self.reassoc_inv)

    def __repr__(self):
        return "ComoduleAlgebra(%s, dim=%d%s)" % (
            self.side, self.alg.dim, ", %r" % self.name if self.name else "")


class TwistWitness:
    """Invertible counit-normalized element relating two coactions."""

    def __init__(self, X: ComoduleAlgebra, t: Tensor, inv: Tensor):
        H = X.H
        want = (X.alg.dim, H.dim) if X.side == "right" else (H.dim, X.alg.dim)
        if t.dims != want:
            raise ShapeMismatch("witness dims %r" % (t.dims,))
        leg = 1 if X.side == "right" else 0
        if apply_linear_map(H.counit, t, (leg,)) != X.alg.unit:
            raise WitnessNotNormalized("counit normalization fails")
        self.X = X
        self.t = t
        self.spaces = (X.alg, H.alg) if X.side == "right" else (H.alg, X.alg)
        self.inv = inv

    def inverse_witness(self) -> "TwistWitness":
        return TwistWitness(self.X, self.inv, self.t)


def verify_comodule_algebra(X: ComoduleAlgebra) -> CheckReport:
    """All comodule-algebra axioms for the given side, exhaustively."""
    report = CheckReport("%s comodule algebra %s" % (X.side, X.name or ""))
    H, alg = X.H, X.alg
    report.sweep_all("coaction-multiplicative", (alg.dim,) * 2,
                     *multiplicative_sides(alg, X.coaction, X.coaction.dst_spaces))
    report.compare("coaction-unital",
                   apply_linear_map(X.coaction, alg.unit, (0,)),
                   unit_tensor(X.coaction.dst_spaces))

    re, re_inv = X.re_el(), X.re_inv_el()
    unit3 = El.unit(X.reassoc_spaces())
    # both products: the associativity of A is not a record of this report
    report.compare_all("reassoc-invertible", ((re.mul(re_inv).t, unit3.t),
                                              (re_inv.mul(re).t, unit3.t)))

    # the coaction image c of every basis element at once, the element's
    # index on the leading leg and the reassociator on the other three
    c = El((alg,) + X.coaction.dst_spaces, X.coaction.as_tensor())
    if X.side == "right":
        lhs = c.map(X.coaction, 1).premul_embedded(re, (1, 2, 3))
        rhs = c.map(H.comult, 2).mul_embedded(re, (1, 2, 3))
    else:
        lhs = c.map(X.coaction, 2).mul_embedded(re, (1, 2, 3))
        rhs = c.map(H.comult, 1).premul_embedded(re, (1, 2, 3))
    report.sweep_all("coaction-quasi-coassoc", (alg.dim,), lhs.t, rhs.t)

    # the H leg of the coaction's tensor form, after its source leg
    counit_leg = 2 if X.side == "right" else 1
    report.sweep_all("coaction-counit", (alg.dim,),
                     apply_linear_map(H.counit, X.coaction.as_tensor(), (counit_leg,)),
                     _identity(X.field, alg.dim))

    phi = H.el(H.reassoc)
    if X.side == "right":
        lhs = re.map(H.comult, 1).premul_embedded(phi, (1, 2, 3)).mul_embedded(re, (0, 1, 2))
        rhs = re.map(H.comult, 2).mul(re.map(X.coaction, 0))
    else:
        lhs = re.map(H.comult, 1).premul_embedded(re, (1, 2, 3)).mul_embedded(phi, (0, 1, 2))
        rhs = re.map(X.coaction, 2).mul(re.map(H.comult, 0))
    report.compare("reassoc-pentagon", lhs.t, rhs.t)

    unit2 = unit_tensor((alg, H.alg) if X.side == "right" else (H.alg, alg))
    mid = re.map(H.counit, (1,)).t
    outer = re.map(H.counit, (2 if X.side == "right" else 0,)).t
    report.compare("reassoc-counit-middle", mid, unit2)
    report.compare("reassoc-counit-outer", outer, unit2)
    return report


def twist_comodule_algebra(X: ComoduleAlgebra, V: TwistWitness) -> ComoduleAlgebra:
    """Conjugate the coaction by a normalized invertible witness."""
    if V.X is not X and V.t.dims != (
            (X.alg.dim, X.H.dim) if X.side == "right" else (X.H.dim, X.alg.dim)):
        raise ShapeMismatch("witness does not fit this comodule algebra")
    H, alg = X.H, X.alg
    v = El(V.spaces, V.t)
    v_inv = El(V.spaces, V.inv)
    # v c v^-1 for the coaction image c of every basis element at once
    sp = X.coaction.dst_spaces
    coaction = El((alg,) + sp, X.coaction.as_tensor()).premul_embedded(v, (1, 2)).mul_embedded(
        v_inv, (1, 2))
    coaction = LinMap.from_tensor(coaction.t, 1, sp)
    re = X.re_el()
    re_inv = X.re_inv_el()
    if X.side == "right":
        new_re = v.map(H.comult, 1).mul(re).mul(v_inv.map(X.coaction, 0)).mul_embedded(
            v_inv, (0, 1))
        new_re_inv = v.map(X.coaction, 0).premul_embedded(v, (0, 1)).mul(re_inv).mul(
            v_inv.map(H.comult, 1))
    else:
        new_re = v.map(X.coaction, 1).premul_embedded(v, (1, 2)).mul(re).mul(
            v_inv.map(H.comult, 0))
        new_re_inv = v.map(H.comult, 0).mul(re_inv).mul(
            v_inv.map(X.coaction, 1)).mul_embedded(v_inv, (1, 2))
    return ComoduleAlgebra(H, X.side, alg, coaction, new_re.t, new_re_inv.t,
                           name=(X.name + "'") if X.name else "")


def gauge_twist_comodule_algebra(X: ComoduleAlgebra, F: GaugeTransformation):
    """Right comodule algebra over the gauge-twisted base; the coaction
    is unchanged, the reassociator picks up the gauge on its two H legs.

    Returns (twisted comodule algebra, twisted base).
    """
    if X.side != "right":
        raise ShapeMismatch("gauge transport is defined for the right side")
    H_f = gauge_twist(X.H, F)
    sp = X.reassoc_spaces()
    new_re = multiply(sp, F.t, X.reassoc, x_legs=(1, 2))
    new_re_inv = multiply(sp, X.reassoc_inv, F.inv, y_legs=(1, 2))
    out = ComoduleAlgebra(H_f, "right", X.alg, X.coaction, new_re, new_re_inv,
                          name=(X.name + "_twisted") if X.name else "")
    return out, H_f


COMODULE_VARIANT_KINDS = ("cop", "opcop", "op", "op-antipode")


def comodule_variant(X: ComoduleAlgebra, kind: str) -> ComoduleAlgebra:
    """Reflections of a comodule algebra across the op / cop variants of
    the base, including the antipode-mediated side flip that turns a
    left comodule algebra into a right one over the opposite base."""
    if kind not in COMODULE_VARIANT_KINDS:
        raise ShapeMismatch("unknown comodule variant %r" % (kind,))
    H, alg = X.H, X.alg
    rev = (2, 1, 0)

    if kind == "op-antipode":
        if X.side != "left":
            raise ShapeMismatch("the antipode flip takes a left comodule algebra")
        check_closed_form_inputs(X)
        twist = drinfeld_twist(H)
        S_inv = H.antipode_inv
        # b -> b0 (x) S^-1(b-1)
        rho = apply_linear_map(S_inv, X.coaction.as_tensor(), (1,))
        coaction = LinMap.from_tensor(switch_legs(rho, (0, 2, 1)), 1)

        def reassoc(phi_inv, f):
            e = El(X.reassoc_spaces(), phi_inv).premul_embedded(El(H.spaces(2), f), (0, 1))
            e = e.map(S_inv, 0).map(S_inv, 1)    # S^-1(f1 x1), S^-1(f2 x2), xB
            return e.perm((2, 1, 0)).t           # xB, S^-1(f2 x2), S^-1(f1 x1)

        H_out = variant(H, "op")
        spaces = (alg, H_out.alg, H_out.alg)
        re, re_inv = _reassoc_pair(
            spaces, reassoc, (X.reassoc_inv, twist.t), (X.reassoc, twist.inv),
            (X.reassoc_spaces(), H.spaces(2)), (1, 0))
        return ComoduleAlgebra(H_out, "right", alg, coaction, re, re_inv,
                               name=(X.name + "^Sflip") if X.name else "")

    if kind == "op":
        return ComoduleAlgebra(variant(H, "op"), X.side, alg.opposite(), X.coaction,
                               X.reassoc_inv, X.reassoc,
                               name=(X.name + "^op") if X.name else "")

    # cop and opcop flip the coaction to the other side and reverse the
    # reassociator legs; cop also trades the reassociator for its inverse
    re, re_inv = (X.reassoc_inv, X.reassoc) if kind == "cop" else (X.reassoc, X.reassoc_inv)
    return ComoduleAlgebra(variant(H, kind), "right" if X.side == "left" else "left",
                           alg if kind == "cop" else alg.opposite(),
                           X.coaction.permute(dst=(1, 0)),
                           switch_legs(re, rev), switch_legs(re_inv, rev),
                           name=(X.name + "^" + kind) if X.name else "")


class CanonicalElements:
    """The comparison elements attached to comodule-algebra data.

    For a left comodule algebra these are p (built from the reassociator
    and beta) and q (from its inverse and alpha), both in H x B; for a
    right comodule algebra the element q_r in A x H.  ``report`` carries
    the exhaustive verification of their defining identities.
    """

    def __init__(self, p=None, q=None, q_right=None, report=None):
        self.p = p
        self.q = q
        self.q_right = q_right
        self.report = report


def canonical_elements(X, verify: bool = True) -> CanonicalElements:
    """Construct the comparison elements; with ``verify`` the defining
    identities are checked exhaustively and recorded in the report."""
    if isinstance(X, BicomoduleAlgebra):
        left, right = X.left(), X.right()
    elif X.side == "left":
        left, right = X, None
    else:
        left, right = None, X
    H = X.H
    S, S_inv = H.antipode, H.antipode_inv
    alpha_el = El((H.alg,), H.alpha)
    beta_el = El((H.alg,), H.beta)
    report = CheckReport("canonical elements %s" % (getattr(X, "name", "") or ""))

    p = q = q_right = None
    if right is not None:
        q_right = right.re_el().premul_embedded(alpha_el, (2,)).map(S_inv, 2).merge(2, 1)
    if left is not None:
        p = left.re_el().mul_embedded(beta_el, (0,)).map(S_inv, 0).merge(1, 0)  # [H, B]
        q = left.re_inv_el().map(S, 0).mul_embedded(alpha_el, (0,)).merge(0, 1)  # [H, B]
    if not verify:
        return CanonicalElements(p=p, q=q, q_right=q_right, report=report)
    if left is not None:
        alg = left.alg
        lam = left.coaction
        sp2 = (H.alg, alg)
        unit2 = unit_tensor(sp2)

        # b-1, b0-1, b00 of every basis element b at once, b's index on
        # the leading leg; the identity's second leg is b itself
        ident = _identity(X.field, alg.dim)
        b3 = El((alg,) + lam.dst_spaces, lam.as_tensor()).map(lam, 2)
        sp3 = (alg,) + sp2
        report.sweep_all("coaction-slides-through-p", (alg.dim,),
                         b3.mul_embedded(p, (2, 3)).map(S_inv, 1).merge(2, 1).t,
                         multiply(sp3, p.t, ident, x_legs=(1, 2), y_legs=(0, 2)))
        report.sweep_all("coaction-slides-through-q", (alg.dim,),
                         b3.map(S, 1).premul_embedded(q, (2, 3)).merge(1, 2).t,
                         multiply(sp3, ident, q.t, x_legs=(0, 2), y_legs=(1, 2)))

        e = q.map(lam, 1).mul_embedded(p, (1, 2)).map(S_inv, 0).merge(1, 0)
        report.compare("q-then-p-cancels", e.t, unit2)
        e = p.map(lam, 1).premul_embedded(q, (1, 2)).map(S, 0).merge(0, 1)
        report.compare("p-then-q-cancels", e.t, unit2)

        twist = drinfeld_twist(H)
        g_el = El(H.spaces(2), twist.inv)
        f_el = El(H.spaces(2), twist.t)

        # pentagon-type identity for p
        lhs = left.re_inv_el().mul(p.map(lam, 1)).mul_embedded(p, (1, 2))
        e = left.re_el().map(lam, 2)
        e = e.mul_embedded(p, (2, 3))
        e = e.map(H.comult, 2)
        e = e.mul_embedded(g_el, (0, 1)).map(S_inv, 1).map(S_inv, 0)
        rhs = e.merge(2, 1).merge(2, 0)
        report.compare("p-coherence", lhs.t, rhs.t)

        # pentagon-type identity for q
        lhs = q.map(lam, 1).premul_embedded(q, (1, 2)).mul(left.re_el())
        e = left.re_inv_el().map(lam, 2).premul_embedded(q, (2, 3))  # q1*L1, qB*L2
        e = e.map(H.comult, 2)
        e = e.premul_embedded(f_el, (2, 3))      # f1*D1, f2*D2
        e = e.map(S, 0).map(S, 1)
        e = e.merge(1, 2).merge(0, 2)
        rhs = e.perm((1, 0, 2))
        report.compare("q-coherence", lhs.t, rhs.t)

    if right is not None:
        alg = right.alg
        # definitional consistency via an independent direct evaluation
        direct = Tensor(X.field, (alg.dim, H.dim))
        for (a_i, h2, h3), v in right.reassoc.data.items():
            alpha_h3 = multiply((H.alg,), H.alpha,
                                Tensor.basis(X.field, (H.dim,), (h3,)))
            s_part = apply_linear_map(S_inv, alpha_h3, (0,))
            prod = multiply((H.alg,), s_part, Tensor.basis(X.field, (H.dim,), (h2,)))
            for (k,), w in prod.data.items():
                cur = direct.data.get((a_i, k), X.field.zero) + v * w
                if cur:
                    direct.data[(a_i, k)] = cur
                else:
                    direct.data.pop((a_i, k), None)
        report.compare("q-right-definition", q_right.t, direct)

    return CanonicalElements(p=p, q=q, q_right=q_right, report=report)


class BicomoduleAlgebra:
    """Simultaneous left and right comodule algebra with a mixed
    reassociator intertwining the two coactions."""

    def __init__(self, H, alg: FinAlgebra, left_coaction: LinMap,
                 right_coaction: LinMap, reassoc_left: Tensor,
                 reassoc_right: Tensor, reassoc_mixed: Tensor,
                 reassoc_left_inv: Tensor, reassoc_right_inv: Tensor,
                 reassoc_mixed_inv: Tensor, name=""):
        self.H = H
        self.alg = alg
        self.field = alg.field
        self.name = name
        d, dh = alg.dim, H.dim
        if reassoc_mixed.dims != (dh, d, dh):
            raise ShapeMismatch("mixed reassociator dims %r" % (reassoc_mixed.dims,))
        self.left_coaction = left_coaction.rebind((H.alg, alg))
        self.right_coaction = right_coaction.rebind((alg, H.alg))
        self.reassoc_left = reassoc_left
        self.reassoc_right = reassoc_right
        self.reassoc_mixed = reassoc_mixed
        self.reassoc_left_inv = reassoc_left_inv
        self.reassoc_right_inv = reassoc_right_inv
        self.reassoc_mixed_inv = reassoc_mixed_inv

    def left(self) -> ComoduleAlgebra:
        return ComoduleAlgebra(self.H, "left", self.alg, self.left_coaction,
                               self.reassoc_left, self.reassoc_left_inv,
                               name=(self.name + ":left") if self.name else "")

    def right(self) -> ComoduleAlgebra:
        return ComoduleAlgebra(self.H, "right", self.alg, self.right_coaction,
                               self.reassoc_right, self.reassoc_right_inv,
                               name=(self.name + ":right") if self.name else "")

    @property
    def side(self):
        return "bi"

    def mixed_spaces(self):
        return (self.H.alg, self.alg, self.H.alg)

    def mixed_el(self) -> El:
        return El(self.mixed_spaces(), self.reassoc_mixed)

    def mixed_inv_el(self) -> El:
        return El(self.mixed_spaces(), self.reassoc_mixed_inv)

    def __repr__(self):
        return "BicomoduleAlgebra(dim=%d%s)" % (
            self.alg.dim, ", %r" % self.name if self.name else "")


def verify_bicomodule_algebra(A: BicomoduleAlgebra) -> CheckReport:
    report = CheckReport("bicomodule algebra %s" % (A.name or ""))
    report.extend(verify_comodule_algebra(A.left()), prefix="left:")
    report.extend(verify_comodule_algebra(A.right()), prefix="right:")
    H, alg = A.H, A.alg
    sp = A.mixed_spaces()
    mixed, mixed_inv = A.mixed_el(), A.mixed_inv_el()
    unit3 = El.unit(sp)
    report.compare_all("mixed-invertible", ((mixed.mul(mixed_inv).t, unit3.t),
                                            (mixed_inv.mul(mixed).t, unit3.t)))

    # both coactions of every basis element u at once, u's index on the
    # leading leg
    u = El((alg, alg), _identity(A.field, alg.dim))
    report.sweep_all("mixed-intertwine", (alg.dim,),
                     u.map(A.right_coaction, 1).map(A.left_coaction, 1).premul_embedded(
                         mixed, (1, 2, 3)).t,
                     u.map(A.left_coaction, 1).map(A.right_coaction, 2).mul_embedded(
                         mixed, (1, 2, 3)).t)

    left_el = El((H.alg, H.alg, alg), A.reassoc_left)
    right_el = El((alg, H.alg, H.alg), A.reassoc_right)

    lhs = mixed.map(A.left_coaction, 1).premul_embedded(mixed, (1, 2, 3)).mul_embedded(
        left_el, (0, 1, 2))
    rhs = left_el.map(A.right_coaction, 2).mul(mixed.map(H.comult, 0))
    report.compare("mixed-pentagon-left", lhs.t, rhs.t)

    lhs = mixed.map(A.right_coaction, 1).premul_embedded(right_el, (1, 2, 3)).mul_embedded(
        mixed, (0, 1, 2))
    rhs = mixed.map(H.comult, 2).mul(right_el.map(A.left_coaction, 0))
    report.compare("mixed-pentagon-right", lhs.t, rhs.t)

    report.compare("mixed-counit-right", mixed.map(H.counit, (2,)).t,
                   unit_tensor((H.alg, alg)))
    report.compare("mixed-counit-left", mixed.map(H.counit, (0,)).t,
                   unit_tensor((alg, H.alg)))
    return report


def bicomodule_variant(A: BicomoduleAlgebra, kind: str) -> BicomoduleAlgebra:
    """The cop / opcop / op reflections of a bicomodule algebra."""
    H, alg = A.H, A.alg
    rev = (2, 1, 0)
    name = (A.name + "^" + kind) if A.name else ""
    if kind == "op":
        return BicomoduleAlgebra(
            variant(H, "op"), alg.opposite(), A.left_coaction, A.right_coaction,
            A.reassoc_left_inv, A.reassoc_right_inv, A.reassoc_mixed_inv,
            A.reassoc_left, A.reassoc_right, A.reassoc_mixed, name=name)
    if kind not in ("cop", "opcop"):
        raise ShapeMismatch("unknown bicomodule variant %r" % (kind,))
    # the coactions flip and trade sides, so the one-sided reassociators
    # trade places; cop also trades each reassociator for its inverse
    tables = [A.reassoc_right, A.reassoc_left, A.reassoc_mixed]
    inverses = [A.reassoc_right_inv, A.reassoc_left_inv, A.reassoc_mixed_inv]
    if kind == "cop":
        tables, inverses = inverses, tables
    return BicomoduleAlgebra(
        variant(H, kind), alg if kind == "cop" else alg.opposite(),
        A.right_coaction.permute(dst=(1, 0)), A.left_coaction.permute(dst=(1, 0)),
        *(switch_legs(t, rev) for t in tables + inverses), name=name)


def _check_algebra(alg: FinAlgebra, what: str):
    if alg.associativity_witness() is not None or alg.unit_witness() is not None:
        raise NotInvertible("%s is not an associative unital algebra" % what)


def _check_algebra_map(src: FinAlgebra, m: LinMap, what: str):
    """NotInvertible unless ``m`` respects the product of every pair of
    basis elements and the unit."""
    lhs, rhs = multiplicative_sides(src, m, m.dst_spaces)
    if lhs != rhs or apply_linear_map(m, src.unit, (0,)) != unit_tensor(m.dst_spaces):
        raise NotInvertible("%s is not an algebra map" % what)


def _check_inverse_pair(spaces, x: Tensor, x_inv: Tensor, what: str):
    """NotInvertible unless x x_inv = 1 on the factor's own space; a
    one-sided inverse is two-sided in a finite-dimensional associative
    algebra, and every algebra involved is checked to be one."""
    if multiply(spaces, x, x_inv) != unit_tensor(spaces):
        raise NotInvertible("the stated inverse of %s does not invert it" % what)


def _check_base_inputs(H: QuasiHopfAlgebra) -> bool:
    _check_algebra(H.alg, "the base")
    _check_algebra_map(H.alg, H.comult, "the comultiplication")
    _check_algebra_map(H.alg.opposite(), H.antipode_inv,
                       "the antipode inverse, from the opposite algebra,")
    twist = drinfeld_twist(H)
    _check_inverse_pair(H.spaces(2), twist.t, twist.inv, "the Drinfeld twist")
    return True


def _check_comodule_inputs(X) -> bool:
    H = X.H
    _check_algebra(X.alg, "the carrier")
    if isinstance(X, BicomoduleAlgebra):
        coactions = ((X.left_coaction, "the left coaction"),
                     (X.right_coaction, "the right coaction"))
        pairs = (((H.alg, H.alg, X.alg), X.reassoc_left, X.reassoc_left_inv,
                  "the left reassociator"),
                 ((X.alg, H.alg, H.alg), X.reassoc_right, X.reassoc_right_inv,
                  "the right reassociator"),
                 (X.mixed_spaces(), X.reassoc_mixed, X.reassoc_mixed_inv,
                  "the mixed reassociator"))
    else:
        coactions = ((X.coaction, "the coaction"),)
        pairs = ((X.reassoc_spaces(), X.reassoc, X.reassoc_inv, "the reassociator"),)
    for coaction, what in coactions:
        _check_algebra_map(X.alg, coaction, what)
    for spaces, x, x_inv, what in pairs:
        _check_inverse_pair(spaces, x, x_inv, what)
    return True


def check_closed_form_inputs(X):
    """Check, at the factors, what makes the closed-form reassociators
    built from a comodule or bicomodule algebra X inverse pairs; raises
    NotInvertible when a check fails (an inconsistent input file).

    Each such reassociator and its inverse are products of the images of
    stated factors and their stated inverses under maps T_k (see
    ``_reassoc_pair``), so they invert each other once
    * each stated inverse inverts its factor on the factor's own space:
      the reassociators of X and the Drinfeld twist f of the base;
    * each T_k is an algebra map: built from the coactions of X, the
      comultiplication, S^-1 (an anti-algebra map, onto an opposite leg)
      and unit legs, so these are checked on every pair of basis
      elements, and the carrier and the base as associative and unital.
    No product on the space of the reassociator is formed.  The verdict
    on the base is cached on the base and that on X on X (as
    ``hopf._derived`` caches), so each input is checked once.
    """
    _derived(X.H, "closed-form-inputs", _check_base_inputs)
    _derived(X, "closed-form-inputs", _check_comodule_inputs)


def _reassoc_pair(spaces, pipeline, factors, inverses, unit_spaces, order):
    """A reassociator and its inverse, both as products of closed-form
    factors.

    ``pipeline`` is linear in each argument; with every argument but the
    k-th at its unit it is an algebra map T_k into ``spaces`` (each
    antipode inverse it applies lands on an opposite leg).  ``order`` is
    the order in which every output leg multiplies the factors (read
    backwards on opposite legs), so ``pipeline(*factors)`` is the product
    of T_k(factors[k]) over k in ``order``, and its inverse the product
    of T_k(inverses[k]) in the reversed order.  Neither the outer product
    of all the factors nor a linear solve is formed.  The two products
    are an inverse pair when the stated ``inverses`` invert the
    ``factors`` and each T_k is an algebra map, which the caller checks
    at the factors (``check_closed_form_inputs``).  Returns
    (reassociator, inverse).
    """
    units = [unit_tensor(sp) for sp in unit_spaces]

    def product(ks, xs):
        out = None
        for k in ks:
            args = list(units)
            args[k] = xs[k]
            image = pipeline(*args)
            out = image if out is None else multiply(spaces, out, image)
        return out

    return product(order, factors), product(reversed(order), inverses)


def bicomodule_to_left_tensor_op(A: BicomoduleAlgebra):
    """The two left comodule-algebra realizations of a bicomodule algebra
    over the base tensored with its opposite: the opcop reflections of
    the second and the first right realizations of the opcop reflection
    of A, moved onto H (x) H^op by swapping the factors of the square.

    Returns (first, second, base) where both comodule algebras share the
    carrier and the base is the materialized twisted tensor square, the
    one ``tensor_op`` caches on the base of A.
    """
    HHop = tensor_op(A.H)
    mirror = bicomodule_variant(A, "opcop")
    first, second = (
        _swap_square_factors(comodule_variant(right_realization(mirror, k), "opcop"), A, tag)
        for k, tag in ((2, ":lam1"), (1, ":lam2")))
    return first, second, HHop


def _swap_square_factors(X: ComoduleAlgebra, A: BicomoduleAlgebra, tag: str):
    """A left comodule algebra over H^op (x) H, H the base of A, as one
    over H (x) H^op, the square ``tensor_op`` caches on H, with the
    carrier of A: every square index (h, h') becomes (h', h) in the
    coaction and in both reassociator legs."""
    d = A.H.dim
    coaction = LinMap.from_tensor(swap_factors(X.coaction.as_tensor(), (1,), d, d), 1)
    re, re_inv = (swap_factors(t, (0, 1), d, d) for t in (X.reassoc, X.reassoc_inv))
    return ComoduleAlgebra(tensor_op(A.H), "left", A.alg, coaction, re, re_inv,
                           name=(A.name + tag) if A.name else "")


def bicomodule_to_right_op_tensor(A: BicomoduleAlgebra):
    """The two right comodule-algebra realizations of a bicomodule algebra
    over the opposite base tensored with the base.

    Returns (first, second, base) where both comodule algebras share the
    carrier and the base is the materialized twisted tensor square, the
    one ``op_tensor`` caches on the base of A.
    """
    return right_realization(A, 1), right_realization(A, 2), op_tensor(A.H)


def right_realization(A: BicomoduleAlgebra, k: int) -> ComoduleAlgebra:
    """The k-th right comodule-algebra realization (k = 1 or 2) of a
    bicomodule algebra over the opposite base tensored with the base,
    the materialized twisted tensor square ``op_tensor`` caches on the
    base of A."""
    H = A.H
    check_closed_form_inputs(A)
    HopH = op_tensor(H)
    alg = A.alg
    S_inv = H.antipode_inv
    twist = drinfeld_twist(H)
    sp_l, sp_r, sp_m = (H.alg, H.alg, alg), (alg, H.alg, H.alg), A.mixed_spaces()

    if k == 1:
        coact = apply_linear_map(A.left_coaction, A.right_coaction.as_tensor(), (1,))

        def reassoc(phi_r, phi_l_inv, theta_inv, f):
            e = El(sp_r, phi_r).times(El(sp_l, phi_l_inv))
            e = e.times(El(sp_m, theta_inv)).times(El(H.spaces(2), f))
            e = e.map(A.left_coaction, 0)
            e = e.map(H.comult, 0)
            e = e.map(A.left_coaction, 9)
            e = e.merge(2, 7).merge(2, 9)
            e = e.merge(11, 1).merge(10, 5).merge(9, 6).map(S_inv, 8)
            e = e.merge(2, 6)
            e = e.merge(6, 0).merge(5, 3).merge(4, 3).map(S_inv, 3)
            return e.perm((0, 4, 1, 3, 2)).t.fuse([[0], [1, 2], [3, 4]])

        units = (sp_r, sp_l, sp_m, H.spaces(2))
        factors = (A.reassoc_right, A.reassoc_left_inv, A.reassoc_mixed_inv, twist.t)
        inverses = (A.reassoc_right_inv, A.reassoc_left, A.reassoc_mixed, twist.inv)
    elif k == 2:
        coact = apply_linear_map(A.right_coaction, A.left_coaction.as_tensor(), (2,))

        def reassoc(phi_l_inv, phi_r, theta, f):
            e = El(sp_l, phi_l_inv).times(El(sp_r, phi_r))
            e = e.times(El(sp_m, theta)).times(El(H.spaces(2), f))
            e = e.map(A.right_coaction, 2)
            e = e.map(H.comult, 3)
            e = e.map(A.right_coaction, 9)
            e = e.merge(2, 5).merge(2, 8)
            e = e.merge(11, 1).merge(10, 6).map(S_inv, 9)
            e = e.merge(2, 4).merge(2, 5)
            e = e.merge(6, 0).map(S_inv, 5)
            e = e.merge(2, 3).merge(2, 3)
            return e.perm((0, 4, 1, 3, 2)).t.fuse([[0], [1, 2], [3, 4]])

        units = (sp_l, sp_r, sp_m, H.spaces(2))
        factors = (A.reassoc_left_inv, A.reassoc_right, A.reassoc_mixed, twist.t)
        inverses = (A.reassoc_left, A.reassoc_right_inv, A.reassoc_mixed_inv, twist.inv)
    else:
        raise ShapeMismatch("the right realizations are numbered 1 and 2, not %r" % (k,))

    re, re_inv = _reassoc_pair((alg, HopH.alg, HopH.alg), reassoc, factors,
                               inverses, units, (3, 0, 1, 2))
    # the two-sided coaction u -> u-1 (x) u0 (x) u1 of every u, as u0 (x) (S^-1(u-1), u1)
    coact = switch_legs(apply_linear_map(S_inv, coact, (1,)), (0, 2, 1, 3))
    coaction = LinMap.from_tensor(coact.fuse([[0], [1], [2, 3]]), 1)
    return ComoduleAlgebra(HopH, "right", alg, coaction, re, re_inv,
                           name=(A.name + ":rho%d" % k) if A.name else "")


def _sigma_mixed(A: BicomoduleAlgebra, t: Tensor) -> Tensor:
    """Reshuffle an element of H x A x H into A x (H^op x H) with the
    antipode inverse on the first leg."""
    e = El(A.mixed_spaces(), t).map(A.H.antipode_inv, 0).perm((1, 0, 2))
    return e.t.fuse([[0], [1, 2]])


def realization_twist_witness(A: BicomoduleAlgebra, first: ComoduleAlgebra,
                              second: ComoduleAlgebra):
    """The twist witness carrying the first right realization of a
    bicomodule algebra onto the second.

    It is the mixed reassociator reshuffled into A x (H^op x H), with the
    reshuffled inverse as its inverse; the check is that twisting
    ``first`` by it gives the coaction and the reassociator of
    ``second``.  Returns (TwistWitness or None, CheckReport).
    """
    report = CheckReport("twist witness search %s" % (A.name or ""))
    candidate = _sigma_mixed(A, A.reassoc_mixed)
    candidate_inv = _sigma_mixed(A, A.reassoc_mixed_inv)
    try:
        w = TwistWitness(first, candidate, candidate_inv)
    except WitnessNotNormalized:
        w = None
    if w is not None:
        twisted = twist_comodule_algebra(first, w)
        if twisted.coaction != second.coaction or twisted.reassoc != second.reassoc:
            w = None
    report.add("witness-found", w is not None)
    if w is not None:
        report.add("witness-is-reshuffled-mixed-reassoc", True)
    return w, report


class InternalCoalgebra:
    """The coalgebra-in-bimodules presentation of a left comodule algebra.

    The carrier is the fused product of the carrier and the base; the
    comultiplication lands in the reduced representation of the tensor
    product over the carrier (base leg, carrier leg, base leg), and the
    counit lands back in the carrier.
    """

    def __init__(self, source: ComoduleAlgebra):
        if source.side != "left":
            raise ShapeMismatch("internal coalgebra is built on the left side")
        self.source = source
        H, B = source.H, source.alg
        self.carrier_dims = (B.dim, H.dim)
        id_B = El((B, B), _identity(source.field, B.dim))

        # (b, h) -> X1 h1 (x) XB b (x) X2 h2, for every b and h at once
        e = id_B.times(El((H.alg,) * 3, H.comult.as_tensor()))   # b b h h1 h2
        e = e.premul_embedded(source.re_el(), (3, 4, 1))
        self.comult = LinMap.from_tensor(e.perm((0, 2, 3, 1, 4)).t, 2)

        # (b, h) -> eps(h) b
        self.counit = LinMap.from_tensor(
            switch_legs(id_B.t.outer(H.counit.as_tensor()), (0, 2, 1)), 2)

        # (b, b2, h) -> (b0 b2, b-1 h)
        e = El((B,) + source.coaction.dst_spaces, source.coaction.as_tensor())
        e = e.times(id_B).times(El((H.alg,) * 2, _identity(source.field, H.dim)))
        e = e.merge(2, 4).merge(1, 5)         # b b-1h b0b2 b2 h
        self.left_action = LinMap.from_tensor(e.perm((0, 3, 4, 2, 1)).t, 3)

        # (b, h, b2, h2) -> (b b2, h h2)
        self.right_action = LinMap.from_tensor(switch_legs(
            B.mult.as_tensor().outer(H.alg.mult.as_tensor()), (0, 3, 1, 4, 2, 5)), 4)

    def extract(self):
        """Recover the coaction and reassociator from the emitted data."""
        H, B = self.source.H, self.source.alg
        unit = B.unit.outer(H.alg.unit)
        # act on the unit of the carrier, then flip
        acted = apply_linear_map(self.left_action,
                                 _identity(self.source.field, B.dim).outer(unit), (1, 2, 3))
        coaction = LinMap.from_tensor(switch_legs(acted, (0, 2, 1)), 1)
        reassoc = switch_legs(apply_linear_map(self.comult, unit, (0, 1)), (0, 2, 1))
        return coaction, reassoc

    def verify(self) -> CheckReport:
        report = CheckReport("internal coalgebra %s" % (self.source.name or ""))
        H, B = self.source.H, self.source.alg
        coaction, reassoc = self.extract()

        unit_image = switch_legs(reassoc, (0, 2, 1))
        try:
            invert_element((H.alg, B, H.alg), unit_image)
            report.add("comult-of-unit-invertible", True)
        except QuasiHopfError:
            report.add("comult-of-unit-invertible", False)

        counit_unit = apply_linear_map(self.counit, B.unit.outer(H.alg.unit), (0, 1))
        report.compare("counit-of-unit", counit_unit, B.unit)

        report.sweep_all("roundtrip-coaction", (B.dim,), coaction.as_tensor(),
                         self.source.coaction.as_tensor())
        report.compare("roundtrip-reassoc", reassoc, self.source.reassoc)
        return report


def internal_coalgebra(X: ComoduleAlgebra) -> InternalCoalgebra:
    """Emit the internal-coalgebra data of a comodule algebra; right
    comodule algebras are reflected through the cop variant first."""
    if X.side == "left":
        return InternalCoalgebra(X)
    return InternalCoalgebra(comodule_variant(X, "cop"))
