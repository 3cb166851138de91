"""Doi-Hopf modules in all four variants, Yetter-Drinfeld modules, the
equivalences between them, rationality over the smash product, the
adjunction data of the induction functors, and comodules over the
derived coring — all as executable data transformations with exact
round-trip checks.
"""

from __future__ import annotations

from . import linalg
from .comodule import ComoduleAlgebra, TwistWitness, comodule_variant
from .coring import Coring, _normal_form, build_coring
from .errors import NotRational, ShapeMismatch, VariantMismatch
from .modcoalg import ModuleCoalgebra, dualize
from .report import CheckReport
from .smash import ProductAlgebra, generalized_smash
from .tensor import (El, FinAlgebra, LinMap, Tensor, VectorSpace, all_indices,
                     apply_linear_map)

DOI_HOPF_VARIANTS = ("right-left", "left-right", "right-right", "left-left")


class DoiHopfContext:
    """A base, a comodule algebra and a module coalgebra whose sides
    match one of the four module variants.  A variant is named
    "<action side>-<coaction side>" of its modules: the coalgebra is
    acted on from the action side and the comodule algebra coacts from
    the coaction side."""

    def __init__(self, variant: str, comodule: ComoduleAlgebra,
                 coalgebra: ModuleCoalgebra):
        if variant not in DOI_HOPF_VARIANTS:
            raise VariantMismatch("unknown variant %r" % (variant,))
        want_coalg, want_com = variant.split("-")
        if comodule.side != want_com:
            raise VariantMismatch(
                "variant %s needs a %s comodule algebra, got %s"
                % (variant, want_com, comodule.side))
        if coalgebra.side != want_coalg:
            raise VariantMismatch(
                "variant %s needs a %s module coalgebra, got %s"
                % (variant, want_coalg, coalgebra.side))
        if not comodule.H.same_structure(coalgebra.H):
            raise VariantMismatch("context pieces live over different bases")
        self.variant = variant
        self.H = comodule.H
        self.comodule = comodule
        self.coalgebra = coalgebra
        self.field = comodule.field

    def __repr__(self):
        return "DoiHopfContext(%s)" % self.variant


class FiniteModule:
    """Module and optional comodule data on a finite-dimensional carrier.

    ``action``: LinMap, left (alg, m) -> (m,) or right (m, alg) -> (m,).
    ``coaction``: LinMap, left m -> (coalg, m) or right m -> (m, coalg).
    """

    def __init__(self, dim: int, over, action: LinMap, action_side: str,
                 coaction: LinMap = None, coaction_side: str = None, name=""):
        self.dim = dim
        self.over = over
        self.field = action.field
        self.space = VectorSpace(self.field, dim, name or "M")
        over_dim = over.dim if hasattr(over, "dim") else over.alg.dim
        want = (over_dim, dim) if action_side == "left" else (dim, over_dim)
        if action.src != want or action.dst != (dim,):
            raise ShapeMismatch("action has shape %r -> %r" % (action.src, action.dst))
        self.action = action.rebind((self.space,))
        self.action_side = action_side
        self.coaction = None
        self.coaction_side = None
        if coaction is not None:
            self.coaction = coaction
            self.coaction_side = coaction_side
        self.name = name

    def act(self, alg_idx: int, vec: Tensor) -> Tensor:
        over_dim = self.action.src[0] if self.action_side == "left" else self.action.src[1]
        basis = Tensor.basis(self.field, (over_dim,), (alg_idx,))
        if self.action_side == "left":
            return apply_linear_map(self.action, basis.outer(vec), (0, 1))
        return apply_linear_map(self.action, vec.outer(basis), (0, 1))

    def basis_el(self) -> list:
        return [Tensor.basis(self.field, (self.dim,), (i,)) for i in range(self.dim)]

    def __repr__(self):
        return "FiniteModule(dim=%d%s)" % (self.dim, ", %r" % self.name if self.name else "")


def _carrier_alg(over) -> FinAlgebra:
    if isinstance(over, ProductAlgebra):
        return over.carrier
    if isinstance(over, ComoduleAlgebra):
        return over.alg
    if isinstance(over, FinAlgebra):
        return over
    raise ShapeMismatch("cannot extract an algebra from %r" % (over,))


def verify_module_law(M: FiniteModule, report=None, subject="") -> CheckReport:
    report = report or CheckReport(subject or "module %s" % (M.name or ""))
    alg = _carrier_alg(M.over)
    field = M.field

    def act_by(x: Tensor, e: Tensor) -> Tensor:
        acc = Tensor(field, (M.dim,))
        for (k,), v in x.data.items():
            acc = acc + M.act(k, e).scale(v)
        return acc

    def unital(idx):
        e = Tensor.basis(field, (M.dim,), idx)
        return act_by(alg.unit, e), e

    report.sweep("action-unital", all_indices((M.dim,)), unital)

    def associative(item):
        a, b, i = item
        e = Tensor.basis(field, (M.dim,), (i,))
        if M.action_side == "left":
            stepwise = M.act(a, M.act(b, e))
        else:
            stepwise = M.act(b, M.act(a, e))
        return act_by(alg.basis_product(a, b), e), stepwise

    report.sweep("action-associative", all_indices((alg.dim, alg.dim, M.dim)),
                 associative)
    return report


def verify_doi_hopf(M: FiniteModule, context: DoiHopfContext) -> CheckReport:
    """The three module-comodule compatibility axioms of the stated
    variant, checked on every basis element, plus the module law."""
    variant = context.variant
    A, C = context.comodule, context.coalgebra
    field = context.field
    report = CheckReport("doi-hopf %s %s" % (variant, M.name or ""))
    want_action, want_coaction = variant.split("-")
    if M.action_side != want_action or M.coaction_side != want_coaction:
        raise VariantMismatch("module sides do not match variant %s" % variant)
    verify_module_law(M, report=report)

    def coassoc(idx):
        m = Tensor.basis(field, (M.dim,), idx)
        one = apply_linear_map(M.coaction, m, (0,))
        if variant == "right-left":
            # (comult x id) lam(m) vs ((id x lam) lam(m)) . re
            lhs = apply_linear_map(C.comult, one, (0,))
            rhs = apply_linear_map(M.coaction, one, (1,), at=1)
            rhs = _act_legwise(M, C, A.reassoc, rhs, 2, "right")
        elif variant == "left-right":
            lhs = apply_linear_map(C.comult, one, (1,), at=1)
            rhs = apply_linear_map(M.coaction, one, (0,), at=0)
            rhs = _act_legwise(M, C, A.reassoc, rhs, 0, "left")
            lhs, rhs = rhs, lhs
        elif variant == "right-right":
            lhs = apply_linear_map(M.coaction, one, (0,), at=0)
            rhs = apply_linear_map(C.comult, one, (1,), at=1)
            rhs = _act_legwise(M, C, A.reassoc, rhs, 0, "right")
        else:
            lhs = apply_linear_map(C.comult, one, (0,))
            lhs = _act_legwise(M, C, A.reassoc, lhs, 2, "left")
            rhs = apply_linear_map(M.coaction, one, (1,), at=1)
        return lhs, rhs

    basis = all_indices((M.dim,))
    report.sweep("coassoc-upto-reassoc", basis, coassoc)

    cleg = 0 if M.coaction_side == "left" else 1
    mleg = 1 - cleg

    def counit_law(idx):
        return (apply_linear_map(C.counit, M.coaction.column(idx), (cleg,)),
                Tensor.basis(field, (M.dim,), idx))

    report.sweep("coaction-counit", basis, counit_law)

    def compat(item):
        i, a = item
        m = Tensor.basis(field, (M.dim,), (i,))
        lhs = apply_linear_map(M.coaction, M.act(a, m), (0,))
        rhs = _act_legwise(M, C, A.coaction.column((a,)),
                           apply_linear_map(M.coaction, m, (0,)), mleg, C.side)
        return lhs, rhs

    report.sweep("action-coaction-compat", all_indices((M.dim, A.alg.dim)), compat)
    return report


def _act_legwise(M: FiniteModule, C: ModuleCoalgebra, element: Tensor,
                 target: Tensor, mleg: int, side: str) -> Tensor:
    """Act by ``element`` on ``target`` leg by leg: leg ``mleg`` through
    the action of M, every other leg through the ``side`` action of C.
    The outer product is formed once, then each leg is one contraction."""
    n = target.arity
    out = element.outer(target)
    for leg in range(n):
        if leg == mleg:
            action, left = M.action, M.action_side == "left"
        else:
            action = C.left_action if side == "left" else C.right_action
            left = side == "left"
        out = apply_linear_map(action, out, (0, n) if left else (n, 0), at=n - 1)
    return out


def trivial_module(context: DoiHopfContext) -> FiniteModule:
    """The comodule algebra itself as a plain module via multiplication."""
    A = context.comodule
    side = context.variant.split("-")[0]
    return FiniteModule(A.alg.dim, A.alg, A.alg.mult, side, name="regular")


def induce_doi_hopf(N: FiniteModule, context: DoiHopfContext) -> FiniteModule:
    """The induction functor pairing a plain module with the coalgebra;
    the two canonical variants are built natively, the other two through
    their reflections."""
    variant = context.variant
    A, C = context.comodule, context.coalgebra
    field = context.field
    dC, dN = C.dim, N.dim

    if variant == "right-left":
        dim = dC * dN

        def act_fn(idx):
            n, b = idx
            c, m = divmod(n, dN)
            e = El.basis((A.alg,), (b,)).map(A.coaction, 0)   # b-1 b0
            out = Tensor(field, (dC, dN))
            for (h, b0), v in e.t.data.items():
                c_new = apply_linear_map(
                    C.right_action,
                    Tensor.basis(field, (dC,), (c,)).outer(
                        Tensor.basis(field, (C.H.dim,), (h,))), (0, 1))
                m_new = N.act(b0, Tensor.basis(field, (dN,), (m,)))
                out = out + c_new.outer(m_new).scale(v)
            return out.fuse([[0, 1]])

        action = LinMap.from_function(field, (dim, A.alg.dim), (dim,), act_fn)

        def coact_fn(idx):
            c, m = divmod(idx[0], dN)
            e = A.re_inv_el()             # x1 x2 xB
            e = e.times(El.basis((C.space,), (c,)))
            e = e.map(C.comult, 3)        # x1 x2 xB c1 c2
            e = e.map(C.right_action, (3, 0), at=2)   # x2 xB c1x1 c2
            e = e.map(C.right_action, (3, 0), at=2)   # xB c1x1 c2x2
            out = Tensor(field, (dC, dC, dN))
            for (b0, c1, c2), v in e.t.data.items():
                m_new = N.act(b0, Tensor.basis(field, (dN,), (m,)))
                out = out + Tensor.basis(field, (dC,), (c1,)).outer(
                    Tensor.basis(field, (dC,), (c2,))).outer(m_new).scale(v)
            return out.fuse([[0], [1, 2]])

        coaction = LinMap.from_function(field, (dim,), (dC, dim), coact_fn)
        return FiniteModule(dim, A.alg, action, "right", coaction, "left",
                            name="induced(%s)" % (N.name or "N"))

    if variant == "left-right":
        dim = dN * dC

        def act_fn(idx):
            a, n = idx
            m, c = divmod(n, dC)
            e = El.basis((A.alg,), (a,)).map(A.coaction, 0)   # a0 a1
            out = Tensor(field, (dN, dC))
            for (a0, h), v in e.t.data.items():
                m_new = N.act(a0, Tensor.basis(field, (dN,), (m,)))
                c_new = apply_linear_map(
                    C.left_action,
                    Tensor.basis(field, (C.H.dim,), (h,)).outer(
                        Tensor.basis(field, (dC,), (c,))), (0, 1))
                out = out + m_new.outer(c_new).scale(v)
            return out.fuse([[0, 1]])

        action = LinMap.from_function(field, (A.alg.dim, dim), (dim,), act_fn)

        def coact_fn(idx):
            m, c = divmod(idx[0], dC)
            e = A.re_inv_el()             # xA x2 x3
            e = e.times(El.basis((C.space,), (c,)))
            e = e.map(C.comult, 3)        # xA x2 x3 c1 c2
            e = e.map(C.left_action, (1, 3), at=1)    # xA x2c1 x3 c2
            e = e.map(C.left_action, (2, 3), at=2)    # xA x2c1 x3c2
            out = Tensor(field, (dN, dC, dC))
            for (a0, c1, c2), v in e.t.data.items():
                m_new = N.act(a0, Tensor.basis(field, (dN,), (m,)))
                out = out + m_new.outer(
                    Tensor.basis(field, (dC,), (c1,))).outer(
                    Tensor.basis(field, (dC,), (c2,))).scale(v)
            return out.fuse([[0, 1], [2]])

        coaction = LinMap.from_function(field, (dim,), (dim, dC), coact_fn)
        return FiniteModule(dim, A.alg, action, "left", coaction, "right",
                            name="induced(%s)" % (N.name or "N"))

    # the reflected variants: induce in the right-left reflection
    canonical = _reflect_context(context, "right-left")
    induced = induce_doi_hopf(_reflect_module(N, canonical), canonical)
    return _reflect_module(induced, context)


# the base reflection between right-left and each other variant; every
# reflection is an involution, so one table serves both directions
_REFLECTION = {"left-right": "opcop", "right-right": "cop", "left-left": "op"}


def _reflect_context(context: DoiHopfContext, variant: str) -> DoiHopfContext:
    """The context in ``variant`` reflected from ``context``; one of the
    two variants is right-left."""
    kind = _REFLECTION[variant if context.variant == "right-left" else context.variant]
    return DoiHopfContext(variant, comodule_variant(context.comodule, kind),
                          context.coalgebra.reflect(kind))


def _reflect_module(M: FiniteModule, context: DoiHopfContext) -> FiniteModule:
    """M as a module of the reflected ``context``: the action and the
    coaction are transposed wherever the variant moves them to the other
    side."""
    action_side, coaction_side = context.variant.split("-")
    action, coaction = M.action, M.coaction
    if M.action_side != action_side:
        action = action.permute(src=(1, 0))
    if coaction is not None and M.coaction_side != coaction_side:
        coaction = coaction.permute(dst=(1, 0))
    return FiniteModule(M.dim, context.comodule.alg, action, action_side,
                        coaction, coaction_side, name=M.name)


def translate_variant(M: FiniteModule, context: DoiHopfContext,
                      to_variant: str):
    """Carry a module across the documented category identifications;
    returns (module, context).  Translating back is inverse on the nose.
    The way leads through right-left unless one end is right-left, and
    then it is a single reflection."""
    if context.variant == to_variant:
        return M, context
    if to_variant not in DOI_HOPF_VARIANTS:
        raise VariantMismatch("unknown variant %r" % (to_variant,))
    if "right-left" not in (context.variant, to_variant):
        M, context = translate_variant(M, context, "right-left")
    reflected = _reflect_context(context, to_variant)
    return _reflect_module(M, reflected), reflected


def to_smash_module(M: FiniteModule, context: DoiHopfContext,
                    smash: ProductAlgebra = None):
    """Collapse a right-left module's coaction into a right action of
    the smash product of the dual with the comodule algebra.

    Returns (module over the smash product, smash product).
    """
    if context.variant != "right-left":
        raise VariantMismatch("the smash collapse starts from the right-left variant")
    A, C = context.comodule, context.coalgebra
    field = context.field
    if smash is None:
        smash = generalized_smash(dualize(C), A)
    dB = A.alg.dim

    def act_fn(idx):
        m, n = idx
        f, b = divmod(n, dB)
        one = apply_linear_map(M.coaction, Tensor.basis(field, (M.dim,), (m,)), (0,))
        out = Tensor(field, (M.dim,))
        for (c, m0), v in one.data.items():
            if c != f:
                continue
            out = out + M.act(b, Tensor.basis(field, (M.dim,), (m0,))).scale(v)
        return out

    action = LinMap.from_function(field, (M.dim, smash.carrier.dim), (M.dim,), act_fn)
    out = FiniteModule(M.dim, smash, action, "right", name=M.name)
    return out, smash


def rational_check(M: FiniteModule, context: DoiHopfContext,
                   smash: ProductAlgebra):
    """Recover the coaction of a module over the smash product through
    the finite dual basis, verify the rationality law, and check the
    recovered structure against the module-comodule axioms.

    Returns (recovered right-left module, report).
    """
    A, C = context.comodule, context.coalgebra
    field = context.field
    dC, dB = C.dim, A.alg.dim

    def pair(f, b):
        return f * dB + b

    unit_b = A.alg.unit
    eps_vec = [C.counit.column((c,)).get(()) for c in range(dC)]

    def coact_fn(idx):
        m = Tensor.basis(field, (M.dim,), idx)
        out = Tensor(field, (dC, M.dim))
        for i in range(dC):
            acted = Tensor(field, (M.dim,))
            for (u,), w in unit_b.data.items():
                acted = acted + M.act(pair(i, u), m).scale(w)
            out = out + Tensor.basis(field, (dC,), (i,)).outer(acted)
        return out

    coaction = LinMap.from_function(field, (M.dim,), (dC, M.dim), coact_fn)

    report = CheckReport("rationality %s" % (M.name or ""))

    def rational(item):
        m, f, b = item
        direct = M.act(pair(f, b), Tensor.basis(field, (M.dim,), (m,)))
        viaco = Tensor(field, (M.dim,))
        for (c, m0), v in coaction.column((m,)).data.items():
            if c != f:
                continue
            for e in range(dC):
                if eps_vec[e]:
                    viaco = viaco + M.act(
                        pair(e, b),
                        Tensor.basis(field, (M.dim,), (m0,))).scale(v * eps_vec[e])
        return direct, viaco

    record = report.sweep("rational", all_indices((M.dim, dC, dB)), rational)
    if not record.passed:
        raise NotRational("module fails the rationality law at %r" % (record.witness,))

    def b_act_fn(idx):
        m, b = idx
        out = Tensor(field, (M.dim,))
        for e in range(dC):
            if eps_vec[e]:
                out = out + M.act(pair(e, b),
                                  Tensor.basis(field, (M.dim,), (m,))).scale(eps_vec[e])
        return out

    b_action = LinMap.from_function(field, (M.dim, dB), (M.dim,), b_act_fn)
    recovered = FiniteModule(M.dim, A.alg, b_action, "right", coaction, "left",
                             name=(M.name or "M") + "-recovered")
    report.extend(verify_doi_hopf(recovered, context))
    return recovered, report


def compute_rat(M: FiniteModule, context: DoiHopfContext,
                smash: ProductAlgebra):
    """Basis of the maximal rational submodule: the preimage under the
    action-collapse map of the image of the dual-basis pairing map.

    Returns (basis vectors, report).
    """
    A, C = context.comodule, context.coalgebra
    field = context.field
    dC, dB = C.dim, A.alg.dim
    eps_vec = [C.counit.column((c,)).get(()) for c in range(dC)]

    def pair(f, b):
        return f * dB + b

    # mu: M -> Hom(C* x B, M); nu: C x M -> Hom(C* x B, M)
    rows = dC * dB * M.dim
    mu = linalg.zeros(field, rows, M.dim)
    for i in range(M.dim):
        for f in range(dC):
            for b in range(dB):
                img = M.act(pair(f, b), Tensor.basis(field, (M.dim,), (i,)))
                for (j,), v in img.data.items():
                    mu[(f * dB + b) * M.dim + j][i] = v
    nu = linalg.zeros(field, rows, dC * M.dim)
    for c in range(dC):
        for i in range(M.dim):
            col = c * M.dim + i
            for b in range(dB):
                acted = Tensor(field, (M.dim,))
                for e in range(dC):
                    if eps_vec[e]:
                        acted = acted + M.act(
                            pair(e, b), Tensor.basis(field, (M.dim,), (i,))
                        ).scale(eps_vec[e])
                for (j,), v in acted.data.items():
                    nu[(c * dB + b) * M.dim + j][col] = v

    # solve mu v = nu w: nullspace of [mu | -nu], keep the v-part
    aug = [mu[r] + [-x for x in nu[r]] for r in range(rows)]
    kernel = linalg.nullspace(field, aug)
    v_parts = [vec[:M.dim] for vec in kernel]
    reduced = linalg.rref(field, v_parts)[0] if v_parts else []
    basis = [Tensor.from_flat(field, (M.dim,), row) for row in reduced]

    report = CheckReport("maximal rational submodule %s" % (M.name or ""))
    report.add("is-whole-module", len(basis) == M.dim,
               lhs=len(basis), rhs=M.dim)
    # closure under the smash action
    span_rows = [b.to_flat() for b in basis]
    witness = next(((n,) for b in basis for n in range(smash.carrier.dim)
                    if not linalg.in_span(field, span_rows, M.act(n, b).to_flat())),
                   None)
    report.add("closed-under-action", witness is None, witness=witness)
    return basis, report


def adjunction_maps(M: FiniteModule, N: FiniteModule, context: DoiHopfContext,
                    test_morphism=None) -> CheckReport:
    """The unit/counit bijections of the two induction adjunctions,
    verified on full bases of the morphism spaces."""
    if context.variant != "right-left":
        raise VariantMismatch("adjunction data is built in the right-left variant")
    A, C = context.comodule, context.coalgebra
    field = context.field
    report = CheckReport("adjunction data")
    dB = A.alg.dim
    induced_N = induce_doi_hopf(N, context)

    hom_b = _module_hom_basis(M, N, A.alg)
    hom_c = _module_hom_basis(M, induced_N, A.alg, colinear=True)

    def xi(mat):
        # m maps to m_(-1) x f(m_(0))
        out = linalg.zeros(field, C.dim * N.dim, M.dim)
        for m in range(M.dim):
            lam = M.coaction.column((m,))
            for (c, m0), v in lam.data.items():
                for j in range(N.dim):
                    if mat[j][m0]:
                        out[c * N.dim + j][m] = out[c * N.dim + j][m] + v * mat[j][m0]
        return out

    def zeta(mat):
        out = linalg.zeros(field, N.dim, M.dim)
        for m in range(M.dim):
            for c in range(C.dim):
                eps = C.counit.column((c,)).get(())
                if not eps:
                    continue
                for j in range(N.dim):
                    v = mat[c * N.dim + j][m]
                    if v:
                        out[j][m] = out[j][m] + eps * v
        return out

    ok = all(zeta(xi(mat)) == mat for mat in hom_b)
    report.add("unit-roundtrip", ok)
    ok = all(xi(zeta(mat)) == mat for mat in hom_c)
    report.add("counit-roundtrip", ok)
    # naturality square for a supplied (or first available) endomorphism
    if test_morphism is None:
        endos = _module_hom_basis(N, N, A.alg)
        test_morphism = endos[0] if endos else None
    if test_morphism is not None and hom_b:
        theta = test_morphism

        def theta_after_xi(mat):
            # theta applied to each coalgebra block of xi(mat)
            step = xi(mat)
            return [row for c in range(C.dim) for row in linalg.mat_mul(
                field, theta, step[c * N.dim:(c + 1) * N.dim])]

        report.add("naturality", all(xi(linalg.mat_mul(field, theta, mat)) ==
                                     theta_after_xi(mat) for mat in hom_b))

    # second adjunction, with the induced module as the two-structure
    # target: Hom(C x M, N') vs Hom(M, Hom(C x B, N'))
    induced_M = induce_doi_hopf(M_as_plain(M, A), context)
    target = induced_N
    hom_cm_n = _module_hom_basis(induced_M, target, A.alg, colinear=True)
    induced_B = induce_doi_hopf(trivial_module(context), context)
    hom_cb_n = _module_hom_basis(induced_B, target, A.alg, colinear=True)

    # right action of the comodule algebra on the inner hom space,
    # expressed on the computed hom basis
    basis_mat = [_flatten_matrix(h) for h in hom_cb_n]
    if basis_mat:
        k_inner = len(hom_cb_n)
        nd = target.dim
        action_mats = []
        for b in range(dB):
            rows = []
            for h in hom_cb_n:
                shifted = linalg.zeros(field, nd, C.dim * dB)
                for c in range(C.dim):
                    for b2 in range(dB):
                        prod = A.alg.basis_product(b, b2)
                        for (k,), v in prod.data.items():
                            for j in range(nd):
                                w = h[j][c * dB + k]
                                if w:
                                    shifted[j][c * dB + b2] = \
                                        shifted[j][c * dB + b2] + v * w
                rows.append(_expand_in_basis(field, basis_mat, _flatten_matrix(shifted)))
            action_mats.append(rows)

        def xi_prime(mat):
            # Hom(C x M, N') -> Hom(M, inner hom)
            out = []
            for m in range(M.dim):
                h = linalg.zeros(field, nd, C.dim * dB)
                for c in range(C.dim):
                    for b in range(dB):
                        moved = M.act(b, Tensor.basis(field, (M.dim,), (m,)))
                        for (m2,), v in moved.data.items():
                            for j in range(nd):
                                w = mat[j][c * M.dim + m2]
                                if w:
                                    h[j][c * dB + b] = h[j][c * dB + b] + v * w
                out.append(_expand_in_basis(field, basis_mat, _flatten_matrix(h)))
            return out

        def zeta_prime(coords):
            mat = linalg.zeros(field, nd, C.dim * M.dim)
            for m in range(M.dim):
                h = linalg.zeros(field, nd, C.dim * dB)
                for k, coeff in enumerate(coords[m]):
                    if coeff:
                        for j in range(nd):
                            for col in range(C.dim * dB):
                                if hom_cb_n[k][j][col]:
                                    h[j][col] = h[j][col] + coeff * hom_cb_n[k][j][col]
                for c in range(C.dim):
                    for (u,), w in A.alg.unit.data.items():
                        for j in range(nd):
                            v = h[j][c * dB + u]
                            if v:
                                mat[j][c * M.dim + m] = mat[j][c * M.dim + m] + w * v
            return mat

        ok = all(zeta_prime(xi_prime(mat)) == mat for mat in hom_cm_n)
        report.add("second-unit-roundtrip", ok)

        # reverse direction on the full space of module maps into the
        # inner hom, cut out by the transported right action
        rows = []
        n_vars = k_inner * M.dim
        for b in range(dB):
            for m in range(M.dim):
                acted_m = M.act(b, Tensor.basis(field, (M.dim,), (m,)))
                for k in range(k_inner):
                    row = [field.zero] * n_vars
                    for (m2,), v in acted_m.data.items():
                        row[k * M.dim + m2] = row[k * M.dim + m2] + v
                    for h in range(k_inner):
                        w = action_mats[b][h][k]
                        if w:
                            row[h * M.dim + m] = row[h * M.dim + m] - w
                    rows.append(row)
        inner_hom_basis = linalg.nullspace(field, rows) if rows else []
        coords = ([[vec[k * M.dim + m] for k in range(k_inner)] for m in range(M.dim)]
                  for vec in inner_hom_basis)
        report.add("second-counit-roundtrip",
                   all(xi_prime(zeta_prime(c)) == c for c in coords))
    else:
        report.add("second-unit-roundtrip", True)
        report.add("second-counit-roundtrip", True)
    return report


def M_as_plain(M: FiniteModule, A) -> FiniteModule:
    return FiniteModule(M.dim, A.alg, M.action, M.action_side, name=M.name)


def _flatten_matrix(mat):
    return [v for row in mat for v in row]


def _expand_in_basis(field, basis_flat, vec):
    """Coordinates of ``vec`` in the span of ``basis_flat`` (exact)."""
    if not basis_flat:
        return []
    cols = len(basis_flat)
    rows = len(basis_flat[0])
    system = [[basis_flat[c][r] for c in range(cols)] for r in range(rows)]
    return linalg.solve(field, system, list(vec))


def _module_hom_basis(M: FiniteModule, N: FiniteModule, alg: FinAlgebra,
                      colinear: bool = False):
    """Basis of module maps M -> N as matrices; with ``colinear`` they
    also intertwine the coactions, on the side where M coacts."""
    field = M.field
    n_vars = N.dim * M.dim
    rows = []
    for b in range(alg.dim):
        acted_n = [N.act(b, Tensor.basis(field, (N.dim,), (k,))) for k in range(N.dim)]
        for m in range(M.dim):
            acted_m = M.act(b, Tensor.basis(field, (M.dim,), (m,)))
            for j in range(N.dim):
                row = [field.zero] * n_vars
                # f(m . b)_j - (f(m) . b)_j = 0
                for (m2,), v in acted_m.data.items():
                    row[j * M.dim + m2] = row[j * M.dim + m2] + v
                for k in range(N.dim):
                    w = acted_n[k].get((j,))
                    if w:
                        row[k * M.dim + m] = row[k * M.dim + m] - w
                rows.append(row)
    if colinear:
        # coaction_N(f(m)) = (id x f)(coaction_M(m)), coalgebra leg c
        left = M.coaction_side == "left"
        for m in range(M.dim):
            coact_m = M.coaction.column((m,))
            for c in range(M.coaction.dst[0 if left else 1]):
                for j in range(N.dim):
                    row = [field.zero] * n_vars
                    for k in range(N.dim):
                        v = N.coaction.column((k,)).get((c, j) if left else (j, c))
                        if v:
                            row[k * M.dim + m] = row[k * M.dim + m] + v
                    for key, v in coact_m.data.items():
                        c2, m2 = key if left else key[::-1]
                        if c2 == c:
                            row[j * M.dim + m2] = row[j * M.dim + m2] - v
                    rows.append(row)
    basis = linalg.nullspace(field, rows) if rows else []
    return [_unflatten_matrix(field, vec, N.dim, M.dim) for vec in basis]


def _unflatten_matrix(field, vec, rows, cols):
    return [[vec[r * cols + c] for c in range(cols)] for r in range(rows)]


def transport_twist(M: FiniteModule, V: TwistWitness,
                    context_from: DoiHopfContext,
                    context_to: DoiHopfContext) -> FiniteModule:
    """Carry a left-right module across twist-equivalent comodule
    algebras: the action is untouched, the coaction is premultiplied by
    the witness (its first leg acting on the module, the second on the
    coalgebra leg)."""
    if context_from.variant != "left-right" or context_to.variant != "left-right":
        raise VariantMismatch("twist transport lives in the left-right variant")
    C = context_from.coalgebra
    field = context_from.field

    def coact_fn(idx):
        return _act_legwise(M, C, V.t, M.coaction.column(idx), 0, "left")

    coaction = LinMap.from_function(field, (M.dim,), M.coaction.dst, coact_fn)
    return FiniteModule(M.dim, context_to.comodule.alg, M.action, "left",
                        coaction, "right", name=M.name)


class CoringComodule:
    """Right comodule over a coring: a right module over the base ring
    with a coaction representative into the plain tensor product.  The
    coring must be free on the left, so that M (x)_R X = M (x) C."""

    def __init__(self, coring: Coring, dim: int, action: LinMap, coaction: LinMap,
                 name=""):
        self.coring = coring
        self.dim = dim
        self.field = coring.field
        self.action = action
        self.coaction = coaction
        self.name = name

    def act(self, r_idx, vec, leg=0):
        basis = Tensor.basis(self.field, (self.coring.R.dim,), (r_idx,))
        return apply_linear_map(self.action, vec.outer(basis), (leg, vec.arity), at=leg)


def verify_coring_comodule(M: CoringComodule) -> CheckReport:
    X = M.coring
    if "left" not in X._free:
        raise ShapeMismatch("a right comodule needs a coring free on the left")
    report = CheckReport("coring comodule %s" % (M.name or ""))
    field = M.field

    def vec(m):
        return Tensor.basis(field, (M.dim,), (m,))

    # M is a unital right module over the base ring
    def associative(item):
        m, r, s = item
        return (apply_linear_map(M.action, vec(m).outer(X.R.basis_product(r, s)), (0, 1)),
                M.act(s, M.act(r, vec(m))))

    report.sweep("action-associative", all_indices((M.dim, X.R.dim, X.R.dim)),
                 associative)
    report.sweep("action-unital", all_indices((M.dim,)),
                 lambda idx: (apply_linear_map(M.action, vec(idx[0]).outer(X.R.unit),
                                               (0, 1)), vec(idx[0])))

    def normal_forms(lhs, rhs):
        return (_normal_form(X, lhs, "left", M.action),
                _normal_form(X, rhs, "left", M.action))

    def linear(item):
        m, r = item
        return normal_forms(apply_linear_map(M.coaction, M.act(r, vec(m)), (0,)),
                            X.act_right(M.coaction.column((m,)), r, leg=1))

    report.sweep("coaction-linear", all_indices((M.dim, X.R.dim)), linear)
    basis = all_indices((M.dim,))

    def coassociative(idx):
        one = M.coaction.column(idx)
        return normal_forms(apply_linear_map(M.coaction, one, (0,)),
                            apply_linear_map(X.comult, one, (1,), at=1))

    report.sweep("coassociative", basis, coassociative)

    def counit_law(idx):
        acc = Tensor(field, (M.dim,))
        for (m0, c), v in M.coaction.column(idx).data.items():
            for (r,), w in X.counit.column((c,)).data.items():
                acc = acc + M.act(r, vec(m0)).scale(v * w)
        return acc, vec(idx[0])

    report.sweep("counit-law", basis, counit_law)
    return report


def doihopf_to_coring_comodule(M: FiniteModule, context: DoiHopfContext,
                               coring: Coring = None):
    """Right-left module to right comodule over the derived coring; the
    coaction representative pairs the module part with the unit-tagged
    coalgebra leg.  Returns (comodule, coring)."""
    if context.variant != "right-left":
        raise VariantMismatch("the coring comparison starts from the right-left variant")
    A, C = context.comodule, context.coalgebra
    field = context.field
    if coring is None:
        coring = build_coring("BC", B=A, C=C)
    dC = C.dim

    def coact_fn(idx):
        lam = M.coaction.column(idx)      # C x M
        out = Tensor(field, (M.dim, coring.dim))
        for (c, m0), v in lam.data.items():
            for (u,), w in A.alg.unit.data.items():
                key = (m0, u * dC + c)
                cur = out.data.get(key, field.zero) + v * w
                if cur:
                    out.data[key] = cur
                else:
                    out.data.pop(key, None)
        return out

    coaction = LinMap.from_function(field, (M.dim,), (M.dim, coring.dim), coact_fn)
    out = CoringComodule(coring, M.dim, M.action, coaction, name=M.name)
    return out, coring


def coring_comodule_to_doihopf(M: CoringComodule, context: DoiHopfContext) -> FiniteModule:
    """Inverse direction: reduce the representative so the base-ring leg
    is trivial, then flip into a coalgebra-first coaction."""
    A, C = context.comodule, context.coalgebra
    field = context.field
    dC = C.dim

    def coact_fn(idx):
        rep = M.coaction.column(idx)      # M x (B x C)
        out = Tensor(field, (dC, M.dim))
        for (m0, n), v in rep.data.items():
            b, c = divmod(n, dC)
            moved = M.act(b, Tensor.basis(field, (M.dim,), (m0,)))
            for (m1,), w in moved.data.items():
                key = (c, m1)
                cur = out.data.get(key, field.zero) + v * w
                if cur:
                    out.data[key] = cur
                else:
                    out.data.pop(key, None)
        return out

    coaction = LinMap.from_function(field, (M.dim,), (dC, M.dim), coact_fn)
    return FiniteModule(M.dim, A.alg, M.action, "right", coaction, "left",
                        name=M.name)
