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
from .hopf import shared_base
from .modcoalg import ModuleCoalgebra, _check_module_law, _module_law_sides, dualize
from .report import CheckReport
from .smash import ProductAlgebra, generalized_smash
from .tensor import (FinAlgebra, LinMap, Tensor, VectorSpace, _identity, act_legwise,
                     all_indices, apply_linear_map, switch_legs)

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
        self.variant = variant
        self.H = shared_base(comodule, coalgebra)
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


def verify_module_law(M: FiniteModule, report: CheckReport):
    _check_module_law(report, _carrier_alg(M.over), M.dim, M.action, M.action_side,
                      "action")


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
    cleg = 0 if want_coaction == "left" else 1
    mleg = 1 - cleg

    def coassoc(idx):
        # the comultiplication of C splits the coalgebra leg of the
        # coaction, the coaction again the module leg; the reassociator
        # acts on the second when the action and coaction sides differ,
        # on the first when they agree, and the acted side reads first
        # under a left action, e.g. (comult x id) lam(m) vs
        # ((id x lam) lam(m)) . re in the right-left variant
        one = apply_linear_map(M.coaction, Tensor.basis(field, (M.dim,), idx), (0,))
        split = apply_linear_map(C.comult, one, (cleg,), at=cleg)
        again = apply_linear_map(M.coaction, one, (mleg,), at=mleg)
        acted, other = (again, split) if want_action != want_coaction else (split, again)
        acted = _act_legwise(M, C, A.reassoc, acted, 2 * mleg, want_action)
        return (acted, other) if want_action == "left" else (other, acted)

    report.sweep("coassoc-upto-reassoc", all_indices((M.dim,)), coassoc)
    report.sweep_all("coaction-counit", (M.dim,),
                     apply_linear_map(C.counit, M.coaction.as_tensor(), (1 + cleg,)),
                     _identity(field, M.dim))

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
    """``act_legwise`` with leg ``mleg`` acted on through M and every
    other leg through the ``side`` action of C."""
    coalg = (C.left_action if side == "left" else C.right_action, side == "left")
    return act_legwise(element, target, [
        (M.action, M.action_side == "left") if leg == mleg else coalg
        for leg in range(target.arity)])


def trivial_module(context: DoiHopfContext) -> FiniteModule:
    """The comodule algebra itself as a plain module via multiplication."""
    A = context.comodule
    side = context.variant.split("-")[0]
    return FiniteModule(A.alg.dim, A.alg, A.alg.mult, side, name="regular")


def induce_doi_hopf(N: FiniteModule, context: DoiHopfContext) -> FiniteModule:
    """The induction functor pairing a plain module with the coalgebra;
    the two canonical variants are built natively, the other two through
    their reflections.  The carrier is C x N in the right-left variant
    and N x C in the left-right one: an element acts by its coaction
    image leg by leg, and the coaction is the comultiplication of C
    acted on by the inverse reassociator."""
    variant = context.variant
    if variant not in ("right-left", "left-right"):
        canonical = _reflect_context(context, "right-left")
        induced = induce_doi_hopf(_reflect_module(N, canonical), canonical)
        return _reflect_module(induced, context)
    A, C = context.comodule, context.coalgebra
    field = context.field
    dC, dN = C.dim, N.dim
    dim = dC * dN
    action_side, coaction_side = variant.split("-")
    right = action_side == "right"
    pair = (dC, dN) if right else (dN, dC)
    on_c = (C.left_action if C.side == "left" else C.right_action, C.side == "left")
    on_n = (N.action, N.action_side == "left")
    acts = (on_c, on_n) if right else (on_n, on_c)

    # every carrier basis vector x = (c, n) or (n, c) and every b at once:
    # the coaction image of b acts on the two legs of x, leg by leg
    t = _identity(field, dim).split(1, pair).outer(A.coaction.as_tensor())  # x t0 t1 b e0 e1
    for leg, (act, left) in enumerate(acts, 1):
        t = apply_linear_map(act, t, (4, leg) if left else (leg, 4), at=leg)
    t = switch_legs(t, (0, 3, 1, 2) if right else (3, 0, 1, 2))
    action = LinMap.from_tensor(t.fuse([[0], [1], [2, 3]]), 2)

    # the inverse reassociator acts on c1 c2 m or m c1 c2, for every c and m
    comult = C.comult.as_tensor()
    id_n = _identity(field, dN)
    if right:
        t = act_legwise(A.reassoc_inv, comult.outer(id_n), (None, on_c, on_c, None, on_n))
        t = switch_legs(t, (0, 3, 1, 2, 4)).fuse([[0, 1], [2], [3, 4]])
    else:
        t = act_legwise(A.reassoc_inv, id_n.outer(comult), (None, on_n, None, on_c, on_c))
        t = switch_legs(t, (0, 2, 1, 3, 4)).fuse([[0, 1], [2, 3], [4]])
    coaction = LinMap.from_tensor(t, 1)
    return FiniteModule(dim, A.alg, action, action_side, coaction, coaction_side,
                        name="induced(%s)" % (N.name or "N"))


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


def to_smash_module(M: FiniteModule, context: DoiHopfContext):
    """Collapse a right-left module's coaction into a right action of
    the smash product of the dual with the comodule algebra.

    Returns (module over the smash product, smash product).
    """
    if context.variant != "right-left":
        raise VariantMismatch("the smash collapse starts from the right-left variant")
    A, C = context.comodule, context.coalgebra
    smash = generalized_smash(dualize(C), A)
    out = FiniteModule(M.dim, smash, _smash_action(M.coaction, M.action, A.alg.dim),
                       "right", name=M.name)
    return out, smash


def _smash_action(coaction: LinMap, action: LinMap, dB: int) -> LinMap:
    """The right action m.(f # b) = f(m_(-1)) m_(0).b of the smash
    product C* # B, made of a left C-coaction and a right B-action."""
    # the dual basis vector e^f only selects the coalgebra index f: m f m0
    # b b, acted on as m f b m0.b
    t = coaction.as_tensor().outer(_identity(action.field, dB))
    t = apply_linear_map(action, t, (2, 4), at=3)
    return LinMap.from_tensor(t.fuse([[0], [1, 2], [3]]), 2)


def _counit_action(M: FiniteModule, context: DoiHopfContext) -> LinMap:
    """The right action m.b = m.(eps # b) of B on a module over C* # B."""
    C, dB = context.coalgebra, context.comodule.alg.dim
    # the action's entries at (m, (c, b)), summed against eps(c)
    t = M.action.as_tensor().split(1, (C.dim, dB))
    return LinMap.from_tensor(apply_linear_map(C.counit, t, (1,)), 2)


def _curried(action: LinMap, x: Tensor) -> LinMap:
    """m -> x_(1) (x) m.x_(2), for a right action and a two-leg x whose
    second leg lies in the acting algebra."""
    t = _identity(action.field, action.dst[0]).outer(x)     # m m x1 x2
    return LinMap.from_tensor(apply_linear_map(action, t, (1, 3), at=2), 1)


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

    # m -> e_i (x) m.(e^i # 1), summed over the dual basis
    coaction = _curried(M.action, _identity(field, dC).outer(A.alg.unit).fuse([[0], [1, 2]]))
    b_action = _counit_action(M, context)
    via_coaction = _smash_action(coaction, b_action, dB)

    report = CheckReport("rationality %s" % (M.name or ""))
    # the acting leg of either action split into (f, b)
    record = report.sweep_all("rational", (M.dim, dC, dB),
                              *(action.as_tensor().split(1, (dC, dB))
                                for action in (M.action, via_coaction)))
    if not record.passed:
        raise NotRational("module fails the rationality law at %r" % (record.witness,))

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
    dS = smash.carrier.dim

    # mu: M -> Hom(C* x B, M), m -> (n -> m.n); nu: C x M -> Hom(C* x B, M),
    # c x m -> (f # b -> f(c) m.(eps # b)); Hom(C* x B, M) = (C x B) x M
    mu = _curried(M.action, _identity(field, dS)).to_matrix()
    eps_b = _curried(_counit_action(M, context), _identity(field, dB))   # m b m.(eps # b)
    nu = switch_legs(_identity(field, dC).outer(eps_b.as_tensor()), (0, 2, 1, 3, 4))
    nu = LinMap.from_tensor(nu.fuse([[0], [1], [2, 3], [4]]), 2).to_matrix()

    # solve mu v = nu w: nullspace of [mu | -nu], keep the v-part
    aug = [row + [-x for x in nrow] for row, nrow in zip(mu, nu)]
    kernel = linalg.nullspace(field, aug)
    v_parts = [vec[:M.dim] for vec in kernel]
    reduced = linalg.rref(field, v_parts)[0] if v_parts else []
    basis = [Tensor.from_flat(field, (M.dim,), row) for row in reduced]

    report = CheckReport("maximal rational submodule %s" % (M.name or ""))
    report.add("is-whole-module", len(basis) == M.dim,
               lhs=len(basis), rhs=M.dim)
    # closure under the smash action, against the span reduced once: every
    # basis vector acted on by every smash element, b-major
    contains = linalg.span_membership(field, reduced)
    witness = None
    if basis:
        # m -> the basis vectors weighted by their m coefficients, on the
        # module leg of the action: the stack (b, n) of b.n
        rows = Tensor.from_flat(field, (M.dim, len(basis)),
                                [v for col in zip(*reduced) for v in col])
        acted = LinMap.from_tensor(apply_linear_map(LinMap.from_tensor(rows, 1),
                                                    M.action.as_tensor(), (0,)), 2)
        witness = next(((n,) for b, n in all_indices(acted.src)
                        if not contains(acted.column((b, n)).to_flat())), None)
    report.add("closed-under-action", witness is None, witness=witness)
    return basis, report


def adjunction_maps(M: FiniteModule, N: FiniteModule,
                    context: DoiHopfContext) -> CheckReport:
    """The unit/counit bijections of the two induction adjunctions,
    verified on full bases of the morphism spaces.  The data is stated in
    the right-left variant; the other variants reach it by reflection.
    Each hom basis is one stack (``_module_hom_basis``), and each map of
    the adjunctions is applied to the whole stack at once."""
    if context.variant != "right-left":
        canonical = _reflect_context(context, "right-left")
        return adjunction_maps(_reflect_module(M, canonical),
                               _reflect_module(N, canonical), canonical)
    A, C = context.comodule, context.coalgebra
    field = context.field
    report = CheckReport("adjunction data")
    dB, dC, dN = A.alg.dim, C.dim, N.dim
    induced_N = induce_doi_hopf(N, context)

    def roundtrip(check_id, homs, there, back):
        # an empty hom space passes, as a sweep over no maps
        if homs is None:
            report.add(check_id, True)
        else:
            report.sweep_all(check_id, homs.dims[:1], back(there(homs)), homs)

    # xi(f)(m) = m_(-1) x f(m_(0)): the coaction read backwards, m0 ->
    # (c, m), on the source leg of every f; zeta applies the counit to the
    # coalgebra leg
    coaction_back = LinMap.from_tensor(switch_legs(M.coaction.as_tensor(), (2, 1, 0)), 1)

    def xi(f):
        t = apply_linear_map(coaction_back, f, (2,), at=1)        # k c m j
        return switch_legs(t, (0, 1, 3, 2)).fuse([[0], [1, 2], [3]])

    def zeta(g):
        return apply_linear_map(C.counit, g.split(1, (dC, dN)), (1,))

    hom_b = _module_hom_basis(M, N, A.alg)
    roundtrip("unit-roundtrip", hom_b, xi, zeta)
    roundtrip("counit-roundtrip",
              _module_hom_basis(M, induced_N, A.alg, colinear=True), zeta, xi)
    # naturality in M for the first Doi-Hopf endomorphism g of M:
    # xi(f g) = xi(f) g, which needs g to commute with every coalgebra
    # block of the coaction; precomposing with g maps the source leg m' of
    # a stack to m by the entries g(m)_m'
    endos = _module_hom_basis(M, M, A.alg, colinear=True)
    if endos is not None and hom_b is not None:
        g = LinMap.from_tensor(LinMap.from_tensor(endos, 1).column((0,)), 1)

        def after_g(f):
            return apply_linear_map(g, f, (2,))

        report.sweep_all("naturality", hom_b.dims[:1], xi(after_g(hom_b)),
                         after_g(xi(hom_b)))

    # second adjunction, with the induced module as the two-structure
    # target: Hom(C x M, N') against module maps M -> I into the inner hom
    # I = Hom(C x B, N') with the right action (h.b)(c x b') = h(c x bb')
    inner = _module_hom_basis(induce_doi_hopf(trivial_module(context), context),
                              induced_N, A.alg, colinear=True)
    if inner is None:
        raise ShapeMismatch("the inner hom is zero")
    k_inner = inner.dims[0]
    inner_columns = LinMap.from_tensor(inner, 1).to_matrix()

    def coordinates(vectors, n):
        # one elimination of [inner basis | vectors], each vector a map
        # C x B -> N' on the last two legs of ``vectors``, indexed by the
        # first n: the basis columns are independent, so the reduced
        # vector columns are coordinates; the map (index) -> (coordinates)
        vectors = LinMap.from_tensor(vectors, n)
        red, pivots = linalg.rref(field, [b + v for b, v in zip(inner_columns,
                                                                 vectors.to_matrix())])
        if len(pivots) != k_inner:
            raise linalg.NotInvertible("a map leaves the inner hom")
        return LinMap.from_matrix(field, vectors.src, (k_inner,),
                                  [row[k_inner:] for row in red])

    def pull(f, action):
        # for each y, c x b -> f(c x y.b), for a stack f on C x Y and a
        # right action Y x B -> Y, read backwards as y' -> (y, b) on the Y
        # leg of f: the stack (k, y) of maps C x B -> N'
        back = LinMap.from_tensor(switch_legs(action.as_tensor(), (2, 0, 1)), 1)
        t = apply_linear_map(back, f.split(2, (dC, action.dst[0])), (3,), at=1)  # k y b j c
        return switch_legs(t, (0, 1, 3, 4, 2)).fuse([[0], [1], [2], [3, 4]])

    inner_hom = FiniteModule(k_inner, A.alg, coordinates(pull(inner, A.alg.mult), 2),
                             "right")
    # h -> h(c x 1) on the inner basis, r -> (j, c)
    at_unit = LinMap.from_tensor(apply_linear_map(
        LinMap.from_tensor(A.alg.unit, 1), inner.split(2, (dC, dB)), (3,)), 1)

    def xi_prime(f):
        return switch_legs(coordinates(pull(f, M.action), 2).as_tensor(), (0, 2, 1))

    def zeta_prime(g):
        # evaluate at c x 1
        return apply_linear_map(at_unit, g, (1,)).fuse([[0], [1], [2, 3]])

    roundtrip("second-unit-roundtrip",
              _module_hom_basis(induce_doi_hopf(M, context), induced_N, A.alg,
                                colinear=True), xi_prime, zeta_prime)
    roundtrip("second-counit-roundtrip", _module_hom_basis(M, inner_hom, A.alg),
              zeta_prime, xi_prime)
    return report


def _module_hom_basis(M: FiniteModule, N: FiniteModule, alg: FinAlgebra,
                      colinear: bool = False):
    """Basis of module maps M -> N as one tensor, the basis index on the
    leading leg, then N, then M: entry (k, j, m) is the coefficient of n_j
    in f_k(m).  None when the space is zero.  With ``colinear`` the maps
    also intertwine the coactions, on the side where M coacts."""
    field = M.field
    id_m, id_n = _identity(field, M.dim), _identity(field, N.dim)

    def conditions(plus, minus, plus_perm, minus_perm):
        # one row per index of the last three legs, one column per entry
        # (k, m2) of f on the first two
        t = switch_legs(plus, plus_perm) - switch_legs(minus, minus_perm)
        return LinMap.from_tensor(t, 2).to_matrix()

    def by_basis(X):
        # the action as b x -> x2, the coaction as x c -> x2
        t = X.action.as_tensor()
        return t if X.action_side == "left" else switch_legs(t, (1, 0, 2))

    # row (b, m, j): f(m . b)_j - (f(m) . b)_j = 0
    rows = conditions(by_basis(M).outer(id_n), by_basis(N).outer(id_m),
                      (4, 2, 0, 1, 3), (1, 4, 0, 3, 2))
    if colinear:
        # row (m, c, j): coaction_N(f(m)) = (id x f)(coaction_M(m)), on
        # the side where M coacts
        def coacted(X):
            t = X.coaction.as_tensor()
            return t if M.coaction_side == "left" else switch_legs(t, (0, 2, 1))

        rows += conditions(coacted(N).outer(id_m), coacted(M).outer(id_n),
                           (0, 4, 3, 1, 2), (4, 2, 0, 1, 3))
    basis = linalg.nullspace(field, rows)
    if not basis:
        return None
    return Tensor.from_flat(field, (len(basis), N.dim, M.dim), [v for vec in basis for v in vec])


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
    coaction = act_legwise(V.t, M.coaction.as_tensor(), (
        None, (M.action, M.action_side == "left"), (C.left_action, True)))
    coaction = LinMap.from_tensor(coaction, 1)
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

    def act(self, r_idx, vec):
        basis = Tensor.basis(self.field, (self.coring.R.dim,), (r_idx,))
        return apply_linear_map(self.action, vec.outer(basis), (0, vec.arity))


def verify_coring_comodule(M: CoringComodule) -> CheckReport:
    X = M.coring
    if "left" not in X._free:
        raise ShapeMismatch("a right comodule needs a coring free on the left")
    report = CheckReport("coring comodule %s" % (M.name or ""))

    # M is a unital right module over the base ring, swept over (m, r, s)
    unital, associative = _module_law_sides(X.R, M.dim, M.action, "right")
    report.sweep_all("action-associative", (M.dim, X.R.dim, X.R.dim),
                     *(switch_legs(t, (2, 0, 1, 3)) for t in associative))
    report.sweep_all("action-unital", (M.dim,), *unital)

    def normal_forms(lhs, rhs):
        return (_normal_form(X, lhs, "left", M.action),
                _normal_form(X, rhs, "left", M.action))

    def linear(item):
        m, r = item
        m_basis = Tensor.basis(M.field, (M.dim,), (m,))
        return normal_forms(apply_linear_map(M.coaction, M.act(r, m_basis), (0,)),
                            X.act_right(M.coaction.column((m,)), r, leg=1))

    report.sweep("coaction-linear", all_indices((M.dim, X.R.dim)), linear)

    def coassociative(idx):
        one = M.coaction.column(idx)
        return normal_forms(apply_linear_map(M.coaction, one, (0,)),
                            apply_linear_map(X.comult, one, (1,), at=1))

    report.sweep("coassociative", all_indices((M.dim,)), coassociative)
    # m -> m_(0).eps(m_(1)) for every m
    report.sweep_all("counit-law", (M.dim,), apply_linear_map(
        M.action, apply_linear_map(X.counit, M.coaction.as_tensor(), (2,)), (1, 2)),
        _identity(M.field, M.dim))
    return report


def doihopf_to_coring_comodule(M: FiniteModule, context: DoiHopfContext,
                               coring: Coring = None):
    """Right-left module to right comodule over the derived coring; the
    coaction representative pairs the module part with the unit-tagged
    coalgebra leg.  Returns (comodule, coring)."""
    if context.variant != "right-left":
        raise VariantMismatch("the coring comparison starts from the right-left variant")
    A, C = context.comodule, context.coalgebra
    if coring is None:
        coring = build_coring("BC", B=A, C=C)
    # m_(-1) x m_(0) x 1 to m_(0) x (1 x m_(-1)), for every m
    tagged = switch_legs(M.coaction.as_tensor().outer(A.alg.unit), (0, 2, 3, 1))
    coaction = LinMap.from_tensor(tagged.fuse([[0], [1], [2, 3]]), 1)
    out = CoringComodule(coring, M.dim, M.action, coaction, name=M.name)
    return out, coring


def coring_comodule_to_doihopf(M: CoringComodule, context: DoiHopfContext) -> FiniteModule:
    """Inverse direction: reduce the representative so the base-ring leg
    is trivial, then flip into a coalgebra-first coaction."""
    A, C = context.comodule, context.coalgebra
    # m_(0) x (b x c) to c x m_(0).b, for every m
    rep = M.coaction.as_tensor().split(2, (A.alg.dim, C.dim))
    coaction = LinMap.from_tensor(switch_legs(apply_linear_map(M.action, rep, (1, 2)),
                                              (0, 2, 1)), 1)
    return FiniteModule(M.dim, A.alg, M.action, "right", coaction, "left",
                        name=M.name)
