"""Module coalgebras and (bi)module algebras over a quasi-bialgebra,
their verifiers, dualization, the view of a bimodule coalgebra over the
twisted tensor square, and gauge transport of coalgebra structures.
"""

from __future__ import annotations

from .errors import ShapeMismatch
from .hopf import (GaugeTransformation, QuasiBialgebra, _counit_comult_record, gauge_twist,
                   op_tensor, variant)
from .report import CheckReport
from .tensor import (El, FinAlgebra, LinMap, Tensor, VectorSpace, _identity, act_legwise,
                     all_indices, apply_linear_map, switch_legs)

SIDES = ("left", "right", "bi")


class ModuleCoalgebra:
    """Coalgebra carrying one or two module actions of the base.

    side "left": action H (x) C -> C; side "right": C (x) H -> C;
    side "bi": both, commuting.
    """

    def __init__(self, H: QuasiBialgebra, side: str, dim: int, comult: LinMap,
                 counit: LinMap, left_action: LinMap = None,
                 right_action: LinMap = None, name=""):
        if side not in SIDES:
            raise ShapeMismatch("side must be one of %r" % (SIDES,))
        if comult.src != (dim,) or comult.dst != (dim, dim):
            raise ShapeMismatch("comultiplication has shape %r -> %r"
                                % (comult.src, comult.dst))
        if counit.src != (dim,) or counit.dst != ():
            raise ShapeMismatch("counit has shape %r -> %r" % (counit.src, counit.dst))
        self.H = H
        self.side = side
        self.dim = dim
        self.field = H.field
        self.space = VectorSpace(H.field, dim, name or "C")
        self.comult = comult.rebind((self.space, self.space))
        self.counit = counit.rebind(())
        self.left_action, self.right_action = _checked_actions(
            H, side, self.space, left_action, right_action, "C")
        self.name = name

    def reflect(self, kind: str) -> "ModuleCoalgebra":
        """The same carrier over ``variant(H, kind)``: "cop" flips the
        comultiplication, "op" moves each action to the other side with
        its legs transposed (left and right swap, bi stays bi), and
        "opcop" does both.  Each reflection is an involution."""
        comult = self.comult if kind == "op" else self.comult.permute(dst=(1, 0))
        H, side, left, right, name = _reflected_actions(self, kind)
        return ModuleCoalgebra(H, side, self.dim, comult, self.counit, left, right,
                               name=name)

    def __repr__(self):
        return "ModuleCoalgebra(%s, dim=%d%s)" % (
            self.side, self.dim, ", %r" % self.name if self.name else "")


class ModuleAlgebra:
    """Algebra object in modules over the base: the carrier may be
    non-associative on the nose, associativity holding only after the
    reassociator acts."""

    def __init__(self, H: QuasiBialgebra, side: str, alg: FinAlgebra,
                 left_action: LinMap = None, right_action: LinMap = None, name=""):
        if side not in SIDES:
            raise ShapeMismatch("side must be one of %r" % (SIDES,))
        self.H = H
        self.side = side
        self.alg = alg
        self.field = alg.field
        self.left_action, self.right_action = _checked_actions(
            H, side, alg, left_action, right_action, "A")
        self.name = name

    def reflect(self, kind: str) -> "ModuleAlgebra":
        """The same carrier over ``variant(H, kind)``: "cop" takes the
        opposite algebra, "op" moves each action to the other side as
        ``ModuleCoalgebra.reflect`` does, and "opcop" does both.  Each
        reflection is an involution."""
        alg = self.alg if kind == "op" else self.alg.opposite()
        H, side, left, right, name = _reflected_actions(self, kind)
        return ModuleAlgebra(H, side, alg, left, right, name=name)

    def __repr__(self):
        return "ModuleAlgebra(%s, dim=%d%s)" % (
            self.side, self.alg.dim, ", %r" % self.name if self.name else "")


def _checked_actions(H, side: str, space, left, right, carrier: str):
    """The (left, right) actions of a ``side`` module over H on
    ``space``, each checked for shape and rebound onto ``space``; None
    for an action the side does not have.  ``carrier`` names the space
    in the errors."""
    d = space.dim

    def checked(action, src, which, domain):
        if action is None or action.src != src or action.dst != (d,):
            raise ShapeMismatch("%s action must map %s -> %s" % (which, domain, carrier))
        return action.rebind((space,))

    has_left, has_right = side in ("left", "bi"), side in ("right", "bi")
    return (checked(left, (H.dim, d), "left", "H x " + carrier) if has_left else None,
            checked(right, (d, H.dim), "right", carrier + " x H") if has_right else None)


def _reflected_actions(X, kind: str):
    """(base, side, left action, right action, name) of the ``kind``
    reflection of a module coalgebra or algebra: over ``variant(H, kind)``,
    with each action moved to the other side, legs transposed, unless
    ``kind`` is "cop"."""
    left, right, side = X.left_action, X.right_action, X.side
    if kind != "cop":
        def moved(action):
            return None if action is None else action.permute(src=(1, 0))
        left, right = moved(X.right_action), moved(X.left_action)
        side = {"left": "right", "right": "left", "bi": "bi"}[side]
    if kind == "op":
        suffix = {"left": "-as-right", "right": "-as-left", "bi": "^op"}[X.side]
    else:
        suffix = "^" + kind
    return (variant(X.H, kind), side, left, right,
            (X.name + suffix) if X.name else "")


def _module_law_sides(alg, action, side):
    """The sides of the laws of a ``side`` action of ``alg``, each with its
    items on the leading legs: the unital law over every basis vector m,
    1.m against m (m.1 on the right), and the associative law over every
    (a, b, m), (e_a e_b).m against e_a.(e_b.m) (m.(e_a e_b) against
    (m.e_a).e_b on the right)."""
    field, left = alg.field, side == "left"
    ident = _identity(field, action.dst[0])

    def act(t, x_leg, m_leg):
        # leg x_leg of a five-leg t acts on leg m_leg; the image goes last
        return apply_linear_map(action, t, (x_leg, m_leg) if left else (m_leg, x_leg), at=3)

    # legs a b e_a.e_b m m, the product acting on the second m
    acted = act(alg.mult.as_tensor().outer(ident), 2, 4)
    if left:
        # legs a a b m b.m, the second a acting on b.m
        twice = act(_identity(field, alg.dim).outer(action.as_tensor()), 1, 4)
    else:
        # legs m a m.a b b, the second b acting on m.a, then m moved after b
        twice = switch_legs(act(action.as_tensor().outer(_identity(field, alg.dim)), 4, 2),
                            (1, 2, 0, 3))
    return (act_legwise(alg.unit, ident, [None, (action, left)]), ident), (acted, twice)


def _check_module_law(report, alg, action, side, prefix):
    """"<prefix>-unital" and "<prefix>-associative" of a ``side`` action
    (see ``_module_law_sides``)."""
    unital, associative = _module_law_sides(alg, action, side)
    dim = action.dst[0]
    report.sweep_all(prefix + "-unital", (dim,), *unital)
    report.sweep_all(prefix + "-associative", (alg.dim, alg.dim, dim), *associative)


def _check_actions_commute(report, H, left_action, right_action):
    """(h . c) . h2 = h . (c . h2) on every basis triple."""
    ident = _identity(H.field, H.dim)
    report.sweep_all("actions-commute", (H.dim, left_action.dst[0], H.dim),
                     apply_linear_map(right_action, left_action.as_tensor().outer(ident),
                                      (2, 4), at=3),
                     apply_linear_map(left_action, ident.outer(right_action.as_tensor()),
                                      (1, 4), at=3))


def _actions(X):
    """The (side, action) pairs a module coalgebra or algebra carries."""
    return [(side, action) for side, action in (("left", X.left_action),
                                                ("right", X.right_action))
            if action is not None]


def verify_module_coalgebra(C: ModuleCoalgebra) -> CheckReport:
    report = CheckReport("%s module coalgebra %s" % (C.side, C.name or ""))
    H = C.H

    # counit laws of the underlying coalgebra
    _counit_comult_record(report, C.comult, C.counit)

    actions = _actions(C)
    for side, action in actions:
        _check_module_law(report, H.alg, action, side, side + "-action")
    if C.side == "bi":
        _check_actions_commute(report, H, C.left_action, C.right_action)

    # coassociativity up to the reassociator acting through the actions
    def coassoc(idx):
        two = El((C.space,) * 2, C.comult.column(idx))
        return (_reassociate(C, two.map(C.comult, 0).t),    # (comult x id)
                two.map(C.comult, 1).t)                     # (id x comult)

    report.sweep("coassoc-upto-reassoc", all_indices((C.dim,)), coassoc)

    # comultiplication and counit respect the actions: comult(h.c) against
    # h1.c1 (x) h2.c2 (c.h and c1.h1 (x) c2.h2 on the right), and
    # counit(h.c) against eps(h) counit(c), every (c, h) at once, the
    # coalgebra index outermost; a left action's witness is its source
    # index (h, c)
    sides = {}
    for side, action in actions:
        left = side == "left"
        witness = (lambda item: item[::-1]) if left else tuple
        # legs c h h.c
        acted = switch_legs(action.as_tensor(), (1, 0, 2)) if left else action.as_tensor()
        # legs c c1 c2 h h1 h2; h1 acts on c1, then h2 on c2, images after h
        split = C.comult.as_tensor().outer(H.comult.as_tensor())
        for _ in range(2):
            split = apply_linear_map(action, split, (4, 1) if left else (1, 4), at=3)
        sides["comult", side] = witness, apply_linear_map(C.comult, acted, (2,)), split
        sides["counit", side] = (witness, apply_linear_map(C.counit, acted, (2,)),
                                 C.counit.as_tensor().outer(H.counit.as_tensor()))
    for law in ("comult", "counit"):
        for side, _ in actions:
            report.sweep_sides("%s-action-compat-%s" % (law, side), (C.dim, H.dim),
                               [sides[law, side]])
    return report


def _reassociate(X, t: Tensor) -> Tensor:
    """The reassociator acting on a three-leg tensor through the actions
    of a module coalgebra or algebra: from the left through a left
    action, its inverse from the right through a right action, left
    first on the bi side."""
    H = X.H
    if X.left_action is not None:
        t = act_legwise(H.reassoc, t, [(X.left_action, True)] * 3)
    if X.right_action is not None:
        t = act_legwise(H.reassoc_inv, t, [(X.right_action, False)] * 3)
    return t


def verify_module_algebra(A: ModuleAlgebra) -> CheckReport:
    report = CheckReport("%s module algebra %s" % (A.side, A.name or ""))
    H, alg = A.H, A.alg
    field = A.field
    witness = alg.unit_witness()
    report.add("unit-two-sided", witness is None, witness=witness)

    actions = _actions(A)
    for side, action in actions:
        _check_module_law(report, H.alg, action, side, side + "-action")
    if A.side == "bi":
        _check_actions_commute(report, H, A.left_action, A.right_action)

    # associativity up to the reassociator through the actions
    def reassoc_assoc(triple):
        i, j, k = triple
        plain_left = alg.product(alg.basis_product(i, j),
                                 Tensor.basis(field, (alg.dim,), (k,)))
        acted = _reassociate(A, Tensor.basis(field, (alg.dim,) * 3, triple))
        return plain_left, apply_linear_map(
            alg.mult, apply_linear_map(alg.mult, acted, (1, 2)), (0, 1))

    report.sweep("assoc-upto-reassoc", all_indices((alg.dim,) * 3), reassoc_assoc)

    # the action distributes over the product via the comultiplication:
    # h.(e_i e_j) against (h1.e_i)(h2.e_j), or (e_i e_j).h against
    # (e_i.h1)(e_j.h2) on the right, every (h, i, j) at once
    ident = _identity(field, alg.dim)
    for side, action in actions:
        legs = (1, 4) if side == "left" else (4, 1)
        # legs h h i j (e_i e_j), the second h acting on the product
        acted = apply_linear_map(action, _identity(field, H.dim).outer(
            alg.mult.as_tensor()), legs, at=3)
        # legs h h1 h2 i e_i j e_j: h1 acts on e_i, then h2 on e_j, and
        # the two images multiply
        split = H.comult.as_tensor().outer(ident).outer(ident)
        split = apply_linear_map(action, apply_linear_map(action, split, legs, at=5), legs,
                                 at=4)
        report.sweep_all("action-distributive-" + side, (H.dim, alg.dim, alg.dim), acted,
                         apply_linear_map(alg.mult, split, (3, 4)))

    # the unit absorbs the action through the counit: h.1 (1.h on the
    # right) against eps(h) 1, every h at once
    units = _identity(field, H.dim).outer(alg.unit)
    witness = {"left": lambda item: item + ("left",), "right": lambda item: item + ("right",)}
    report.sweep_sides("action-counit-unit", (H.dim,), [
        (witness[side], apply_linear_map(action, units, (1, 2) if side == "left" else (2, 1)),
         H.counit.as_tensor().outer(alg.unit)) for side, action in actions])
    return report


def dualize(C: ModuleCoalgebra) -> ModuleAlgebra:
    """The linear dual as a module algebra: convolution product, counit
    as unit, transposed action(s) on the other side."""
    H = C.H

    def transposed(m, perm):
        return LinMap.from_tensor(switch_legs(m.as_tensor(), perm), 2)

    # convolution: (e^i e^j)(c) = coefficient of e_i x e_j in comult(c)
    alg = FinAlgebra(C.field, C.dim, transposed(C.comult, (1, 2, 0)), C.counit.as_tensor(),
                     name=(C.name or "C") + "*", validate=False)
    left = right = None
    if C.right_action is not None:
        # (h . f)(c) = f(c . h)
        left = transposed(C.right_action, (1, 2, 0))
    if C.left_action is not None:
        # (f . h)(c) = f(h . c)
        right = transposed(C.left_action, (2, 0, 1))

    if C.side == "right":
        return ModuleAlgebra(H, "left", alg, left_action=left, name=alg.name)
    if C.side == "left":
        return ModuleAlgebra(H, "right", alg, right_action=right, name=alg.name)
    return ModuleAlgebra(H, "bi", alg, left_action=left, right_action=right,
                         name=alg.name)


def bimodule_to_op_tensor_module_coalgebra(C: ModuleCoalgebra,
                                           base=None) -> ModuleCoalgebra:
    """View a bimodule coalgebra as a left module coalgebra over the
    opposite base tensored with the base: (h x h') . c = h' . c . h.

    The square is ``op_tensor(C.H)`` unless ``base`` is given.  Callers
    that pair C with a comodule algebra A pass the square of A: the CLI
    reads C and A with separate companions, so C.H is a base equal to
    A.H but not the same object, and the square cached on it would be
    built a second time and then compared structurally with the first."""
    if C.side != "bi":
        raise ShapeMismatch("input must be a bimodule coalgebra")
    H = C.H
    HopH = base if base is not None else op_tensor(H)
    # ((h, h2), c) -> (h2 . c) . h, for every h, h2 and c at once
    t = _identity(C.field, H.dim).outer(C.left_action.as_tensor())   # h h h2 c h2.c
    t = apply_linear_map(C.right_action, t, (4, 1), at=3)
    action = LinMap.from_tensor(t.fuse([[0, 1], [2], [3]]), 2)
    return ModuleCoalgebra(HopH, "left", C.dim, C.comult, C.counit,
                           left_action=action,
                           name=(C.name + "-over-square") if C.name else "")


def gauge_twist_module_coalgebra(C: ModuleCoalgebra, F: GaugeTransformation):
    """Left module coalgebra over the gauge-twisted base: the
    comultiplication is premultiplied by the gauge, the counit and the
    action survive unchanged.  Returns (twisted coalgebra, twisted base).
    """
    if C.side != "left":
        raise ShapeMismatch("gauge transport twists left module coalgebras")
    H_f = gauge_twist(C.H, F)
    comult = act_legwise(F.t, C.comult.as_tensor(), (None, (C.left_action, True),
                                                     (C.left_action, True)))
    comult = LinMap.from_tensor(comult, 1)
    out = ModuleCoalgebra(H_f, "left", C.dim, comult, C.counit, left_action=C.left_action,
                          name=(C.name + "_twisted") if C.name else "")
    return out, H_f
