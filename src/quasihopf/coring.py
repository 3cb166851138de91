"""Corings over a base ring and their comodules.

Maps land in the plain tensor product of carriers; equality over the
base ring is decided by a normal form.  Every carrier is free on one
side over the base ring R, in a pair layout that ``Coring`` reads off
its actions: right-free C (x) R with (c, a).r = (c, a r), or left-free
R (x) C with r.(b, c) = (r b, c).  Over a right-free carrier
X (x)_R Y = C (x) Y, so each R-leg moves across the tensor sign into the
next factor by its left action; over a left-free one, into the factor
before it by its right action.  Equal normal forms are equal over R, so
coassociativity over the base ring is a finite, checkable statement.

The derived corings are those of Doi-Hopf data: BC over a left comodule
algebra with a right module coalgebra, CA over a right comodule algebra
with a left module coalgebra.  BC is native; CA is its opcop
reflection, the opposite coring of BC over the opcop reflections of the
inputs, with its actions swapped, its comultiplication flipped and its
carrier legs swapped.  The YD coring of a bicomodule algebra and
a bimodule coalgebra is not built on its own: it is the CA coring of the
second right realization over H^op (x) H, whose comodules are the
Yetter-Drinfeld modules seen as square-base Doi-Hopf modules.
"""

from __future__ import annotations

from .errors import ShapeMismatch
from .comodule import (BicomoduleAlgebra, ComoduleAlgebra, comodule_variant,
                       right_realization)
from .hopf import op_tensor, shared_base
from .modcoalg import ModuleCoalgebra, bimodule_to_op_tensor_module_coalgebra
from .report import CheckReport
from .tensor import (El, FinAlgebra, LinMap, Tensor, _identity, all_indices,
                     apply_linear_map, swap_factors, switch_legs)


class Coring:
    """Bimodule over a base ring with a comultiplication representative
    into the plain tensor square and a counit into the base ring.  The
    carrier must be free on the right or on the left in the pair layout
    (see the module docstring)."""

    def __init__(self, R: FinAlgebra, dim: int, left_action: LinMap,
                 right_action: LinMap, comult: LinMap, counit: LinMap, name=""):
        if left_action.src != (R.dim, dim) or left_action.dst != (dim,):
            raise ShapeMismatch("left action must map R x C -> C")
        if right_action.src != (dim, R.dim) or right_action.dst != (dim,):
            raise ShapeMismatch("right action must map C x R -> C")
        if comult.src != (dim,) or comult.dst != (dim, dim):
            raise ShapeMismatch("comultiplication representative has wrong shape")
        if counit.src != (dim,) or counit.dst != (R.dim,):
            raise ShapeMismatch("counit must land in the base ring")
        self.R = R
        self.dim = dim
        self.field = R.field
        self.left_action = left_action
        self.right_action = right_action
        self.comult = comult
        self.counit = counit
        self.name = name
        self._free = _free_sides(self)
        if not self._free:
            raise ShapeMismatch("coring carrier must be free over the base ring "
                                "on the right or on the left")

    def act_left(self, r_idx: int, vec: Tensor) -> Tensor:
        basis_r = Tensor.basis(self.field, (self.R.dim,), (r_idx,))
        return apply_linear_map(self.left_action, basis_r.outer(vec), (0, 1))

    def act_right(self, vec: Tensor, r_idx: int, leg=0) -> Tensor:
        basis_r = Tensor.basis(self.field, (self.R.dim,), (r_idx,))
        return apply_linear_map(self.right_action, vec.outer(basis_r),
                                (leg, vec.arity), at=leg)

    def __repr__(self):
        return "Coring(dim=%d over dim=%d%s)" % (
            self.dim, self.R.dim, ", %r" % self.name if self.name else "")


def _free_sides(X: Coring) -> tuple:
    """The sides on which the carrier is free in the pair layout: "right"
    if (c, a).r = (c, a r) on the index c.dR + a, "left" if
    r.(b, c) = (r b, c) on b.dC + c."""
    R = X.R
    dR = R.dim
    dC, rest = divmod(X.dim, dR)
    if rest:
        return ()
    right = LinMap(X.field, (X.dim, dR), (X.dim,), {
        (c * dR + a, r): {(c * dR + k,): v for (k,), v in R.basis_product(a, r).data.items()}
        for c in range(dC) for a in range(dR) for r in range(dR)})
    left = LinMap(X.field, (dR, X.dim), (X.dim,), {
        (r, b * dC + c): {(k * dC + c,): v for (k,), v in R.basis_product(r, b).data.items()}
        for r in range(dR) for b in range(dR) for c in range(dC)})
    return tuple(side for side, action, free in (("right", X.right_action, right),
                                                 ("left", X.left_action, left))
                 if action == free)


def _normal_form(X: Coring, t: Tensor, side: str, head: LinMap = None) -> Tensor:
    """Normal form of ``t`` modulo the balancing relations
    (x.r) (x) y - x (x) (r.y) between neighbouring legs.  Every leg of
    ``t`` is a coring leg, except leg 0 when ``head`` gives the right
    action of a module there.

    On the right-free side each leg but the last, from left to right, is
    split into (c, a) and a acts on the next leg from the left: the
    result lives in C^(k-1) (x) X.  On the left-free side each leg but
    the first, from right to left, is split into (b, c) and b acts on the
    leg before it from the right: the result lives in X (x) C^(k-1), or
    in M (x) C^(k-1)."""
    dR = X.R.dim
    dC = X.dim // dR
    if side == "right":
        for leg in range(t.arity - 1):
            t = apply_linear_map(X.left_action, t.split(leg, (dC, dR)),
                                 (leg + 1, leg + 2))
        return t
    for leg in range(t.arity - 1, 0, -1):
        action = head if leg == 1 and head is not None else X.right_action
        t = apply_linear_map(action, t.split(leg, (dR, dC)), (leg - 1, leg))
    return t


def verify_coring(X: Coring) -> CheckReport:
    report = CheckReport("coring %s" % (X.name or ""))
    field = X.field
    free = X._free[0]

    def normal_forms(lhs, rhs):
        return _normal_form(X, lhs, free), _normal_form(X, rhs, free)

    def basis(c):
        return Tensor.basis(field, (X.dim,), (c,))

    sided = [(side, r, c) for r in range(X.R.dim) for c in range(X.dim)
             for side in ("left", "right")]

    def comult_bilinear(item):
        side, r, c = item
        if side == "left":
            lhs = apply_linear_map(X.comult, X.act_left(r, basis(c)), (0,))
            rhs = X.act_left(r, X.comult.column((c,)))
        else:
            lhs = apply_linear_map(X.comult, X.act_right(basis(c), r), (0,))
            rhs = X.act_right(X.comult.column((c,)), r, leg=1)
        return normal_forms(lhs, rhs)

    report.sweep("comult-bilinear", sided, comult_bilinear)

    # counit(r.c) against r counit(c) and counit(c.r) against counit(c) r,
    # every (r, c) at once
    r_counit = _identity(field, X.R.dim).outer(X.counit.as_tensor())   # r r c eps(c)
    report.sweep_sides("counit-bilinear", (X.R.dim, X.dim), [
        (lambda item: ("left",) + item,
         apply_linear_map(X.counit, X.left_action.as_tensor(), (2,)),
         apply_linear_map(X.R.mult, r_counit, (1, 3), at=2)),
        (lambda item: ("right",) + item,
         switch_legs(apply_linear_map(X.counit, X.right_action.as_tensor(), (2,)), (1, 0, 2)),
         apply_linear_map(X.R.mult, r_counit, (3, 1), at=2))])

    def coassociative(idx):
        two = X.comult.column(idx)
        return normal_forms(apply_linear_map(X.comult, two, (0,)),
                            apply_linear_map(X.comult, two, (1,)))

    report.sweep("coassociative", all_indices((X.dim,)), coassociative)

    # (counit x id) and (id x counit) of the comultiplication, through the
    # actions, every c at once: legs c (r b) on the left, c (a r) on the right
    comult, ident = X.comult.as_tensor(), _identity(field, X.dim)
    report.sweep_sides("counit-law", (X.dim,), [
        (lambda item: ("left",) + item, apply_linear_map(
            X.left_action, apply_linear_map(X.counit, comult, (1,)), (1, 2)), ident),
        (lambda item: ("right",) + item, apply_linear_map(
            X.right_action, apply_linear_map(X.counit, comult, (2,)), (1, 2)), ident)])
    return report


def trivial_coring(R: FinAlgebra) -> Coring:
    """The base ring over itself with the identity comultiplication."""
    field = R.field
    d = R.dim
    # c maps to c (x) 1, a representative of the canonical element
    comult = LinMap.from_tensor(_identity(field, d).outer(R.unit), 1)
    counit = LinMap.identity(field, (d,))
    return Coring(R, d, R.mult, R.mult, comult, counit, name="trivial")


def build_coring(kind: str, **inputs) -> Coring:
    """The three derived corings: over a left comodule algebra with a
    right module coalgebra ("BC"), over a right comodule algebra with a
    left module coalgebra ("CA"), and over a bicomodule algebra with a
    bimodule coalgebra ("YD", the CA coring over the square base)."""
    shared_base(*inputs.values())
    if kind == "BC":
        return _coring_bc(inputs["B"], inputs["C"])
    if kind == "CA":
        return _coring_ca(inputs["A"], inputs["C"])
    if kind == "YD":
        return _coring_yd(inputs["A"], inputs["C"])
    raise ShapeMismatch("unknown coring kind %r" % (kind,))


def _coring_bc(B: ComoduleAlgebra, C: ModuleCoalgebra) -> Coring:
    if B.side != "left" or C.side != "right":
        raise ShapeMismatch("needs a left comodule algebra and right module coalgebra")
    field = B.field
    dB, dC = B.alg.dim, C.dim
    N = dB * dC
    id_B, id_C = _identity(field, dB), _identity(field, dC)
    # r . (b, c) = (r b, c): the product of B tensored with id_C
    left = LinMap.from_tensor(B.alg.mult.as_tensor().outer(id_C).fuse([[0], [1, 3], [2, 4]]), 2)

    # every basis pair (b, c) at once, on the leading legs b c; its
    # image on the legs b2 c2
    pairs = El((B.alg,) * 2, id_B, "b b2").times(El((C.space,) * 2, id_C, "c c2"))
    # (b, c) . r = (b r0, c . r-1)
    e = pairs.times(El((B.alg,) + B.coaction.dst_spaces, B.coaction.as_tensor(), "r h r0"))
    e = e.merge("b2", "r0").map(C.right_action, "c2 h", "c2")
    right = LinMap.from_tensor(e.tensor("b c r b2 c2").fuse([[0, 1], [2], [3, 4]]), 2)

    # (b x3 (x) c2 . x2) (x) (1 (x) c1 . x1)
    e = pairs.times(B.re_inv_el("x1 x2 x")).map(C.comult, "c2", "c1 c2").merge("b2", "x")
    e = e.map(C.right_action, "c2 x2", "c2").map(C.right_action, "c1 x1", "c1")
    e = e.times(El((B.alg,), B.alg.unit, "one"))
    comult = LinMap.from_tensor(e.tensor("b c b2 c2 one c1").fuse([[0, 1], [2, 3], [4, 5]]), 1)

    # id_B (x) eps on the fused pair (b, c)
    counit = LinMap.from_tensor(id_B.outer(C.counit.as_tensor()).fuse([[0, 2], [1]]), 1)
    return Coring(B.alg, N, left, right, comult, counit,
                  name="BC(%s,%s)" % (B.name or "B", C.name or "C"))


def _coring_ca(A: ComoduleAlgebra, C: ModuleCoalgebra, name=None) -> Coring:
    """The opposite coring of BC over the opcop reflections of A and C,
    over A itself on the carrier C (x) A."""
    if A.side != "right" or C.side != "left":
        raise ShapeMismatch("needs a right comodule algebra and left module coalgebra")
    native = _coring_bc(comodule_variant(A, "opcop"), C.reflect("opcop"))
    return _opposite_coring(native, A.alg,
                            name or "CA(%s,%s)" % (A.name or "A", C.name or "C"))


def _opposite_coring(X: Coring, R: FinAlgebra, name: str) -> Coring:
    """The opposite coring of ``X`` with its two carrier legs swapped,
    over ``R``, the opposite of the base ring of ``X``: each action is
    the other one with its arguments swapped, the comultiplication is
    flipped, and the counit is kept."""
    N, dR = X.dim, X.R.dim

    def opposite(m, perm, legs):
        t = swap_factors(switch_legs(m.as_tensor(), perm), legs, dR, N // dR)
        return LinMap.from_tensor(t, len(m.src))

    return Coring(R, N, opposite(X.right_action, (1, 0, 2), (1, 2)),
                  opposite(X.left_action, (1, 0, 2), (0, 2)),
                  opposite(X.comult, (0, 2, 1), (0, 1, 2)), opposite(X.counit, (0, 1), (0,)),
                  name=name)


def _coring_yd(A: BicomoduleAlgebra, C: ModuleCoalgebra) -> Coring:
    """The CA coring of the second right realization of A and of C, both
    over the twisted tensor square H^op (x) H."""
    square = op_tensor(A.H)
    over_square = bimodule_to_op_tensor_module_coalgebra(C, base=square)
    return _coring_ca(right_realization(A, 2), over_square,
                      name="YD(%s,%s)" % (A.name or "A", C.name or "C"))
