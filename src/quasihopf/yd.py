"""Yetter-Drinfeld modules over a bicomodule algebra and a bimodule
coalgebra, and the pair of inverse functors identifying them with
Doi-Hopf modules over the twisted tensor square.
"""

from __future__ import annotations

from .comodule import BicomoduleAlgebra, canonical_elements, right_realization
from .doihopf import (DoiHopfContext, FiniteModule, _act_legwise,
                      adjunction_maps, induce_doi_hopf, verify_module_law)
from .errors import VariantMismatch
from .hopf import op_tensor, shared_base
from .modcoalg import ModuleCoalgebra, bimodule_to_op_tensor_module_coalgebra
from .report import CheckReport
from .tensor import El, LinMap, Tensor, _identity, all_indices, apply_linear_map


class YetterDrinfeldContext:
    """A bicomodule algebra and a bimodule coalgebra over one quasi-Hopf
    base, together with the materialized square-base Doi-Hopf context:
    the second right realization of A and C as a left module coalgebra,
    both over H^op (x) H."""

    def __init__(self, A: BicomoduleAlgebra, C: ModuleCoalgebra):
        if C.side != "bi":
            raise VariantMismatch("needs a bimodule coalgebra")
        self.A = A
        self.C = C
        self.H = shared_base(A, C)
        self.field = A.field
        self.square = op_tensor(self.H)
        self.second = right_realization(A, 2)
        self.over_square = bimodule_to_op_tensor_module_coalgebra(C, base=self.square)
        self.doihopf = DoiHopfContext("left-right", self.second, self.over_square)


def verify_yd(M: FiniteModule, context: YetterDrinfeldContext) -> CheckReport:
    """Counit law, the mixed coassociativity law, and the crossed
    compatibility, on every basis element."""
    A, C, H = context.A, context.C, context.H
    field = context.field
    report = CheckReport("yetter-drinfeld %s" % (M.name or ""))
    if M.action_side != "left" or M.coaction_side != "right":
        raise VariantMismatch("expects a left action and a right coaction")
    verify_module_law(M, report=report)

    basis = all_indices((M.dim,))
    report.sweep_all("coaction-counit", (M.dim,),
                     apply_linear_map(C.counit, M.coaction.as_tensor(), (2,)),
                     _identity(field, M.dim))

    coaction = M.coaction.rebind((M.space, C.space))
    mixed_inv = El(A.mixed_spaces(), A.reassoc_mixed_inv, "t1 t t3")
    left_inv = El((H.alg, H.alg, A.alg), A.reassoc_left_inv, "x1 x2 x")
    right_inv = El((A.alg, H.alg, H.alg), A.reassoc_right_inv, "y y2 y3")

    def mixed_coassoc(idx):
        # left side: t acts on the module before the second coaction, t1
        # and t3 on the fresh and the old coaction leg
        lhs = mixed_inv.times(El((M.space, C.space), M.coaction.column(idx), "m c"))
        lhs = lhs.map(M.action, "t m", "m").map(coaction, "m", "m b")
        lhs = lhs.map(C.right_action, "b t1", "b").map(C.left_action, "t3 c", "c")
        # right side: x acts before the coaction, y after it; on each
        # coalgebra leg y acts from the left before x from the right
        rhs = left_inv.times(El((M.space,), Tensor.basis(field, (M.dim,), idx), "m"))
        rhs = rhs.map(M.action, "x m", "m").map(coaction, "m", "m c").map(C.comult, "c", "c1 c2")
        rhs = right_inv.times(rhs).map(M.action, "y m", "m")
        rhs = rhs.map(C.left_action, "y2 c1", "c1").map(C.right_action, "c1 x1", "c1")
        rhs = rhs.map(C.left_action, "y3 c2", "c2").map(C.right_action, "c2 x2", "c2")
        return lhs.tensor("m b c"), rhs.tensor("m c1 c2")

    report.sweep("mixed-coassoc", basis, mixed_coassoc)

    def crossed(item):
        i, a = item
        # u_<0> . m_(0) x u_<1> . m_(1)
        lhs = _act_legwise(M, C, A.right_coaction.column((a,)),
                           M.coaction.column((i,)), 0, "left")
        # (u_[0] . m)_(0) x (u_[0] . m)_(1) . u_[-1]
        rhs = _coact_acted(M, C, A.left_coaction.column((a,)),
                           Tensor.basis(field, (M.dim,), (i,)))
        return lhs, rhs

    report.sweep("crossed-compat", all_indices((M.dim, A.alg.dim)), crossed)
    return report


def _coact_acted(M: FiniteModule, C: ModuleCoalgebra, x: Tensor, target: Tensor) -> Tensor:
    """(x_A . m)_(0) (x) (x_A . m)_(1) . x_H for an element x of H (x) A,
    m the last leg of ``target``; any legs before it ride along."""
    k = target.arity - 1
    t = target.outer(x)                                         # m h a
    t = apply_linear_map(M.action, t, (k + 2, k), at=k)         # m h
    t = apply_linear_map(M.coaction, t, (k,))                   # m0 c h
    return apply_linear_map(C.right_action, t, (k + 1, k + 2))  # m0 c.h


def yd_to_doihopf(M: FiniteModule, context: YetterDrinfeldContext) -> FiniteModule:
    """Keep the action, replace the coaction using the canonical left
    comparison element; lands in the square-base Doi-Hopf context."""
    A = context.A
    p = canonical_elements(A.left(), verify=False).p      # H x A
    t = _coact_acted(M, context.C, p, _identity(context.field, M.dim))    # m m0 c
    coaction = LinMap.from_tensor(t, 1)
    return FiniteModule(M.dim, A.alg, M.action, "left", coaction, "right",
                        name=(M.name or "M"))


def doihopf_to_yd(M: FiniteModule, context: YetterDrinfeldContext) -> FiniteModule:
    """Inverse direction using the other canonical comparison element and
    the right coaction of the carrier."""
    A, C, H = context.A, context.C, context.H
    q = El((H.alg, A.alg), canonical_elements(A.left(), verify=False).q, "h a")
    q = q.map(H.antipode_inv, "h", "h").map(A.right_coaction, "a", "a r")   # S^-1(q1) qA0 qA1
    # qA0 acts on the carrier, then (qA1 . c) . S^-1(q1) on the coalgebra
    # leg, for every u at once
    t = El((M.space, M.space, C.space), M.coaction.as_tensor(), "u m c").times(q)
    t = t.map(M.action, "a m", "m").map(C.left_action, "r c", "c").map(C.right_action, "c h", "c")
    coaction = LinMap.from_tensor(t.tensor("u m c"), 1)
    return FiniteModule(M.dim, A.alg, M.action, "left", coaction, "right",
                        name=(M.name or "M"))


def induce_yd(N: FiniteModule, context: YetterDrinfeldContext) -> FiniteModule:
    """Pair a plain module over the carrier with the coalgebra: the
    square-base Doi-Hopf induction carried across the inverse comparison
    functor."""
    M = doihopf_to_yd(induce_doi_hopf(N, context.doihopf), context)
    return FiniteModule(M.dim, M.over, M.action, "left", M.coaction, "right",
                        name="induced-yd(%s)" % (N.name or "N"))


def yd_adjunction_maps(M: FiniteModule, N: FiniteModule,
                       context: YetterDrinfeldContext) -> CheckReport:
    """The unit/counit bijections of the induction adjunctions in the
    two-structure category: the Doi-Hopf adjunction data of the
    square-base context, carried across the comparison functor."""
    return adjunction_maps(yd_to_doihopf(M, context), N, context.doihopf)
