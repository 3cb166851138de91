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
    A, C = context.A, context.C
    field = context.field
    report = CheckReport("yetter-drinfeld %s" % (M.name or ""))
    if M.action_side != "left" or M.coaction_side != "right":
        raise VariantMismatch("expects a left action and a right coaction")
    verify_module_law(M, report=report)

    basis = all_indices((M.dim,))
    report.sweep_all("coaction-counit", (M.dim,),
                     apply_linear_map(C.counit, M.coaction.as_tensor(), (2,)),
                     _identity(field, M.dim))

    def mixed_coassoc(idx):
        # left side: t2 acts on the module before the second coaction,
        # t1 and t3 on the fresh and the old coaction leg
        lhs = A.reassoc_mixed_inv.outer(M.coaction.column(idx))  # t1 t2 t3 m c
        lhs = apply_linear_map(M.action, lhs, (1, 3), at=0)      # m t1 t3 c
        lhs = apply_linear_map(M.coaction, lhs, (0,))            # m0 c' t1 t3 c
        lhs = apply_linear_map(C.right_action, lhs, (1, 2), at=1)  # m0 c'.t1 t3 c
        lhs = apply_linear_map(C.left_action, lhs, (2, 3))       # m0 c'.t1 t3.c
        # right side: xB acts before the coaction, yA after it; on each
        # coalgebra leg y acts from the left before x from the right
        rhs = A.reassoc_left_inv.outer(Tensor.basis(field, (M.dim,), idx))
        rhs = apply_linear_map(M.action, rhs, (2, 3))           # x1 x2 m
        rhs = apply_linear_map(M.coaction, rhs, (2,))           # x1 x2 m0 c
        rhs = apply_linear_map(C.comult, rhs, (3,))             # x1 x2 m0 c1 c2
        rhs = A.reassoc_right_inv.outer(rhs)     # yA y2 y3 x1 x2 m0 c1 c2
        rhs = apply_linear_map(M.action, rhs, (0, 5), at=4)     # y2 y3 x1 x2 m c1 c2
        rhs = apply_linear_map(C.left_action, rhs, (0, 5), at=4)   # y3 x1 x2 m c1 c2
        rhs = apply_linear_map(C.right_action, rhs, (4, 1), at=3)  # y3 x2 m c1 c2
        rhs = apply_linear_map(C.left_action, rhs, (0, 4), at=3)   # x2 m c1 c2
        rhs = apply_linear_map(C.right_action, rhs, (3, 0))        # m c1 c2
        return lhs, rhs

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
    p = canonical_elements(A.left(), verify=False).p.t      # H x A
    t = _coact_acted(M, context.C, p, _identity(context.field, M.dim))    # m m0 c
    coaction = LinMap.from_tensor(t, 1)
    return FiniteModule(M.dim, A.alg, M.action, "left", coaction, "right",
                        name=(M.name or "M"))


def doihopf_to_yd(M: FiniteModule, context: YetterDrinfeldContext) -> FiniteModule:
    """Inverse direction using the other canonical comparison element and
    the right coaction of the carrier."""
    A, C, H = context.A, context.C, context.H
    q = El((H.alg, A.alg), canonical_elements(A.left(), verify=False).q.t)
    q = q.map(H.antipode_inv, 0).map(A.right_coaction, 1)   # S^-1(q1) qA0 qA1
    # qA0 acts on the carrier, then (qA1 . c) . S^-1(q1) on the coalgebra
    # leg, for every m at once
    t = M.coaction.as_tensor().outer(q.t)                   # m m c r a l
    t = apply_linear_map(M.action, t, (4, 1), at=1)         # m m c r l
    t = apply_linear_map(C.left_action, t, (4, 2), at=2)    # m m l.c r
    coaction = LinMap.from_tensor(apply_linear_map(C.right_action, t, (2, 3)), 1)
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
