"""Yetter-Drinfeld modules over a bicomodule algebra and a bimodule
coalgebra, and the pair of inverse functors identifying them with
Doi-Hopf modules over the twisted tensor square.
"""

from __future__ import annotations

from . import linalg
from .comodule import (BicomoduleAlgebra, bicomodule_to_right_op_tensor,
                       canonical_elements)
from .doihopf import (DoiHopfContext, FiniteModule, _module_hom_basis,
                      verify_module_law)
from .errors import AntipodeRequired, VariantMismatch
from .hopf import QuasiHopfAlgebra, drinfeld_twist, op_tensor
from .modcoalg import ModuleCoalgebra, bimodule_to_op_tensor_module_coalgebra
from .report import CheckReport
from .tensor import El, LinMap, Tensor, all_indices, apply_linear_map


class YetterDrinfeldContext:
    """A bicomodule algebra and a bimodule coalgebra over one quasi-Hopf
    base, together with the materialized square-base Doi-Hopf context."""

    def __init__(self, A: BicomoduleAlgebra, C: ModuleCoalgebra, square=None):
        if C.side != "bi":
            raise VariantMismatch("needs a bimodule coalgebra")
        if not A.H.same_structure(C.H):
            raise VariantMismatch("inputs live over different bases")
        if not isinstance(A.H, QuasiHopfAlgebra):
            raise AntipodeRequired("the square base needs antipode data")
        self.A = A
        self.C = C
        self.H = A.H
        self.field = A.field
        self.square = square if square is not None else op_tensor(self.H)
        self.first, self.second, _ = bicomodule_to_right_op_tensor(
            A, base=self.square)
        self.over_square = bimodule_to_op_tensor_module_coalgebra(C, base=self.square)
        self.doihopf = DoiHopfContext("left-right", self.second, self.over_square)


def verify_yd(M: FiniteModule, context: YetterDrinfeldContext) -> CheckReport:
    """Counit law, the mixed coassociativity law, and the crossed
    compatibility, on every basis element."""
    A, C = context.A, context.C
    H = context.H
    field = context.field
    report = CheckReport("yetter-drinfeld %s" % (M.name or ""))
    if M.action_side != "left" or M.coaction_side != "right":
        raise VariantMismatch("expects a left action and a right coaction")
    verify_module_law(M, report=report)

    basis = all_indices((M.dim,))

    def counit_law(idx):
        acc = Tensor(field, (M.dim,))
        for (m0, c), v in M.coaction.column(idx).data.items():     # M x C
            eps = C.counit.column((c,)).get(())
            if eps:
                acc = acc + Tensor(field, (M.dim,), {(m0,): v * eps})
        return acc, Tensor.basis(field, (M.dim,), idx)

    report.sweep("coaction-counit", basis, counit_law)

    mixed_inv = A.reassoc_mixed_inv      # H x A x H
    re_r_inv = A.reassoc_right_inv       # A x H x H
    re_l_inv = A.reassoc_left_inv        # H x H x A

    def act_M(a_idx, t, leg):
        basis = Tensor.basis(field, (A.alg.dim,), (a_idx,))
        return apply_linear_map(M.action, basis.outer(t), (0, leg + 1), at=leg)

    def act_C_left(h_idx, t, leg):
        basis = Tensor.basis(field, (H.dim,), (h_idx,))
        return apply_linear_map(C.left_action, basis.outer(t), (0, leg + 1), at=leg)

    def act_C_right(t, h_idx, leg):
        basis = Tensor.basis(field, (H.dim,), (h_idx,))
        return apply_linear_map(C.right_action, t.outer(basis), (leg, t.arity), at=leg)

    def mixed_coassoc(idx):
        m = Tensor.basis(field, (M.dim,), idx)
        # left side: expand the inverse mixed reassociator
        lhs = Tensor(field, (M.dim, C.dim, C.dim))
        for (t1, t2, t3), v in mixed_inv.data.items():
            term = act_M(t2, apply_linear_map(M.coaction, m, (0,)), 0)
            term = apply_linear_map(M.coaction, term, (0,), at=0)
            # legs now (module, fresh coaction leg, old coaction leg)
            term = act_C_right(term, t1, 1)
            term = act_C_left(t3, term, 2)
            lhs = lhs + term.scale(v)
        # right side: both one-sided inverse reassociators
        rhs = Tensor(field, (M.dim, C.dim, C.dim))
        for (yA, y2, y3), vr in re_r_inv.data.items():
            for (x1, x2, xB), vl in re_l_inv.data.items():
                term = act_M(xB, m, 0)
                term = apply_linear_map(M.coaction, term, (0,), at=0)  # M C
                term = apply_linear_map(C.comult, term, (1,), at=1)    # M C C
                term = act_M(yA, term, 0)
                term = act_C_left(y2, term, 1)
                term = act_C_right(term, x1, 1)
                term = act_C_left(y3, term, 2)
                term = act_C_right(term, x2, 2)
                rhs = rhs + term.scale(vr * vl)
        return lhs, rhs

    report.sweep("mixed-coassoc", basis, mixed_coassoc)

    def crossed(item):
        i, a = item
        m = Tensor.basis(field, (M.dim,), (i,))
        # u_<0> . m_(0) x u_<1> . m_(1)
        lhs = Tensor(field, (M.dim, C.dim))
        one = apply_linear_map(M.coaction, m, (0,))
        for (a0, h), v in A.right_coaction.column((a,)).data.items():
            lhs = lhs + act_C_left(h, act_M(a0, one, 0), 1).scale(v)
        # (u_[0] . m)_(0) x (u_[0] . m)_(1) . u_[-1]
        rhs = Tensor(field, (M.dim, C.dim))
        for (h, a0), v in A.left_coaction.column((a,)).data.items():
            term = apply_linear_map(M.coaction, act_M(a0, m, 0), (0,))
            rhs = rhs + act_C_right(term, h, 1).scale(v)
        return lhs, rhs

    report.sweep("crossed-compat", all_indices((M.dim, A.alg.dim)), crossed)
    return report


def yd_to_doihopf(M: FiniteModule, context: YetterDrinfeldContext) -> FiniteModule:
    """Keep the action, replace the coaction using the canonical left
    comparison element; lands in the square-base Doi-Hopf context."""
    A = context.A
    field = context.field
    elements = canonical_elements(A.left())
    p = elements.p.t                      # H x A

    def coact_fn(idx):
        m = Tensor.basis(field, (M.dim,), idx)
        out = Tensor(field, (M.dim, context.C.dim))
        for (h, a), v in p.data.items():
            acted = apply_linear_map(
                M.action, Tensor.basis(field, (A.alg.dim,), (a,)).outer(m), (0, 1))
            term = apply_linear_map(M.coaction, acted, (0,))
            term = apply_linear_map(
                context.C.right_action,
                term.outer(Tensor.basis(field, (context.H.dim,), (h,))),
                (1, 2), at=1)
            out = out + term.scale(v)
        return out

    coaction = LinMap.from_function(field, (M.dim,), (M.dim, context.C.dim), coact_fn)
    return FiniteModule(M.dim, A.alg, M.action, "left", coaction, "right",
                        name=(M.name or "M"))


def doihopf_to_yd(M: FiniteModule, context: YetterDrinfeldContext) -> FiniteModule:
    """Inverse direction using the other canonical comparison element and
    the right coaction of the carrier."""
    A, C, H = context.A, context.C, context.H
    field = context.field
    elements = canonical_elements(A.left())
    q = elements.q.t                      # H x A
    S_inv = H.antipode_inv

    def coact_fn(idx):
        m = Tensor.basis(field, (M.dim,), idx)
        out = Tensor(field, (M.dim, C.dim))
        for (h, a), v in q.data.items():
            rho_a = A.right_coaction.column((a,))
            s_h = apply_linear_map(S_inv, Tensor.basis(field, (H.dim,), (h,)), (0,))
            for (a0, a1), w in rho_a.data.items():
                term = apply_linear_map(M.coaction, m, (0,))
                term = apply_linear_map(
                    M.action,
                    Tensor.basis(field, (A.alg.dim,), (a0,)).outer(term), (0, 1))
                term = apply_linear_map(
                    C.left_action,
                    Tensor.basis(field, (H.dim,), (a1,)).outer(term), (0, 2), at=1)
                for (sh,), sv in s_h.data.items():
                    moved = apply_linear_map(
                        C.right_action,
                        term.outer(Tensor.basis(field, (H.dim,), (sh,))),
                        (1, 2), at=1)
                    out = out + moved.scale(v * w * sv)
        return out

    coaction = LinMap.from_function(field, (M.dim,), (M.dim, C.dim), coact_fn)
    return FiniteModule(M.dim, A.alg, M.action, "left", coaction, "right",
                        name=(M.name or "M"))


def induce_yd(N: FiniteModule, context: YetterDrinfeldContext) -> FiniteModule:
    """Pair a plain module over the carrier with the coalgebra; the
    displayed structure maps compose the square-base induction with the
    inverse comparison functor."""
    A, C, H = context.A, context.C, context.H
    field = context.field
    dC, dN = C.dim, N.dim
    dim = dN * dC
    S_inv = H.antipode_inv
    twist = drinfeld_twist(H)
    g_el = El(H.spaces(2), twist.inv)
    elements = canonical_elements(A.left())
    q = El((H.alg, A.alg), elements.q.t)

    def act_fn(idx):
        a, n = idx
        m, c = divmod(n, dC)
        e = El.basis((A.alg,), (a,)).map(A.left_coaction, 0)
        e = e.map(A.right_coaction, 1)    # a-1 a00 a01
        out = Tensor(field, (dN, dC))
        for (h_left, a0, h_right), v in e.t.data.items():
            m_new = N.act(a0, Tensor.basis(field, (dN,), (m,)))
            c_new = apply_linear_map(
                C.left_action,
                Tensor.basis(field, (H.dim,), (h_right,)).outer(
                    Tensor.basis(field, (dC,), (c,))), (0, 1))
            c_new = apply_linear_map(
                C.right_action,
                c_new.outer(apply_linear_map(
                    S_inv, Tensor.basis(field, (H.dim,), (h_left,)), (0,))), (0, 1))
            out = out + m_new.outer(c_new).scale(v)
        return out.fuse([[0, 1]])

    action = LinMap.from_function(field, (A.alg.dim, dim), (dim,), act_fn)

    # the coalgebra-free structure element, built once with small
    # intermediates; output legs (R2, R1, A, L1, L2) feed the coaction
    # via L1 . c1 . R1 and L2 . c2 . R2 with A acting on the module
    e = q.times(El((H.alg, H.alg, A.alg), A.reassoc_left)).times(g_el)
    # legs: q1(0) qA(1,A) X1(2) X2(3) XB(4,A) g1(5) g2(6)
    e = e.map(A.left_coaction, 1)         # qA-1(1,H) qA0(2,A)
    e = e.merge(2, 5)                     # W = qA0 XB
    e = e.merge(0, 3).merge(0, 4)         # q1 X1 g1
    e = e.map(S_inv, 0)                   # R2
    # legs: R2(0) qA-1(1) W(2,A) X2(3) g2(4)
    e = e.merge(1, 3).merge(1, 3)         # V = qA-1 X2 g2
    e = e.map(A.right_coaction, 2)        # W -> w0(2,A) w1(3,H)
    e = e.map(H.comult, 3)                # w11(3) w12(4)
    e = e.times(context.A.mixed_inv_el())  # t1(5) t2(6,A) t3(7)
    e = e.map(A.right_coaction, 6)        # t20(6,A) t21(7,H) t3(8)
    e = e.times(El((A.alg, H.alg, H.alg), A.reassoc_right_inv))
    # legs: R2(0) V(1) w0(2) w11(3) w12(4) t1(5) t20(6) t21(7) t3(8)
    #       yA(9,A) y2(10) y3(11)
    e = e.merge(5, 1).map(S_inv, 4)       # R1 = S^-1(t1 V) at 4
    # legs: R2(0) w0(1) w11(2) w12(3) R1(4) t20(5) t21(6) t3(7) yA(8)
    #       y2(9) y3(10)
    e = e.merge(5, 8).merge(5, 1)         # module factor t20 yA w0
    # legs: R2(0) w11(1) w12(2) R1(3) A(4) t21(5) t3(6) y2(7) y3(8)
    e = e.merge(5, 7).merge(5, 1)         # L1 = t21 y2 w11
    # legs: R2(0) w12(1) R1(2) A(3) L1(4) t3(5) y3(6)
    e = e.merge(5, 6).merge(5, 1)         # L2 = t3 y3 w12
    # legs: R2(0) R1(1) A(2) L1(3) L2(4)
    structure = e.t

    act_cache = {}

    def sandwich(left_idx, c_idx, right_idx):
        key = (left_idx, c_idx, right_idx)
        if key not in act_cache:
            moved = C.left_action.column((left_idx, c_idx))
            moved = apply_linear_map(
                C.right_action,
                moved.outer(Tensor.basis(field, (H.dim,), (right_idx,))), (0, 1))
            act_cache[key] = moved
        return act_cache[key]

    def coact_fn(idx):
        m, c = divmod(idx[0], dC)
        two = C.comult.column((c,))
        out = Tensor(field, (dN, dC, dC))
        for (r2, r1, aa, l1, l2), v in structure.data.items():
            m_new = N.act(aa, Tensor.basis(field, (dN,), (m,)))
            if m_new.is_zero():
                continue
            for (c1i, c2i), w in two.data.items():
                o1 = sandwich(l1, c1i, r1)
                o2 = sandwich(l2, c2i, r2)
                out = out + m_new.outer(o1).outer(o2).scale(v * w)
        return out.fuse([[0, 1], [2]])

    coaction = LinMap.from_function(field, (dim,), (dim, dC), coact_fn)
    return FiniteModule(dim, A.alg, action, "left", coaction, "right",
                        name="induced-yd(%s)" % (N.name or "N"))


def _yd_hom_basis(M: FiniteModule, N: FiniteModule, alg):
    """Basis of left-module maps intertwining the right coactions."""
    field = M.field
    n_vars = N.dim * M.dim
    dC = M.coaction.dst[1]
    rows = []
    for b in range(alg.dim):
        for m in range(M.dim):
            acted_m = M.act(b, Tensor.basis(field, (M.dim,), (m,)))
            for j in range(N.dim):
                row = [field.zero] * n_vars
                for (m2,), v in acted_m.data.items():
                    row[j * M.dim + m2] = row[j * M.dim + m2] + v
                for k in range(N.dim):
                    w = N.act(b, Tensor.basis(field, (N.dim,), (k,))).get((j,))
                    if w:
                        row[k * M.dim + m] = row[k * M.dim + m] - w
                rows.append(row)
    for m in range(M.dim):
        rho_m = M.coaction.column((m,))
        for c in range(dC):
            for j in range(N.dim):
                row = [field.zero] * n_vars
                for k in range(N.dim):
                    v = N.coaction.column((k,)).get((j, c))
                    if v:
                        row[k * M.dim + m] = row[k * M.dim + m] + v
                for (m2, c2), v in rho_m.data.items():
                    if c2 == c:
                        row[j * M.dim + m2] = row[j * M.dim + m2] - v
                rows.append(row)
    basis = linalg.nullspace(field, rows) if rows else []
    return [[[vec[r * M.dim + c] for c in range(M.dim)] for r in range(N.dim)]
            for vec in basis]


def yd_adjunction_maps(M: FiniteModule, N: FiniteModule,
                       context: YetterDrinfeldContext) -> CheckReport:
    """The unit/counit bijections of the induction adjunctions in the
    two-structure category: the forgetful functor against induction, and
    induction against the inner hom from the induced carrier.  Verified
    on full bases, as for the one-sided modules."""
    A, C = context.A, context.C
    field = context.field
    report = CheckReport("yd adjunction data")
    induced_N = induce_yd(N, context)
    comparison = yd_to_doihopf(M, context)

    hom_plain = _module_hom_basis(M, N, A.alg)
    hom_two = _yd_hom_basis(M, induced_N, A.alg)
    dC = C.dim

    def xi(mat):
        # tag with the comparison coaction, then push the map through
        cols = linalg.zeros(field, induced_N.dim, M.dim)
        for m in range(M.dim):
            rho = comparison.coaction.column((m,))
            for (m0, c), v in rho.data.items():
                for j in range(N.dim):
                    if mat[j][m0]:
                        cols[j * dC + c][m] = cols[j * dC + c][m] + v * mat[j][m0]
        return cols

    def zeta(cols):
        mat = linalg.zeros(field, N.dim, M.dim)
        for m in range(M.dim):
            for j in range(N.dim):
                for c in range(dC):
                    eps = C.counit.column((c,)).get(())
                    if eps and cols[j * dC + c][m]:
                        mat[j][m] = mat[j][m] + eps * cols[j * dC + c][m]
        return mat

    ok = all(zeta(xi(mat)) == mat for mat in hom_plain)
    report.add("unit-roundtrip", ok)
    ok = all(xi(zeta(cols)) == cols for cols in hom_two)
    report.add("counit-roundtrip", ok)

    # second adjunction through the induced carrier: evaluate at the
    # unit against precomposition with the carrier action
    induced_A = induce_yd(
        FiniteModule(A.alg.dim, A.alg,
                     LinMap(field, (A.alg.dim, A.alg.dim), (A.alg.dim,),
                            A.alg.mult.cols), "left"), context)
    induced_M = induce_yd(
        FiniteModule(M.dim, A.alg, M.action, "left"), context)
    hom_cm = _yd_hom_basis(induced_M, induced_N, A.alg)
    hom_cb = _yd_hom_basis(induced_A, induced_N, A.alg)
    basis_flat = [[v for row in h for v in row] for h in hom_cb]
    if basis_flat:
        k_inner = len(hom_cb)
        nd = induced_N.dim
        dB = A.alg.dim

        def expand(vec):
            system = [[basis_flat[c][r] for c in range(k_inner)]
                      for r in range(len(basis_flat[0]))]
            return linalg.solve(field, system, list(vec))

        def xi_prime(mat):
            out = []
            for m in range(M.dim):
                h = linalg.zeros(field, nd, dB * dC)
                for b in range(dB):
                    moved = M.act(b, Tensor.basis(field, (M.dim,), (m,)))
                    for (m2,), v in moved.data.items():
                        for c in range(dC):
                            for j in range(nd):
                                w = mat[j][m2 * dC + c]
                                if w:
                                    h[j][b * dC + c] = h[j][b * dC + c] + v * w
                out.append(expand([v for row in h for v in row]))
            return out

        def zeta_prime(coords):
            mat = linalg.zeros(field, nd, M.dim * dC)
            for m in range(M.dim):
                h = linalg.zeros(field, nd, dB * dC)
                for k, coeff in enumerate(coords[m]):
                    if coeff:
                        for j in range(nd):
                            for col in range(dB * dC):
                                if hom_cb[k][j][col]:
                                    h[j][col] = h[j][col] + coeff * hom_cb[k][j][col]
                for (u,), w in A.alg.unit.data.items():
                    for c in range(dC):
                        for j in range(nd):
                            v = h[j][u * dC + c]
                            if v:
                                mat[j][m * dC + c] = mat[j][m * dC + c] + w * v
            return mat

        ok = all(zeta_prime(xi_prime(mat)) == mat for mat in hom_cm)
        report.add("second-unit-roundtrip", ok)
    else:
        report.add("second-unit-roundtrip", True)
    return report
