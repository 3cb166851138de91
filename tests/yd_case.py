"""Independent references for the Yetter-Drinfeld layer.

Each reassociator or coaction image is expanded entry by entry, and
each entry acts through its own basis-element action, where the library
contracts whole elements leg by leg.  ``reference_verify_yd`` is the
whole Yetter-Drinfeld check, and ``reference_yd_comult`` is the
comultiplication representative of the YD coring, built per basis
element from the outer product of all its factors.
``reference_yd_left_action`` and ``reference_induce_yd`` are the YD
coring's left action and the Yetter-Drinfeld induction written out
directly from the bicomodule data, where the library reaches both
through the second right realization over the square base.  The YD
tests compare the library against them.
"""

from quasihopf.comodule import canonical_elements
from quasihopf.doihopf import FiniteModule, verify_module_law
from quasihopf.hopf import drinfeld_twist
from quasihopf.report import CheckReport
from quasihopf.tensor import El, LinMap, Tensor, all_indices, apply_linear_map


def _act_left(action, dim, idx, t, leg):
    basis = Tensor.basis(t.field, (dim,), (idx,))
    return apply_linear_map(action, basis.outer(t), (0, leg + 1), at=leg)


def _act_right(action, dim, t, idx, leg):
    basis = Tensor.basis(t.field, (dim,), (idx,))
    return apply_linear_map(action, t.outer(basis), (leg, t.arity), at=leg)


def mixed_coassoc_sides(M, context, idx):
    A, C, H = context.A, context.C, context.H
    field = context.field
    dA, dH = A.alg.dim, H.dim
    m = Tensor.basis(field, (M.dim,), idx)
    lhs = Tensor(field, (M.dim, C.dim, C.dim))
    for (t1, t2, t3), v in A.reassoc_mixed_inv.data.items():
        term = _act_left(M.action, dA, t2, apply_linear_map(M.coaction, m, (0,)), 0)
        term = apply_linear_map(M.coaction, term, (0,), at=0)
        term = _act_right(C.right_action, dH, term, t1, 1)
        term = _act_left(C.left_action, dH, t3, term, 2)
        lhs = lhs + term.scale(v)
    rhs = Tensor(field, (M.dim, C.dim, C.dim))
    for (yA, y2, y3), vr in A.reassoc_right_inv.data.items():
        for (x1, x2, xB), vl in A.reassoc_left_inv.data.items():
            term = _act_left(M.action, dA, xB, m, 0)
            term = apply_linear_map(M.coaction, term, (0,), at=0)
            term = apply_linear_map(C.comult, term, (1,), at=1)
            term = _act_left(M.action, dA, yA, term, 0)
            term = _act_left(C.left_action, dH, y2, term, 1)
            term = _act_right(C.right_action, dH, term, x1, 1)
            term = _act_left(C.left_action, dH, y3, term, 2)
            term = _act_right(C.right_action, dH, term, x2, 2)
            rhs = rhs + term.scale(vr * vl)
    return lhs, rhs


def crossed_sides(M, context, item):
    A, C, H = context.A, context.C, context.H
    field = context.field
    dA, dH = A.alg.dim, H.dim
    i, a = item
    m = Tensor.basis(field, (M.dim,), (i,))
    lhs = Tensor(field, (M.dim, C.dim))
    one = apply_linear_map(M.coaction, m, (0,))
    for (a0, h), v in A.right_coaction.column((a,)).data.items():
        term = _act_left(M.action, dA, a0, one, 0)
        lhs = lhs + _act_left(C.left_action, dH, h, term, 1).scale(v)
    rhs = Tensor(field, (M.dim, C.dim))
    for (h, a0), v in A.left_coaction.column((a,)).data.items():
        term = apply_linear_map(M.coaction, _act_left(M.action, dA, a0, m, 0), (0,))
        rhs = rhs + _act_right(C.right_action, dH, term, h, 1).scale(v)
    return lhs, rhs


def reference_verify_yd(M, context):
    C = context.C
    field = context.field
    report = CheckReport("yetter-drinfeld %s" % (M.name or ""))
    verify_module_law(M, report=report)
    basis = all_indices((M.dim,))

    def counit_law(idx):
        acc = Tensor(field, (M.dim,))
        for (m0, c), v in M.coaction.column(idx).data.items():
            eps = C.counit.column((c,)).get(())
            if eps:
                acc = acc + Tensor(field, (M.dim,), {(m0,): v * eps})
        return acc, Tensor.basis(field, (M.dim,), idx)

    report.sweep("coaction-counit", basis, counit_law)
    report.sweep("mixed-coassoc", basis,
                 lambda idx: mixed_coassoc_sides(M, context, idx))
    report.sweep("crossed-compat", all_indices((M.dim, context.A.alg.dim)),
                 lambda item: crossed_sides(M, context, item))
    return report


def reference_yd_comult(A, C, idx):
    """The YD coring's comultiplication at one basis element of C x A:
    the outer product of the three reassociators, the Drinfeld twist's
    inverse and the basis element, then contracted leg by leg."""
    H = A.H
    field = A.field
    dA = A.alg.dim
    S_inv = H.antipode_inv
    g_el = El(H.spaces(2), drinfeld_twist(H).inv)
    c, a = divmod(idx[0], dA)
    e = A.mixed_inv_el()              # t1 t2 t3 : H A H
    e = e.times(El((A.alg, H.alg, H.alg), A.reassoc_right_inv))   # yA y2 y3
    e = e.times(El((H.alg, H.alg, A.alg), A.reassoc_left))        # X1 X2 XB
    e = e.times(g_el)                 # g1 g2
    e = e.times(El.basis((C.space,), (c,))).times(El.basis((A.alg,), (a,)))
    # legs: t1(0) t2(1,A) t3(2) yA(3,A) y2(4) y3(5) X1(6) X2(7) XB(8,A)
    #       g1(9) g2(10) c(11,C) a(12,A)
    e = e.map(A.right_coaction, 8)    # XB -> XB0(8,A) XB1(9,H)
    e = e.map(H.comult, 9)            # XB11(9) XB12(10); g1(11) g2(12) c(13) a(14)
    e = e.map(A.right_coaction, 1)    # t2 -> t20(1,A) t21(2,H); rest shifts
    # legs: t1(0) t20(1) t21(2) t3(3) yA(4) y2(5) y3(6) X1(7) X2(8)
    #       XB0(9) XB11(10) XB12(11) g1(12) g2(13) c(14) a(15)
    e = e.map(C.comult, 14)           # c1(14) c2(15) a(16)
    # first coalgebra output: (t3 y3 XB12) . c2 . S^-1(X1 g1)
    e = e.merge(3, 6)                 # t3 y3
    e = e.merge(3, 10)                # . XB12
    e = e.map(C.left_action, (3, 13), at=12)
    e = e.merge(5, 9)                 # X1 g1
    e = e.map(S_inv, 5)
    e = e.map(C.right_action, (11, 5), at=10)
    # legs: t1(0) t20(1) t21(2) yA(3) y2(4) X2(5) XB0(6) XB11(7) g2(8)
    #       c1(9) OUT1(10,C) a(11)
    # second coalgebra output: (t21 y2 XB11) . c1 . S^-1(t1 X2 g2)
    e = e.merge(2, 4)                 # t21 y2
    e = e.merge(2, 6)                 # . XB11
    e = e.map(C.left_action, (2, 7), at=6)
    e = e.merge(0, 3)                 # t1 X2
    e = e.merge(0, 4)                 # . g2
    e = e.map(S_inv, 0)
    e = e.map(C.right_action, (4, 0), at=3)
    # legs: t20(0) yA(1) XB0(2) OUT2(3,C) OUT1(4,C) a(5)
    # base-ring output: t20 yA XB0 a
    e = e.merge(0, 1).merge(0, 1).merge(0, 3)
    # legs: OUTA(0,A) OUT2(1,C) OUT1(2,C)
    N = C.dim * dA
    out = Tensor(field, (N, N))
    for (aa, cc2, cc1), v in e.t.data.items():
        for (u,), w in A.alg.unit.data.items():
            key = (cc1 * dA + u, cc2 * dA + aa)
            cur = out.data.get(key, field.zero) + v * w
            if cur:
                out.data[key] = cur
            else:
                out.data.pop(key, None)
    return out


def reference_yd_left_action(A, C):
    """The YD coring's left action on C x A:
    r . (c, a) = (r01 . c . S^-1(r-1), r00 a)."""
    field = A.field
    dA = A.alg.dim
    S_inv = A.H.antipode_inv

    def left_fn(idx):
        r, n = idx
        c, a = divmod(n, dA)
        e = El.basis((A.alg,), (r,)).map(A.left_coaction, 0)
        e = e.map(A.right_coaction, 1)    # r-1 r00 r01
        e = e.times(El.basis((C.space,), (c,))).times(El.basis((A.alg,), (a,)))
        e = e.map(C.left_action, (2, 3), at=2)    # r-1 r00 (r01.c) a
        e = e.map(S_inv, 0)
        e = e.map(C.right_action, (2, 0), at=1)   # r00 c' a
        e = e.merge(0, 2)                 # r00 a
        return e.perm((1, 0)).t.fuse([[0, 1]])

    return LinMap.from_function(field, (dA, C.dim * dA), (C.dim * dA,), left_fn)


def _yd_structure(A, C, legs):
    """The structure element of the YD coaction, contracted with the
    comultiplication of each basis element of C.

    ``legs`` carries (R2, V, W) in H x H x A.  The correction factor
    (t1, t20 yA, t21 y2, t3 y3), from the inverse mixed and right
    reassociators, is contracted into the legs, giving the
    coalgebra-free element (R2, R1, A, L1, L2) with R1 = S^-1(t1 V),
    A = t20 yA W0, L1 = t21 y2 W11, L2 = t3 y3 W12.  Entry c of the
    result has legs (A, L1 . c1 . R1, L2 . c2 . R2)."""
    H = A.H
    p = A.mixed_inv_el().map(A.right_coaction, 1)   # t1 t20 t21 t3
    p = p.times(El((A.alg, H.alg, H.alg), A.reassoc_right_inv))
    p = p.merge(1, 4).merge(2, 4).merge(3, 4)       # t1 t20yA t21y2 t3y3
    e = legs.times(p).merge(3, 1).map(H.antipode_inv, 2)   # R2 W R1 PA PL1 PL2
    e = e.map(A.right_coaction, 1).map(H.comult, 2)    # R2 w0 w11 w12 R1 ...
    e = e.merge(5, 1).merge(5, 1).merge(5, 1)          # R2 R1 A L1 L2
    parts = []
    for c in range(C.dim):
        t = e.t.outer(C.comult.column((c,)))                 # R2 R1 A L1 L2 c1 c2
        t = apply_linear_map(C.left_action, t, (3, 5), at=3)   # R2 R1 A c1 L2 c2
        t = apply_linear_map(C.right_action, t, (3, 1), at=2)  # R2 A o1 L2 c2
        t = apply_linear_map(C.left_action, t, (3, 4))         # R2 A o1 c2
        parts.append(apply_linear_map(C.right_action, t, (3, 0), at=2))  # A o1 o2
    return parts


def reference_induce_yd(N, context):
    """N (x) C with a . (n, c) = (a00 . n, a01 . c . S^-1(a-1)) and the
    coaction read off the structure element of ``_yd_structure``."""
    A, C, H = context.A, context.C, context.H
    field = context.field
    dC, dN = C.dim, N.dim
    dim = dN * dC
    S_inv = H.antipode_inv

    def act_fn(idx):
        a, n = idx
        e = El.basis((A.alg,), (a,)).map(A.left_coaction, 0)
        e = e.map(A.right_coaction, 1).map(S_inv, 0)   # S^-1(a-1) a00 a01
        t = e.t.outer(Tensor.basis(field, (dN, dC), divmod(n, dC)))   # r a l m c
        t = apply_linear_map(N.action, t, (1, 3), at=0)               # m r l c
        t = apply_linear_map(C.left_action, t, (2, 3))                # m r l.c
        return apply_linear_map(C.right_action, t, (2, 1)).fuse([[0, 1]])

    action = LinMap.from_function(field, (A.alg.dim, dim), (dim,), act_fn)

    # the legs (R2, V, W) = (S^-1(q1 X1 g1), qA-1 X2 g2, qA0 XB)
    e = El((H.alg, A.alg), canonical_elements(A.left(), verify=False).q.t)
    e = e.map(A.left_coaction, 1)                 # q1 qA-1 qA0
    e = e.times(El((H.alg, H.alg, A.alg), A.reassoc_left))
    e = e.merge(2, 5)                             # W = qA0 XB
    e = e.merge(0, 3).merge(1, 3)                 # q1 X1, qA-1 X2
    e = e.times(El(H.spaces(2), drinfeld_twist(H).inv))
    e = e.merge(0, 3).merge(1, 3).map(S_inv, 0)   # R2 V W
    parts = _yd_structure(A, C, e)

    def coact_fn(idx):
        m, c = divmod(idx[0], dC)
        t = parts[c].outer(Tensor.basis(field, (dN,), (m,)))    # A o1 o2 m
        return apply_linear_map(N.action, t, (0, 3)).fuse([[0, 1], [2]])

    coaction = LinMap.from_function(field, (dim,), (dim, dC), coact_fn)
    return FiniteModule(dim, A.alg, action, "left", coaction, "right",
                        name="induced-yd(%s)" % (N.name or "N"))
