"""Per-basis-vector references for the derived linear maps.

The library builds every derived map in one pass: the input is the
tensor form of a map (``LinMap.as_tensor``) or an identity tensor, whose
first leg carries the source index through the whole pipeline, and one
``LinMap.from_tensor`` ends it.  The references here run the same
Sweedler formulas once per source basis vector and collect the columns
with ``LinMap.from_function``, as the maps were first written.  The map
tests compare every rewritten map against them.
"""

from quasihopf.comodule import canonical_elements
from quasihopf.doihopf import _act_legwise
from quasihopf.hopf import drinfeld_twist
from quasihopf.modcoalg import dualize
from quasihopf.tensor import LinMap, Tensor, act_legwise, apply_linear_map, switch_legs

from tensor_case import PositionalEl, from_function, positional


def gauge_twist_comult(H, F):
    f, g = positional(H, F.t), positional(H, F.inv)

    def comult_f(idx):
        d = PositionalEl.basis((H.alg,), idx).map(H.comult, 0)
        return f.mul(d).mul(g).t

    return from_function(H.field, (H.dim,), (H.dim, H.dim), comult_f)


def twisted_coaction(X, V):
    v, v_inv = PositionalEl(V.spaces, V.t), PositionalEl(V.spaces, V.inv)

    def new_coaction(idx):
        c = PositionalEl.basis((X.alg,), idx).map(X.coaction, 0)
        return v.mul(c).mul(v_inv).t

    return from_function(X.field, (X.alg.dim,), X.coaction.dst, new_coaction)


def op_antipode_coaction(X):
    S_inv = X.H.antipode_inv

    def rho(idx):
        e = PositionalEl.basis((X.alg,), idx).map(X.coaction, 0)
        return e.map(S_inv, 0).perm((1, 0)).t

    return from_function(X.field, (X.alg.dim,), (X.alg.dim, X.H.dim), rho)


def realization_coaction(A, k):
    S_inv = A.H.antipode_inv
    first, second, leg = ((A.right_coaction, A.left_coaction, 0) if k == 1
                          else (A.left_coaction, A.right_coaction, 1))

    def coact(idx):
        e = PositionalEl.basis((A.alg,), idx).map(first, 0).map(second, leg)
        return e.map(S_inv, 0).perm((1, 0, 2)).t.fuse([[0], [1, 2]])

    return from_function(A.field, (A.alg.dim,), (A.alg.dim, A.H.dim ** 2), coact)


def internal_coalgebra_maps(source):
    """(comultiplication, left action, right action, extracted coaction)."""
    H, B = source.H, source.alg
    field = source.field

    def comult_fn(idx):
        b, h = idx
        e = PositionalEl(source.reassoc_spaces(), source.reassoc).mul_embedded(
            PositionalEl.basis((H.alg,), (h,)).map(H.comult, 0), (0, 1))   # X1 h1, X2 h2
        e = e.mul_embedded(PositionalEl.basis((B,), (b,)), (2,))            # XB b
        return e.perm((0, 2, 1)).t

    def left_action_fn(idx):
        b, b2, h = idx
        e = PositionalEl.basis((B,), (b,)).map(source.coaction, 0)
        return e.mul_embedded(PositionalEl.basis((H.alg, B), (h, b2)), (0, 1)).perm((1, 0)).t

    def right_action_fn(idx):
        b, h, b2, h2 = idx
        e = PositionalEl.basis((B, H.alg, B, H.alg), (b, h, b2, h2))
        return e.merge(0, 2).merge(1, 2).t

    comult = from_function(field, (B.dim, H.dim), (H.dim, B.dim, H.dim), comult_fn)
    left = from_function(field, (B.dim, B.dim, H.dim), (B.dim, H.dim), left_action_fn)
    right = from_function(field, (B.dim, H.dim, B.dim, H.dim), (B.dim, H.dim),
                          right_action_fn)
    unit = B.unit.outer(H.alg.unit)

    def coaction_fn(idx):
        acted = apply_linear_map(left, Tensor.basis(field, (B.dim,), idx).outer(unit),
                                 (0, 1, 2))
        return switch_legs(acted, (1, 0))

    coaction = from_function(field, (B.dim,), (H.dim, B.dim), coaction_fn)
    return comult, left, right, coaction


def trivial_coring_comult(R):
    return from_function(
        R.field, (R.dim,), (R.dim, R.dim),
        lambda idx: Tensor.basis(R.field, (R.dim,), idx).outer(R.unit))


def coring_bc_maps(B, C):
    """(right action, comultiplication) of the BC coring."""
    field = B.field
    dB, dC = B.alg.dim, C.dim
    N = dB * dC

    def right_fn(idx):
        n, r = idx
        b, c = divmod(n, dC)
        e = PositionalEl.basis((B.alg,), (r,)).map(B.coaction, 0)   # r-1, r0
        e = e.times(PositionalEl.basis((B.alg,), (b,))).times(PositionalEl.basis((C.space,), (c,)))
        e = e.merge(2, 1)                                 # b r0
        e = e.map(C.right_action, (2, 0), at=1)           # c . r-1
        return e.t.fuse([[0, 1]])

    def comult_rep(idx):
        b, c = divmod(idx[0], dC)
        e = PositionalEl(B.reassoc_spaces(), B.reassoc_inv)
        e = e.times(PositionalEl.basis((B.alg,), (b,))).times(PositionalEl.basis((C.space,), (c,)))
        e = e.map(C.comult, 4)            # x1 x2 xB b c1 c2
        e = e.merge(3, 2)                 # b . x3 -> x1 x2 bx3 c1 c2
        e = e.map(C.right_action, (4, 1), at=3)  # c2 . x2 -> x1 bx3 c1 c2x2
        e = e.map(C.right_action, (2, 0), at=1)  # c1 . x1 -> bx3 c1x1 c2x2
        return switch_legs(e.t.outer(B.alg.unit), (0, 2, 3, 1)).fuse([[0, 1], [2, 3]])

    return (from_function(field, (N, dB), (N,), right_fn),
            from_function(field, (N,), (N, N), comult_rep))


def induced_maps(N, context):
    """(action, coaction) of the induced module in the right-left or the
    left-right variant."""
    A, C = context.comodule, context.coalgebra
    field = context.field
    dC, dN, dB = C.dim, N.dim, A.alg.dim
    dim = dC * dN
    right = context.variant.split("-")[0] == "right"
    pair = (dC, dN) if right else (dN, dC)

    def act_fn(idx):
        n, b = idx if right else idx[::-1]
        target = Tensor.basis(field, pair, divmod(n, pair[1]))
        return _act_legwise(N, C, A.coaction.column((b,)), target,
                            1 if right else 0, C.side).fuse([[0, 1]])

    def coact_fn(idx):
        c, m = divmod(idx[0], dN) if right else divmod(idx[0], dC)[::-1]
        e_m = Tensor.basis(field, (dN,), (m,))
        comult = C.comult.column((c,))
        if right:
            t = _act_legwise(N, C, A.reassoc_inv, comult.outer(e_m), 2, C.side)
            return t.fuse([[0], [1, 2]])
        t = _act_legwise(N, C, A.reassoc_inv, e_m.outer(comult), 0, C.side)
        return t.fuse([[0, 1], [2]])

    return (from_function(field, (dim, dB) if right else (dB, dim), (dim,), act_fn),
            from_function(field, (dim,), (dC, dim) if right else (dim, dC), coact_fn))


def smash_action(coaction, action, dB):
    field = action.field
    dC, dM = coaction.dst
    pairing = LinMap(field, (dC, dC), (), {(c, c): {(): field.one} for c in range(dC)})

    def act_fn(idx):
        m, n = idx
        t = coaction.column((m,)).outer(Tensor.basis(field, (dC, dB), divmod(n, dB)))
        t = apply_linear_map(pairing, t, (0, 2))        # m0 b
        return apply_linear_map(action, t, (0, 1))

    return from_function(field, (dM, dC * dB), (dM,), act_fn)


def counit_action(M, context):
    C, dB = context.coalgebra, context.comodule.alg.dim
    field = context.field
    eps = C.counit.as_tensor()

    def act_fn(idx):
        m, b = idx
        eps_b = eps.outer(Tensor.basis(field, (dB,), (b,))).fuse([[0, 1]])
        return act_legwise(eps_b, Tensor.basis(field, (M.dim,), (m,)), [(M.action, False)])

    return from_function(field, (M.dim, dB), (M.dim,), act_fn)


def curried(action, x):
    field = action.field
    dM = action.dst[0]

    def fn(idx):
        return apply_linear_map(action, x.outer(Tensor.basis(field, (dM,), idx)), (2, 1),
                                at=1)

    return from_function(field, (dM,), (x.dims[0], dM), fn)


def identity(field, d):
    return Tensor(field, (d, d), {(i, i): field.one for i in range(d)})


def rat_matrix(M, context, smash):
    """The matrix [mu | -nu] whose nullspace ``compute_rat`` takes."""
    A, C = context.comodule, context.coalgebra
    field = context.field
    dC, dB, dS = C.dim, A.alg.dim, smash.carrier.dim
    mu = curried(M.action, identity(field, dS)).to_matrix()
    eps_b = curried(counit_action(M, context), identity(field, dB))

    def nu_fn(idx):
        return apply_linear_map(eps_b, Tensor.basis(field, (dC, M.dim), idx), (1,)).fuse(
            [[0, 1], [2]])

    nu = from_function(field, (dC, M.dim), (dS, M.dim), nu_fn).to_matrix()
    return [row + [-x for x in nrow] for row, nrow in zip(mu, nu)]


def transported_coaction(M, V, C):
    return from_function(
        M.field, (M.dim,), M.coaction.dst,
        lambda idx: _act_legwise(M, C, V.t, M.coaction.column(idx), 0, "left"))


def to_coring_coaction(M, context, coring):
    unit = context.comodule.alg.unit

    def coact_fn(idx):
        tagged = switch_legs(M.coaction.column(idx).outer(unit), (1, 2, 0))
        return tagged.fuse([[0], [1, 2]])

    return from_function(M.field, (M.dim,), (M.dim, coring.dim), coact_fn)


def from_coring_coaction(M, context):
    dB, dC = context.comodule.alg.dim, context.coalgebra.dim

    def coact_fn(idx):
        rep = M.coaction.column(idx).split(1, (dB, dC))
        return switch_legs(apply_linear_map(M.action, rep, (0, 1)), (1, 0))

    return from_function(M.field, (M.dim,), (dC, M.dim), coact_fn)


def module_hom_rows(M, N, alg, colinear=False):
    """The condition rows whose nullspace ``_module_hom_basis`` takes."""
    field = M.field
    n_vars = N.dim * M.dim
    rows = []
    for b in range(alg.dim):
        acted_n = [N.act(b, Tensor.basis(field, (N.dim,), (k,))) for k in range(N.dim)]
        for m in range(M.dim):
            acted_m = M.act(b, Tensor.basis(field, (M.dim,), (m,)))
            for j in range(N.dim):
                row = [field.zero] * n_vars
                for (m2,), v in acted_m.data.items():
                    row[j * M.dim + m2] = row[j * M.dim + m2] + v
                for k in range(N.dim):
                    w = acted_n[k].get((j,))
                    if w:
                        row[k * M.dim + m] = row[k * M.dim + m] - w
                rows.append(row)
    if colinear:
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
    return rows


def square_action(C, square):
    dH = C.H.dim

    def act(idx):
        k, c = idx
        h, h2 = divmod(k, dH)
        inner = C.left_action.column((h2, c))
        return apply_linear_map(
            C.right_action, inner.outer(Tensor.basis(C.field, (dH,), (h,))), (0, 1))

    return from_function(C.field, (square.dim, C.dim), (C.dim,), act)


def gauge_twisted_module_comult(C, F):
    return from_function(
        C.field, (C.dim,), (C.dim, C.dim),
        lambda idx: act_legwise(F.t, C.comult.column(idx), [(C.left_action, True)] * 2))


def unit_embedding(sub, other, first):
    def fn(idx):
        b = Tensor.basis(sub.field, (sub.dim,), idx)
        return (b.outer(other.unit) if first else other.unit.outer(b)).fuse([[0, 1]])

    return from_function(sub.field, (sub.dim,), (sub.dim * other.dim,), fn)


def omega_delta(A, kind):
    first, second, leg = ((A.right_coaction, A.left_coaction, 0) if kind == "l"
                          else (A.left_coaction, A.right_coaction, 1))
    return from_function(
        A.field, (A.alg.dim,), (A.H.dim, A.alg.dim, A.H.dim),
        lambda idx: PositionalEl.basis((A.alg,), idx).map(first, 0).map(second, leg).t)


def phi_maps(C, q_lambda, q_rho):
    """(phi, phi inverse) of ``phi_isomorphism`` for the canonical
    elements q of the regular left and right comodule algebras."""
    H = C.H
    dual = dualize(C)
    g_el = PositionalEl(H.spaces(2), drinfeld_twist(H).inv)
    q_lambda, q_rho = PositionalEl(H.spaces(2), q_lambda), PositionalEl(H.spaces(2), q_rho)
    S, S_inv = H.antipode, H.antipode_inv
    dH = H.dim

    def act_on_dual(e, f):
        return e.times(PositionalEl.basis((dual.alg,), (f,))).map(dual.left_action, (0, 2))

    def phi_fn(idx):
        f, h = divmod(idx[0], dH)
        e = q_lambda.mul(PositionalEl.basis((H.alg,), (h,)).map(H.comult, 0)).mul(g_el)
        e = e.map(S_inv, 0).map(S_inv, 1)
        return act_on_dual(e, f).t.fuse([[0, 1]])

    def phi_inv_fn(idx):
        f, h = divmod(idx[0], dH)
        e = q_rho.mul(PositionalEl.basis((H.alg,), (h,)).map(H.comult, 0))
        e = g_el.mul(e.map(S, 0).map(S, 1).perm((1, 0)))
        return act_on_dual(e, f).t.fuse([[0, 1]])

    dim = C.dim * dH
    return (from_function(C.field, (dim,), (dim,), phi_fn),
            from_function(C.field, (dim,), (dim,), phi_inv_fn))


def yd_to_doihopf_coaction(M, context):
    A, C = context.A, context.C
    p = canonical_elements(A.left(), verify=False).p

    def coact(idx):
        t = p.outer(Tensor.basis(M.field, (M.dim,), idx))    # h a m
        t = apply_linear_map(M.action, t, (1, 2))            # h m
        t = apply_linear_map(M.coaction, t, (1,))            # h m0 c
        return apply_linear_map(C.right_action, t, (2, 0), at=1)

    return from_function(M.field, (M.dim,), (M.dim, C.dim), coact)


def doihopf_to_yd_coaction(M, context):
    A, C, H = context.A, context.C, context.H
    q = PositionalEl((H.alg, A.alg), canonical_elements(A.left(), verify=False).q)
    q = q.map(H.antipode_inv, 0).map(A.right_coaction, 1)

    def coact(idx):
        t = q.t.outer(M.coaction.column(idx))                # r a l m c
        t = apply_linear_map(M.action, t, (1, 3), at=0)      # m r l c
        t = apply_linear_map(C.left_action, t, (2, 3))       # m r l.c
        return apply_linear_map(C.right_action, t, (2, 1))   # m (l.c).r

    return from_function(M.field, (M.dim,), (M.dim, C.dim), coact)


def grouplike_comult(field, dim=2):
    return from_function(field, (dim,), (dim, dim),
                         lambda idx: {(idx[0], idx[0]): field.one})


def all_ones_counit(field, dim=2):
    return from_function(field, (dim,), (), lambda idx: {(): field.one})


def c2_action(H):
    def act(idx):
        c, i = idx
        v = H.counit_scalar(i)
        return {(c,): v} if v else {}

    return from_function(H.field, (2, H.dim), (2,), act)
