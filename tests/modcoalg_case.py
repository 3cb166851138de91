"""Independent references for the module (co)algebra layer.

Each base element is expanded entry by entry, and each entry acts
through its own basis-element actions, where the library acts by whole
elements as tensor legs (``tensor.act_legwise``).  ``reference_act_many``
is an element acting leg by leg on a tensor of the same arity,
``reference_assoc_weights`` and ``reference_act_single`` are the
reassociator data acting on the three factors of a module algebra
product, and ``reference_gauge_comult`` is the gauge-twisted
comultiplication of a left module coalgebra.  ``reference_dual_maps``
transposes a module coalgebra's structure maps entry by entry, as the
linear dual reads them.
"""

from quasihopf.tensor import LinMap, Tensor, all_indices, apply_linear_map


def reference_act_many(action, dH, element, target, left):
    """Sum over the entries of ``element`` of its basis elements acting
    on the legs of ``target`` one at a time, from the left or the right."""
    field = target.field
    n = target.arity
    out = Tensor(field, target.dims)
    for idx, v in element.data.items():
        term = target
        for leg in range(n):
            basis_h = Tensor.basis(field, (dH,), (idx[leg],))
            if left:
                term = apply_linear_map(action, basis_h.outer(term), (0, leg + 1), at=leg)
            else:
                term = apply_linear_map(action, term.outer(basis_h), (leg, n), at=leg)
        out = out + term.scale(v)
    return out


def reference_assoc_weights(A):
    """The reassociator data that the associativity law routes through
    the actions: (per-leg index triple, coefficient) pairs; for the bi
    side each leg index is a (left, right) pair."""
    H = A.H
    if A.side == "left":
        return list(H.reassoc.data.items())
    if A.side == "right":
        return list(H.reassoc_inv.data.items())
    pairs = []
    for li, lv in H.reassoc.data.items():
        for ri, rv in H.reassoc_inv.data.items():
            legs = tuple((li[k], ri[k]) for k in range(3))
            pairs.append((legs, lv * rv))
    return pairs


def reference_act_single(A, h_idx, vec):
    """Act by basis elements on an algebra vector; for the bi side the
    index is a pair (left index, right index)."""
    field = A.field
    if A.side == "left":
        return apply_linear_map(
            A.left_action, Tensor.basis(field, (A.H.dim,), (h_idx,)).outer(vec), (0, 1))
    if A.side == "right":
        return apply_linear_map(
            A.right_action, vec.outer(Tensor.basis(field, (A.H.dim,), (h_idx,))), (0, 1))
    li, ri = h_idx
    out = apply_linear_map(
        A.left_action, Tensor.basis(field, (A.H.dim,), (li,)).outer(vec), (0, 1))
    return apply_linear_map(
        A.right_action, out.outer(Tensor.basis(field, (A.H.dim,), (ri,))), (0, 1))


def reference_reassociated_product(A, triple):
    """x1.e_i (x2.e_j x3.e_k) summed over the reassociator data: the
    right-hand side of the module algebra's associativity law."""
    field, alg = A.field, A.alg
    a, b, c = (Tensor.basis(field, (alg.dim,), (t,)) for t in triple)
    acc = Tensor(field, (alg.dim,))
    for idx, v in reference_assoc_weights(A):
        xa = reference_act_single(A, idx[0], a)
        xb = reference_act_single(A, idx[1], b)
        xc = reference_act_single(A, idx[2], c)
        acc = acc + alg.product(xa, alg.product(xb, xc)).scale(v)
    return acc


def reference_gauge_comult(C, F):
    """The comultiplication of C premultiplied by the gauge F, each entry
    of F acting on both legs through the left action."""
    H = C.H

    def comult_fn(idx):
        two = apply_linear_map(C.comult, Tensor.basis(C.field, (C.dim,), idx), (0,))
        out = Tensor(C.field, (C.dim, C.dim))
        for (h1, h2), v in F.t.data.items():
            term = two
            term = apply_linear_map(
                C.left_action,
                Tensor.basis(C.field, (H.dim,), (h1,)).outer(term), (0, 1), at=0)
            term = apply_linear_map(
                C.left_action,
                Tensor.basis(C.field, (H.dim,), (h2,)).outer(term), (0, 2), at=1)
            out = out + term.scale(v)
        return out

    return LinMap.from_function(C.field, (C.dim,), (C.dim, C.dim), comult_fn)


def reference_dual_maps(C):
    """(convolution, unit, left action, right action) of the dual of C,
    each read off C's maps one basis element at a time; an action is
    None when C lacks the action it transposes."""
    field, d, dH = C.field, C.dim, C.H.dim

    def transpose(src, fn):
        cols = {}
        for idx in all_indices(src):
            img = {}
            for c in range(d):
                v = fn(idx, c)
                if v:
                    img[(c,)] = v
            cols[idx] = img
        return LinMap(field, src, (d,), cols)

    # (e^i e^j)(c) = coefficient of e_i x e_j in comult(c)
    mult = transpose((d, d), lambda ij, c: C.comult.column((c,)).get(ij))
    unit = Tensor(field, (d,), {(c,): C.counit.column((c,)).get(()) for c in range(d)})
    left = right = None
    if C.right_action is not None:
        # (h . f)(c) = f(c . h)
        left = transpose((dH, d), lambda hf, c: C.right_action.column((c, hf[0])).get(hf[1:]))
    if C.left_action is not None:
        # (f . h)(c) = f(h . c)
        right = transpose((d, dH), lambda fh, c: C.left_action.column((fh[1], c)).get(fh[:1]))
    return mult, unit, left, right
