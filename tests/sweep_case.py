"""Per-item references for the checks that run as one contraction.

Each check below was a ``CheckReport.sweep`` over basis tuples, with
the two sides built per item from the inputs' structure maps, and for
some checks multiplied by a reassociator or a canonical element; the
library now builds each side once for all items, with the item on the
leading legs, and records it through ``CheckReport.sweep_all``, or
through ``CheckReport.sweep_sides`` when its items are tagged with a
side.  These are the per-item forms, one function per shape of check,
each adding the record that the per-item sweep makes to ``report``.
"""

from quasihopf.tensor import El, Tensor, act_legwise, all_indices, apply_linear_map


def reference_multiplicative(report, check_id, src_alg, m, product):
    """m(e_i e_j) against product(m(e_i), m(e_j)) over every pair (i, j)."""
    def multiplicative(pair):
        i, j = pair
        return (apply_linear_map(m, src_alg.basis_product(i, j), (0,)),
                product(m.column((i,)), m.column((j,))))

    report.sweep(check_id, all_indices((src_alg.dim,) * 2), multiplicative)


def reference_tables_equal(report, check_id, lhs, rhs):
    """The two product tables entry by entry, over every pair (i, j)."""
    report.sweep(check_id, all_indices((lhs.dim,) * 2),
                 lambda ij: (lhs.basis_product(*ij), rhs.basis_product(*ij)))


def reference_coaction_counit(report, counit, coaction, leg):
    """The counit on coaction leg ``leg`` gives back every basis vector."""
    dim = coaction.src[0]
    report.sweep("coaction-counit", all_indices((dim,)),
                 lambda idx: (apply_linear_map(counit, coaction.column(idx), (leg,)),
                              Tensor.basis(counit.field, (dim,), idx)))


def reference_same_coaction(report, check_id, got, want):
    """The two coactions on every basis vector of ``want``."""
    report.sweep(check_id, all_indices((want.src[0],)),
                 lambda idx: (got.column(idx), want.column(idx)))


def reference_module_law(report, alg, dim, action, side, prefix):
    """"<prefix>-unital" over every m and "<prefix>-associative" over
    every (a, b, m), acting through ``act_legwise`` one basis tuple at a
    time."""
    field = alg.field
    acts = [(action, side == "left")]

    def basis(d, i):
        return Tensor.basis(field, (d,), (i,))

    def act(x, m):
        return act_legwise(x, m, acts)

    report.sweep(prefix + "-unital", all_indices((dim,)),
                 lambda idx: (act(alg.unit, basis(dim, idx[0])), basis(dim, idx[0])))

    def associative(item):
        a, b, m = item
        first, second = (b, a) if side == "left" else (a, b)
        e = basis(dim, m)
        return (act(alg.basis_product(a, b), e),
                act(basis(alg.dim, second), act(basis(alg.dim, first), e)))

    report.sweep(prefix + "-associative", all_indices((alg.dim, alg.dim, dim)),
                 associative)


def reference_actions_commute(report, H, dim, left_action, right_action):
    """(h . c) . h2 against h . (c . h2) over every (h, c, h2)."""
    field = H.field

    def commute(item):
        h, c, h2 = item
        return (apply_linear_map(right_action, left_action.column((h, c)).outer(
                    Tensor.basis(field, (H.dim,), (h2,))), (0, 1)),
                apply_linear_map(left_action, Tensor.basis(field, (H.dim,), (h,)).outer(
                    right_action.column((c, h2))), (0, 1)))

    report.sweep("actions-commute", all_indices((H.dim, dim, H.dim)), commute)


def reference_coring_module_law(report, M):
    """A coring comodule's "action-associative" over every (m, r, s), then
    its "action-unital" over every m."""
    R = M.coring.R

    def vec(m):
        return Tensor.basis(M.field, (M.dim,), (m,))

    def associative(item):
        m, r, s = item
        return (apply_linear_map(M.action, vec(m).outer(R.basis_product(r, s)), (0, 1)),
                M.act(s, M.act(r, vec(m))))

    report.sweep("action-associative", all_indices((M.dim, R.dim, R.dim)), associative)
    report.sweep("action-unital", all_indices((M.dim,)),
                 lambda idx: (apply_linear_map(M.action, vec(idx[0]).outer(R.unit),
                                               (0, 1)), vec(idx[0])))


def reference_coring_counit_law(report, M):
    """A coring comodule's "counit-law": m_(0).eps(m_(1)) against m."""
    X = M.coring
    report.sweep("counit-law", all_indices((M.dim,)),
                 lambda idx: (apply_linear_map(M.action, apply_linear_map(
                                  X.counit, M.coaction.column(idx), (1,)), (0, 1)),
                              Tensor.basis(M.field, (M.dim,), idx)))


def reference_rational(report, action, via_coaction, dC, dB):
    """The two actions of the smash product on every (m, f, b)."""
    def rational(item):
        m, f, b = item
        n = f * dB + b
        return action.column((m, n)), via_coaction.column((m, n))

    report.sweep("rational", all_indices((action.src[0], dC, dB)), rational)


def reference_coaction_quasi_coassoc(report, X):
    """A comodule algebra's "coaction-quasi-coassoc", one basis element's
    coaction image at a time, multiplied by the reassociator."""
    H, alg = X.H, X.alg
    re = X.re_el()

    def coassoc(idx):
        c = El.basis((alg,), idx).map(X.coaction, 0)
        if X.side == "right":
            return re.mul(c.map(X.coaction, 0)).t, c.map(H.comult, 1).mul(re).t
        return c.map(X.coaction, 1).mul(re).t, re.mul(c.map(H.comult, 0)).t

    report.sweep("coaction-quasi-coassoc", all_indices((alg.dim,)), coassoc)


def reference_slides(report, left, p, q):
    """"coaction-slides-through-p" and "-q" of a left comodule algebra with
    canonical elements ``p`` and ``q`` (``El``s over [H, B]), one basis
    element b at a time."""
    H, alg, lam = left.H, left.alg, left.coaction
    S, S_inv = H.antipode, H.antipode_inv

    def slides_p(idx):
        b = El.basis((alg,), idx)
        b3 = b.map(lam, 0).map(lam, 1)                     # b-1, b0-1, b00
        return (b3.mul_embedded(p, (1, 2)).map(S_inv, 0).merge(1, 0).t,
                p.mul_embedded(b, (1,)).t)

    def slides_q(idx):
        b = El.basis((alg,), idx)
        b3 = b.map(lam, 0).map(lam, 1)
        return (b3.map(S, 0).premul_embedded(q, (1, 2)).merge(0, 1).t,
                q.premul_embedded(b, (1,)).t)

    basis = all_indices((alg.dim,))
    report.sweep("coaction-slides-through-p", basis, slides_p)
    report.sweep("coaction-slides-through-q", basis, slides_q)


def reference_mixed_intertwine(report, A):
    """A bicomodule algebra's "mixed-intertwine", one basis element u at a
    time: the mixed reassociator times both coactions of u, each order."""
    mixed = A.mixed_el()

    def intertwine(idx):
        u = El.basis((A.alg,), idx)
        return (mixed.mul(u.map(A.right_coaction, 0).map(A.left_coaction, 0)).t,
                u.map(A.left_coaction, 0).map(A.right_coaction, 1).mul(mixed).t)

    report.sweep("mixed-intertwine", all_indices((A.alg.dim,)), intertwine)


def reference_counit_comult(report, C):
    """A module coalgebra's "counit-comult": the left counit law at each
    basis element, or the right one where the left one holds."""
    def counit_law(idx):
        two = El.basis((C.space,), idx).map(C.comult, 0)
        want = Tensor.basis(C.field, (C.dim,), idx)
        left = two.map(C.counit, (0,)).t
        return left if left != want else two.map(C.counit, (1,)).t, want

    report.sweep("counit-comult", all_indices((C.dim,)), counit_law)


def reference_action_compat(report, C, left_items=None):
    """"comult-action-compat-*" then "counit-action-compat-*" of a module
    coalgebra, one action source index at a time: (h, c) on the left,
    swept with c outermost unless ``left_items`` gives another order, and
    (c, h) on the right."""
    H = C.H

    def laws(side, action):
        def comult_law(idx):
            h, i = idx if side == "left" else idx[::-1]
            lhs = apply_linear_map(C.comult, action.column(idx), (0,))
            pair = El.basis((H.alg,), (h,)).map(H.comult, 0).times(
                El.basis((C.space,), (i,)).map(C.comult, 0))
            if side == "left":
                rhs = pair.map(action, (0, 2), at=0).map(action, (1, 2), at=1)
            else:
                rhs = pair.map(action, (2, 0), at=0).map(action, (2, 1), at=1)
            return lhs, rhs.t

        def counit_law(idx):
            h, i = idx if side == "left" else idx[::-1]
            return (apply_linear_map(C.counit, action.column(idx), (0,)).get(()),
                    H.counit_scalar(h) * C.counit.column((i,)).get(()))

        return {"comult": comult_law, "counit": counit_law}

    actions = [(side, action) for side, action in (("left", C.left_action),
                                                   ("right", C.right_action))
               if action is not None]
    for law in ("comult", "counit"):
        for side, action in actions:
            if side == "right":
                items = all_indices((C.dim, H.dim))
            elif left_items is None:
                items = [(h, i) for i in range(C.dim) for h in range(H.dim)]
            else:
                items = left_items
            report.sweep("%s-action-compat-%s" % (law, side), items, laws(side, action)[law])


def reference_distributive(report, A):
    """A module algebra's "action-distributive-*" over every (h, i, j),
    one basis triple at a time."""
    H, alg, field = A.H, A.alg, A.field

    def distributes(side, action):
        def law(item):
            h, i, j = item
            h_basis = Tensor.basis(field, (H.dim,), (h,))
            hh = El.basis((H.alg,), (h,)).map(H.comult, 0)
            prod = alg.basis_product(i, j)
            e_i, e_j = El.basis((alg,), (i,)), El.basis((alg,), (j,))
            if side == "left":
                acted = apply_linear_map(action, h_basis.outer(prod), (0, 1))
                split = hh.times(e_i).times(e_j)
            else:
                acted = apply_linear_map(action, prod.outer(h_basis), (0, 1))
                split = e_i.times(e_j).times(hh)
            split = split.map(action, (0, 2), at=0).map(action, (1, 2), at=1)
            return acted, split.merge(0, 1).t
        return law

    for side, action in (("left", A.left_action), ("right", A.right_action)):
        if action is not None:
            report.sweep("action-distributive-" + side,
                         all_indices((H.dim, alg.dim, alg.dim)), distributes(side, action))


def reference_unit_two_sided(report, alg):
    """A product algebra's "unit-two-sided": 1 e_i then e_i 1 against e_i,
    over the side-tagged items ("left", i) and ("right", i), i outermost."""
    def unit_law(item):
        side, i = item
        e = Tensor.basis(alg.field, (alg.dim,), (i,))
        if side == "left":
            return alg.product(alg.unit, e), e
        return alg.product(e, alg.unit), e

    report.sweep("unit-two-sided", [(side, i) for i in range(alg.dim)
                                    for side in ("left", "right")], unit_law)


def reference_action_counit_unit(report, A):
    """A module algebra's "action-counit-unit": h acting on the unit
    against eps(h) 1, over the items (h, side), h outermost."""
    H, alg = A.H, A.alg
    actions = [(side, action) for side, action in (("left", A.left_action),
                                                   ("right", A.right_action))
               if action is not None]

    def counit_unit(item):
        h, side = item
        acted = act_legwise(Tensor.basis(A.field, (H.dim,), (h,)), alg.unit,
                            [(dict(actions)[side], side == "left")])
        return acted, alg.unit.scale(H.counit_scalar(h))

    report.sweep("action-counit-unit",
                 [(h, side) for h in range(H.dim) for side, _ in actions], counit_unit)


def reference_coring_counit(report, X):
    """A coring's "counit-bilinear" over the items (side, r, c), then its
    "counit-law" over the items (side, c), the side innermost."""
    R = X.R

    def basis(c):
        return Tensor.basis(X.field, (X.dim,), (c,))

    def counit_bilinear(item):
        side, r, c = item
        if side == "left":
            return (apply_linear_map(X.counit, X.act_left(r, basis(c)), (0,)),
                    R.product(Tensor.basis(X.field, (R.dim,), (r,)), X.counit.column((c,))))
        return (apply_linear_map(X.counit, X.act_right(basis(c), r), (0,)),
                R.product(X.counit.column((c,)), Tensor.basis(X.field, (R.dim,), (r,))))

    report.sweep("counit-bilinear", [(side, r, c) for r in range(R.dim) for c in range(X.dim)
                                     for side in ("left", "right")], counit_bilinear)

    def counit_law(item):
        side, c = item
        left = side == "left"
        acted = apply_linear_map(X.counit, X.comult.column((c,)), (0,) if left else (1,))
        action = X.left_action if left else X.right_action
        return apply_linear_map(action, acted, (0, 1)), basis(c)

    report.sweep("counit-law", [(side, c) for c in range(X.dim)
                                for side in ("left", "right")], counit_law)
