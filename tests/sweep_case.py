"""Per-item references for the checks that run as one contraction.

Each check below was a ``CheckReport.sweep`` over basis tuples, with
the two sides built per item from the inputs' structure maps; the
library now builds each side once for all items, with the item on the
leading legs, and records it through ``CheckReport.sweep_all``.  These
are the per-item forms, one function per shape of check, each adding
the record that the per-item sweep makes to ``report``.
"""

from quasihopf.tensor import Tensor, act_legwise, all_indices, apply_linear_map


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
