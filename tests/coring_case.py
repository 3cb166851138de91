"""Dense reference for equality over the base ring of a coring.

The library decides equality in tensor products over the base ring by a
normal form on the free side of the carrier.  The reference here spans
every balancing relation (x.r) (x) y - x (x) (r.y) of the plain tensor
power, row-reduces the span with ``linalg.rref`` and compares the two
sides of each check modulo it.  ``reference_verify_coring`` and
``reference_verify_coring_comodule`` are the whole coring and coring
comodule checks decided that way; the coring tests compare their
verdicts and witnesses with the library's.
"""

from quasihopf import linalg
from quasihopf.report import CheckReport
from quasihopf.tensor import Tensor, all_indices, apply_linear_map


class SpanReducer:
    """Reduction modulo a row span: two vectors are congruent modulo the
    span iff their reductions are equal."""

    def __init__(self, field, rows):
        self.rows, self.pivots = linalg.rref(field, rows) if rows else ([], [])

    def reduce(self, vector):
        v = list(vector)
        for row, c in zip(self.rows, self.pivots):
            if v[c]:
                f = v[c]
                v = [a - f * b for a, b in zip(v, row)]
        return tuple(v)


def _basis(field, dim, i):
    return Tensor.basis(field, (dim,), (i,))


def balancing_reducer(X, arity):
    """Reducer modulo the balancing relations between neighbouring legs
    of the arity-fold plain tensor power of the carrier."""
    field, N = X.field, X.dim
    rows = []
    for gap in range(arity - 1):
        for r in range(X.R.dim):
            for left in range(N):
                for right in range(N):
                    moved = X.act_right(_basis(field, N, left), r).outer(
                        _basis(field, N, right)) - _basis(field, N, left).outer(
                        X.act_left(r, _basis(field, N, right)))
                    for rest in all_indices((N,) * (arity - 2)):
                        vec = Tensor(field, (N,) * arity)
                        for (a, b), v in moved.data.items():
                            vec.data[rest[:gap] + (a, b) + rest[gap:]] = v
                        rows.append(vec.to_flat())
    return SpanReducer(field, rows)


def reference_verify_coring(X):
    report = CheckReport("coring %s" % (X.name or ""))
    field = X.field
    red2 = balancing_reducer(X, 2)

    def basis(c):
        return _basis(field, X.dim, c)

    sided = [(side, r, c) for r in range(X.R.dim) for c in range(X.dim)
             for side in ("left", "right")]

    def comult_bilinear(item):
        side, r, c = item
        if side == "left":
            lhs = apply_linear_map(X.comult, X.act_left(r, basis(c)), (0,))
            rhs = X.act_left(r, X.comult.column((c,)), leg=0)
        else:
            lhs = apply_linear_map(X.comult, X.act_right(basis(c), r), (0,))
            rhs = X.act_right(X.comult.column((c,)), r, leg=1)
        return red2.reduce(lhs.to_flat()), red2.reduce(rhs.to_flat())

    report.sweep("comult-bilinear", sided, comult_bilinear)

    def counit_bilinear(item):
        side, r, c = item
        r_el = _basis(field, X.R.dim, r)
        if side == "left":
            return (apply_linear_map(X.counit, X.act_left(r, basis(c)), (0,)),
                    X.R.product(r_el, X.counit.column((c,))))
        return (apply_linear_map(X.counit, X.act_right(basis(c), r), (0,)),
                X.R.product(X.counit.column((c,)), r_el))

    report.sweep("counit-bilinear", sided, counit_bilinear)
    red3 = balancing_reducer(X, 3)

    def coassociative(idx):
        two = X.comult.column(idx)
        return (red3.reduce(apply_linear_map(X.comult, two, (0,)).to_flat()),
                red3.reduce(apply_linear_map(X.comult, two, (1,)).to_flat()))

    report.sweep("coassociative", all_indices((X.dim,)), coassociative)

    def counit_law(item):
        side, c = item
        acc = Tensor(field, (X.dim,))
        for (a, b), v in X.comult.column((c,)).data.items():
            if side == "left":
                for (r,), w in X.counit.column((a,)).data.items():
                    acc = acc + X.act_left(r, basis(b)).scale(v * w)
            else:
                for (r,), w in X.counit.column((b,)).data.items():
                    acc = acc + X.act_right(basis(a), r).scale(v * w)
        return acc, basis(c)

    report.sweep("counit-law", [(side, c) for c in range(X.dim)
                                for side in ("left", "right")], counit_law)
    return report


def reference_verify_coring_comodule(M):
    report = CheckReport("coring comodule %s" % (M.name or ""))
    X = M.coring
    field = M.field
    R, N = X.R, X.dim

    def vec(m):
        return _basis(field, M.dim, m)

    def associative(item):
        m, r, s = item
        return (apply_linear_map(M.action, vec(m).outer(R.basis_product(r, s)), (0, 1)),
                M.act(s, M.act(r, vec(m))))

    report.sweep("action-associative", all_indices((M.dim, R.dim, R.dim)), associative)
    report.sweep("action-unital", all_indices((M.dim,)),
                 lambda idx: (apply_linear_map(M.action, vec(idx[0]).outer(R.unit),
                                               (0, 1)), vec(idx[0])))

    def moved(m, r, c):
        return M.act(r, vec(m)).outer(_basis(field, N, c)) - \
            vec(m).outer(X.act_left(r, _basis(field, N, c)))

    red = SpanReducer(field, [moved(m, r, c).to_flat() for r in range(R.dim)
                              for m in range(M.dim) for c in range(N)])

    def linear(item):
        m, r = item
        lhs = apply_linear_map(M.coaction, M.act(r, vec(m)), (0,))
        rhs = X.act_right(M.coaction.column((m,)), r, leg=1)
        return red.reduce(lhs.to_flat()), red.reduce(rhs.to_flat())

    report.sweep("coaction-linear", all_indices((M.dim, R.dim)), linear)
    rows3 = []
    for r in range(R.dim):
        for m in range(M.dim):
            for c in range(N):
                for c2 in range(N):
                    rows3.append(moved(m, r, c).outer(_basis(field, N, c2)).to_flat())
                    pair = X.act_right(_basis(field, N, c), r).outer(_basis(field, N, c2)) \
                        - _basis(field, N, c).outer(X.act_left(r, _basis(field, N, c2)))
                    rows3.append(vec(m).outer(pair).to_flat())
    red3 = SpanReducer(field, rows3)
    basis = all_indices((M.dim,))

    def coassociative(idx):
        one = M.coaction.column(idx)
        return (red3.reduce(apply_linear_map(M.coaction, one, (0,)).to_flat()),
                red3.reduce(apply_linear_map(X.comult, one, (1,), at=1).to_flat()))

    report.sweep("coassociative", basis, coassociative)

    def counit_law(idx):
        acc = Tensor(field, (M.dim,))
        for (m0, c), v in M.coaction.column(idx).data.items():
            for (r,), w in X.counit.column((c,)).data.items():
                acc = acc + M.act(r, vec(m0)).scale(v * w)
        return acc, vec(idx[0])

    report.sweep("counit-law", basis, counit_law)
    return report
