import random

import pytest

from quasihopf import linalg
from quasihopf.errors import GaugeNotNormalized, NotInvertible, ShapeMismatch
from quasihopf.fields import QQ
from quasihopf.fixtures import h2, kz2
from quasihopf.hopf import (El, GaugeTransformation, QuasiBialgebra, QuasiHopfAlgebra,
                            drinfeld_twist, gauge_product, gauge_twist,
                            normalize_antipode, op_tensor, tensor_op, tensor_qha,
                            variant, verify_quasi_bialgebra,
                            verify_quasi_hopf)
from quasihopf.tensor import (FinAlgebra, LinMap, Tensor, all_indices, apply_linear_map,
                              invert_element, multiply, switch_legs,
                              unit_tensor)


def test_kz2_passes_quasi_hopf(field):
    report = verify_quasi_hopf(kz2(field))
    assert report.passed, report.render()


def test_h2_passes_quasi_hopf(field):
    report = verify_quasi_hopf(h2(field))
    assert report.passed, report.render()


def test_broken_counit_fails_with_witness():
    H = kz2(QQ)
    # comultiplication sending the generator to g x 1 violates the counit law
    bad_comult = LinMap.from_function(
        QQ, (2,), (2, 2),
        lambda idx: {(idx[0], 0): QQ.one}, dst_spaces=(H.alg, H.alg))
    bad = QuasiHopfAlgebra(H.alg, bad_comult, H.counit, H.reassoc, H.antipode,
                           H.alpha, H.beta, reassoc_inv=H.reassoc_inv)
    report = verify_quasi_bialgebra(bad)
    assert not report.passed
    failed = {r.check_id for r in report.records if not r.passed}
    assert "counit-comult" in failed
    witness = [r for r in report.records if r.check_id == "counit-comult"][0].witness
    assert witness == (1,)


def test_zeroed_alpha_fails_zigzag():
    H = h2(QQ)
    bad = QuasiHopfAlgebra(H.alg, H.comult, H.counit, H.reassoc, H.antipode,
                           Tensor(QQ, (2,)), H.beta, reassoc_inv=H.reassoc_inv)
    report = verify_quasi_hopf(bad)
    failed = {r.check_id for r in report.records if not r.passed}
    assert "zigzag-forward" in failed


def antipode_solver_oracle(H_data):
    """Independent oracle: solve the antipode axioms for (S, alpha, beta)
    by exact linear algebra, given only the bialgebra data.

    S is found from anti-multiplicativity plus the cancellation law with
    a normalized alpha; candidates are enumerated over a small affine
    set, then checked against every axiom.  Returns a valid triple.
    """
    field = H_data.field
    d = H_data.dim
    # unknowns: S matrix entries (d*d), alpha (d), beta (d)
    # strategy: fix alpha candidates over a small integer box for the
    # group-like basis, solve the *linear* cancellation identities for S
    # and beta given alpha, then verify.
    ints = [field.from_int(n) for n in (-2, -1, 0, 1, 2)]
    idx_pairs = [(i, j) for i in range(d) for j in range(d)]

    def try_alpha(alpha_vec):
        alpha = Tensor(field, (d,), {(i,): v for i, v in enumerate(alpha_vec) if v})
        # S(h1) alpha h2 = eps(h) alpha is linear in S
        rows, rhs = [], []
        n = d * d
        for h in range(d):
            two = H_data.comult.column((h,))
            eps_h = H_data.counit_scalar(h)
            for out in range(d):
                row = [field.zero] * n
                # sum over entries of Delta(h): S(e_a) alpha e_b
                for (a, b), v in two.data.items():
                    for s_out in range(d):
                        # coefficient of S[a -> s_out]
                        vec = multiply((H_data.alg,),
                                       multiply((H_data.alg,),
                                                Tensor.basis(field, (d,), (s_out,)),
                                                alpha),
                                       Tensor.basis(field, (d,), (b,)))
                        coeff = vec.get((out,))
                        if coeff:
                            row[s_out * d + a] = row[s_out * d + a] + v * coeff
                rows.append(row)
                rhs.append(alpha.get((out,)) * eps_h)
        try:
            flat = linalg.solve(field, rows, rhs)
        except linalg.NotInvertible:
            return None
        solutions = [flat]
        for extra in linalg.nullspace(field, rows)[:8]:
            solutions.append([a + b for a, b in zip(flat, extra)])
        for sol in solutions:
            cols = {}
            for a in range(d):
                img = {}
                for s_out in range(d):
                    v = sol[s_out * d + a]
                    if v:
                        img[(s_out,)] = v
                cols[(a,)] = img
            S = LinMap(field, (d,), (d,), cols, dst_spaces=(H_data.alg,))
            if not S.is_invertible():
                continue
            # solve h1 beta S(h2) = eps(h) beta for beta (linear, homogeneous
            # up to normalization); then check the zigzags
            brows = []
            for h in range(d):
                two = H_data.comult.column((h,))
                eps_h = H_data.counit_scalar(h)
                for out in range(d):
                    row = [field.zero] * d
                    for (a, b), v in two.data.items():
                        sb = apply_linear_map(S, Tensor.basis(field, (d,), (b,)), (0,))
                        for bi in range(d):
                            vec = multiply(
                                (H_data.alg,),
                                multiply((H_data.alg,),
                                         Tensor.basis(field, (d,), (a,)),
                                         Tensor.basis(field, (d,), (bi,))), sb)
                            coeff = vec.get((out,))
                            if coeff:
                                row[bi] = row[bi] + v * coeff
                    if eps_h:
                        row[out] = row[out] - eps_h
                    brows.append(row)
            for beta_flat in linalg.nullspace(field, brows):
                beta = Tensor(field, (d,),
                              {(i,): v for i, v in enumerate(beta_flat) if v})
                if beta.is_zero():
                    continue
                candidate = QuasiHopfAlgebra(
                    H_data.alg, H_data.comult, H_data.counit, H_data.reassoc,
                    S, alpha, beta, reassoc_inv=H_data.reassoc_inv)
                if verify_quasi_hopf(candidate).passed:
                    return candidate
        return None

    for a0 in ints:
        for a1 in ints:
            if not a0 and not a1:
                continue
            found = try_alpha([a0, a1])
            if found is not None:
                return found
    raise AssertionError("oracle found no antipode triple")


def test_solver_oracle_confirms_fixture_antipode(field):
    H = h2(field)
    solved = antipode_solver_oracle(H.bialgebra())
    assert verify_quasi_hopf(solved).passed
    # the fixture triple itself is among the valid ones
    assert verify_quasi_hopf(H).passed


def test_gauge_identity_twist_is_identity(field):
    H = h2(field)
    unit = unit_tensor(H.spaces(2))
    F = GaugeTransformation(H, unit, unit)
    twisted = gauge_twist(H, F)
    assert twisted.reassoc == H.reassoc
    assert twisted.alpha == H.alpha and twisted.beta == H.beta
    for i in range(H.dim):
        assert twisted.comult.column((i,)) == H.comult.column((i,))


def test_gauge_not_normalized_rejected(field):
    H = h2(field)
    t = unit_tensor(H.spaces(2)).scale(field.from_int(2))
    with pytest.raises(GaugeNotNormalized):
        GaugeTransformation(H, t, invert_element(H.spaces(2), t))


def random_gauge(H, rng):
    spaces = H.spaces(2)
    while True:
        data = {}
        for idx in all_indices((H.dim, H.dim)):
            data[idx] = H.field.random(rng)
        t = Tensor(H.field, (H.dim, H.dim), data)
        # project onto counit normalization: add a correction on the unit
        left = apply_linear_map(H.counit, t, (0,))
        right = apply_linear_map(H.counit, t, (1,))
        corr = unit_tensor(spaces)
        t = t + corr - H.alg.unit.outer(left - H.alg.unit + right - H.alg.unit) \
            .fuse([[0], [1]])
        # brute-force repair: overwrite so both counit contractions are 1
        t = _normalize_gauge(H, t)
        if t is None:
            continue
        try:
            return GaugeTransformation(H, t, invert_element(spaces, t))
        except (NotInvertible, GaugeNotNormalized):
            continue


def _normalize_gauge(H, t):
    # replace t by t + (1 x (1 - (eps x id) t)) then fix the other side
    one = H.alg.unit
    left = apply_linear_map(H.counit, t, (0,))
    t = t + one.outer(one - left)
    right = apply_linear_map(H.counit, t, (1,))
    t = t + (one - right).outer(one)
    # the second correction may break the first when eps(corr) != 0;
    # check and bail out if so
    if apply_linear_map(H.counit, t, (0,)) != one:
        return None
    if apply_linear_map(H.counit, t, (1,)) != one:
        return None
    try:
        invert_element(H.spaces(2), t)
    except Exception:
        return None
    return t


def test_gauge_twist_output_passes_axioms(field):
    H = kz2(field)
    rng = random.Random(7)
    F = random_gauge(H, rng)
    twisted = gauge_twist(H, F)
    report = verify_quasi_hopf(twisted)
    assert report.passed, report.render()


def test_gauge_twist_composition(field):
    H = h2(field)
    rng = random.Random(11)
    F = random_gauge(H, rng)
    H1 = gauge_twist(H, F)
    F2 = random_gauge(H1, rng)
    H2a = gauge_twist(H1, F2)
    combo = gauge_product(H1, F, F2)
    H2b = gauge_twist(H, combo)
    assert H2a.reassoc == H2b.reassoc
    assert H2a.alpha == H2b.alpha and H2a.beta == H2b.beta
    for i in range(H.dim):
        assert H2a.comult.column((i,)) == H2b.comult.column((i,))


def test_variant_involutions(field):
    H = h2(field)
    for kind in ("op", "cop"):
        back = variant(variant(H, kind), kind)
        assert back.reassoc == H.reassoc
        assert back.alpha == H.alpha and back.beta == H.beta
        for i in range(H.dim):
            assert back.comult.column((i,)) == H.comult.column((i,))
            assert back.antipode.column((i,)) == H.antipode.column((i,))
            for j in range(H.dim):
                assert back.alg.basis_product(i, j) == H.alg.basis_product(i, j)


def test_variant_opcop_swaps_alpha_beta(field):
    H = h2(field)
    V = variant(H, "opcop")
    assert V.alpha == H.beta and V.beta == H.alpha


def test_variants_pass_axioms(field):
    H = h2(field)
    for kind in ("op", "cop", "opcop"):
        report = verify_quasi_hopf(variant(H, kind))
        assert report.passed, (kind, report.render())


def test_tensor_square_passes_axioms(field):
    H = h2(field)
    for square in (op_tensor(H), tensor_op(H)):
        report = verify_quasi_hopf(square)
        assert report.passed, report.render()


def test_tensor_squares_are_cached_on_their_base(field):
    H = h2(field)
    assert op_tensor(H) is op_tensor(H)
    assert tensor_op(H) is tensor_op(H)
    assert op_tensor(H) is not op_tensor(h2(field))


def test_drinfeld_twist_trivial_for_hopf_case(field):
    H = kz2(field)
    twist = drinfeld_twist(H)
    assert twist.t == unit_tensor(H.spaces(2))
    assert twist.inv == unit_tensor(H.spaces(2))


def drinfeld_conjugation_holds(H, twist):
    spaces = H.spaces(2)
    for i in range(H.dim):
        s_h = apply_linear_map(H.antipode, Tensor.basis(H.field, (H.dim,), (i,)), (0,))
        lhs = multiply(spaces, twist.t,
                       multiply(spaces, apply_linear_map(H.comult, s_h, (0,)),
                                twist.inv))
        flipped = switch_legs(H.comult.column((i,)), (1, 0))
        rhs = apply_linear_map(H.antipode,
                               apply_linear_map(H.antipode, flipped, (0,)), (1,))
        if lhs != rhs:
            return False
    return True


def test_drinfeld_twist_conjugates_antipode(field):
    H = h2(field)
    twist = drinfeld_twist(H)
    spaces = H.spaces(2)
    assert multiply(spaces, twist.t, twist.inv) == unit_tensor(spaces)
    assert multiply(spaces, twist.inv, twist.t) == unit_tensor(spaces)
    assert drinfeld_conjugation_holds(H, twist)


def test_drinfeld_twisted_reassociator_formula(field):
    # twisting by the canonical gauge turns the reassociator into the
    # antipode image of its reversal
    H = h2(field)
    twist = drinfeld_twist(H)
    twisted = gauge_twist(H, twist)
    expect = switch_legs(H.reassoc, (2, 1, 0))
    for leg in range(3):
        expect = apply_linear_map(H.antipode, expect, (leg,), at=leg)
    assert twisted.reassoc == expect
    assert verify_quasi_hopf(twisted).passed


def test_drinfeld_inverse_identity(field):
    # g2 alpha S^-1(g1) = S^-1(beta) for the inverse gauge components
    H = h2(field)
    twist = drinfeld_twist(H)
    e = El(H.spaces(2), twist.inv)
    e = e.map(H.antipode_inv, 0)
    e = e.times(El((H.alg,), H.alpha)).merge(1, 2).merge(1, 0)
    expect = apply_linear_map(H.antipode_inv, H.beta, (0,))
    assert e.t == expect


def test_normalize_antipode(field):
    H = h2(field)
    scaled = QuasiHopfAlgebra(H.alg, H.comult, H.counit, H.reassoc, H.antipode,
                              H.alpha.scale(field.from_int(3)),
                              H.beta.scale(field.div_int(1, 3)),
                              reassoc_inv=H.reassoc_inv)
    fixed = normalize_antipode(scaled)
    assert fixed.eps(fixed.alpha) == field.one
    assert fixed.eps(fixed.beta) == field.one
    assert verify_quasi_hopf(fixed).passed


def test_mutation_sensitivity(field):
    # flipping any single structure constant breaks at least one axiom
    H = h2(field)
    rng = random.Random(20240801)
    tables = ["mult", "comult", "reassoc", "antipode", "alpha", "beta"]
    for trial in range(50):
        name = rng.choice(tables)
        delta = field.random_nonzero(rng)
        mutated = _mutate(H, name, rng, delta)
        report = verify_quasi_hopf(mutated)
        assert not report.passed, (trial, name)


def _mutate(H, table, rng, delta):
    field = H.field
    d = H.dim

    def bump_linmap(m, src, dst):
        i = tuple(rng.randrange(x) for x in src)
        j = tuple(rng.randrange(x) for x in dst)
        cols = {k: dict(v) for k, v in m.cols.items()}
        img = cols.setdefault(i, {})
        img[j] = img.get(j, field.zero) + delta
        return LinMap(field, src, dst, cols)

    def bump_tensor(t):
        idx = tuple(rng.randrange(x) for x in t.dims)
        data = dict(t.data)
        data[idx] = data.get(idx, field.zero) + delta
        return Tensor(field, t.dims, data)

    from quasihopf.tensor import FinAlgebra
    alg, comult, reassoc, antipode = H.alg, H.comult, H.reassoc, H.antipode
    alpha, beta = H.alpha, H.beta
    if table == "mult":
        alg = FinAlgebra(field, d, bump_linmap(H.alg.mult, (d, d), (d,)),
                         H.alg.unit, validate=False)
    elif table == "comult":
        comult = bump_linmap(H.comult, (d,), (d, d))
    elif table == "reassoc":
        reassoc = bump_tensor(H.reassoc)
    elif table == "antipode":
        antipode = bump_linmap(H.antipode, (d,), (d,))
    elif table == "alpha":
        alpha = bump_tensor(H.alpha)
    else:
        beta = bump_tensor(H.beta)
    return QuasiHopfAlgebra(alg, comult, H.counit, reassoc, antipode, alpha, beta,
                            reassoc_inv=H.reassoc_inv)


def test_both_antipode_cancel_failures_are_recorded(field):
    # S(g) = g + 3: S(h1) alpha h2 = alpha and h1 beta S(h2) = beta both fail
    # at g; each law keeps its own record, witness and sides
    H = h2(field)
    cols = {k: dict(v) for k, v in H.antipode.cols.items()}
    cols[(1,)][(0,)] = field.one * 3
    antipode = LinMap(field, (2,), (2,), cols)
    bad = QuasiHopfAlgebra(H.alg, H.comult, H.counit, H.reassoc, antipode,
                           H.alpha, H.beta, reassoc_inv=H.reassoc_inv)
    report = verify_quasi_hopf(bad)
    assert [r.check_id for r in report.records] == \
        [r.check_id for r in verify_quasi_hopf(H).records]
    left, right = (next(r for r in report.records if r.check_id == "antipode-cancel-" + s)
                   for s in ("left", "right"))
    assert not left.passed and not right.passed
    assert left.witness == right.witness == (1,)
    assert left.rhs == H.alpha and right.rhs == H.beta
    assert left.lhs == H.alpha + Tensor.basis(field, (2,), (0,)).scale(field.one * 3)
    assert right.lhs == H.beta + Tensor.basis(field, (2,), (1,)).scale(field.one * 3)


# -- quasi-coassociativity on a non-cocommutative base -------------------------

def sweedler(field):
    """Sweedler's 4-dim Hopf algebra, basis 1, g, x, gx: g^2 = 1, x^2 = 0,
    xg = -gx, Delta(x) = x (x) 1 + g (x) x, S(x) = -gx; Phi = 1 (x) 1 (x) 1.
    Neither commutative nor cocommutative."""
    one, neg = field.one, -field.one
    table = {
        (0, 0): {0: one}, (0, 1): {1: one}, (0, 2): {2: one}, (0, 3): {3: one},
        (1, 0): {1: one}, (1, 1): {0: one}, (1, 2): {3: one}, (1, 3): {2: one},
        (2, 0): {2: one}, (2, 1): {3: neg},
        (3, 0): {3: one}, (3, 1): {2: neg},
    }
    alg = FinAlgebra.from_table(field, 4, table, [one, 0, 0, 0])
    comult = LinMap(field, (4,), (4, 4), {
        (0,): {(0, 0): one}, (1,): {(1, 1): one},
        (2,): {(2, 0): one, (1, 2): one}, (3,): {(3, 1): one, (0, 3): one}})
    counit = LinMap(field, (4,), (), {(0,): {(): one}, (1,): {(): one}})
    antipode = LinMap(field, (4,), (4,), {
        (0,): {(0,): one}, (1,): {(1,): one}, (2,): {(3,): neg}, (3,): {(2,): one}})
    unit3 = unit_tensor((alg,) * 3)
    return QuasiHopfAlgebra(alg, comult, counit, unit3, antipode, alg.unit, alg.unit,
                            reassoc_inv=unit3, name="sweedler")


def test_reassoc_invertible_takes_one_product(field):
    # Phi = 1 x 1 x g with the stated inverse Psi = Phi + 3 (1 x 1 x x):
    # Phi Psi and Psi Phi are 1 + 3 (1 x 1 x gx) and 1 - 3 (1 x 1 x gx),
    # whose sum is 2, so only the one-sided product exposes Psi
    H = sweedler(field)
    one_one = unit_tensor(H.spaces(2))
    phi = one_one.outer(Tensor.basis(field, (4,), (1,)))
    psi = phi + one_one.outer(Tensor.basis(field, (4,), (2,))).scale(field.from_int(3))
    spaces, unit3 = H.spaces(3), unit_tensor(H.spaces(3))
    assert multiply(spaces, phi, psi) + multiply(spaces, psi, phi) == unit3 + unit3
    bad = QuasiBialgebra(H.alg, H.comult, H.counit, phi, psi)
    record = {r.check_id: r for r in verify_quasi_bialgebra(bad).records}[
        "reassoc-invertible"]
    assert not record.passed
    gx = one_one.outer(Tensor.basis(field, (4,), (3,)))
    assert record.lhs == unit3 + gx.scale(field.from_int(3))
    assert record.witness == (0, 0, 3)


def seeded_gauge(H, seed):
    """F = 1 (x) 1 + sum c_ij u_i (x) u_j over u_i = e_i - eps(e_i) 1, which
    is counit-normalized; draws that are not invertible are skipped."""
    field, rng = H.field, random.Random(seed)
    kernel = [Tensor(field, (H.dim,), {(i,): field.one, (0,): -H.counit_scalar(i)})
              for i in range(1, H.dim)]
    while True:
        t = unit_tensor(H.spaces(2))
        for ui in kernel:
            for uj in kernel:
                t = t + ui.outer(uj).scale(field.random(rng))
        try:
            return GaugeTransformation(H, t, invert_element(H.spaces(2), t))
        except NotInvertible:
            continue


def conjugated_coassoc_witness(H):
    """First basis index where (id x Delta)Delta(h) differs from
    Phi (Delta x id)Delta(h) Phi^-1, or None."""
    phi, phi_inv = H.el(H.reassoc), H.el(H.reassoc_inv)
    for i in range(H.dim):
        h2 = El.basis((H.alg,), (i,)).map(H.comult, 0)
        if h2.map(H.comult, 1) != phi.mul(h2.map(H.comult, 0)).mul(phi_inv):
            return (i,)
    return None


def test_quasi_coassoc_oracle_on_twisted_sweedler(field):
    H = sweedler(field)
    twisted = gauge_twist(H, seeded_gauge(H, 7))
    report = verify_quasi_hopf(twisted)
    assert report.passed, report.render()
    assert conjugated_coassoc_witness(twisted) is None

    # the twisted, non-coassociative Delta with the trivial reassociator
    unit3 = unit_tensor(H.spaces(3))
    broken = QuasiBialgebra(twisted.alg, twisted.comult, twisted.counit, unit3, unit3)
    records = {r.check_id: r for r in verify_quasi_bialgebra(broken).records}
    assert records["reassoc-invertible"].passed
    record = records["quasi-coassoc"]
    assert not record.passed
    assert record.witness == conjugated_coassoc_witness(broken)
    # a failure shows the two multiplied-through sides
    h2 = El.basis((broken.alg,), record.witness[:1]).map(broken.comult, 0)
    assert record.lhs == h2.map(broken.comult, 1).t
    assert record.rhs == h2.map(broken.comult, 0).t


def test_gauge_over_a_different_base_of_the_same_dimension_is_refused(field):
    # h2 (x) h2 and Sweedler's algebra are both 4-dimensional, but their
    # products differ, so a gauge over one cannot twist the other
    H = h2(field)
    with pytest.raises(ShapeMismatch, match="gauge lives over a different structure"):
        gauge_twist(tensor_qha(H, H), seeded_gauge(sweedler(field), 1))
    # kz2 shares h2's algebra and counit, so its gauges twist h2
    K = kz2(field)
    assert verify_quasi_hopf(gauge_twist(H, seeded_gauge(K, 3))).passed
    assert verify_quasi_hopf(gauge_twist(H, drinfeld_twist(K))).passed
