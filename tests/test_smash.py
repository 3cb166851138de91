import pytest

from quasihopf.comodule import comodule_variant
from quasihopf.errors import AntipodeNotInvertible, MixedBase
from quasihopf.fields import QQ
from quasihopf.hopf import QuasiHopfAlgebra
from quasihopf.fixtures import (c2, h2, h2_bimodule_coalgebra, hh_bicomodule,
                                kz2, regular_comodule_algebra)
from quasihopf.modcoalg import dualize
from quasihopf.smash import (alpha_morphism, build_omega, check_prop_3_10,
                             diagonal_crossed_product, generalized_smash,
                             koppinen_smash, phi_isomorphism,
                             right_generalized_smash, stgsm_product,
                             verify_product_algebra)
from quasihopf.tensor import LinMap, Tensor, apply_linear_map, unit_tensor


def smash_inputs(field, make):
    H = make(field)
    C = c2(field, H)
    B = regular_comodule_algebra(H, "left")
    return H, C, B


@pytest.mark.parametrize("make", [kz2, h2])
def test_generalized_smash_associative_unital(field, make):
    H, C, B = smash_inputs(field, make)
    P = generalized_smash(dualize(C), B)
    report = verify_product_algebra(P)
    assert report.passed, report.render()


def test_generalized_smash_unit_law(field):
    H, C, B = smash_inputs(field, h2)
    P = generalized_smash(dualize(C), B)
    for i in range(P.carrier.dim):
        e = Tensor.basis(field, (P.carrier.dim,), (i,))
        assert P.carrier.product(P.carrier.unit, e) == e


def test_generalized_smash_mixed_base_rejected(field):
    H1, C1, B1 = smash_inputs(field, h2)
    H2_, C2_, B2 = smash_inputs(field, kz2)
    with pytest.raises(MixedBase):
        generalized_smash(dualize(C1), B2)


@pytest.mark.parametrize("make", [kz2, h2])
def test_right_generalized_smash_associative(field, make):
    H = make(field)
    A = regular_comodule_algebra(H, "right")
    C = c2(field, H)
    # dual of a left module coalgebra is a right module algebra; the
    # trivial-action coalgebra works on either side
    from quasihopf.modcoalg import ModuleCoalgebra
    from quasihopf.tensor import LinMap
    left = LinMap.from_function(
        field, (H.dim, 2), (2,),
        lambda idx: {(idx[1],): H.counit_scalar(idx[0])})
    C_left = ModuleCoalgebra(H, "left", 2, C.comult, C.counit, left_action=left)
    P = right_generalized_smash(A, dualize(C_left))
    report = verify_product_algebra(P)
    assert report.passed, report.render()


@pytest.mark.parametrize("make", [kz2, h2])
def test_stgsm_product_associative(field, make):
    H = make(field)
    A = regular_comodule_algebra(H, "right")
    C = c2(field, H)
    P = stgsm_product(A, C)
    report = verify_product_algebra(P)
    assert report.passed, report.render()


def test_stgsm_trivial_case_is_convolution_tensor_group(field):
    # with the trivial-action coalgebra over the ordinary Hopf base the
    # product splits into convolution times the group algebra
    H = kz2(field)
    A = regular_comodule_algebra(H, "right")
    C = c2(field, H)
    P = stgsm_product(A, C)
    for f in range(2):
        for i in range(2):
            for g in range(2):
                for k in range(2):
                    got = P.carrier.basis_product(P.pair(f, i), P.pair(g, k))
                    conv = QQ.one if f == g else None
                    expect = Tensor(field, (4,))
                    if f == g:
                        group = (i + k) % 2
                        expect = Tensor(field, (4,), {(P.pair(f, group),): field.one})
                    assert got == expect


def test_stgsm_matches_op_side_construction(field):
    # the opposite-composed smash coincides, after flipping the carrier
    # legs, with the plain smash built over the cop variant from the
    # reflected inputs, with its multiplication reversed
    H = h2(field)
    A = regular_comodule_algebra(H, "right")
    C = c2(field, H)
    direct = stgsm_product(A, C)

    A_under = comodule_variant(A, "cop")          # left over H^cop
    C_cop = C.reflect("cop")                      # right over H^cop
    other = generalized_smash(dualize(C_cop), A_under)
    # same carrier order (dual leg, carrier leg); compare opposite products
    for i in range(direct.carrier.dim):
        for j in range(direct.carrier.dim):
            assert direct.carrier.basis_product(i, j) == \
                other.carrier.basis_product(j, i)


def test_stgsm_reads_no_antipode(field):
    # the product uses only the comultiplication and the right action of
    # C: over a copy of the base whose antipode is singular (so S^-1
    # cannot be formed) it is built, and agrees with the one over h2
    H = h2(field)
    singular = QuasiHopfAlgebra(H.alg, H.comult, H.counit, H.reassoc,
                                LinMap(field, (H.dim,), (H.dim,)), H.alpha, H.beta,
                                reassoc_inv=H.reassoc_inv, name="h2-singular-S")
    with pytest.raises(AntipodeNotInvertible):
        singular.antipode_inv
    expect = stgsm_product(regular_comodule_algebra(H, "right"), c2(field, H))
    got = stgsm_product(regular_comodule_algebra(singular, "right"), c2(field, singular))
    for i in range(got.carrier.dim):
        for j in range(got.carrier.dim):
            assert got.carrier.basis_product(i, j) == expect.carrier.basis_product(i, j)


@pytest.mark.parametrize("make", [kz2, h2])
def test_koppinen_smash_associative(field, make):
    H, C, B = smash_inputs(field, make)
    P = koppinen_smash(C, B)
    report = verify_product_algebra(P)
    assert report.passed, report.render()


def test_koppinen_unit_is_counit_times_unit(field):
    H, C, B = smash_inputs(field, h2)
    P = koppinen_smash(C, B)
    expect = Tensor(field, (2,), {(c,): C.counit.column((c,)).get(())
                                  for c in range(2)}).outer(B.alg.unit)
    assert P.carrier.unit == expect.fuse([[0, 1]])


@pytest.mark.parametrize("make", [kz2, h2])
def test_alpha_morphism(field, make):
    H, C, B = smash_inputs(field, make)
    morphism, report = alpha_morphism(C, B)
    assert report.passed, report.render()


@pytest.mark.parametrize("make", [kz2, h2])
def test_phi_isomorphism(field, make):
    H = make(field)
    C = c2(field, H)
    phi, phi_inv, source, target, report = phi_isomorphism(C)
    assert report.passed, report.render()
    assert verify_product_algebra(source).passed
    assert verify_product_algebra(target).passed


def test_phi_hopf_case_is_antipode_flip(field):
    # over the ordinary Hopf base the comparison map reduces to acting by
    # the flipped antipode of the comultiplication legs
    H = kz2(field)
    C = c2(field, H)
    phi, phi_inv, source, target, report = phi_isomorphism(C)
    assert report.passed
    dC, dH = 2, 2
    for f in range(dC):
        for h in range(dH):
            # S^-1 = id and the canonical elements are trivial, so the
            # column is the source basis vector pushed through the
            # (trivial) dual action twice
            col = phi.column((f * dH + h,))
            expect = Tensor(field, (dC * dH,), {(f * dH + h,): field.one})
            assert col == expect


@pytest.mark.parametrize("order", ["l", "r"])
def test_build_omega_trivial_for_hopf(field, order):
    A = hh_bicomodule(field, kz2(field))
    data = build_omega(A, order)
    sp5 = (A.H.alg, A.H.alg, A.alg, A.H.alg, A.H.alg)
    assert data.psi == unit_tensor(sp5)
    assert data.omega_right == unit_tensor(sp5)


@pytest.mark.parametrize("order", ["l", "r"])
def test_build_omega_invertible(field, order):
    from quasihopf.tensor import multiply
    A = hh_bicomodule(field)
    data = build_omega(A, order)
    sp5 = (A.H.alg, A.H.alg, A.alg, A.H.alg, A.H.alg)
    assert multiply(sp5, data.psi, data.psi_inv) == unit_tensor(sp5)
    assert multiply(sp5, data.psi_inv, data.psi) == unit_tensor(sp5)


def test_omega_counit_collapse(field):
    # applying the counit to every base leg of the right exchange element
    # of either coaction order collapses it to the unit
    H = h2(field)
    A = hh_bicomodule(field, H)
    for order in ("l", "r"):
        out = build_omega(A, order).omega_right
        for _ in range(2):
            out = apply_linear_map(H.counit, out, (0,))
        for _ in range(2):
            out = apply_linear_map(H.counit, out, (1,))
        assert out == A.alg.unit, order


@pytest.mark.parametrize("kind", ["left-l", "left-r", "right-l", "right-r"])
@pytest.mark.parametrize("make", [kz2, h2])
def test_diagonal_crossed_products_associative(field, make, kind):
    H = make(field)
    A = hh_bicomodule(field, H)
    M = dualize(h2_bimodule_coalgebra(field, H))
    P = diagonal_crossed_product(A, M, kind)
    report = verify_product_algebra(P)
    assert report.passed, (kind, report.render())


def test_diagonal_crossed_product_hopf_case_is_double_multiplication(field):
    # with the trivial reassociator the left-l product on the dual is the
    # classical double multiplication
    H = kz2(field)
    A = hh_bicomodule(field, H)
    M = dualize(h2_bimodule_coalgebra(field, H))
    P = diagonal_crossed_product(A, M, "left-l")
    from quasihopf.tensor import LinMap, apply_linear_map

    def classical(x, y):
        (i, j), (k, l) = x, y
        # (phi  bowtie h)(psi bowtie h') = phi (h1 . psi . S^-1(h3)) bowtie h2 h'
        field_ = field
        out = Tensor(field_, (2, 2))
        h1h2h3 = apply_linear_map(
            H.comult, apply_linear_map(H.comult,
                                       Tensor.basis(field_, (2,), (j,)), (0,)), (1,))
        for (a, b, c), v in h1h2h3.data.items():
            acted = apply_linear_map(
                M.left_action,
                Tensor.basis(field_, (2,), (a,)).outer(
                    Tensor.basis(field_, (2,), (k,))), (0, 1))
            acted = apply_linear_map(
                M.right_action,
                acted.outer(apply_linear_map(H.antipode_inv,
                                             Tensor.basis(field_, (2,), (c,)), (0,))),
                (0, 1))
            prod = M.alg.product(Tensor.basis(field_, (2,), (i,)), acted)
            group = H.alg.product(Tensor.basis(field_, (2,), (b,)),
                                  Tensor.basis(field_, (2,), (l,)))
            out = out + prod.outer(group).scale(v)
        return out

    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    got = P.carrier.basis_product(P.pair(i, j), P.pair(k, l))
                    expect = classical((i, j), (k, l)).fuse([[0, 1]])
                    assert got == expect


@pytest.mark.parametrize("make", [kz2, h2])
def test_prop_comparison_tables_agree(field, make):
    H = make(field)
    A = hh_bicomodule(field, H)
    C = h2_bimodule_coalgebra(field, H)
    report = check_prop_3_10(A, C)
    assert report.passed, report.render()
