import gc
import random
import weakref

import pytest

from quasihopf import comodule
from quasihopf.comodule import (BicomoduleAlgebra, ComoduleAlgebra,
                                TwistWitness, bicomodule_to_left_tensor_op,
                                bicomodule_to_right_op_tensor,
                                bicomodule_variant, canonical_elements,
                                comodule_variant, gauge_twist_comodule_algebra,
                                internal_coalgebra, realization_twist_witness,
                                right_realization, twist_comodule_algebra,
                                verify_bicomodule_algebra,
                                verify_comodule_algebra)
from quasihopf.errors import NotInvertible, WitnessNotNormalized
from quasihopf.fields import QQ
from quasihopf.fixtures import h2, hh_bicomodule, kz2, regular_comodule_algebra
from quasihopf.hopf import drinfeld_twist, op_tensor, tensor_op
from quasihopf.tensor import (LinMap, Tensor, all_indices, apply_linear_map,
                              invert_element, multiply, switch_legs, unit_tensor)

from test_hopf import sweedler


def test_regular_right_comodule_algebra_passes(field):
    for make in (kz2, h2):
        H = make(field)
        X = regular_comodule_algebra(H, "right")
        report = verify_comodule_algebra(X)
        assert report.passed, report.render()


def test_regular_left_comodule_algebra_passes(field):
    H = h2(field)
    X = regular_comodule_algebra(H, "left")
    report = verify_comodule_algebra(X)
    assert report.passed, report.render()


def test_broken_coaction_fails_counit():
    H = kz2(QQ)
    bad = LinMap.from_function(QQ, (2,), (2, 2), lambda idx: {(0, idx[0]): QQ.one})
    X = ComoduleAlgebra(H, "right", H.alg, bad, H.reassoc, H.reassoc_inv)
    report = verify_comodule_algebra(X)
    assert not report.passed
    failed = {r.check_id for r in report.records if not r.passed}
    assert "coaction-counit" in failed


def unit_witness(X):
    spaces = (X.alg, X.H.alg) if X.side == "right" else (X.H.alg, X.alg)
    unit = unit_tensor(spaces)
    return TwistWitness(X, unit, unit)


def random_witness(X, rng):
    """Normalized invertible witness: conjugation image of the coaction
    by a group-like-free random element, repaired to pass the counit."""
    H = X.H
    field = X.field
    spaces = (X.alg, H.alg) if X.side == "right" else (H.alg, X.alg)
    dims = tuple(s.dim for s in spaces)
    leg = 1 if X.side == "right" else 0
    unit2 = unit_tensor(spaces)
    while True:
        data = {idx: field.random(rng) for idx in all_indices(dims)}
        t = Tensor(field, dims, data)
        contracted = apply_linear_map(H.counit, t, (leg,))
        if X.side == "right":
            t = t + (X.alg.unit - contracted).outer(H.alg.unit)
        else:
            t = t + H.alg.unit.outer(X.alg.unit - contracted)
        if apply_linear_map(H.counit, t, (leg,)) != X.alg.unit:
            continue
        try:
            inv = invert_element(spaces, t)
        except NotInvertible:
            continue
        return TwistWitness(X, t, inv)


def test_twist_by_unit_is_identity(field):
    H = h2(field)
    X = regular_comodule_algebra(H, "right")
    Y = twist_comodule_algebra(X, unit_witness(X))
    assert Y.reassoc == X.reassoc
    for i in range(X.alg.dim):
        assert Y.coaction.column((i,)) == X.coaction.column((i,))


@pytest.mark.parametrize("side", ["right", "left"])
def test_twist_untwist_roundtrip(field, side):
    H = h2(field)
    X = regular_comodule_algebra(H, side)
    rng = random.Random(5)
    V = random_witness(X, rng)
    Y = twist_comodule_algebra(X, V)
    back = twist_comodule_algebra(Y, V.inverse_witness())
    assert back.reassoc == X.reassoc
    assert back.reassoc_inv == X.reassoc_inv
    for i in range(X.alg.dim):
        assert back.coaction.column((i,)) == X.coaction.column((i,))


@pytest.mark.parametrize("side", ["right", "left"])
def test_twisted_comodule_algebra_passes(field, side):
    H = h2(field)
    X = regular_comodule_algebra(H, side)
    rng = random.Random(13)
    Y = twist_comodule_algebra(X, random_witness(X, rng))
    report = verify_comodule_algebra(Y)
    assert report.passed, report.render()


def test_twist_composition_is_group_action():
    H = h2(QQ)
    X = regular_comodule_algebra(H, "right")
    rng = random.Random(17)
    V1 = random_witness(X, rng)
    Y1 = twist_comodule_algebra(X, V1)
    V2 = random_witness(Y1, rng)
    Y2 = twist_comodule_algebra(Y1, V2)
    spaces = (X.alg, H.alg)
    from quasihopf.tensor import multiply
    combined = TwistWitness(X, multiply(spaces, V2.t, V1.t),
                            multiply(spaces, V1.inv, V2.inv))
    Y2b = twist_comodule_algebra(X, combined)
    assert Y2.reassoc == Y2b.reassoc
    for i in range(X.alg.dim):
        assert Y2.coaction.column((i,)) == Y2b.coaction.column((i,))


def test_witness_not_normalized_rejected(field):
    H = h2(field)
    X = regular_comodule_algebra(H, "right")
    t = unit_tensor((X.alg, H.alg)).scale(field.from_int(2))
    with pytest.raises(WitnessNotNormalized):
        TwistWitness(X, t, invert_element((X.alg, H.alg), t))


def test_gauge_transport_identity(field):
    from quasihopf.hopf import GaugeTransformation
    H = h2(field)
    X = regular_comodule_algebra(H, "right")
    unit = unit_tensor(H.spaces(2))
    F = GaugeTransformation(H, unit, unit)
    Y, H_f = gauge_twist_comodule_algebra(X, F)
    assert Y.reassoc == X.reassoc


def test_gauge_transport_by_canonical_twist_passes(field):
    H = h2(field)
    X = regular_comodule_algebra(H, "right")
    F = drinfeld_twist(H)
    Y, H_f = gauge_twist_comodule_algebra(X, F)
    report = verify_comodule_algebra(Y)
    assert report.passed, report.render()
    # the middle counit still collapses the twisted reassociator
    assert apply_linear_map(H.counit, Y.reassoc, (1,)) == \
        unit_tensor((X.alg, H.alg))


@pytest.mark.parametrize("kind", ["cop", "opcop", "op"])
@pytest.mark.parametrize("side", ["left", "right"])
def test_comodule_variants_pass(field, kind, side):
    H = h2(field)
    X = regular_comodule_algebra(H, side)
    Y = comodule_variant(X, kind)
    report = verify_comodule_algebra(Y)
    assert report.passed, (kind, side, report.render())


def test_comodule_variant_cop_involution(field):
    H = h2(field)
    X = regular_comodule_algebra(H, "left")
    back = comodule_variant(comodule_variant(X, "cop"), "cop")
    assert back.side == "left"
    assert back.reassoc == X.reassoc
    for i in range(X.alg.dim):
        assert back.coaction.column((i,)) == X.coaction.column((i,))


def test_antipode_flip_trivial_for_hopf(field):
    H = kz2(field)
    X = regular_comodule_algebra(H, "left")
    Y = comodule_variant(X, "op-antipode")
    assert Y.side == "right"
    assert Y.reassoc == unit_tensor((X.alg, H.alg, H.alg))


def test_antipode_flip_passes_over_opposite(field):
    H = h2(field)
    X = regular_comodule_algebra(H, "left")
    Y = comodule_variant(X, "op-antipode")
    report = verify_comodule_algebra(Y)
    assert report.passed, report.render()
    # the flipped coaction composes the antipode inverse into the output leg
    for i in range(H.dim):
        expect = X.coaction.column((i,))
        expect = apply_linear_map(H.antipode_inv, expect, (0,))
        assert Y.coaction.column((i,)) == switch_legs(expect, (1, 0))


def test_canonical_elements_trivial_for_hopf(field):
    H = kz2(field)
    X = regular_comodule_algebra(H, "left")
    elements = canonical_elements(X)
    assert elements.p.t == unit_tensor((H.alg, H.alg))
    assert elements.q.t == unit_tensor((H.alg, H.alg))
    assert elements.report.passed, elements.report.render()


def test_canonical_elements_identities_regular(field):
    H = h2(field)
    X = regular_comodule_algebra(H, "left")
    elements = canonical_elements(X)
    assert elements.report.passed, elements.report.render()


def test_canonical_right_element_formula(field):
    H = h2(field)
    X = regular_comodule_algebra(H, "right")
    elements = canonical_elements(X)
    assert elements.q_right is not None
    assert elements.report.passed, elements.report.render()


def test_bicomodule_regular_passes(field):
    for make in (kz2, h2):
        A = hh_bicomodule(field, make(field))
        report = verify_bicomodule_algebra(A)
        assert report.passed, report.render()


def test_bicomodule_zero_padded_mixed_fails():
    A = hh_bicomodule(QQ)
    broken = BicomoduleAlgebra(
        A.H, A.alg, A.left_coaction, A.right_coaction, A.reassoc_left,
        A.reassoc_right,
        Tensor(QQ, A.reassoc_mixed.dims, {(0, 0, 0): QQ.one}),
        A.reassoc_left_inv, A.reassoc_right_inv,
        Tensor(QQ, A.reassoc_mixed.dims, {(0, 0, 0): QQ.one}))
    report = verify_bicomodule_algebra(broken)
    assert not report.passed
    failed = {r.check_id for r in report.records if not r.passed}
    assert failed & {"mixed-intertwine", "mixed-pentagon-left",
                     "mixed-pentagon-right"}


@pytest.mark.parametrize("kind", ["cop", "opcop", "op"])
def test_bicomodule_variants_pass(field, kind):
    A = hh_bicomodule(field)
    B = bicomodule_variant(A, kind)
    report = verify_bicomodule_algebra(B)
    assert report.passed, (kind, report.render())


def test_bicomodule_cop_involution(field):
    A = hh_bicomodule(field)
    back = bicomodule_variant(bicomodule_variant(A, "cop"), "cop")
    assert back.reassoc_left == A.reassoc_left
    assert back.reassoc_right == A.reassoc_right
    assert back.reassoc_mixed == A.reassoc_mixed
    for i in range(A.alg.dim):
        assert back.left_coaction.column((i,)) == A.left_coaction.column((i,))
        assert back.right_coaction.column((i,)) == A.right_coaction.column((i,))


def test_bicomodule_opcop_reverses_reassociators(field):
    A = hh_bicomodule(field)
    B = bicomodule_variant(A, "opcop")
    assert B.reassoc_mixed == switch_legs(A.reassoc_mixed, (2, 1, 0))


def test_left_realizations_pass(field):
    A = hh_bicomodule(field)
    first, second, base = bicomodule_to_left_tensor_op(A)
    for X in (first, second):
        report = verify_comodule_algebra(X)
        assert report.passed, report.render()


def test_left_realizations_unital_coaction(field):
    A = hh_bicomodule(field)
    first, second, base = bicomodule_to_left_tensor_op(A)
    for X in (first, second):
        img = apply_linear_map(X.coaction, A.alg.unit, (0,))
        assert img == base.alg.unit.outer(A.alg.unit)


def test_right_realizations_pass_and_witness_found(field):
    A = hh_bicomodule(field)
    first, second, base = bicomodule_to_right_op_tensor(A)
    for X in (first, second):
        rep = verify_comodule_algebra(X)
        assert rep.passed, rep.render()
    witness, report = realization_twist_witness(A, first, second)
    assert witness is not None, report.render()
    assert report.passed, report.render()


def test_realizations_share_the_square_cached_on_their_base(field):
    A = hh_bicomodule(field)
    assert right_realization(A, 1).H is right_realization(A, 2).H \
        is bicomodule_to_right_op_tensor(A)[2] is op_tensor(A.H)
    assert bicomodule_to_left_tensor_op(A)[2] is tensor_op(A.H)


def test_a_base_is_freed_by_reference_counting(field):
    # nothing cached on a base refers back to it, so with the cyclic
    # collector off the base and its cache go with their last user
    gc.disable()
    try:
        A = hh_bicomodule(field, h2(field))
        X = right_realization(A, 2)
        base = weakref.ref(A.H)
        del A, X
        assert base() is None
    finally:
        gc.enable()


def test_right_realizations_hopf_collapse(field):
    # in the ordinary Hopf case both reassociators collapse to the unit
    H = kz2(field)
    A = hh_bicomodule(field, H)
    first, second, base = bicomodule_to_right_op_tensor(A)
    assert first.reassoc == unit_tensor(first.reassoc_spaces())
    assert second.reassoc == unit_tensor(second.reassoc_spaces())
    # the second coaction pairs the antipode-flipped left leg with the
    # right leg of the two-sided coaction
    for i in range(H.dim):
        e = second.coaction.column((i,)).split(1, (H.dim, H.dim))
        lam = apply_linear_map(H.comult, Tensor.basis(field, (H.dim,), (i,)), (0,))
        two = apply_linear_map(H.comult, lam, (1,))
        expect = apply_linear_map(H.antipode_inv, two, (0,))
        expect = switch_legs(expect, (1, 0, 2))
        assert e == expect


def test_internal_coalgebra_roundtrip(field):
    for make in (kz2, h2):
        H = make(field)
        X = regular_comodule_algebra(H, "left")
        internal = internal_coalgebra(X)
        report = internal.verify()
        assert report.passed, report.render()


def test_internal_coalgebra_roundtrip_names_the_basis_vector(field):
    # a doubled left action doubles the recovered coaction: the failing
    # record names the first basis vector and shows both sides
    H = h2(field)
    internal = internal_coalgebra(regular_comodule_algebra(H, "left"))
    two = field.one + field.one
    act = internal.left_action
    internal.left_action = LinMap(field, act.src, act.dst, {
        idx: {j: two * v for j, v in img.items()} for idx, img in act.cols.items()})
    report = internal.verify()
    assert [r.check_id for r in report.records if not r.passed] == ["roundtrip-coaction"]
    record = report.first_failure()
    assert record.witness == (0,)
    assert record.lhs == record.rhs.scale(two) != record.rhs


def test_internal_coalgebra_counit_formula(field):
    H = h2(field)
    X = regular_comodule_algebra(H, "left")
    internal = internal_coalgebra(X)
    for b in range(H.dim):
        for h in range(H.dim):
            expect = Tensor(field, (H.dim,),
                            {(b,): H.counit_scalar(h)})
            assert internal.counit.column((b, h)) == expect


def test_internal_coalgebra_trivial_comultiplication(field):
    # with a trivial reassociator the comultiplication splits the base leg
    H = kz2(field)
    X = regular_comodule_algebra(H, "left")
    internal = internal_coalgebra(X)
    for b in range(H.dim):
        for h in range(H.dim):
            two = apply_linear_map(H.comult, Tensor.basis(field, (H.dim,), (h,)), (0,))
            expect = Tensor(field, (H.dim, H.dim, H.dim))
            for (h1, h2), v in two.data.items():
                expect = expect + Tensor(field, (H.dim, H.dim, H.dim),
                                         {(h1, b, h2): v})
            assert internal.comult.column((b, h)) == expect


def test_internal_coalgebra_right_side_reflected(field):
    H = h2(field)
    X = regular_comodule_algebra(H, "right")
    internal = internal_coalgebra(X)
    report = internal.verify()
    assert report.passed, report.render()


def _raise_type_error(*args, **kwargs):
    raise TypeError("injected kernel fault")


def test_witness_search_propagates_non_package_errors(field, monkeypatch):
    # only package errors mean "not a witness"; anything else is a fault
    A = hh_bicomodule(field)
    first, second, _ = bicomodule_to_right_op_tensor(A)
    monkeypatch.setattr(comodule, "TwistWitness", _raise_type_error)
    with pytest.raises(TypeError, match="injected"):
        realization_twist_witness(A, first, second)


def test_internal_coalgebra_verify_propagates_non_package_errors(field, monkeypatch):
    internal = internal_coalgebra(regular_comodule_algebra(h2(field), "left"))
    monkeypatch.setattr(comodule, "invert_element", _raise_type_error)
    with pytest.raises(TypeError, match="injected"):
        internal.verify()


# -- invertibility checks that a wrong inverse cannot pass ---------------------

def fooling_pair(H):
    """Over Sweedler's algebra, Phi = 1 x 1 x g and Psi = Phi + 3 (1 x 1 x x):
    Phi Psi = 1 + 3 (1 x 1 x gx) and Psi Phi = 1 - 3 (1 x 1 x gx) sum to 2,
    so only products compared with 1 one at a time expose Psi.  Returns
    (Phi, Psi, Phi Psi)."""
    field = H.field
    one_one = unit_tensor(H.spaces(2))
    phi = one_one.outer(Tensor.basis(field, (4,), (1,)))
    psi = phi + one_one.outer(Tensor.basis(field, (4,), (2,))).scale(field.from_int(3))
    gx = one_one.outer(Tensor.basis(field, (4,), (3,)))
    unit3 = unit_tensor(H.spaces(3))
    assert multiply(H.spaces(3), phi, psi) + multiply(H.spaces(3), psi, phi) == unit3 + unit3
    return phi, psi, unit3 + gx.scale(field.from_int(3))


def test_reassoc_invertible_takes_each_product(field):
    H = sweedler(field)
    phi, psi, phi_psi = fooling_pair(H)
    X = ComoduleAlgebra(H, "right", H.alg, H.comult, phi, psi)
    record = {r.check_id: r for r in verify_comodule_algebra(X).records}[
        "reassoc-invertible"]
    assert not record.passed
    assert (record.lhs, record.rhs) == (phi_psi, unit_tensor(H.spaces(3)))


def test_mixed_invertible_takes_each_product(field):
    H = sweedler(field)
    phi, psi, phi_psi = fooling_pair(H)
    unit3 = unit_tensor(H.spaces(3))
    A = BicomoduleAlgebra(H, H.alg, H.comult, H.comult, unit3, unit3, phi,
                          unit3, unit3, psi)
    record = {r.check_id: r for r in verify_bicomodule_algebra(A).records}[
        "mixed-invertible"]
    assert not record.passed
    assert (record.lhs, record.rhs) == (phi_psi, unit3)
