"""Differential tests of the closed-form reassociators and their
inverses: the realizations of a bicomodule algebra, the antipode side
flip, the exchange element of the diagonal crossed products, and the
twist witness between the two right realizations.

Each closed form must be a two-sided inverse; where the algebra has at
most 32 basis elements it must also equal the exact linear solve.  Each
forward reassociator, a product of factors in a stated order, must equal
the pipeline evaluated on the outer product of all its factors.  The
bases are h2 and one-term gauge twists of Sweedler's algebra, which is
neither commutative nor cocommutative, so a wrong factor order fails.
"""

import sys

import pytest

from quasihopf import comodule, linalg, smash, tensor
from quasihopf.comodule import (BicomoduleAlgebra, bicomodule_to_left_tensor_op,
                                bicomodule_to_right_op_tensor, comodule_variant,
                                realization_twist_witness, verify_comodule_algebra)
from quasihopf.errors import NotInvertible
from quasihopf.fields import QQ, PrimeField
from quasihopf.fixtures import h2, h2_bimodule_coalgebra, hh_bicomodule
from quasihopf.hopf import GaugeTransformation, gauge_twist, tensor_qha
from quasihopf.smash import build_omega, check_prop_3_10
from quasihopf.tensor import (Tensor, embed_legs, invert_element, multiply,
                              switch_legs, unit_tensor)

from test_hopf import sweedler

F = PrimeField(10007)


def xx_gauge(H, c, second=2):
    """F = 1 (x) 1 + c x (x) y with inverse 1 (x) 1 - c x (x) y, where y is
    x or gx (basis 2 or 3): the square of x (x) y is 0."""
    unit = unit_tensor(H.spaces(2))
    xy = Tensor(H.field, (H.dim, H.dim), {(2, second): H.field.from_int(c)})
    return GaugeTransformation(H, unit + xy, unit - xy)


def twisted_sweedler(c, second=2):
    H = sweedler(F)
    return gauge_twist(H, xx_gauge(H, c, second))


def transported(H, G):
    """The regular bicomodule algebra of H moved onto the base twisted by
    G: coactions kept, the one-sided reassociators gauged, so the three
    reassociators are pairwise different."""
    sp = H.spaces(3)
    left = multiply(sp, H.reassoc, embed_legs(sp, G.inv, (0, 1)))
    left_inv = multiply(sp, embed_legs(sp, G.t, (0, 1)), H.reassoc_inv)
    right = multiply(sp, embed_legs(sp, G.t, (1, 2)), H.reassoc)
    right_inv = multiply(sp, H.reassoc_inv, embed_legs(sp, G.inv, (1, 2)))
    return BicomoduleAlgebra(gauge_twist(H, G), H.alg, H.comult, H.comult,
                             left, right, H.reassoc, left_inv, right_inv,
                             H.reassoc_inv, name="transported")


CASES = {
    "h2-rationals": lambda: hh_bicomodule(QQ),
    "h2-fp10007": lambda: hh_bicomodule(F),
    "sweedler-xx3": lambda: hh_bicomodule(F, twisted_sweedler(3)),
    "sweedler-xx5": lambda: hh_bicomodule(F, twisted_sweedler(5)),
    "sweedler-xx-2": lambda: hh_bicomodule(F, twisted_sweedler(-2)),
    "sweedler-xgx4": lambda: hh_bicomodule(F, twisted_sweedler(4, second=3)),
    "sweedler-transported": lambda: transported(twisted_sweedler(3),
                                                xx_gauge(twisted_sweedler(3), 5)),
}


@pytest.fixture(params=sorted(CASES), scope="module")
def bicomodule(request):
    return CASES[request.param]()


def size(spaces):
    n = 1
    for s in spaces:
        n *= s.dim
    return n


def assert_inverse_pair(spaces, x, x_inv):
    unit = unit_tensor(spaces)
    assert multiply(spaces, x, x_inv) == unit
    assert multiply(spaces, x_inv, x) == unit
    if size(spaces) <= 32:
        assert x_inv == invert_element(spaces, x)


def realizations(A):
    first, second, _ = bicomodule_to_right_op_tensor(A)
    left_first, left_second, _ = bicomodule_to_left_tensor_op(A)
    return {"rho1": first, "rho2": second, "lam1": left_first, "lam2": left_second,
            "sflip": comodule_variant(A.left(), "op-antipode")}


@pytest.mark.parametrize("which", ["rho1", "rho2", "lam1", "lam2", "sflip"])
def test_realization_reassociator_inverse(bicomodule, which):
    X = realizations(bicomodule)[which]
    assert_inverse_pair(X.reassoc_spaces(), X.reassoc, X.reassoc_inv)


@pytest.mark.parametrize("kind", ["l", "r"])
def test_exchange_element_inverse(bicomodule, kind):
    A = bicomodule
    H = A.H
    op = H.alg.opposite()
    data = build_omega(A, kind)
    assert_inverse_pair((H.alg, H.alg, A.alg, H.alg, H.alg), data.psi, data.psi_inv)
    # omega_right is inverted with legs 0 and 1 in the opposite algebra
    assert_inverse_pair((op, op, A.alg, H.alg, H.alg),
                        data.omega_right, data.omega_right_inv)


def test_reshuffle_into_realizations(bicomodule):
    # the identity behind prop 3.10's reassoc-reshuffle records
    A = bicomodule
    first, second, _ = bicomodule_to_right_op_tensor(A)
    for one_sided, kind in ((first, "l"), (second, "r")):
        tilde = build_omega(A, kind).omega_right_inv
        assert switch_legs(tilde, (2, 1, 3, 0, 4)).fuse([[0], [1, 2], [3, 4]]) \
            == one_sided.reassoc


@pytest.mark.parametrize("kind", ["l", "r"])
def test_omega_right_is_not_inverted_in_the_plain_algebra(kind):
    # on a non-commutative base the opposite legs matter: the inverse in
    # H x H x A x H x H is a different element, and its reshuffle is not
    # the realization's reassociator
    A = CASES["sweedler-xx3"]()
    H = A.H
    sp5 = (H.alg, H.alg, A.alg, H.alg, H.alg)
    data = build_omega(A, kind)
    assert multiply(sp5, data.omega_right, data.omega_right_inv) != unit_tensor(sp5)


def test_prop_3_10_passes_on_twisted_sweedler():
    A = CASES["sweedler-xx3"]()
    C = h2_bimodule_coalgebra(F, A.H)
    report = check_prop_3_10(A, C)
    assert report.passed, report.render()


@pytest.mark.parametrize("table", ["reassoc_left", "reassoc_right", "reassoc_mixed"])
def test_stale_stated_inverse_is_rejected(table):
    # a reassociator whose stated inverse no longer inverts it: the closed
    # forms would be no inverses, so every construction refuses the input
    A = hh_bicomodule(F)
    bumped = getattr(A, table) + Tensor(F, (2, 2, 2), {(0, 0, 0): F.from_int(3)})
    tables = {name: getattr(A, name) for name in (
        "reassoc_left", "reassoc_right", "reassoc_mixed", "reassoc_left_inv",
        "reassoc_right_inv", "reassoc_mixed_inv")}
    tables[table] = bumped
    stale = BicomoduleAlgebra(A.H, A.alg, A.left_coaction, A.right_coaction, **tables)
    for build in (bicomodule_to_right_op_tensor, bicomodule_to_left_tensor_op,
                  lambda X: build_omega(X, "l"), lambda X: build_omega(X, "r")):
        with pytest.raises(NotInvertible):
            build(stale)
    if table == "reassoc_left":
        with pytest.raises(NotInvertible):
            comodule_variant(stale.left(), "op-antipode")


def test_no_inverse_pair_is_multiplied_on_the_full_space(monkeypatch):
    # each stated inverse is checked against its own factor instead:
    # build_omega multiplies only factors that sit on some of its five
    # legs, and no realization multiplies a finished reassociator by its
    # inverse (each of its products takes one factor image)
    A = CASES["sweedler-transported"]()
    calls, pairs = [], []
    real_multiply, real_pair = tensor.multiply, comodule._reassoc_pair

    def counted(spaces, x, y, x_legs=None, y_legs=None):
        if x_legs is None and y_legs is None:
            calls.append((len(spaces), x, y))
        return real_multiply(spaces, x, y, x_legs=x_legs, y_legs=y_legs)

    def spy(*args):
        pair = real_pair(*args)
        pairs.append(pair)
        return pair

    for module in (tensor, comodule, smash):
        monkeypatch.setattr(module, "multiply", counted)
    monkeypatch.setattr(comodule, "_reassoc_pair", spy)
    for kind in ("l", "r"):
        build_omega(A, kind)
    assert [n for n, _, _ in calls if n == 5] == []
    realizations(A)
    assert len(pairs) == 5
    for re, inv in pairs:
        assert not any((x, y) in ((re, inv), (inv, re)) for _, x, y in calls)


@pytest.fixture
def reassoc_pairs(monkeypatch):
    """Spy on every reassociator the realizations build: the pipeline,
    its factors and the returned pair, in call order."""
    calls = []
    original = comodule._reassoc_pair

    def spy(spaces, pipeline, factors, *rest):
        pair = original(spaces, pipeline, factors, *rest)
        calls.append((pipeline, factors, pair[0]))
        return pair

    monkeypatch.setattr(comodule, "_reassoc_pair", spy)
    return calls


def onto_tensor_op(t, d):
    """The opcop reflection of a right realization's reassociator over
    H^op (x) H, with the factors of the square (base dimension d) swapped
    onto H (x) H^op."""
    def swap(k):
        return (k % d) * d + k // d

    return Tensor(t.field, t.dims[::-1], {
        (swap(h2), swap(h1), a): v for (a, h1, h2), v in t.data.items()})


def test_forward_reassociator_is_the_dense_pipeline(bicomodule, reassoc_pairs):
    # ``order`` decides the forward reassociator: the product of the
    # factors in that order must equal the pipeline evaluated on the outer
    # product of all of them, which is kept here only as the reference.
    # lam1 and lam2 are built as rho2 and rho1 of the opcop reflection of
    # the bicomodule algebra, so their spied reassociators are compared
    # through the same reflection
    built = realizations(bicomodule)
    assert len(reassoc_pairs) == len(built) == 5
    for name, (pipeline, factors, forward) in zip(
            ("rho1", "rho2", "lam1", "lam2", "sflip"), reassoc_pairs):
        assert forward == pipeline(*factors), name
        if name in ("lam1", "lam2"):
            forward = onto_tensor_op(forward, bicomodule.H.dim)
        assert forward == built[name].reassoc, name
    for name, X in built.items():
        report = verify_comodule_algebra(X)
        assert report.passed, (name, report.render())


def _refuse(*args, **kwargs):
    raise AssertionError("a dense linear solve was called")


def _forbid_solves(monkeypatch):
    monkeypatch.setattr(linalg, "solve", _refuse)
    monkeypatch.setattr(linalg, "nullspace", _refuse)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "quasihopf" and \
                getattr(module, "invert_element", None) is tensor.invert_element:
            monkeypatch.setattr(module, "invert_element", _refuse)


def assert_realizations_without_solves(A, monkeypatch):
    _forbid_solves(monkeypatch)
    first, second, _ = bicomodule_to_right_op_tensor(A)
    bicomodule_to_left_tensor_op(A)
    witness, report = realization_twist_witness(A, first, second)
    assert witness is not None, report.render()
    assert [(r.check_id, r.passed) for r in report.records] == [
        ("witness-found", True), ("witness-is-reshuffled-mixed-reassoc", True)]


def test_realizations_and_witness_make_no_solve(bicomodule, monkeypatch):
    assert_realizations_without_solves(bicomodule, monkeypatch)


def test_realizations_over_a_dim_4_base(monkeypatch):
    # over h2 (x) h2 each reassociator has 64 entries; the realizations
    # and the witness come from closed forms, without forming the outer
    # product of all the factors and without a linear solve
    A = hh_bicomodule(F, tensor_qha(h2(F), h2(F)))
    assert_realizations_without_solves(A, monkeypatch)


@pytest.mark.parametrize("bump", [
    {(0, 0, 0): 3},                 # the candidate is not counit-normalized
    {(0, 0, 0): 3, (1, 0, 1): -3},  # normalized, but does not twist rho1 to rho2
], ids=["one-entry", "balanced-pair"])
def test_witness_fails_on_a_bumped_mixed_reassociator(bump):
    # the inverse is solved for, so the realizations still build
    A = hh_bicomodule(F)
    bumped = A.reassoc_mixed + Tensor(F, (2, 2, 2), {
        idx: F.from_int(c) for idx, c in bump.items()})
    B = BicomoduleAlgebra(A.H, A.alg, A.left_coaction, A.right_coaction,
                          A.reassoc_left, A.reassoc_right, bumped,
                          A.reassoc_left_inv, A.reassoc_right_inv,
                          invert_element(A.mixed_spaces(), bumped))
    first, second, _ = bicomodule_to_right_op_tensor(B)
    witness, report = realization_twist_witness(B, first, second)
    assert witness is None
    assert [(r.check_id, r.passed) for r in report.records] == [
        ("witness-found", False)]
