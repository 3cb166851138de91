"""The mirrored constructions against their hand-traced references.

The right generalized smash, the CA coring, the left diagonal crossed
products and the left realizations are each built as the opcop
reflection of their native twin.  On every base of
``test_closed_inverses.CASES`` each must equal the leg pipeline of
``mirror_case`` entry for entry: tables, units and embeddings of the
products; actions, comultiplication and counit of the corings; and
coactions, reassociators and inverses of the realizations.  The "r"
exchange data, the cop mirror of the "l" data, must equal their own
pipeline on every base too.  On a twisted Sweedler base, which is
neither commutative nor cocommutative, a wrong pairing (the cop
reflection, or the other coaction order or realization) gives a
different structure, and the op / cop / opcop reassociators of every
reflection must equal the one-branch-per-kind reference.
"""

import pytest

from quasihopf import comodule, smash
from quasihopf.comodule import (bicomodule_to_left_tensor_op, bicomodule_variant,
                                comodule_variant, right_realization)
from quasihopf.coring import build_coring
from quasihopf.fixtures import h2_bimodule_coalgebra, regular_comodule_algebra
from quasihopf.hopf import op_tensor, tensor_op, variant
from quasihopf.modcoalg import (ModuleCoalgebra, bimodule_to_op_tensor_module_coalgebra,
                                dualize)
from quasihopf.smash import build_omega, diagonal_crossed_product, right_generalized_smash

from mirror_case import (reference_bicomodule_reassociators, reference_coring_ca,
                         reference_exchange_right, reference_left_diagonal,
                         reference_left_tensor_op, reference_reflected_reassociators,
                         reference_right_generalized_smash)
from test_closed_inverses import CASES

NAMES = sorted(CASES)


def over_square(A):
    return bimodule_to_op_tensor_module_coalgebra(h2_bimodule_coalgebra(A.field, A.H),
                                                  base=op_tensor(A.H))


def product_parts(P):
    emb = P.sub_embedding
    return (P.provenance, P.factor_dims, P.carrier.mult, P.carrier.unit,
            P.carrier.name, emb, P.sub_alg.mult, P.sub_alg.unit)


def coring_parts(X):
    return (X.name, X.R.mult, X.R.unit, X.dim, X.left_action, X.right_action,
            X.comult, X.counit)


def comodule_parts(X):
    return (X.name, X.side, X.alg.mult, X.alg.unit, X.coaction, X.reassoc, X.reassoc_inv)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("k", [1, 2])
def test_rsmash_is_the_reference(name, k):
    A = CASES[name]()
    C = over_square(A)
    realized = right_realization(A, k)
    P = dualize(C)
    assert product_parts(right_generalized_smash(realized, P)) == \
        product_parts(reference_right_generalized_smash(realized, P))


def ca_inputs(name, which):
    A = CASES[name]()
    if which == "regular":
        C = h2_bimodule_coalgebra(A.field, A.H)
        C_left = ModuleCoalgebra(A.H, "left", C.dim, C.comult, C.counit,
                                 left_action=C.left_action, name="h2-left")
        return regular_comodule_algebra(A.H, "right"), C_left
    C = over_square(A)
    return right_realization(A, int(which[-1])), C


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("which", ["rho1", "rho2", "regular"])
def test_ca_coring_is_the_reference(name, which):
    A, C = ca_inputs(name, which)
    assert coring_parts(build_coring("CA", A=A, C=C)) == \
        coring_parts(reference_coring_ca(A, C))


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("order", ["l", "r"])
def test_left_diagonal_is_the_reference(name, order):
    A = CASES[name]()
    M = dualize(h2_bimodule_coalgebra(A.field, A.H))
    assert product_parts(diagonal_crossed_product(A, M, "left-" + order)) == \
        product_parts(reference_left_diagonal(A, M, order))


@pytest.mark.parametrize("name", NAMES)
def test_left_realizations_are_the_reference(name):
    A = CASES[name]()
    base = tensor_op(A.H)
    built = bicomodule_to_left_tensor_op(A)
    want = reference_left_tensor_op(A, base)
    assert built[2] is base
    for X, Y in zip(built[:2], want[:2]):
        assert X.H is base
        assert comodule_parts(X) == comodule_parts(Y)


@pytest.mark.parametrize("name", NAMES)
def test_right_exchange_data_is_the_reference(name):
    A = CASES[name]()
    data = build_omega(A, "r")
    want = reference_exchange_right(A)
    assert {key: getattr(data, key) for key in want} == want


# wrong pairings on one twisted Sweedler base

def sweedler_case():
    A = CASES["sweedler-xx3"]()
    return A, dualize(h2_bimodule_coalgebra(A.field, A.H))


def mirrored_diagonal(A, M, kind, order):
    """The mirror of the right product of coaction order ``order`` over
    the ``kind`` reflections of A and M, named as left-l."""
    A_mirror = bicomodule_variant(A, kind)
    native = smash._diagonal_product(M.reflect(kind), build_omega(A_mirror, order))
    return smash._mirror(native, "diagonal-left-l(%s,%s)" % (A.name or "A", M.name or "M"),
                         A.alg)


def test_left_diagonal_pairing_is_unique():
    A, M = sweedler_case()
    want = product_parts(reference_left_diagonal(A, M, "l"))
    assert product_parts(mirrored_diagonal(A, M, "opcop", "r")) == want
    assert product_parts(mirrored_diagonal(A, M, "opcop", "l")) != want
    assert product_parts(mirrored_diagonal(A, M, "cop", "r")) != want


def reflected_realization(A, kind, k):
    """The ``kind`` reflection of the k-th right realization of the
    ``kind`` reflection of A, moved onto H (x) H^op and named lam1."""
    mirror = bicomodule_variant(A, kind)
    X = comodule_variant(right_realization(mirror, k), kind)
    return comodule._swap_square_factors(X, A, ":lam1")


def test_left_realization_pairing_is_unique():
    A, _ = sweedler_case()
    want = comodule_parts(reference_left_tensor_op(A)[0])
    assert comodule_parts(reflected_realization(A, "opcop", 2)) == want
    assert comodule_parts(reflected_realization(A, "opcop", 1)) != want
    assert comodule_parts(reflected_realization(A, "cop", 2)) != want


@pytest.mark.parametrize("kind", ["op", "cop", "opcop"])
def test_reflected_reassociators_are_the_reference(kind):
    A, _ = sweedler_case()
    for X, Y in ((A.H, variant(A.H, kind)),
                 (A.left(), comodule_variant(A.left(), kind)),
                 (A.right(), comodule_variant(A.right(), kind))):
        assert (Y.reassoc, Y.reassoc_inv) == \
            reference_reflected_reassociators(kind, X.reassoc, X.reassoc_inv)
    B = bicomodule_variant(A, kind)
    assert (B.reassoc_left, B.reassoc_right, B.reassoc_mixed, B.reassoc_left_inv,
            B.reassoc_right_inv, B.reassoc_mixed_inv) == \
        reference_bicomodule_reassociators(A, kind)
