"""The product tables of ``smash`` against their per-4-tuple references.

Each table runs its pipeline once per basis triple and multiplies the
fourth basis element in from the structure constants of its comodule
algebra.  ``smash_case`` runs one pipeline per basis 4-tuple.  The
tables must be equal on the h2 fixtures over Q and F_10007 and on
Sweedler's algebra over F_10007 (Phi = 1, dim 4), which is neither
commutative nor cocommutative.  Only there does multiplying the fourth
element in on the wrong side give a different table.
"""

import pytest

from quasihopf import smash
from quasihopf.comodule import ComoduleAlgebra
from quasihopf.errors import ShapeMismatch
from quasihopf.fields import QQ, PrimeField
from quasihopf.fixtures import (c2, h2, h2_bimodule_coalgebra, hh_bicomodule,
                                regular_comodule_algebra)
from quasihopf.modcoalg import ModuleCoalgebra, dualize
from quasihopf.smash import (build_omega, generalized_smash, koppinen_smash,
                             stgsm_product)
from quasihopf.tensor import El, FinAlgebra, LinMap

from smash_case import (reference_diagonal_product, reference_diagonal_product_by_triple,
                        reference_generalized_smash, reference_koppinen_smash,
                        reference_stgsm_product)
from test_hopf import sweedler

F = PrimeField(10007)
BASES = {"h2-rationals": lambda: h2(QQ), "h2-fp10007": lambda: h2(F),
         "sweedler-fp10007": lambda: sweedler(F)}


def right_regular(H):
    """The base as a right module coalgebra over itself."""
    return ModuleCoalgebra(H, "right", H.dim, H.comult, H.counit,
                           right_action=H.alg.mult, name="regular")


def tables(H):
    """(name, library table, per-4-tuple reference table) for each table."""
    field = H.field
    left, right = (regular_comodule_algebra(H, side) for side in ("left", "right"))
    for C in (c2(field, H), right_regular(H)):
        yield ("smash", generalized_smash(dualize(C), left),
               reference_generalized_smash(dualize(C), left))
        yield ("koppinen", koppinen_smash(C, left), reference_koppinen_smash(C, left))
        yield ("stgsm", stgsm_product(right, C), reference_stgsm_product(right, C, dualize(C)))
    A = hh_bicomodule(field, H)
    M = dualize(h2_bimodule_coalgebra(field, H))
    for order in ("l", "r"):
        data = build_omega(A, order)
        yield ("diagonal-" + order, smash._diagonal_product(M, data),
               reference_diagonal_product(A, M, data))


def parts(P):
    return (P.provenance, P.factor_dims, P.carrier.mult, P.carrier.unit,
            P.sub_embedding, P.sub_alg)


@pytest.mark.parametrize("base", sorted(BASES))
def test_tables_equal_the_per_tuple_reference(base):
    found = [(name, parts(P) == parts(R)) for name, P, R in tables(BASES[base]())]
    assert found == [(name, True) for name, _ in found]


@pytest.mark.parametrize("base, differs", [("h2-fp10007", False),
                                           ("sweedler-fp10007", True)])
def test_peeling_on_the_wrong_side_shows_only_on_sweedler(monkeypatch, base, differs):
    real = smash._product_from_pairs

    def wrong_side(mult_fn, peel, *args, **kwargs):
        slot, alg, side = peel
        flipped = (slot, alg, "left" if side == "right" else "right")
        return real(mult_fn, flipped, *args, **kwargs)

    monkeypatch.setattr(smash, "_product_from_pairs", wrong_side)
    found = [(name, P.carrier.mult != R.carrier.mult)
             for name, P, R in tables(BASES[base]())]
    # the commutative h2 cannot tell the sides apart
    assert found == [(name, differs) for name, _ in found]


def test_tables_run_one_pipeline_per_basis_triple(monkeypatch):
    real = smash._product_from_pairs
    runs = []

    def spy(mult_fn, *args, **kwargs):
        count = [0]

        def counted(*idx):
            count[0] += 1
            return mult_fn(*idx)

        P = real(counted, *args, **kwargs)
        runs.append(P.factor_dims + (count[0],))
        return P

    monkeypatch.setattr(smash, "_product_from_pairs", spy)
    names = [name for name, _, _ in tables(sweedler(F))]
    assert len(runs) == len(names) == 8
    # the diagonal products peel the first factor, the others the second
    assert runs == [(d1, d2, d2 * d1 * d2 if name.startswith("diagonal") else d1 * d2 * d1)
                    for (d1, d2, _), name in zip(runs, names)]


@pytest.mark.parametrize("base", sorted(BASES))
def test_diagonal_products_read_each_u_once(monkeypatch, base):
    # the part of the diagonal pipeline that reads only u_k runs once per
    # k, and the table equals the one that runs it for every (j, k, l)
    H = BASES[base]()
    A = hh_bicomodule(H.field, H)
    M = dualize(h2_bimodule_coalgebra(H.field, H))
    for order in ("l", "r"):
        data = build_omega(A, order)
        want = parts(reference_diagonal_product_by_triple(A, M, data))
        real = El.basis.__func__
        read = []

        def counted(cls, spaces, idx, legs):
            if spaces == (A.alg,):
                read.append(idx)
            return real(cls, spaces, idx, legs)

        monkeypatch.setattr(El, "basis", classmethod(counted))
        got = parts(smash._diagonal_product(M, data))
        monkeypatch.undo()
        assert got == want
        assert read == [(k,) for k in range(A.alg.dim)]


def test_a_non_associative_carrier_is_not_peeled(field):
    H = h2(field)
    alg = H.alg
    cols = {k: dict(v) for k, v in alg.mult.cols.items()}
    cols[(0, 1)] = {(0,): field.one}                  # 1 g = 1: (g 1) g != g (1 g)
    bent = FinAlgebra(field, 2, LinMap(field, (2, 2), (2,), cols), alg.unit,
                      validate=False)
    assert bent.associativity_witness() is not None
    B = ComoduleAlgebra(H, "left", bent, H.comult, H.reassoc, H.reassoc_inv)
    with pytest.raises(ShapeMismatch, match="not associative"):
        generalized_smash(dualize(c2(field, H)), B)
