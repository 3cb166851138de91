import pytest

from quasihopf.coring import Coring, build_coring, trivial_coring, verify_coring
from quasihopf.doihopf import CoringComodule, verify_coring_comodule
from quasihopf.errors import ShapeMismatch
from quasihopf.fields import QQ
from quasihopf.fixtures import (c2, h2, h2_bimodule_coalgebra, hh_bicomodule,
                                kz2, regular_comodule_algebra)
from quasihopf.modcoalg import ModuleCoalgebra
from quasihopf.tensor import LinMap, Tensor

from tensor_case import from_function


def left_trivial_coalgebra(field, H):
    base = c2(field, H)
    action = from_function(
        field, (H.dim, 2), (2,),
        lambda idx: {(idx[1],): H.counit_scalar(idx[0])})
    return ModuleCoalgebra(H, "left", 2, base.comult, base.counit,
                           left_action=action, name="c2-left")


def test_trivial_coring_passes(field):
    H = h2(field)
    X = trivial_coring(H.alg)
    report = verify_coring(X)
    assert report.passed, report.render()


@pytest.mark.parametrize("make", [kz2, h2])
def test_bc_coring_passes(field, make):
    H = make(field)
    B = regular_comodule_algebra(H, "left")
    C = c2(field, H)
    X = build_coring("BC", B=B, C=C)
    report = verify_coring(X)
    assert report.passed, report.render()


def test_bc_coring_counit_formula(field):
    H = h2(field)
    B = regular_comodule_algebra(H, "left")
    C = c2(field, H)
    X = build_coring("BC", B=B, C=C)
    dC = C.dim
    for b in range(H.dim):
        for c in range(dC):
            eps = C.counit.column((c,)).get(())
            expect = Tensor(field, (H.dim,), {(b,): eps})
            assert X.counit.column((b * dC + c,)) == expect


@pytest.mark.parametrize("make", [kz2, h2])
def test_ca_coring_passes(field, make):
    H = make(field)
    A = regular_comodule_algebra(H, "right")
    C = left_trivial_coalgebra(field, H)
    X = build_coring("CA", A=A, C=C)
    report = verify_coring(X)
    assert report.passed, report.render()


@pytest.mark.parametrize("make", [kz2, h2])
def test_yd_coring_passes(field, make):
    H = make(field)
    A = hh_bicomodule(field, H)
    C = h2_bimodule_coalgebra(field, H)
    X = build_coring("YD", A=A, C=C)
    report = verify_coring(X)
    assert report.passed, report.render()


def test_perturbed_comultiplication_fails():
    H = h2(QQ)
    B = regular_comodule_algebra(H, "left")
    C = c2(QQ, H)
    X = build_coring("BC", B=B, C=C)

    def bad_comult(idx):
        col = X.comult.column(idx)
        col = col + Tensor(QQ, col.dims, {(0, 1): QQ.one})
        return col

    broken = Coring(X.R, X.dim, X.left_action, X.right_action,
                    from_function(QQ, (X.dim,), (X.dim, X.dim), bad_comult),
                    X.counit)
    report = verify_coring(broken)
    assert not report.passed
    failed = {r.check_id for r in report.records if not r.passed}
    assert failed & {"coassociative", "comult-bilinear", "counit-law"}
    rec = report.first_failure()
    assert rec is not None and rec.witness is not None


def test_carrier_free_on_neither_side_is_rejected(field):
    # the base ring acting through its counit on both sides of k^2: the
    # carrier is free over h2 on neither side
    H = h2(field)
    X = trivial_coring(H.alg)
    counit_action = {(r, c): {(c,): H.counit_scalar(r)} for r in range(2) for c in range(2)}
    left = LinMap(field, (2, 2), (2,), counit_action)
    right = LinMap(field, (2, 2), (2,), {(c, r): img for (r, c), img in counit_action.items()})
    with pytest.raises(ShapeMismatch):
        Coring(X.R, 2, left, right, X.comult, X.counit)
    # one free side is enough
    Coring(X.R, 2, left, X.right_action, X.comult, X.counit)
    Coring(X.R, 2, X.left_action, right, X.comult, X.counit)


def test_coring_comodule_needs_a_left_free_coring(field):
    # the CA coring is free on the right only, so it has no right comodules
    H = h2(field)
    X = build_coring("CA", A=regular_comodule_algebra(H, "right"),
                     C=left_trivial_coalgebra(field, H))
    with pytest.raises(ShapeMismatch):
        verify_coring_comodule(CoringComodule(X, X.dim, X.right_action, X.comult))
