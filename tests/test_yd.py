import pytest

from quasihopf.comodule import realization_twist_witness, right_realization
from quasihopf.doihopf import FiniteModule, induce_doi_hopf, verify_doi_hopf
from quasihopf.fixtures import h2, h2_bimodule_coalgebra, hh_bicomodule, kz2
from quasihopf.tensor import LinMap, Tensor, apply_linear_map
from quasihopf.yd import (YetterDrinfeldContext, doihopf_to_yd, induce_yd,
                          verify_yd, yd_adjunction_maps, yd_to_doihopf)

from tensor_case import from_function
from test_doihopf import (ADJUNCTION_CHECKS, assert_only_unit_roundtrip_fails,
                          doubled_coaction)


def make_context(field, make=h2):
    H = make(field)
    A = hh_bicomodule(field, H)
    C = h2_bimodule_coalgebra(field, H)
    return YetterDrinfeldContext(A, C)


def regular_carrier_module(ctx):
    A = ctx.A
    action = LinMap(ctx.field, (A.alg.dim, A.alg.dim), (A.alg.dim,),
                    A.alg.mult.cols)
    return FiniteModule(A.alg.dim, A.alg, action, "left", name="regular")


@pytest.mark.parametrize("make", [kz2, h2])
def test_induced_module_is_yetter_drinfeld(field, make):
    ctx = make_context(field, make)
    M = induce_yd(regular_carrier_module(ctx), ctx)
    report = verify_yd(M, ctx)
    assert report.passed, report.render()


def test_induced_one_dimensional_module(field):
    # the trivial one-dimensional module through the counit character
    ctx = make_context(field)
    H = ctx.H
    eps_action = from_function(
        field, (ctx.A.alg.dim, 1), (1,),
        lambda idx: {(0,): H.counit_scalar(idx[0])})
    one = FiniteModule(1, ctx.A.alg, eps_action, "left", name="char")
    M = induce_yd(one, ctx)
    report = verify_yd(M, ctx)
    assert report.passed, report.render()


def test_hopf_collapse_of_induced_structure(field):
    # with a trivial reassociator the induced coaction is the classical
    # two-sided conjugation pattern
    ctx = make_context(field, kz2)
    H = ctx.H
    M = induce_yd(regular_carrier_module(ctx), ctx)
    dC = ctx.C.dim
    dN = ctx.A.alg.dim
    S_inv = H.antipode_inv
    for m in range(dN):
        for c in range(dC):
            # classical: rho(n x c) = (n x c1) x c2 when all correction
            # elements collapse to units
            two = apply_linear_map(H.comult, Tensor.basis(field, (dC,), (c,)), (0,))
            expect = Tensor(field, (dN * dC, dC))
            for (c1, cc2), v in two.data.items():
                expect = expect + Tensor(field, expect.dims,
                                         {(m * dC + c1, cc2): v})
            assert M.coaction.column((m * dC + c,)) == expect


def test_yd_to_doihopf_passes_square_context(field):
    ctx = make_context(field)
    M = induce_yd(regular_carrier_module(ctx), ctx)
    moved = yd_to_doihopf(M, ctx)
    report = verify_doi_hopf(moved, ctx.doihopf)
    assert report.passed, report.render()


def test_yd_to_doihopf_keeps_action(field):
    ctx = make_context(field)
    M = induce_yd(regular_carrier_module(ctx), ctx)
    moved = yd_to_doihopf(M, ctx)
    assert moved.action.cols == M.action.cols


def test_doihopf_to_yd_passes(field):
    ctx = make_context(field)
    M = induce_yd(regular_carrier_module(ctx), ctx)
    moved = yd_to_doihopf(M, ctx)
    back = doihopf_to_yd(moved, ctx)
    report = verify_yd(back, ctx)
    assert report.passed, report.render()


def test_equivalence_roundtrip_exact(field):
    # the two comparison functors invert each other on the nose
    ctx = make_context(field)
    M = induce_yd(regular_carrier_module(ctx), ctx)
    forward = yd_to_doihopf(M, ctx)
    back = doihopf_to_yd(forward, ctx)
    for i in range(M.dim):
        assert back.coaction.column((i,)) == M.coaction.column((i,))
    forward_again = yd_to_doihopf(back, ctx)
    for i in range(M.dim):
        assert forward_again.coaction.column((i,)) == forward.coaction.column((i,))


def test_other_direction_roundtrip(field):
    # starting from a square-base module instead
    ctx = make_context(field)
    N = regular_carrier_module(ctx)
    dh = induce_doi_hopf(N, ctx.doihopf)
    assert verify_doi_hopf(dh, ctx.doihopf).passed
    yd = doihopf_to_yd(dh, ctx)
    assert verify_yd(yd, ctx).passed
    forward = yd_to_doihopf(yd, ctx)
    for i in range(dh.dim):
        assert forward.coaction.column((i,)) == dh.coaction.column((i,))


def test_hopf_case_comparison_is_identity(field):
    # with trivial correction elements the comparison functor leaves the
    # coaction untouched
    ctx = make_context(field, kz2)
    M = induce_yd(regular_carrier_module(ctx), ctx)
    moved = yd_to_doihopf(M, ctx)
    for i in range(M.dim):
        assert moved.coaction.column((i,)) == M.coaction.column((i,))


def test_module_coalgebra_special_case_reduces_to_doihopf(field):
    # when the right action of the coalgebra is trivial, the mixed law
    # coincides with the one-sided module-comodule law over the carrier
    H = h2(field)
    A = hh_bicomodule(field, H)
    from quasihopf.fixtures import c2
    from quasihopf.modcoalg import ModuleCoalgebra
    base = c2(field, H)
    left = from_function(
        field, (H.dim, 2), (2,),
        lambda idx: {(idx[1],): H.counit_scalar(idx[0])})
    right = from_function(
        field, (2, H.dim), (2,),
        lambda idx: {(idx[0],): H.counit_scalar(idx[1])})
    C = ModuleCoalgebra(H, "bi", 2, base.comult, base.counit,
                        left_action=left, right_action=right, name="c2-bi")
    ctx = YetterDrinfeldContext(A, C)
    M = induce_yd(regular_carrier_module(ctx), ctx)
    report = verify_yd(M, ctx)
    assert report.passed, report.render()


def test_witness_relates_realizations(field):
    ctx = make_context(field)
    first = right_realization(ctx.A, 1)
    witness, report = realization_twist_witness(ctx.A, first, ctx.second)
    assert witness is not None
    assert report.passed


def test_yd_adjunction_roundtrips(field):
    ctx = make_context(field)
    N = regular_carrier_module(ctx)
    M = induce_yd(N, ctx)
    report = yd_adjunction_maps(M, N, ctx)
    assert report.passed, report.render()
    assert [r.check_id for r in report.records] == ADJUNCTION_CHECKS


def test_yd_adjunction_fails_on_a_broken_counit_law(field):
    ctx = make_context(field)
    N = regular_carrier_module(ctx)
    report = yd_adjunction_maps(doubled_coaction(induce_yd(N, ctx)), N, ctx)
    assert_only_unit_roundtrip_fails(report)
