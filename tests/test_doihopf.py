import pytest

from quasihopf.coring import verify_coring
from quasihopf.doihopf import (DOI_HOPF_VARIANTS, CoringComodule, DoiHopfContext,
                               FiniteModule, adjunction_maps, compute_rat,
                               coring_comodule_to_doihopf,
                               doihopf_to_coring_comodule, induce_doi_hopf,
                               rational_check, to_smash_module,
                               transport_twist, translate_variant,
                               trivial_module, verify_coring_comodule,
                               verify_doi_hopf)
from quasihopf.errors import VariantMismatch
from quasihopf.fixtures import (c2, h2, h2_bimodule_coalgebra, hh_bicomodule,
                                kz2, regular_comodule_algebra)
from quasihopf.modcoalg import ModuleCoalgebra
from quasihopf.tensor import LinMap, Tensor

from test_hopf import sweedler
from test_modcoalg import regular_module_coalgebra


def right_left_context(field, make=h2):
    H = make(field)
    B = regular_comodule_algebra(H, "left")
    C = c2(field, H)
    return DoiHopfContext("right-left", B, C)


def c2_left(field, H):
    """c2 as a left module coalgebra, H acting through its counit."""
    base = c2(field, H)
    action = LinMap.from_function(
        field, (H.dim, 2), (2,),
        lambda idx: {(idx[1],): H.counit_scalar(idx[0])})
    return ModuleCoalgebra(H, "left", 2, base.comult, base.counit,
                           left_action=action, name="c2-left")


def left_right_context(field, make=h2):
    H = make(field)
    return DoiHopfContext("left-right", regular_comodule_algebra(H, "right"),
                          c2_left(field, H))


def variant_context(field, variant):
    """A context over h2 in ``variant``: the regular comodule algebra on
    the coaction side and c2 on the action side."""
    H = h2(field)
    B = regular_comodule_algebra(H, variant.split("-")[1])
    C = c2(field, H) if variant.startswith("right") else c2_left(field, H)
    return DoiHopfContext(variant, B, C)


@pytest.mark.parametrize("make", [kz2, h2])
def test_induced_right_left_module_passes(field, make):
    ctx = right_left_context(field, make)
    M = induce_doi_hopf(trivial_module(ctx), ctx)
    report = verify_doi_hopf(M, ctx)
    assert report.passed, report.render()


@pytest.mark.parametrize("make", [kz2, h2])
def test_induced_left_right_module_passes(field, make):
    ctx = left_right_context(field, make)
    M = induce_doi_hopf(trivial_module(ctx), ctx)
    report = verify_doi_hopf(M, ctx)
    assert report.passed, report.render()


def test_zero_coaction_fails(field):
    ctx = right_left_context(field)
    M = induce_doi_hopf(trivial_module(ctx), ctx)
    broken = FiniteModule(M.dim, ctx.comodule.alg, M.action, "right",
                          LinMap(field, (M.dim,), (ctx.coalgebra.dim, M.dim), {}),
                          "left")
    report = verify_doi_hopf(broken, ctx)
    assert not report.passed
    failed = {r.check_id for r in report.records if not r.passed}
    assert "coaction-counit" in failed


def test_variant_mismatch_detected(field):
    ctx = right_left_context(field)
    M = induce_doi_hopf(trivial_module(ctx), ctx)
    bad = FiniteModule(M.dim, ctx.comodule.alg, M.action, "right",
                       M.coaction, "left")
    lr = left_right_context(field)
    with pytest.raises(VariantMismatch):
        verify_doi_hopf(bad, lr)


def test_induction_is_functorial(field):
    # the induced map of a module morphism acts as the identity on the
    # coalgebra leg
    ctx = right_left_context(field)
    N = trivial_module(ctx)
    M = induce_doi_hopf(N, ctx)
    dC = ctx.coalgebra.dim
    # a module morphism of the regular module: left multiplication by g
    theta = [[field.zero, field.one], [field.one, field.zero]]
    # id_C x theta commutes with the induced coaction on C x N entries
    for c in range(dC):
        for n in range(N.dim):
            src = c * N.dim + n
            img = M.coaction.column((src,))
            moved = Tensor(field, img.dims)
            for (c1, m2), v in img.data.items():
                c2, n2 = divmod(m2, N.dim)
                for j in range(N.dim):
                    if theta[j][n2]:
                        key = (c1, c2 * N.dim + j)
                        moved = moved + Tensor(field, img.dims,
                                               {key: v * theta[j][n2]})
            # pushing theta through the source first gives the same
            pushed = Tensor(field, img.dims)
            for j in range(N.dim):
                if theta[j][n]:
                    pushed = pushed + M.coaction.column(
                        (c * N.dim + j,)).scale(theta[j][n])
            assert moved == pushed


@pytest.mark.parametrize("make", [kz2, h2])
def test_smash_collapse_and_rational_roundtrip(field, make):
    ctx = right_left_context(field, make)
    M = induce_doi_hopf(trivial_module(ctx), ctx)
    collapsed, smash = to_smash_module(M, ctx)
    recovered, report = rational_check(collapsed, ctx, smash)
    assert report.passed, report.render()
    for i in range(M.dim):
        assert recovered.coaction.column((i,)) == M.coaction.column((i,))
        for b in range(ctx.comodule.alg.dim):
            assert recovered.action.column((i, b)) == M.action.column((i, b))


def test_free_module_is_rational(field):
    # the smash product acting on itself is rational with the dual-basis
    # coaction
    ctx = right_left_context(field)
    from quasihopf.modcoalg import dualize
    from quasihopf.smash import generalized_smash
    smash = generalized_smash(dualize(ctx.coalgebra), ctx.comodule)
    action = LinMap(field, (smash.carrier.dim, smash.carrier.dim),
                    (smash.carrier.dim,), smash.carrier.mult.cols)
    free = FiniteModule(smash.carrier.dim, smash, action, "right", name="free")
    recovered, report = rational_check(free, ctx, smash)
    assert report.passed, report.render()


def test_compute_rat_returns_whole_module(field):
    ctx = right_left_context(field)
    M = induce_doi_hopf(trivial_module(ctx), ctx)
    collapsed, smash = to_smash_module(M, ctx)
    basis, report = compute_rat(collapsed, ctx, smash)
    assert report.passed, report.render()
    assert len(basis) == M.dim


def test_compute_rat_zero_module(field):
    ctx = right_left_context(field)
    from quasihopf.modcoalg import dualize
    from quasihopf.smash import generalized_smash
    smash = generalized_smash(dualize(ctx.coalgebra), ctx.comodule)
    # the zero action on a one-dimensional space is not unital, so use
    # the smallest honest module: the zero-dimensional case is excluded
    # by construction, so take the quotient-like trivial action instead
    eps_action = LinMap.from_function(
        field, (1, smash.carrier.dim), (1,),
        lambda idx: {(0,): _counit_of_smash(smash, ctx, idx[1])})
    triv = FiniteModule(1, smash, eps_action, "right", name="eps")
    basis, report = compute_rat(triv, ctx, smash)
    assert len(basis) == 1
    assert report.passed, report.render()


def _counit_of_smash(smash, ctx, n):
    # the character (dual counit x base counit) of the smash product
    field = ctx.field
    dB = ctx.comodule.alg.dim
    f, b = divmod(n, dB)
    C = ctx.coalgebra
    # evaluate the dual basis vector on the grouplike-ish counit: the
    # character sends e^f x e_b to <e^f, sum eps-weighted basis> eps(b)
    H = ctx.H
    weight = field.zero
    for c in range(C.dim):
        if c == f:
            weight = weight + C.counit.column((c,)).get(())
    eps_b = _algebra_counit(ctx, b)
    return weight * eps_b


def _algebra_counit(ctx, b):
    # the comodule algebra is the base itself in these fixtures
    return ctx.H.counit_scalar(b)


def test_cyclic_submodule_bounded(field):
    ctx = right_left_context(field)
    M = induce_doi_hopf(trivial_module(ctx), ctx)
    collapsed, smash = to_smash_module(M, ctx)
    bound = ctx.coalgebra.dim * ctx.comodule.alg.dim * M.dim
    from quasihopf import linalg
    for i in range(M.dim):
        seed = Tensor.basis(field, (M.dim,), (i,))
        span = [seed.to_flat()]
        frontier = [seed]
        while frontier:
            nxt = []
            for vec in frontier:
                for n in range(smash.carrier.dim):
                    img = collapsed.act(n, vec)
                    if not linalg.in_span(field, span, img.to_flat()):
                        span.append(img.to_flat())
                        nxt.append(img)
            frontier = nxt
        assert len(span) <= bound


def test_direct_sum_rational_splits(field):
    ctx = right_left_context(field)
    M = induce_doi_hopf(trivial_module(ctx), ctx)
    collapsed, smash = to_smash_module(M, ctx)
    two = FiniteModule(
        2 * M.dim, smash,
        LinMap.from_function(
            field, (2 * M.dim, smash.carrier.dim), (2 * M.dim,),
            lambda idx: _direct_sum_action(collapsed, M.dim, idx)),
        "right", name="M+M")
    basis, report = compute_rat(two, ctx, smash)
    assert len(basis) == 2 * M.dim
    assert report.passed, report.render()


def _direct_sum_action(M, block, idx):
    m, n = idx
    half, pos = divmod(m, block)
    img = M.action.column((pos, n))
    return {(half * block + j,): v for (j,), v in img.data.items()}


def test_adjunction_roundtrips(field):
    ctx = right_left_context(field)
    N = trivial_module(ctx)
    M = induce_doi_hopf(N, ctx)
    report = adjunction_maps(M, N, ctx)
    assert report.passed, report.render()


ADJUNCTION_CHECKS = ["unit-roundtrip", "counit-roundtrip", "naturality",
                     "second-unit-roundtrip", "second-counit-roundtrip"]


@pytest.mark.parametrize("variant", DOI_HOPF_VARIANTS)
def test_adjunction_in_every_variant(field, variant):
    ctx = variant_context(field, variant)
    N = trivial_module(ctx)
    report = adjunction_maps(induce_doi_hopf(N, ctx), N, ctx)
    assert report.passed, report.render()
    assert [r.check_id for r in report.records] == ADJUNCTION_CHECKS


def doubled_coaction(M):
    """M with its coaction scaled by 2, which breaks the counit law."""
    two = M.field.one + M.field.one
    coaction = LinMap(M.field, M.coaction.src, M.coaction.dst,
                      {idx: {j: two * v for j, v in img.items()}
                       for idx, img in M.coaction.cols.items()})
    return FiniteModule(M.dim, M.over, M.action, M.action_side, coaction,
                        M.coaction_side, name=M.name)


def assert_only_unit_roundtrip_fails(report):
    # with the coaction doubled zeta(xi(f)) = 2f: the unit round trip fails
    # at the first basis map with both sides recorded, every other
    # record holds
    assert [r.check_id for r in report.records] == ADJUNCTION_CHECKS
    assert [r.check_id for r in report.records if not r.passed] == ["unit-roundtrip"]
    record = report.first_failure()
    assert record.witness == (0,)
    assert record.lhs == record.rhs + record.rhs


def test_adjunction_fails_on_a_broken_counit_law(field):
    ctx = right_left_context(field)
    N = trivial_module(ctx)
    report = adjunction_maps(doubled_coaction(induce_doi_hopf(N, ctx)), N, ctx)
    assert_only_unit_roundtrip_fails(report)


def test_naturality_fails_for_an_endomorphism_that_is_not_colinear(field, monkeypatch):
    # the square xi(f g) = xi(f) g holds for the Doi-Hopf endomorphisms g
    # of M; handed a module endomorphism that does not commute with the
    # coalgebra blocks of the coaction, the naturality record fails
    from quasihopf import doihopf, linalg
    ctx = right_left_context(field)
    N = trivial_module(ctx)
    M = induce_doi_hopf(N, ctx)
    original = doihopf._module_hom_basis
    doi_hopf = LinMap.from_tensor(original(M, M, colinear=True), 1)
    endos = LinMap.from_tensor(original(M, M), 1)
    flat = [doi_hopf.column((k,)).to_flat() for k in range(doi_hopf.src[0])]
    keep = [k for k in range(endos.src[0])
            if not linalg.in_span(field, flat, endos.column((k,)).to_flat())]
    assert keep
    # the stack of the module endomorphisms that are not colinear
    moving = Tensor(field, (len(keep),) + endos.dst,
                    {(i,) + idx: v for i, k in enumerate(keep)
                     for idx, v in endos.column((k,)).data.items()})

    def endomorphisms(X, Y, colinear=False):
        if X is M and Y is M and colinear:
            return moving
        return original(X, Y, colinear)

    monkeypatch.setattr(doihopf, "_module_hom_basis", endomorphisms)
    report = adjunction_maps(M, N, ctx)
    assert [r.check_id for r in report.records] == ADJUNCTION_CHECKS
    assert [r.check_id for r in report.records if not r.passed] == ["naturality"]
    record = report.first_failure()
    assert record.lhs != record.rhs


def test_adjunction_unit_formula(field):
    # the unit map tags a module morphism f with the coaction leg,
    # xi(f)(m) = m_(-1) x f(m_(0)); each xi(f) is a morphism of Doi-Hopf
    # modules into the induced module, and a one-entry change is not
    from quasihopf import linalg
    from quasihopf.doihopf import _module_hom_basis
    for make in (kz2, h2):
        ctx = right_left_context(field, make)
        N = trivial_module(ctx)
        M = induce_doi_hopf(N, ctx)
        homs = _module_hom_basis(M, N)
        assert homs is not None, "expected a nonzero morphism space"
        # M is the induced module of N, so these maps M -> M are the
        # Doi-Hopf morphisms into the induced module; a stack's entry
        # (k, j, m) is the coefficient of n_j in f_k(m)
        colinear = LinMap.from_tensor(
            _module_hom_basis(M, M, colinear=True), 1)
        span = [colinear.column((k,)).to_flat() for k in range(colinear.src[0])]
        for k in range(homs.dims[0]):
            xi = [[field.zero] * M.dim for _ in range(ctx.coalgebra.dim * N.dim)]
            for m in range(M.dim):
                for (c, m0), v in M.coaction.column((m,)).data.items():
                    for j in range(N.dim):
                        xi[c * N.dim + j][m] += v * homs.get((k, j, m0))
            flat = [v for row in xi for v in row]
            assert linalg.in_span(field, span, flat)
            flat[0] += field.one
            assert not linalg.in_span(field, span, flat)


@pytest.mark.parametrize("make", [kz2, h2])
def test_coring_comodule_roundtrip(field, make):
    ctx = right_left_context(field, make)
    M = induce_doi_hopf(trivial_module(ctx), ctx)
    comodule, coring = doihopf_to_coring_comodule(M, ctx)
    assert verify_coring(coring).passed
    report = verify_coring_comodule(comodule)
    assert report.passed, report.render()
    back = coring_comodule_to_doihopf(comodule, ctx)
    for i in range(M.dim):
        assert back.coaction.column((i,)) == M.coaction.column((i,))
    assert verify_doi_hopf(back, ctx).passed


def test_translate_left_right_to_canonical_and_back(field):
    ctx = left_right_context(field)
    M = induce_doi_hopf(trivial_module(ctx), ctx)
    moved, ctx2 = translate_variant(M, ctx, "right-left")
    report = verify_doi_hopf(moved, ctx2)
    assert report.passed, report.render()
    back, ctx3 = translate_variant(moved, ctx2, "left-right")
    assert ctx3.variant == "left-right"
    for i in range(M.dim):
        assert back.coaction.column((i,)) == M.coaction.column((i,))
        for a in range(ctx.comodule.alg.dim):
            assert back.action.column((a, i)) == M.action.column((a, i))
    assert verify_doi_hopf(back, ctx3).passed


@pytest.mark.parametrize("variant", ["right-right", "left-left"])
def test_induce_reflected_variants(field, variant):
    ctx = variant_context(field, variant)
    M = induce_doi_hopf(trivial_module(ctx), ctx)
    report = verify_doi_hopf(M, ctx)
    assert report.passed, report.render()


def test_transport_twist_roundtrip(field):
    from quasihopf.comodule import (bicomodule_to_right_op_tensor,
                                    realization_twist_witness)
    from quasihopf.modcoalg import bimodule_to_op_tensor_module_coalgebra
    H = h2(field)
    A = hh_bicomodule(field, H)
    first, second, square = bicomodule_to_right_op_tensor(A)
    witness, _ = realization_twist_witness(A, first, second)
    assert witness is not None
    C = bimodule_to_op_tensor_module_coalgebra(
        h2_bimodule_coalgebra(field, H), base=square)
    ctx1 = DoiHopfContext("left-right", first, C)
    ctx2 = DoiHopfContext("left-right", second, C)
    M = induce_doi_hopf(trivial_module(ctx1), ctx1)
    assert verify_doi_hopf(M, ctx1).passed
    moved = transport_twist(M, witness, ctx1, ctx2)
    report = verify_doi_hopf(moved, ctx2)
    assert report.passed, report.render()
    back = transport_twist(moved, witness.inverse_witness(), ctx2, ctx1)
    for i in range(M.dim):
        assert back.coaction.column((i,)) == M.coaction.column((i,))


def test_transport_by_unit_witness_is_identity(field):
    from quasihopf.comodule import TwistWitness
    from quasihopf.tensor import unit_tensor
    ctx = left_right_context(field)
    M = induce_doi_hopf(trivial_module(ctx), ctx)
    unit = unit_tensor((ctx.comodule.alg, ctx.H.alg))
    V = TwistWitness(ctx.comodule, unit, unit)
    moved = transport_twist(M, V, ctx, ctx)
    for i in range(M.dim):
        assert moved.coaction.column((i,)) == M.coaction.column((i,))


def test_translate_right_left_to_left_left(field):
    # over the ordinary Hopf base the canonical module crosses to the
    # left-left world and verifies over the opposite base
    ctx_src = right_left_context(field, kz2)
    M = induce_doi_hopf(trivial_module(ctx_src), ctx_src)
    moved, ctx2 = translate_variant(M, ctx_src, "left-left")
    assert ctx2.variant == "left-left"
    report = verify_doi_hopf(moved, ctx2)
    assert report.passed, report.render()
    back, ctx3 = translate_variant(moved, ctx2, "right-left")
    for i in range(M.dim):
        assert back.coaction.column((i,)) == M.coaction.column((i,))


def test_cyclic_submodule_is_rational(field):
    # the recovered coaction maps each cyclic submodule into the span of
    # the coalgebra with itself, so the submodule is rational on its own
    ctx = right_left_context(field)
    M = induce_doi_hopf(trivial_module(ctx), ctx)
    collapsed, smash = to_smash_module(M, ctx)
    recovered, report = rational_check(collapsed, ctx, smash)
    assert report.passed
    from quasihopf import linalg
    dC = ctx.coalgebra.dim
    for i in range(M.dim):
        seed = Tensor.basis(field, (M.dim,), (i,))
        span = [seed.to_flat()]
        frontier = [seed]
        while frontier:
            nxt = []
            for vec in frontier:
                for n in range(smash.carrier.dim):
                    img = collapsed.act(n, vec)
                    if not linalg.in_span(field, span, img.to_flat()):
                        span.append(img.to_flat())
                        nxt.append(img)
            frontier = nxt
        # coaction legs of every span vector stay inside the span
        for vec_flat in span:
            vec = Tensor.from_flat(field, (M.dim,), vec_flat)
            tagged = Tensor(field, (dC, M.dim))
            for (m,), v in vec.data.items():
                tagged = tagged + recovered.coaction.column((m,)).scale(v)
            for c in range(dC):
                slice_vec = [tagged.get((c, m)) for m in range(M.dim)]
                assert linalg.in_span(field, span, slice_vec)


def test_coring_comodule_action_must_be_a_module(field):
    # m.(g g) = (m.g).g fails once one entry of the action is bumped
    ctx = right_left_context(field)
    M = induce_doi_hopf(trivial_module(ctx), ctx)
    comodule, coring = doihopf_to_coring_comodule(M, ctx)
    cols = {src: dict(img) for src, img in comodule.action.cols.items()}
    cols.setdefault((1, 1), {})
    cols[(1, 1)][(1,)] = cols[(1, 1)].get((1,), field.zero) + field.from_int(5)
    action = LinMap(field, comodule.action.src, comodule.action.dst, cols)
    bad = CoringComodule(coring, comodule.dim, action, comodule.coaction)
    report = verify_coring_comodule(bad)
    assert not report.passed
    record = next(r for r in report.records if not r.passed)
    assert record.check_id == "action-associative"
    assert record.witness == (0, 1, 1)
    ids = [r.check_id for r in verify_coring_comodule(comodule).records]
    assert ids[:2] == ["action-associative", "action-unital"]


def test_coring_comodule_action_must_be_unital(field):
    ctx = right_left_context(field)
    M = induce_doi_hopf(trivial_module(ctx), ctx)
    comodule, coring = doihopf_to_coring_comodule(M, ctx)
    # the unit of the base ring acts by 2
    action = LinMap(field, comodule.action.src, comodule.action.dst,
                    {src: {dst: v * (2 if src[1] == 0 else 1) for dst, v in img.items()}
                     for src, img in comodule.action.cols.items()})
    report = verify_coring_comodule(CoringComodule(coring, comodule.dim, action,
                                                   comodule.coaction))
    records = {r.check_id: r for r in report.records}
    assert not records["action-unital"].passed


# -- the four variants over a base that is neither commutative nor cocommutative


def sweedler_context(field, variant):
    """Sweedler's algebra as a comodule algebra and as a module coalgebra
    over itself, on the sides the variant names (action side first)."""
    H = sweedler(field)
    action_side, coaction_side = variant.split("-")
    return DoiHopfContext(variant, regular_comodule_algebra(H, coaction_side),
                          regular_module_coalgebra(H, action_side))


@pytest.mark.parametrize("variant", DOI_HOPF_VARIANTS)
def test_reflections_over_sweedler(field, variant):
    ctx = sweedler_context(field, variant)
    M = induce_doi_hopf(trivial_module(ctx), ctx)
    report = verify_doi_hopf(M, ctx)
    assert report.passed, report.render()
    for other in DOI_HOPF_VARIANTS:
        if other == variant:
            continue
        moved, ctx2 = translate_variant(M, ctx, other)
        assert ctx2.variant == other
        report = verify_doi_hopf(moved, ctx2)
        assert report.passed, report.render()
        back, ctx3 = translate_variant(moved, ctx2, variant)
        assert ctx3.variant == variant
        assert back.action == M.action and back.coaction == M.coaction
