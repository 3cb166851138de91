"""The induction adjunction on stacked hom tensors against its dense form.

``adjunction_maps`` applies every map of the two adjunctions to a whole
hom basis at once, stacked on a leading leg; ``doihopf_case`` keeps the
dense-matrix form, one matrix product per basis map.  On intact modules
and on seeded mutants (a doubled coaction, bumped action entries of
either module, bumped entries of the module coalgebra) in all four
variants, over kz2 and h2, on Q and F_10007,
every record must be the reference's: id, verdict and witness, and both
sides once the reference's matrices are read as tensors.
"""

import random
from itertools import islice

import pytest

from quasihopf import doihopf, tensor
from quasihopf.doihopf import (DOI_HOPF_VARIANTS, DoiHopfContext, FiniteModule,
                               adjunction_maps, induce_doi_hopf, trivial_module)
from quasihopf.fields import QQ, PrimeField
from quasihopf.fixtures import c2, h2, kz2, regular_comodule_algebra
from quasihopf.hopf import tensor_qha
from quasihopf.report import CheckRecord, CheckReport

from doihopf_case import as_tensor, reference_adjunction_maps
from test_doihopf import ADJUNCTION_CHECKS, c2_left, doubled_coaction
from test_sweep_reference import bumped, coalgebra_mutants

FIELDS = [QQ, PrimeField(10007)]
COALGEBRA_MAPS = ("comult", "counit", "left_action", "right_action")


def context(field, H, variant):
    """The regular comodule algebra on the coaction side of ``variant``
    and c2 on its action side."""
    B = regular_comodule_algebra(H, variant.split("-")[1])
    C = c2(field, H) if variant.startswith("right") else c2_left(field, H)
    return DoiHopfContext(variant, B, C)


def with_action(X, action):
    return FiniteModule(X.dim, X.over, action, X.action_side, X.coaction, X.coaction_side,
                        name=X.name)


def cases(ctx, rng):
    """(M, N, context): M induced from the regular module N, then M with
    its coaction doubled, seeded action bumps of M and of N, and M and N
    over seeded mutants of the module coalgebra."""
    N = trivial_module(ctx)
    M = induce_doi_hopf(N, ctx)
    yield M, N, ctx
    yield doubled_coaction(M), N, ctx
    for _ in range(3):
        yield with_action(M, bumped(M.action, rng)), N, ctx
        yield M, with_action(N, bumped(N.action, rng)), ctx
    for C in islice(coalgebra_mutants(ctx.coalgebra, rng, 4, COALGEBRA_MAPS), 1, None):
        mutant = DoiHopfContext(ctx.variant, ctx.comodule, C)
        yield induce_doi_hopf(N, mutant), N, mutant


def outcome(fn, M, N, ctx):
    """The records with every dense side read as a tensor, or the type
    of the raised error."""
    try:
        report = fn(M, N, ctx)
    except Exception as exc:
        return type(exc)
    return [CheckRecord(r.check_id, r.passed, r.witness,
                        *(as_tensor(ctx.field, s) if isinstance(s, list) else s
                          for s in (r.lhs, r.rhs)), r.fatal)
            for r in report.records]


@pytest.mark.parametrize("field", FIELDS, ids=["q", "fp10007"])
@pytest.mark.parametrize("variant", DOI_HOPF_VARIANTS)
def test_adjunction_records_match_the_dense_form(field, variant):
    failed, raised = set(), 0
    for make in (kz2, h2):
        ctx = context(field, make(field), variant)
        rng = random.Random("%s %s %s" % (field, variant, make.__name__))
        for k, (M, N, over) in enumerate(cases(ctx, rng)):
            got = outcome(adjunction_maps, M, N, over)
            assert got == outcome(reference_adjunction_maps, M, N, over), (make.__name__, k)
            if k == 0:
                assert all(r.passed for r in got)
            if isinstance(got, list):
                failed.update(r.check_id for r in got if not r.passed)
            else:
                raised += 1
    # both failing round trips show their witness and sides, and a module
    # bump of N that leaves no inner hom raises on both sides
    assert {"unit-roundtrip", "counit-roundtrip"} <= failed
    assert raised


def test_adjunction_maps_is_one_contraction_per_map(monkeypatch):
    # no per-item sweep, and as many apply_linear_map calls over h2 as over
    # h2 (x) h2, whose hom spaces are larger
    field = PrimeField(10007)
    base = h2(field)
    swept = []
    monkeypatch.setattr(CheckReport, "sweep",
                        lambda self, check_id, items, fn: swept.append(check_id))
    calls, seen = [0], []

    def spy(*args, _real=tensor.apply_linear_map, **kwargs):
        calls[0] += 1
        return _real(*args, **kwargs)

    for module in (tensor, doihopf):
        monkeypatch.setattr(module, "apply_linear_map", spy)
    for H in (base, tensor_qha(base, base)):
        ctx = context(field, H, "right-left")
        N = trivial_module(ctx)
        M = induce_doi_hopf(N, ctx)
        calls[0] = 0
        report = adjunction_maps(M, N, ctx)
        seen.append(calls[0])
        assert report.passed, report.render()
        assert [r.check_id for r in report.records] == ADJUNCTION_CHECKS
    assert swept == []
    assert seen[0] > 0 and seen[1] == seen[0]
