"""The Yetter-Drinfeld layer against its per-entry references.

On every base of ``test_closed_inverses.CASES`` the library's
``verify_yd`` must give the same records (verdict, witness and both
sides) as ``yd_case.reference_verify_yd``, on the induced module and on
12 seeded single-entry mutants of its coaction, each of which fails.
On those bases and on kz2 over both fields, the YD coring's left action
and comultiplication and the induced Yetter-Drinfeld module must equal
the direct formulas of ``yd_case``.
"""

import os
import random
import subprocess
import sys
import textwrap

import pytest

from quasihopf.coring import build_coring
from quasihopf.doihopf import (DOI_HOPF_VARIANTS, FiniteModule, induce_doi_hopf,
                               translate_variant, trivial_module, verify_doi_hopf)
from quasihopf.fields import QQ
from quasihopf.fixtures import h2_bimodule_coalgebra, hh_bicomodule, kz2
from quasihopf.tensor import LinMap
from quasihopf.yd import YetterDrinfeldContext, induce_yd, verify_yd

from test_closed_inverses import CASES, F
from yd_case import (reference_induce_yd, reference_verify_yd,
                     reference_yd_comult, reference_yd_left_action)

NAMES = sorted(CASES)
BASES = dict(CASES, **{"kz2-rationals": lambda: hh_bicomodule(QQ, kz2(QQ)),
                       "kz2-fp10007": lambda: hh_bicomodule(F, kz2(F))})


def context(name):
    A = BASES[name]()
    return YetterDrinfeldContext(A, h2_bimodule_coalgebra(A.field, A.H))


def induced_seed(ctx):
    A = ctx.A
    action = LinMap(ctx.field, (A.alg.dim, A.alg.dim), (A.alg.dim,),
                    A.alg.mult.cols)
    return FiniteModule(A.alg.dim, A.alg, action, "left", name="regular")


def induced(ctx):
    return induce_yd(induced_seed(ctx), ctx)


def coaction_mutants(M, seed, count=12):
    """Copies of M with one coaction entry bumped by a nonzero amount."""
    rng = random.Random(seed)
    field = M.field
    dC = M.coaction.dst[1]
    out = []
    for _ in range(count):
        col = (rng.randrange(M.dim),)
        key = (rng.randrange(M.dim), rng.randrange(dC))
        cols = {k: dict(v) for k, v in M.coaction.cols.items()}
        img = cols.setdefault(col, {})
        img[key] = img.get(key, field.zero) + field.from_int(rng.randrange(1, 50))
        coaction = LinMap(field, M.coaction.src, M.coaction.dst, cols)
        out.append(FiniteModule(M.dim, M.over, M.action, "left", coaction,
                                "right", name=M.name))
    return out


def records(report):
    return [(r.check_id, r.passed, r.witness, r.lhs, r.rhs) for r in report.records]


@pytest.mark.parametrize("name", NAMES)
def test_verify_yd_matches_the_reference(name):
    ctx = context(name)
    M = induced(ctx)
    report = verify_yd(M, ctx)
    assert report.passed, report.render()
    assert records(report) == records(reference_verify_yd(M, ctx))
    for k, X in enumerate(coaction_mutants(M, NAMES.index(name))):
        report = verify_yd(X, ctx)
        assert not report.passed, (name, k)
        assert records(report) == records(reference_verify_yd(X, ctx)), (name, k)


@pytest.mark.parametrize("name", sorted(BASES))
def test_yd_coring_comult_matches_the_reference(name):
    ctx = context(name)
    X = build_coring("YD", A=ctx.A, C=ctx.C)
    assert X.name == "YD(%s,%s)" % (ctx.A.name or "A", ctx.C.name or "C")
    assert X.left_action == reference_yd_left_action(ctx.A, ctx.C)
    for idx in sorted(X.comult.cols):
        assert X.comult.column(idx) == reference_yd_comult(ctx.A, ctx.C, idx), idx
    assert len(X.comult.cols) == X.dim


@pytest.mark.parametrize("name", sorted(BASES))
def test_induce_yd_matches_the_direct_formulas(name):
    ctx = context(name)
    M = induced(ctx)
    want = reference_induce_yd(induced_seed(ctx), ctx)
    assert (M.name, M.action, M.coaction) == (want.name, want.action, want.coaction)


@pytest.mark.parametrize("variant", DOI_HOPF_VARIANTS)
@pytest.mark.parametrize("name", NAMES)
def test_square_base_induction_in_every_variant(name, variant):
    # over a twisted Sweedler base the square-base reassociator is not its
    # own inverse, so an induced coaction acted on by the wrong one fails
    ctx = context(name)
    seed = trivial_module(ctx.doihopf)
    other = translate_variant(induce_doi_hopf(seed, ctx.doihopf), ctx.doihopf,
                              variant)[1]
    M = induce_doi_hopf(trivial_module(other), other)
    report = verify_doi_hopf(M, other)
    assert report.passed, report.render()


def test_yd_coring_and_induction_over_a_dim_4_base_under_1_gb():
    # the coring's comultiplication and the induced coaction are built
    # from the closed-form reassociator of the second right realization,
    # never from the outer product of all the reassociators, and the
    # coring is verified by normal forms, not by a row reduction of its
    # balancing relations, so all of it fits in a 1 GB address space
    code = textwrap.dedent("""
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        from quasihopf.coring import build_coring, verify_coring
        from quasihopf.doihopf import (DOI_HOPF_VARIANTS, FiniteModule, induce_doi_hopf,
                               translate_variant, trivial_module, verify_doi_hopf)
        from quasihopf.fields import PrimeField
        from quasihopf.fixtures import h2, h2_bimodule_coalgebra, hh_bicomodule
        from quasihopf.hopf import tensor_qha
        from quasihopf.tensor import LinMap
        from quasihopf.yd import YetterDrinfeldContext, induce_yd
        F = PrimeField(10007)
        H = tensor_qha(h2(F), h2(F))
        A = hh_bicomodule(F, H)
        C = h2_bimodule_coalgebra(F, H)
        X = build_coring("YD", A=A, C=C)
        action = LinMap(F, (4, 4), (4,), A.alg.mult.cols)
        M = induce_yd(FiniteModule(4, A.alg, action, "left"),
                      YetterDrinfeldContext(A, C))
        print(X.dim, M.dim, verify_coring(X).passed)
    """)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.split() == ["16", "16", "True"]
