"""Equality over the base ring: the normal form against the dense reference.

On every coring that ``test_coring`` and ``test_doihopf`` build, over Q
and F_10007, ``verify_coring`` must give the same verdict and witness in
every record as ``coring_case.reference_verify_coring``, which decides
equality modulo the row-reduced span of all balancing relations; so must
four seeded single-entry mutants of each comultiplication, each of which
fails.  The coring comodules of ``test_doihopf`` and twelve seeded
coaction mutants of each are compared with
``reference_verify_coring_comodule`` the same way.
"""

import random

import pytest

from quasihopf import linalg
from quasihopf.coring import Coring, build_coring, trivial_coring, verify_coring
from quasihopf.doihopf import (CoringComodule, doihopf_to_coring_comodule,
                               induce_doi_hopf, trivial_module, verify_coring_comodule)
from quasihopf.fixtures import (c2, h2, h2_bimodule_coalgebra, hh_bicomodule,
                                kz2, regular_comodule_algebra)
from quasihopf.tensor import LinMap

from coring_case import reference_verify_coring, reference_verify_coring_comodule
from test_closed_inverses import CASES
from test_coring import left_trivial_coalgebra
from test_doihopf import right_left_context

KINDS = ["trivial-h2", "BC-kz2", "BC-h2", "CA-kz2", "CA-h2", "YD-kz2", "YD-h2"]


def coring(kind, field):
    if kind == "trivial-h2":
        return trivial_coring(h2(field).alg)
    name, base = kind.split("-")
    H = {"kz2": kz2, "h2": h2}[base](field)
    if name == "BC":
        return build_coring("BC", B=regular_comodule_algebra(H, "left"), C=c2(field, H))
    if name == "CA":
        return build_coring("CA", A=regular_comodule_algebra(H, "right"),
                            C=left_trivial_coalgebra(field, H))
    return build_coring("YD", A=hh_bicomodule(field, H), C=h2_bimodule_coalgebra(field, H))


def bumped(linmap, rng):
    """Copy of ``linmap`` with one entry bumped by a nonzero amount."""
    field = linmap.field
    col = tuple(rng.randrange(d) for d in linmap.src)
    key = tuple(rng.randrange(d) for d in linmap.dst)
    cols = {k: dict(v) for k, v in linmap.cols.items()}
    img = cols.setdefault(col, {})
    img[key] = img.get(key, field.zero) + field.from_int(rng.randrange(1, 50))
    return LinMap(field, linmap.src, linmap.dst, cols)


def verdicts(report):
    return [(r.check_id, r.passed, r.witness) for r in report.records]


@pytest.mark.parametrize("kind", KINDS)
def test_verify_coring_matches_the_reference(field, kind):
    X = coring(kind, field)
    report = verify_coring(X)
    assert report.passed, report.render()
    assert verdicts(report) == verdicts(reference_verify_coring(X))
    rng = random.Random(KINDS.index(kind))
    for k in range(4):
        bad = Coring(X.R, X.dim, X.left_action, X.right_action,
                     bumped(X.comult, rng), X.counit)
        report = verify_coring(bad)
        assert not report.passed, (kind, k)
        assert verdicts(report) == verdicts(reference_verify_coring(bad)), (kind, k)


@pytest.mark.parametrize("make", [kz2, h2])
def test_verify_coring_comodule_matches_the_reference(field, make):
    ctx = right_left_context(field, make)
    M = induce_doi_hopf(trivial_module(ctx), ctx)
    comodule, X = doihopf_to_coring_comodule(M, ctx)
    assert verdicts(verify_coring(X)) == verdicts(reference_verify_coring(X))
    report = verify_coring_comodule(comodule)
    assert report.passed, report.render()
    assert verdicts(report) == verdicts(reference_verify_coring_comodule(comodule))
    rng = random.Random(make.__name__)
    for k in range(12):
        bad = CoringComodule(X, comodule.dim, comodule.action,
                             bumped(comodule.coaction, rng))
        report = verify_coring_comodule(bad)
        assert not report.passed, k
        assert verdicts(report) == verdicts(reference_verify_coring_comodule(bad)), k


def test_yd_coring_over_twisted_sweedler_needs_no_rref(monkeypatch):
    A = CASES["sweedler-xx3"]()
    X = build_coring("YD", A=A, C=h2_bimodule_coalgebra(A.field, A.H))
    calls = []
    original = linalg.rref

    def counted(field, rows):
        calls.append(len(rows))
        return original(field, rows)

    monkeypatch.setattr(linalg, "rref", counted)
    report = verify_coring(X)
    assert report.passed, report.render()
    assert X.dim == 16 and calls == []
