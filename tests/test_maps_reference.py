"""The derived linear maps against their per-basis-vector references.

Every derived map is built in one pass on tensor forms, the source index
riding along as a leading leg.  ``maps_case`` builds each one column by
column, one source basis vector at a time.  The two must be equal on
every base of ``test_closed_inverses.CASES`` and on the twins over Q of
its twisted Sweedler bases, which are neither commutative nor
cocommutative, so a leg-order mistake shows there.  ``compute_rat`` and
``_module_hom_basis`` must hand the same dense matrix, row for row, to
their nullspace.
"""

import functools
from types import SimpleNamespace

import pytest

from quasihopf import linalg
from quasihopf.comodule import (InternalCoalgebra, TwistWitness, canonical_elements,
                                comodule_variant, right_realization, twist_comodule_algebra)
from quasihopf.coring import build_coring, trivial_coring
from quasihopf.doihopf import (DoiHopfContext, _counit_action, _curried, _module_hom_basis,
                               compute_rat, coring_comodule_to_doihopf,
                               doihopf_to_coring_comodule, induce_doi_hopf, to_smash_module,
                               transport_twist, trivial_module)
from quasihopf.fields import QQ
from quasihopf.fixtures import (_all_ones_counit, _grouplike_comult, c2, h2_bimodule_coalgebra,
                                hh_bicomodule, regular_comodule_algebra)
from quasihopf.hopf import drinfeld_twist, gauge_twist, op_tensor
from quasihopf.modcoalg import (ModuleCoalgebra, bimodule_to_op_tensor_module_coalgebra,
                                gauge_twist_module_coalgebra)
from quasihopf.smash import _unit_embedding, build_omega, koppinen_smash, phi_isomorphism
from quasihopf.tensor import _identity
from quasihopf.yd import YetterDrinfeldContext, doihopf_to_yd, induce_yd, yd_to_doihopf

import maps_case as ref
from smash_case import reference_koppinen_smash
from test_closed_inverses import CASES, F, transported, xx_gauge
from test_hopf import sweedler


def twisted_sweedler_q(c, second=2):
    H = sweedler(QQ)
    return gauge_twist(H, xx_gauge(H, c, second))


BASES = dict(CASES, **{
    "sweedler-xx3-rationals": lambda: hh_bicomodule(QQ, twisted_sweedler_q(3)),
    "sweedler-xx5-rationals": lambda: hh_bicomodule(QQ, twisted_sweedler_q(5)),
    "sweedler-xx-2-rationals": lambda: hh_bicomodule(QQ, twisted_sweedler_q(-2)),
    "sweedler-xgx4-rationals": lambda: hh_bicomodule(QQ, twisted_sweedler_q(4, second=3)),
    "sweedler-transported-rationals": lambda: transported(
        twisted_sweedler_q(3), xx_gauge(twisted_sweedler_q(3), 5)),
})
NAMES = sorted(BASES)


@functools.cache
def world(name):
    """A base's bicomodule algebra with its one-sided halves, the regular
    bimodule coalgebra and its one-sided halves, the Drinfeld twist, and
    the Doi-Hopf contexts of the two canonical variants."""
    A = BASES[name]()
    H = A.H
    C = h2_bimodule_coalgebra(A.field, H)
    C_r = ModuleCoalgebra(H, "right", C.dim, C.comult, C.counit, right_action=C.right_action)
    C_l = ModuleCoalgebra(H, "left", C.dim, C.comult, C.counit, left_action=C.left_action)
    left, right = A.left(), A.right()
    return SimpleNamespace(
        A=A, H=H, field=A.field, C=C, C_r=C_r, C_l=C_l, left=left, right=right,
        twist=drinfeld_twist(H), rl=DoiHopfContext("right-left", left, C_r),
        lr=DoiHopfContext("left-right", right, C_l))


def induced(ctx):
    return induce_doi_hopf(trivial_module(ctx), ctx)


def same(got, want):
    assert (got.src, got.dst) == (want.src, want.dst)
    assert got == want


def nullspace_inputs(monkeypatch):
    """The matrices handed to ``linalg.nullspace`` from here on; each
    nullspace is taken to be empty, as only the matrices are compared."""
    seen = []
    monkeypatch.setattr(linalg, "nullspace", lambda field, rows: seen.append(rows) or [])
    return seen


@pytest.mark.parametrize("name", NAMES)
def test_base_and_comodule_maps(name):
    w = world(name)
    same(gauge_twist(w.H, w.twist).comult, ref.gauge_twist_comult(w.H, w.twist))
    for X in (w.left, w.right):
        V = TwistWitness(X, w.twist.t, w.twist.inv)
        same(twist_comodule_algebra(X, V).coaction, ref.twisted_coaction(X, V))
    same(comodule_variant(w.left, "op-antipode").coaction, ref.op_antipode_coaction(w.left))
    for k in (1, 2):
        same(right_realization(w.A, k).coaction, ref.realization_coaction(w.A, k))
    internal = InternalCoalgebra(w.left)
    got = (internal.comult, internal.left_action, internal.right_action,
           internal.extract()[0])
    for got_map, want_map in zip(got, ref.internal_coalgebra_maps(w.left)):
        same(got_map, want_map)
    same(trivial_coring(w.H.alg).comult, ref.trivial_coring_comult(w.H.alg))


@pytest.mark.parametrize("name", NAMES)
def test_coring_coalgebra_and_omega_maps(name):
    w = world(name)
    coring = build_coring("BC", B=w.left, C=w.C_r)
    right, comult = ref.coring_bc_maps(w.left, w.C_r)
    same(coring.right_action, right)
    same(coring.comult, comult)
    square = op_tensor(w.H)
    same(bimodule_to_op_tensor_module_coalgebra(w.C, base=square).left_action,
         ref.square_action(w.C, square))
    same(gauge_twist_module_coalgebra(w.C_l, w.twist)[0].comult,
         ref.gauge_twisted_module_comult(w.C_l, w.twist))
    other = w.H.alg.opposite()
    for first in (True, False):
        same(_unit_embedding(w.H.alg, other, first), ref.unit_embedding(w.H.alg, other, first))
    for kind in ("l", "r"):
        same(build_omega(w.A, kind).delta, ref.omega_delta(w.A, kind))


@pytest.mark.parametrize("name", NAMES)
def test_doi_hopf_maps(name, monkeypatch):
    w = world(name)
    for ctx in (w.rl, w.lr):
        N = trivial_module(ctx)
        M = induce_doi_hopf(N, ctx)
        action, coaction = ref.induced_maps(N, ctx)
        same(M.action, action)
        same(M.coaction, coaction)

    M = induced(w.lr)
    V = TwistWitness(w.right, w.twist.t, w.twist.inv)
    to = DoiHopfContext("left-right", twist_comodule_algebra(w.right, V), w.C_l)
    same(transport_twist(M, V, w.lr, to).coaction, ref.transported_coaction(M, V, w.C_l))

    M = induced(w.rl)
    X, _ = doihopf_to_coring_comodule(M, w.rl, build_coring("BC", B=w.left, C=w.C_r))
    same(X.coaction, ref.to_coring_coaction(M, w.rl, X.coring))
    same(coring_comodule_to_doihopf(X, w.rl).coaction, ref.from_coring_coaction(X, w.rl))

    collapsed, smash = to_smash_module(M, w.rl)
    dB, dC = w.left.alg.dim, w.C_r.dim
    same(collapsed.action, ref.smash_action(M.coaction, M.action, dB))
    same(_counit_action(collapsed, w.rl), ref.counit_action(collapsed, w.rl))
    for x in (_identity(w.field, smash.dim),
              _identity(w.field, dC).outer(w.left.alg.unit).fuse([[0], [1, 2]])):
        same(_curried(collapsed.action, x), ref.curried(collapsed.action, x))

    seen = nullspace_inputs(monkeypatch)
    compute_rat(collapsed, w.rl, smash)
    assert seen == [ref.rat_matrix(collapsed, w.rl, smash)]


@pytest.mark.parametrize("name", NAMES)
def test_module_hom_conditions_are_the_per_basis_rows(name, monkeypatch):
    w = world(name)
    M_rl, M_lr = induced(w.rl), induced(w.lr)
    cases = [(M_rl, trivial_module(w.rl), w.left.alg, False),
             (M_rl, M_rl, w.left.alg, True),       # a left coaction
             (M_lr, M_lr, w.right.alg, True)]      # a right coaction
    for M, N, alg, colinear in cases:
        seen = nullspace_inputs(monkeypatch)
        _module_hom_basis(M, N, colinear)
        assert seen == [ref.module_hom_rows(M, N, alg, colinear)]


@pytest.mark.parametrize("name", NAMES)
def test_smash_maps(name):
    w = world(name)
    phi, phi_inv, _, _, report = phi_isomorphism(w.C_r)
    q_lambda = canonical_elements(regular_comodule_algebra(w.H, "left"), verify=False).q.t
    q_rho = canonical_elements(regular_comodule_algebra(w.H, "right"), verify=False).q_right.t
    want, want_inv = ref.phi_maps(w.C_r, q_lambda, q_rho)
    same(phi, want)
    same(phi_inv, want_inv)
    same(koppinen_smash(w.C_r, w.left).carrier.mult,
         reference_koppinen_smash(w.C_r, w.left).carrier.mult)


@pytest.mark.parametrize("name", NAMES)
def test_yetter_drinfeld_comparison_maps(name):
    w = world(name)
    ctx = YetterDrinfeldContext(w.A, w.C)
    seed = trivial_module(ctx.doihopf)
    M = induce_yd(seed, ctx)
    same(yd_to_doihopf(M, ctx).coaction, ref.yd_to_doihopf_coaction(M, ctx))
    M = induce_doi_hopf(seed, ctx.doihopf)
    same(doihopf_to_yd(M, ctx).coaction, ref.doihopf_to_yd_coaction(M, ctx))


def test_fixture_maps(field):
    same(_grouplike_comult(field), ref.grouplike_comult(field, 2))
    same(_all_ones_counit(field), ref.all_ones_counit(field, 2))
    for H in (None, sweedler(field)):
        C = c2(field, H)
        same(C.right_action, ref.c2_action(C.H))
