"""Acceptance suite: one timed criterion per test, each printing a
pass/fail line.  Everything runs over the rationals and again over the
prime field; all equalities are exact and the runtime budgets are
asserted."""

import contextlib
import io as stdio
import random
import time

import hopf_case
from quasihopf import io, linalg
from quasihopf.cli import main as cli_main
from quasihopf.comodule import (BicomoduleAlgebra, canonical_elements,
                                verify_bicomodule_algebra)
from quasihopf.coring import build_coring, verify_coring
from quasihopf.doihopf import (DoiHopfContext, FiniteModule, compute_rat,
                               coring_comodule_to_doihopf,
                               doihopf_to_coring_comodule, induce_doi_hopf,
                               rational_check, to_smash_module,
                               trivial_module, verify_coring_comodule,
                               verify_doi_hopf)
from quasihopf.fixtures import (FIXTURE_NAMES, c2, h2, h2_bimodule_coalgebra,
                                hh_bicomodule, kz2, regular_comodule_algebra)
from quasihopf.hopf import (QuasiHopfAlgebra, drinfeld_twist, gauge_twist,
                            verify_quasi_hopf)
from quasihopf.modcoalg import (ModuleCoalgebra, dualize,
                                verify_module_coalgebra)
from quasihopf.smash import (alpha_morphism, check_prop_3_10,
                             diagonal_crossed_product, generalized_smash,
                             koppinen_smash, phi_isomorphism,
                             right_generalized_smash, stgsm_product,
                             verify_product_algebra)
from quasihopf.tensor import LinMap, Tensor, apply_linear_map, multiply, switch_legs, unit_tensor
from quasihopf.yd import (YetterDrinfeldContext, doihopf_to_yd, induce_yd,
                          verify_yd, yd_to_doihopf)

from tensor_case import PositionalEl, from_function


class criterion:
    """Timing guard printing the one-line verdict the suite promises."""

    def __init__(self, label, budget_seconds):
        self.label = label
        self.budget = budget_seconds

    def __enter__(self):
        self.start = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.time() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print("criterion %-28s %s  (%.2fs, budget %.0fs)"
              % (self.label, status, elapsed, self.budget))
        if exc_type is None:
            assert elapsed < self.budget, \
                "criterion %s exceeded budget: %.2fs" % (self.label, elapsed)
        return False


def _fixture_bundle(field):
    H = h2(field)
    return {
        "kz2": kz2(field),
        "h2": H,
        "c2": c2(field, H),
        "hh": hh_bicomodule(field, H),
        "bmc": h2_bimodule_coalgebra(field, H),
    }


def _verify_fixture(name, value):
    if isinstance(value, QuasiHopfAlgebra):
        return verify_quasi_hopf(value)
    if isinstance(value, BicomoduleAlgebra):
        return verify_bicomodule_algebra(value)
    if isinstance(value, ModuleCoalgebra):
        return verify_module_coalgebra(value)
    raise AssertionError(name)


def _bump_linmap(field, m, rng, delta):
    src_idx = tuple(rng.randrange(x) for x in m.src)
    dst_idx = tuple(rng.randrange(x) for x in m.dst)
    cols = {k: dict(v) for k, v in m.cols.items()}
    img = cols.setdefault(src_idx, {})
    img[dst_idx] = img.get(dst_idx, field.zero) + delta
    return LinMap(field, m.src, m.dst, cols)


def _bump_tensor(field, t, rng, delta):
    idx = tuple(rng.randrange(x) for x in t.dims)
    data = dict(t.data)
    data[idx] = data.get(idx, field.zero) + delta
    return Tensor(field, t.dims, data)


def _mutate_fixture(name, value, rng, field):
    from quasihopf.tensor import FinAlgebra
    delta = field.random_nonzero(rng)
    if isinstance(value, QuasiHopfAlgebra):
        which = rng.choice(["mult", "comult", "counit", "reassoc", "antipode",
                            "alpha", "beta"])
        alg, comult, counit = value.alg, value.comult, value.counit
        reassoc = value.reassoc
        antipode, alpha, beta = value.antipode, value.alpha, value.beta
        if which == "mult":
            alg = FinAlgebra(field, alg.dim,
                             _bump_linmap(field, alg.mult, rng, delta),
                             alg.unit, validate=False)
        elif which == "comult":
            comult = _bump_linmap(field, comult, rng, delta)
        elif which == "counit":
            counit = _bump_linmap(field, counit, rng, delta)
        elif which == "reassoc":
            reassoc = _bump_tensor(field, reassoc, rng, delta)
        elif which == "antipode":
            antipode = _bump_linmap(field, antipode, rng, delta)
        elif which == "alpha":
            alpha = _bump_tensor(field, alpha, rng, delta)
        else:
            beta = _bump_tensor(field, beta, rng, delta)
        return QuasiHopfAlgebra(alg, comult, counit, reassoc, antipode,
                                alpha, beta, reassoc_inv=value.reassoc_inv)
    if isinstance(value, BicomoduleAlgebra):
        which = rng.choice(["left_coaction", "right_coaction", "reassoc_left",
                            "reassoc_right", "reassoc_mixed"])
        parts = dict(
            left_coaction=value.left_coaction,
            right_coaction=value.right_coaction,
            reassoc_left=value.reassoc_left,
            reassoc_right=value.reassoc_right,
            reassoc_mixed=value.reassoc_mixed)
        if which.startswith("reassoc"):
            parts[which] = _bump_tensor(field, parts[which], rng, delta)
        else:
            parts[which] = _bump_linmap(field, parts[which], rng, delta)
        return BicomoduleAlgebra(
            value.H, value.alg, parts["left_coaction"], parts["right_coaction"],
            parts["reassoc_left"], parts["reassoc_right"], parts["reassoc_mixed"],
            value.reassoc_left_inv, value.reassoc_right_inv,
            value.reassoc_mixed_inv)
    if isinstance(value, ModuleCoalgebra):
        choices = ["comult", "counit"]
        if value.left_action is not None:
            choices.append("left")
        if value.right_action is not None:
            choices.append("right")
        which = rng.choice(choices)
        comult, counit = value.comult, value.counit
        left, right = value.left_action, value.right_action
        if which == "comult":
            comult = _bump_linmap(field, comult, rng, delta)
        elif which == "counit":
            counit = _bump_linmap(field, counit, rng, delta)
        elif which == "left":
            left = _bump_linmap(field, left, rng, delta)
        else:
            right = _bump_linmap(field, right, rng, delta)
        return ModuleCoalgebra(value.H, value.side, value.dim, comult, counit,
                               left_action=left, right_action=right)
    raise AssertionError(name)


def test_criterion_axiom_suites(field):
    with criterion("1 axiom suites + mutations", 5.0):
        bundle = _fixture_bundle(field)
        for name, value in bundle.items():
            report = _verify_fixture(name, value)
            assert report.passed, (name, report.render())
        rng = random.Random(97)
        for name, value in bundle.items():
            for _ in range(50):
                mutated = _mutate_fixture(name, value, rng, field)
                assert not _verify_fixture(name, mutated).passed, name


def test_criterion_drinfeld_twist(field):
    with criterion("2 canonical antipode gauge", 1.0):
        H = h2(field)
        twist = drinfeld_twist(H)
        spaces = H.spaces(2)
        # two-sided inverse
        assert multiply(spaces, twist.t, twist.inv) == unit_tensor(spaces)
        assert multiply(spaces, twist.inv, twist.t) == unit_tensor(spaces)
        # conjugates the antipode through the flipped comultiplication
        for i in range(H.dim):
            s_h = apply_linear_map(H.antipode,
                                   Tensor.basis(field, (H.dim,), (i,)), (0,))
            lhs = multiply(spaces, twist.t, multiply(
                spaces, apply_linear_map(H.comult, s_h, (0,)), twist.inv))
            flipped = switch_legs(H.comult.column((i,)), (1, 0))
            rhs = apply_linear_map(
                H.antipode, apply_linear_map(H.antipode, flipped, (0,)), (1,))
            assert lhs == rhs
        # the twisted reassociator is the antipode image of the reversal
        twisted = gauge_twist(H, twist)
        expect = switch_legs(H.reassoc, (2, 1, 0))
        for leg in range(3):
            expect = apply_linear_map(H.antipode, expect, (leg,), at=leg)
        assert twisted.reassoc == expect
        # inverse-component identity through the backwards antipode
        e = PositionalEl(H.spaces(2), twist.inv).map(H.antipode_inv, 0)
        e = e.times(PositionalEl((H.alg,), H.alpha)).merge(1, 2).merge(1, 0)
        assert e.t == apply_linear_map(H.antipode_inv, H.beta, (0,))


def test_criterion_canonical_elements(field):
    with criterion("3 comparison elements", 1.0):
        H = h2(field)
        left = regular_comodule_algebra(H, "left")
        elements = canonical_elements(left)
        assert elements.report.passed, elements.report.render()
        A = hh_bicomodule(field, H)
        elements = canonical_elements(A)
        assert elements.report.passed, elements.report.render()
        assert elements.q_right is not None


def test_criterion_product_associativity(field):
    with criterion("4 product associativity", 5.0):
        H = h2(field)
        C = c2(field, H)
        B = regular_comodule_algebra(H, "left")
        A = regular_comodule_algebra(H, "right")
        products = [generalized_smash(dualize(C), B),
                    stgsm_product(A, C),
                    koppinen_smash(C, B)]
        hh = hh_bicomodule(field, H)
        dual = dualize(h2_bimodule_coalgebra(field, H))
        for kind in ("left-l", "left-r", "right-l", "right-r"):
            products.append(diagonal_crossed_product(hh, dual, kind))
        for P in products:
            report = verify_product_algebra(P)
            assert report.passed, (P.provenance, report.render())


def test_criterion_comparison_morphisms(field):
    with criterion("5 comparison morphisms", 2.0):
        H = h2(field)
        C = c2(field, H)
        B = regular_comodule_algebra(H, "left")
        morphism, report = alpha_morphism(C, B)
        assert report.passed, report.render()
        assert linalg.rank(field, morphism.to_matrix()) == C.dim * B.alg.dim
        phi, phi_inv, source, target, report = phi_isomorphism(C)
        assert report.passed, report.render()


def test_criterion_crossed_product_equalities(field):
    with criterion("6 crossed-product equalities", 5.0):
        A = hh_bicomodule(field)
        C = h2_bimodule_coalgebra(field)
        report = check_prop_3_10(A, C)
        assert report.passed, report.render()


def test_criterion_rationality_roundtrip(field):
    with criterion("7 rationality roundtrip", 2.0):
        H = h2(field)
        B = regular_comodule_algebra(H, "left")
        C = c2(field, H)
        ctx = DoiHopfContext("right-left", B, C)
        seeds = [trivial_module(ctx)]
        eps_action = from_function(
            field, (1, B.alg.dim), (1,),
            lambda idx: {(0,): H.counit_scalar(idx[1])})
        seeds.append(FiniteModule(1, B.alg, eps_action, "right", name="char"))
        for seed in seeds:
            M = induce_doi_hopf(seed, ctx)
            collapsed, smash = to_smash_module(M, ctx)
            recovered, report = rational_check(collapsed, ctx, smash)
            assert report.passed, report.render()
            for i in range(M.dim):
                assert recovered.coaction.column((i,)) == M.coaction.column((i,))
            basis, rat_report = compute_rat(collapsed, ctx, smash)
            assert rat_report.passed
            assert len(basis) == M.dim


def test_criterion_equivalence_roundtrip(field):
    with criterion("8 equivalence roundtrip", 5.0):
        H = h2(field)
        A = hh_bicomodule(field, H)
        C = h2_bimodule_coalgebra(field, H)
        ctx = YetterDrinfeldContext(A, C)
        action = LinMap(field, (A.alg.dim, A.alg.dim), (A.alg.dim,),
                        A.alg.mult.cols)
        seed = FiniteModule(A.alg.dim, A.alg, action, "left", name="regular")
        M = induce_yd(seed, ctx)
        assert M.dim == 4
        assert verify_yd(M, ctx).passed
        forward = yd_to_doihopf(M, ctx)
        assert verify_doi_hopf(forward, ctx.doihopf).passed
        back = doihopf_to_yd(forward, ctx)
        assert verify_yd(back, ctx).passed
        for i in range(M.dim):
            assert back.coaction.column((i,)) == M.coaction.column((i,))
        forward_again = yd_to_doihopf(back, ctx)
        for i in range(M.dim):
            assert forward_again.coaction.column((i,)) == \
                forward.coaction.column((i,))


def test_criterion_coring_suite(field):
    with criterion("9 coring suite", 3.0):
        H = h2(field)
        B = regular_comodule_algebra(H, "left")
        A = regular_comodule_algebra(H, "right")
        C = c2(field, H)
        left_action = from_function(
            field, (H.dim, 2), (2,),
            lambda idx: {(idx[1],): H.counit_scalar(idx[0])})
        C_left = ModuleCoalgebra(H, "left", 2, C.comult, C.counit,
                                 left_action=left_action)
        hh = hh_bicomodule(field, H)
        bmc = h2_bimodule_coalgebra(field, H)
        for coring in (build_coring("BC", B=B, C=C),
                       build_coring("CA", A=A, C=C_left),
                       build_coring("YD", A=hh, C=bmc)):
            report = verify_coring(coring)
            assert report.passed, (coring.name, report.render())
        ctx = DoiHopfContext("right-left", B, C)
        M = induce_doi_hopf(trivial_module(ctx), ctx)
        comodule, coring = doihopf_to_coring_comodule(M, ctx)
        assert verify_coring_comodule(comodule).passed
        back = coring_comodule_to_doihopf(comodule, ctx)
        for i in range(M.dim):
            assert back.coaction.column((i,)) == M.coaction.column((i,))


def test_criterion_degeneration_oracle(field):
    with criterion("10 degeneration oracle", 2.0):
        H = kz2(field)
        C = c2(field, H)
        B = regular_comodule_algebra(H, "left")
        A = regular_comodule_algebra(H, "right")
        hh = hh_bicomodule(field, H)
        bmc = h2_bimodule_coalgebra(field, H)
        dual_C = dualize(C)
        dual_bmc = dualize(bmc)

        def assert_table(product, table):
            d2 = product.factor_dims[1]
            for (x, y), acc in table.items():
                got = product.carrier.basis_product(
                    x[0] * d2 + x[1], y[0] * d2 + y[1])
                expect = Tensor(field, (product.carrier.dim,),
                                {(a * d2 + b,): v for (a, b), v in acc.items()})
                assert got == expect, (product.provenance, x, y)

        assert_table(generalized_smash(dual_C, B),
                     hopf_case.classical_smash_table(dual_C, B))
        assert_table(koppinen_smash(C, B),
                     hopf_case.classical_koppinen_table(C, B))
        left_action = from_function(
            field, (H.dim, 2), (2,),
            lambda idx: {(idx[1],): H.counit_scalar(idx[0])})
        C_left = ModuleCoalgebra(H, "left", 2, C.comult, C.counit,
                                 left_action=left_action)
        dual_left = dualize(C_left)
        assert_table(right_generalized_smash(A, dual_left),
                     hopf_case.classical_right_smash_table(A, dual_left))
        for kind in ("left-l", "left-r", "right-l", "right-r"):
            assert_table(diagonal_crossed_product(hh, dual_bmc, kind),
                         hopf_case.classical_diagonal_table(hh, dual_bmc, H, kind))

        # induced module structure maps collapse to the classical ones
        ctx = DoiHopfContext("right-left", B, C)
        M = induce_doi_hopf(trivial_module(ctx), ctx)
        action_table, coaction_table = hopf_case.classical_induced_doihopf(
            B, C, field)
        dB = B.alg.dim
        for (c, n, b), acc in action_table.items():
            got = M.action.column((c * dB + n, b))
            expect = Tensor(field, (M.dim,),
                            {(cc * dB + nn,): v for (cc, nn), v in acc.items()})
            assert got == expect
        for (c, n), acc in coaction_table.items():
            got = M.coaction.column((c * dB + n,))
            expect = Tensor(field, (C.dim, M.dim),
                            {(c1, c2 * dB + nn): v
                             for (c1, c2, nn), v in acc.items()})
            assert got == expect

        ydctx = YetterDrinfeldContext(hh, bmc)
        action = LinMap(field, (hh.alg.dim, hh.alg.dim), (hh.alg.dim,),
                        hh.alg.mult.cols)
        seed = FiniteModule(hh.alg.dim, hh.alg, action, "left")
        MY = induce_yd(seed, ydctx)
        y_action, y_coaction = hopf_case.classical_induced_yd(hh, bmc, H)
        dC = bmc.dim
        for (a, n, c), acc in y_action.items():
            got = MY.action.column((a, n * dC + c))
            expect = Tensor(field, (MY.dim,),
                            {(nn * dC + cc,): v for (nn, cc), v in acc.items()})
            assert got == expect
        for (n, c), acc in y_coaction.items():
            got = MY.coaction.column((n * dC + c,))
            expect = Tensor(field, (MY.dim, dC),
                            {(nn * dC + c1, c2): v
                             for (nn, c1, c2), v in acc.items()})
            assert got == expect
        # the comparison functors are the identity here
        assert all(yd_to_doihopf(MY, ydctx).coaction.column((i,)) ==
                   MY.coaction.column((i,)) for i in range(MY.dim))

        coring = build_coring("BC", B=B, C=C)
        classical = hopf_case.classical_bc_coring_comult(B, C)
        dC2 = C.dim
        for (b, c), acc in classical.items():
            got = coring.comult.column((b * dC2 + c,))
            expect = Tensor(field, (coring.dim, coring.dim),
                            {(p[0] * dC2 + p[1], q[0] * dC2 + q[1]): v
                             for (p, q), v in acc.items()})
            assert got == expect


def _quiet_cli(argv):
    sink = stdio.StringIO()
    with contextlib.redirect_stdout(sink):
        return cli_main(argv)


def test_criterion_cli_contract(field, tmp_path):
    with criterion("11 cli contract", 30.0):
        d = str(tmp_path)
        tag = "q" if field.characteristic == 0 else "fp:%d" % field.characteristic
        for name in FIXTURE_NAMES:
            assert _quiet_cli(["fixture", "emit", name, "--dir", d,
                               "--field", tag]) == 0
            path = "%s/%s%s" % (d, name, io.SUFFIX)
            assert _quiet_cli(["check", path]) == 0
            # canonical serialization round-trips byte-identically
            before = open(path, "rb").read()
            value = io.parse(path)
            base = "%s/h2%s" % (d, io.SUFFIX)
            if isinstance(value, QuasiHopfAlgebra):
                io.emit_value(value, path)
            else:
                io.emit_value(value, path, base_path=base)
            assert open(path, "rb").read() == before
        # report determinism across worker counts
        h2_path = "%s/h2%s" % (d, io.SUFFIX)
        r1, r4 = "%s/r1.json" % d, "%s/r4.json" % d
        assert _quiet_cli(["--report", r1, "--jobs", "1", "check", h2_path]) == 0
        assert _quiet_cli(["--report", r4, "--jobs", "4", "check", h2_path]) == 0
        assert open(r1, "rb").read() == open(r4, "rb").read()
