"""The checks that run as one contraction against their per-item forms.

Each check here builds both sides once, for every basis tuple at once,
and records them through ``CheckReport.sweep_all``; ``sweep_case`` keeps
the per-item forms.  On the regular bicomodule algebras of
``test_closed_inverses.CASES`` (h2 over Q and F_10007, and gauge twists
of Sweedler's algebra over F_10007) and on a gauge twist of Sweedler's
algebra over Q, and on seeded single-entry mutants of their maps, every
record must be the reference's: id, verdict, witness and both sides.
Sweedler's algebra is neither commutative nor cocommutative, so a
mistake in the order of the item legs fails there.

The module coalgebra checks run on h2's bimodule coalgebra and the
regular one-sided module coalgebras of every base, with seeded mutants
of their own maps and over seeded mutants of the base's
comultiplication and counit.

The checks whose items are tagged with a side run through
``CheckReport.sweep_sides``: the product algebra's ``unit-two-sided``
over seeded mutants of the carrier's product and unit, the module
algebra's ``action-counit-unit`` over the duals of the module coalgebras
above, and the coring's ``counit-bilinear`` and ``counit-law`` over the
BC, CA and YD corings with seeded mutants of their counit,
comultiplication and actions.

Neither the README pipeline nor the verifiers of the mutation-sweep
benchmark workload may run any of these checks through the per-item
``CheckReport.sweep``.
"""

import functools
import random
from collections import Counter

import pytest

from quasihopf import cli, comodule, doihopf, smash, tensor
from quasihopf.coring import Coring, build_coring, verify_coring
from quasihopf.comodule import (BicomoduleAlgebra, ComoduleAlgebra, canonical_elements,
                                internal_coalgebra, right_realization,
                                verify_bicomodule_algebra, verify_comodule_algebra)
from quasihopf.doihopf import (DoiHopfContext, FiniteModule,
                               doihopf_to_coring_comodule, induce_doi_hopf, rational_check,
                               to_smash_module, trivial_module, verify_coring_comodule,
                               verify_doi_hopf)
from quasihopf.errors import NotRational
from quasihopf.fields import QQ, PrimeField
from quasihopf.fixtures import (c2, h2, h2_bimodule_coalgebra, hh_bicomodule, kz2,
                                regular_comodule_algebra)
from quasihopf.hopf import QuasiHopfAlgebra, gauge_twist, tensor_qha
from quasihopf.modcoalg import (ModuleCoalgebra, dualize, verify_module_algebra,
                                verify_module_coalgebra)
from quasihopf.report import CheckRecord, CheckReport
from quasihopf.smash import (ProductAlgebra, alpha_morphism, check_prop_3_10,
                             generalized_smash, phi_isomorphism,
                             verify_product_algebra)
from quasihopf.tensor import (FinAlgebra, LinMap, Tensor, _identity, all_indices,
                              apply_linear_map, multiply)
from quasihopf.yd import YetterDrinfeldContext, induce_yd, verify_yd

from sweep_case import (reference_action_compat, reference_action_counit_unit,
                        reference_actions_commute, reference_coaction_counit,
                        reference_coaction_quasi_coassoc, reference_coring_counit,
                        reference_coring_counit_law, reference_coring_module_law,
                        reference_counit_comult, reference_distributive,
                        reference_mixed_intertwine, reference_module_law,
                        reference_multiplicative, reference_rational,
                        reference_same_coaction, reference_slides, reference_tables_equal,
                        reference_unit_two_sided)
from test_cli import readme_commands, run
from test_closed_inverses import CASES, xx_gauge
from test_hopf import sweedler


@functools.lru_cache(maxsize=None)
def bicomodules():
    """The regular bicomodule algebras over every base, by name."""
    out = {name: make() for name, make in CASES.items()}
    H = sweedler(QQ)
    out["sweedler-xx3-rationals"] = hh_bicomodule(QQ, gauge_twist(H, xx_gauge(H, 3)))
    return out


def bases():
    return [(name, A.H) for name, A in sorted(bicomodules().items())]


def bumped(m: LinMap, rng) -> LinMap:
    """``m`` with one seeded entry bumped by a nonzero amount."""
    field = m.field
    src = tuple(rng.randrange(d) for d in m.src)
    dst = tuple(rng.randrange(d) for d in m.dst)
    cols = {k: dict(v) for k, v in m.cols.items()}
    img = cols.setdefault(src, {})
    img[dst] = img.get(dst, field.zero) + field.from_int(rng.randrange(1, 50))
    return LinMap(field, m.src, m.dst, cols, m.dst_spaces)


def bumped_tensor(t: Tensor, rng) -> Tensor:
    """``t`` with one seeded entry bumped by a nonzero amount."""
    idx = tuple(rng.randrange(d) for d in t.dims)
    return t + Tensor(t.field, t.dims, {idx: t.field.from_int(rng.randrange(1, 50))})


def bumped_alg(alg: FinAlgebra, rng) -> FinAlgebra:
    return FinAlgebra(alg.field, alg.dim, bumped(alg.mult, rng), alg.unit, name=alg.name,
                      validate=False)


def right_regular(H):
    """H as a right module coalgebra over itself."""
    return ModuleCoalgebra(H, "right", H.dim, H.comult, H.counit, right_action=H.alg.mult,
                           name="regular")


def records(report, ids):
    return [r for r in report.records if r.check_id in ids]


def reference(fn, *args):
    report = CheckReport("")
    fn(report, *args)
    return report.records


class Failures:
    """Counts the failing records seen per check id, so that a test can
    require each check's witness and sides to have been compared."""

    def __init__(self):
        self.seen = Counter()

    def match(self, got, want, label, tag=""):
        """Compare the records; count each failing one under ``tag`` and
        its id."""
        assert got == want, label
        assert got, label
        self.seen.update(tag + r.check_id for r in got if not r.passed)

    def require(self, ids):
        missing = [i for i in ids if not self.seen[i]]
        assert missing == [], dict(self.seen)


def test_comodule_algebra_records():
    failures = Failures()
    ids = ("coaction-multiplicative", "coaction-counit")
    for name, A in sorted(bicomodules().items()):
        rng = random.Random(name)
        for X in (A.left(), A.right()):
            variants = [X]
            for _ in range(3):
                variants.append(ComoduleAlgebra(X.H, X.side, X.alg, bumped(X.coaction, rng),
                                                X.reassoc, X.reassoc_inv))
            variants.append(ComoduleAlgebra(X.H, X.side, bumped_alg(X.alg, rng), X.coaction,
                                            X.reassoc, X.reassoc_inv))
            for Y in variants:
                want = reference(reference_multiplicative, ids[0], Y.alg, Y.coaction,
                                 functools.partial(multiply, Y.coaction.dst_spaces))
                leg = 1 if Y.side == "right" else 0
                want += reference(reference_coaction_counit, Y.H.counit, Y.coaction, leg)
                failures.match(records(verify_comodule_algebra(Y), ids), want, name)
    failures.require(ids)


def test_product_algebra_records():
    failures = Failures()
    for name, H in bases():
        rng = random.Random(name)
        P = generalized_smash(dualize(right_regular(H)), regular_comodule_algebra(H, "left"))
        variants = [P]
        for _ in range(3):
            variants.append(ProductAlgebra(P.carrier, P.factor_dims, P.provenance,
                                           bumped(P.sub_embedding, rng), P.sub_alg))
        variants.append(ProductAlgebra(P.carrier, P.factor_dims, P.provenance,
                                       P.sub_embedding, bumped_alg(P.sub_alg, rng)))
        for Q in variants:
            want = reference(reference_multiplicative, "subalgebra-multiplicative", Q.sub_alg,
                             Q.sub_embedding, Q.carrier.product)
            failures.match(records(verify_product_algebra(Q), ("subalgebra-multiplicative",)),
                           want, name)
    failures.require(("subalgebra-multiplicative",))


def coalgebra_mutants(C, rng, count, maps=("comult", "right_action", "left_action")):
    """C and ``count`` seeded mutants of it, each with one of ``maps``
    bumped, in turn."""
    maps = [m for m in maps if getattr(C, m) is not None]
    yield C
    for k in range(count):
        parts = {m: getattr(C, m) for m in ("comult", "counit", "left_action", "right_action")}
        attr = maps[k % len(maps)]
        parts[attr] = bumped(parts[attr], rng)
        yield ModuleCoalgebra(C.H, C.side, C.dim, name=C.name, **parts)


class Tables:
    """Wraps product-table builders of ``smash``.  Every table that one of
    ``names`` returns is kept in ``built[name]``; while ``rng`` is set,
    each table of the last name first gets one seeded entry bumped, so
    that the comparison of the two tables fails somewhere."""

    def __init__(self, monkeypatch, names):
        self.rng, self.built = None, {}
        for name in names:
            monkeypatch.setattr(smash, name, functools.partial(
                self.build, name, getattr(smash, name), name == names[-1]))

    def build(self, name, real, bump, *args):
        P = real(*args)
        if bump and self.rng is not None:
            P = ProductAlgebra(bumped_alg(P.carrier, self.rng), P.factor_dims, P.provenance,
                               P.sub_embedding, P.sub_alg)
        self.built.setdefault(name, []).append(P)
        return P

    def runs(self, seed):
        """Clear the kept tables before a run with no bump, then before
        each of three runs with bumps drawn from ``seed``."""
        for rng in (None,) + (random.Random(seed),) * 3:
            self.rng = rng
            self.built.clear()
            yield


def test_comparison_morphism_records(monkeypatch):
    failures = Failures()
    tables = Tables(monkeypatch, ("generalized_smash", "koppinen_smash"))
    for name, H in bases():
        B = regular_comodule_algebra(H, "left")
        C = right_regular(H)
        for _ in tables.runs(name):
            _, report = alpha_morphism(C, B)
            lhs, rhs = (tables.built[k][0].carrier for k in ("generalized_smash",
                                                               "koppinen_smash"))
            want = reference(reference_tables_equal, "multiplicative", lhs, rhs)
            got = {r.check_id: r for r in report.records}
            failures.match([got["multiplicative"]], want, name)
            # the record that ranking the identity matrix makes
            dim = C.dim * H.dim
            assert got["bijective"] == CheckRecord("bijective", True, None, dim, dim)
    monkeypatch.undo()
    for name, H in bases():
        for C in coalgebra_mutants(right_regular(H), random.Random(name), 4):
            phi, _, source, target, report = phi_isomorphism(C)
            want = reference(reference_multiplicative, "multiplicative", source.carrier, phi,
                             target.carrier.product)
            failures.match(records(report, ("multiplicative",)), want, name, "phi:")
    failures.require(("multiplicative", "phi:multiplicative"))


def test_prop_3_10_table_records(monkeypatch):
    failures = Failures()
    tables = Tables(monkeypatch, ("right_generalized_smash", "_diagonal_product"))
    ids = ("tables-equal-first", "tables-equal-second")
    for name in ("h2-rationals", "h2-fp10007", "sweedler-xx3", "sweedler-transported",
                 "sweedler-xx3-rationals"):
        A = bicomodules()[name]
        for _ in tables.runs(name):
            report = check_prop_3_10(A, h2_bimodule_coalgebra(A.field, A.H))
            want = []
            for check_id, lhs, rhs in zip(ids, tables.built["right_generalized_smash"],
                                          tables.built["_diagonal_product"]):
                want += reference(reference_tables_equal, check_id, lhs.carrier, rhs.carrier)
            failures.match(records(report, ids), want, name)
    failures.require(ids)


def module_mutants(M, rng, count):
    """M and ``count`` seeded mutants, alternately of its action and its
    coaction."""
    yield M
    for k in range(count):
        action, coaction = M.action, M.coaction
        if k % 2:
            coaction = bumped(coaction, rng)
        else:
            action = bumped(action, rng)
        yield FiniteModule(M.dim, M.over, action, M.action_side, coaction, M.coaction_side,
                           name=M.name)


MODULE_LAW = ("action-unital", "action-associative")


def module_law_reference(M, alg):
    return reference(reference_module_law, alg, M.dim, M.action, M.action_side, "action")


def test_doi_hopf_and_coring_comodule_records():
    failures = Failures()
    ids = MODULE_LAW + ("coaction-counit",)
    coring_ids = ("action-associative", "action-unital", "counit-law")
    for name, H in bases():
        rng = random.Random(name)
        B = regular_comodule_algebra(H, "left")
        ctx = DoiHopfContext("right-left", B, right_regular(H))
        M = induce_doi_hopf(trivial_module(ctx), ctx)
        for N in module_mutants(M, rng, 6):
            want = module_law_reference(N, B.alg)
            want += reference(reference_coaction_counit, ctx.coalgebra.counit, N.coaction, 0)
            failures.match(records(verify_doi_hopf(N, ctx), ids), want, name)
            comodule, _ = doihopf_to_coring_comodule(N, ctx)
            want = reference(reference_coring_module_law, comodule)
            want += reference(reference_coring_counit_law, comodule)
            failures.match(records(verify_coring_comodule(comodule), coring_ids), want,
                           name, "coring:")
    failures.require(ids + tuple("coring:" + i for i in coring_ids))


def test_yd_records():
    failures = Failures()
    ids = MODULE_LAW + ("coaction-counit",)
    for name in ("h2-rationals", "h2-fp10007", "sweedler-xx3", "sweedler-xgx4",
                 "sweedler-xx3-rationals"):
        A = bicomodules()[name]
        ctx = YetterDrinfeldContext(A, h2_bimodule_coalgebra(A.field, A.H))
        M = induce_yd(trivial_module(ctx.doihopf), ctx)
        for N in module_mutants(M, random.Random(name), 6):
            want = module_law_reference(N, A.alg)
            want += reference(reference_coaction_counit, ctx.C.counit, N.coaction, 1)
            failures.match(records(verify_yd(N, ctx), ids), want, name)
    failures.require(ids)


def test_module_coalgebra_records():
    failures = Failures()
    ids = tuple("%s-action-%s" % (side, law) for side in ("left", "right")
                for law in ("unital", "associative")) + ("actions-commute",)
    for name, H in bases():
        rng = random.Random(name)
        for C in coalgebra_mutants(h2_bimodule_coalgebra(H.field, H), rng, 8):
            want = []
            for side in ("left", "right"):
                want += reference(reference_module_law, H.alg, C.dim,
                                  getattr(C, side + "_action"), side, side + "-action")
            want += reference(reference_actions_commute, H, C.dim, C.left_action,
                              C.right_action)
            failures.match(records(verify_module_coalgebra(C), ids), want, name)
    failures.require(ids)


def test_rational_records():
    seen = Counter()
    for name, H in bases():
        rng = random.Random(name)
        B = regular_comodule_algebra(H, "left")
        ctx = DoiHopfContext("right-left", B, right_regular(H))
        collapsed, product = to_smash_module(induce_doi_hopf(trivial_module(ctx), ctx), ctx)
        dC, dB = ctx.coalgebra.dim, B.alg.dim
        variants = [collapsed] + [
            FiniteModule(collapsed.dim, collapsed.over, bumped(collapsed.action, rng), "right")
            for _ in range(4)]
        for M in variants:
            coaction = doihopf._curried(M.action, _identity(M.field, dC).outer(
                B.alg.unit).fuse([[0], [1, 2]]))
            via = doihopf._smash_action(coaction, doihopf._counit_action(M, ctx))
            want = reference(reference_rational, M.action, via, dC, dB)
            try:
                _, report = rational_check(M, ctx, product)
            except NotRational as exc:
                assert not want[0].passed, name
                assert str(exc) == "module fails the rationality law at %r" % (
                    want[0].witness,)
                seen["failed"] += 1
                continue
            assert records(report, ("rational",)) == want, name
            seen["passed"] += 1
    assert seen["failed"] and seen["passed"], seen


def test_coaction_roundtrip_records():
    failures = Failures()
    for name, A in sorted(bicomodules().items()):
        rng = random.Random(name)
        for X in (A.left(), A.right()):
            internal = internal_coalgebra(X)
            action = internal.left_action
            for k in range(4):
                internal.left_action = bumped(action, rng) if k else action
                coaction, _ = internal.extract()
                want = reference(reference_same_coaction, "roundtrip-coaction", coaction,
                                 internal.source.coaction)
                failures.match(records(internal.verify(), ("roundtrip-coaction",)), want, name)
            # the CLI's comparison of two modules' coactions
            M = FiniteModule(X.alg.dim, X.alg, X.alg.mult, "left", X.coaction, "right")
            other = next(N for N in module_mutants(M, rng, 2) if N.coaction != M.coaction)
            for got in (M, other):
                report = CheckReport("")
                cli._sweep_coactions(report, "coaction-recovered", got, M)
                want = reference(reference_same_coaction, "coaction-recovered", got.coaction,
                                 M.coaction)
                failures.match(report.records, want, name)
    failures.require(("roundtrip-coaction", "coaction-recovered"))


def base_mutants(H, rng, count):
    """``count`` seeded mutants of the base H, alternately with its
    comultiplication and its counit bumped."""
    for k in range(count):
        comult, counit = H.comult, H.counit
        if k % 2:
            counit = bumped(counit, rng)
        else:
            comult = bumped(comult, rng)
        yield QuasiHopfAlgebra(H.alg, comult, counit, H.reassoc, H.antipode, H.alpha, H.beta,
                               reassoc_inv=H.reassoc_inv, name=H.name)


def comodule_mutants(X, rng):
    """X and seeded mutants of it: of its coaction, of its reassociator
    (the stated inverse left as it was) and of its base's
    comultiplication."""
    yield X
    for _ in range(3):
        yield ComoduleAlgebra(X.H, X.side, X.alg, bumped(X.coaction, rng), X.reassoc,
                              X.reassoc_inv)
    for _ in range(2):
        yield ComoduleAlgebra(X.H, X.side, X.alg, X.coaction, bumped_tensor(X.reassoc, rng),
                              X.reassoc_inv)
    for H in base_mutants(X.H, rng, 3):
        yield ComoduleAlgebra(H, X.side, X.alg, X.coaction, X.reassoc, X.reassoc_inv)


def test_coaction_quasi_coassoc_records():
    failures = Failures()
    ids = ("coaction-quasi-coassoc",)
    for name, A in sorted(bicomodules().items()):
        rng = random.Random(name)
        for X in (A.left(), A.right()):
            for Y in comodule_mutants(X, rng):
                failures.match(records(verify_comodule_algebra(Y), ids),
                               reference(reference_coaction_quasi_coassoc, Y), name)
    failures.require(ids)


def test_canonical_slides_records():
    failures = Failures()
    ids = ("coaction-slides-through-p", "coaction-slides-through-q")
    for name, A in sorted(bicomodules().items()):
        rng = random.Random(name)
        for Y in list(comodule_mutants(A.left(), rng))[:6]:
            canonical = canonical_elements(Y)
            want = reference(reference_slides, Y, canonical.p, canonical.q)
            failures.match(records(canonical.report, ids), want, name)
    failures.require(ids)


def bicomodule_mutants(A, rng):
    """Six seeded mutants of A: of its left coaction, its right coaction
    and its mixed reassociator in turn, the stated inverses left as they
    were."""
    for k in range(6):
        maps = [A.left_coaction, A.right_coaction, A.reassoc_mixed]
        maps[k % 3] = (bumped_tensor if k % 3 == 2 else bumped)(maps[k % 3], rng)
        yield BicomoduleAlgebra(A.H, A.alg, maps[0], maps[1], A.reassoc_left,
                                A.reassoc_right, maps[2], A.reassoc_left_inv,
                                A.reassoc_right_inv, A.reassoc_mixed_inv)


def test_mixed_intertwine_records():
    failures = Failures()
    ids = ("mixed-intertwine",)
    for name, A in sorted(bicomodules().items()):
        rng = random.Random(name)
        for B in [A] + list(bicomodule_mutants(A, rng)):
            failures.match(records(verify_bicomodule_algebra(B), ids),
                           reference(reference_mixed_intertwine, B), name)
    failures.require(ids)


COMPAT = tuple("%s-action-compat-%s" % (law, side) for law in ("comult", "counit")
               for side in ("left", "right"))


def left_regular(H):
    """H as a left module coalgebra over itself."""
    return ModuleCoalgebra(H, "left", H.dim, H.comult, H.counit, left_action=H.alg.mult,
                           name="regular")


def module_coalgebras(H, rng):
    """The bimodule coalgebra H and the regular one-sided ones, each with
    seeded mutants of its own maps and over seeded mutants of H."""
    maps = ("comult", "counit", "left_action", "right_action")
    for C in (h2_bimodule_coalgebra(H.field, H), left_regular(H), right_regular(H)):
        yield from coalgebra_mutants(C, rng, 8, maps)
        for base in base_mutants(H, rng, 4):
            yield ModuleCoalgebra(base, C.side, C.dim, C.comult, C.counit, C.left_action,
                                  C.right_action, name=C.name)


def test_module_coalgebra_moved_records():
    failures = Failures()
    ids = ("counit-comult",) + COMPAT
    for name, H in bases():
        for C in module_coalgebras(H, random.Random(name)):
            want = reference(reference_counit_comult, C) + reference(reference_action_compat, C)
            failures.match(records(verify_module_coalgebra(C), ids), want, name)
    failures.require(ids)


def test_module_algebra_distributive_records():
    failures = Failures()
    ids = ("action-distributive-left", "action-distributive-right")
    for name, H in bases():
        for C in module_coalgebras(H, random.Random(name)):
            A = dualize(C)
            failures.match(records(verify_module_algebra(A), ids),
                           reference(reference_distributive, A), name)
    failures.require(ids)


def test_module_algebra_counit_unit_records():
    failures = Failures()
    ids = ("action-counit-unit",)
    for name, H in bases():
        for C in module_coalgebras(H, random.Random(name)):
            A = dualize(C)
            failures.match(records(verify_module_algebra(A), ids),
                           reference(reference_action_counit_unit, A), name)
    failures.require(ids)


def test_product_algebra_unit_records():
    # seeded mutants of the carrier's product and of its unit
    failures = Failures()
    ids = ("unit-two-sided",)
    for name, H in bases():
        rng = random.Random(name)
        P = generalized_smash(dualize(right_regular(H)), regular_comodule_algebra(H, "left"))
        alg = P.carrier
        carriers = [alg] + [bumped_alg(alg, rng) for _ in range(3)] + [
            FinAlgebra(alg.field, alg.dim, alg.mult, bumped_tensor(alg.unit, rng),
                       name=alg.name, validate=False) for _ in range(3)]
        for carrier in carriers:
            Q = ProductAlgebra(carrier, P.factor_dims, P.provenance, P.sub_embedding, P.sub_alg)
            failures.match(records(verify_product_algebra(Q), ids),
                           reference(reference_unit_two_sided, carrier), name)
    failures.require(ids)


def corings(name, H):
    """The BC and CA corings of H's regular structures, and the YD coring
    of the regular bicomodule algebra over the 2-dim bases."""
    yield build_coring("BC", B=regular_comodule_algebra(H, "left"), C=right_regular(H))
    yield build_coring("CA", A=regular_comodule_algebra(H, "right"), C=left_regular(H))
    if H.dim == 2:
        yield build_coring("YD", A=bicomodules()[name], C=h2_bimodule_coalgebra(H.field, H))


def test_coring_counit_records():
    # seeded mutants of the counit, of the comultiplication and of the
    # action that the carrier's freeness does not read
    failures = Failures()
    ids = ("counit-bilinear", "counit-law")
    for name, H in bases():
        rng = random.Random(name)
        for X in corings(name, H):
            parts = ("left_action", "right_action", "comult", "counit")
            free_action = "right_action" if "left" in X._free else "left_action"
            variants = [X]
            for attr in ("counit", "counit", "comult", free_action, free_action):
                maps = {m: getattr(X, m) for m in parts}
                maps[attr] = bumped(maps[attr], rng)
                variants.append(Coring(X.R, X.dim, *(maps[m] for m in parts), name=X.name))
            for Y in variants:
                failures.match(records(verify_coring(Y), ids),
                               reference(reference_coring_counit, Y), name)
    failures.require(ids)


def test_module_coalgebra_counit_comult_fails_at_the_first_item_of_either_side():
    # over twisted Sweedler eps(e_2) = 0 != eps(e_1): bumping Delta(e_0) at
    # (2, 1) breaks only the right counit law at e_0, bumping Delta(e_1) at
    # (1, 2) only the left one at e_1, so the first failing item is e_0
    # and its side the right one
    A = bicomodules()["sweedler-xx3"]
    H, field = A.H, A.field
    assert (H.counit_scalar(2), H.counit_scalar(1)) == (field.zero, field.one)
    cols = {k: dict(v) for k, v in H.comult.cols.items()}
    for src, dst in (((0,), (2, 1)), ((1,), (1, 2))):
        cols[src][dst] = cols[src].get(dst, field.zero) + field.one
    C = right_regular(H)
    C = ModuleCoalgebra(H, C.side, C.dim, LinMap(field, (4,), (4, 4), cols), C.counit,
                        right_action=C.right_action)
    got = records(verify_module_coalgebra(C), ("counit-comult",))
    assert got == reference(reference_counit_comult, C)
    assert got[0].witness == (0,)
    right = apply_linear_map(C.counit, C.comult.column((0,)), (1,))
    assert (got[0].lhs, got[0].rhs) == (right, Tensor.basis(field, (4,), (0,)))


def test_comult_action_compat_left_witness_is_the_action_source_index():
    # the left law is swept with the coalgebra index outermost and its
    # witness reported as (h, c).  Bumping the left regular action at
    # (h, c) = (1, 0) and at (0, 1) breaks the law at both; the first of
    # them in that order is (1, 0), and in row-major (h, c) order (0, 1)
    seen = 0
    for name, H in bases():
        action = H.alg.mult
        cols = {k: dict(v) for k, v in action.cols.items()}
        for src in ((1, 0), (0, 1)):
            cols[src][(0,)] = cols[src].get((0,), H.field.zero) + H.field.one
        C = ModuleCoalgebra(H, "left", H.dim, H.comult, H.counit,
                            left_action=LinMap(H.field, action.src, action.dst, cols))
        got = records(verify_module_coalgebra(C), ("comult-action-compat-left",))
        want = reference(reference_action_compat, C)[0]
        row_major = reference(functools.partial(
            reference_action_compat, left_items=all_indices((H.dim, C.dim))), C)[0]
        assert got == [want], name
        if H.dim == 2:
            assert (want.witness, row_major.witness) == ((1, 0), (0, 1)), name
            seen += 1
    assert seen


# the checks that run as one contraction, by id
MOVED = {"coaction-multiplicative", "subalgebra-multiplicative", "multiplicative",
         "tables-equal-first", "tables-equal-second", "coaction-counit", "rational",
         "roundtrip-coaction", "roundtrip-coaction-other-way", "coaction-recovered",
         "actions-commute", "coaction-quasi-coassoc", "coaction-slides-through-p",
         "coaction-slides-through-q", "mixed-intertwine", "counit-comult",
         "action-distributive-left", "action-distributive-right", "unit-roundtrip",
         "counit-roundtrip", "naturality", "second-unit-roundtrip",
         "second-counit-roundtrip", "unit-two-sided", "action-counit-unit",
         "counit-bilinear", "counit-law"} | set(COMPAT) | {
             prefix + "action-" + law for prefix in ("", "left-", "right-")
             for law in ("unital", "associative")}


@pytest.fixture
def swept(monkeypatch):
    """The (subject, check id) of every ``CheckReport.sweep`` call, in order."""
    calls = []
    original = CheckReport.sweep

    def spy(self, check_id, items, fn):
        calls.append((self.subject, check_id))
        return original(self, check_id, items, fn)

    monkeypatch.setattr(CheckReport, "sweep", spy)
    return calls


def moved_checks(calls):
    return [(subject, check_id) for subject, check_id in calls if check_id in MOVED]


@pytest.mark.parametrize("field_tag", ["q", "fp:10007"])
def test_readme_pipeline_sweeps_no_moved_check_per_item(tmp_path, monkeypatch, swept,
                                                        field_tag):
    monkeypatch.chdir(tmp_path)
    for argv in readme_commands():
        if argv[:2] == ["fixture", "emit"]:
            argv = argv + ["--field", field_tag]
        run(argv)
    assert moved_checks(swept) == []
    # the spy sees the checks that stay per item
    assert {"comult-bilinear", "coassoc-upto-reassoc"} <= {c for _, c in swept}


@pytest.mark.parametrize("field", [QQ, PrimeField(10007)], ids=["q", "fp10007"])
def test_mutation_sweep_verifiers_sweep_no_moved_check_per_item(swept, field):
    # the five 2-dim fixtures, and seeded mutants of the bicomodule algebra
    # and of the two module coalgebras, each through its verifier
    H = h2(field)
    rng = random.Random(str(field))
    values = [kz2(field), H]
    A = hh_bicomodule(field, H)
    values += [A] + [B for _, B in zip(range(4), bicomodule_mutants(A, rng))]
    for C in (c2(field, H), h2_bimodule_coalgebra(field, H)):
        values += coalgebra_mutants(C, rng, 6, ("comult", "counit", "left_action",
                                                "right_action"))
    failed = sum(not cli._verify_any(value).passed for value in values)
    assert failed >= 10
    assert moved_checks(swept) == []
    assert {"coassoc-upto-reassoc"} <= {c for _, c in swept}


def test_verify_comodule_algebra_kernel_calls_do_not_grow_with_dim(monkeypatch):
    # each basis sweep is one contraction, so verify_comodule_algebra makes
    # as many multiply and apply_linear_map calls on the right realization
    # of hh over h2 (carrier dim 2) as over h2 (x) h2 (carrier dim 4)
    field = PrimeField(10007)
    base = h2(field)
    Xs = [right_realization(hh_bicomodule(field, H), 1)
          for H in (base, tensor_qha(base, base))]
    counts = {"multiply": 0, "apply_linear_map": 0}
    for name in counts:
        def spy(*args, _real=getattr(tensor, name), _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)
        for module in (tensor, comodule):
            monkeypatch.setattr(module, name, spy)
    seen = []
    for X in Xs:
        counts.update(dict.fromkeys(counts, 0))
        assert verify_comodule_algebra(X).passed
        seen.append(dict(counts))
    assert seen[0]["multiply"] > 0 and seen[0]["apply_linear_map"] > 0
    assert seen[1] == seen[0]
