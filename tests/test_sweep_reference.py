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

The README pipeline must not run any of these checks through the
per-item ``CheckReport.sweep``.
"""

import functools
import random
from collections import Counter

import pytest

from quasihopf import cli, doihopf, smash
from quasihopf.comodule import ComoduleAlgebra, internal_coalgebra, verify_comodule_algebra
from quasihopf.doihopf import (DoiHopfContext, FiniteModule,
                               doihopf_to_coring_comodule, induce_doi_hopf, rational_check,
                               to_smash_module, trivial_module, verify_coring_comodule,
                               verify_doi_hopf)
from quasihopf.errors import NotRational
from quasihopf.fields import QQ
from quasihopf.fixtures import h2_bimodule_coalgebra, hh_bicomodule, regular_comodule_algebra
from quasihopf.hopf import gauge_twist
from quasihopf.modcoalg import ModuleCoalgebra, dualize, verify_module_coalgebra
from quasihopf.report import CheckRecord, CheckReport
from quasihopf.smash import (ProductAlgebra, alpha_morphism, check_prop_3_10,
                             generalized_smash, phi_isomorphism,
                             verify_product_algebra)
from quasihopf.tensor import FinAlgebra, LinMap, _identity, multiply
from quasihopf.yd import YetterDrinfeldContext, induce_yd, verify_yd

from sweep_case import (reference_actions_commute, reference_coaction_counit,
                        reference_coring_counit_law, reference_coring_module_law,
                        reference_module_law, reference_multiplicative, reference_rational,
                        reference_same_coaction, reference_tables_equal)
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


def coalgebra_mutants(C, rng, count):
    """C and ``count`` seeded mutants of it, each with one map bumped."""
    maps = [m for m in ("comult", "right_action", "left_action") if getattr(C, m) is not None]
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
            via = doihopf._smash_action(coaction, doihopf._counit_action(M, ctx), dB)
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


# the checks that run as one contraction, by id; the coring comodule's
# "counit-law" shares its id with a coring record that stays per item
MOVED = {"coaction-multiplicative", "subalgebra-multiplicative", "multiplicative",
         "tables-equal-first", "tables-equal-second", "coaction-counit", "rational",
         "roundtrip-coaction", "roundtrip-coaction-other-way", "coaction-recovered",
         "actions-commute"} | {prefix + "action-" + law for prefix in ("", "left-", "right-")
                               for law in ("unital", "associative")}


@pytest.mark.parametrize("field_tag", ["q", "fp:10007"])
def test_readme_pipeline_sweeps_no_moved_check_per_item(tmp_path, monkeypatch, field_tag):
    swept = []
    original = CheckReport.sweep

    def spy(self, check_id, items, fn):
        swept.append((self.subject, check_id))
        return original(self, check_id, items, fn)

    monkeypatch.setattr(CheckReport, "sweep", spy)
    monkeypatch.chdir(tmp_path)
    for argv in readme_commands():
        if argv[:2] == ["fixture", "emit"]:
            argv = argv + ["--field", field_tag]
        run(argv)
    moved = [(subject, check_id) for subject, check_id in swept
             if check_id in MOVED or (check_id == "counit-law"
                                      and subject.startswith("coring comodule"))]
    assert moved == []
    # the spy sees the checks that stay per item
    assert {"unit-two-sided", "coassoc-upto-reassoc"} <= {c for _, c in swept}
