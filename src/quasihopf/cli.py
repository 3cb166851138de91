"""Command-line front end: structure-file checking, twisting, product
builds, conversions, theorem-level verification suites, and fixture
emission with canonical serialization.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 usage or
parse error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import fixtures, io
from .comodule import (COMODULE_VARIANT_KINDS, BicomoduleAlgebra, ComoduleAlgebra,
                       bicomodule_to_right_op_tensor, comodule_variant,
                       gauge_twist_comodule_algebra, realization_twist_witness,
                       right_realization, verify_bicomodule_algebra,
                       verify_comodule_algebra)
from .coring import build_coring, verify_coring
from .doihopf import (DoiHopfContext, adjunction_maps, compute_rat,
                      induce_doi_hopf, rational_check, to_smash_module,
                      trivial_module, verify_doi_hopf)
from .errors import ParseError, QuasiHopfError, ShapeMismatch, UsageError
from .fields import field_from_tag
from .fixtures import regular_comodule_algebra
from .hopf import (VARIANT_KINDS, GaugeTransformation, QuasiHopfAlgebra, drinfeld_twist,
                   gauge_twist, op_tensor, shared_base, variant, verify_quasi_hopf)
from .modcoalg import (ModuleCoalgebra, bimodule_to_op_tensor_module_coalgebra,
                       dualize, gauge_twist_module_coalgebra,
                       verify_module_coalgebra)
from .report import CheckReport
from .smash import (DIAGONAL_KINDS, ProductAlgebra, check_prop_3_10, diagonal_crossed_product,
                    generalized_smash, koppinen_smash, phi_isomorphism,
                    right_generalized_smash, verify_product_algebra)
from .tensor import El, apply_linear_map, multiply, unit_tensor
from .yd import (YetterDrinfeldContext, doihopf_to_yd, induce_yd, verify_yd,
                 yd_to_doihopf)

# the kinds that `convert variant` takes, per class of input value
_VARIANTS = ((QuasiHopfAlgebra, VARIANT_KINDS), (ComoduleAlgebra, COMODULE_VARIANT_KINDS),
            (ModuleCoalgebra, ("cop", "as-right")))


def _field_from_flag(flag: str):
    try:
        return field_from_tag(flag)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _check_jobs_env():
    """``--jobs`` and ``QHA_JOBS`` are accepted for compatibility and have
    no effect; a non-integer ``QHA_JOBS`` is still a usage error."""
    env = os.environ.get("QHA_JOBS")
    if env:
        try:
            int(env)
        except ValueError:
            raise UsageError("QHA_JOBS must be an integer")


def _report_json(reports):
    subjects = []
    for rep in reports:
        checks = []
        for rec in rep.records:
            entry = {
                "id": rec.check_id,
                "passed": rec.passed,
                "witness": list(rec.witness) if isinstance(rec.witness, tuple)
                else rec.witness,
                "advisory": not rec.fatal,
            }
            if not rec.passed and rec.lhs is not None:
                entry["lhs"] = io.side_rows(rec.lhs)
                entry["rhs"] = io.side_rows(rec.rhs)
            checks.append(entry)
        subjects.append({"subject": rep.subject, "passed": rep.passed,
                         "checks": checks})
    return {
        "format": "qha-report.v1",
        "passed": all(r.passed for r in reports),
        "subjects": subjects,
    }


def _finish(args, reports, emitted=()):
    for rep in reports:
        print(rep.render())
    for path in emitted:
        print("wrote %s" % path)
    if getattr(args, "report", None):
        payload = _report_json(reports)
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(io.canonical_dumps(payload))
    return 0 if all(r.passed for r in reports) else 1


def _verify_any(value):
    if isinstance(value, QuasiHopfAlgebra):
        return verify_quasi_hopf(value)
    if isinstance(value, BicomoduleAlgebra):
        return verify_bicomodule_algebra(value)
    if isinstance(value, ComoduleAlgebra):
        return verify_comodule_algebra(value)
    if isinstance(value, ModuleCoalgebra):
        return verify_module_coalgebra(value)
    if isinstance(value, ProductAlgebra):
        return verify_product_algebra(value)
    if isinstance(value, GaugeTransformation):
        rep = CheckReport("gauge transformation")
        _two_sided_inverse(rep, value)
        return rep
    raise UsageError("no verifier for %r" % (value,))


def _two_sided_inverse(report, gauge):
    """Record t t^-1 = 1 and t^-1 t = 1 as one check."""
    spaces = gauge.H.spaces(2)
    one = unit_tensor(spaces)
    report.compare_all("two-sided-inverse",
                       ((multiply(spaces, gauge.t, gauge.inv), one),
                        (multiply(spaces, gauge.inv, gauge.t), one)))


def cmd_check(args):
    value = io.parse(args.file)
    return _finish(args, [_verify_any(value)])


def cmd_fixture(args):
    if args.action != "emit":
        raise UsageError("unknown fixture action %r" % (args.action,))
    field = _field_from_flag(args.field)
    name = args.name
    if name not in fixtures.FIXTURE_NAMES:
        raise UsageError("unknown fixture %r (choose from %s)"
                         % (name, ", ".join(fixtures.FIXTURE_NAMES)))
    outdir = args.dir
    os.makedirs(outdir, exist_ok=True)
    emitted = []

    def emit_base(base_name):
        H = fixtures.fixture(base_name, field)
        path = os.path.join(outdir, base_name + io.SUFFIX)
        io.emit_value(H, path)
        emitted.append(path)
        return path

    if name in ("kz2", "h2"):
        emit_base(name)
    else:
        base_path = emit_base("h2")
        value = fixtures.fixture(name, field)
        path = os.path.join(outdir, name + io.SUFFIX)
        io.emit_value(value, path, base_path=base_path)
        emitted.append(path)
    rep = CheckReport("fixture %s" % name)
    rep.add("emitted", True)
    return _finish(args, [rep], emitted)


def _emit_over_base(out, values):
    """Write the base of ``values`` next to ``out`` as <out
    stem>-base.qha.json, then each (path, value) of ``values`` with a
    companion link to it; returns the written paths in order."""
    base_out = os.path.splitext(out)[0] + "-base" + io.SUFFIX
    io.emit_value(values[0][1].H, base_out)
    for path, value in values:
        io.emit_value(value, path, base_path=base_out)
    return [base_out] + [path for path, _ in values]


def _verified_emit(args, value):
    """Verify a transformed structure and write it to ``--out`` if given:
    a quasi-Hopf algebra on its own, anything else with its base next to
    it (see ``_emit_over_base``)."""
    report = _verify_any(value)
    emitted = []
    if args.out and isinstance(value, QuasiHopfAlgebra):
        io.emit_value(value, args.out)
        emitted = [args.out]
    elif args.out:
        emitted = _emit_over_base(args.out, [(args.out, value)])
    return _finish(args, [report], emitted)


def cmd_twist(args):
    value = io.parse(args.file)
    gauge = _load(args.gauge, GaugeTransformation)
    if isinstance(value, QuasiHopfAlgebra):
        twisted = gauge_twist(value, gauge)
    elif isinstance(value, ComoduleAlgebra) and value.side == "right":
        twisted, _ = gauge_twist_comodule_algebra(value, gauge)
    elif isinstance(value, ModuleCoalgebra) and value.side == "left":
        twisted, _ = gauge_twist_module_coalgebra(value, gauge)
    else:
        raise UsageError("cannot gauge-twist %r" % (value,))
    return _verified_emit(args, twisted)


def cmd_dtwist(args):
    value = _load(args.file, QuasiHopfAlgebra)
    twist = drinfeld_twist(value)
    report = CheckReport("canonical gauge of %s" % (value.name or args.file))
    _two_sided_inverse(report, twist)
    S = value.antipode

    # Delta(S(h)) conjugated by the twist is (S x S)(flip Delta(h)), for
    # every h at once, h on the leading leg
    s_h = El(value.spaces(2), S.as_tensor()).map(value.comult, 1)
    lhs = s_h.mul_embedded(value.el(twist.inv), (1, 2)).premul_embedded(value.el(twist.t), (1, 2))
    flipped = value.comult.permute(dst=(1, 0)).as_tensor()
    rhs = apply_linear_map(S, apply_linear_map(S, flipped, (1,)), (2,))
    report.sweep_all("conjugates-antipode", (value.dim,), lhs.t, rhs)
    emitted = []
    if args.out:
        io.emit_value(twist, args.out, base_path=args.file)
        emitted.append(args.out)
    return _finish(args, [report], emitted)


def _load(path, cls, default=None):
    """The value in the structure file at ``path``, which must be a
    ``cls``; ``default()`` when no path is given and there is a default."""
    kind = dict(io.KINDS)[cls]
    if not path:
        if default is None:
            raise UsageError("a %s file is required" % kind)
        return default()
    value = io.parse(path)
    if not isinstance(value, cls):
        raise UsageError("%s is not a %s file" % (path, kind))
    return value


def _load_comodule(path, C, side):
    """The comodule algebra at ``path``, or else the regular one on
    ``side`` over the base of ``C``."""
    return _load(path, ComoduleAlgebra, lambda: regular_comodule_algebra(C.H, side))


def cmd_build(args):
    emitted = []
    if args.what == "smash":
        C = _load(args.coalgebra, ModuleCoalgebra)
        if C.side != "right":
            raise UsageError("smash expects a right module coalgebra")
        B = _load_comodule(args.comodule, C, "left")
        product = generalized_smash(dualize(C), B)
    elif args.what == "rsmash":
        A = _load(args.bicomodule, BicomoduleAlgebra)
        C = _load(args.coalgebra, ModuleCoalgebra)
        # C moves onto the square of A's base, so the two must share it
        square = op_tensor(shared_base(A, C))
        chosen = right_realization(A, args.realization)
        over = bimodule_to_op_tensor_module_coalgebra(C, base=square)
        product = right_generalized_smash(chosen, dualize(over))
    elif args.what == "koppinen":
        C = _load(args.coalgebra, ModuleCoalgebra)
        B = _load_comodule(args.comodule, C, "left")
        product = koppinen_smash(C, B)
    elif args.what == "diagonal":
        if args.kind not in DIAGONAL_KINDS:
            raise UsageError("diagonal kind must be one of %s" % ", ".join(DIAGONAL_KINDS))
        A = _load(args.bicomodule, BicomoduleAlgebra)
        C = _load(args.coalgebra, ModuleCoalgebra)
        product = diagonal_crossed_product(A, dualize(C), args.kind)
    elif args.what == "coring":
        return _build_coring(args)
    else:
        raise UsageError("unknown build %r" % (args.what,))
    report = verify_product_algebra(product)
    if args.out:
        io.emit_value(product, args.out)
        emitted.append(args.out)
    return _finish(args, [report], emitted)


def _build_coring(args):
    kind = "BC" if args.kind is None else args.kind
    if kind == "BC":
        C = _load(args.coalgebra, ModuleCoalgebra)
        B = _load_comodule(args.comodule, C, "left")
        coring = build_coring("BC", B=B, C=C)
    elif kind == "CA":
        C = _load(args.coalgebra, ModuleCoalgebra)
        if C.side != "left":
            raise UsageError("the CA coring expects a left module coalgebra")
        A = _load_comodule(args.comodule, C, "right")
        coring = build_coring("CA", A=A, C=C)
    elif kind == "YD":
        A = _load(args.bicomodule, BicomoduleAlgebra)
        C = _load(args.coalgebra, ModuleCoalgebra)
        coring = build_coring("YD", A=A, C=C)
    else:
        raise UsageError("coring kind must be BC, CA or YD")
    return _finish(args, [verify_coring(coring)])


def cmd_convert(args):
    if args.what == "variant":
        if not args.input:
            raise UsageError("an --input file is required")
        value = io.parse(args.input)
        cls, kinds = next(((c, k) for c, k in _VARIANTS if isinstance(value, c)), (None, ()))
        if cls is None:
            raise UsageError("cannot take a variant of %r" % (value,))
        if args.kind not in kinds:
            raise UsageError("%s variants: %s" % (dict(io.KINDS)[cls], ", ".join(kinds)))
        if isinstance(value, QuasiHopfAlgebra):
            return _verified_emit(args, variant(value, args.kind))
        if isinstance(value, ComoduleAlgebra):
            return _verified_emit(args, comodule_variant(value, args.kind))
        if args.kind == "as-right" and value.side != "left":
            raise ShapeMismatch("the reinterpretation starts from a left structure")
        return _verified_emit(args, value.reflect("cop" if args.kind == "cop" else "op"))
    if args.what == "bicomodule-r1r2":
        A = _load(args.input, BicomoduleAlgebra)
        first, second, _ = bicomodule_to_right_op_tensor(A)
        _, search = realization_twist_witness(A, first, second)
        reports = [verify_comodule_algebra(first),
                   verify_comodule_algebra(second), search]
        emitted = []
        if args.out:
            stem = os.path.splitext(args.out)[0]
            emitted += _emit_over_base(args.out, [(stem + "-r1" + io.SUFFIX, first),
                                                  (stem + "-r2" + io.SUFFIX, second)])
        return _finish(args, reports, emitted)
    if args.what in ("yd2dh", "dh2yd"):
        A = _load(args.bicomodule, BicomoduleAlgebra)
        C = _load(args.coalgebra, ModuleCoalgebra)
        ctx = YetterDrinfeldContext(A, C)
        seed = trivial_module(ctx.doihopf)
        if args.what == "yd2dh":
            out = yd_to_doihopf(induce_yd(seed, ctx), ctx)
            report = verify_doi_hopf(out, ctx.doihopf)
        else:
            out = doihopf_to_yd(induce_doi_hopf(seed, ctx.doihopf), ctx)
            report = verify_yd(out, ctx)
        return _finish(args, [report])
    raise UsageError("unknown conversion %r" % (args.what,))


def _sweep_coactions(report, check_id, got, want):
    """One record: the coaction of ``got`` equals that of ``want`` on
    every basis vector."""
    report.sweep_all(check_id, (want.dim,), got.coaction.as_tensor(),
                     want.coaction.as_tensor())


def cmd_verify(args):
    suite = args.suite
    if suite == "iso-2.9":
        C = _load(args.C, ModuleCoalgebra)
        _, _, source, target, report = phi_isomorphism(C)
        reports = [report, verify_product_algebra(source),
                   verify_product_algebra(target)]
        return _finish(args, reports)
    if suite == "prop-3.10":
        A = _load(args.A, BicomoduleAlgebra)
        C = _load(args.C, ModuleCoalgebra)
        return _finish(args, [check_prop_3_10(A, C)])
    if suite == "roundtrip-3.8":
        A = _load(args.A, BicomoduleAlgebra)
        C = _load(args.C, ModuleCoalgebra)
        ctx = YetterDrinfeldContext(A, C)
        seed = trivial_module(ctx.doihopf)
        M = induce_yd(seed, ctx)
        forward = yd_to_doihopf(M, ctx)
        back = doihopf_to_yd(forward, ctx)
        report = CheckReport("comparison functors are inverse")
        report.extend(verify_yd(M, ctx))
        report.extend(verify_doi_hopf(forward, ctx.doihopf),
                      prefix="image:")
        _sweep_coactions(report, "roundtrip-coaction", back, M)
        _sweep_coactions(report, "roundtrip-coaction-other-way",
                         yd_to_doihopf(back, ctx), forward)
        return _finish(args, [report])
    if suite == "rat-2.5":
        C = _load(args.C, ModuleCoalgebra)
        B = _load_comodule(args.B, C, "left")
        ctx = DoiHopfContext("right-left", B, C)
        M = induce_doi_hopf(trivial_module(ctx), ctx)
        collapsed, smash = to_smash_module(M, ctx)
        recovered, report = rational_check(collapsed, ctx, smash)
        _sweep_coactions(report, "coaction-recovered", recovered, M)
        _, rat_report = compute_rat(collapsed, ctx, smash)
        report.extend(rat_report, prefix="rat:")
        return _finish(args, [report])
    if suite == "adjunction-2.2":
        C = _load(args.C, ModuleCoalgebra)
        B = _load_comodule(args.B, C, "left")
        ctx = DoiHopfContext("right-left", B, C)
        N = trivial_module(ctx)
        M = induce_doi_hopf(N, ctx)
        return _finish(args, [adjunction_maps(M, N, ctx)])
    raise UsageError("unknown verification suite %r" % (suite,))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qha",
        description="exact verification toolkit for quasi-Hopf structure constants")
    parser.add_argument("--report", help="write a JSON report to this path")
    parser.add_argument("--jobs", type=int, default=1,
                        help="accepted for compatibility; has no effect")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse a structure file and run its verifier")
    p.add_argument("file")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("fixture", help="emit built-in fixtures")
    p.add_argument("action", choices=["emit"])
    p.add_argument("name")
    p.add_argument("--dir", default=".")
    p.add_argument("--field", default="q", help="q or fp:<prime>")
    p.set_defaults(fn=cmd_fixture)

    p = sub.add_parser("twist", help="gauge-twist a structure file")
    p.add_argument("file")
    p.add_argument("--gauge", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_twist)

    p = sub.add_parser("dtwist", help="compute the canonical antipode gauge")
    p.add_argument("file")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_dtwist)

    p = sub.add_parser("build", help="build and verify a derived product")
    p.add_argument("what", choices=["smash", "rsmash", "koppinen",
                                    "diagonal", "coring"])
    p.add_argument("--coalgebra")
    p.add_argument("--comodule")
    p.add_argument("--bicomodule")
    p.add_argument("--kind",
                   help="diagonal: left-l/left-r/right-l/right-r; coring: BC (default)/CA/YD")
    p.add_argument("--realization", type=int, default=1, choices=[1, 2])
    p.add_argument("--out")
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("convert", help="apply a structure-level conversion")
    p.add_argument("what", choices=["variant", "bicomodule-r1r2", "yd2dh", "dh2yd"])
    p.add_argument("--input")
    p.add_argument("--kind", default="op")
    p.add_argument("--bicomodule")
    p.add_argument("--coalgebra")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_convert)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", choices=["iso-2.9", "prop-3.10", "roundtrip-3.8",
                                     "rat-2.5", "adjunction-2.2"])
    p.add_argument("--A", help="bicomodule-algebra file")
    p.add_argument("--B", help="comodule-algebra file")
    p.add_argument("--C", help="module-coalgebra file")
    p.set_defaults(fn=cmd_verify)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built on its first call; parsing leaves it
    unchanged, so every later call shares it."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        _check_jobs_env()
        return args.fn(args)
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 2
    except ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return 2
    except QuasiHopfError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
