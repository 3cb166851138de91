"""The antipode layer of ``hopf`` against its earlier outer-product forms.

``verify_quasi_hopf``, ``gauge_twist`` and ``drinfeld_twist`` multiply
each factor (alpha, beta, gamma, delta, a gauge, Phi (x) 1) in where it
lands.  ``qha_case`` keeps the forms that formed the outer product with
the factor and merged its legs back one by one, or padded it with units
first.  Both must give the same records (id, verdict, witness and both
sides) and equal structures: on h2 (x) h2, on a seeded gauge twist of
Sweedler's algebra with its op, cop and opcop variants, over Q and
F_10007, and on seeded single-entry mutants of alpha, beta and Phi.

The verifier also runs each basis sweep once, over the tensor form of
its map with the basis index on a leading leg, where the reference runs
one pipeline per basis element or pair.  Seeded single-entry mutants of
the comultiplication, counit, antipode and multiplication drive every
such sweep to a failing record, which must be the reference's.
"""

import json
import random

import pytest

from quasihopf import hopf, io, tensor
from quasihopf.cli import _report_json, main
from quasihopf.errors import NotInvertible, QuasiHopfError
from quasihopf.fields import QQ, PrimeField
from quasihopf.fixtures import h2
from quasihopf.hopf import (GaugeTransformation, QuasiHopfAlgebra, drinfeld_twist,
                            gauge_twist, tensor_qha, variant, verify_quasi_hopf)
from quasihopf.report import CheckReport
from quasihopf.tensor import El, FinAlgebra, LinMap, Tensor, invert_element

from qha_case import (basis_el, reference_conjugates_antipode, reference_drinfeld_twist,
                      reference_gauge_twist, reference_verify_quasi_hopf)
from test_hopf import sweedler

FIELDS = {"rationals": QQ, "fp10007": PrimeField(10007)}


def seeded_gauge(H, rng):
    """F = 1 (x) 1 + sum c_ij u_i (x) u_j over the basis u_i = e_i - eps(e_i) 1
    of ker(eps): counit-normalized, invertible draws only."""
    field, d = H.field, H.dim
    kernel = [Tensor(field, (d,), {(i,): field.one, (0,): -H.counit_scalar(i)})
              for i in range(1, d)]
    while True:
        t = Tensor(field, (d, d), {(0, 0): field.one})
        for ui in kernel:
            for uj in kernel:
                t = t + ui.outer(uj).scale(field.random(rng))
        try:
            return GaugeTransformation(H, t, invert_element(H.spaces(2), t))
        except NotInvertible:
            continue


def twisted_sweedler(field, seed=7):
    H = sweedler(field)
    return gauge_twist(H, seeded_gauge(H, random.Random(seed)))


def bases(field):
    twisted = twisted_sweedler(field)
    out = {"h2(x)h2": tensor_qha(h2(field), h2(field), name="hh"),
           "sweedler-twisted": twisted}
    for kind in ("op", "cop", "opcop"):
        out["sweedler-twisted^" + kind] = variant(twisted, kind)
    return out


def rebuilt(H, **parts):
    """A fresh instance of H (no cached twist) with some parts replaced."""
    args = dict(alg=H.alg, comult=H.comult, counit=H.counit, reassoc=H.reassoc,
                antipode=H.antipode, alpha=H.alpha, beta=H.beta,
                reassoc_inv=H.reassoc_inv, name=H.name)
    args.update(parts)
    return QuasiHopfAlgebra(**args)


def mutants(H, seed):
    """One seeded single-entry bump of each of alpha, beta and Phi; Phi's
    stated inverse is kept, so the mutant is no longer inverted by it."""
    rng = random.Random(seed)
    for part in ("alpha", "beta", "reassoc"):
        t = getattr(H, part)
        entry = tuple(rng.randrange(d) for d in t.dims)
        data = dict(t.data)
        data[entry] = data.get(entry, H.field.zero) + H.field.random_nonzero(rng)
        yield rebuilt(H, **{part: Tensor(H.field, t.dims, data)})


def outcome(fn, *args):
    """The value of fn(*args), or the type and text of the package error it raised."""
    try:
        return fn(*args)
    except QuasiHopfError as exc:
        return type(exc), str(exc)


def same_structure(a, b):
    assert (a.comult.cols, a.reassoc, a.reassoc_inv, a.alpha, a.beta) == \
        (b.comult.cols, b.reassoc, b.reassoc_inv, b.alpha, b.beta)


def assert_layer_matches(H, seed):
    """Compare the verifier, the Drinfeld twist and a seeded gauge twist
    of H with their references; returns the verifier's report."""
    got, want = verify_quasi_hopf(H), reference_verify_quasi_hopf(H)
    assert got.subject == want.subject
    assert got.records == want.records
    twist = outcome(drinfeld_twist, rebuilt(H))
    ref = outcome(reference_drinfeld_twist, rebuilt(H))
    if isinstance(twist, GaugeTransformation):
        assert (twist.t, twist.inv) == (ref.t, ref.inv)
    else:
        assert twist == ref
    F = seeded_gauge(H, random.Random(seed))
    same_structure(gauge_twist(H, F), reference_gauge_twist(H, F))
    return got


@pytest.mark.parametrize("field", FIELDS.values(), ids=FIELDS.keys())
def test_layer_matches_the_outer_product_forms(field):
    for name, H in bases(field).items():
        assert assert_layer_matches(H, seed=11).passed, name


@pytest.mark.parametrize("field", FIELDS.values(), ids=FIELDS.keys())
def test_mutants_keep_every_record(field):
    failed = 0
    # the cop and opcop reflections are left out to keep the run short
    for name, H in bases(field).items():
        if name.endswith(("^cop", "^opcop")):
            continue
        for mutant in mutants(H, seed=len(name)):
            failed += not assert_layer_matches(mutant, seed=3).passed
    # the mutants reach failing records, so their witnesses and sides are compared
    assert failed >= 6


def test_layer_forms_no_outer_product(monkeypatch):
    field = FIELDS["fp10007"]
    H = twisted_sweedler(field)
    F = seeded_gauge(H, random.Random(5))

    def refuse(self, other):
        raise AssertionError("El.times called")

    monkeypatch.setattr(El, "times", refuse)
    assert verify_quasi_hopf(H).passed
    assert verify_quasi_hopf(gauge_twist(H, F)).passed
    twist = drinfeld_twist(rebuilt(H))
    monkeypatch.undo()
    ref = reference_drinfeld_twist(rebuilt(H))
    assert (twist.t, twist.inv) == (ref.t, ref.inv)


# the checks that sweep the basis; each must fail on some map mutant
SWEPT_CHECKS = ("unit-two-sided", "comult-multiplicative", "counit-multiplicative",
                "quasi-coassoc", "counit-comult", "antipode-antimultiplicative",
                "antipode-cancel-left", "antipode-cancel-right")


def bumped(m: LinMap, entry, delta) -> LinMap:
    """m with delta added to one entry of its tensor form."""
    t = m.as_tensor()
    data = dict(t.data)
    data[entry] = data.get(entry, t.field.zero) + delta
    return LinMap.from_tensor(Tensor(t.field, t.dims, data), len(m.src))


def map_mutants(H, seed):
    """One seeded single-entry bump of each of the comultiplication,
    counit, antipode and multiplication; a bumped multiplication makes
    an algebra that is not checked at construction."""
    rng = random.Random(seed)
    for part in ("comult", "counit", "antipode", "mult"):
        m = H.alg.mult if part == "mult" else getattr(H, part)
        entry = tuple(rng.randrange(d) for d in m.src + m.dst)
        m = bumped(m, entry, H.field.random_nonzero(rng))
        if part == "mult":
            yield rebuilt(H, alg=FinAlgebra(H.field, H.dim, m, H.alg.unit,
                                            name=H.alg.name, validate=False))
        else:
            yield rebuilt(H, **{part: m})


@pytest.mark.parametrize("field", FIELDS.values(), ids=FIELDS.keys())
def test_map_mutants_keep_every_record(field):
    failing = set()
    # fewer draws over Q, where the mutants' products grow large fractions
    for name, H in bases(field).items():
        for seed in range(4 if field.characteristic else 2):
            for mutant in map_mutants(H, seed=seed + len(name)):
                got = verify_quasi_hopf(mutant).records
                want = reference_verify_quasi_hopf(mutant).records
                if not got[1].passed:
                    # the unit law fails: ``multiply`` passes a factor's missing
                    # legs through (1 y = y) where the reference's cocycle pads
                    # Phi with the unit, so the two cocycle records may differ
                    assert got[1].check_id == "unit-two-sided"
                    got, want = ([r for r in records if r.check_id != "cocycle"]
                                 for records in (got, want))
                assert got == want, name
                failing.update(r.check_id for r in got if not r.passed)
    # every basis sweep reached a failing record, witness and sides compared
    assert failing.issuperset(SWEPT_CHECKS), set(SWEPT_CHECKS) - failing


def test_counit_comult_fails_at_the_first_item_of_either_side():
    # eps(e_2) = 0 != eps(e_1): bumping Delta(e_0) at (2, 1) breaks only the
    # right counit law at e_0, bumping Delta(e_1) at (1, 2) only the left one
    # at e_1, so the first failing item is e_0 and its side the right one
    field = FIELDS["fp10007"]
    H = twisted_sweedler(field)
    assert (H.counit_scalar(2), H.counit_scalar(1)) == (field.zero, field.one)
    comult = bumped(bumped(H.comult, (0, 2, 1), field.one), (1, 1, 2), field.one)
    mutant = rebuilt(H, comult=comult)
    got = {r.check_id: r for r in verify_quasi_hopf(mutant).records}["counit-comult"]
    want = {r.check_id: r for r in reference_verify_quasi_hopf(mutant).records}["counit-comult"]
    assert got == want
    assert got.witness == (0,)
    right = basis_el(mutant, 0).map(mutant.comult, 0).map(mutant.counit, (1,)).t
    assert (got.lhs, got.rhs) == (right, Tensor.basis(field, (4,), (0,)))


def test_verify_kernel_calls_do_not_grow_with_dim(monkeypatch):
    # each basis sweep is one contraction, so verify_quasi_hopf makes as
    # many multiply and apply_linear_map calls at dim 2, 4 and 8
    field = FIELDS["fp10007"]
    base = h2(field)
    Hs = [base, tensor_qha(base, base)]
    Hs.append(tensor_qha(Hs[1], base))
    counts = {"multiply": 0, "apply_linear_map": 0}
    for name in counts:
        def spy(*args, _real=getattr(tensor, name), _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)
        for module in (tensor, hopf):
            monkeypatch.setattr(module, name, spy)
    seen = []
    for H in Hs:
        counts.update(dict.fromkeys(counts, 0))
        assert verify_quasi_hopf(H).passed
        seen.append(dict(counts))
    assert seen[0]["multiply"] > 0 and seen[0]["apply_linear_map"] > 0
    assert seen[1] == seen[0] and seen[2] == seen[0]


@pytest.mark.parametrize("field", FIELDS.values(), ids=FIELDS.keys())
def test_dtwist_conjugation_record_matches_the_per_element_sweep(field, tmp_path, capsys):
    # qha dtwist checks Delta(S(h)) against (S x S)(flip Delta(h)) for every
    # h at once; on the bases and on seeded bumps of S and Delta its record
    # must be the per-element sweep's
    path, report_path = str(tmp_path / "in.qha.json"), str(tmp_path / "report.json")
    failed = 0
    for name, H in bases(field).items():
        rng = random.Random(len(name))
        # most bumps leave the twist not counit-normalized, an error both share
        for part in (None,) + ("antipode", "comult") * 4:
            value = H
            if part is not None:
                m = getattr(H, part)
                entry = tuple(rng.randrange(d) for d in m.src + m.dst)
                value = rebuilt(H, **{part: bumped(m, entry, field.random_nonzero(rng))})
            io.emit_value(value, path)
            code = main(["--report", report_path, "dtwist", path])
            value = io.parse(path)
            twist = outcome(drinfeld_twist, value)
            if not isinstance(twist, GaugeTransformation):
                assert code == 1
                continue
            want = CheckReport("")
            reference_conjugates_antipode(want, value, twist)
            with open(report_path, encoding="utf-8") as fh:
                checks = json.load(fh)["subjects"][0]["checks"]
            got = [c for c in checks if c["id"] == "conjugates-antipode"]
            assert got == _report_json([want])["subjects"][0]["checks"], name
            failed += not got[0]["passed"]
    capsys.readouterr()
    assert failed >= 5
