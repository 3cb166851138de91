"""The antipode layer of ``hopf`` against its earlier outer-product forms.

``verify_quasi_hopf``, ``gauge_twist`` and ``drinfeld_twist`` multiply
each factor (alpha, beta, gamma, delta, a gauge, Phi (x) 1) in where it
lands.  ``qha_case`` keeps the forms that formed the outer product with
the factor and merged its legs back one by one, or padded it with units
first.  Both must give the same records (id, verdict, witness and both
sides) and equal structures: on h2 (x) h2, on a seeded gauge twist of
Sweedler's algebra with its op, cop and opcop variants, over Q and
F_10007, and on seeded single-entry mutants of alpha, beta and Phi.
"""

import random

import pytest

from quasihopf.errors import NotInvertible, QuasiHopfError
from quasihopf.fields import QQ, PrimeField
from quasihopf.fixtures import h2
from quasihopf.hopf import (GaugeTransformation, QuasiHopfAlgebra, drinfeld_twist,
                            gauge_twist, tensor_qha, variant, verify_quasi_hopf)
from quasihopf.tensor import El, Tensor, invert_element

from qha_case import reference_drinfeld_twist, reference_gauge_twist, reference_verify_quasi_hopf
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
