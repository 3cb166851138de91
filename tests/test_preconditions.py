"""The two input preconditions, each stated once in ``hopf``: reading
antipode data from a base without it raises AntipodeRequired (the
Yetter-Drinfeld half of the paper needs the antipode, the Doi-Hopf half
does not), and pairing inputs over different bases raises MixedBase."""

from types import SimpleNamespace

import pytest

from quasihopf.comodule import (bicomodule_to_left_tensor_op, bicomodule_to_right_op_tensor,
                                canonical_elements, comodule_variant,
                                gauge_twist_comodule_algebra, right_realization)
from quasihopf.coring import build_coring, verify_coring
from quasihopf.doihopf import (DOI_HOPF_VARIANTS, DoiHopfContext, induce_doi_hopf,
                               trivial_module, verify_doi_hopf)
from quasihopf.errors import AntipodeRequired, MixedBase
from quasihopf.fixtures import (c2, h2, h2_bimodule_coalgebra, hh_bicomodule, kz2,
                                regular_comodule_algebra)
from quasihopf.hopf import (GaugeTransformation, drinfeld_twist, gauge_twist, op_tensor,
                            tensor_op)
from quasihopf.modcoalg import (bimodule_to_op_tensor_module_coalgebra, dualize,
                                gauge_twist_module_coalgebra)
from quasihopf.smash import (DIAGONAL_KINDS, alpha_morphism, build_omega, check_prop_3_10,
                             diagonal_crossed_product, generalized_smash, koppinen_smash,
                             phi_isomorphism, right_generalized_smash, stgsm_product,
                             verify_product_algebra)
from quasihopf.tensor import unit_tensor
from quasihopf.yd import YetterDrinfeldContext

from test_coring import left_trivial_coalgebra


def inputs(field, H):
    """Every kind of input structure over the base H."""
    unit = unit_tensor(H.spaces(2))
    return SimpleNamespace(
        H=H, left=regular_comodule_algebra(H, "left"), right=regular_comodule_algebra(H, "right"),
        A=hh_bicomodule(field, H), C_right=c2(field, H), C_left=left_trivial_coalgebra(field, H),
        C_bi=h2_bimodule_coalgebra(field, H), gauge=GaugeTransformation(H, unit, unit))


NEEDS_ANTIPODE = {
    "op_tensor": lambda w: op_tensor(w.H),
    "tensor_op": lambda w: tensor_op(w.H),
    "drinfeld_twist": lambda w: drinfeld_twist(w.H),
    "gauge_twist": lambda w: gauge_twist(w.H, w.gauge),
    "right_realization-1": lambda w: right_realization(w.A, 1),
    "right_realization-2": lambda w: right_realization(w.A, 2),
    "bicomodule_to_right_op_tensor": lambda w: bicomodule_to_right_op_tensor(w.A),
    "bicomodule_to_left_tensor_op": lambda w: bicomodule_to_left_tensor_op(w.A),
    "canonical_elements-left": lambda w: canonical_elements(w.left),
    "canonical_elements-right": lambda w: canonical_elements(w.right),
    "canonical_elements-bicomodule": lambda w: canonical_elements(w.A),
    "comodule_variant-op-antipode": lambda w: comodule_variant(w.left, "op-antipode"),
    "build_omega-l": lambda w: build_omega(w.A, "l"),
    "build_omega-r": lambda w: build_omega(w.A, "r"),
    **{"diagonal_crossed_product-" + kind:
       (lambda w, kind=kind: diagonal_crossed_product(w.A, dualize(w.C_bi), kind))
       for kind in DIAGONAL_KINDS},
    "check_prop_3_10": lambda w: check_prop_3_10(w.A, w.C_bi),
    "phi_isomorphism": lambda w: phi_isomorphism(w.C_right),
    "YetterDrinfeldContext": lambda w: YetterDrinfeldContext(w.A, w.C_bi),
    "coring-YD": lambda w: build_coring("YD", A=w.A, C=w.C_bi),
    "bimodule_to_op_tensor_module_coalgebra":
        lambda w: bimodule_to_op_tensor_module_coalgebra(w.C_bi),
    "gauge_twist_comodule_algebra": lambda w: gauge_twist_comodule_algebra(w.right, w.gauge),
    "gauge_twist_module_coalgebra": lambda w: gauge_twist_module_coalgebra(w.C_left, w.gauge),
}


@pytest.mark.parametrize("build", NEEDS_ANTIPODE.values(), ids=NEEDS_ANTIPODE.keys())
def test_antipode_constructions_reject_a_quasi_bialgebra(field, build):
    with pytest.raises(AntipodeRequired):
        build(inputs(field, h2(field).bialgebra()))


@pytest.mark.parametrize("name", ["antipode", "antipode_inv", "alpha", "beta"])
def test_reading_missing_antipode_data_names_it(field, name):
    H = h2(field)
    getattr(H, name)
    with pytest.raises(AntipodeRequired) as exc:
        getattr(H.bialgebra(), name)
    assert str(exc.value) == "the base h2 has no antipode data (%s was read)" % name


def test_other_missing_attributes_stay_attribute_errors(field):
    B = h2(field).bialgebra()
    assert not hasattr(B, "missing")
    assert not hasattr(B, "_antipode_inv")


def test_doi_hopf_half_needs_no_antipode(field):
    w = inputs(field, h2(field).bialgebra())
    ctx = DoiHopfContext("right-left", w.left, w.C_right)
    assert verify_doi_hopf(induce_doi_hopf(trivial_module(ctx), ctx), ctx).passed
    assert verify_product_algebra(generalized_smash(dualize(w.C_right), w.left)).passed
    assert verify_product_algebra(koppinen_smash(w.C_right, w.left)).passed
    assert verify_coring(build_coring("BC", B=w.left, C=w.C_right)).passed


# each library pairing of a structure over h2 (a) with one over kz2 (b)
PAIRINGS = {
    "generalized_smash": lambda a, b: generalized_smash(dualize(b.C_right), a.left),
    "right_generalized_smash": lambda a, b: right_generalized_smash(a.right, dualize(b.C_left)),
    "stgsm_product": lambda a, b: stgsm_product(a.right, b.C_right),
    "koppinen_smash": lambda a, b: koppinen_smash(b.C_right, a.left),
    "alpha_morphism": lambda a, b: alpha_morphism(b.C_right, a.left),
    **{"diagonal_crossed_product-" + kind:
       (lambda a, b, kind=kind: diagonal_crossed_product(a.A, dualize(b.C_bi), kind))
       for kind in DIAGONAL_KINDS},
    "check_prop_3_10": lambda a, b: check_prop_3_10(a.A, b.C_bi),
    **{"DoiHopfContext-" + variant:
       (lambda a, b, variant=variant: DoiHopfContext(
           variant, a.left if variant.endswith("-left") else a.right,
           b.C_left if variant.startswith("left-") else b.C_right))
       for variant in DOI_HOPF_VARIANTS},
    "YetterDrinfeldContext": lambda a, b: YetterDrinfeldContext(a.A, b.C_bi),
    "coring-BC": lambda a, b: build_coring("BC", B=a.left, C=b.C_right),
    "coring-CA": lambda a, b: build_coring("CA", A=a.right, C=b.C_left),
    "coring-YD": lambda a, b: build_coring("YD", A=a.A, C=b.C_bi),
}


@pytest.mark.parametrize("pair", PAIRINGS.values(), ids=PAIRINGS.keys())
def test_pairings_over_different_bases_are_rejected(field, pair):
    with pytest.raises(MixedBase, match="^inputs are built over different bases$"):
        pair(inputs(field, h2(field)), inputs(field, kz2(field)))
