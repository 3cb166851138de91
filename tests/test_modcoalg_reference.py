"""The module (co)algebra layer against its per-entry references.

The base is Sweedler's algebra gauge-twisted by a seeded
counit-normalized F, where the reassociator is neither 1 nor symmetric
in its legs, and the module coalgebra is its left regular one, twisted
along.  Every shipped fixture is commutative and cocommutative, so a
leg-order mistake goes unseen there.  ``tensor.act_legwise`` must equal
the per-entry loops of ``modcoalg_case`` from both sides, for 2-leg and
3-leg elements, and must make one ``apply_linear_map`` call per leg.
"""

import pytest

from quasihopf import tensor
from quasihopf.modcoalg import (ModuleCoalgebra, _reassociate, dualize,
                                gauge_twist_module_coalgebra, verify_module_coalgebra)
from quasihopf.tensor import (Tensor, act_legwise, all_indices, apply_linear_map,
                              switch_legs, unit_tensor)

from modcoalg_case import (reference_act_many, reference_dual_maps, reference_gauge_comult,
                           reference_reassociated_product)
from test_hopf import seeded_gauge, sweedler

SEED = 1


def twisted_regular(field):
    """(C, F, C_F): the left regular module coalgebra C of Sweedler's
    algebra, the seeded gauge F and C twisted by F."""
    H = sweedler(field)
    F = seeded_gauge(H, SEED)
    C = ModuleCoalgebra(H, "left", H.dim, H.comult, H.counit, left_action=H.alg.mult,
                        name="sweedler-regular")
    return C, F, gauge_twist_module_coalgebra(C, F)[0]


def sides(C_F):
    """(carrier, action, acts_from_left) for C_F and for its reflection
    into a right module coalgebra over the opposite base."""
    right = C_F.reflect("op")
    return [(C_F, C_F.left_action, True), (right, right.right_action, False)]


def targets(X, arity):
    """Every basis tensor of the arity-fold power of X, and their sum
    with distinct coefficients."""
    field = X.field
    basis = all_indices((X.dim,) * arity)
    dense = Tensor(field, (X.dim,) * arity,
                   {idx: field.from_int(k + 1) for k, idx in enumerate(basis)})
    return [Tensor.basis(field, (X.dim,) * arity, idx) for idx in basis] + [dense]


def test_twisted_base_is_not_leg_symmetric(field):
    C, F, C_F = twisted_regular(field)
    phi = C_F.H.reassoc
    assert phi != unit_tensor(C_F.H.spaces(3))
    assert switch_legs(phi, (2, 1, 0)) != phi
    assert switch_legs(F.t, (1, 0)) != F.t
    assert verify_module_coalgebra(C_F).passed


def test_act_legwise_matches_the_per_entry_loops(field):
    C, F, C_F = twisted_regular(field)
    for X, action, left in sides(C_F):
        for element in (X.H.reassoc, X.H.reassoc_inv, F.t, F.inv):
            acts = [(action, left)] * element.arity
            for t in targets(X, element.arity):
                assert act_legwise(element, t, acts) == reference_act_many(
                    action, X.H.dim, element, t, left)


def test_reversing_the_element_legs_changes_the_action(field):
    C, F, C_F = twisted_regular(field)
    for element, reverse in ((C_F.H.reassoc, (2, 1, 0)), (F.t, (1, 0))):
        flipped = switch_legs(element, reverse)
        for X, action, left in sides(C_F):
            acts = [(action, left)] * element.arity
            assert any(act_legwise(flipped, t, acts) != act_legwise(element, t, acts)
                       for t in targets(X, element.arity))


def test_act_legwise_makes_one_apply_linear_map_per_leg(field, monkeypatch):
    C, F, C_F = twisted_regular(field)
    calls = []
    original = tensor.apply_linear_map

    def spy(*args, **kwargs):
        calls.append(args[2])
        return original(*args, **kwargs)

    monkeypatch.setattr(tensor, "apply_linear_map", spy)
    elements = (unit_tensor(C_F.H.spaces(3)), C_F.H.reassoc,
                unit_tensor(C_F.H.spaces(2)), F.t)
    assert [len(e.data) for e in elements[::2]] == [1, 1]
    assert len(C_F.H.reassoc.data) > 30 and len(F.t.data) > 10
    for element in elements:
        for X, action, left in sides(C_F):
            del calls[:]
            act_legwise(element, targets(X, element.arity)[-1],
                        [(action, left)] * element.arity)
            assert len(calls) == element.arity


def test_dualize_transposes_like_the_entry_loops(field):
    # the twisted comultiplication is not cocommutative and the base is
    # not commutative, so a transpose that reads a leg in the wrong
    # place changes the dual
    C, F, C_F = twisted_regular(field)
    H = C_F.H
    bi = ModuleCoalgebra(H, "bi", H.dim, H.comult, H.counit,
                         left_action=H.alg.mult, right_action=H.alg.mult)
    for X in (C_F, C_F.reflect("op"), bi):
        A = dualize(X)
        mult, unit, left, right = reference_dual_maps(X)
        assert A.alg.mult == mult and A.alg.unit == unit
        assert A.left_action == left and A.right_action == right


def test_gauge_twisted_comult_matches_the_reference(field):
    C, F, C_F = twisted_regular(field)
    assert C_F.comult == reference_gauge_comult(C, F)


@pytest.mark.parametrize("side", ["left", "right", "bi"])
def test_module_algebra_reassociation_matches_the_reference(field, side):
    C, F, C_F = twisted_regular(field)
    H = C_F.H
    if side == "left":
        A = dualize(C_F.reflect("op"))
    elif side == "right":
        A = dualize(C_F)
    else:
        A = dualize(ModuleCoalgebra(H, "bi", H.dim, H.comult, H.counit,
                                    left_action=H.alg.mult, right_action=H.alg.mult))
    assert A.side == side
    # the bi side pairs every entry of the reassociator with every entry
    # of its inverse in the reference, so it runs on a few triples only
    triples = all_indices((A.alg.dim,) * 3) if side != "bi" else [(0, 1, 2), (3, 2, 1)]
    for triple in triples:
        acted = _reassociate(A, Tensor.basis(field, (A.alg.dim,) * 3, triple))
        product = apply_linear_map(A.alg.mult, apply_linear_map(A.alg.mult, acted, (1, 2)),
                                   (0, 1))
        assert product == reference_reassociated_product(A, triple), triple
