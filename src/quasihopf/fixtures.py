"""Built-in desk-scale fixtures.

* ``kz2``: the group algebra of Z/2 with its ordinary Hopf structure
  (trivial reassociator) — the degenerate baseline.
* ``h2``: the same algebra with the nontrivial reassociator
  1x1x1 - 2 pxpxp built on the idempotent p = (1 - g)/2, which is the
  smallest genuinely quasi example; the antipode triple is (id, g, 1).
* ``c2``: a two-point grouplike coalgebra with the trivial action.
* ``hh``: the regular bicomodule-algebra structure on a base (both
  coactions are the comultiplication, every reassociator the global one).
* ``h2_bimodule_coalgebra``: the regular bimodule-coalgebra structure.

All fixtures are parametric in the scalar backend; characteristic 2 and
3 are rejected because the nontrivial fixture divides by 2 and 4.
"""

from __future__ import annotations

from .comodule import BicomoduleAlgebra, ComoduleAlgebra
from .errors import BadField
from .fields import QQ
from .hopf import QuasiHopfAlgebra
from .modcoalg import ModuleCoalgebra
from .tensor import FinAlgebra, LinMap, Tensor

FIXTURE_NAMES = ("kz2", "h2", "c2", "hh-bicomodule", "h2-bimodule-coalgebra")


def _z2_algebra(field, name) -> FinAlgebra:
    one, zero = field.one, field.zero
    table = {
        (0, 0): {0: one}, (0, 1): {1: one},
        (1, 0): {1: one}, (1, 1): {0: one},
    }
    return FinAlgebra.from_table(field, 2, table, [one, zero], name=name)


def _grouplike_comult(field) -> LinMap:
    return LinMap(field, (2,), (2, 2), {(i,): {(i, i): field.one} for i in range(2)})


def _all_ones_counit(field) -> LinMap:
    return LinMap(field, (2,), (), {(i,): {(): field.one} for i in range(2)})


def kz2(field=QQ) -> QuasiHopfAlgebra:
    """Group algebra of Z/2 as an ordinary Hopf algebra."""
    alg = _z2_algebra(field, "kz2")
    comult = _grouplike_comult(field)
    counit = _all_ones_counit(field)
    one = field.one
    reassoc = Tensor(field, (2, 2, 2), {(0, 0, 0): one})
    antipode = LinMap.identity(field, (2,), spaces=(alg,))
    alpha = Tensor(field, (2,), {(0,): one})
    beta = Tensor(field, (2,), {(0,): one})
    return QuasiHopfAlgebra(alg, comult, counit, reassoc, antipode, alpha, beta,
                            reassoc_inv=reassoc, name="kz2")


def h2(field=QQ) -> QuasiHopfAlgebra:
    """The two-dimensional quasi-Hopf algebra with reassociator
    1x1x1 - 2 pxpxp, p = (1 - g)/2."""
    if field.characteristic in (2, 3):
        raise BadField("fixture h2 needs characteristic 0 or p >= 5")
    alg = _z2_algebra(field, "h2")
    comult = _grouplike_comult(field)
    counit = _all_ones_counit(field)
    one = field.one
    quarter = field.div_int(1, 4)
    # p (x) p (x) p has entry sign(i) sign(j) sign(k) / 8 at (i, j, k),
    # with sign(0) = +1 for the unit and sign(1) = -1 for the generator.
    data = {}
    for i in range(2):
        for j in range(2):
            for k in range(2):
                sign = (-1) ** (i + j + k)
                value = -quarter * field.from_int(sign)
                if (i, j, k) == (0, 0, 0):
                    value = value + one
                data[(i, j, k)] = value
    reassoc = Tensor(field, (2, 2, 2), data)
    antipode = LinMap.identity(field, (2,), spaces=(alg,))
    alpha = Tensor(field, (2,), {(1,): one})
    beta = Tensor(field, (2,), {(0,): one})
    # the reassociator is an involution, so it is its own inverse
    return QuasiHopfAlgebra(alg, comult, counit, reassoc, antipode, alpha, beta,
                            reassoc_inv=reassoc, name="h2")


def c2(field=QQ, H: QuasiHopfAlgebra = None) -> ModuleCoalgebra:
    """Two grouplike points with the trivial right action through the
    counit; a right module coalgebra over any base."""
    if H is None:
        H = h2(field)
    field = H.field
    comult = _grouplike_comult(field)
    counit = _all_ones_counit(field)
    action = LinMap(field, (2, H.dim), (2,), {(c, i): {(c,): H.counit_scalar(i)}
                                              for c in range(2) for i in range(H.dim)})
    return ModuleCoalgebra(H, side="right", dim=2, comult=comult, counit=counit,
                           right_action=action, name="c2")


def regular_comodule_algebra(H: QuasiHopfAlgebra, side: str) -> ComoduleAlgebra:
    """The base as a comodule algebra over itself: the coaction is the
    comultiplication, the reassociator the global one."""
    return ComoduleAlgebra(H, side=side, alg=H.alg, coaction=H.comult,
                           reassoc=H.reassoc, reassoc_inv=H.reassoc_inv,
                           name=(H.name or "H") + "-regular-" + side)


def hh_bicomodule(field=QQ, H: QuasiHopfAlgebra = None) -> BicomoduleAlgebra:
    """The base as a bicomodule algebra over itself."""
    if H is None:
        H = h2(field)
    return BicomoduleAlgebra(
        H, alg=H.alg, left_coaction=H.comult, right_coaction=H.comult,
        reassoc_left=H.reassoc, reassoc_right=H.reassoc, reassoc_mixed=H.reassoc,
        reassoc_left_inv=H.reassoc_inv, reassoc_right_inv=H.reassoc_inv,
        reassoc_mixed_inv=H.reassoc_inv, name=(H.name or "H") + "-bicomodule")


def h2_bimodule_coalgebra(field=QQ, H: QuasiHopfAlgebra = None) -> ModuleCoalgebra:
    """The base as a bimodule coalgebra over itself, via both regular
    actions."""
    if H is None:
        H = h2(field)
    return ModuleCoalgebra(H, side="bi", dim=H.dim, comult=H.comult, counit=H.counit,
                           left_action=H.alg.mult, right_action=H.alg.mult,
                           name=(H.name or "H") + "-bimodule-coalgebra")


def fixture(name: str, field=QQ):
    """Look up a fixture bundle by its registry name."""
    if name == "kz2":
        return kz2(field)
    if name == "h2":
        return h2(field)
    if name == "c2":
        return c2(field)
    if name == "hh-bicomodule":
        return hh_bicomodule(field)
    if name == "h2-bimodule-coalgebra":
        return h2_bimodule_coalgebra(field)
    raise KeyError("unknown fixture %r" % (name,))
