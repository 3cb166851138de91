"""Seeded input generators for the benchmark.

Everything here is built from public constructors of ``quasihopf``; the
same seed gives the same inputs.

* ``sweedler``: Sweedler's 4-dim Hopf algebra, basis (1, g, x, gx) with
  g^2 = 1, x^2 = 0, xg = -gx, Delta(x) = x (x) 1 + g (x) x, eps(x) = 0,
  S(x) = -gx, as a quasi-Hopf algebra with Phi = 1 (x) 1 (x) 1 and
  alpha = beta = 1.  It is neither commutative nor cocommutative.
* ``kernel_gauge``: F = 1 (x) 1 + sum c_ij u_i (x) u_j over a basis u of
  ker(eps).  Such an F is counit-normalized by construction; gauge
  twisting by it preserves every quasi-Hopf axiom (Drinfeld, 1990), so
  the twisted structure is an oracle input that must pass.
* ``draw_mutation`` and ``rebuild``: bump one seeded entry of one structure map by a nonzero
  scalar; every such mutation of a 2-dim fixture must fail its verifier.
"""

from __future__ import annotations

from quasihopf.comodule import BicomoduleAlgebra
from quasihopf.errors import NotInvertible
from quasihopf.hopf import GaugeTransformation, QuasiHopfAlgebra, tensor_qha
from quasihopf.modcoalg import ModuleCoalgebra
from quasihopf.tensor import FinAlgebra, LinMap, Tensor, invert_element


def sweedler(field) -> QuasiHopfAlgebra:
    """Sweedler's Hopf algebra over ``field`` (characteristic not 2)."""
    one = field.one
    neg = -one
    # basis 0 = 1, 1 = g, 2 = x, 3 = gx
    table = {
        (0, 0): {0: one}, (0, 1): {1: one}, (0, 2): {2: one}, (0, 3): {3: one},
        (1, 0): {1: one}, (1, 1): {0: one}, (1, 2): {3: one}, (1, 3): {2: one},
        (2, 0): {2: one}, (2, 1): {3: neg},
        (3, 0): {3: one}, (3, 1): {2: neg},
    }
    alg = FinAlgebra.from_table(field, 4, table, [one, 0, 0, 0], name="sweedler")
    comult = LinMap(field, (4,), (4, 4), {
        (0,): {(0, 0): one},
        (1,): {(1, 1): one},
        (2,): {(2, 0): one, (1, 2): one},
        (3,): {(3, 1): one, (0, 3): one},
    })
    counit = LinMap(field, (4,), (), {(0,): {(): one}, (1,): {(): one}})
    antipode = LinMap(field, (4,), (4,), {
        (0,): {(0,): one}, (1,): {(1,): one}, (2,): {(3,): neg}, (3,): {(2,): one},
    })
    reassoc = Tensor(field, (4, 4, 4), {(0, 0, 0): one})
    unit = Tensor(field, (4,), {(0,): one})
    return QuasiHopfAlgebra(alg, comult, counit, reassoc, antipode, unit, unit,
                            reassoc_inv=reassoc, name="sweedler")


def counit_kernel_basis(H: QuasiHopfAlgebra):
    """A basis of ker(eps) as arity-1 tensors: e_i - eps(e_i) 1 for every
    basis vector but the first, which must be the unit."""
    field, d = H.field, H.dim
    if H.alg.unit != Tensor(field, (d,), {(0,): field.one}):
        raise ValueError("the first basis vector must be the unit")
    return [Tensor(field, (d,), {(i,): field.one, (0,): -H.counit_scalar(i)})
            for i in range(1, d)]


def kernel_gauge(H: QuasiHopfAlgebra, rng) -> GaugeTransformation:
    """Seeded counit-normalized gauge F = 1 (x) 1 + sum c_ij u_i (x) u_j.

    Coefficients are drawn from ``rng``; a draw whose F is not invertible
    is discarded and the next one is taken from the same stream.
    """
    field, d = H.field, H.dim
    basis = counit_kernel_basis(H)
    while True:
        t = Tensor(field, (d, d), {(0, 0): field.one})
        for ui in basis:
            for uj in basis:
                c = field.random(rng)
                if c:
                    t = t + ui.outer(uj).scale(c)
        try:
            inv = invert_element(H.spaces(2), t)
        except NotInvertible:
            continue
        return GaugeTransformation(H, t, inv)


def tensor_power(H: QuasiHopfAlgebra, n: int) -> QuasiHopfAlgebra:
    """H^(x)n as iterated ``tensor_qha``."""
    out = H
    for _ in range(n - 1):
        out = tensor_qha(out, H, name="%s^(x)%d" % (H.name, n))
    return out


# -- mutations --------------------------------------------------------------

def _parts(value) -> dict:
    """The structure maps of a fixture that a mutation may bump, by name."""
    if isinstance(value, QuasiHopfAlgebra):
        return dict(mult=value.alg.mult, comult=value.comult, counit=value.counit,
                    reassoc=value.reassoc, antipode=value.antipode,
                    alpha=value.alpha, beta=value.beta)
    if isinstance(value, BicomoduleAlgebra):
        return dict(left_coaction=value.left_coaction,
                    right_coaction=value.right_coaction,
                    reassoc_left=value.reassoc_left,
                    reassoc_right=value.reassoc_right,
                    reassoc_mixed=value.reassoc_mixed)
    if isinstance(value, ModuleCoalgebra):
        parts = dict(comult=value.comult, counit=value.counit)
        if value.left_action is not None:
            parts["left_action"] = value.left_action
        if value.right_action is not None:
            parts["right_action"] = value.right_action
        return parts
    raise TypeError("no mutation rule for %r" % (value,))


def verifier(value):
    """(module, function) naming the verifier of a fixture value."""
    if isinstance(value, QuasiHopfAlgebra):
        return "hopf", "verify_quasi_hopf"
    if isinstance(value, BicomoduleAlgebra):
        return "comodule", "verify_bicomodule_algebra"
    if isinstance(value, ModuleCoalgebra):
        return "modcoalg", "verify_module_coalgebra"
    raise TypeError("no verifier for %r" % (value,))


def structure_maps(value):
    """Names of the maps of ``value`` that a mutation may bump."""
    return tuple(sorted(_parts(value)))


def draw_mutation(value, rng, which):
    """Draw one single-entry mutation of the map ``which`` of ``value``:
    (which, entry, delta).  The entry is a multi-index of a tensor, or a
    (source, target) pair of multi-indices of a linear map; delta is a
    nonzero scalar."""
    m = _parts(value)[which]
    if isinstance(m, Tensor):
        entry = tuple(rng.randrange(x) for x in m.dims)
    else:
        entry = (tuple(rng.randrange(x) for x in m.src),
                 tuple(rng.randrange(x) for x in m.dst))
    return which, entry, value.field.random_nonzero(rng)


def _bumped(m, entry, delta):
    if isinstance(m, Tensor):
        data = dict(m.data)
        data[entry] = data.get(entry, m.field.zero) + delta
        return Tensor(m.field, m.dims, data)
    src, dst = entry
    cols = {k: dict(v) for k, v in m.cols.items()}
    img = cols.setdefault(src, {})
    img[dst] = img.get(dst, m.field.zero) + delta
    return LinMap(m.field, m.src, m.dst, cols)


def rebuild(value, mutation=None):
    """Build ``value`` again from its maps, as a new instance, so
    per-instance caches such as the one ``drinfeld_twist`` keeps start
    empty; with a ``mutation`` (from ``draw_mutation``) one entry is
    bumped first."""
    parts = _parts(value)
    which = None
    if mutation is not None:
        which, entry, delta = mutation
        parts[which] = _bumped(parts[which], entry, delta)
    if isinstance(value, QuasiHopfAlgebra):
        alg = value.alg
        if which == "mult":
            alg = FinAlgebra(value.field, alg.dim, parts["mult"], alg.unit,
                             validate=False)
        return QuasiHopfAlgebra(alg, parts["comult"], parts["counit"],
                                parts["reassoc"], parts["antipode"], parts["alpha"],
                                parts["beta"], reassoc_inv=value.reassoc_inv,
                                name=value.name)
    if isinstance(value, BicomoduleAlgebra):
        return BicomoduleAlgebra(
            value.H, value.alg, parts["left_coaction"], parts["right_coaction"],
            parts["reassoc_left"], parts["reassoc_right"], parts["reassoc_mixed"],
            value.reassoc_left_inv, value.reassoc_right_inv, value.reassoc_mixed_inv,
            name=value.name)
    return ModuleCoalgebra(value.H, value.side, value.dim, parts["comult"],
                           parts["counit"], left_action=parts.get("left_action"),
                           right_action=parts.get("right_action"), name=value.name)
