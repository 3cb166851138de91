"""Independent references for the two tensor kernels and for the
re-indexings of a linear map.

``naive_multiply`` is the plain pair loop: for every pair of entries of
the two factors it expands the per-leg structure constants one leg at a
time.  ``naive_apply_linear_map`` sends every entry through the column of
its mapped legs.  Both use the field's own ``+`` and ``*`` on every step;
the kernel tests compare ``tensor.multiply`` and
``tensor.apply_linear_map`` against them entrywise.

``reference_permute``, ``reference_compose``, ``reference_interleave``
and ``reference_to_matrix`` walk a map's columns (or a tensor's entries)
one by one, where the library re-indexes the tensor form of the map
with leg operations; the tests compare the two entry for entry.

``PositionalEl`` is the leg calculus as it was before its legs had
names: every leg is named by its position, which each call shifts.
The ``*_case.py`` references keep their pipelines on it, so each named
pipeline of the library is compared with an independent positional
form.  ``embed_legs`` builds the unit-padded factor that
``multiply``'s ``x_legs``/``y_legs`` stand for, and ``from_function``
builds a map column by column from a function of the basis index; the
library uses neither.
"""

from quasihopf import linalg
from quasihopf.errors import ShapeMismatch
from quasihopf.tensor import (FinAlgebra, LinMap, Tensor, all_indices, apply_linear_map, multiply,
                              switch_legs, unit_tensor)


def from_function(field, src, dst, fn, dst_spaces=None):
    """The map whose column at each source basis index ``idx`` is
    ``fn(idx)``, a ``Tensor`` or its data."""
    cols = {}
    for idx in all_indices(src):
        img = fn(idx)
        if isinstance(img, Tensor):
            img = img.data
        cols[idx] = img
    return LinMap(field, src, dst, cols, dst_spaces)


def embed_legs(spaces, x: Tensor, positions) -> Tensor:
    """Place ``x``'s legs at ``positions`` in the ambient tensor power,
    filling every other leg with that algebra's unit."""
    positions = tuple(positions)
    if len(set(positions)) != len(positions):
        raise ShapeMismatch("position collision in %r" % (positions,))
    if len(positions) != x.arity:
        raise ShapeMismatch("%d positions for arity %d" % (len(positions), x.arity))
    for pos, d in zip(positions, x.dims):
        if not 0 <= pos < len(spaces):
            raise ShapeMismatch("position %d out of range" % pos)
        if spaces[pos].dim != d:
            raise ShapeMismatch("leg dim %d does not match space at position %d" % (d, pos))
    rest = [i for i in range(len(spaces)) if i not in positions]
    out = x
    for i in rest:
        out = out.outer(spaces[i].unit)
    order = list(positions) + rest
    inverse = [0] * len(spaces)
    for new_pos, old_pos in enumerate(order):
        inverse[old_pos] = new_pos
    return switch_legs(out, inverse)


class PositionalEl:
    """A tensor together with its per-leg spaces; chainable leg calculus.

    Every method returns a fresh ``El``.  ``merge(i, j)`` multiplies leg j
    into leg i (product taken in that order, result at slot i), ``map``
    applies a LinMap to chosen legs, ``times`` is the outer product.

    ``times`` only adds new legs.  A factor whose legs land one for one on
    legs already present goes in where it lands, by one ``multiply``:
    ``mul_embedded`` on the right, ``premul_embedded`` on the left, with
    the other legs passing through.  ``x.times(f).merge(i, n)`` with f
    one-legged is ``x.mul_embedded(f, (i,))`` without the outer product.
    """

    __slots__ = ("spaces", "t")

    def __init__(self, spaces, t: Tensor):
        self.spaces = tuple(spaces)
        if tuple(s.dim for s in self.spaces) != t.dims:
            raise ShapeMismatch("spaces %r do not match tensor dims %r"
                                % (tuple(s.dim for s in self.spaces), t.dims))
        self.t = t

    @classmethod
    def unit(cls, spaces):
        return cls(spaces, unit_tensor(spaces))

    @classmethod
    def basis(cls, spaces, idx):
        field = spaces[0].field
        return cls(spaces, Tensor.basis(field, tuple(s.dim for s in spaces), idx))

    def map(self, m: LinMap, legs, at=None, out_spaces=None) -> "PositionalEl":
        legs = (legs,) if isinstance(legs, int) else tuple(legs)
        if out_spaces is None:
            out_spaces = m.dst_spaces
            if out_spaces is None:
                raise ShapeMismatch("map carries no target spaces; pass out_spaces")
        remaining = [l for l in range(len(self.spaces)) if l not in legs]
        slot = at if at is not None else sum(1 for l in remaining if l < legs[0])
        spaces = tuple(self.spaces[l] for l in remaining[:slot]) + tuple(out_spaces) \
            + tuple(self.spaces[l] for l in remaining[slot:])
        return PositionalEl(spaces, apply_linear_map(m, self.t, legs, at=at))

    def merge(self, i: int, j: int) -> "PositionalEl":
        if self.spaces[i] is not self.spaces[j]:
            raise ShapeMismatch("legs %d and %d live in different algebras" % (i, j))
        alg = self.spaces[i]
        if not isinstance(alg, FinAlgebra):
            raise ShapeMismatch("leg %d is not an algebra leg" % i)
        slot = i if i < j else i - 1
        return self.map(alg.mult, (i, j), at=slot, out_spaces=(alg,))

    def times(self, other) -> "PositionalEl":
        if isinstance(other, PositionalEl):
            return PositionalEl(self.spaces + other.spaces, self.t.outer(other.t))
        raise ShapeMismatch("outer product needs an El")

    def mul(self, other: "PositionalEl") -> "PositionalEl":
        if len(self.spaces) != len(other.spaces) or any(
                a is not b for a, b in zip(self.spaces, other.spaces)):
            raise ShapeMismatch("componentwise product needs identical spaces")
        return PositionalEl(self.spaces, multiply(self.spaces, self.t, other.t))

    def _fits(self, other: "PositionalEl", positions) -> tuple:
        positions = tuple(positions)
        if len(positions) != len(other.spaces) or any(
                not 0 <= l < len(self.spaces) or self.spaces[l] is not s
                for l, s in zip(positions, other.spaces)):
            raise ShapeMismatch("factor spaces do not sit at legs %r" % (positions,))
        return positions

    def mul_embedded(self, other: "PositionalEl", positions) -> "PositionalEl":
        """self times ``other`` at legs ``positions``, the unit elsewhere."""
        return PositionalEl(self.spaces, multiply(self.spaces, self.t, other.t,
                                        y_legs=self._fits(other, positions)))

    def premul_embedded(self, other: "PositionalEl", positions) -> "PositionalEl":
        """``other`` at legs ``positions``, the unit elsewhere, times self."""
        return PositionalEl(self.spaces, multiply(self.spaces, other.t, self.t,
                                        x_legs=self._fits(other, positions)))

    def perm(self, order) -> "PositionalEl":
        order = tuple(order)
        return PositionalEl(tuple(self.spaces[p] for p in order), switch_legs(self.t, order))

    def __eq__(self, other):
        if not isinstance(other, PositionalEl):
            return NotImplemented
        return self.t == other.t and tuple(s.dim for s in self.spaces) == tuple(
            s.dim for s in other.spaces)

    def __hash__(self):
        return hash(self.t)

    def __repr__(self):
        return "PositionalEl(%r)" % (self.t,)




def naive_multiply(spaces, x, y):
    field = x.field
    out = Tensor(field, x.dims)
    data = out.data
    for ix, vx in x.data.items():
        for iy, vy in y.data.items():
            terms = [((), vx * vy)]
            for leg, space in enumerate(spaces):
                col = space.mult.cols.get((ix[leg], iy[leg]))
                if not col:
                    terms = []
                    break
                terms = [(idx + k, v * w) for idx, v in terms for k, w in col.items()]
            for idx, v in terms:
                s = data.get(idx, field.zero) + v
                if s:
                    data[idx] = s
                else:
                    data.pop(idx, None)
    return out


def naive_apply_linear_map(m, x, legs, at=None):
    field = x.field
    remaining = [l for l in range(x.arity) if l not in legs]
    if at is None:
        at = len([l for l in remaining if l < legs[0]])
    out = Tensor(field, tuple(x.dims[l] for l in remaining[:at]) + m.dst
                 + tuple(x.dims[l] for l in remaining[at:]))
    data = out.data
    for idx, value in x.data.items():
        rest = tuple(idx[l] for l in remaining)
        for img_idx, w in m.cols.get(tuple(idx[l] for l in legs), {}).items():
            full = rest[:at] + img_idx + rest[at:]
            s = data.get(full, field.zero) + value * w
            if s:
                data[full] = s
            else:
                data.pop(full, None)
    return out


def reference_permute(m, src, dst):
    """Each column moved to its permuted source index, each of its
    entries to its permuted target index."""
    def move(idx, perm):
        return tuple(idx[p] for p in perm)

    cols = {move(idx, src): {move(j, dst): v for j, v in img.items()}
            for idx, img in m.cols.items()}
    dst_spaces = None if m.dst_spaces is None else move(m.dst_spaces, dst)
    return LinMap(m.field, move(m.src, src), move(m.dst, dst), cols, dst_spaces)


def reference_compose(after, before):
    """``after`` following ``before``, summed column by column."""
    field = after.field
    cols = {}
    for idx, img in before.cols.items():
        acc = {}
        for mid, v in img.items():
            for out_idx, w in after.cols.get(mid, {}).items():
                s = acc.get(out_idx, field.zero) + v * w
                if s:
                    acc[out_idx] = s
                else:
                    acc.pop(out_idx, None)
        cols[idx] = acc
    return LinMap(field, before.src, after.dst, cols, after.dst_spaces)


def reference_interleave(x, y):
    """Every pair of entries of x and y, leg i at x's index * y's dim + y's."""
    out = Tensor(x.field, tuple(a * b for a, b in zip(x.dims, y.dims)))
    for ix, vx in x.data.items():
        for iy, vy in y.data.items():
            out.data[tuple(a * d + b for a, b, d in zip(ix, iy, y.dims))] = vx * vy
    return out


def reference_to_matrix(m):
    """Row r, column c: the entry at flat target r of the image of flat
    source c, both in row-major order."""
    rows = {idx: r for r, idx in enumerate(all_indices(m.dst))}
    out = linalg.zeros(m.field, len(rows), len(all_indices(m.src)))
    for c, idx in enumerate(all_indices(m.src)):
        for j, v in m.cols.get(idx, {}).items():
            out[rows[j]][c] = v
    return out


def positional(H, t):
    """``t`` as a ``PositionalEl`` over the base ``H``, one leg per factor."""
    return PositionalEl(H.spaces(t.arity), t)
