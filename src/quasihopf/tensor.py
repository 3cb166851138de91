"""Sparse exact tensors over fixed ordered bases, linear maps, and
structure-constant algebras.

A ``Tensor`` is a sparse element of a tensor product of finite
dimensional spaces ("legs").  A ``LinMap`` sends basis multi-indices to
tensors and can be applied to any subset of legs.  Its entries are one
tensor over its source legs followed by its target legs (``as_tensor``,
``from_tensor``), and every re-indexing of a map is a leg operation on
that form: permuting or transposing legs (``switch_legs``), pairing two
maps leg by leg (``interleave``, a ``fuse``), swapping the two factors
of a fused pair basis (``swap_factors``); ``compose`` is one
``apply_linear_map``.  No other module indexes a map's entries.

A ``FinAlgebra`` is a unital algebra given by structure constants; lists
of algebras (one per leg) turn tensor powers into componentwise
algebras, which is where all of the displayed element identities of the
domain live.

The ``El`` wrapper pairs a tensor with its per-leg spaces and provides
the small calculus (merge, map, outer product, permute) used to
transcribe multi-term Sweedler formulas leg by leg.
"""

from __future__ import annotations

from operator import itemgetter

from . import linalg
from .errors import NotInvertible, QuasiHopfError, ShapeMismatch


def _check_same_field(a, b):
    if a.field is not b.field and a.field != b.field:
        raise ShapeMismatch("mixed scalar fields %r and %r" % (a.field, b.field))


def _non_positive(what, dim):
    if dim == 0:
        return "zero-dimensional %s rejected" % what
    return "%s of negative dimension %d rejected" % (what, dim)


class Tensor:
    """Sparse element of a tensor power; no zero entries are stored."""

    __slots__ = ("field", "dims", "data")

    def __init__(self, field, dims, data=None):
        dims = tuple(dims)
        for d in dims:
            if d <= 0:
                raise ShapeMismatch(_non_positive("leg", d))
        self.field = field
        self.dims = dims
        self.data = {}
        if data:
            for idx, value in data.items():
                if value:
                    self._check_index(idx)
                    self.data[tuple(idx)] = value

    def _check_index(self, idx):
        if len(idx) != len(self.dims):
            raise ShapeMismatch("index %r has wrong arity for dims %r" % (idx, self.dims))
        for i, d in zip(idx, self.dims):
            if not 0 <= i < d:
                raise ShapeMismatch("index %r out of range for dims %r" % (idx, self.dims))

    @classmethod
    def basis(cls, field, dims, idx):
        return cls(field, dims, {tuple(idx): field.one})

    @classmethod
    def scalar(cls, field, value):
        return cls(field, (), {(): value} if value else {})

    @property
    def arity(self) -> int:
        return len(self.dims)

    def get(self, idx):
        return self.data.get(tuple(idx), self.field.zero)

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return self.field == other.field and self.dims == other.dims and self.data == other.data

    def __hash__(self):
        return hash((self.dims, frozenset(self.data.items())))

    def is_zero(self) -> bool:
        return not self.data

    def __add__(self, other):
        _check_same_field(self, other)
        if self.dims != other.dims:
            raise ShapeMismatch("dims %r vs %r" % (self.dims, other.dims))
        data = dict(self.data)
        for idx, value in other.data.items():
            s = data.get(idx, self.field.zero) + value
            if s:
                data[idx] = s
            else:
                data.pop(idx, None)
        out = Tensor(self.field, self.dims)
        out.data = data
        return out

    def __neg__(self):
        out = Tensor(self.field, self.dims)
        out.data = {idx: -value for idx, value in self.data.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def scale(self, value):
        out = Tensor(self.field, self.dims)
        if value:
            out.data = {idx: v * value for idx, v in self.data.items()}
        return out

    def outer(self, other):
        _check_same_field(self, other)
        out = Tensor(self.field, self.dims + other.dims)
        for i1, v1 in self.data.items():
            for i2, v2 in other.data.items():
                out.data[i1 + i2] = v1 * v2
        return out

    def entries(self):
        """Entries sorted by multi-index (deterministic reports)."""
        return sorted(self.data.items())

    def first_difference(self, other):
        """Smallest multi-index where the two tensors differ, or None."""
        keys = sorted(set(self.data) | set(other.data))
        for idx in keys:
            if self.data.get(idx, self.field.zero) != other.data.get(idx, self.field.zero):
                return idx
        return None

    def to_flat(self):
        """Dense flat vector in row-major multi-index order."""
        strides = _strides(self.dims)
        total = 1
        for d in self.dims:
            total *= d
        vec = [self.field.zero] * total
        for idx, value in self.data.items():
            vec[_flatten(idx, strides)] = value
        return vec

    @classmethod
    def from_flat(cls, field, dims, vec):
        dims = tuple(dims)
        out = cls(field, dims)
        for flat, value in enumerate(vec):
            if value:
                out.data[_unflatten(flat, dims)] = value
        return out

    def fuse(self, groups):
        """Regroup legs: each group of legs becomes one leg, row-major.

        ``groups`` lists every leg exactly once, e.g. [[0], [1, 2]].
        """
        seen = [l for grp in groups for l in grp]
        if sorted(seen) != list(range(self.arity)):
            raise ShapeMismatch("fuse groups %r must cover all legs" % (groups,))
        new_dims = []
        for grp in groups:
            d = 1
            for l in grp:
                d *= self.dims[l]
            new_dims.append(d)
        out = Tensor(self.field, tuple(new_dims))
        for idx, value in self.data.items():
            new_idx = []
            for grp in groups:
                flat = 0
                for l in grp:
                    flat = flat * self.dims[l] + idx[l]
                new_idx.append(flat)
            out.data[tuple(new_idx)] = value
        return out

    def split(self, leg, dims):
        """Split one leg into several, inverse of ``fuse`` on that leg."""
        total = 1
        for d in dims:
            total *= d
        if total != self.dims[leg]:
            raise ShapeMismatch("cannot split leg of dim %d into %r" % (self.dims[leg], dims))
        out_dims = self.dims[:leg] + tuple(dims) + self.dims[leg + 1:]
        out = Tensor(self.field, out_dims)
        for idx, value in self.data.items():
            out.data[idx[:leg] + _unflatten(idx[leg], dims) + idx[leg + 1:]] = value
        return out

    def __repr__(self):
        items = ", ".join("%r: %s" % (idx, v) for idx, v in self.entries())
        return "Tensor(dims=%r, {%s})" % (self.dims, items)


def _strides(dims):
    strides = [1] * len(dims)
    for i in range(len(dims) - 2, -1, -1):
        strides[i] = strides[i + 1] * dims[i + 1]
    return strides


def _flatten(idx, strides):
    flat = 0
    for i, s in zip(idx, strides):
        flat += i * s
    return flat


def _unflatten(flat, dims):
    idx = [0] * len(dims)
    for i in range(len(dims) - 1, -1, -1):
        idx[i] = flat % dims[i]
        flat //= dims[i]
    return tuple(idx)


def _check_perm(perm, arity):
    perm = tuple(perm)
    if sorted(perm) != list(range(arity)):
        raise ShapeMismatch("bad permutation %r for arity %d" % (perm, arity))
    return perm


def switch_legs(x: Tensor, perm) -> Tensor:
    """Re-index legs: new leg i is old leg perm[i].

    The common superscript notation "reversed legs" for a 3-tensor is
    ``switch_legs(x, (2, 1, 0))``: the entry at (i, j, k) moves to (k, j, i).
    """
    perm = _check_perm(perm, x.arity)
    out = Tensor(x.field, tuple(x.dims[p] for p in perm))
    get = _getter(perm)
    out.data = {get(idx): value for idx, value in x.data.items()}
    return out


def _getter(legs):
    """``idx -> tuple([idx[l] for l in legs])``, built once: a slice where
    the legs are consecutive (one leg, or none, included), else an
    ``itemgetter`` of them all."""
    legs = tuple(legs)
    start = legs[0] if legs else 0
    if legs == tuple(range(start, start + len(legs))):
        return itemgetter(slice(start, start + len(legs)))
    return itemgetter(*legs)


def swap_factors(x: Tensor, legs, d1: int, d2: int) -> Tensor:
    """Swap the two factors of the fused pair index on each listed leg:
    i*d2 + j, the pair (i, j), becomes j*d1 + i, the pair (j, i)."""
    legs = frozenset(legs)
    for l in legs:
        if x.dims[l] != d1 * d2:
            raise ShapeMismatch("leg %d of dim %d is no %d x %d pair" % (l, x.dims[l], d1, d2))
    out = Tensor(x.field, x.dims)
    out.data = {tuple([k % d2 * d1 + k // d2 if l in legs else k for l, k in enumerate(idx)]): v
                for idx, v in x.data.items()}
    return out


class LinMap:
    """Linear map between tensor powers, stored column-sparsely.

    ``cols[src_index]`` is the sparse image of the source basis vector.
    ``dst_spaces`` optionally records the per-leg spaces of the target so
    expression pipelines can track spaces through coproducts and actions.
    """

    __slots__ = ("field", "src", "dst", "cols", "dst_spaces", "_raw")

    def __init__(self, field, src, dst, cols=None, dst_spaces=None):
        self.field = field
        self.src = tuple(src)
        self.dst = tuple(dst)
        self.cols = {}
        if cols:
            for idx, img in cols.items():
                clean = {tuple(j): v for j, v in img.items() if v}
                if clean:
                    self.cols[tuple(idx)] = clean
        self.dst_spaces = tuple(dst_spaces) if dst_spaces is not None else None
        self._raw = None

    def _raw_columns(self):
        """``(den, columns)``: the field's common denominator of every
        entry of ``cols``, and ``cols`` as tuples of (target index,
        integer numerator over den) terms, the form ``apply_linear_map``
        and ``FinAlgebra.rows`` work on; built on first use, as ``cols``
        is never changed after construction."""
        if self._raw is None:
            field = self.field
            den = field.common_den([v for img in self.cols.values() for v in img.values()])
            raw_over = field.raw_over
            self._raw = den, {idx: tuple((j, raw_over(v, den)) for j, v in img.items())
                              for idx, img in self.cols.items()}
        return self._raw

    @classmethod
    def from_function(cls, field, src, dst, fn, dst_spaces=None):
        cols = {}
        for idx in all_indices(src):
            img = fn(idx)
            if isinstance(img, Tensor):
                img = img.data
            cols[idx] = img
        return cls(field, src, dst, cols, dst_spaces)

    @classmethod
    def identity(cls, field, dims, spaces=None):
        return cls(field, dims, dims, {idx: {idx: field.one} for idx in all_indices(dims)},
                   dst_spaces=spaces)

    def rebind(self, dst_spaces) -> "LinMap":
        """The same map with fresh target-space metadata; structure
        constructors use this so shared maps are never mutated across
        structures.  ``cols`` and its raw form, once built, are shared, as
        neither is changed after construction."""
        out = LinMap(self.field, self.src, self.dst, dst_spaces=dst_spaces)
        out.cols, out._raw = self.cols, self._raw
        return out

    def permute(self, src=None, dst=None) -> "LinMap":
        """Re-index the source and/or target legs, each by a permutation
        in the convention of ``switch_legs`` (new leg i is old leg
        perm[i]), so that ``m.permute(dst=p)(x) == switch_legs(m(x), p)``
        and ``m.permute(src=p)(switch_legs(x, p)) == m(x)``."""
        n = len(self.src)
        src = _check_perm(range(n) if src is None else src, n)
        dst = _check_perm(range(len(self.dst)) if dst is None else dst, len(self.dst))
        t = switch_legs(self.as_tensor(), src + tuple([n + q for q in dst]))
        dst_spaces = None if self.dst_spaces is None else tuple(
            [self.dst_spaces[q] for q in dst])
        return LinMap.from_tensor(t, n, dst_spaces)

    def as_tensor(self) -> Tensor:
        """The entries as one tensor, the source legs first and the
        target legs after them: entry s + t is the coefficient of target
        basis t in the image of source basis s."""
        out = Tensor(self.field, self.src + self.dst)
        out.data = {idx + j: v for idx, img in self.cols.items() for j, v in img.items()}
        return out

    @classmethod
    def from_tensor(cls, t: Tensor, n_src: int, dst_spaces=None) -> "LinMap":
        """Inverse of ``as_tensor``: the map whose source is the first
        ``n_src`` legs of ``t`` and whose target is the rest."""
        out = cls(t.field, t.dims[:n_src], t.dims[n_src:], dst_spaces=dst_spaces)
        cols = out.cols
        for idx, v in t.data.items():
            cols.setdefault(idx[:n_src], {})[idx[n_src:]] = v
        return out

    def __call__(self, x: Tensor) -> Tensor:
        return apply_linear_map(self, x, tuple(range(x.arity)))

    def column(self, idx) -> Tensor:
        out = Tensor(self.field, self.dst)
        out.data = dict(self.cols.get(tuple(idx), {}))
        return out

    def compose(self, other: "LinMap") -> "LinMap":
        """self after other: ``self`` applied to the target legs of the
        tensor form of ``other``."""
        n = len(other.src)
        t = apply_linear_map(self, other.as_tensor(), range(n, n + len(other.dst)), at=n)
        return LinMap.from_tensor(t, n, self.dst_spaces)

    def __eq__(self, other):
        if not isinstance(other, LinMap):
            return NotImplemented
        return (self.field == other.field and self.src == other.src
                and self.dst == other.dst and self.cols == other.cols)

    def __hash__(self):
        return hash((self.src, self.dst))

    def to_matrix(self):
        """Dense matrix, rows = flattened dst, cols = flattened src."""
        n = len(self.src)
        t = self.as_tensor().fuse([list(range(n, n + len(self.dst))), list(range(n))])
        m = linalg.zeros(self.field, *t.dims)
        for (r, c), v in t.data.items():
            m[r][c] = v
        return m

    @classmethod
    def from_matrix(cls, field, src, dst, matrix):
        src, dst = tuple(src), tuple(dst)
        t = Tensor(field, (_size(src), _size(dst)),
                   {(c, r): v for r, row in enumerate(matrix) for c, v in enumerate(row)})
        return cls.from_tensor(t.split(1, dst).split(0, src), len(src))

    def is_invertible(self) -> bool:
        if self.src != self.dst and _size(self.src) != _size(self.dst):
            return False
        try:
            linalg.invert(self.field, self.to_matrix())
            return True
        except NotInvertible:
            return False

    def inverse(self) -> "LinMap":
        inv = linalg.invert(self.field, self.to_matrix())
        return LinMap.from_matrix(self.field, self.dst, self.src, inv)

    def __repr__(self):
        return "LinMap(%r -> %r)" % (self.src, self.dst)


def _size(dims):
    n = 1
    for d in dims:
        n *= d
    return n


def all_indices(dims):
    out = [()]
    for d in dims:
        out = [idx + (i,) for idx in out for i in range(d)]
    return out


def apply_linear_map(m: LinMap, x: Tensor, legs, at=None) -> Tensor:
    """Apply ``m`` to the listed legs of ``x`` (in source-leg order).

    The target legs of ``m`` are inserted at slot ``at`` of the remaining
    legs; by default at the slot where the first listed leg sat.  The
    result is linear in ``x`` and functorial under composition.  The
    arithmetic runs on plain ints on both fields: residues over F_p, and
    over Q integer numerators, ``x`` scaled once to the lcm of its
    denominators and ``m`` over its own cached one (see ``fields``).
    Each output sum becomes a field value once, at the end, over the
    product of the two denominators.
    """
    legs = tuple(legs)
    if len(set(legs)) != len(legs):
        raise ShapeMismatch("repeated legs %r" % (legs,))
    for l in legs:
        if not 0 <= l < x.arity:
            raise ShapeMismatch("leg %d out of range" % l)
    src_dims = tuple([x.dims[l] for l in legs])
    if src_dims != m.src:
        raise ShapeMismatch("legs %r have dims %r but map wants %r" % (legs, src_dims, m.src))
    _check_same_field(x, m)
    remaining = [l for l in range(x.arity) if l not in legs]
    if at is None:
        at = len([l for l in remaining if l < legs[0]])
    if not 0 <= at <= len(remaining):
        raise ShapeMismatch("bad insertion slot %d" % at)
    lead, trail = remaining[:at], remaining[at:]
    src_get, head_get, tail_get = _getter(legs), _getter(lead), _getter(trail)
    field = x.field
    den_m, cols = m._raw_columns()
    den_x = field.common_den(x.data.values())
    raw_over = field.raw_over
    acc = {}
    get = acc.get
    for idx, value in x.data.items():
        col = cols.get(src_get(idx))
        if col is None:
            continue
        head = head_get(idx)
        tail = tail_get(idx)
        v = raw_over(value, den_x)
        for img_idx, w in col:
            key = head + img_idx + tail
            acc[key] = get(key, 0) + v * w
    out = Tensor(field, tuple([x.dims[l] for l in lead]) + m.dst
                 + tuple([x.dims[l] for l in trail]))
    from_raw_over, den = field.from_raw_over, den_x * den_m
    data = out.data
    for key, total in acc.items():
        value = from_raw_over(total, den)
        if value:
            data[key] = value
    return out


def act_legwise(element: Tensor, target: Tensor, actions) -> Tensor:
    """Act by ``element`` on ``target`` leg by leg: target leg i is acted
    on through ``actions[i]``, a pair (action, acts_from_left), by the
    next leg of the element, or left as it is where ``actions[i]`` is
    None (a spectator, such as the source leg of a map's tensor form).
    A left action maps (element leg, target leg) to the target leg, a
    right action (target leg, element leg).  The outer product is formed
    once, then each acted leg is one ``apply_linear_map``, however many
    entries the element has."""
    leg = element.arity
    if len(actions) != target.arity or leg != len(actions) - actions.count(None):
        raise ShapeMismatch("%d-leg element, %d actions for a %d-leg target"
                            % (leg, len(actions), target.arity))
    out = element.outer(target)
    # target leg i sits after i target legs and the element legs not yet
    # used, so an acted leg keeps the next one where it was
    for pair in actions:
        if pair is None:
            leg += 1
            continue
        action, left = pair
        out = apply_linear_map(action, out, (0, leg) if left else (leg, 0), at=leg - 1)
    return out


def _identity(field, d: int) -> Tensor:
    """The sum of e_i (x) e_i over a basis of a d-dimensional space: fed
    in for a basis vector, it builds a map for every basis vector at
    once, leg 0 carrying the source index."""
    return Tensor(field, (d, d), {(i, i): field.one for i in range(d)})


class VectorSpace:
    """A plain finite-dimensional space used as a tensor leg."""

    __slots__ = ("field", "dim", "name")

    def __init__(self, field, dim: int, name: str = ""):
        if dim <= 0:
            raise ShapeMismatch(_non_positive("space", dim))
        self.field = field
        self.dim = dim
        self.name = name

    def __repr__(self):
        return "VectorSpace(%d%s)" % (self.dim, ", %r" % self.name if self.name else "")


class FinAlgebra:
    """Unital algebra by structure constants over an ordered basis.

    ``mult`` is the multiplication as a LinMap (d, d) -> (d,); ``unit``
    is an arity-1 tensor.  Associativity and the two-sided unit law are
    checked at construction unless ``validate=False`` (module-algebra
    carriers are legitimately non-associative).  ``top`` is the largest
    |structure constant| in ``rows``, which bounds ``multiply``'s slots.
    """

    __slots__ = ("field", "dim", "mult", "den", "rows", "top", "unit", "name")

    def __init__(self, field, dim, mult: LinMap, unit: Tensor, name="", validate=True):
        if dim <= 0:
            raise ShapeMismatch(_non_positive("algebra", dim))
        self.field = field
        self.dim = dim
        if mult.src != (dim, dim) or mult.dst != (dim,):
            raise ShapeMismatch("multiplication map has shape %r -> %r" % (mult.src, mult.dst))
        if unit.dims != (dim,):
            raise ShapeMismatch("unit has dims %r" % (unit.dims,))
        self.mult = mult.rebind((self,))
        # rows[i][j]: the (k, w) terms of e_i e_j, w an integer numerator
        # over den (a residue over 1 on F_p; see multiply)
        self.den, cols = self.mult._raw_columns()
        self.rows = [[tuple([(k, w) for (k,), w in cols.get((i, j), ())]) for j in range(dim)]
                     for i in range(dim)]
        self.top = max([abs(w) for row in self.rows for terms in row for _, w in terms],
                       default=0)
        self.unit = unit
        self.name = name
        if validate:
            witness = self.associativity_witness()
            if witness is not None:
                raise ShapeMismatch("structure constants not associative at %r" % (witness,))
            witness = self.unit_witness()
            if witness is not None:
                raise ShapeMismatch("unit law fails at basis %r" % (witness,))

    @classmethod
    def from_table(cls, field, dim, table, unit_vector, name="", validate=True):
        """``table[(i, j)]`` maps k -> coefficient of e_k in e_i e_j."""
        cols = {}
        for i in range(dim):
            for j in range(dim):
                img = table.get((i, j), {})
                cols[(i, j)] = {(k,): v for k, v in img.items() if v}
        mult = LinMap(field, (dim, dim), (dim,), cols)
        unit = Tensor(field, (dim,), {(i,): v for i, v in enumerate(unit_vector) if v})
        return cls(field, dim, mult, unit, name=name, validate=validate)

    def product(self, x: Tensor, y: Tensor) -> Tensor:
        return apply_linear_map(self.mult, x.outer(y), (0, 1))

    def basis_product(self, i: int, j: int) -> Tensor:
        return self.mult.column((i, j))

    def associativity_witness(self):
        """First basis triple (i, j, k) with (e_i e_j) e_k != e_i (e_j e_k),
        in row-major order, or None.  Both sides are summed on the
        integers of ``rows``: numerators over ``den``, residues over F_p."""
        rows, p = self.rows, self.field.characteristic
        for i, row_i in enumerate(rows):
            for j, ij in enumerate(row_i):
                for k in range(self.dim):
                    diff = {}
                    for m, v in ij:
                        for n, w in rows[m][k]:
                            diff[n] = diff.get(n, 0) + v * w
                    for m, v in rows[j][k]:
                        for n, w in row_i[m]:
                            diff[n] = diff.get(n, 0) - v * w
                    if any(total % p if p else total for total in diff.values()):
                        return (i, j, k)
        return None

    def unit_witness(self):
        """First basis index i with 1 e_i != e_i or e_i 1 != e_i, or None;
        both products for every i at once, i on a leading leg."""
        ident = _identity(self.field, self.dim)
        spaces = (self, self)
        wheres = [t.first_difference(ident) for t in (
            multiply(spaces, self.unit, ident, x_legs=(1,)),
            multiply(spaces, ident, self.unit, y_legs=(1,)))]
        return min([w[:1] for w in wheres if w is not None], default=None)

    def opposite(self) -> "FinAlgebra":
        return FinAlgebra(self.field, self.dim, self.mult.permute(src=(1, 0)), self.unit,
                          name=self.name + "^op" if self.name else "", validate=False)

    def __repr__(self):
        return "FinAlgebra(dim=%d%s)" % (self.dim, ", %r" % self.name if self.name else "")


def interleave(x: Tensor, y: Tensor) -> Tensor:
    """Legwise pairing of two equal-arity tensors: leg i becomes the
    fused pair (x's leg i, y's leg i), basis (i, j) -> i*dim_y + j."""
    n = x.arity
    if y.arity != n:
        raise ShapeMismatch("interleave needs equal arities")
    return x.outer(y).fuse([[k, n + k] for k in range(n)])


def build_tensor_algebra(a: FinAlgebra, b: FinAlgebra, name="") -> FinAlgebra:
    """Componentwise product algebra on A (x) B, basis (i, j) -> i*dimB + j."""
    _check_same_field(a, b)
    mult = LinMap.from_tensor(interleave(a.mult.as_tensor(), b.mult.as_tensor()), 2)
    return FinAlgebra(a.field, a.dim * b.dim, mult, interleave(a.unit, b.unit), name=name,
                      validate=False)


def unit_tensor(spaces) -> Tensor:
    """Tensor product of the units of a list of algebras."""
    out = Tensor.scalar(spaces[0].field, spaces[0].field.one)
    for s in spaces:
        out = out.outer(s.unit)
    return out


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


def _leaves(t: Tensor, leg: int, den: int):
    """``t``'s entries on ``leg`` grouped by their indices on the other
    legs: prefix -> {index on leg: integer numerator over ``den``}."""
    raw_over = t.field.raw_over
    leaves = {}
    for idx, v in t.data.items():
        leaves.setdefault(idx[:leg] + idx[leg + 1:], {})[idx[leg]] = raw_over(v, den)
    return leaves


def _densest_leg(keys, dims, leaves):
    """The leg of the multi-indices ``keys`` with the fewest leaves, i.e.
    the most entries per leaf, the last one on a tie; ``leaves`` is the
    number of leaves of the last leg.  Nothing is counted when that is
    already as few as any leg could have.  ``multiply`` packs this leg on
    both fields."""
    best = len(dims) - 1
    most = max(dims)
    if leaves * most < len(keys) + most:
        return best
    for leg in range(best):
        count = len({k[:leg] + k[leg + 1:] for k in keys})
        if count < leaves:
            best, leaves = leg, count
    return best


def _factor_legs(t: Tensor, legs, dims):
    """``legs`` as a tuple, checked as the legs of ``dims`` that factor
    ``t`` lives on, in its leg order."""
    legs = tuple(legs)
    if len(set(legs)) != len(legs) or not legs or len(legs) != t.arity:
        raise ShapeMismatch("legs %r for a factor of arity %d" % (legs, t.arity))
    for l, d in zip(legs, t.dims):
        if not 0 <= l < len(dims) or dims[l] != d:
            raise ShapeMismatch("a factor leg of dim %d does not fit leg %r of %r"
                                % (d, l, dims))
    return legs


def multiply(spaces, x: Tensor, y: Tensor, x_legs=None, y_legs=None) -> Tensor:
    """Componentwise product of two tensors over per-leg algebras.

    A factor passed with legs lives on those legs of ``spaces`` (in its
    own leg order) and stands for itself with the unit on every other
    leg, where the other factor's index passes through unchanged; every
    leg must belong to a factor.  So ``multiply(spaces, x, f, y_legs=L)``
    is x times ``embed_legs(spaces, f, L)`` without building that tensor.
    The missing legs are read as 1·y = y and x·1 = x, so on an algebra
    leg this equals the unit-padded product only where that algebra's
    unit law holds; where it fails (a bumped unit or multiplication),
    the two differ.  A spectator leg that carries an item index, such as
    the pair legs of ``multiplicative_sides``, is exact either way.

    ``y`` is cut into leaves: its entries on one leg (the packed leg)
    that agree on all its other legs.  The leaves hang in a prefix tree
    over those other legs, walked one leg at a time, so the work of a
    leg is shared by all leaves that agree on the legs before it.  A leg
    that only ``x`` has is no tree level: its index is added to each
    walk's start.  On a leg that only ``y`` has, ``x``'s index is 0 and
    the product is the identity, e_0 e_j = e_j.  The packed leg is the
    leg of ``y`` with the most entries per leaf (``_densest_leg``).  A
    walk starts from all entries of ``x`` that agree off it and ends in
    (output position, coefficient, leaf) terms.  The arithmetic runs on
    plain ints on both fields (see ``fields``): ``x`` and ``y`` are each
    scaled once to their own common denominator and each algebra's
    structure constants are numerators over its ``den``, all 1 over F_p.

    Each leaf is packed once per call, for each basis index i of ``x``
    on the packed leg, into one int: the numerators of e_i·leaf (over
    F_p residues, each reduced mod p once) in signed slots of ``width``
    bits, one per basis index of that leg (Kronecker substitution), so a
    term costs one big-int multiply-add per entry of its group of ``x``.
    ``width`` is a sign bit more than a bound on every slot sum, known
    before packing: the number of terms times the largest entry of
    ``x``, the largest slot of a leaf (the largest leaf entry times the
    packed leg's ``FinAlgebra.top`` and dimension; both p - 1 over F_p)
    and the ``top`` of every walked leg.  Each sum gets half a slot added
    to every slot, so that each reads as an unsigned field, and is
    unpacked once: each nonzero slot, less the half, becomes one field
    value over den_x·den_y times the ``den`` of every leg of ``y``
    (``den`` and ``top`` are 1 on a leg that ``x`` is missing).
    """
    dims = tuple(s.dim for s in spaces)
    n = len(dims)
    for t, legs in ((x, x_legs), (y, y_legs)):
        if legs is None and t.dims != dims:
            raise ShapeMismatch("dims %r vs %r" % (t.dims, dims))
    if x_legs is not None and y_legs is not None:
        missing = set(range(n)).difference(x_legs, y_legs)
        if missing:
            raise ShapeMismatch("leg %d belongs to neither factor" % min(missing))
    _check_same_field(x, y)
    for s in spaces:
        _check_same_field(x, s)
    field = x.field
    den_x, den_y = field.common_den(x.data.values()), field.common_den(y.data.values())
    raw_over, from_raw_over = field.raw_over, field.from_raw_over
    if not spaces:
        return Tensor.scalar(field, from_raw_over(
            raw_over(x.get(()), den_x) * raw_over(y.get(()), den_y), den_x * den_y))
    out = Tensor(field, dims)
    rows = [s.rows for s in spaces]
    dens = [s.den for s in spaces]
    tops = [s.top for s in spaces]
    if x_legs is not None:
        # x's legs in place, and 0 on its missing legs, where e_0 e_j = e_j
        # stands for 1 e_j
        x_legs = _factor_legs(x, x_legs, dims)
        for l in set(range(n)).difference(x_legs):
            rows[l] = [[((j, 1),) for j in range(dims[l])]]
            dens[l] = tops[l] = 1
        full = [0] * n
        data = {}
        for ix, v in x.data.items():
            for l, i in zip(x_legs, ix):
                full[l] = i
            data[tuple(full)] = v
        x = Tensor(field, dims)
        x.data = data
    if y_legs is None:
        y_legs = range(n)
    else:
        y_legs = _factor_legs(y, y_legs, dims)
        order = sorted(range(len(y_legs)), key=y_legs.__getitem__)
        if order != list(range(len(order))):
            y, y_legs = switch_legs(y, order), sorted(y_legs)
    if not x.data or not y.data:
        return out
    m = len(y_legs)
    leaves = _leaves(y, m - 1, den_y)
    leg = _densest_leg(y.data, y.dims, len(leaves))
    if leg != m - 1:
        leaves = _leaves(y, leg, den_y)
    packed = y_legs[leg]
    row_leg, d_leg = rows[packed], dims[packed]
    # the groups of x, and the flat positions that the walks build, are
    # keyed by the index without the packed leg
    key_dims = dims[:packed] + dims[packed + 1:]
    strides = _strides(key_dims)
    pos = [l - (l > packed) for l in range(n)]
    passed = [(pos[l], strides[pos[l]]) for l in range(n) if l not in y_legs]
    groups, needed = {}, set()
    for ix, vx in x.data.items():
        i = ix[packed]
        groups.setdefault(ix[:packed] + ix[packed + 1:], []).append((i, raw_over(vx, den_x)))
        needed.add(i)
    # a slot sums at most one term per entry of x and leaf: the entry,
    # a walk coefficient (a structure constant per walked leg) and a slot
    # of the leaf (d_leg leaf entries times a structure constant); over
    # F_p entries and slots are residues
    p = field.characteristic
    if p:
        bound = len(x.data) * len(leaves) * (p - 1) ** 2
    else:
        bound = len(x.data) * len(leaves) * tops[packed] * d_leg \
            * max([abs(v) for group in groups.values() for _, v in group]) \
            * max([abs(v) for leaf in leaves.values() for v in leaf.values()])
    walked = []
    for l in y_legs:
        if l != packed:
            walked.append((pos[l], rows[l], strides[pos[l]]))
            bound *= tops[l]
    width = bound.bit_length() + 1
    for prefix, leaf in leaves.items():
        packs = [0] * d_leg
        for i in needed:
            row = row_leg[i]
            slots = [0] * d_leg
            for j, vy in leaf.items():
                for k, w in row[j]:
                    slots[k] += vy * w
            packed_leaf = 0
            for slot in reversed(slots):
                packed_leaf = (packed_leaf << width) + (slot % p if p else slot)
            packs[i] = packed_leaf
        leaves[prefix] = packs
    if m == 1:
        tree = leaves[()]
    else:
        tree = {}
        for prefix, leaf in leaves.items():
            node = tree
            for j in prefix[:-1]:
                node = node.setdefault(j, {})
            node[prefix[-1]] = leaf
    # each sum starts from half a slot in every slot, so that a slot sum
    # within half a slot of 0 reads as an unsigned field
    mask = (1 << width) - 1
    half = 1 << width - 1
    bias = half * (((1 << width * d_leg) - 1) // mask)
    acc = {}
    get = acc.get
    for prefix, u in groups.items():
        start = 0
        for at, s in passed:
            start += prefix[at] * s
        level = [(start, 1, tree)]
        for at, table, s in walked:
            row = table[prefix[at]]
            level = [(flat + k * s, v * w, child) for flat, v, node in level
                     for j, child in node.items() for k, w in row[j]]
        for flat, v, packs in level:
            for i, vx in u:
                acc[flat] = get(flat, bias) + v * vx * packs[i]
    data = out.data
    den = den_x * den_y
    for l in y_legs:
        den *= dens[l]
    for flat, total in acc.items():
        head = _unflatten(flat, key_dims)
        before, after = head[:packed], head[packed:]
        for k in range(d_leg):
            slot = (total & mask) - half
            if slot:
                value = from_raw_over(slot, den)
                if value:
                    data[before + (k,) + after] = value
            total >>= width
        if total:
            raise QuasiHopfError("a slot spilled past the packed width")
    return out


def multiplicative_sides(src_alg: FinAlgebra, m: LinMap, dst_spaces):
    """The two sides of "``m`` respects products" for every pair of basis
    elements at once: m(e_i e_j) and m(e_i) m(e_j), the product taken in
    the algebras ``dst_spaces`` of the target legs, with the pair (i, j)
    on the two leading legs."""
    rest = tuple(range(2, 2 + len(m.dst)))
    img = m.as_tensor()
    return (apply_linear_map(m, src_alg.mult.as_tensor(), (2,)),
            multiply((src_alg, src_alg) + tuple(dst_spaces), img, img,
                     x_legs=(0,) + rest, y_legs=(1,) + rest))


def invert_element(spaces, x: Tensor) -> Tensor:
    """Two-sided inverse of ``x`` in the componentwise algebra, by exact
    linear solve; raises NotInvertible when none exists."""
    dims = tuple(s.dim for s in spaces)
    if x.dims != dims:
        raise ShapeMismatch("element dims %r do not match spaces" % (x.dims,))
    field = x.field
    k = len(dims)
    # the left-multiplication matrix of x: x e_j for every basis element
    # e_j at once, j riding along on the leading legs
    ident = _identity(field, _size(dims)).split(1, dims).split(0, dims)
    products = multiply(tuple(spaces) * 2, x, ident, x_legs=range(k, 2 * k))
    lmat = LinMap.from_tensor(products, k).to_matrix()
    unit_vec = unit_tensor(spaces).to_flat()
    try:
        sol = linalg.solve(field, lmat, unit_vec)
    except NotInvertible as exc:
        raise NotInvertible("element has no right inverse") from exc
    u = Tensor.from_flat(field, dims, sol)
    if multiply(spaces, u, x) != unit_tensor(spaces):
        raise NotInvertible("right inverse is not a left inverse")
    return u


class El:
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

    def map(self, m: LinMap, legs, at=None, out_spaces=None) -> "El":
        legs = (legs,) if isinstance(legs, int) else tuple(legs)
        if out_spaces is None:
            out_spaces = m.dst_spaces
            if out_spaces is None:
                raise ShapeMismatch("map carries no target spaces; pass out_spaces")
        remaining = [l for l in range(len(self.spaces)) if l not in legs]
        slot = at if at is not None else sum(1 for l in remaining if l < legs[0])
        spaces = tuple(self.spaces[l] for l in remaining[:slot]) + tuple(out_spaces) \
            + tuple(self.spaces[l] for l in remaining[slot:])
        return El(spaces, apply_linear_map(m, self.t, legs, at=at))

    def merge(self, i: int, j: int) -> "El":
        if self.spaces[i] is not self.spaces[j]:
            raise ShapeMismatch("legs %d and %d live in different algebras" % (i, j))
        alg = self.spaces[i]
        if not isinstance(alg, FinAlgebra):
            raise ShapeMismatch("leg %d is not an algebra leg" % i)
        slot = i if i < j else i - 1
        return self.map(alg.mult, (i, j), at=slot, out_spaces=(alg,))

    def times(self, other) -> "El":
        if isinstance(other, El):
            return El(self.spaces + other.spaces, self.t.outer(other.t))
        raise ShapeMismatch("outer product needs an El")

    def mul(self, other: "El") -> "El":
        if len(self.spaces) != len(other.spaces) or any(
                a is not b for a, b in zip(self.spaces, other.spaces)):
            raise ShapeMismatch("componentwise product needs identical spaces")
        return El(self.spaces, multiply(self.spaces, self.t, other.t))

    def _fits(self, other: "El", positions) -> tuple:
        positions = tuple(positions)
        if len(positions) != len(other.spaces) or any(
                not 0 <= l < len(self.spaces) or self.spaces[l] is not s
                for l, s in zip(positions, other.spaces)):
            raise ShapeMismatch("factor spaces do not sit at legs %r" % (positions,))
        return positions

    def mul_embedded(self, other: "El", positions) -> "El":
        """self times ``other`` at legs ``positions``, the unit elsewhere."""
        return El(self.spaces, multiply(self.spaces, self.t, other.t,
                                        y_legs=self._fits(other, positions)))

    def premul_embedded(self, other: "El", positions) -> "El":
        """``other`` at legs ``positions``, the unit elsewhere, times self."""
        return El(self.spaces, multiply(self.spaces, other.t, self.t,
                                        x_legs=self._fits(other, positions)))

    def perm(self, order) -> "El":
        order = tuple(order)
        return El(tuple(self.spaces[p] for p in order), switch_legs(self.t, order))

    def __eq__(self, other):
        if not isinstance(other, El):
            return NotImplemented
        return self.t == other.t and tuple(s.dim for s in self.spaces) == tuple(
            s.dim for s in other.spaces)

    def __hash__(self):
        return hash(self.t)

    def __repr__(self):
        return "El(%r)" % (self.t,)
