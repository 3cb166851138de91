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
"""

from quasihopf import linalg
from quasihopf.tensor import LinMap, Tensor, all_indices


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
