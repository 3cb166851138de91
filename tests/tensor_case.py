"""Independent references for the two tensor kernels.

``naive_multiply`` is the plain pair loop: for every pair of entries of
the two factors it expands the per-leg structure constants one leg at a
time.  ``naive_apply_linear_map`` sends every entry through the column of
its mapped legs.  Both use the field's own ``+`` and ``*`` on every step;
the kernel tests compare ``tensor.multiply`` and
``tensor.apply_linear_map`` against them entrywise.
"""

from quasihopf.tensor import Tensor


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
