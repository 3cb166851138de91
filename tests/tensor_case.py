"""Independent reference for the componentwise product of tensors.

``naive_multiply`` is the plain pair loop: for every pair of entries of
the two factors it expands the per-leg structure constants one leg at a
time, with the field's own ``+`` and ``*`` on every step.  The kernel
tests compare ``tensor.multiply`` against it entrywise.
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
