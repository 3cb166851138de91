from hypothesis import given, settings
from hypothesis import strategies as st

from quasihopf import linalg
from quasihopf.fields import FpElement, PrimeField

FP = PrimeField(10007)


@st.composite
def fp_matrices(draw):
    """Random matrices over F_p, singular ones included: mostly zeros and
    residues near 0 and p, and rows that repeat or combine earlier rows."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(1, 7))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, 5003, 10006, 3])
    out = []
    for _ in range(rows):
        if out and draw(st.booleans()):
            a, b = draw(st.sampled_from(out)), draw(st.sampled_from(out))
            c = FP.from_int(draw(entry))
            out.append([u + c * v for u, v in zip(a, b)])
        else:
            out.append([FP.from_int(draw(entry)) for _ in range(cols)])
    return out


@settings(max_examples=200, deadline=None)
@given(fp_matrices())
def test_residue_rref_matches_value_elimination(matrix):
    # the F_p elimination on residues gives the rows and pivots of the
    # same elimination run on FpElement values
    before = [row[:] for row in matrix]
    red, pivots = linalg.rref(FP, matrix)
    assert (red, pivots) == linalg._rref_values(FP, matrix)
    assert matrix == before
    for row in red:
        assert all(type(v) is FpElement and v.p == FP.p for v in row)
    for vec in linalg.nullspace(FP, matrix):
        assert all(sum((a * b for a, b in zip(row, vec)), FP.zero) == 0 for row in matrix)
