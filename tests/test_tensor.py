from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasihopf.errors import NotInvertible, ShapeMismatch
from quasihopf.fields import QQ, FpElement, PrimeField
from quasihopf.fixtures import h2, kz2
from quasihopf.tensor import (El, FinAlgebra, LinMap, Tensor, VectorSpace, _densest_leg,
                              act_legwise, all_indices, apply_linear_map, build_tensor_algebra,
                              embed_legs, interleave, invert_element, multiply,
                              swap_factors, switch_legs, unit_tensor)

from tensor_case import (naive_apply_linear_map, naive_multiply, reference_compose,
                         reference_interleave, reference_permute, reference_to_matrix)
from test_hopf import sweedler

FP = PrimeField(10007)


def z2_algebra(field):
    one = field.one
    table = {(0, 0): {0: one}, (0, 1): {1: one},
             (1, 0): {1: one}, (1, 1): {0: one}}
    return FinAlgebra.from_table(field, 2, table, [one, field.zero])


def triangular_algebra(field):
    """Upper triangular 2x2 matrices, basis e11, e12, e22: not commutative
    (e11 e12 = e12, e12 e11 = 0), and its unit is not a basis vector."""
    one = field.one
    table = {(0, 0): {0: one}, (0, 1): {1: one}, (1, 2): {1: one}, (2, 2): {2: one}}
    return FinAlgebra.from_table(field, 3, table, [one, field.zero, one])


def quadratic_algebra(field):
    """k[t]/(t^2 - 3), basis 1, t: a structure constant other than 1."""
    one = field.one
    table = {(0, 0): {0: one}, (0, 1): {1: one},
             (1, 0): {1: one}, (1, 1): {0: field.from_int(3)}}
    return FinAlgebra.from_table(field, 2, table, [one, field.zero])


LEG_ALGEBRAS = (z2_algebra, triangular_algebra, quadratic_algebra)

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)


def tensors(dims):
    keys = all_indices(dims)
    return st.lists(rationals, min_size=len(keys), max_size=len(keys)).map(
        lambda vals: Tensor(QQ, dims, dict(zip(keys, vals))))


@settings(max_examples=40, deadline=None)
@given(tensors((2, 3)), tensors((2, 3)))
def test_addition_is_exact(x, y):
    assert (x + y) - y == x


@settings(max_examples=40, deadline=None)
@given(tensors((2, 2)))
def test_scale_roundtrip_exact(x):
    assert x.scale(Fraction(3, 7)).scale(Fraction(7, 3)) == x


def test_no_zero_entries_stored():
    t = Tensor(QQ, (2, 2), {(0, 0): Fraction(1), (1, 1): Fraction(0)})
    assert (1, 1) not in t.data
    assert t.get((1, 1)) == 0


def test_zero_dimensional_leg_rejected():
    with pytest.raises(ShapeMismatch):
        Tensor(QQ, (2, 0))


def test_non_positive_dimensions_are_named():
    # the dimension is checked before the structure maps are read
    for dim, reason in ((0, "zero-dimensional %s rejected"),
                        (-1, "%s of negative dimension -1 rejected")):
        with pytest.raises(ShapeMismatch, match="^%s$" % (reason % "leg")):
            Tensor(QQ, (2, dim))
        with pytest.raises(ShapeMismatch, match="^%s$" % (reason % "space")):
            VectorSpace(QQ, dim)
        with pytest.raises(ShapeMismatch, match="^%s$" % (reason % "algebra")):
            FinAlgebra(QQ, dim, None, None)


def test_switch_legs_reindexes():
    t = Tensor(QQ, (2, 3, 4), {(1, 2, 3): Fraction(5)})
    r = switch_legs(t, (2, 1, 0))
    assert r.dims == (4, 3, 2)
    assert r.get((3, 2, 1)) == 5
    assert switch_legs(r, (2, 1, 0)) == t


@settings(max_examples=25, deadline=None)
@given(tensors((2, 2, 2)))
def test_switch_legs_inverse_permutation_restores(x):
    perm = (1, 2, 0)
    inverse = (2, 0, 1)
    assert switch_legs(switch_legs(x, perm), inverse) == x


def test_identity_permutation_is_identity():
    t = Tensor(QQ, (2, 2), {(0, 1): Fraction(2)})
    assert switch_legs(t, (0, 1)) == t


def test_fuse_split_roundtrip():
    t = Tensor(QQ, (2, 3, 2), {(1, 2, 0): Fraction(7), (0, 0, 1): Fraction(-1)})
    fused = t.fuse([[0], [1, 2]])
    assert fused.dims == (2, 6)
    assert fused.split(1, (3, 2)) == t


def test_build_tensor_algebra_unit_is_neutral():
    A = z2_algebra(QQ)
    one_dim = FinAlgebra.from_table(QQ, 1, {(0, 0): {0: QQ.one}}, [QQ.one])
    prod = build_tensor_algebra(one_dim, A)
    # k (x) A multiplies exactly like A after index relabeling
    for i in range(2):
        for j in range(2):
            assert prod.basis_product(i, j).data == A.basis_product(i, j).data


def test_build_tensor_algebra_group_product():
    A = z2_algebra(QQ)
    four = build_tensor_algebra(A, A)
    assert four.dim == 4
    # (g x 1)(1 x g) = g x g: indices g x 1 -> 2, 1 x g -> 1, g x g -> 3
    assert four.basis_product(2, 1) == Tensor(QQ, (4,), {(3,): QQ.one})


def test_build_tensor_algebra_is_associative(field):
    H = h2(field)
    prod = build_tensor_algebra(H.alg, H.alg.opposite())
    assert prod.associativity_witness() is None
    assert prod.unit_witness() is None


@st.composite
def structure_tables(draw):
    """Random structure constants on 1 to 3 basis vectors, mostly not
    associative; over F_p the entries -1 and 1/3 have residues near p."""
    field = draw(st.sampled_from([QQ, FP]))
    dim = draw(st.integers(1, 3))
    table = {ij: draw(field_tensors(field, (dim,))).data for ij in all_indices((dim, dim))}
    mult = LinMap(field, (dim, dim), (dim,), table)
    unit = Tensor.basis(field, (dim,), (0,))
    return FinAlgebra(field, dim, mult, unit, validate=False)


@settings(max_examples=60, deadline=None)
@given(structure_tables())
def test_associativity_witness_is_first_failing_triple(alg):
    def basis(i):
        return Tensor.basis(alg.field, (alg.dim,), (i,))
    first = None
    for i, j, k in all_indices((alg.dim,) * 3):
        left = alg.product(alg.product(basis(i), basis(j)), basis(k))
        if left != alg.product(basis(i), alg.product(basis(j), basis(k))):
            first = (i, j, k)
            break
    assert alg.associativity_witness() == first


def test_multiply_by_unit_is_identity(field):
    A = z2_algebra(field)
    spaces = (A, A)
    x = Tensor(field, (2, 2), {(0, 1): field.from_int(3), (1, 1): field.one})
    assert multiply(spaces, x, unit_tensor(spaces)) == x
    assert multiply(spaces, unit_tensor(spaces), x) == x


def test_group_relation_squares_to_unit(field):
    A = z2_algebra(field)
    g = Tensor.basis(field, (2,), (1,))
    assert multiply((A,), g, g) == A.unit


def test_reassociator_self_inverse(field):
    H = h2(field)
    spaces = H.spaces(3)
    assert multiply(spaces, H.reassoc, H.reassoc) == unit_tensor(spaces)
    assert invert_element(spaces, H.reassoc) == H.reassoc_inv


def test_invert_unit_and_zero(field):
    A = z2_algebra(field)
    assert invert_element((A,), A.unit) == A.unit
    with pytest.raises(NotInvertible):
        invert_element((A,), Tensor(field, (2,)))


@settings(max_examples=30, deadline=None)
@given(tensors((2,)), tensors((2,)))
def test_invert_element_two_sided(x, y):
    A = z2_algebra(QQ)
    try:
        inv = invert_element((A,), x)
    except NotInvertible:
        return
    assert multiply((A,), x, inv) == A.unit
    assert multiply((A,), inv, x) == A.unit
    # exact division: (y x) x^-1 == y
    assert multiply((A,), multiply((A,), y, x), inv) == y


def test_embed_legs_places_units():
    H = h2(QQ)
    spaces = H.spaces(4)
    out = embed_legs(spaces, H.reassoc, (0, 1, 2))
    for idx, value in H.reassoc.data.items():
        assert out.get(idx + (0,)) == value
    with pytest.raises(ShapeMismatch):
        embed_legs(spaces, H.reassoc, (0, 0, 1))


def test_embed_unit_gives_unit_tensor():
    H = kz2(QQ)
    spaces = H.spaces(3)
    two = unit_tensor(H.spaces(2))
    assert embed_legs(spaces, two, (0, 2)) == unit_tensor(spaces)


def test_embedded_gauge_contracts_to_unit():
    # a counit-normalized two-leg element embedded in the middle of a
    # four-leg space collapses to the unit under the counit
    from quasihopf.hopf import drinfeld_twist
    H = h2(QQ)
    twist = drinfeld_twist(H)
    spaces = H.spaces(4)
    emb = embed_legs(spaces, twist.t, (1, 2))
    out = apply_linear_map(H.counit, emb, (1,))
    out = apply_linear_map(H.counit, out, (1,))
    assert out == unit_tensor(H.spaces(2))


def test_apply_identity_map():
    t = Tensor(QQ, (2, 2), {(0, 1): Fraction(4)})
    ident = LinMap.identity(QQ, (2,))
    assert apply_linear_map(ident, t, (1,)) == t


def test_apply_counit_to_reassociator_middle_leg(field):
    H = h2(field)
    out = apply_linear_map(H.counit, H.reassoc, (1,))
    assert out == unit_tensor(H.spaces(2))


def test_apply_composition_law():
    H = h2(QQ)
    x = H.reassoc
    two_steps = apply_linear_map(H.comult, apply_linear_map(H.antipode, x, (1,)), (1,))
    composed = H.comult.compose(H.antipode)
    assert apply_linear_map(composed, x, (1,)) == two_steps


@settings(max_examples=25, deadline=None)
@given(tensors((2, 2, 2)), tensors((2, 2, 2)), rationals, rationals)
def test_apply_linear_map_bilinear(x, y, a, b):
    H = h2(QQ)
    combo = x.scale(a) + y.scale(b)
    out = apply_linear_map(H.comult, combo, (1,))
    expect = apply_linear_map(H.comult, x, (1,)).scale(a) + \
        apply_linear_map(H.comult, y, (1,)).scale(b)
    assert out == expect


def test_el_merge_matches_algebra_product(field):
    A = z2_algebra(field)
    g = Tensor.basis(field, (2,), (1,))
    e = El((A,), g).times(El((A,), g)).merge(0, 1)
    assert e.t == A.unit


def test_el_embedded_products_match_outer_product_and_merge(field):
    # x.times(f).merge(i, n)... is x.mul_embedded(f, (i, ...)), and the
    # factor on the left is premul_embedded; the triangular leg does not
    # commute, so a product taken in the wrong order shows
    A, T = z2_algebra(field), triangular_algebra(field)
    x = El((T, A, T), Tensor(field, (3, 2, 3), {(0, 1, 1): field.one,
                                                (1, 0, 2): field.from_int(3)}))
    f = El((T, T), Tensor(field, (3, 3), {(1, 0): field.one, (2, 1): field.from_int(-2)}))
    assert x.mul_embedded(f, (2, 0)) == x.times(f).merge(2, 3).merge(0, 3)
    assert x.premul_embedded(f, (2, 0)) == x.times(f).merge(3, 2).merge(3, 0).perm((2, 0, 1))
    for positions in ((0, 1), (0,), (0, 3), (2, 2)):
        with pytest.raises(ShapeMismatch):
            x.mul_embedded(f, positions)


def test_linmap_matrix_roundtrip():
    H = h2(QQ)
    m = H.comult
    again = LinMap.from_matrix(QQ, m.src, m.dst, m.to_matrix())
    assert again == LinMap(QQ, m.src, m.dst, m.cols)


def test_rebind_shares_columns(field):
    # columns never change after construction, so a rebound map keeps the
    # very same dicts and only its target spaces are new
    H = h2(field)
    m = LinMap(field, H.comult.src, H.comult.dst, H.comult.cols)
    fresh = m.rebind((H.alg, H.alg))
    assert fresh.cols is m.cols and fresh == m
    assert fresh.dst_spaces == (H.alg, H.alg) and m.dst_spaces is None


@settings(max_examples=40, deadline=None)
@given(tensors((2, 3, 2)))
def test_serialization_rows_roundtrip_any_tensor(x):
    # canonical row form (sorted indices, exact coefficient strings) is a
    # faithful encoding of every sparse tensor
    from quasihopf.io import _tensor_from_rows, _tensor_rows
    rows = _tensor_rows(QQ, x)
    assert rows == sorted(rows)
    back = _tensor_from_rows(QQ, x.dims, rows, "test")
    assert back == x


# -- the multiply kernel against the plain pair loop ---------------------------

SMALL_COEFFS = ((0, 0, 0, 1, -1, 2, -2, 3), (1, 1, 3))
# over Q: large, pairwise coprime denominators, so the common denominator
# of a tensor or a map is a product of several of them
COPRIME_COEFFS = ((0, 0, 1, -1, 3, 10007), (1, 7, 11, 13, 101))


def field_tensors(field, dims, coeffs=SMALL_COEFFS):
    """Sparse tensors with coefficients num/den drawn from ``coeffs``, a
    pair (numerators, denominators).  With the default small ones, -1
    and 1/3 give residues near p over F_p, so residue sums pass p and
    must reduce."""
    keys = all_indices(dims)
    coeff = st.tuples(st.sampled_from(coeffs[0]), st.sampled_from(coeffs[1]))
    return st.lists(coeff, min_size=len(keys), max_size=len(keys)).map(
        lambda cs: Tensor(field, dims, {k: field.div_int(n, d)
                                        for k, (n, d) in zip(keys, cs)}))


# a Mersenne prime: residues of 31 bits widen every slot of the packed
# F_p kernel (small enough for the trial division of ``PrimeField``)
BIG = PrimeField(2 ** 31 - 1)


@st.composite
def multiply_cases(draw):
    field = draw(st.sampled_from([QQ, FP, BIG]))
    makers = draw(st.lists(st.sampled_from(LEG_ALGEBRAS), min_size=1, max_size=4))
    spaces = tuple(make(field) for make in makers)
    dims = tuple(s.dim for s in spaces)
    return spaces, draw(field_tensors(field, dims)), draw(field_tensors(field, dims))


def assert_clean(field, t):
    """No stored zeros, and every value is a scalar of ``field``."""
    for value in t.data.values():
        assert value
        if field == QQ:
            assert type(value) is Fraction
        else:
            assert type(value) is FpElement and value.p == field.p
            assert 0 < value.r < field.p


@settings(max_examples=80, deadline=None)
@given(multiply_cases())
def test_multiply_matches_pair_loop(case):
    spaces, x, y = case
    out = multiply(spaces, x, y)
    assert out == naive_multiply(spaces, x, y)
    assert_clean(x.field, out)


# (algebra, a, b) with a b = 0 although the terms a_i b_j are not all zero
ANNIHILATING = (
    (z2_algebra, {(0,): 1, (1,): 1}, {(0,): 1, (1,): -1}),
    (triangular_algebra, {(0,): 1, (1,): 1}, {(1,): 1, (2,): -1}),
)


@st.composite
def cancelling_cases(draw):
    """Products whose every entry cancels; over F_p the residue sums are
    nonzero multiples of p."""
    spaces, x, y = draw(multiply_cases())
    field = x.field
    make, a, b = draw(st.sampled_from(ANNIHILATING))
    first = make(field)
    scale = draw(st.sampled_from([1, -1, 5]))
    a = Tensor(field, (first.dim,), {k: field.from_int(scale * v) for k, v in a.items()})
    b = Tensor(field, (first.dim,), {k: field.from_int(v) for k, v in b.items()})
    return (first,) + spaces, a.outer(x), b.outer(y)


@settings(max_examples=40, deadline=None)
@given(cancelling_cases())
def test_multiply_sums_cancel_to_zero(case):
    spaces, x, y = case
    assert not naive_multiply(spaces, x, y).data
    out = multiply(spaces, x, y)
    assert out.data == {}


@st.composite
def padded_cases(draw):
    """A dense three-leg tensor with a unit leg inserted, the shape of
    ``embed_legs(Φ, (0, 1, 2))`` when the unit leg is last, so the leg with
    the most entries per leaf is not the last one; and a tensor to
    multiply it with."""
    field = draw(st.sampled_from([QQ, FP, BIG]))
    makers = draw(st.lists(st.sampled_from(LEG_ALGEBRAS), min_size=4, max_size=4))
    spaces = tuple(make(field) for make in makers)
    positions = draw(st.permutations(range(4)))[:3]
    inner = tuple(spaces[l].dim for l in positions)
    dense = ((1, -1, 2, -2, 3), (1, 3))
    padded = embed_legs(spaces, draw(field_tensors(field, inner, dense)), positions)
    other = draw(field_tensors(field, padded.dims))
    return spaces, padded, other


@settings(max_examples=60, deadline=None)
@given(padded_cases())
def test_multiply_with_a_padded_leg_matches_pair_loop(case):
    spaces, padded, other = case
    for x, y in ((other, padded), (padded, other), (padded, padded)):
        out = multiply(spaces, x, y)
        assert out == naive_multiply(spaces, x, y)
        assert_clean(x.field, out)


def test_densest_leg_moves_off_a_unit_padded_last_leg():
    H = h2(FP)
    sp4 = H.spaces(4)
    for positions, leg in (((0, 1, 2), 0), ((1, 2, 3), 3), ((0, 2, 3), 3)):
        y = embed_legs(sp4, H.reassoc, positions)
        leaves = len({k[:-1] for k in y.data})
        assert _densest_leg(y.data, y.dims, leaves) == leg
    # a single entry has one leaf on every leg: nothing is counted
    assert _densest_leg({(1, 0, 1): 1}, (2, 2, 2), 1) == 2


def all_minus_one_algebra(field, dim):
    """e_i e_j = -(e_0 + ... + e_{dim-1}) for all i, j: every structure
    constant is p - 1 over F_p, and every product has every term.  It is
    associative but has no unit, so it is not validated."""
    minus = -field.one
    table = {(i, j): {k: minus for k in range(dim)} for i in range(dim) for j in range(dim)}
    return FinAlgebra.from_table(field, dim, table, [field.one] + [field.zero] * (dim - 1),
                                 validate=False)


def worst_entry(field, k):
    """An entry of the worst-case slot tests, at index k on the packed
    leg: -1 over F_p, the residue p - 1; over Q ±(2^31 - 1)/3 of sign
    (-1)^k, so that negative output slots sit next to positive ones."""
    if field == QQ:
        return field.div_int((-1) ** k * (2 ** 31 - 1), 3)
    return -field.one


@pytest.mark.parametrize("prime", [FP, BIG, QQ], ids=["fp10007", "mersenne31", "q"])
@pytest.mark.parametrize("lead_dims", [(), (2,), (3, 2), (2, 2, 2)])
def test_multiply_worst_case_slot_sums(prime, lead_dims):
    # every entry p - 1 and every lead-leg structure constant p - 1; on the
    # packed leg (z2, constants 1) each slot of a packed leaf is p - 1, so
    # every output slot sums |x| * leaves terms of (p - 1)^(n + 1), which is
    # exactly the bound the slot width is derived from: any narrower slot
    # spills into its neighbour.  Over Q every lead-leg constant is -1 and
    # each output slot sums |x| * leaves terms of (2^31 - 1)^2 of one sign,
    # the sign alternating along the packed leg
    spaces = tuple(all_minus_one_algebra(prime, d) for d in lead_dims) + (z2_algebra(prime),)
    dims = tuple(s.dim for s in spaces)
    x = Tensor(prime, dims, {k: worst_entry(prime, k[-1]) for k in all_indices(dims)})
    out = multiply(spaces, x, x)
    assert out == naive_multiply(spaces, x, x)
    assert len(out.data) == len(x.data)
    assert_clean(prime, out)


@st.composite
def leg_subset_cases(draw):
    """A tensor on all legs, a factor on a random subset of them in a
    random order, and a second subset that covers the legs the first
    one misses."""
    field = draw(st.sampled_from([QQ, FP, BIG]))
    makers = draw(st.lists(st.sampled_from(LEG_ALGEBRAS), min_size=1, max_size=4))
    spaces = tuple(make(field) for make in makers)
    n = len(spaces)
    legs = tuple(draw(st.permutations(range(n)))[:draw(st.integers(1, n))])
    rest = [l for l in range(n) if l not in legs]
    cover = tuple(draw(st.permutations(rest + draw(st.lists(st.sampled_from(legs),
                                                            unique=True)))))
    if not cover:
        cover = legs[:1]
    dims = tuple(s.dim for s in spaces)

    def on(ls):
        return draw(field_tensors(field, tuple(dims[l] for l in ls)))

    return spaces, on(range(n)), legs, on(legs), cover, on(cover)


@settings(max_examples=80, deadline=None)
@given(leg_subset_cases())
def test_multiply_on_leg_subsets_matches_pair_loop(case):
    # a factor on some legs is the factor padded with units: the other
    # factor's index passes through the legs it does not have
    spaces, full, legs, part, cover, other = case
    padded = embed_legs(spaces, part, legs)
    for out, want in ((multiply(spaces, full, part, y_legs=legs),
                       naive_multiply(spaces, full, padded)),
                      (multiply(spaces, part, full, x_legs=legs),
                       naive_multiply(spaces, padded, full)),
                      (multiply(spaces, part, other, x_legs=legs, y_legs=cover),
                       naive_multiply(spaces, padded, embed_legs(spaces, other, cover)))):
        assert out == want
        assert_clean(full.field, out)


def test_multiply_on_leg_subsets_rejects_bad_legs():
    A = z2_algebra(FP)
    x = Tensor.basis(FP, (2, 2, 2), (1, 0, 1))
    f = Tensor.basis(FP, (2,), (1,))
    T = triangular_algebra(FP)
    for spaces, legs in (((A, A), (0,)), ((A, A, A), (0, 0)), ((A, A, A), (3,)),
                         ((A, A, A), ()), ((A, T, A), (1,))):
        with pytest.raises(ShapeMismatch):
            multiply(spaces, x if len(spaces) == 3 else f, f, y_legs=legs)
    with pytest.raises(ShapeMismatch, match="neither factor"):
        multiply((A, A, A), f, f, x_legs=(0,), y_legs=(2,))


@pytest.mark.parametrize("prime", [FP, BIG, QQ], ids=["fp10007", "mersenne31", "q"])
def test_multiply_worst_case_slot_sums_with_passed_legs(prime):
    # y lives on legs 1 and 3, so legs 0 and 2 pass x's index through; x
    # is 1 on both there, so every output slot sums all |x| * leaves terms,
    # each (p - 1)^(m + 1) with m = 2 the legs of y: one walked leg whose
    # structure constants are p - 1, the entry of x, and a slot of the
    # packed z2 leg.  That is the bound the slot width is derived from.
    # Over Q the slots alternate in sign along the packed leg 3.
    z2, wide = z2_algebra(prime), all_minus_one_algebra(prime, 2)
    spaces = (z2, wide, z2, z2)
    x = Tensor(prime, (2, 2, 2, 2), {(1, j, 1, k): worst_entry(prime, k)
                                     for j in range(2) for k in range(2)})
    y = Tensor(prime, (2, 2), {k: worst_entry(prime, k[1]) for k in all_indices((2, 2))})
    assert _densest_leg(y.data, y.dims, 2) == 1
    out = multiply(spaces, x, y, y_legs=(1, 3))
    assert out == naive_multiply(spaces, x, embed_legs(spaces, y, (1, 3)))
    assert len(out.data) == 4
    assert_clean(prime, out)


def test_multiply_noncommutative_leg(field):
    T = triangular_algebra(field)
    e11 = Tensor.basis(field, (3,), (0,))
    e12 = Tensor.basis(field, (3,), (1,))
    assert multiply((T,), e11, e12) == e12
    assert multiply((T,), e12, e11).data == {}


def test_multiply_rejects_mixed_fields():
    other = PrimeField(10009)
    A, B = z2_algebra(FP), z2_algebra(other)
    x = Tensor.basis(FP, (2,), (1,))
    with pytest.raises(ShapeMismatch):
        multiply((A,), x, Tensor.basis(other, (2,), (1,)))
    with pytest.raises(ShapeMismatch):
        multiply((A,), x, Tensor.basis(QQ, (2,), (1,)))
    with pytest.raises(ShapeMismatch):
        multiply((B,), x, x)


def test_apply_linear_map_rejects_mixed_fields():
    # raw residues of two fields must never be summed together
    x = Tensor.basis(FP, (2,), (1,))
    for other in (QQ, PrimeField(10009)):
        with pytest.raises(ShapeMismatch):
            apply_linear_map(LinMap.identity(other, (2,)), x, (0,))


# -- leg permutations of a linear map -------------------------------------------

@st.composite
def permuted_maps(draw):
    """A map between random tensor powers, with a permutation of its
    source legs and one of its target legs."""
    field = draw(st.sampled_from([QQ, FP]))
    src = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    dst = tuple(draw(st.lists(st.integers(1, 3), max_size=3)))
    cols = {idx: draw(field_tensors(field, dst)).data for idx in all_indices(src)}
    return (LinMap(field, src, dst, cols), tuple(draw(st.permutations(range(len(src))))),
            tuple(draw(st.permutations(range(len(dst))))))


@settings(max_examples=60, deadline=None)
@given(permuted_maps())
def test_permute_agrees_with_switch_legs(case):
    # column by column: a source permutation moves the column's index, a
    # target permutation switches the legs of the column itself
    m, p, q = case
    by_src, by_dst, both = m.permute(src=p), m.permute(dst=q), m.permute(src=p, dst=q)
    assert by_src.src == tuple(m.src[k] for k in p) and by_src.dst == m.dst
    assert by_dst.dst == tuple(m.dst[k] for k in q) and by_dst.src == m.src
    for idx in all_indices(m.src):
        moved = tuple(idx[k] for k in p)
        assert by_src.column(moved) == m.column(idx)
        assert by_dst.column(idx) == switch_legs(m.column(idx), q)
        assert both.column(moved) == switch_legs(m.column(idx), q)
    assert both == reference_permute(m, p, q)


def test_permute_moves_target_spaces_and_rejects_bad_permutations():
    A, B = z2_algebra(QQ), triangular_algebra(QQ)
    m = LinMap(QQ, (2, 3), (2, 3), {(1, 2): {(0, 1): QQ.one}}, dst_spaces=(A, B))
    assert m.permute(dst=(1, 0)).dst_spaces == (B, A)
    assert m.permute(src=(1, 0)).dst_spaces == (A, B)
    assert m.permute(src=(1, 0), dst=(1, 0)).cols == {(2, 1): {(1, 0): QQ.one}}
    for bad in [(0,), (0, 0), (1, 2), (0, 1, 2)]:
        with pytest.raises(ShapeMismatch):
            m.permute(src=bad)
        with pytest.raises(ShapeMismatch):
            m.permute(dst=bad)


# -- the tensor form of a linear map -------------------------------------------

def sparse_tensors(field, dims):
    """Up to six entries at random indices of ``dims``, some of them 0."""
    coeff = st.tuples(st.sampled_from(SMALL_COEFFS[0]), st.sampled_from(SMALL_COEFFS[1]))
    index = st.tuples(*[st.integers(0, d - 1) for d in dims])
    return st.dictionaries(index, coeff, max_size=6).map(
        lambda data: Tensor(field, dims, {k: field.div_int(n, d) for k, (n, d) in data.items()}))


@st.composite
def sparse_maps(draw, field=None, src=None):
    """A map between random tensor powers, either of them possibly the
    scalars (); some source basis vectors have an empty column, and the
    target spaces are recorded or not."""
    field = field or draw(st.sampled_from([QQ, FP]))
    if src is None:
        src = tuple(draw(st.lists(st.integers(1, 3), max_size=3)))
    dst = tuple(draw(st.lists(st.integers(1, 3), max_size=3)))
    cols = {idx: draw(sparse_tensors(field, dst)).data for idx in all_indices(src)}
    spaces = draw(st.sampled_from([None, tuple("V%d" % k for k in range(len(dst)))]))
    return LinMap(field, src, dst, cols, spaces)


@settings(max_examples=60, deadline=None)
@given(sparse_maps())
def test_tensor_form_roundtrip(m):
    t = m.as_tensor()
    assert t.dims == m.src + m.dst
    assert len(t.data) == sum(len(img) for img in m.cols.values())
    back = LinMap.from_tensor(t, len(m.src), m.dst_spaces)
    assert back == m and back.dst_spaces == m.dst_spaces
    for idx in all_indices(m.src):
        assert back.column(idx) == m.column(idx)


def test_tensor_form_of_maps_into_and_from_the_scalars():
    H = h2(QQ)
    eps = H.counit.as_tensor()
    assert eps.dims == (2,) and LinMap.from_tensor(eps, 1) == H.counit
    unit_map = LinMap.from_tensor(H.alg.unit, 0)
    assert unit_map.src == () and unit_map.column(()) == H.alg.unit
    zero = LinMap(QQ, (2, 3), (), {})
    assert not zero.as_tensor().data and LinMap.from_tensor(zero.as_tensor(), 2) == zero


@st.composite
def paired_leg_cases(draw):
    """A tensor, some of whose legs are fused (d1, d2) pairs, and those legs."""
    field = draw(st.sampled_from([QQ, FP]))
    d1, d2 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    n = draw(st.integers(0, 3))
    legs = draw(st.sets(st.integers(0, n - 1))) if n else set()
    dims = tuple(d1 * d2 if l in legs else draw(st.integers(1, 3)) for l in range(n))
    return draw(sparse_tensors(field, dims)), tuple(sorted(legs)), d1, d2


def split_switch_fuse(x, legs, d1, d2):
    """Each listed leg split into its (d1, d2) pair, the pair switched
    and fused back."""
    split = x
    for l in reversed(legs):
        split = split.split(l, (d1, d2))
    perm, groups = [], []
    for l in range(x.arity):
        k = len(perm)
        perm += [k + 1, k] if l in legs else [k]
        groups.append(list(range(k, len(perm))))
    return switch_legs(split, perm).fuse(groups)


@settings(max_examples=60, deadline=None)
@given(paired_leg_cases())
def test_swap_factors_is_split_switch_fuse_and_an_involution(case):
    x, legs, d1, d2 = case
    out = swap_factors(x, legs, d1, d2)
    assert out == split_switch_fuse(x, legs, d1, d2)
    assert swap_factors(out, legs, d2, d1) == x


def test_swap_factors_rejects_a_leg_that_is_no_pair():
    with pytest.raises(ShapeMismatch):
        swap_factors(Tensor(QQ, (6, 5)), (1,), 2, 3)


@settings(max_examples=60, deadline=None)
@given(sparse_maps(), st.data())
def test_to_matrix_and_from_matrix_are_inverse(m, data):
    mat = m.to_matrix()
    assert mat == reference_to_matrix(m)
    assert LinMap.from_matrix(m.field, m.src, m.dst, mat) == m
    field = m.field
    rows, cols = len(mat), len(mat[0])
    entries = data.draw(st.lists(st.sampled_from([0, 0, 1, -2, 5]),
                                 min_size=rows * cols, max_size=rows * cols))
    other = [[field.from_int(entries[r * cols + c]) for c in range(cols)] for r in range(rows)]
    assert LinMap.from_matrix(field, m.src, m.dst, other).to_matrix() == other


@st.composite
def composable_maps(draw):
    before = draw(sparse_maps())
    return draw(sparse_maps(field=before.field, src=before.dst)), before


@settings(max_examples=60, deadline=None)
@given(composable_maps())
def test_compose_matches_the_column_loop(case):
    after, before = case
    out = after.compose(before)
    assert out == reference_compose(after, before)
    assert out.dst_spaces == after.dst_spaces


def test_compose_through_the_scalars():
    # h -> eps(h) 1 passes through a map into the scalars and one out of them
    H = h2(QQ)
    unit_map = LinMap.from_tensor(H.alg.unit, 0)
    assert unit_map.compose(H.counit) == reference_compose(unit_map, H.counit)
    assert H.counit.compose(unit_map).column(()) == Tensor.scalar(QQ, QQ.one)
    with pytest.raises(ShapeMismatch):
        H.comult.compose(H.comult)


@st.composite
def interleave_cases(draw):
    field = draw(st.sampled_from([QQ, FP]))
    n = draw(st.integers(0, 3))
    dx, dy = (tuple(draw(st.integers(1, 3)) for _ in range(n)) for _ in range(2))
    return draw(sparse_tensors(field, dx)), draw(sparse_tensors(field, dy))


@settings(max_examples=60, deadline=None)
@given(interleave_cases())
def test_interleave_matches_the_pair_loop(case):
    x, y = case
    assert interleave(x, y) == reference_interleave(x, y)


# -- the leg-map kernel against the per-entry loop ------------------------------

@st.composite
def map_cases(draw):
    """A map on a random subset of legs, listed in random order, with up
    to two target legs, and a tensor to apply it to; over Q the
    coefficients are small or have large coprime denominators."""
    field, coeffs = draw(st.sampled_from([(QQ, SMALL_COEFFS), (FP, SMALL_COEFFS),
                                          (QQ, COPRIME_COEFFS)]))
    dims = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)))
    order = draw(st.permutations(range(len(dims))))
    legs = tuple(order[:draw(st.integers(1, len(dims)))])
    src = tuple(dims[l] for l in legs)
    dst = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    cols = {idx: draw(field_tensors(field, dst, coeffs)).data for idx in all_indices(src)}
    return LinMap(field, src, dst, cols), draw(field_tensors(field, dims, coeffs)), legs


def check_every_slot(m, x, legs):
    for at in [None] + list(range(x.arity - len(legs) + 1)):
        out = apply_linear_map(m, x, legs, at=at)
        assert out == naive_apply_linear_map(m, x, legs, at)
        assert_clean(x.field, out)


@settings(max_examples=80, deadline=None)
@given(map_cases())
def test_apply_linear_map_matches_entry_loop(case):
    check_every_slot(*case)


@settings(max_examples=40, deadline=None)
@given(map_cases(), st.data())
def test_derived_maps_apply_like_the_entry_loop(case, data):
    # permute and compose build new maps, each with its own raw columns:
    # neither may read the cache of the map it came from; rebind keeps the
    # same columns and so shares the cache
    m, x, legs = case
    field = m.field
    apply_linear_map(m, x, legs)  # fills m's cache first
    p = data.draw(st.permutations(range(len(legs))))
    q = data.draw(st.permutations(range(len(m.dst))))
    dst = tuple(data.draw(st.lists(st.integers(1, 3), max_size=2)))
    coeffs = data.draw(st.sampled_from([SMALL_COEFFS, COPRIME_COEFFS] if field == QQ
                                       else [SMALL_COEFFS]))
    after = LinMap(field, m.dst, dst, {idx: data.draw(field_tensors(field, dst, coeffs)).data
                                       for idx in all_indices(m.dst)})
    by_src = m.permute(src=p)
    moved = tuple(legs[k] for k in p)
    assert apply_linear_map(by_src, x, moved, at=0) == apply_linear_map(m, x, legs, at=0)
    for d, d_legs in ((by_src, moved), (m.permute(dst=q), legs), (after.compose(m), legs)):
        check_every_slot(d, x, d_legs)
        assert d._raw is not m._raw
    rebound = m.rebind(None)
    check_every_slot(rebound, x, legs)
    assert rebound._raw is m._raw


@st.composite
def cancelling_map_cases(draw):
    """x gets an extra leg u = c (e_0 + e_1) at a random position, and the
    map reads it as one more source leg, sending (s, 0) to m(s) and (s, 1)
    to -m(s): every output sum cancels; over F_p the residue sums are
    nonzero multiples of p."""
    m, x, legs = draw(map_cases())
    field = x.field
    c = field.from_int(draw(st.sampled_from([1, -1, 5])))
    pos = draw(st.integers(0, x.arity))
    order = list(range(x.arity))
    order.insert(pos, x.arity)
    x = switch_legs(x.outer(Tensor(field, (2,), {(0,): c, (1,): c})), order)
    legs = tuple(l if l < pos else l + 1 for l in legs)
    k = draw(st.integers(0, len(legs)))
    legs = legs[:k] + (pos,) + legs[k:]
    cols = {}
    for idx in all_indices(m.src[:k] + (2,) + m.src[k:]):
        img = m.cols.get(idx[:k] + idx[k + 1:], {})
        cols[idx] = {j: -v if idx[k] else v for j, v in img.items()}
    return LinMap(field, m.src[:k] + (2,) + m.src[k:], m.dst, cols), x, legs


@settings(max_examples=40, deadline=None)
@given(cancelling_map_cases())
def test_apply_linear_map_sums_cancel_to_zero(case):
    m, x, legs = case
    assert not naive_apply_linear_map(m, x, legs).data
    check_every_slot(m, x, legs)


def test_kernels_do_no_fp_element_arithmetic(monkeypatch):
    # both kernels sum raw residues and build each output value once
    H = h2(FP)
    spaces = H.spaces(3)
    x = H.reassoc + H.reassoc_inv.scale(FP.from_int(-3))
    y = embed_legs(spaces, H.comult.column((1,)), (2, 0))
    sp4 = H.spaces(4)
    padded = embed_legs(sp4, x, (0, 1, 2))
    other = embed_legs(sp4, x, (1, 2, 3)) + embed_legs(sp4, y, (3, 0, 1))
    assert _densest_leg(padded.data, padded.dims, len(padded.data)) == 0
    calls = []
    for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
        def counted(self, other, original=getattr(FpElement, name)):
            calls.append(other)
            return original(self, other)
        monkeypatch.setattr(FpElement, name, counted)
    assert multiply(spaces, x, y).data
    assert multiply(spaces, x, x).data
    # the packed path with its leg moved off the unit-padded last leg
    moved = multiply(sp4, other, padded)
    assert multiply((), Tensor.scalar(FP, FP.from_int(2)),
                    Tensor.scalar(FP, FP.from_int(3))).get(()) == 6
    assert apply_linear_map(H.comult, x, (1,), at=0).data
    assert apply_linear_map(H.counit, x, (2,)).data
    assert apply_linear_map(H.alg.mult, x, (2, 0)).data
    assert calls == []
    monkeypatch.undo()
    assert moved.data and moved == naive_multiply(sp4, other, padded)


def test_leg_kernel_does_no_fraction_arithmetic(monkeypatch):
    # over Q the leg kernel sums integer numerators over one denominator
    # per tensor and per map, and only constructs each output entry
    H = h2(QQ)
    x = H.reassoc + H.reassoc_inv.scale(QQ.div_int(-3, 7))
    coprime = LinMap(QQ, (2,), (2, 2), {(0,): {(0, 1): QQ.div_int(3, 11)},
                                        (1,): {(1, 1): QQ.div_int(10007, 13),
                                               (0, 0): QQ.div_int(-1, 7)}})
    cases = ((H.comult, (1,), 0), (H.counit, (2,), None), (H.alg.mult, (2, 0), None),
             (coprime, (1,), None))
    calls = []
    for name in ("__add__", "__radd__", "__mul__", "__rmul__", "__sub__", "__rsub__",
                 "__truediv__", "__rtruediv__"):
        def counted(self, other, original=getattr(Fraction, name)):
            calls.append(other)
            return original(self, other)
        monkeypatch.setattr(Fraction, name, counted)
    outs = [apply_linear_map(m, x, legs, at) for m, legs, at in cases]
    assert calls == []
    monkeypatch.undo()
    for out, (m, legs, at) in zip(outs, cases):
        assert out.data and out == naive_apply_linear_map(m, x, legs, at)
        assert_clean(QQ, out)


def coprime_algebra():
    """k[g]/(g^2 + 3/77) on the basis e0 = (3/11)·1, e1 = g: structure
    constants 3/11 and -1/7, of coprime denominators, unit (11/3) e0."""
    a, b = QQ.div_int(3, 11), QQ.div_int(-1, 7)
    table = {(0, 0): {0: a}, (0, 1): {1: a}, (1, 0): {1: a}, (1, 1): {0: b}}
    return FinAlgebra.from_table(QQ, 2, table, [QQ.div_int(11, 3), QQ.zero])


def test_q_multiply_does_no_fraction_arithmetic(monkeypatch):
    # over Q multiply sums integer numerators, x and y each over its own
    # denominator and the structure constants over their algebra's den,
    # and only constructs each nonzero output entry
    H = h2(QQ)
    spaces = H.spaces(3)
    x = H.reassoc + H.reassoc_inv.scale(QQ.div_int(-3, 7))
    f = H.comult.column((1,)).scale(QQ.div_int(5, 6))
    y = embed_legs(spaces, f, (2, 0))
    C = coprime_algebra()
    mixed = (C, H.alg, C)
    u = Tensor(QQ, (2, 2, 2), {(0, 1, 1): QQ.div_int(2, 5), (1, 0, 1): QQ.div_int(-7, 3),
                               (1, 1, 0): QQ.one, (1, 1, 1): QQ.div_int(4, 13)})
    # (1 + g)(1 - g) = 1 - g^2 = 0 in kZ2: every output sum cancels
    plus = Tensor(QQ, (2, 2), {(0, 1): QQ.div_int(1, 3), (1, 1): QQ.div_int(1, 3)})
    minus = Tensor(QQ, (2, 2), {(0, 0): QQ.div_int(3, 5), (1, 0): QQ.div_int(-3, 5)})
    half, third = Tensor.scalar(QQ, QQ.div_int(3, 4)), Tensor.scalar(QQ, QQ.div_int(-2, 9))
    # (spaces, x, y, x_legs, y_legs), the reference product of the
    # unit-padded factors, and whether the product is nonzero
    cases = [((spaces, x, y, None, None), naive_multiply(spaces, x, y), True),
             ((spaces, x, f, None, (2, 0)), naive_multiply(spaces, x, y), True),
             ((spaces, f, x, (2, 0), None), naive_multiply(spaces, y, x), True),
             ((spaces, f, f, (0, 1), (1, 2)),
              naive_multiply(spaces, embed_legs(spaces, f, (0, 1)),
                             embed_legs(spaces, f, (1, 2))), True),
             ((mixed, u, u, None, None), naive_multiply(mixed, u, u), True),
             ((mixed, u, minus, None, (1, 2)),
              naive_multiply(mixed, u, embed_legs(mixed, minus, (1, 2))), True),
             ((mixed, minus, u, (1, 2), None),
              naive_multiply(mixed, embed_legs(mixed, minus, (1, 2)), u), True),
             (((H.alg, H.alg), plus, minus, None, None),
              naive_multiply((H.alg, H.alg), plus, minus), False),
             (((), half, third, None, None), naive_multiply((), half, third), True)]
    calls = []
    for name in ("__add__", "__radd__", "__mul__", "__rmul__", "__sub__", "__rsub__",
                 "__truediv__", "__rtruediv__"):
        def counted(self, other, original=getattr(Fraction, name)):
            calls.append(other)
            return original(self, other)
        monkeypatch.setattr(Fraction, name, counted)
    outs = [multiply(sp, a, b, x_legs=xl, y_legs=yl) for (sp, a, b, xl, yl), _, _ in cases]
    assert calls == []
    monkeypatch.undo()
    for out, (_, want, nonzero) in zip(outs, cases):
        assert bool(out.data) is nonzero and out == want
        assert_clean(QQ, out)
    assert outs[-1].get(()) == QQ.div_int(-1, 6)


def test_act_legwise_leaves_a_none_leg_as_it_is(field):
    # over Sweedler's algebra, which is not commutative, with spectators
    # of other dimensions at legs 1 and 3: each basis target gives the
    # result on its two acted legs with its spectator indices in place
    H = sweedler(field)
    acts = [(H.alg.mult, True), None, (H.alg.mult, False), None]
    x = H.comult.column((2,)) + H.comult.column((3,)).scale(field.from_int(3))
    nonzero = 0
    for idx in all_indices((4, 3, 4, 2)):
        got = act_legwise(x, Tensor.basis(field, (4, 3, 4, 2), idx), acts)
        acted = act_legwise(x, Tensor.basis(field, (4, 4), (idx[0], idx[2])),
                            [acts[0], acts[2]])
        spectators = Tensor.basis(field, (3, 2), (idx[1], idx[3]))
        assert got == switch_legs(acted.outer(spectators), (0, 2, 1, 3))
        nonzero += bool(got.data)
    assert nonzero


def test_act_legwise_wants_one_element_leg_per_acted_leg(field):
    H = h2(field)
    act = (H.alg.mult, True)
    target = Tensor.basis(field, (2, 2, 2), (0, 1, 1))
    for element, actions in ((H.reassoc, [act, None, act]), (H.alg.unit, [act, act, None]),
                             (H.alg.unit, [act, None])):
        with pytest.raises(ShapeMismatch):
            act_legwise(element, target, actions)
