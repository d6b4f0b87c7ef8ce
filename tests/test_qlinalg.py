"""Exact linear algebra layer: frozen examples and algebraic properties."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from floersplit.errors import InvarianceViolation
from floersplit.qlinalg import (
    Matrix,
    RunningSpan,
    Subspace,
    _pivot_coordinates,
    image_basis,
    induced_on_quotient,
    intersect,
    kernel_basis,
    quotient,
    restrict,
    rref,
    solve,
    trace,
)

from helpers import (
    above_2_100,
    contains,
    dense_kernel_basis,
    dense_matmul,
    dense_rref,
    dense_solve,
    mat,
    sparse_scalars,
    vector_sequences,
)


# -- strategies ------------------------------------------------------

entries = st.integers(min_value=-4, max_value=4)


def matrices(max_dim=4):
    return st.tuples(
        st.integers(0, max_dim), st.integers(0, max_dim)
    ).flatmap(
        lambda shape: st.lists(
            st.lists(entries, min_size=shape[1], max_size=shape[1]),
            min_size=shape[0], max_size=shape[0],
        ).map(lambda rows: Matrix.from_rows(rows, cols=shape[1]))
    )


def subspaces(ambient=4):
    return st.lists(
        st.lists(entries, min_size=ambient, max_size=ambient), min_size=0, max_size=ambient
    ).map(lambda cols: Subspace.span(ambient, Matrix.from_rows(cols, cols=ambient).transpose()))


# -- scalars -----------------------------------------------------------


def test_constructors_refuse_floats_and_bools():
    for bad in (0.1, 1.0, True):
        with pytest.raises(TypeError):
            Matrix.from_rows([[bad]])
        with pytest.raises(TypeError):
            Matrix.column([1, bad])
        with pytest.raises(TypeError):
            Matrix.identity(2).scale(bad)
    assert Matrix.from_rows([["1/3", 2]]).entries[0][0].denominator == 3


# -- products ----------------------------------------------------------

def sparse_block(rows, cols):
    return st.lists(
        st.lists(sparse_scalars, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    ).map(lambda r: Matrix.from_rows(r, cols=cols))


def sparse_pair(shape):
    n, k, m = shape
    return st.tuples(sparse_block(n, k), sparse_block(k, m))


def product_pairs(max_dim=5):
    return st.tuples(*[st.integers(0, max_dim)] * 3).flatmap(sparse_pair)


@settings(max_examples=150, deadline=None)
@given(product_pairs())
def test_matmul_equals_dense_reference(ab):
    a, b = ab
    got = a @ b
    assert got == dense_matmul(a, b)
    assert (got.rows, got.cols) == (a.rows, b.cols)
    assert all(type(x) is Fraction for r in got.entries for x in r)


# A product scales each operand by the lcm of its denominators: draw
# operands that are integral or not, independently, with three in four
# entries zero, numerators small or above 2**100, and denominators that
# are large and pairwise coprime, so the two scales are large and distinct.
coprime_denominators = st.sampled_from([1, 2, 7, 2**61 - 1, 3**40, 5**27])
scaled_numerators = st.one_of(st.integers(-4, 4), above_2_100, above_2_100.map(lambda p: -p))


def scaled_block(rows, cols, integral):
    denominators = st.just(1) if integral else coprime_denominators
    scalar = st.tuples(st.integers(0, 3), scaled_numerators, denominators).map(
        lambda t: Fraction(t[1], t[2]) if t[0] == 0 else 0
    )
    return st.lists(
        st.lists(scalar, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    ).map(lambda r: Matrix.from_rows(r, cols=cols))


@st.composite
def scaled_pairs(draw, max_dim=5):
    n, k, m = (draw(st.integers(0, max_dim)) for _ in range(3))
    left_integral, right_integral = draw(st.booleans()), draw(st.booleans())
    return draw(scaled_block(n, k, left_integral)), draw(scaled_block(k, m, right_integral))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(scaled_pairs())
def test_integer_scaled_matmul_equals_dense_reference(ab):
    a, b = ab
    got = a @ b
    assert got == dense_matmul(a, b)
    assert (got.rows, got.cols) == (a.rows, b.cols)
    for x in (x for r in got.entries for x in r):
        assert type(x) is Fraction
        assert x.denominator > 0 and math.gcd(x.numerator, x.denominator) == 1


def test_matmul_empty_shapes():
    assert Matrix.zeros(0, 3) @ Matrix.identity(3) == Matrix.zeros(0, 3)
    assert Matrix.identity(3) @ Matrix.zeros(3, 0) == Matrix.zeros(3, 0)
    inner_empty = Matrix.zeros(3, 0) @ Matrix.zeros(0, 2)
    assert inner_empty == Matrix.zeros(3, 2) == dense_matmul(Matrix.zeros(3, 0), Matrix.zeros(0, 2))
    assert all(type(x) is Fraction and x == 0 for r in inner_empty.entries for x in r)


def test_matmul_huge_entries():
    big = Fraction(2**101 + 1, 2**103 - 1)
    a = mat([[big, 0], [0, -big]])
    b = mat([[big, 1], [0, big]])
    assert a @ b == dense_matmul(a, b) == mat([[big * big, big], [0, -big * big]])


def test_matmul_shape_mismatch():
    with pytest.raises(ValueError):
        Matrix.zeros(2, 3) @ Matrix.zeros(2, 3)
    with pytest.raises(ValueError):
        Matrix.zeros(0, 1) @ Matrix.zeros(0, 1)


# -- rref --------------------------------------------------------------


def test_rref_identity():
    ech, pivots, rank = rref(Matrix.identity(3))
    assert ech == Matrix.identity(3) and pivots == (0, 1, 2) and rank == 3


def test_rref_zero():
    ech, pivots, rank = rref(Matrix.zeros(2, 2))
    assert ech == Matrix.zeros(2, 2) and pivots == () and rank == 0


def test_rref_rank_one():
    ech, pivots, rank = rref(mat([[1, 2], [2, 4]]))
    assert ech == mat([[1, 2], [0, 0]]) and pivots == (0,) and rank == 1


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rref_idempotent_and_shape(m):
    ech, pivots, rank = rref(m)
    assert rref(ech).echelon == ech
    assert rank == len(pivots) <= min(m.rows, m.cols)


def sparse_matrices(max_rows=6, max_cols=7):
    """Mostly-zero matrices of every shape, 0 x n and n x 0 included."""
    return st.tuples(st.integers(0, max_rows), st.integers(0, max_cols)).flatmap(
        lambda shape: sparse_block(*shape)
    )


def rank_deficient(max_dim=6):
    """A product through an inner dimension of at most 2 with its first
    row repeated, so the rank falls short of both outer dimensions."""
    def repeat_first_row(ab):
        p = ab[0] @ ab[1]
        return p.vstack(Matrix(1, p.cols, p.entries[:1]))

    return st.tuples(
        st.integers(3, max_dim), st.integers(0, 2), st.integers(3, max_dim)
    ).flatmap(sparse_pair).map(repeat_first_row)


def _assert_matches_dense_rref(m):
    got, want = rref(m), dense_rref(m)
    assert got.echelon == want.echelon
    assert got.pivots == want.pivots and got.rank == want.rank
    assert (got.echelon.rows, got.echelon.cols) == (m.rows, m.cols)
    assert all(type(x) is Fraction for r in got.echelon.entries for x in r)


@settings(max_examples=200, deadline=None)
@given(st.one_of(sparse_matrices(), rank_deficient()))
def test_rref_equals_dense_reference(m):
    _assert_matches_dense_rref(m)


def test_rref_empty_and_rank_deficient_shapes():
    big = Fraction(2**101 + 1, 2**103 - 1)
    for m in (
        Matrix.zeros(0, 4), Matrix.zeros(4, 0), Matrix.zeros(0, 0), Matrix.zeros(3, 5),
        mat([[0, big, 0, 1], [0, 2 * big, 0, 2], [0, 0, 0, 0]]),
        mat([[0, 0, Fraction(1, 3)], [big, 0, 0], [big, 0, Fraction(2, 3)]]),
    ):
        _assert_matches_dense_rref(m)


@settings(max_examples=150, deadline=None)
@given(st.one_of(sparse_matrices(), rank_deficient()))
def test_kernel_equals_dense_reference(m):
    got = kernel_basis(m)
    assert got == dense_kernel_basis(m)
    assert all(type(x) is Fraction for r in got.basis.entries for x in r)


# -- running span --------------------------------------------------------


def _stacked_rows(dim, vectors):
    return Matrix(len(vectors), dim, tuple(vectors))


@settings(max_examples=200, deadline=None)
@given(vector_sequences(), st.data())
def test_running_span_equals_stacked_elimination(seq, data):
    """Each step against the added vectors stacked: ``coordinates`` equals
    ``dense_solve`` on them as columns (None included), ``add`` is True exactly
    when the rank grows, the rows are the reference RREF's nonzero rows, and
    ``kernel`` is the reference kernel of the stack."""
    dim, vectors = seq
    span = RunningSpan(dim)
    for n, v in enumerate(vectors + [None]):
        before = _stacked_rows(dim, vectors[:n])
        probe = v if v is not None else tuple(data.draw(st.lists(sparse_scalars, min_size=dim, max_size=dim)))
        x = dense_solve(before.transpose(), Matrix(dim, 1, tuple((e,) for e in probe)))
        got = span.coordinates(probe)
        if x is None:
            assert got is None
        else:
            assert [got.get(i, 0) for i in range(n)] == list(x.col(0))
            assert all(type(c) is Fraction for c in got.values())
            rebuilt = [sum((c * vectors[i][j] for i, c in got.items()), Fraction(0)) for j in range(dim)]
            assert rebuilt == list(probe)
        if v is None:
            break
        grew = span.add(n, v)
        ref = dense_rref(_stacked_rows(dim, vectors[: n + 1]))
        assert grew == (ref.rank > dense_rref(before).rank)
        assert span.rank == ref.rank
        assert span.rows == Matrix(ref.rank, dim, ref.echelon.entries[: ref.rank])
        assert all(type(e) is Fraction for r in span.rows.entries for e in r)
        assert span.subspace() == Subspace.span(dim, _stacked_rows(dim, vectors[: n + 1]).transpose())
        kernel = span.kernel()
        assert kernel == dense_kernel_basis(_stacked_rows(dim, vectors[: n + 1]))
        assert all(type(e) is Fraction for r in kernel.basis.entries for e in r)


def test_running_span_small_cases():
    empty = RunningSpan(0)
    assert not empty.add("a", ()) and empty.rank == 0 and empty.coordinates(()) == {}
    assert empty.rows == Matrix.zeros(0, 0) and empty.subspace() == Subspace.zero(0)
    big = Fraction(2**101 + 1, 2**103 - 1)
    span = RunningSpan(3)
    assert span.coordinates((Fraction(1), Fraction(0), Fraction(0))) is None
    assert span.add("u", (Fraction(0), big, 2 * big))
    assert not span.add("again", (Fraction(0), -big, -2 * big))
    assert span.add("w", (Fraction(1, 3), Fraction(1), Fraction(0)))
    assert span.rank == 2
    assert span.rows == mat([[1, 0, -6], [0, 1, 2]])
    assert span.coordinates((Fraction(1, 3), 1 + big, 2 * big)) == {"u": 1, "w": 1}
    assert span.coordinates((Fraction(0), Fraction(0), Fraction(1))) is None
    with pytest.raises(ValueError):
        span.add("short", (Fraction(1),))


# -- kernel / image ----------------------------------------------------


def test_kernel_injective():
    assert kernel_basis(Matrix.identity(2)).dim == 0


def test_kernel_zero_map():
    k = kernel_basis(Matrix.zeros(1, 3))
    assert k == Subspace.full(3)


def test_kernel_one_equation():
    k = kernel_basis(mat([[1, 2]]))
    assert k == Subspace.span(2, Matrix.from_rows([[-2, 1]], cols=2).transpose())
    assert k.dim == 1


def test_image_identity():
    assert image_basis(Matrix.identity(2)) == Subspace.full(2)


def test_image_zero():
    assert image_basis(Matrix.zeros(3, 2)) == Subspace.zero(3)


def test_image_dependent_columns():
    im = image_basis(Matrix.from_rows([[1, 1], [2, 2]], cols=2).transpose())
    assert im == Subspace.span(2, Matrix.from_rows([[1, 1]], cols=2).transpose())
    assert im.dim == 1


@settings(max_examples=80, deadline=None)
@given(matrices())
def test_rank_nullity(m):
    assert kernel_basis(m).dim + image_basis(m).dim == m.cols


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_kernel_really_annihilates(m):
    k = kernel_basis(m)
    assert (m @ k.basis).is_zero


# -- canonical form ----------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(subspaces(), st.randoms(use_true_random=False))
def test_canonical_under_permuted_generators(s, rng):
    cols = list(s.basis.transpose().entries)
    rng.shuffle(cols)
    # throw in a random combination of the generators as well
    if cols:
        extra = [sum(c) for c in zip(*[[x * (i + 1) for x in col] for i, col in enumerate(cols)])]
        cols.append(extra)
    again = Subspace.span(s.ambient_dim, Matrix.from_rows(cols, cols=s.ambient_dim).transpose())
    assert again == s


# -- intersect -----------------------------------------------------------


def test_intersect_with_full_space():
    b = Subspace.span(3, Matrix.from_rows([[1, 2, 0]], cols=3).transpose())
    assert intersect(Subspace.full(3), b) == b


def test_intersect_transverse_lines():
    a = Subspace.span(2, Matrix.from_rows([[1, 0]], cols=2).transpose())
    b = Subspace.span(2, Matrix.from_rows([[1, 1]], cols=2).transpose())
    assert intersect(a, b) == Subspace.zero(2)


def test_intersect_coordinate_planes():
    e = Matrix.identity(4).entries
    a = Subspace.span(4, Matrix.from_rows([e[0], e[1]], cols=4).transpose())
    b = Subspace.span(4, Matrix.from_rows([e[1], e[2]], cols=4).transpose())
    assert intersect(a, b) == Subspace.span(4, Matrix.from_rows([e[1]], cols=4).transpose())


def test_intersect_dimension_mismatch():
    with pytest.raises(ValueError):
        intersect(Subspace.full(2), Subspace.full(3))


@settings(max_examples=40, deadline=None)
@given(subspaces(), subspaces())
def test_intersect_commutative(a, b):
    assert intersect(a, b) == intersect(b, a)


@settings(max_examples=30, deadline=None)
@given(subspaces(), subspaces(), subspaces())
def test_intersect_associative(a, b, c):
    assert intersect(intersect(a, b), c) == intersect(a, intersect(b, c))


@settings(max_examples=40, deadline=None)
@given(subspaces())
def test_intersect_idempotent(a):
    assert intersect(a, a) == a


# -- quotient ------------------------------------------------------------


def test_quotient_by_zero_subspace():
    q = quotient(3, Subspace.zero(3))
    assert q.projection == Matrix.identity(3)
    assert q.section == Matrix.identity(3)


def test_quotient_by_everything():
    q = quotient(3, Subspace.full(3))
    assert q.dim == 0


def test_quotient_section_hits_nonpivot_coordinates():
    e = Matrix.identity(4).entries
    s = Subspace.span(4, Matrix.from_rows([e[0], e[2]], cols=4).transpose())
    q = quotient(4, s)
    assert q.dim == 2
    assert q.section.col(0) == (0, 1, 0, 0)
    assert q.section.col(1) == (0, 0, 0, 1)


@settings(max_examples=60, deadline=None)
@given(subspaces())
def test_quotient_round_trip_and_kernel(s):
    q = quotient(s.ambient_dim, s)
    assert q.projection @ q.section == Matrix.identity(q.dim)
    assert (q.projection @ s.basis).is_zero
    assert q.dim == s.ambient_dim - s.dim


# -- restrict / induced ----------------------------------------------------


def test_restrict_identity():
    s = Subspace.span(3, Matrix.from_rows([[1, 0, 2], [0, 1, 1]], cols=3).transpose())
    assert restrict(Matrix.identity(3), s) == Matrix.identity(2)


def test_restrict_scalar():
    s = Subspace.span(3, Matrix.from_rows([[1, 0, 0]], cols=3).transpose())
    assert restrict(Matrix.identity(3).scale(2), s) == mat([[2]])


def test_restrict_shear():
    s = Subspace.span(2, Matrix.from_rows([[1, 0]], cols=2).transpose())
    assert restrict(mat([[1, 1], [0, 1]]), s) == mat([[1]])


def test_restrict_detects_non_invariance():
    s = Subspace.span(2, Matrix.from_rows([[1, 0]], cols=2).transpose())
    swap = mat([[0, 1], [1, 0]])
    with pytest.raises(InvarianceViolation):
        restrict(swap, s)


def test_induced_identity():
    s = Subspace.span(2, Matrix.from_rows([[1, 1]], cols=2).transpose())
    q = quotient(2, s)
    assert induced_on_quotient(Matrix.identity(2), q) == Matrix.identity(1)


def test_induced_minus_identity():
    q = quotient(2, Subspace.span(2, Matrix.from_rows([[1, 0]], cols=2).transpose()))
    assert induced_on_quotient(Matrix.identity(2).scale(-1), q) == mat([[-1]])


def test_induced_swap_mod_diagonal():
    q = quotient(2, Subspace.span(2, Matrix.from_rows([[1, 1]], cols=2).transpose()))
    assert induced_on_quotient(mat([[0, 1], [1, 0]]), q) == mat([[-1]])


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 5).flatmap(lambda n: st.tuples(sparse_block(n, n), sparse_block(n, n + 1))))
def test_quotient_by_zero_equals_the_dense_product(maps):
    """A quotient by zero returns f without a product; it must still equal
    the dense projection . f . section, and a misshapen f is still refused."""
    f, wide = maps
    n = f.rows
    q = quotient(n, Subspace.zero(n))
    assert induced_on_quotient(f, q) == dense_matmul(dense_matmul(q.projection, f), q.section)
    for bad in (wide, wide.transpose(), Matrix.identity(n + 1)):
        with pytest.raises(ValueError, match="f must be square on the ambient space"):
            induced_on_quotient(bad, q)


@settings(max_examples=200, deadline=None)
@given(vector_sequences(max_dim=5, max_count=5), st.data())
def test_solve_and_subspace_reads_equal_dense_solve(seq, data):
    """``solve``, and the pivot-row reads ``_pivot_coordinates`` behind
    ``restrict`` and the quotient's invariance check, agree with
    ``dense_solve`` (as does the test helper ``contains``): on mostly-zero
    data with entries above 2^100, on inconsistent systems, on maps that
    leave the subspace not invariant, and in dimension 0."""
    dim, gens = seq
    a = Matrix.from_rows([list(v) for v in gens], cols=dim).transpose()
    k = data.draw(st.integers(0, 3))
    b = dense_matmul(a, data.draw(sparse_block(a.cols, k)))
    if data.draw(st.booleans()):
        b = b + data.draw(sparse_block(dim, k))  # mostly inconsistent
    assert solve(a, b) == dense_solve(a, b)

    s = Subspace.span(dim, a)
    want = dense_solve(s.basis, b)
    assert _pivot_coordinates(s, b) == want
    assert contains(s, Subspace.span(dim, b)) == (want is not None)

    q = quotient(dim, s)
    f = data.draw(sparse_block(dim, dim))
    if data.draw(st.booleans()):
        # the projection kills s, so basis @ X + Y @ projection maps s into s
        x, y = data.draw(st.tuples(sparse_block(s.dim, dim), sparse_block(dim, q.dim)))
        f = dense_matmul(s.basis, x) + dense_matmul(y, q.projection)
    want = dense_solve(s.basis, dense_matmul(f, s.basis))
    if want is None:
        with pytest.raises(InvarianceViolation):
            restrict(f, s)
        with pytest.raises(InvarianceViolation):
            induced_on_quotient(f, q)
    else:
        assert restrict(f, s) == want
        assert induced_on_quotient(f, q) == dense_matmul(dense_matmul(q.projection, f), q.section)


# -- trace ---------------------------------------------------------------


def test_trace_identity():
    assert trace(Matrix.identity(5)) == 5


def test_trace_empty():
    assert trace(Matrix.identity(0)) == 0


def test_trace_by_definition():
    assert trace(mat([[1, 5], [7, 3]])) == 4


def test_trace_non_square():
    with pytest.raises(ValueError):
        trace(Matrix.zeros(2, 3))


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n),
        st.lists(st.lists(entries, min_size=n, max_size=n), min_size=0, max_size=n),
    )
))
def test_trace_additivity_over_invariant_subspace(data):
    """trace(f) = trace(f on S) + trace(f on ambient/S) when f(S) <= S.

    This additivity is the algebraic engine behind every tower step, so
    it gets its own property: build S from random vectors, then force
    invariance by replacing f with f + projection of f onto S-columns.
    """
    rows, gens = data
    n = len(rows)
    f = Matrix.from_rows(rows, cols=n)
    s = Subspace.span(n, Matrix.from_rows(gens, cols=n).transpose()) if gens else Subspace.zero(n)
    q = quotient(n, s)
    # make S invariant: zero out the quotient-visible part of f(S)
    if s.dim:
        correction = q.section @ q.projection @ f @ s.basis  # ambient x dim S
        coords = s.pivot_rows()
        adjust = Matrix.zeros(n, n)
        for j, p in enumerate(coords):
            col = correction.col(j)
            adjust = adjust + Matrix.from_rows(
                [[col[i] if c == p else 0 for c in range(n)] for i in range(n)], cols=n
            )
        f = f - adjust
        assert solve(s.basis, f @ s.basis) is not None
    assert trace(f) == trace(restrict(f, s)) + trace(induced_on_quotient(f, q))
