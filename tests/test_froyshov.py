"""Special families, the dichotomy, reduced groups, and the invariant."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from floersplit.errors import DichotomyViolation, ValidationError
from floersplit.froyshov import (
    FAMILIES,
    Case,
    ChainSpecial,
    SpecialPair,
    b_subspaces,
    delta_degree,
    delta_prime_degree,
    froyshov_h,
    induce_special,
    reduced,
    tower,
    tower_members,
    z_subspaces,
)
from floersplit.graded import CochainComplex, GradedMap, cohomology
from floersplit.qlinalg import Matrix, Subspace, quotient

from helpers import (
    chain_special_for,
    contains,
    graded_space,
    mat,
    oracle_family_on_cocycles,
    random_split_complex,
    reference_tower,
    vector_sequences,
    zero_map,
)


def _pair(space, case, deltas=None, primes=None, n_max=3):
    ds = list(deltas or [])
    ps = list(primes or [])
    while len(ds) < n_max + 1:
        ds.append(Matrix.zeros(1, space.dim(delta_degree(len(ds)))))
    while len(ps) < n_max + 1:
        ps.append(Matrix.zeros(space.dim(delta_prime_degree(len(ps))), 1))
    return SpecialPair(n_max, tuple(ds), tuple(ps), case)


def _sigma_like_space():
    # internal-convention dims of the rank-(4,2) mapping-torus fixture
    return graded_space(4, 0, 2, 0, 4, 0, 2, 0)


def _sigma_like_pair(space):
    e1 = mat([[1, 0, 0, 0]])
    e2 = mat([[0, 1, 0, 0]])
    return _pair(space, Case.DELTA_SIDE, deltas=[e1, e1, e2, e2])


# -- type invariants -----------------------------------------------------


def test_pair_rejects_both_families_nonzero():
    space = graded_space(1, 1, 0, 0, 1, 0, 0, 0)
    with pytest.raises(DichotomyViolation):
        _pair(space, Case.DELTA_SIDE, deltas=[mat([[1]])], primes=[Matrix.column([1])], n_max=1)


def test_pair_rejects_mistagged_zero_case():
    space = graded_space(1, 1, 0, 0, 1, 0, 0, 0)
    with pytest.raises(ValidationError):
        _pair(space, Case.BOTH_ZERO, deltas=[mat([[1]])], n_max=1)


def test_pair_shape_validation():
    space = graded_space(1, 0, 0, 0, 2, 0, 0, 0)
    pair = _pair(space, Case.DELTA_SIDE, deltas=[mat([[1, 1]])], n_max=1)
    pair.validate_against(space)
    with pytest.raises(ValidationError):
        pair.validate_against(graded_space(1, 0, 0, 0, 3, 0, 0, 0))


# -- induce_special -------------------------------------------------------


def test_induce_both_zero():
    rng = random.Random(0)
    cx, a, h = random_split_complex(rng)
    cs = chain_special_for(rng, cx, a, h, delta_class_zero=True, prime_class_zero=True)
    pair = induce_special(cs, cohomology(cx), 2)
    assert pair.case is Case.BOTH_ZERO


def test_induce_delta_side_with_zero_v():
    space = graded_space(0, 0, 0, 0, 1, 0, 0, 0)
    cx = CochainComplex(space, zero_map(space, 1))
    cs = ChainSpecial(mat([[1]]), Matrix.zeros(0, 1), zero_map(space, 4))
    pair = induce_special(cs, cohomology(cx), 3)
    assert pair.case is Case.DELTA_SIDE
    assert not pair.deltas[0].is_zero
    assert all(pair.deltas[n].is_zero for n in range(1, pair.n_max + 1))


def test_induce_dichotomy_violation():
    space = graded_space(0, 1, 0, 0, 1, 0, 0, 0)
    cx = CochainComplex(space, zero_map(space, 1))
    cs = ChainSpecial(mat([[1]]), Matrix.column([1]), zero_map(space, 4))
    with pytest.raises(DichotomyViolation):
        induce_special(cs, cohomology(cx), 1)


def test_induce_rejects_non_chain_map_v():
    # CF has lines in degrees 1, 2, 5, 6; d is an isomorphism 1 -> 2 and
    # zero 5 -> 6, so a v with nonzero blocks 1 -> 5 and 2 -> 6 cannot
    # commute with d
    space = graded_space(0, 1, 1, 0, 0, 1, 1, 0)
    def one_at(degrees, shift):
        return GradedMap(
            space, space, shift,
            tuple(
                mat([[1]]) if q in degrees else Matrix.zeros(space.dim(q + shift), space.dim(q))
                for q in range(8)
            ),
        )
    cx = CochainComplex(space, one_at({1}, 1))
    v_bad = one_at({1, 2}, 4)
    cs = ChainSpecial(Matrix.zeros(1, 0), Matrix.column([0]), v_bad)
    with pytest.raises(ValidationError):
        induce_special(cs, cohomology(cx), 1)


def test_induce_matches_bruteforce_oracle():
    rng = random.Random(21)
    hits = 0
    for _ in range(25):
        cx, a, h = random_split_complex(rng)
        zero_d = rng.random() < 0.5
        cs = chain_special_for(rng, cx, a, h, delta_class_zero=zero_d, prime_class_zero=not zero_d)
        coh = cohomology(cx)
        pair = induce_special(cs, coh, 3)
        for n in range(pair.n_max + 1):
            oracle_fun, oracle_vec = oracle_family_on_cocycles(
                cx, cs.delta, cs.delta_prime, cs.v, n
            )
            deg = delta_degree(n)
            cocycle_classes = coh.class_projection[deg] @ coh.cocycles[deg].basis
            assert pair.deltas[n] @ cocycle_classes == oracle_fun
            pdeg = delta_prime_degree(n)
            lift = coh.rep_section[pdeg] @ pair.deltas_prime[n]
            diff = lift - oracle_vec
            if not diff.is_zero:
                assert contains(coh.coboundaries[pdeg], Subspace.span(diff.rows, diff))
            hits += 1
    assert hits > 50


def test_induce_extension_stabilizes():
    """Asking for a longer family never changes the carved subspaces."""
    rng = random.Random(33)
    for _ in range(10):
        cx, a, h = random_split_complex(rng)
        cs = chain_special_for(rng, cx, a, h, prime_class_zero=True)
        coh = cohomology(cx)
        pair = induce_special(cs, coh, 2)
        longer = induce_special(cs, coh, pair.n_max + 4)
        hs = coh.h_space
        assert z_subspaces(hs, pair) == z_subspaces(hs, longer)[:8]
        assert b_subspaces(hs, pair) == b_subspaces(hs, longer)[:8]


# -- Z and B subspaces ------------------------------------------------------


def test_z_subspaces_both_zero_full():
    space = graded_space(2, 1, 1, 1, 2, 1, 1, 1)
    pair = _pair(space, Case.BOTH_ZERO)
    z = z_subspaces(space, pair)
    assert all(z[q] == Subspace.full(space.dim(q)) for q in range(8))


def test_z_subspaces_sigma_fixture():
    space = _sigma_like_space()
    z = z_subspaces(space, _sigma_like_pair(space))
    e = Matrix.identity(4).entries
    want = Subspace.span(4, Matrix.from_rows([e[2], e[3]], cols=4).transpose())
    assert z[0] == want and z[0].dim == 2
    assert z[4] == want


def test_z_subspace_single_functional_on_line():
    space = graded_space(0, 0, 0, 0, 1, 0, 0, 0)
    pair = _pair(space, Case.DELTA_SIDE, deltas=[mat([[2]])], n_max=1)
    assert z_subspaces(space, pair)[4] == Subspace.zero(1)


def test_b_subspaces_both_zero():
    space = graded_space(1, 2, 1, 1, 1, 2, 1, 1)
    b = b_subspaces(space, _pair(space, Case.BOTH_ZERO))
    assert all(b[q].dim == 0 for q in range(8))


def test_b_subspace_full_line():
    space = graded_space(0, 1, 0, 0, 0, 0, 0, 0)
    pair = _pair(space, Case.DELTA_PRIME_SIDE, primes=[Matrix.column([1])], n_max=1)
    assert b_subspaces(space, pair)[1] == Subspace.full(1)


def test_b_subspace_rank_two():
    space = graded_space(0, 3, 0, 0, 0, 0, 0, 0)
    pair = _pair(
        space, Case.DELTA_PRIME_SIDE,
        primes=[
            Matrix.column([1, 0, 0]),
            Matrix.zeros(0, 1),
            Matrix.column([1, 1, 0]),
        ],
        n_max=2,
    )
    assert b_subspaces(space, pair)[1].dim == 2


def _random_member(rng, earlier, shape, kinds):
    """A zero, repeated, dependent or random member; ``kinds`` counts each."""
    kind = rng.choice(("zero", "repeat", "combination", "random"))
    if kind != "zero" and not earlier:
        kind = "random"
    kinds[kind] += 1
    if kind == "zero":
        return Matrix.zeros(*shape)
    if kind == "repeat":
        return rng.choice(earlier)
    if kind == "combination":
        out = Matrix.zeros(*shape)
        for m in rng.sample(earlier, min(len(earlier), 2)):
            out = out + m.scale(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        return out
    rows, cols = shape
    return Matrix.from_rows(
        [[Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(cols)] for _ in range(rows)], cols=cols
    )


def _last_stage(dim, q, members, start):
    stage = start(dim)
    for _, _, _, stage in tower(dim, q, members):
        pass
    return stage


def _random_pair(seed, kinds):
    """A seeded space and a pair of a random case, its active family drawn
    member by member with ``_random_member``."""
    rng = random.Random(seed)
    space = graded_space(*(rng.choice((0, 1, 2, 3, 4)) for _ in range(8)))
    n_max = rng.randint(0, 5)
    case = rng.choice(list(Case))
    by_degree = {q: [] for q in (0, 1, 4, 5)}
    families = {fam.key: [] for fam in FAMILIES}
    for n in range(n_max + 1):
        for fam in FAMILIES:
            shape = fam.shape(space.dim(fam.degree(n)))
            if case is fam.case:
                m = _random_member(rng, by_degree[fam.degree(n)], shape, kinds)
                by_degree[fam.degree(n)].append(m)
            else:
                m = Matrix.zeros(*shape)
            families[fam.key].append(m)
    return space, SpecialPair(n_max, tuple(families["deltas"]), tuple(families["deltas_prime"]), case)


def _kinds():
    return {"zero": 0, "repeat": 0, "combination": 0, "random": 0}


def test_z_and_b_equal_the_last_tower_stage_on_random_pairs():
    kinds = _kinds()
    cases, zero_dims, memberless = set(), 0, 0
    for seed in range(300):
        space, pair = _random_pair(seed, kinds)
        cases.add(pair.case)
        z, b = z_subspaces(space, pair), b_subspaces(space, pair)
        for q in range(8):
            members = tower_members(pair, q)
            memberless += q in (0, 1, 4, 5) and not members
            zero_dims += space.dim(q) == 0 and bool(members)
            if q in (0, 4):
                assert z[q] == _last_stage(space.dim(q), q, members, Subspace.full), (seed, q)
            else:
                assert z[q] == Subspace.full(space.dim(q)), (seed, q)
            if q in (1, 5):
                assert b[q] == _last_stage(space.dim(q), q, members, Subspace.zero), (seed, q)
            else:
                assert b[q] == Subspace.zero(space.dim(q)), (seed, q)
    # the seeds reach every case and every kind of member the ends must handle
    assert cases == set(Case)
    assert min(kinds.values()) > 50 and zero_dims > 50 and memberless > 0


@settings(max_examples=200, deadline=None)
@given(vector_sequences(), st.sampled_from((0, 1, 4, 5)))
def test_every_tower_stage_equals_the_intersect_walk(seq, q):
    """Each stage, previous and next, equals the walk that intersects a
    kernel or spans the basis and the member anew at every step."""
    dim, vectors = seq
    kernel = q in (0, 4)
    members = tuple(
        (n, Matrix(1, dim, (v,)) if kernel else Matrix(dim, 1, tuple((x,) for x in v)))
        for n, v in enumerate(vectors)
    )
    start = Subspace.full(dim) if kernel else Subspace.zero(dim)
    want = reference_tower(dim, q, members)
    walked = list(tower(dim, q, members))
    assert [(n, m) for n, m, _, _ in walked] == list(members)
    assert [nxt for _, _, _, nxt in walked] == want
    assert [prev for _, _, prev, _ in walked] == ([start] + want)[: len(want)]


# -- reduced -----------------------------------------------------------------


def test_reduced_both_zero_equals_unreduced():
    space = graded_space(1, 2, 0, 1, 1, 2, 0, 1)
    red = reduced(space, _pair(space, Case.BOTH_ZERO))
    assert red.hf_red == space


def test_reduced_sigma_fixture_dims():
    space = _sigma_like_space()
    red = reduced(space, _sigma_like_pair(space))
    assert red.hf_red.dims == (2, 0, 2, 0, 2, 0, 2, 0)


def test_reduced_full_rank_family_kills_even_degrees():
    space = graded_space(1, 0, 1, 0, 1, 0, 1, 0)
    pair = _pair(
        space, Case.DELTA_SIDE,
        deltas=[mat([[1]]), mat([[1]])], n_max=1,
    )
    red = reduced(space, pair)
    assert red.hf_red.dims == (0, 0, 1, 0, 0, 0, 1, 0)


def test_reduced_dim_identity_every_degree():
    space = _sigma_like_space()
    red = reduced(space, _sigma_like_pair(space))
    for q in range(8):
        assert red.hf_red.dim(q) == red.z[q].dim - red.b[q].dim


def test_untouched_degrees():
    space = graded_space(2, 2, 2, 2, 2, 2, 2, 2)
    e1 = mat([[1, 0]])
    pair_d = _pair(space, Case.DELTA_SIDE, deltas=[e1, e1], n_max=1)
    red_d = reduced(space, pair_d)
    for q in (1, 2, 3, 5, 6, 7):
        assert red_d.hf_red.dim(q) == space.dim(q)
    pair_p = _pair(space, Case.DELTA_PRIME_SIDE, primes=[Matrix.column([1, 0])], n_max=1)
    red_p = reduced(space, pair_p)
    for q in (0, 2, 3, 4, 6, 7):
        assert red_p.hf_red.dim(q) == space.dim(q)


def test_reduced_cuts_z_and_b_only_where_the_families_act():
    """Z^q is the whole space off degrees 0 and 4 and B^q is zero off 1 and
    5, so B^q lies in Z^q in every degree: where B^q is nonzero, Z^q is
    whole.  The reduced dimension is then dim Z^q - dim B^q, and each
    quotient equals the one built from B^q's coordinates in Z^q."""
    kinds = _kinds()
    cases = set()
    for seed in range(300):
        space, pair = _random_pair(seed, kinds)
        cases.add(pair.case)
        red = reduced(space, pair)
        for q in range(8):
            z, b = red.z[q], red.b[q]
            if q not in (0, 4):
                assert z == Subspace.full(space.dim(q)), (seed, q)
            if q not in (1, 5):
                assert b == Subspace.zero(space.dim(q)), (seed, q)
            assert contains(z, b), (seed, q)
            assert red.hf_red.dim(q) == z.dim - b.dim, (seed, q)
            oracle = quotient(z.dim, Subspace.span(z.dim, z.coordinates_of(b.basis)))
            assert red.quotients[q] == oracle, (seed, q)
    assert cases == set(Case) and min(kinds.values()) > 50


# -- froyshov_h ---------------------------------------------------------------


def test_h_sigma_fixture():
    space = _sigma_like_space()
    red = reduced(space, _sigma_like_pair(space))
    assert froyshov_h(space, red) == 2


def test_h_both_zero_is_zero():
    space = graded_space(3, 1, 4, 1, 5, 9, 2, 6)
    red = reduced(space, _pair(space, Case.BOTH_ZERO))
    assert froyshov_h(space, red) == 0


def test_h_cork_fixture():
    space = graded_space(1, 0, 1, 0, 1, 0, 1, 0)
    red = reduced(space, _pair(space, Case.BOTH_ZERO, n_max=1))
    assert froyshov_h(space, red) == 0


def test_h_sign_bookkeeping():
    """Functional side pushes h up by the Z-codimensions, vector side
    pulls it down by the B-dimensions."""
    space = graded_space(2, 2, 0, 0, 2, 2, 0, 0)
    e1 = mat([[1, 0]])
    pair_d = _pair(space, Case.DELTA_SIDE, deltas=[e1, e1], n_max=1)
    red_d = reduced(space, pair_d)
    codim0 = space.dim(0) - red_d.z[0].dim
    codim4 = space.dim(4) - red_d.z[4].dim
    assert froyshov_h(space, red_d) == Fraction(codim0 + codim4, 2) >= 0

    pair_p = _pair(
        space, Case.DELTA_PRIME_SIDE,
        primes=[Matrix.column([1, 0]), Matrix.column([0, 1])], n_max=1,
    )
    red_p = reduced(space, pair_p)
    assert froyshov_h(space, red_p) == -Fraction(red_p.b[1].dim + red_p.b[5].dim, 2) <= 0


def test_h_can_be_half_integral_off_periodicity():
    space = graded_space(1, 0, 0, 0, 0, 0, 0, 0)
    pair = _pair(space, Case.DELTA_SIDE, deltas=[Matrix.zeros(1, 0), mat([[1]])], n_max=1)
    red = reduced(space, pair)
    assert froyshov_h(space, red) == Fraction(1, 2)
