"""Graded spaces, cohomology, induced maps, Lefschetz numbers, regrading."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from floersplit.errors import NotAChainMap, ValidationError
from floersplit.graded import (
    CochainComplex,
    CohomologyResult,
    GradedMap,
    GradedSpace,
    cohomology,
    euler,
    induced_map,
    lefschetz,
    regrade,
)
from floersplit.qlinalg import Matrix

from helpers import (
    blocks_map,
    compose,
    contains,
    graded_space,
    is_zero_map,
    mat,
    random_chain_selfmap,
    random_split_complex,
    two_term_complex,
    zero_map,
    zero_space,
)

dims_strategy = st.lists(st.integers(0, 3), min_size=8, max_size=8).map(GradedSpace.of)


# -- complexes and cohomology -----------------------------------------


def test_zero_differential_cohomology_is_the_space():
    space = graded_space(1, 1, 1, 1, 1, 1, 1, 1)
    cx = CochainComplex(space, zero_map(space, 1))
    assert cohomology(cx).h_space == space


def test_acyclic_two_term():
    space = graded_space(0, 1, 1, 0, 0, 0, 0, 0)
    cx = CochainComplex(space, blocks_map(space, 1, {1: mat([[1]])}))
    assert cohomology(cx).h_space == zero_space()


def test_two_term_with_survivor():
    coh = cohomology(two_term_complex())
    assert coh.h_space.dims == (0, 1, 0, 0, 0, 0, 0, 0)


def test_d_squared_enforced():
    space = graded_space(0, 1, 1, 1, 0, 0, 0, 0)
    d = blocks_map(space, 1, {1: mat([[1]]), 2: mat([[1]])})
    with pytest.raises(ValidationError):
        CochainComplex(space, d)


def test_wrong_shift_rejected():
    space = graded_space(1, 1, 1, 1, 1, 1, 1, 1)
    with pytest.raises(ValidationError):
        CochainComplex(space, zero_map(space, 2))


def test_cohomology_result_invariants():
    rng = random.Random(11)
    for _ in range(10):
        cx, a, h = random_split_complex(rng)
        coh = cohomology(cx)
        assert coh.h_space.dims == tuple(h)
        for q in range(8):
            assert contains(coh.cocycles[q], coh.coboundaries[q])
            assert coh.h_space.dim(q) == coh.cocycles[q].dim - coh.coboundaries[q].dim
            lhs = coh.class_projection[q] @ coh.rep_section[q]
            assert lhs == Matrix.identity(coh.h_space.dim(q))
            # representatives really are cocycles
            assert (cx.d.block(q) @ coh.rep_section[q]).is_zero



def test_rep_section_equals_the_cocycle_basis_times_the_section():
    """Each representative section is Z^q's basis times the quotient's
    section, the product it is read off without."""
    rng = random.Random(23)
    both = 0
    for _ in range(40):
        cx, _, _ = random_split_complex(rng)
        coh = cohomology(cx)
        for q in range(8):
            qs = coh.quotients[q]
            assert coh.rep_section[q] == coh.cocycles[q].basis @ qs.section
            both += qs.subspace.dim > 0 and qs.dim > 0
    assert both > 20


# -- induced maps -------------------------------------------------------


def test_induced_identity():
    cx = two_term_complex()
    coh = cohomology(cx)
    ind = induced_map(GradedMap.identity(cx.space), coh, coh)
    assert ind == GradedMap.identity(coh.h_space)


def test_induced_zero():
    cx = two_term_complex()
    coh = cohomology(cx)
    ind = induced_map(zero_map(cx.space), coh, coh)
    assert is_zero_map(ind)


def test_induced_diagonal_example():
    cx = two_term_complex()
    coh = cohomology(cx)
    f = blocks_map(cx.space, 0, {1: mat([[1, 0], [0, 3]]), 2: mat([[1]])})
    ind = induced_map(f, coh, coh)
    assert ind.block(1) == mat([[3]])


def test_not_a_chain_map():
    cx = two_term_complex()
    coh = cohomology(cx)
    f = blocks_map(cx.space, 0, {1: mat([[1, 0], [0, 3]]), 2: mat([[2]])})
    with pytest.raises(NotAChainMap):
        induced_map(f, coh, coh)


def test_induced_independent_of_representative_section():
    """Adding coboundary corrections to the section leaves the induced
    matrix literally unchanged."""
    rng = random.Random(5)
    for _ in range(10):
        cx, a, h = random_split_complex(rng)
        coh = cohomology(cx)
        f = random_chain_selfmap(rng, cx, a, h)
        base = induced_map(f, coh, coh)
        new_secs = []
        for q in range(8):
            cob = coh.coboundaries[q]
            corr = Matrix.from_rows(
                [
                    [rng.randint(-2, 2) for _ in range(coh.h_space.dim(q))]
                    for _ in range(cob.dim)
                ],
                cols=coh.h_space.dim(q),
            )
            new_secs.append(coh.rep_section[q] + cob.basis @ corr)
        perturbed = CohomologyResult(
            coh.complex, coh.h_space, coh.cocycles, coh.coboundaries,
            tuple(new_secs), coh.class_projection, coh.quotients,
        )
        assert induced_map(f, perturbed, coh) == base


def test_functoriality():
    rng = random.Random(7)
    for _ in range(10):
        cx, a, h = random_split_complex(rng)
        coh = cohomology(cx)
        f = random_chain_selfmap(rng, cx, a, h)
        g = random_chain_selfmap(rng, cx, a, h)
        lhs = induced_map(compose(g, f), coh, coh)
        rhs = compose(induced_map(g, coh, coh), induced_map(f, coh, coh))
        assert lhs == rhs


# -- lefschetz / euler ----------------------------------------------------


def _pm_identity_map(dims, plus_degrees, minus_degrees):
    space = GradedSpace.of(dims)
    blocks = {}
    for q in plus_degrees:
        blocks[q] = Matrix.identity(space.dim(q))
    for q in minus_degrees:
        blocks[q] = Matrix.identity(space.dim(q)).scale(-1)
    return blocks_map(space, 0, blocks)


def test_lefschetz_mapping_torus_values():
    w = _pm_identity_map((0, 4, 0, 2, 0, 4, 0, 2), (1, 5), (3, 7))
    assert lefschetz(w) == -4
    w_hat = _pm_identity_map((0, 2, 0, 2, 0, 2, 0, 2), (1, 5), (3, 7))
    assert lefschetz(w_hat) == 0


def test_lefschetz_identity_alternating_cancel():
    space = graded_space(1, 1, 1, 1, 1, 1, 1, 1)
    assert lefschetz(GradedMap.identity(space)) == 0


def test_euler_values():
    assert euler(graded_space(0, 4, 0, 2, 0, 4, 0, 2)) == -12
    assert euler(graded_space(0, 2, 0, 2, 0, 2, 0, 2)) == -8
    assert euler(zero_space()) == 0


@settings(max_examples=60, deadline=None)
@given(dims_strategy)
def test_lefschetz_of_identity_is_euler(space):
    assert lefschetz(GradedMap.identity(space)) == euler(space)


# -- regrade ----------------------------------------------------------------


def test_regrade_dims_example():
    s = graded_space(0, 4, 0, 2, 0, 4, 0, 2)
    assert regrade(s).dims == (4, 0, 2, 0, 4, 0, 2, 0)


@settings(max_examples=60, deadline=None)
@given(dims_strategy)
def test_regrade_involution_and_euler_negation(space):
    assert regrade(regrade(space)) == space
    assert euler(regrade(space)) == -euler(space)


def test_regrade_negates_lefschetz_example():
    w = _pm_identity_map((0, 4, 0, 2, 0, 4, 0, 2), (1, 5), (3, 7))
    assert lefschetz(regrade(w)) == 4 == -lefschetz(w)


def test_regrade_map_involution_random():
    rng = random.Random(3)
    for _ in range(10):
        cx, a, h = random_split_complex(rng)
        f = random_chain_selfmap(rng, cx, a, h)
        assert regrade(regrade(f)) == f
        assert lefschetz(regrade(f)) == -lefschetz(f)


def test_regrade_carries_shift():
    space = graded_space(1, 1, 1, 1, 1, 1, 1, 1)
    d = zero_map(space, 1)
    assert regrade(d).shift == 7
    v = zero_map(space, 4)
    assert regrade(v).shift == 4
