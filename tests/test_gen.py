"""Generator: determinism, soundness, planted-coefficient round trips,
coverage, chain-level planting, and cobordism redraws."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from floersplit import gen
from floersplit.cobordism import (
    reduced_induced,
    trace_towers,
    validate_relations,
    verify_splitting,
)
from floersplit.errors import ValidationError
from floersplit.froyshov import MAX_N_MAX, Case, reduced
from floersplit.gen import (
    MAX_GEN_DIM,
    GenConfig,
    gen_chain_instance,
    gen_instance,
)
from floersplit.graded import GradedSpace, cohomology, euler
from floersplit.qlinalg import Matrix, Subspace, rref
from floersplit.serialize import MAX_DIM, document_to_instance, dumps

from helpers import (
    coefficients,
    contains,
    dense_matmul,
    gen_at_upper_end,
    is_zero_map,
    oracle_cohomology_dims,
    oracle_family_on_cocycles,
    product_cobordism,
    redraw_cobordism,
    sparse_scalars,
    word_matrices,
    zero_space,
)


def test_config_validation():
    with pytest.raises(ValidationError):
        GenConfig(seed=1, max_dim=-1)
    with pytest.raises(ValidationError):
        GenConfig(seed=1, n_max=0)
    with pytest.raises(ValidationError):
        GenConfig(seed=1, case_mix=(0.0, 0.0, 0.0))
    for max_dim in (MAX_GEN_DIM + 1, 10**6, 10**30):
        with pytest.raises(ValidationError, match=f"past {MAX_GEN_DIM}"):
            GenConfig(seed=1, max_dim=max_dim)
    GenConfig(seed=1, max_dim=MAX_GEN_DIM)
    # a float dimension or seed, a string, a bool and no seed at all
    # (which would seed from OS entropy) are refused
    non_ints = (
        ("max_dim", 2.5), ("n_max", 2.5), ("max_dim", "3"), ("n_max", True),
        ("seed", None), ("seed", 1.5), ("seed", False),
    )
    for name, value in non_ints:
        with pytest.raises(ValidationError, match=f"{name} must be an int, not {type(value).__name__}"):
            GenConfig(**{"seed": 1, name: value})


@pytest.mark.parametrize(
    "mix",
    [(float("nan"), 1.0, 1.0), (float("inf"), 1.0, 1.0), (1e308, 1e308, 1e308), (10**400, 1, 1)],
    ids=["nan", "inf", "infinite-total", "int-past-float"],
)
def test_config_refuses_non_finite_case_mix(mix):
    with pytest.raises(ValidationError, match="finite weights with a finite total"):
        GenConfig(seed=1, case_mix=mix)


def test_config_refuses_documents_past_the_n_max_cap():
    """The largest n_max a config can emit counts the chain-level Krylov
    extension (2 (max_dim + 2) members) and the periodic odd n_max; the
    configs right at the cap emit documents that load."""
    at_cap = (
        dict(n_max=MAX_N_MAX, max_dim=2),
        dict(n_max=MAX_N_MAX - 1, max_dim=2, periodic=True),
        dict(n_max=MAX_N_MAX - 4, max_dim=0, chain_level=True),
    )
    past_cap = (
        dict(n_max=MAX_N_MAX + 1),
        dict(n_max=MAX_N_MAX, periodic=True),
        dict(n_max=MAX_N_MAX - 3, max_dim=0, chain_level=True),
        dict(n_max=MAX_N_MAX - 15, max_dim=6, chain_level=True),
    )
    for kwargs in past_cap:
        with pytest.raises(ValidationError, match=f"past {MAX_N_MAX}"):
            GenConfig(seed=1, **kwargs)
    for kwargs in at_cap:
        inst = gen_instance(GenConfig(seed=3, **kwargs))
        assert inst.pair.n_max <= MAX_N_MAX
        assert document_to_instance(json.loads(dumps(inst))) == inst


def test_generator_dimensions_stay_under_the_document_cap(monkeypatch):
    """With every dimension draw at its upper end and max_dim at its cap,
    the spaces a generated document lists (hf, or chain-level cf) stay
    within serialize.MAX_DIM, so verify reads whatever sweep dumps."""
    seen = []

    class Drawn(Exception):
        pass

    class UpperEnd(random.Random):
        def randint(self, a, b):
            return b

    class StopAtFirstSpace:
        @staticmethod
        def of(dims):
            seen.append(tuple(dims))
            raise Drawn

    monkeypatch.setattr(gen.random, "Random", UpperEnd)
    monkeypatch.setattr(gen, "GradedSpace", StopAtFirstSpace)
    for chain_level in (False, True):
        with pytest.raises(Drawn):
            gen_instance(GenConfig(seed=1, max_dim=MAX_GEN_DIM, chain_level=chain_level))
    hf, cf = seen
    assert hf == (MAX_GEN_DIM,) * 8
    assert cf == (MAX_DIM,) * 8  # a[q] + a[q-1] + h[q] at the upper end, exactly the cap


def test_determinism_bit_identical():
    for seed in (1, 17, 230):
        a = gen_instance(GenConfig(seed=seed))
        b = gen_instance(GenConfig(seed=seed))
        assert a == b
        assert dumps(a) == dumps(b)
    a = gen_chain_instance(GenConfig(seed=5, chain_level=True))
    b = gen_chain_instance(GenConfig(seed=5, chain_level=True))
    assert a == b and dumps(a) == dumps(b)


def test_soundness_over_seed_range():
    for seed in range(1, 61):
        inst = gen_instance(GenConfig(seed=seed))
        report = validate_relations(inst.w, inst.pair)
        assert report.ok
        red = reduced(inst.space, inst.pair)  # checks B inside Z
        reduced_induced(inst.w, red)  # checks invariance


def test_empty_instance():
    inst = gen_instance(GenConfig(seed=3, max_dim=0))
    assert inst.space == zero_space()
    v = verify_splitting(inst, with_trace=True)
    assert v.passed and v.h_y == 0


def test_both_zero_reduces_to_nothing():
    inst = gen_instance(GenConfig(seed=8, case_mix=(0, 0, 1)))
    assert inst.pair.case is Case.BOTH_ZERO
    red = reduced(inst.space, inst.pair)
    assert red.hf_red == inst.space
    v = verify_splitting(inst)
    assert v.h_y == 0 and v.lef_w == v.lef_w_hat and v.lambda_fo == -v.lef_w / 2


def _lower_members_independent(pair, n):
    rows = [pair.deltas[i] for i in range(n % 2, n, 2)]
    if pair.case is Case.DELTA_PRIME_SIDE:
        rows = [pair.deltas_prime[i].transpose() for i in range(n % 2, n, 2)]
    if not rows:
        return True
    stacked = rows[0]
    for r in rows[1:]:
        stacked = stacked.vstack(r)
    return rref(stacked).rank == len(rows)


def test_planted_coefficients_recovered():
    checked = 0
    for seed in range(1, 120):
        inst = gen_instance(GenConfig(seed=seed))
        report = validate_relations(inst.w, inst.pair)
        planted = inst.metadata["planted_a"] + inst.metadata["planted_b"]
        table = {**report.a} if inst.pair.case is Case.DELTA_SIDE else {**report.b}
        for i, n, c in planted:
            if _lower_members_independent(inst.pair, n):
                assert table[(i, n)] == c, (seed, i, n)
                checked += 1
    assert checked > 100


def test_coverage_cases_and_tower_depth():
    cases = set()
    deep = 0
    for seed in range(1, 201):
        inst = gen_instance(GenConfig(seed=seed))
        cases.add(inst.pair.case)
        tr = trace_towers(inst)
        if any(sum(1 for s in t.steps if s.active) >= 2 for t in tr.towers):
            deep += 1
    assert cases == {Case.DELTA_SIDE, Case.DELTA_PRIME_SIDE, Case.BOTH_ZERO}
    assert deep >= 1


def test_periodic_instances_mirror():
    for seed in range(1, 21):
        inst = gen_instance(GenConfig(seed=seed, periodic=True))
        dims = inst.space.dims
        assert dims[:4] == dims[4:]
        for q in range(4):
            assert inst.w.block(q) == inst.w.block(q + 4)
        red = reduced(inst.space, inst.pair)
        assert red.hf_red.dims[:4] == red.hf_red.dims[4:]
        assert verify_splitting(inst).passed


# -- chain level -------------------------------------------------------------


def test_chain_periodic_instances_mirror():
    for seed in range(1, 11):
        inst = gen_instance(GenConfig(seed=seed, chain_level=True, periodic=True))
        dims = inst.space.dims
        assert dims[:4] == dims[4:]
        for q in range(4):
            assert inst.w.block(q) == inst.w.block(q + 4)
        red = reduced(inst.space, inst.pair)
        assert red.hf_red.dims[:4] == red.hf_red.dims[4:]
        assert verify_splitting(inst).passed


def test_chain_planted_dims_and_oracle():
    for seed in range(1, 21):
        inst = gen_chain_instance(GenConfig(seed=seed, chain_level=True))
        planted = tuple(inst.metadata["planted_h_dims"])
        assert inst.space.dims == planted
        assert oracle_cohomology_dims(inst.complex) == planted


def test_chain_induced_family_matches_oracle():
    from floersplit.froyshov import delta_degree, delta_prime_degree

    for seed in (2, 9, 14):
        inst = gen_chain_instance(GenConfig(seed=seed, chain_level=True))
        cx, cs = inst.complex, inst.chain_special
        coh = cohomology(cx)
        for n in range(inst.pair.n_max + 1):
            fun, vec = oracle_family_on_cocycles(cx, cs.delta, cs.delta_prime, cs.v, n)
            deg = delta_degree(n)
            classes = coh.class_projection[deg] @ coh.cocycles[deg].basis
            assert inst.pair.deltas[n] @ classes == fun
            pdeg = delta_prime_degree(n)
            lift = coh.rep_section[pdeg] @ inst.pair.deltas_prime[n]
            diff = lift - vec
            if not diff.is_zero:
                assert contains(coh.coboundaries[pdeg], Subspace.span(diff.rows, diff))


def test_chain_zero_boundary_degenerates():
    # with no acyclic part the complex has zero differential and the
    # instance is its own cohomology
    inst = gen_chain_instance(GenConfig(seed=4, chain_level=True, max_dim=1))
    if is_zero_map(inst.complex.d):
        assert inst.space == inst.complex.space


def test_chain_soundness():
    for seed in range(1, 21):
        inst = gen_chain_instance(GenConfig(seed=seed, chain_level=True))
        assert validate_relations(inst.w, inst.pair).ok
        assert verify_splitting(inst).passed


@pytest.mark.parametrize("max_dim", [6, 8])
@pytest.mark.parametrize(
    "mode",
    [{}, {"periodic": True}, {"chain_level": True}, {"chain_level": True, "periodic": True}],
    ids=["default", "periodic", "chain-level", "chain-level-periodic"],
)
def test_generator_at_the_upper_end_of_every_dimension_draw(mode, max_dim):
    """The relations hold by construction also where every block is as
    large as the config allows; the consumer's checks pass there."""
    for seed in (1, 2):
        inst = gen_at_upper_end(GenConfig(seed=seed, max_dim=max_dim, **mode))
        if mode.get("chain_level"):
            assert inst.metadata["planted_h_dims"] == [max_dim] * 8
            assert inst.complex.space.dims == (2 * (max_dim // 2) + max_dim,) * 8
        else:
            assert inst.space.dims == (max_dim,) * 8
        assert validate_relations(inst.w, inst.pair).ok
        verdict = verify_splitting(inst, with_trace=True)
        assert verdict.passed
        assert verdict.refinement.ok


# -- product and redraw ---------------------------------------------------------


def test_product_cobordism_on_sigma():
    from floersplit import catalog

    inst = product_cobordism(catalog.load_entry("sigma_2_7_13_mapping_torus"))
    v = verify_splitting(inst)
    assert v.h_x == v.h_y == 2
    assert v.passed


def test_product_cobordism_on_empty():
    inst = product_cobordism(gen_instance(GenConfig(seed=3, max_dim=0)))
    assert verify_splitting(inst).passed


def test_product_cobordism_lambda_is_half_euler():
    for seed in range(1, 21):
        inst = product_cobordism(gen_instance(GenConfig(seed=seed)))
        v = verify_splitting(inst)
        assert v.passed
        # cohomology-view report: Lef(id) equals the Euler characteristic
        assert v.lef_w == euler(inst.space)
        assert v.lambda_fo == -Fraction(euler(inst.space), 2)


def test_redraw_cobordism_keeps_invariants():
    for seed in (5, 23, 77):
        inst = gen_instance(GenConfig(seed=seed))
        base = verify_splitting(inst).h_x
        for wseed in range(3):
            other = redraw_cobordism(inst, wseed)
            assert other.pair == inst.pair and other.space == inst.space
            v = verify_splitting(other)
            assert v.passed
            assert v.h_x == base == v.h_y


def test_redraw_on_chain_instance_serializes():
    from floersplit.serialize import document_to_instance, instance_to_document

    inst = gen_chain_instance(GenConfig(seed=2, chain_level=True))
    other = redraw_cobordism(inst, 7)
    assert other.level == "cohomology-level" and other.complex is None
    assert document_to_instance(instance_to_document(other)) == other
    assert verify_splitting(other).passed


# -- change of basis ------------------------------------------------------------


@st.composite
def words(draw, n):
    """A change-of-basis word of Q^n: one drawn by the generator itself, or
    shears (nonzero c), swaps and negations in any order and number."""
    if draw(st.booleans()):
        return gen._unimodular(random.Random(draw(st.integers(0, 10**6))), n)
    if n == 0:
        return []

    def letter(kind, i, k, c):
        j = k + (k >= i)  # any index but i
        return {"shear": (i, j, c), "swap": (i, j, 0), "negate": (i, i, -1)}[kind]

    kinds = ["shear", "swap", "negate"] if n > 1 else ["negate"]
    letters = st.builds(
        letter, st.sampled_from(kinds), st.integers(0, n - 1), st.integers(0, max(n - 2, 0)),
        st.sampled_from([-2, -1, 1, 2]),
    )
    return draw(st.lists(letters, max_size=2 * n + 4))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_change_of_basis_word_is_invertible(data):
    n = data.draw(st.integers(0, 7))
    word = data.draw(words(n))
    p, p_inv = word_matrices(n, word)
    ident = Matrix.identity(n)
    assert dense_matmul(p_inv, p) == ident == dense_matmul(p, p_inv)
    # acting on the identity, the word gives P on rows and P^-1 on columns
    assert gen._change_basis(ident, word, []) == p
    assert gen._change_basis(ident, [], word) == p_inv


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_change_basis_equals_the_dense_conjugation(data):
    """P_t @ m @ P_s^-1 as row and column operations equals the two dense
    products, on blocks of any shape (0-dimensional degrees included), on
    the row and column vectors of the special data (an empty word on the
    vector's side) and on non-integral entries and entries above 2^100."""
    shape = data.draw(st.sampled_from(["block", "row", "column"]))
    rows = 1 if shape == "row" else data.draw(st.integers(0, 6))
    cols = 1 if shape == "column" else data.draw(st.integers(0, 6))
    target = [] if shape == "row" else data.draw(words(rows))
    source = [] if shape == "column" else data.draw(words(cols))
    entry = st.one_of(sparse_scalars, coefficients)
    m = Matrix.from_rows(
        data.draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows)),
        cols=cols,
    )
    p_t, _ = word_matrices(rows, target)
    _, p_s_inv = word_matrices(cols, source)
    assert gen._change_basis(m, target, source) == dense_matmul(dense_matmul(p_t, m), p_s_inv)
