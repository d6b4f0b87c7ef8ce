"""Relations, induced maps on the reduced theory, verdicts, tower replays."""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import pytest

from floersplit import catalog
from floersplit.cobordism import (
    reduced_induced,
    trace_refinement,
    trace_towers,
    validate_relations,
    verify_splitting,
)
from floersplit.errors import (
    InvarianceViolation,
    NoSolution,
    RelationViolation,
    StepMismatch,
    TheoremCounterexample,
)
from floersplit.froyshov import Case, SpecialPair, derive_case, reduced
from floersplit.gen import GenConfig, gen_instance
from floersplit.graded import GradedMap, GradedSpace, lefschetz
from floersplit.instance import COHOMOLOGY, HOMOLOGY, Instance
from floersplit.qlinalg import Matrix

from helpers import blocks_map, graded_space, mat, perturb_w

from test_froyshov import _pair, _sigma_like_pair, _sigma_like_space


def _instance(space, pair, w, convention=COHOMOLOGY):
    return Instance(space=space, pair=pair, w=w, convention=convention)


# -- validate_relations ------------------------------------------------------


def test_relations_identity_all_zero_coefficients():
    space = _sigma_like_space()
    pair = _sigma_like_pair(space)
    report = validate_relations(GradedMap.identity(space), pair)
    assert report.ok
    assert all(c == 0 for c in report.a.values())
    assert all(c == 0 for c in report.b.values())
    assert report.a_integral and report.b_integral
    # coefficients exist exactly for the same-parity lower pairs
    assert set(report.a) == {(1, 3), (0, 2)}


def test_relations_sigma_fixture():
    inst = catalog.load_entry("sigma_2_7_13_mapping_torus")
    report = validate_relations(inst.w, inst.pair)
    assert report.ok and all(c == 0 for c in report.a.values())


def test_relation_violation_at_zero():
    space = graded_space(0, 0, 0, 0, 1, 0, 0, 0)
    pair = _pair(space, Case.DELTA_SIDE, deltas=[mat([[1]])], n_max=1)
    w = blocks_map(space, 0, {4: mat([[2]])})
    report = validate_relations(w, pair)
    assert not report.ok
    assert report.violations[0].relation == "delta" and report.violations[0].n == 0
    with pytest.raises(RelationViolation):
        report.raise_if_invalid()


def test_no_solution_for_member_one():
    # no lower odd member exists, so the first odd defect must vanish
    space = graded_space(1, 0, 0, 0, 0, 0, 0, 0)
    pair = _pair(space, Case.DELTA_SIDE, deltas=[Matrix.zeros(1, 0), mat([[1]])], n_max=1)
    w = blocks_map(space, 0, {0: mat([[2]])})
    report = validate_relations(w, pair)
    assert not report.ok
    with pytest.raises(NoSolution):
        report.raise_if_invalid()


def test_prime_relation_violation():
    space = graded_space(0, 1, 0, 0, 0, 0, 0, 0)
    pair = _pair(space, Case.DELTA_PRIME_SIDE, primes=[Matrix.column([1])], n_max=1)
    w = blocks_map(space, 0, {1: mat([[3]])})
    report = validate_relations(w, pair)
    assert not report.ok and report.violations[0].relation == "delta_prime"


def test_fractional_coefficient_reported():
    space = graded_space(0, 0, 0, 0, 2, 0, 0, 0)
    pair = _pair(
        space, Case.DELTA_SIDE,
        deltas=[mat([[2, 0]]), Matrix.zeros(1, 0), mat([[0, 1]])], n_max=2,
    )
    w = blocks_map(space, 0, {4: mat([[1, 0], [1, 1]])})
    report = validate_relations(w, pair)
    assert report.ok
    assert report.a[(0, 2)] == Fraction(1, 2)
    assert not report.a_integral


def test_nonuniqueness_flagged():
    space = graded_space(0, 0, 0, 0, 2, 0, 0, 0)
    pair = _pair(
        space, Case.DELTA_SIDE,
        deltas=[mat([[1, 0]]), Matrix.zeros(1, 0), mat([[2, 0]]),
                Matrix.zeros(1, 0), mat([[0, 0]])],
        n_max=4,
    )
    report = validate_relations(GradedMap.identity(space), pair)
    assert report.ok
    assert 4 in report.nonunique_a and 2 not in report.nonunique_a


def _mirror(w, sp):
    """The vector-side twin of a functional-side pair: delta'_n is
    delta_n transposed, and W' carries the transposes of W's blocks 4 and
    0 in degrees 1 and 5 (every other degree is zero-dimensional)."""
    dims = [0] * 8
    dims[1], dims[5] = w.source.dim(4), w.source.dim(0)
    space = GradedSpace.of(dims)
    blocks = [Matrix.zeros(d, d) for d in dims]
    blocks[1], blocks[5] = w.block(4).transpose(), w.block(0).transpose()
    primes = tuple(m.transpose() for m in sp.deltas)
    deltas = tuple(Matrix.zeros(1, 0) for _ in primes)
    pair = SpecialPair(sp.n_max, deltas, primes, derive_case(deltas, primes))
    return GradedMap(space, space, 0, tuple(blocks)), pair


def test_relations_mirror_under_transposition():
    cases = 0
    for kwargs in ({}, {"periodic": True}):
        for seed in range(1, 41):
            inst = gen_instance(GenConfig(seed=seed, **kwargs))
            if inst.pair.case is not Case.DELTA_SIDE:
                continue
            for w in (inst.w, perturb_w(inst.w, inst.pair, seed % 2)):
                rep = validate_relations(w, inst.pair)
                mir = validate_relations(*_mirror(w, inst.pair))
                assert mir.b == rep.a and mir.b_integral == rep.a_integral
                assert mir.nonunique_b == rep.nonunique_a
                assert [v.n for v in mir.violations] == [v.n for v in rep.violations]
                assert {v.relation for v in mir.violations} <= {"delta_prime"}
                assert [v.defect.transpose() for v in mir.violations] == [
                    v.defect for v in rep.violations
                ]
                cases += 1
    assert cases >= 40


# -- reduced_induced -----------------------------------------------------------


def test_reduced_induced_identity():
    space = _sigma_like_space()
    pair = _sigma_like_pair(space)
    red = reduced(space, pair)
    w_hat = reduced_induced(GradedMap.identity(space), red)
    assert w_hat == GradedMap.identity(red.hf_red)


def test_reduced_induced_sigma_blocks():
    inst = catalog.load_entry("sigma_2_7_13_mapping_torus")
    red = reduced(inst.space, inst.pair)
    w_hat = reduced_induced(inst.w, red)
    assert w_hat.block(0) == Matrix.identity(2)
    assert w_hat.block(4) == Matrix.identity(2)
    assert w_hat.block(2) == Matrix.identity(2).scale(-1)
    assert w_hat.block(6) == Matrix.identity(2).scale(-1)
    assert lefschetz(w_hat) == 0


def test_reduced_induced_cork_equals_w():
    inst = catalog.load_entry("akbulut_cork_mapping_torus")
    red = reduced(inst.space, inst.pair)
    w_hat = reduced_induced(inst.w, red)
    assert w_hat == inst.w  # reduced equals unreduced here


def test_invariance_violation_names_degree():
    space = graded_space(0, 0, 0, 0, 2, 0, 0, 0)
    pair = _pair(space, Case.DELTA_SIDE, deltas=[mat([[1, 0]])], n_max=1)
    red = reduced(space, pair)
    swap = blocks_map(space, 0, {4: mat([[0, 1], [1, 0]])})
    with pytest.raises(InvarianceViolation, match="Z\\^4"):
        reduced_induced(swap, red)


# -- lambda and h -----------------------------------------------------------------


def test_lambda_fo_conventions_agree():
    inst = catalog.load_entry("sigma_2_7_13_mapping_torus")
    assert -lefschetz(inst.w) / 2 == verify_splitting(inst).lambda_fo == -2
    # the stored map is in the internal convention; a homology view of
    # the same instance reports the same lambda
    assert verify_splitting(dataclasses.replace(inst, convention=HOMOLOGY)).lambda_fo == -2


def test_h_of_x_product_equals_invariant():
    inst = catalog.load_entry("product_cobordism_demo")
    red = reduced(inst.space, inst.pair)
    w_hat = reduced_induced(inst.w, red)
    from floersplit.froyshov import froyshov_h

    assert (lefschetz(inst.w) - lefschetz(w_hat)) / 2 == froyshov_h(inst.space, red) == 2
    assert verify_splitting(inst).h_x == 2


# -- verify_splitting ---------------------------------------------------------------


def test_verdict_sigma_values():
    v = verify_splitting(catalog.load_entry("sigma_2_7_13_mapping_torus"))
    assert (v.lef_w, v.lef_w_hat, v.lambda_fo, v.h_x, v.h_y) == (-4, 0, -2, 2, 2)
    assert v.identity_hx_equals_hy and v.identity_splitting
    assert v.convention == HOMOLOGY
    assert v.hf_dims == (0, 4, 0, 2, 0, 4, 0, 2)
    assert v.reduced_dims == (0, 2, 0, 2, 0, 2, 0, 2)


def test_verdict_cork_values():
    v = verify_splitting(catalog.load_entry("akbulut_cork_mapping_torus"))
    assert (v.lef_w, v.lef_w_hat, v.lambda_fo, v.h_x, v.h_y) == (4, 4, 2, 0, 0)
    assert v.passed


def test_verdict_product_demo():
    v = verify_splitting(catalog.load_entry("product_cobordism_demo"))
    assert (v.lef_w, v.lef_w_hat, v.lambda_fo, v.h_x, v.h_y) == (-12, -8, -6, 2, 2)
    assert v.passed


def test_verify_propagates_validation_errors():
    space = graded_space(0, 0, 0, 0, 1, 0, 0, 0)
    pair = _pair(space, Case.DELTA_SIDE, deltas=[mat([[1]])], n_max=1)
    inst = _instance(space, pair, blocks_map(space, 0, {4: mat([[2]])}))
    with pytest.raises(RelationViolation):
        verify_splitting(inst)


def test_verify_splitting_computes_each_lefschetz_number_once(monkeypatch):
    import floersplit.cobordism as cob

    maps = []

    def counting(m):
        maps.append(m)
        return lefschetz(m)

    monkeypatch.setattr(cob, "lefschetz", counting)
    for name in catalog.names():
        maps.clear()
        inst = catalog.load_entry(name)
        verify_splitting(inst)
        assert len(maps) == 2 and maps[0] == inst.w, name


def test_theorem_counterexample_guard(monkeypatch):
    import floersplit.cobordism as cob

    monkeypatch.setattr(cob, "froyshov_h", lambda *a, **k: Fraction(999))
    inst = catalog.load_entry("sigma_2_7_13_mapping_torus")
    with pytest.raises(TheoremCounterexample):
        verify_splitting(inst, raise_on_failure=True)


# -- tracers ---------------------------------------------------------------------


def test_trace_case1_sigma_degree0():
    inst = catalog.load_entry("sigma_2_7_13_mapping_torus")
    tr = trace_towers(inst, 0)
    (tower,) = (t for t in tr.towers if t.degree == 0)
    assert tower.start_dim == 4 and tower.start_trace == 4
    assert [s.index for s in tower.steps] == [1, 3]
    assert all(s.active and s.drop == 1 for s in tower.steps)
    assert tower.final_dim == 2 and tower.removed == 2 and tower.final_trace == 2


def test_trace_case1_both_zero_trivial():
    inst = catalog.load_entry("akbulut_cork_mapping_torus")
    tr = trace_towers(inst)
    for t in tr.towers:
        assert all(not s.active and s.drop == 0 for s in t.steps)
        assert t.start_trace == t.final_trace


def test_trace_case2_one_step():
    space = graded_space(0, 1, 0, 0, 0, 0, 0, 0)
    pair = _pair(space, Case.DELTA_PRIME_SIDE, primes=[Matrix.column([1])], n_max=1)
    inst = _instance(space, pair, GradedMap.identity(space))
    tr = trace_towers(inst, 1)
    (tower,) = (t for t in tr.towers if t.degree == 1)
    assert tower.start_trace == 1 and tower.final_trace == 0
    assert tower.removed == 1
    assert tower.steps[0].active


def test_trace_case_preconditions():
    space = graded_space(0, 1, 0, 0, 0, 0, 0, 0)
    pair = _pair(space, Case.DELTA_PRIME_SIDE, primes=[Matrix.column([1])], n_max=1)
    inst = _instance(space, pair, GradedMap.identity(space))
    for q in (0, 4):
        with pytest.raises(ValueError, match="kernel-tower replay needs a vanishing delta' family"):
            trace_towers(inst, q)
    space2 = graded_space(0, 0, 0, 0, 1, 0, 0, 0)
    pair2 = _pair(space2, Case.DELTA_SIDE, deltas=[mat([[1]])], n_max=1)
    inst2 = _instance(space2, pair2, GradedMap.identity(space2))
    for q in (1, 5):
        with pytest.raises(ValueError, match="span-tower replay needs a vanishing delta family"):
            trace_towers(inst2, q)


def test_trace_towers_refuses_a_degree_without_a_tower():
    inst = catalog.load_entry("akbulut_cork_mapping_torus")  # both zero: every tower applies
    for q in (2, 3, 6, 7, -1, 8):
        with pytest.raises(ValueError, match=f"no filtration tower at degree {q}; expected 0, 1, 4 or 5"):
            trace_towers(inst, q)
    for q in (0, 1, 4, 5):
        assert [t.degree for t in trace_towers(inst, q).towers] == [q]


def test_step_mismatch_on_invalid_instance():
    # a map breaking the degree-zero relation makes the first tower step
    # drop by 2 instead of 1
    space = graded_space(2, 0, 0, 0, 0, 0, 0, 0)
    pair = _pair(
        space, Case.DELTA_SIDE,
        deltas=[Matrix.zeros(1, 0), mat([[1, 0]])], n_max=1,
    )
    w = blocks_map(space, 0, {0: mat([[2, 0], [0, 1]])})
    inst = _instance(space, pair, w)
    with pytest.raises(StepMismatch):
        trace_towers(inst, 0)


def test_step_mismatch_on_invalid_span_tower():
    # W doubles delta'_0, so the quotient trace drops by 2 instead of 1
    space = graded_space(0, 2, 0, 0, 0, 0, 0, 0)
    pair = _pair(space, Case.DELTA_PRIME_SIDE, primes=[Matrix.column([1, 0])], n_max=1)
    w = blocks_map(space, 0, {1: mat([[2, 0], [0, 1]])})
    with pytest.raises(StepMismatch):
        trace_towers(_instance(space, pair, w), 1)


def test_refinement_sigma():
    inst = catalog.load_entry("sigma_2_7_13_mapping_torus")
    rep = trace_refinement(inst)
    assert rep.ok
    assert rep.expected[0] == 2 and rep.expected[4] == 2
    assert all(rep.expected[q] == 0 for q in (1, 2, 3, 5, 6, 7))


def test_refinement_matches_tower_telescoping():
    inst = catalog.load_entry("sigma_2_7_13_mapping_torus")
    rep = trace_refinement(inst)
    tr = trace_towers(inst)
    for t in tr.towers:
        assert rep.diffs[t.degree] == t.start_trace - t.final_trace
        assert t.removed == rep.expected[t.degree]
