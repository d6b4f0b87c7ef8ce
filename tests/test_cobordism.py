"""Relations, induced maps on the reduced theory, verdicts, tower replays."""

from __future__ import annotations

import dataclasses
import json
import random
from fractions import Fraction

import pytest

from floersplit import catalog
from floersplit.cli import main
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
)
from floersplit.froyshov import FAMILIES, Case, SpecialPair, derive_case, reduced, tower_members
from floersplit.gen import GenConfig, gen_instance
from floersplit.graded import GradedMap, GradedSpace, lefschetz
from floersplit.instance import COHOMOLOGY, HOMOLOGY, Instance
from floersplit.qlinalg import Matrix, Subspace

from helpers import (
    blocks_map,
    contains,
    dense_kernel_basis,
    dense_matmul,
    dense_rref,
    dense_solve,
    graded_space,
    mat,
    perturb_w,
    reference_tower,
)

from test_froyshov import _kinds, _pair, _random_pair, _sigma_like_pair, _sigma_like_space


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



def _oracle_relations(w, sp):
    """``validate_relations`` from its definition: each member's defect
    from dense products, solved by ``dense_solve`` against the lower
    same-parity members as columns, non-unique when those are dependent.
    Returns ((a, nonunique_a), (b, nonunique_b)) and the violations."""
    solved, violations = [], []
    for fam in FAMILIES:
        members = getattr(sp, fam.key)
        coeffs, nonunique = {}, []
        for n, m in enumerate(members):
            block = w.block(fam.degree(n))
            defect = (dense_matmul(m, block) if fam.functional else dense_matmul(block, m)) - m
            target = Matrix.column(fam.vector(defect))
            lower = range(n % 2, n, 2)
            cols = [fam.vector(members[i]) for i in lower]
            a = Matrix(target.rows, len(cols), tuple(tuple(c[r] for c in cols) for r in range(target.rows)))
            x = dense_solve(a, target)
            if x is None:
                violations.append((fam.relation, n, fam.degree(n), defect))
                continue
            coeffs.update({(i, n): x.entries[k][0] for k, i in enumerate(lower)})
            if dense_rref(a).rank < len(cols):
                nonunique.append(n)
        solved.append((coeffs, tuple(nonunique)))
    return solved, violations


def _moved_past(w, sp, k, rng):
    """W with the block that member k acts on moved by a third or two
    thirds of a rank-one term through member k and a random u that kills member k and the lower
    same-parity members: the defects of those stay as they were, and each
    higher one moves by a multiple of member k, inside its lower span."""
    fam = next((f for f in FAMILIES if f.case is sp.case), None)
    if fam is None:
        return w
    q, members = fam.degree(k), getattr(sp, fam.key)
    dim = w.block(q).rows
    killed = Matrix.from_rows([fam.vector(members[i]) for i in range(k % 2, k + 1, 2)], cols=dim)
    ker = dense_kernel_basis(killed)
    if not ker.dim:
        return w
    u = ker.basis @ Matrix.from_rows([[rng.randint(-2, 2)] for _ in range(ker.dim)], cols=1)
    bump = u @ members[k] if fam.functional else members[k] @ u.transpose()
    blocks = list(w.blocks)
    blocks[q] = blocks[q] + bump.scale(Fraction(rng.choice((1, 2)), 3))
    return GradedMap(w.source, w.target, w.shift, tuple(blocks))


def _random_relation_cases():
    """(w, pair) on random pairs with zero, repeated, dependent and
    non-integral members, W the identity moved through members
    (``perturb_w``, or ``_moved_past`` so that the relations keep holding)
    or with one block redrawn at random; then generated instances, as
    drawn and moved the same two ways."""
    kinds = _kinds()
    for seed in range(400):
        space, pair = _random_pair(seed, kinds)
        rng = random.Random(seed)
        w = GradedMap.identity(space)
        mode = rng.choice(("identity", "perturb", "moved", "moved", "moved", "random block"))
        for _ in range(mode in ("perturb", "moved") and rng.randint(1, 2)):
            if mode == "perturb":
                w = perturb_w(w, pair, rng.randint(0, pair.n_max))
            else:  # a low member, so that higher ones move
                w = _moved_past(w, pair, rng.randint(0, min(1, pair.n_max)), rng)
        if mode == "random block":
            q, blocks = rng.choice((0, 1, 4, 5)), list(w.blocks)
            d = space.dim(q)
            blocks[q] = Matrix.from_rows(
                [[Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(d)] for _ in range(d)], cols=d
            )
            w = GradedMap(space, space, 0, tuple(blocks))
        yield w, pair
    assert min(kinds.values()) > 50, kinds
    for seed in range(1, 41):
        inst = gen_instance(GenConfig(seed=seed, periodic=seed % 2 == 0))
        rng = random.Random(seed)
        yield inst.w, inst.pair
        yield perturb_w(inst.w, inst.pair, seed % 3), inst.pair
        yield _moved_past(inst.w, inst.pair, seed % 2, rng), inst.pair


def test_relations_equal_dense_solve_on_random_pairs():
    """The report equals the dense oracle in coefficients, violations and
    non-uniqueness on every case of ``_random_relation_cases``."""
    seen = {"fractional ok": 0, "nonunique": 0, "violation at 0": 0, "violation above 0": 0, "nonzero ok": 0}
    for w, pair in _random_relation_cases():
        report = validate_relations(w, pair)
        ((a, nonunique_a), (b, nonunique_b)), violations = _oracle_relations(w, pair)
        assert (report.a, report.nonunique_a) == (a, nonunique_a)
        assert (report.b, report.nonunique_b) == (b, nonunique_b)
        assert [(v.relation, v.n, v.degree, v.defect) for v in report.violations] == violations
        assert report.ok == (not violations)
        assert report.a_integral == all(x.denominator == 1 for x in a.values())
        assert report.b_integral == all(x.denominator == 1 for x in b.values())
        assert all(type(x) is Fraction for x in (*a.values(), *b.values()))
        seen["fractional ok"] += report.ok and not (report.a_integral and report.b_integral)
        seen["nonunique"] += bool(nonunique_a or nonunique_b)
        seen["violation at 0"] += any(v.n == 0 for v in report.violations)
        seen["violation above 0"] += any(v.n > 0 for v in report.violations)
        seen["nonzero ok"] += report.ok and any((*a.values(), *b.values()))
    assert min(seen.values()) >= 15, seen

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


def test_theorem_counterexample_guard(monkeypatch, tmp_path, capsys):
    """A sweep reports a failing identity on a validated instance as an
    identity failure and exits 1."""
    import floersplit.cobordism as cob

    monkeypatch.setattr(cob, "froyshov_h", lambda *a, **k: Fraction(999))
    monkeypatch.chdir(tmp_path)  # the failing instance is dumped here
    assert main(["--format", "json", "sweep", "--seeds", "1..1"]) == 1
    (failure,) = json.loads(capsys.readouterr().out)["failures"]
    assert failure["kind"] == "identity"
    assert failure["error"].startswith("splitting identities failed on a validated instance")


@pytest.mark.parametrize(
    "config", [{}, {"periodic": True}, {"chain_level": True}], ids=["default", "periodic", "chain"]
)
def test_verdict_carries_the_refinement(config):
    for seed in range(1, 6):
        inst = gen_instance(GenConfig(seed=seed, **config))
        verdict = verify_splitting(inst)
        assert verdict.refinement == trace_refinement(inst)
        assert verdict.refinement.ok


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


def _independent_activity(dim, q, members):
    """Each step's activity decided apart from the walk, on the stages of
    ``reference_tower``: a functional nonzero on the previous stage, or a
    vector outside it."""
    prev = Subspace.full(dim) if q in (0, 4) else Subspace.zero(dim)
    out = []
    for (_, m), stage in zip(members, reference_tower(dim, q, members)):
        if q in (0, 4):
            out.append(not (m @ prev.basis).is_zero)
        else:
            out.append(not contains(prev, Subspace.span(dim, m)))
        prev = stage
    return out


def test_step_activity_equals_an_independent_test():
    # the identity satisfies every relation, so any pair can be replayed
    instances = [catalog.load_entry(name) for name in catalog.names()]
    for seed in range(300):
        space, pair = _random_pair(seed, _kinds())
        instances.append(_instance(space, pair, GradedMap.identity(space)))
    seen = set()
    for i, inst in enumerate(instances):
        case = inst.pair.case
        degrees = (0, 4) * (case is not Case.DELTA_PRIME_SIDE) + (1, 5) * (case is not Case.DELTA_SIDE)
        for q in degrees:
            (log,) = trace_towers(inst, q).towers
            want = _independent_activity(inst.space.dim(q), q, tower_members(inst.pair, q))
            assert [s.active for s in log.steps] == want, (i, q)
            seen.update((log.kind, a) for a in want)
    assert seen == {(k, a) for k in ("kernel", "span") for a in (True, False)}


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
