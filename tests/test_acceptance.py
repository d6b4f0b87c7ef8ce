"""Acceptance criteria, one test per criterion, all tolerances zero.

Each test prints a single line "ACCEPTANCE <n> <name>: PASS/FAIL" so the
suite doubles as a checklist (run with -s or read the captured output).
"""

from __future__ import annotations

import dataclasses
import json
import time
from fractions import Fraction

import pytest

from floersplit import catalog
from floersplit.cli import main
from floersplit.cobordism import (
    reduced_induced,
    trace_refinement,
    trace_towers,
    verify_splitting,
)
from floersplit.froyshov import Case, froyshov_h, reduced
from floersplit.gen import GenConfig, gen_chain_instance, gen_instance
from floersplit.graded import (
    CohomologyResult,
    cohomology,
    euler,
    induced_map,
    lefschetz,
    regrade,
)
from floersplit.qlinalg import Matrix, Subspace
from floersplit.serialize import document_to_instance, dumps, instance_to_document

from helpers import (
    contains,
    oracle_cohomology_dims,
    oracle_family_on_cocycles,
    oracle_splitting_sides,
    redraw_cobordism,
)

SWEEP_SEEDS = range(1, 1001)
CHAIN_SEEDS = range(1, 201)


def _report(n, name, ok=True):
    print(f"ACCEPTANCE {n} {name}: {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="module")
def sweep_instances():
    """The default-config sweep instances shared by criteria 4, 5, 6, 7, 10."""
    return {seed: gen_instance(GenConfig(seed=seed)) for seed in SWEEP_SEEDS}


def test_criterion_1_sigma_end_to_end():
    name = "example-1-end-to-end"
    try:
        t0 = time.monotonic()
        inst = catalog.load_entry("sigma_2_7_13_mapping_torus")
        v = verify_splitting(inst, with_trace=True)
        elapsed = time.monotonic() - t0
        assert v.lef_w == -4
        assert v.lef_w_hat == 0
        assert v.lambda_fo == -2
        assert v.h_x == 2
        assert v.h_y == 2
        assert v.identity_hx_equals_hy and v.identity_splitting
        assert elapsed < 1.0
    except BaseException:
        _report(1, name, False)
        raise
    _report(1, name)


def test_criterion_2_cork_end_to_end():
    name = "example-2-end-to-end"
    try:
        t0 = time.monotonic()
        inst = catalog.load_entry("akbulut_cork_mapping_torus")
        v = verify_splitting(inst, with_trace=True)
        elapsed = time.monotonic() - t0
        assert v.lambda_fo == 2
        assert v.h_x == 0 and v.h_y == 0
        assert v.lef_w == 4
        assert v.identity_splitting and v.identity_hx_equals_hy
        assert elapsed < 1.0
    except BaseException:
        _report(2, name, False)
        raise
    _report(2, name)


def test_criterion_3_euler_characteristics():
    name = "euler-characteristics"
    try:
        inst = catalog.load_entry("sigma_2_7_13_mapping_torus")
        # homology-view quantities: chi negates under the regrade
        hom_space = regrade(inst.space)
        assert euler(hom_space) == -12
        red = reduced(inst.space, inst.pair)
        assert euler(regrade(red.hf_red)) == -8
        assert Fraction(euler(regrade(red.hf_red)) - euler(hom_space), 2) == 2
        assert froyshov_h(inst.space, red) == 2
    except BaseException:
        _report(3, name, False)
        raise
    _report(3, name)


def test_criterion_4_sweep_1000(capsys):
    name = "sweep-1000"
    try:
        t0 = time.monotonic()
        rc = main(["--format", "json", "sweep", "--seeds", "1..1000"])
        elapsed = time.monotonic() - t0
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["total"] == 1000 and out["passed"] == 1000
        assert elapsed < 60.0
    except BaseException:
        with capsys.disabled():
            _report(4, name, False)
        raise
    with capsys.disabled():
        print()
        _report(4, name)


def test_criterion_5_degreewise_refinement(sweep_instances):
    name = "degreewise-refinement"
    try:
        for seed, inst in sweep_instances.items():
            rep = trace_refinement(inst)
            assert rep.ok, seed
            red = reduced(inst.space, inst.pair)
            if inst.pair.case is Case.DELTA_SIDE:
                assert rep.diffs[0] == inst.space.dim(0) - red.z[0].dim
                assert rep.diffs[4] == inst.space.dim(4) - red.z[4].dim
            if inst.pair.case is Case.DELTA_PRIME_SIDE:
                assert rep.diffs[1] == red.b[1].dim
                assert rep.diffs[5] == red.b[5].dim
            for q in (2, 3, 6, 7):
                assert rep.diffs[q] == 0
    except BaseException:
        _report(5, name, False)
        raise
    _report(5, name)


def test_criterion_6_w_independence(sweep_instances):
    name = "w-independence"
    try:
        for seed in range(1, 101):
            inst = sweep_instances[seed]
            red = reduced(inst.space, inst.pair)
            target = froyshov_h(inst.space, red)
            values = set()
            for wseed in range(5):
                other = redraw_cobordism(inst, wseed)
                w_hat = reduced_induced(other.w, red)
                values.add((lefschetz(other.w) - lefschetz(w_hat)) / 2)
            assert values == {target}, (seed, values, target)
    except BaseException:
        _report(6, name, False)
        raise
    _report(6, name)


def test_criterion_7_tracer_soundness(sweep_instances):
    name = "tracer-soundness"
    try:
        for seed, inst in sweep_instances.items():
            tr = trace_towers(inst)
            rep = trace_refinement(inst)
            for tower in tr.towers:
                for s in tower.steps:
                    assert s.drop in (0, 1)
                    assert (s.drop == 1) == s.active
                telescoped = sum((s.drop for s in tower.steps), Fraction(0))
                assert telescoped == tower.start_trace - tower.final_trace
                assert telescoped == rep.diffs[tower.degree] == rep.expected[tower.degree]
    except BaseException:
        _report(7, name, False)
        raise
    _report(7, name)


def test_criterion_8_chain_level():
    name = "chain-level-200"
    try:
        t0 = time.monotonic()
        for seed in CHAIN_SEEDS:
            inst = gen_chain_instance(GenConfig(seed=seed, chain_level=True))
            planted = tuple(inst.metadata["planted_h_dims"])
            assert inst.space.dims == planted
            assert oracle_cohomology_dims(inst.complex) == planted
            coh = cohomology(inst.complex)
            cs = inst.chain_special
            for n in range(inst.pair.n_max + 1):
                fun, vec = oracle_family_on_cocycles(inst.complex, cs.delta, cs.delta_prime, cs.v, n)
                from floersplit.froyshov import delta_degree, delta_prime_degree

                deg = delta_degree(n)
                classes = coh.class_projection[deg] @ coh.cocycles[deg].basis
                assert inst.pair.deltas[n] @ classes == fun
                pdeg = delta_prime_degree(n)
                lift = coh.rep_section[pdeg] @ inst.pair.deltas_prime[n]
                diff = lift - vec
                if not diff.is_zero:
                    assert contains(coh.coboundaries[pdeg], Subspace.span(diff.rows, diff))
            # representative independence of the induced cobordism map
            perturbed_secs = []
            for q in range(8):
                cob = coh.coboundaries[q]
                corr = Matrix.from_rows(
                    [[(i + j + seed) % 3 - 1 for j in range(coh.h_space.dim(q))]
                     for i in range(cob.dim)],
                    cols=coh.h_space.dim(q),
                )
                perturbed_secs.append(coh.rep_section[q] + cob.basis @ corr)
            perturbed = CohomologyResult(
                coh.complex, coh.h_space, coh.cocycles, coh.coboundaries,
                tuple(perturbed_secs), coh.class_projection, coh.quotients,
            )
            assert induced_map(inst.chain_w, perturbed, coh) == inst.w
            assert verify_splitting(inst).passed
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0
    except BaseException:
        _report(8, name, False)
        raise
    _report(8, name)


def test_criterion_9_convention_coherence():
    name = "convention-coherence"
    try:
        for entry in catalog.names():
            inst = catalog.load_entry(entry)
            assert regrade(regrade(inst.space)) == inst.space
            assert regrade(regrade(inst.w)) == inst.w
            assert euler(regrade(inst.space)) == -euler(inst.space)
            assert lefschetz(regrade(inst.w)) == -lefschetz(inst.w)
            v_hom = verify_splitting(dataclasses.replace(inst, convention="homology"))
            v_coh = verify_splitting(dataclasses.replace(inst, convention="cohomology"))
            assert v_hom.passed and v_coh.passed
            assert (v_hom.lambda_fo, v_hom.h_x, v_hom.h_y) == (v_coh.lambda_fo, v_coh.h_x, v_coh.h_y)
            assert v_hom.lef_w == -v_coh.lef_w
            assert v_hom.lef_w_hat == -v_coh.lef_w_hat
            # independent recomputation of all five quantities from definitions
            sides = oracle_splitting_sides(inst)
            assert sides["lambda"] == v_coh.lambda_fo
            assert sides["h_x"] == v_coh.h_x == sides["h_y"] == v_coh.h_y
            assert sides["lambda"] + sides["h_x"] == sides["splitting_rhs"]
    except BaseException:
        _report(9, name, False)
        raise
    _report(9, name)


def test_criterion_10_serialization(sweep_instances, tmp_path):
    name = "serialization-round-trip"
    try:
        from floersplit.serialize import export, load

        for entry in catalog.names():
            inst = catalog.load_entry(entry)
            path = tmp_path / f"{entry}.json"
            export(inst, str(path))
            again = load(str(path))
            assert again == inst
            assert dumps(again) == dumps(inst)
        for seed in range(1, 51):
            inst = sweep_instances[seed]
            again = document_to_instance(instance_to_document(inst))
            assert again == inst
            assert dumps(again) == dumps(inst)
    except BaseException:
        _report(10, name, False)
        raise
    _report(10, name)
