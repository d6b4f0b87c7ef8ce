"""Tests of the benchmark itself: the checks can fail, and the traced run's
span counts agree with the operation counts.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import gzip
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import run

run.load_engine()

import oracle  # noqa: E402
import workloads  # noqa: E402
from floersplit import qlinalg  # noqa: E402


def _sweep_record(seed=3, chain_level=False):
    w = workloads.Sweep(chain_level=chain_level)
    w.setup(seed, None, run.ROOT)
    return w, w.record(w.op(0))


def test_checker_accepts_engine_output():
    for chain_level in (False, True):
        w, rec = _sweep_record(chain_level=chain_level)
        assert w.check(rec) == []


def test_checker_rejects_corrupted_sweep_output():
    w, rec = _sweep_record()
    v = rec.verdict
    assert w.check(dataclasses.replace(rec, verdict=dict(v, lef_w_hat=v["lef_w_hat"] + 1)))
    dims = list(v["reduced_dims"])
    dims[1] += 1
    assert w.check(dataclasses.replace(rec, verdict=dict(v, reduced_dims=dims)))


def test_checker_rejects_corrupted_tower():
    w, rec = _sweep_record()
    degree, kind, drops = rec.towers[0]
    bad = ((degree, kind, (Fraction(2),) + drops[1:]),) + rec.towers[1:]
    assert w.check(dataclasses.replace(rec, towers=bad))


def test_checker_rejects_wrong_chain_cohomology():
    w, rec = _sweep_record(chain_level=True)
    cf, d_blocks, planted = rec.chain
    wrong = tuple(h + (q == 0) for q, h in enumerate(planted))
    assert w.check(dataclasses.replace(rec, chain=(cf, d_blocks, wrong)))


def _docs(tmp_path, documents=2):
    w = workloads.VerifyDocs()
    w.DOCUMENTS = documents
    w.setup(1, tmp_path, run.ROOT)
    return w


def test_checker_rejects_corrupted_report(tmp_path):
    w = _docs(tmp_path)
    for i in range(len(w.files)):
        k, report = w.op(i)
        assert w.check((k, report)) == []
        bad = dict(report, lef_w_hat=report["lef_w_hat"] + 1)
        assert w.check((k, bad))
        dims = list(report["reduced_dims"])
        dims[0] += 1
        assert w.check((k, dict(report, reduced_dims=dims)))


def test_catalog_values_are_enforced(tmp_path):
    w = _docs(tmp_path, documents=0)
    k, report = w.op(0)
    assert report["instance"] in oracle.CATALOG_VALUES
    assert w.check((k, dict(report, h_y=report["h_y"] + 1, h_x=report["h_x"] + 1)))


def test_report_with_float_is_rejected():
    report = {"instance": "x", "verdict": {"lef_w": 1.0, "lef_w_hat": 0, "lambda_fo": 0, "h_x": 0, "h_y": 0}}
    try:
        oracle.parse_report(json.dumps(report))
    except ValueError:
        return
    raise AssertionError("a float in a report was accepted")


def test_rank_matches_hand_counts():
    f = Fraction
    assert oracle.rank([]) == 0
    assert oracle.rank([[f(0), f(0)]]) == 0
    assert oracle.rank([[f(1), f(2)], [f(2), f(4)]]) == 1
    assert oracle.rank([[f(1), f(2)], [f(1, 2), f(3)]]) == 2


def _span_count(dump: Path, name: str) -> int:
    with gzip.open(dump, "rt", encoding="utf-8") as f:
        data = json.load(f)
    nid = data["names"].index(name)
    return sum(1 for s in data["spans"] if s[0] == nid)


def test_traced_sweep_span_count_equals_operations(tmp_path):
    w, _ = _sweep_record(seed=5)
    dump = tmp_path / "trace.json.gz"
    metrics, problems, attempted, failed = run.run_traced(w, 0.2, dump)
    assert problems == [] and failed == 0
    assert attempted >= run.MIN_TRACED_OPS
    assert _span_count(dump, "cobordism.verify_splitting") == attempted
    assert _span_count(dump, "bench.op") == attempted
    assert metrics["cobordism.verify_splitting.calls"][0] == 1
    assert metrics["froyshov.reduced.calls"][0] == 2
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert sorted(m["name"] for m in declared["per_layer"]) == sorted(metrics)
    # wrappers are gone again
    assert not hasattr(qlinalg.rref, "__wrapped__")
    assert not hasattr(qlinalg.Matrix.__matmul__, "__wrapped__")


def test_traced_docs_span_count_equals_operations(tmp_path):
    w = _docs(tmp_path)
    dump = tmp_path / "trace.json.gz"
    metrics, problems, attempted, failed = run.run_traced(w, 0.2, dump)
    assert problems == [] and failed == 0
    assert _span_count(dump, "serialize.document_to_instance") == attempted
    assert metrics["cli.main.calls"][0] == 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "sweep-default",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_hd_quantile_matches_known_values():
    from quantiles import _betainc, hd_quantile

    assert abs(_betainc(2, 3, 0.4) - 0.5248) < 1e-12
    assert abs(hd_quantile(range(1, 102), 0.5) - 51) < 1e-9
    xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
    assert min(xs) < hd_quantile(xs, 0.9) < max(xs)
    assert hd_quantile(xs, 0.5) < hd_quantile(xs, 0.9)
