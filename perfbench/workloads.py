"""The benchmark's workloads: inputs made from the workload seed, one
operation per input, and the independent check of each output.

Every engine function is called through its module attribute
(``gen.gen_instance``, not a name bound here at import time) so that the
traced run's wrappers see the call.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import random
import shutil
from pathlib import Path

from floersplit import cli, cobordism, gen, serialize

import oracle

# The block of workload seed s is drawn from the generator seeds
# s * SEED_STRIDE + i, 0 <= i < STRATA * ROUNDS, so different workload seeds
# never share an input.
SEED_STRIDE = 100_000
STRATA = 10
ROUNDS = 100
FIXTURES = 3
# Warm-up input, outside every block: the same for every workload seed so
# that set-up time does not depend on it.
WARMUP_SEED = -1


def drawn_dims(gen_seed: int, max_dim: int, chain_level: bool) -> list[int]:
    """The dimensions the generator draws first for a seed: the cohomology
    dimensions, or at chain level the cochain dimensions made of the
    acyclic and harmonic draws.  Only used to balance blocks; should the
    generator draw differently, the blocks stay valid and lose the
    balance."""
    rng = random.Random(gen_seed)
    if not chain_level:
        return [rng.randint(0, max_dim) for _ in range(8)]
    a = [rng.randint(0, max(1, max_dim // 2)) for _ in range(8)]
    h = [rng.randint(0, max_dim) for _ in range(8)]
    return [a[q] + a[q - 1] + h[q] for q in range(8)]


def balanced_block(seed: int, max_dim: int, chain_level: bool) -> list[int]:
    """Generator seeds for one workload seed, in rounds that each take one
    seed from every size decile.

    An operation's cost grows with the sum of squared dimensions, and its
    spread across seeds is wider than one run can average out: the block
    means of two workload seeds would differ by more than a program change
    worth measuring.  Drawing every round across all deciles gives every
    block, and every prefix of whole rounds, the same mix of sizes.
    """
    candidates = [seed * SEED_STRIDE + i for i in range(STRATA * ROUNDS)]
    ranked = sorted(candidates, key=lambda g: (sum(d * d for d in drawn_dims(g, max_dim, chain_level)), g))
    rng = random.Random(seed)
    strata = [ranked[j * ROUNDS:(j + 1) * ROUNDS] for j in range(STRATA)]
    for stratum in strata:
        rng.shuffle(stratum)
    block = []
    for r in range(ROUNDS):
        round_ = [stratum[r] for stratum in strata]
        rng.shuffle(round_)
        block += round_
    return block


class OperationFailed(Exception):
    """The engine reported a failure for one operation."""


class Sweep:
    """What ``floersplit sweep`` does for one seed, through the library:
    generate, verify with the tower trace, and check the refinement."""

    def __init__(self, chain_level: bool):
        self.chain_level = chain_level
        self.count_span = "cobordism.verify_splitting"

    def setup(self, seed: int, workdir: Path, root: Path) -> None:
        self.block = balanced_block(seed, gen.GenConfig(seed=0).max_dim, self.chain_level)

    def warm_up(self) -> None:
        self._run(WARMUP_SEED)

    def op(self, i: int):
        return self._run(self.block[i % len(self.block)])

    def round_ends(self, done: int) -> bool:
        return done % STRATA == 0

    def _run(self, gen_seed: int):
        inst = gen.gen_instance(gen.GenConfig(seed=gen_seed, chain_level=self.chain_level))
        verdict = cobordism.verify_splitting(inst, with_trace=True)
        ref = cobordism.trace_refinement(inst)
        if not (verdict.passed and ref.ok):
            raise OperationFailed(f"seed {gen_seed}: verdict {verdict.passed}, refinement {ref.ok}")
        return inst, verdict, ref

    def record(self, out) -> oracle.SweepRecord:
        return oracle.sweep_record(*out)

    def check(self, rec: oracle.SweepRecord) -> list[str]:
        return oracle.check_sweep(rec)


class VerifyDocs:
    """``floersplit --format json verify FILE`` through ``cli.main`` on
    stored documents: the three catalog fixtures, then generated
    cohomology-level documents written in the homology convention."""

    # Enough documents that a run of the configured length rarely
    # revisits one; larger blocks than a sweep's bring rref, intersect and
    # coefficient growth into play.
    DOCUMENTS = 150
    MAX_DIM = 12
    N_MAX = 8

    count_span = "serialize.document_to_instance"

    def setup(self, seed: int, workdir: Path, root: Path) -> None:
        fixtures = sorted((root / "fixtures").glob("*.json"))
        if len(fixtures) != FIXTURES:
            raise RuntimeError(f"expected the {FIXTURES} catalog fixtures, found {len(fixtures)}")
        self.files = [(Path(shutil.copy(f, workdir)), True) for f in fixtures]
        for gen_seed in balanced_block(seed, self.MAX_DIM, False)[:self.DOCUMENTS]:
            inst = gen.gen_instance(gen.GenConfig(seed=gen_seed, max_dim=self.MAX_DIM, n_max=self.N_MAX))
            doc = serialize.instance_to_document(dataclasses.replace(inst, convention="homology"))
            path = workdir / f"doc-{gen_seed}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            self.files.append((path, False))
        self._expected = {}

    def warm_up(self) -> None:
        self._verify(self.files[0][0])

    def op(self, i: int):
        k = i % len(self.files)
        return k, self._verify(self.files[k][0])

    def round_ends(self, done: int) -> bool:
        # the fixtures lead; the documents follow in rounds of STRATA
        k = done % len(self.files)
        return k == 0 or (k >= FIXTURES and (k - FIXTURES) % STRATA == 0)

    def _verify(self, path: Path) -> dict:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["--format", "json", "verify", str(path)])
        if rc != 0:
            raise OperationFailed(f"{path.name}: exit code {rc}")
        return oracle.parse_report(buf.getvalue())

    def record(self, out):
        return out

    def check(self, rec) -> list[str]:
        k, report = rec
        path, is_fixture = self.files[k]
        if k not in self._expected:
            doc = json.loads(path.read_text(encoding="utf-8"))
            self._expected[k] = oracle.expected_values(oracle.raw_from_document(doc))
        problems = oracle.check_verdict(report, self._expected[k])
        if is_fixture:
            problems += oracle.check_catalog(report)
        return problems


WORKLOADS = {
    "sweep-default": lambda: Sweep(chain_level=False),
    "sweep-chain": lambda: Sweep(chain_level=True),
    "verify-docs": VerifyDocs,
}
