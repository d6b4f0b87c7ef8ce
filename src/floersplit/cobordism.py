"""Cobordism-induced maps and the splitting verdict.

Validates the relations tying the instance's map ``Instance.w`` to the
special families, extracts the correction coefficients, induces the map
on the reduced theory, computes its two Lefschetz numbers once each,
checks the two splitting identities, and replays the filtration towers.

Both families run through one relation loop: delta_n o W = delta_n +
sum a_{i,n} delta_i is the transpose of W o delta'_n = delta'_n + sum
b_{i,n} delta'_i, so each member is checked as one vector (a functional's
row, a vector's column) against the running span of the lower members
of its parity.  ``validate_instance`` is the one
validation prefix: loading a document only parses it, and
``verify_splitting`` and ``floersplit trace`` each validate once before
using an instance.  Every invariant is
computed in the internal cohomology convention; the declared convention
is applied only to the reported numbers.

The replay reads the one tower walk of ``froyshov.tower``: a kernel tower
in degrees 0 and 4 (trace of the map restricted to each stage) and a span
tower in degrees 1 and 5 (trace induced on each quotient), with the same
per-step and end identities checked on both kinds by ``trace_towers``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    InvarianceViolation,
    NoSolution,
    RelationViolation,
    StepMismatch,
    TheoremCounterexample,
)
from .froyshov import (
    FAMILIES,
    Case,
    Family,
    ReducedResult,
    SpecialPair,
    froyshov_h,
    reduced,
    tower,
    tower_members,
)
from .graded import GradedMap, lefschetz
from .instance import HOMOLOGY, Instance, relabel
from .qlinalg import (
    Matrix,
    RunningSpan,
    Subspace,
    induced_on_quotient,
    quotient,
    restrict,
    trace,
)


@dataclass(frozen=True)
class RelationViolationRecord:
    relation: str   # "delta" or "delta_prime"
    n: int
    degree: int
    defect: Matrix


@dataclass(frozen=True)
class RelationReport:
    """Solved correction coefficients and any exact relation failures.

    Coefficients exist only for same-parity pairs (i, n) with i < n; the
    grading forces the opposite-parity ones to vanish.  When the lower
    family members are linearly dependent the solve is underdetermined;
    the reported solution zeroes the free variables and the pair (i, n)
    ambiguity is flagged through ``nonunique_a`` / ``nonunique_b``.
    """

    ok: bool
    a: dict[tuple[int, int], Fraction]
    b: dict[tuple[int, int], Fraction]
    violations: tuple[RelationViolationRecord, ...]
    a_integral: bool
    b_integral: bool
    nonunique_a: tuple[int, ...]
    nonunique_b: tuple[int, ...]

    def raise_if_invalid(self) -> None:
        for v in self.violations:
            if v.n == 0:
                raise RelationViolation(
                    f"degree-zero {v.relation} relation fails at degree {v.degree}"
                )
        if self.violations:
            v = self.violations[0]
            raise NoSolution(
                f"{v.relation} relation defect at n={v.n} is outside the span of lower members"
            )


def _defects(fam: Family, block: Matrix, members) -> list[tuple[Fraction, ...]]:
    """Each member's relation defect as a vector, from one product: the
    functionals stacked as rows times the block (delta o W - delta), or
    the block times the vectors side by side (W o delta' - delta')."""
    dim = block.rows
    if fam.functional:
        stack = Matrix(len(members), dim, tuple(m.entries[0] for m in members))
        return list((stack @ block - stack).entries)
    stack = Matrix(dim, len(members), tuple(tuple(m.entries[i][0] for m in members) for i in range(dim)))
    out = block @ stack - stack
    return [out.col(j) for j in range(len(members))]


def validate_relations(w: GradedMap, sp: SpecialPair) -> RelationReport:
    """Check the relations between the cobordism map and both special families.

    The defects of the members acting at one degree come from one product
    with its block (see ``_defects``).  The defect of member n must lie
    in the span of the lower same-parity members, which grows one member
    at a time in a running echelon form, so each member costs one
    reduction against it; for the degree-zero members that span is zero,
    so they must be fixed exactly (delta_0 o W = delta_0, W o delta'_0 =
    delta'_0).  The coefficients of one exact decomposition are returned
    (free variables zero), with integrality and uniqueness reported.
    """
    violations: list[RelationViolationRecord] = []
    solved = []  # (coefficients, nonunique indices) per family
    zero = Fraction(0)
    for fam in FAMILIES:
        members = getattr(sp, fam.key)
        defects: list = [None] * len(members)
        spans = []  # the lower members of each parity
        for parity in range(min(2, len(members))):
            block = w.block(fam.degree(parity))
            defects[parity::2] = _defects(fam, block, members[parity::2])
            spans.append(RunningSpan(block.rows))
        coeffs: dict[tuple[int, int], Fraction] = {}
        nonunique: list[int] = []
        for n, (m, defect) in enumerate(zip(members, defects)):
            span = spans[n % 2]
            x = span.coordinates(defect)
            if x is None:
                rows, cols = fam.shape(len(defect))
                shown = Matrix(rows, cols, (defect,) if fam.functional else tuple((v,) for v in defect))
                violations.append(RelationViolationRecord(fam.relation, n, fam.degree(n), shown))
            else:
                lower = range(n % 2, n, 2)
                coeffs.update({(i, n): x.get(i, zero) for i in lower})
                if span.rank < len(lower):
                    nonunique.append(n)
            span.add(n, fam.vector(m))
        solved.append((coeffs, tuple(nonunique)))
    (a, nonunique_a), (b, nonunique_b) = solved
    return RelationReport(
        ok=not violations,
        a=a,
        b=b,
        violations=tuple(violations),
        a_integral=all(x.denominator == 1 for x in a.values()),
        b_integral=all(x.denominator == 1 for x in b.values()),
        nonunique_a=nonunique_a,
        nonunique_b=nonunique_b,
    )


def reduced_induced(w: GradedMap, red: ReducedResult) -> GradedMap:
    """Map induced on Z/B, after checking both subspaces are invariant."""
    blocks = []
    for q in range(8):
        z, bq, qs = red.z[q], red.b[q], red.quotients[q]
        try:
            on_z = restrict(w.block(q), z)
        except InvarianceViolation:
            raise InvarianceViolation(f"W does not preserve Z^{q}") from None
        try:
            blocks.append(induced_on_quotient(on_z, qs))
        except InvarianceViolation:
            raise InvarianceViolation(f"W does not preserve B^{q}") from None
    return GradedMap(red.hf_red, red.hf_red, 0, tuple(blocks))


def validate_instance(instance: Instance) -> tuple[ReducedResult, GradedMap]:
    """Run the validation an instance must pass before its verdict.

    Checks the relations (raising the typed error) and the invariance
    needed to induce the map on the reduced theory; the map's shape and
    the family shapes were checked when the instance was built.  Returns
    the reduced theory and the induced map W-hat.
    """
    validate_relations(instance.w, instance.pair).raise_if_invalid()
    red = reduced(instance.space, instance.pair)
    return red, reduced_induced(instance.w, red)


@dataclass(frozen=True)
class TowerStep:
    index: int        # family index of this step
    dim: int          # dim of the stage after the step
    trace: Fraction   # trace of the map on that stage
    active: bool      # member acted nontrivially on the previous stage
    drop: Fraction    # previous trace minus this trace


@dataclass(frozen=True)
class TowerLog:
    degree: int
    kind: str         # "kernel" (intersecting kernels) or "span" (growing quotients)
    start_dim: int
    start_trace: Fraction
    steps: tuple[TowerStep, ...]
    final_dim: int
    final_trace: Fraction
    removed: int      # dim(H/Z) for kernel towers, dim(B) for span towers


@dataclass(frozen=True)
class CaseTrace:
    case: Case
    towers: tuple[TowerLog, ...]


def _replay_tower(block: Matrix, degree: int, members) -> TowerLog:
    """Replay the filtration tower at ``degree`` under a fixed map.

    Kernel towers (degrees 0 and 4) follow the trace of the map restricted
    to each stage; it restricts because its defect is spanned by earlier
    members, which vanish there.  Span towers (degrees 1 and 5) follow the
    trace induced on the quotient by each stage.  The trace must drop by
    exactly one when the member acts on the previous stage (a functional
    nonzero on it, a vector outside it) and stay put otherwise.  Three
    exact identities are checked at the end, with ``removed`` the
    codimension of Z or the dimension of B so far: the exact-sequence step
    relating the first stage's trace to the trace on the full space, the
    induction conclusion relating it to the final trace, and the total
    drop equal to the final ``removed``.
    """
    kind = "kernel" if degree in (0, 4) else "span"
    dim = block.rows
    start_trace = prev_trace = trace(block)
    steps = []
    first = None  # (trace, removed) after the first step
    removed = 0
    for n, member, prev, stage in tower(dim, degree, members):
        if kind == "kernel":
            active = not (member @ prev.basis).is_zero
            t = trace(restrict(block, stage))
            removed = dim - stage.dim
        else:
            active = not prev.contains(Subspace.span(dim, member))
            t = trace(induced_on_quotient(block, quotient(dim, stage)))
            removed = stage.dim
        drop = prev_trace - t
        expected = Fraction(1 if active else 0)
        if drop != expected:
            raise StepMismatch(
                f"{kind} tower at degree {degree}: step {n} dropped {drop}, expected {expected}"
            )
        steps.append(TowerStep(n, dim - removed, t, active, drop))
        prev_trace = t
        if first is None:
            first = (t, removed)
    if first is not None:
        first_trace, first_removed = first
        if first_trace != start_trace - first_removed:
            raise StepMismatch(f"{kind} tower at degree {degree}: exact-sequence step fails")
        if first_trace != (removed - first_removed) + prev_trace:
            raise StepMismatch(f"{kind} tower at degree {degree}: induction conclusion fails")
    if start_trace - prev_trace != removed:
        raise StepMismatch(
            f"{kind} tower at degree {degree}: total drop differs from the removed dim {removed}"
        )
    return TowerLog(
        degree, kind, dim, start_trace, tuple(steps), dim - removed, prev_trace, removed
    )


def trace_towers(instance: Instance, degree: int | None = None) -> CaseTrace:
    """Replay filtration towers: the kernel towers in degrees 0 and 4
    (vanishing vector side) or the span towers in 1 and 5 (vanishing
    functional side).  ``degree`` replays that one tower only; by default
    both towers of the kind matching the instance's case."""
    if degree is not None and degree not in (0, 1, 4, 5):
        raise ValueError(f"no filtration tower at degree {degree}; expected 0, 1, 4 or 5")
    sp = instance.pair
    kernel = sp.case is not Case.DELTA_PRIME_SIDE if degree is None else degree in (0, 4)
    if kernel and sp.case is Case.DELTA_PRIME_SIDE:
        raise ValueError("kernel-tower replay needs a vanishing delta' family")
    if not kernel and sp.case is Case.DELTA_SIDE:
        raise ValueError("span-tower replay needs a vanishing delta family")
    if degree is not None:
        degrees = (degree,)
    else:
        degrees = (0, 4) if kernel else (1, 5)
    return CaseTrace(
        sp.case,
        tuple(_replay_tower(instance.w.block(q), q, tower_members(sp, q)) for q in degrees),
    )


@dataclass(frozen=True)
class SplittingVerdict:
    """All five invariants plus the two identities, in one convention.

    The Lefschetz numbers are reported in the instance's declared
    convention; the three derived invariants have convention-independent
    values.  ``identity_splitting`` is the statement that lambda plus h(X)
    equals half the reduced Lefschetz number read in the homology
    convention (equivalently minus half of it in the cohomology one).
    """

    lef_w: Fraction
    lef_w_hat: Fraction
    lambda_fo: Fraction
    h_x: Fraction
    h_y: Fraction
    identity_hx_equals_hy: bool
    identity_splitting: bool
    convention: str
    reduced_dims: tuple[int, ...]
    hf_dims: tuple[int, ...]
    case: Case
    w_label: str
    trace_log: CaseTrace | None = None

    @property
    def passed(self) -> bool:
        return self.identity_hx_equals_hy and self.identity_splitting


def verify_splitting(
    instance: Instance, with_trace: bool = False, raise_on_failure: bool = False
) -> SplittingVerdict:
    """Validate an instance and check both splitting identities exactly.

    Validation errors propagate.  On a validated instance a failing
    identity would contradict the trace replay that the towers certify,
    so with ``raise_on_failure`` it is reported as TheoremCounterexample;
    seeing one means an engine bug, not interesting mathematics.
    """
    red, w_hat = validate_instance(instance)
    lef_w_coh = lefschetz(instance.w)  # both in the cohomology convention
    lef_hat_coh = lefschetz(w_hat)
    lam = -lef_w_coh / 2
    hx = (lef_w_coh - lef_hat_coh) / 2
    hy = froyshov_h(instance.space, red)

    conv = instance.convention
    view_hom = conv == HOMOLOGY
    verdict = SplittingVerdict(
        lef_w=-lef_w_coh if view_hom else lef_w_coh,
        lef_w_hat=-lef_hat_coh if view_hom else lef_hat_coh,
        lambda_fo=lam,
        h_x=hx,
        h_y=hy,
        identity_hx_equals_hy=hx == hy,
        identity_splitting=lam + hx == -lef_hat_coh / 2,
        convention=conv,
        reduced_dims=relabel(red.hf_red, conv).dims,
        hf_dims=relabel(instance.space, conv).dims,
        case=instance.pair.case,
        w_label=instance.w_label,
        trace_log=trace_towers(instance) if with_trace else None,
    )
    if raise_on_failure and not verdict.passed:
        raise TheoremCounterexample(
            f"splitting identities failed on a validated instance: {verdict}"
        )
    return verdict


@dataclass(frozen=True)
class RefinementReport:
    """Degreewise trace differences against the dimensions they must equal.

    On the functional side the difference of traces in degrees 0 and 4
    equals the codimension of Z there; on the vector side the difference
    in degrees 1 and 5 equals the dimension of B; every other degree
    contributes no difference at all.  Since Z is the whole space outside
    degrees 0 and 4 and B is zero outside 1 and 5, each expected value is
    dim H^q minus the reduced dimension in degree q.
    """

    diffs: tuple[Fraction, ...]
    expected: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return all(d == e for d, e in zip(self.diffs, self.expected))


def trace_refinement(instance: Instance) -> RefinementReport:
    red = reduced(instance.space, instance.pair)
    w_hat = reduced_induced(instance.w, red)
    diffs = tuple(trace(instance.w.block(q)) - trace(w_hat.block(q)) for q in range(8))
    expected = tuple(instance.space.dim(q) - red.hf_red.dim(q) for q in range(8))
    return RefinementReport(diffs, expected)
