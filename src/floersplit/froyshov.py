"""Special boundary structure and the reduced theory.

Chain level: a functional on degree-4 cochains vanishing on coboundaries,
a cocycle vector in degree 1, and a degree +4 chain operator.  Cohomology
level: the induced families delta_n (functionals on degrees 4, 0
alternating with n) and delta'_n (vectors in degrees 1, 5 alternating),
grown by one Krylov loop, the dichotomy between them, the subspaces Z and
B they carve out, the reduced groups Z/B, and the Froyshov invariant as
half an Euler characteristic difference.

Z^q and B^q are the last stages of one filtration tower walk (``tower``
over ``tower_members``), which the stabilization report and the cobordism
tower replay read as well.

The degree +4 operator is required to be a strict chain map.  That is the
minimal condition making the induced families well defined on cohomology;
genuinely geometric data satisfies a weaker homotopy identity that this
engine does not model.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import DichotomyViolation, InclusionViolation, ValidationError
from .graded import CochainComplex, CohomologyResult, GradedMap, GradedSpace, euler, induced_map
from .qlinalg import Matrix, QuotientSpace, Subspace, intersect, kernel_basis, quotient


class Case(Enum):
    """Which special family is allowed to be nonzero."""

    DELTA_SIDE = "delta_side"
    DELTA_PRIME_SIDE = "delta_prime_side"
    BOTH_ZERO = "both_zero"


def delta_degree(n: int) -> int:
    """Degree carrying the n-th functional: 4 for even n, 0 for odd."""
    return (4 - 4 * n) % 8


def delta_prime_degree(n: int) -> int:
    """Degree carrying the n-th vector: 1 for even n, 5 for odd."""
    return (1 + 4 * n) % 8


@dataclass(frozen=True)
class ChainSpecial:
    """Chain-level special data: functional, vector, degree +4 operator."""

    delta: Matrix        # 1 x dim CF^4
    delta_prime: Matrix  # dim CF^1 x 1
    v: GradedMap         # shift +4 chain map


def validate_chain_special(cs: ChainSpecial, cx: CochainComplex) -> None:
    """Check the chain-level invariants against a complex.

    The functional must kill coboundaries (delta o d_3 = 0), the vector
    must be a cocycle (d_1 o delta' = 0), and the degree +4 operator must
    commute with the differential.
    """
    if cs.delta.rows != 1 or cs.delta.cols != cx.space.dim(4):
        raise ValidationError("delta must be a functional on the degree-4 cochains")
    if cs.delta_prime.cols != 1 or cs.delta_prime.rows != cx.space.dim(1):
        raise ValidationError("delta' must be a vector in the degree-1 cochains")
    if not (cs.delta @ cx.d.block(3)).is_zero:
        raise ValidationError("delta does not vanish on coboundaries (delta o d != 0)")
    if not (cx.d.block(1) @ cs.delta_prime).is_zero:
        raise ValidationError("delta'(1) is not a cocycle (d o delta' != 0)")
    if cs.v.shift != 4 or cs.v.source != cx.space or cs.v.target != cx.space:
        raise ValidationError("v must be a degree +4 endomap of the complex")
    for q in range(8):
        if cs.v.block(q + 1) @ cx.d.block(q) != cx.d.block(q + 4) @ cs.v.block(q):
            raise ValidationError(f"v is not a chain map at degree {q}")


@dataclass(frozen=True)
class SpecialPair:
    """Cohomology-level families with their case tag.

    ``deltas[n]`` is a row functional on degree 4 (n even) or 0 (n odd);
    ``deltas_prime[n]`` is a column vector in degree 1 (n even) or 5
    (n odd).  Exactly one family may be nonzero; the other is stored as
    zero matrices, which encodes the dichotomy at the type level.
    """

    n_max: int
    deltas: tuple[Matrix, ...]
    deltas_prime: tuple[Matrix, ...]
    case: Case

    def __post_init__(self):
        if self.n_max < 0:
            raise ValidationError("n_max must be nonnegative")
        if len(self.deltas) != self.n_max + 1 or len(self.deltas_prime) != self.n_max + 1:
            raise ValidationError("families must have entries for 0 <= n <= n_max")
        d_nonzero = any(not m.is_zero for m in self.deltas)
        p_nonzero = any(not m.is_zero for m in self.deltas_prime)
        if d_nonzero and p_nonzero:
            raise DichotomyViolation("both special families have a nonzero member")
        if self.case is Case.DELTA_SIDE and p_nonzero:
            raise DichotomyViolation("delta-side pair carries a nonzero delta' member")
        if self.case is Case.DELTA_PRIME_SIDE and d_nonzero:
            raise DichotomyViolation("delta'-side pair carries a nonzero delta member")
        if self.case is Case.BOTH_ZERO and (d_nonzero or p_nonzero):
            raise ValidationError("both-zero pair carries a nonzero member")

    def validate_against(self, h: GradedSpace) -> None:
        for n, m in enumerate(self.deltas):
            if (m.rows, m.cols) != (1, h.dim(delta_degree(n))):
                raise ValidationError(f"deltas[{n}] has the wrong shape for degree {delta_degree(n)}")
        for n, m in enumerate(self.deltas_prime):
            if (m.rows, m.cols) != (h.dim(delta_prime_degree(n)), 1):
                raise ValidationError(
                    f"deltas_prime[{n}] has the wrong shape for degree {delta_prime_degree(n)}"
                )

    @staticmethod
    def both_zero(h: GradedSpace, n_max: int = 1) -> "SpecialPair":
        return SpecialPair(
            n_max,
            tuple(Matrix.zeros(1, h.dim(delta_degree(n))) for n in range(n_max + 1)),
            tuple(Matrix.zeros(h.dim(delta_prime_degree(n)), 1) for n in range(n_max + 1)),
            Case.BOTH_ZERO,
        )


def derive_case(deltas, deltas_prime) -> Case:
    d_nonzero = any(not m.is_zero for m in deltas)
    p_nonzero = any(not m.is_zero for m in deltas_prime)
    if d_nonzero and p_nonzero:
        raise DichotomyViolation("both special families are nonzero on cohomology")
    if d_nonzero:
        return Case.DELTA_SIDE
    if p_nonzero:
        return Case.DELTA_PRIME_SIDE
    return Case.BOTH_ZERO


def krylov_families(d0: Matrix, p0: Matrix, v_blocks, dims, n_min: int):
    """Iterate delta_{n+1} = delta_n o V and delta'_{n+1} = V o delta'_n.

    ``v_blocks[q]`` is the block of V on degree q.  Each parity subfamily
    is a Krylov sequence of a fixed operator, so one step that does not
    grow its span means the span is final; iteration runs past ``n_min``
    until all four parity spans have stopped.  Returns the member lists.
    """
    deltas: list[Matrix] = []
    primes: list[Matrix] = []
    # the four parity subfamilies live in degrees 4, 0 (functionals) and 1, 5
    spans = {q: Subspace.zero(dims[q]) for q in (0, 1, 4, 5)}
    stable: set[int] = set()
    cap = n_min + 2 * (max(dims) + 2)
    d, p, n = d0, p0, 0
    while True:
        deltas.append(d)
        primes.append(p)
        for q, vec in ((delta_degree(n), d.transpose()), (delta_prime_degree(n), p)):
            grown = spans[q].sum_with(Subspace.span(vec.rows, vec))
            if grown.dim == spans[q].dim:
                stable.add(q)
            spans[q] = grown
        if n >= n_min and len(stable) == 4:
            return deltas, primes
        if n >= cap:
            raise ValidationError("family spans failed to stabilize below the hard cap")
        d = d @ v_blocks[delta_degree(n + 1)]
        p = v_blocks[delta_prime_degree(n)] @ p
        n += 1


def induce_special(cs: ChainSpecial, coh: CohomologyResult, n_max: int = 4) -> SpecialPair:
    """Induce the cohomology-level families from chain-level data.

    Members are the class-level iterates of the degree +4 operator applied
    to the induced functional and vector, extended beyond ``n_max`` until
    each parity subfamily is final (see ``krylov_families``), so the
    subspaces Z and B computed from the family are stable.
    """
    if n_max < 1:
        raise ValidationError("n_max must be at least 1")
    validate_chain_special(cs, coh.complex)
    vh = induced_map(cs.v, coh, coh)
    deltas, primes = krylov_families(
        cs.delta @ coh.rep_section[4],
        coh.class_projection[1] @ cs.delta_prime,
        vh.blocks,
        coh.h_space.dims,
        n_max,
    )
    return SpecialPair(len(deltas) - 1, tuple(deltas), tuple(primes), derive_case(deltas, primes))


def tower_members(sp: SpecialPair, q: int) -> tuple[tuple[int, Matrix], ...]:
    """The (n, member) pairs acting at degree q, in increasing n.

    Functionals act at 0 (odd n) and 4 (even n), vectors at 1 (even n)
    and 5 (odd n); no member acts at any other degree.
    """
    if q in (0, 4):
        return tuple((n, m) for n, m in enumerate(sp.deltas) if delta_degree(n) == q)
    if q in (1, 5):
        return tuple((n, m) for n, m in enumerate(sp.deltas_prime) if delta_prime_degree(n) == q)
    return ()


def tower(dim: int, q: int, members):
    """Walk the filtration tower at degree q of a space of dimension dim.

    Yields ``(n, member, previous, next)`` per member.  At degrees 0 and 4
    the tower starts from the whole space and each stage intersects with
    the member's kernel; at 1 and 5 it starts from zero and each stage
    adds the member's span.  Z^q and B^q are the last stages.
    """
    kernel = q in (0, 4)
    stage = Subspace.full(dim) if kernel else Subspace.zero(dim)
    for n, m in members:
        nxt = intersect(stage, kernel_basis(m)) if kernel else stage.sum_with(Subspace.span(dim, m))
        yield n, m, stage, nxt
        stage = nxt


def z_subspaces(h: GradedSpace, sp: SpecialPair) -> tuple[Subspace, ...]:
    """Common kernels of the functionals: cut down in degrees 0 and 4 only."""
    sp.validate_against(h)
    z = [Subspace.full(h.dim(q)) for q in range(8)]
    for q in (0, 4):
        for _, _, _, z[q] in tower(h.dim(q), q, tower_members(sp, q)):  # keep the last stage
            pass
    return tuple(z)


def b_subspaces(h: GradedSpace, sp: SpecialPair) -> tuple[Subspace, ...]:
    """Spans of the vectors: nonzero in degrees 1 and 5 only."""
    sp.validate_against(h)
    b = [Subspace.zero(h.dim(q)) for q in range(8)]
    for q in (1, 5):
        for _, _, _, b[q] in tower(h.dim(q), q, tower_members(sp, q)):  # keep the last stage
            pass
    return tuple(b)


@dataclass(frozen=True)
class ReducedResult:
    """Z and B subspaces, the reduced dimensions, and quotient structure.

    ``quotients[q]`` presents Z^q / B^q with ambient space the Z^q
    coordinates (so its subspace is B^q rewritten in the basis of Z^q).
    """

    z: tuple[Subspace, ...]
    b: tuple[Subspace, ...]
    hf_red: GradedSpace
    quotients: tuple[QuotientSpace, ...]


def reduced_from_subspaces(
    h: GradedSpace, z: tuple[Subspace, ...], b: tuple[Subspace, ...]
) -> ReducedResult:
    quots, dims = [], []
    for q in range(8):
        if z[q].ambient_dim != h.dim(q) or b[q].ambient_dim != h.dim(q):
            raise ValidationError(f"subspace ambient mismatch at degree {q}")
        if not z[q].contains(b[q]):
            raise InclusionViolation(f"B^{q} is not contained in Z^{q}")
        b_in_z = z[q].coordinates_of(b[q].basis)
        qs = quotient(z[q].dim, Subspace.span(z[q].dim, b_in_z))
        quots.append(qs)
        dims.append(qs.dim)
    return ReducedResult(tuple(z), tuple(b), GradedSpace(tuple(dims)), tuple(quots))


def reduced(h: GradedSpace, sp: SpecialPair) -> ReducedResult:
    """The reduced theory Z/B determined by a special pair."""
    return reduced_from_subspaces(h, z_subspaces(h, sp), b_subspaces(h, sp))


def froyshov_h(h: GradedSpace, red: ReducedResult, convention: str = "cohomology") -> Fraction:
    """Half the Euler characteristic difference of full and reduced theories.

    Cohomology convention: (chi(HF) - chi(reduced)) / 2; the signs swap in
    homology convention.  The value is an integer for genuinely periodic
    data; half-integers are possible on synthetic instances and are
    reported as-is.
    """
    if convention == "cohomology":
        return Fraction(euler(h) - euler(red.hf_red), 2)
    if convention == "homology":
        return Fraction(euler(red.hf_red) - euler(h), 2)
    raise ValueError(f"unknown convention {convention!r}")


@dataclass(frozen=True)
class PeriodicityReport:
    """Advisory 4-periodicity check; synthetic instances may fail it."""

    hf_periodic: bool
    reduced_periodic: bool


def check_periodicity(h: GradedSpace, red: ReducedResult) -> PeriodicityReport:
    def per(dims):
        return all(dims[q] == dims[(q + 4) % 8] for q in range(8))

    return PeriodicityReport(per(h.dims), per(red.hf_red.dims))


@dataclass(frozen=True)
class StabilizationReport:
    """Index after which each tower stops moving; None means it never moved."""

    z0: int | None
    z4: int | None
    b1: int | None
    b5: int | None


def stabilization_indices(h: GradedSpace, sp: SpecialPair) -> StabilizationReport:
    sp.validate_against(h)

    def last_change(q: int) -> int | None:
        last = None
        for n, _, prev, nxt in tower(h.dim(q), q, tower_members(sp, q)):
            if nxt != prev:
                last = n
        return last

    return StabilizationReport(
        z0=last_change(0), z4=last_change(4), b1=last_change(1), b5=last_change(5)
    )
