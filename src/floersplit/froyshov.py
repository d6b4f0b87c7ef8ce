"""Special boundary structure and the reduced theory.

Chain level: a functional on degree-4 cochains vanishing on coboundaries,
a cocycle vector in degree 1, and a degree +4 chain operator.  Cohomology
level: the induced families delta_n (functionals on degrees 4, 0
alternating with n) and delta'_n (vectors in degrees 1, 5 alternating),
grown by one Krylov loop, the dichotomy between them, the subspaces Z and
B they carve out, the reduced groups Z/B, and the Froyshov invariant as
half an Euler characteristic difference, always in the internal
cohomology convention.

The two families are dual: a functional is a transposed vector.  Each
``Family`` in ``FAMILIES`` says where its members live and how they read
as columns, so every check that concerns both families is one loop over
them.  Z^q and B^q each take one elimination of all the members at degree
q; they equal the last stages of the filtration tower walk (``tower`` over
``tower_members``), which only the cobordism tower replay walks, since it
reads every stage.

The degree +4 operator is required to be a strict chain map.  That is the
minimal condition making the induced families well defined on cohomology;
genuinely geometric data satisfies a weaker homotopy identity that this
engine does not model.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable

from .errors import DichotomyViolation, NotAChainMap, ValidationError
from .graded import CochainComplex, CohomologyResult, GradedMap, GradedSpace, euler, induced_map
from .qlinalg import Matrix, QuotientSpace, RunningSpan, Subspace, quotient


# The largest n_max a document may declare or a generator config may
# emit: loading refuses a larger one before building any member.
MAX_N_MAX = 1024


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
class Family:
    """One special family; a functional (1 x dim row) is a transposed vector."""

    key: str        # the SpecialPair field and the document array
    relation: str   # the name in relation reports
    case: Case      # the case in which the family may be nonzero
    degree: Callable[[int], int]
    functional: bool

    def shape(self, dim: int) -> tuple[int, int]:
        return (1, dim) if self.functional else (dim, 1)

    def vector(self, m: Matrix) -> tuple[Fraction, ...]:
        """A member's entries as one vector: a functional's row, a vector's
        column."""
        return m.entries[0] if self.functional else m.col(0)


FAMILIES = (
    Family("deltas", "delta", Case.DELTA_SIDE, delta_degree, True),
    Family("deltas_prime", "delta_prime", Case.DELTA_PRIME_SIDE, delta_prime_degree, False),
)


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
    be an endomap of degree +4; that it commutes with the differential is
    checked once, when ``induce_special`` (reached through
    ``instance.chain_instance``) induces it on cohomology.
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


_SIDE = {Case.DELTA_SIDE: "delta", Case.DELTA_PRIME_SIDE: "delta'"}


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
        found = derive_case(self.deltas, self.deltas_prime)
        if found is not Case.BOTH_ZERO and self.case is not found:
            if self.case is Case.BOTH_ZERO:
                raise ValidationError("both-zero pair carries a nonzero member")
            raise DichotomyViolation(
                f"{_SIDE[self.case]}-side pair carries a nonzero {_SIDE[found]} member"
            )

    def validate_against(self, h: GradedSpace) -> None:
        for fam in FAMILIES:
            for n, m in enumerate(getattr(self, fam.key)):
                if (m.rows, m.cols) != fam.shape(h.dim(fam.degree(n))):
                    raise ValidationError(
                        f"{fam.key}[{n}] has the wrong shape for degree {fam.degree(n)}"
                    )


def krylov_families(d0: Matrix, p0: Matrix, v_blocks, dims, n_min: int) -> SpecialPair:
    """Iterate delta_{n+1} = delta_n o V and delta'_{n+1} = V o delta'_n.

    ``v_blocks[q]`` is the block of V on degree q.  Each parity subfamily
    is a Krylov sequence of a fixed operator, so one step that does not
    grow its span means the span is final; iteration runs past ``n_min``
    until all four parity spans have stopped.  Each span grows in one
    running echelon form.  Returns the pair, tagged with its derived case.
    """
    deltas: list[Matrix] = []
    primes: list[Matrix] = []
    # the four parity subfamilies live in degrees 4, 0 (functionals) and 1, 5
    spans = {q: RunningSpan(dims[q]) for q in (0, 1, 4, 5)}
    stable: set[int] = set()
    cap = n_min + 2 * (max(dims) + 2)
    d, p, n = d0, p0, 0
    while True:
        deltas.append(d)
        primes.append(p)
        for q, vec in ((delta_degree(n), d.entries[0]), (delta_prime_degree(n), p.col(0))):
            if not spans[q].add(vec):
                stable.add(q)
        if n >= n_min and len(stable) == 4:
            return SpecialPair(n, tuple(deltas), tuple(primes), derive_case(deltas, primes))
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
    try:
        vh = induced_map(cs.v, coh, coh)
    except NotAChainMap:
        raise NotAChainMap("v does not commute with the differentials") from None
    return krylov_families(
        cs.delta @ coh.rep_section[4],
        coh.class_projection[1] @ cs.delta_prime,
        vh.blocks,
        coh.h_space.dims,
        n_max,
    )


def tower_members(sp: SpecialPair, q: int) -> tuple[tuple[int, Matrix], ...]:
    """The (n, member) pairs acting at degree q, in increasing n.

    Functionals act at 0 (odd n) and 4 (even n), vectors at 1 (even n)
    and 5 (odd n); no member acts at any other degree.
    """
    return tuple(
        (n, m) for fam in FAMILIES for n, m in enumerate(getattr(sp, fam.key)) if fam.degree(n) == q
    )


def tower(dim: int, q: int, members):
    """Walk the filtration tower at degree q of a space of dimension dim.

    Yields ``(n, member, previous, next)`` per member.  At degrees 0 and 4
    the tower starts from the whole space and each stage intersects with
    the member's kernel; at 1 and 5 it starts from zero and each stage
    adds the member's span.  The members so far grow one running echelon
    form, and a stage is recomputed only when a member grows it: the
    span's kernel or its subspace, read off its rows without eliminating
    the members again.  The last stages are Z^q and B^q, which
    ``z_subspaces`` and ``b_subspaces`` compute without the walk.
    """
    kernel = q in (0, 4)
    stage = Subspace.full(dim) if kernel else Subspace.zero(dim)
    span = RunningSpan(dim)
    for n, m in members:
        nxt = stage
        if span.add(m.entries[0] if kernel else m.col(0)):
            nxt = span.kernel() if kernel else span.subspace()
        yield n, m, stage, nxt
        stage = nxt


def _tower_ends(h: GradedSpace, sp: SpecialPair, degrees, start) -> tuple[Subspace, ...]:
    """One running span per degree of all its members, read as its kernel
    at 0 and 4 and its subspace at 1 and 5; canonical bases make each end
    equal the last stage of ``tower``."""
    sp.validate_against(h)
    ends = [start(h.dim(q)) for q in range(8)]
    for q in degrees:
        if members := tower_members(sp, q):
            span = RunningSpan(h.dim(q))
            for _, m in members:
                span.add(tuple(x for r in m.entries for x in r))
            ends[q] = span.kernel() if q in (0, 4) else span.subspace()
    return tuple(ends)


def z_subspaces(h: GradedSpace, sp: SpecialPair) -> tuple[Subspace, ...]:
    """Common kernels of the functionals: cut down in degrees 0 and 4 only,
    each the kernel of all the functionals at that degree stacked."""
    return _tower_ends(h, sp, (0, 4), Subspace.full)


def b_subspaces(h: GradedSpace, sp: SpecialPair) -> tuple[Subspace, ...]:
    """Spans of the vectors: nonzero in degrees 1 and 5 only, each the
    span of all the vectors at that degree side by side."""
    return _tower_ends(h, sp, (1, 5), Subspace.zero)


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


def reduced(h: GradedSpace, sp: SpecialPair) -> ReducedResult:
    """The reduced theory Z/B determined by a special pair.

    B^q lies in Z^q by the degrees alone: Z^q is the whole space wherever
    B^q is nonzero (degrees 1 and 5), so there B^q is its own coordinates
    in Z^q, and B^q is zero wherever Z^q is cut down (degrees 0 and 4).
    """
    z, b = z_subspaces(h, sp), b_subspaces(h, sp)
    quots = tuple(quotient(z[q].dim, b[q] if b[q].dim else Subspace.zero(z[q].dim)) for q in range(8))
    return ReducedResult(z, b, GradedSpace(tuple(qs.dim for qs in quots)), quots)


def froyshov_h(h: GradedSpace, red: ReducedResult) -> Fraction:
    """Half the Euler characteristic difference of full and reduced theories.

    In the internal cohomology convention: (chi(HF) - chi(reduced)) / 2.
    The value is an integer for genuinely periodic data; half-integers are
    possible on synthetic instances and are reported as-is.
    """
    return Fraction(euler(h) - euler(red.hf_red), 2)
