"""Mod-8 graded vector spaces, complexes and their cohomology.

The engine's internal grading is the cohomological one: differentials
shift degree by +1 and the degree-4 operator shifts by +4.  Data graded
the other way round is admitted at the file-format boundary and relabeled
on load by ``regrade`` (degree q goes to 5 - q mod 8).

Lefschetz numbers use the alternating sign sum(-1)^q tr(f_q).  This is
the unique sign convention reproducing the catalog's literature values
for the mapping torus of complex conjugation on the Brieskorn sphere
Sigma(2,7,13): -4 on the full theory and 0 on the reduced one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NotAChainMap, ValidationError
from .qlinalg import Matrix, Subspace, QuotientSpace, image_basis, kernel_basis, quotient
from . import qlinalg

DEGREES = range(8)


def _mod8(q: int) -> int:
    return q % 8


@dataclass(frozen=True)
class GradedSpace:
    """Eight finite-dimensional vector spaces indexed by degree mod 8."""

    dims: tuple[int, ...]

    def __post_init__(self):
        if len(self.dims) != 8 or any(d < 0 for d in self.dims):
            raise ValidationError("a graded space needs 8 nonnegative dimensions")

    @staticmethod
    def of(dims) -> "GradedSpace":
        return GradedSpace(tuple(int(d) for d in dims))

    def dim(self, q: int) -> int:
        return self.dims[_mod8(q)]


@dataclass(frozen=True)
class GradedMap:
    """Degree-shifting block map: block q sends degree q to q + shift."""

    source: GradedSpace
    target: GradedSpace
    shift: int
    blocks: tuple[Matrix, ...]

    def __post_init__(self):
        object.__setattr__(self, "shift", _mod8(self.shift))
        if len(self.blocks) != 8:
            raise ValidationError("a graded map needs 8 blocks")
        for q in DEGREES:
            b = self.blocks[q]
            want = (self.target.dim(q + self.shift), self.source.dim(q))
            if (b.rows, b.cols) != want:
                raise ValidationError(
                    f"block {q} has shape {b.rows}x{b.cols}, expected {want[0]}x{want[1]}"
                )

    @staticmethod
    def identity(space: GradedSpace) -> "GradedMap":
        return GradedMap(space, space, 0, tuple(Matrix.identity(d) for d in space.dims))

    def block(self, q: int) -> Matrix:
        return self.blocks[_mod8(q)]


@dataclass(frozen=True)
class CochainComplex:
    """Graded space with a degree +1 differential squaring to zero."""

    space: GradedSpace
    d: GradedMap

    def __post_init__(self):
        if self.d.shift != 1:
            raise ValidationError("differential must have degree +1")
        if self.d.source != self.space or self.d.target != self.space:
            raise ValidationError("differential must be an endomap of the complex's space")
        for q in DEGREES:
            if not (self.d.block(q + 1) @ self.d.block(q)).is_zero:
                raise ValidationError(f"d o d != 0 at degree {q}")


@dataclass(frozen=True)
class CohomologyResult:
    """Cohomology of a complex together with chosen representatives.

    Per degree q: ``cocycles`` is ker(d_q), ``coboundaries`` is im(d_{q-1}),
    ``rep_section`` sends a class to a representative cocycle (ambient
    coordinates) and ``class_projection`` reads the class off any ambient
    cochain whose projection is meaningful (i.e. off cocycles).
    class_projection @ rep_section is the identity in every degree.
    """

    complex: CochainComplex
    h_space: GradedSpace
    cocycles: tuple[Subspace, ...]
    coboundaries: tuple[Subspace, ...]
    rep_section: tuple[Matrix, ...]
    class_projection: tuple[Matrix, ...]
    quotients: tuple[QuotientSpace, ...]


def cohomology(c: CochainComplex) -> CohomologyResult:
    """Degreewise ker(d_q) / im(d_{q-1}) with sections and projections."""
    cocycles, coboundaries, secs, projs, quots, hdims = [], [], [], [], [], []
    for q in DEGREES:
        z = kernel_basis(c.d.block(q))
        b = image_basis(c.d.block(q - 1))
        # Z^q's echelon basis is the identity on its pivot rows, so a
        # cocycle's coordinates are its entries there; B^q consists of
        # cocycles since d o d = 0, checked when the complex was built
        piv = z.pivot_rows()
        qs = quotient(z.dim, Subspace.span(z.dim, b.basis.submatrix(piv, range(b.dim))))
        # the class projection reads those entries: the quotient's
        # projection with its columns placed at the pivot rows
        n = c.space.dim(q)
        at = dict(zip(piv, range(z.dim)))
        zero = Fraction(0)
        proj = tuple(tuple(row[at[j]] if j in at else zero for j in range(n)) for row in qs.projection.entries)
        # the quotient's section is the unit vectors at its non-pivot
        # coordinates, so a class's representative is that column of Z^q
        bpiv = set(qs.subspace.pivot_rows())
        cocycles.append(z)
        coboundaries.append(b)
        secs.append(z.basis.submatrix(range(n), (t for t in range(z.dim) if t not in bpiv)))
        projs.append(Matrix(qs.dim, n, proj))
        quots.append(qs)
        hdims.append(qs.dim)
    return CohomologyResult(
        c, GradedSpace(tuple(hdims)), tuple(cocycles), tuple(coboundaries),
        tuple(secs), tuple(projs), tuple(quots),
    )


def is_chain_map(f: GradedMap, c1: CochainComplex, c2: CochainComplex) -> bool:
    if f.source != c1.space or f.target != c2.space:
        return False
    for q in DEGREES:
        lhs = f.block(q + 1) @ c1.d.block(q)
        rhs = c2.d.block(q + f.shift) @ f.block(q)
        if lhs != rhs:
            return False
    return True


def induced_map(f: GradedMap, coh1: CohomologyResult, coh2: CohomologyResult) -> GradedMap:
    """Map induced on cohomology by a chain map, via representatives.

    Computed as class_projection_2 o f o rep_section_1 per degree; this is
    well defined because a chain map sends cocycles to cocycles and
    coboundaries to coboundaries, and it does not depend on the chosen
    representative section.
    """
    if not is_chain_map(f, coh1.complex, coh2.complex):
        raise NotAChainMap("map does not commute with the differentials")
    blocks = tuple(
        coh2.class_projection[_mod8(q + f.shift)] @ f.block(q) @ coh1.rep_section[q]
        for q in DEGREES
    )
    return GradedMap(coh1.h_space, coh2.h_space, f.shift, blocks)


def lefschetz(f: GradedMap) -> Fraction:
    """Alternating trace sum over the eight degrees of a self-map."""
    if f.source != f.target or f.shift != 0:
        raise ValueError("lefschetz needs a degree-preserving self-map")
    return sum(((-1) ** q * qlinalg.trace(f.block(q)) for q in DEGREES), Fraction(0))


def euler(s: GradedSpace) -> int:
    """Alternating sum of dimensions over the eight degrees."""
    return sum((-1) ** q * s.dims[q] for q in DEGREES)


def regrade(x):
    """Relabel degrees by q -> 5 - q mod 8 (an involution).

    Spaces swap their dimension vector; maps carry their blocks along
    unchanged (the new block at degree 5 - q is the old block at q) and
    the shift negates.  Traces per degree are preserved, so Lefschetz
    numbers negate because 5 - q flips parity, and Euler characteristics
    negate likewise.
    """
    if isinstance(x, GradedSpace):
        return GradedSpace(tuple(x.dims[_mod8(5 - q)] for q in DEGREES))
    if isinstance(x, GradedMap):
        return GradedMap(
            regrade(x.source), regrade(x.target), _mod8(-x.shift),
            tuple(x.blocks[_mod8(5 - q)] for q in DEGREES),
        )
    raise TypeError("regrade expects a GradedSpace or GradedMap")
