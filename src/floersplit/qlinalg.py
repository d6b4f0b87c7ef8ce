"""Exact rational linear algebra: echelon forms, kernels, images,
intersections, spans grown one vector at a time, quotients with chosen
sections, restrictions, traces.

Everything is immutable and canonical.  Scalars are ``fractions.Fraction``,
so all arithmetic is exact and every comparison downstream is an equality,
never a tolerance.  Inside a matrix product the arithmetic is on Python
ints: each operand is scaled by the lcm of its denominators, and each
nonzero result entry is divided once, so the product holds normalized
``Fraction`` entries like every other matrix.  Subspace bases are
kept in column-reduced echelon form, which makes subspace equality plain
representation equality.

There is one elimination, the running echelon form of ``RunningSpan``
behind ``rref``, ``solve`` and the kernels.  It keeps one sparse row per
pivot.  A caller that needs a vector's combination of the added vectors
appends unit vectors to them, the augmented matrix [A | I]: the entries
past the span's dimension ride along through every row operation and
never become pivots, so a residual's tail holds minus the combination.
Giving e_t to the t-th vector that grows the span keeps that tail no
wider than the span's dimension, however many dependent vectors come.
A canonical basis is the identity on its pivot rows, so subspace
coordinates are read there, and rebuilding the vectors from them checks
containment and invariance.

Matrix storage is dense; instance sizes in this engine are at most tens
of dimensions per degree.  Products skip zero factors and elimination
touches only stored nonzeros, since most operands (chain maps,
block-structured differentials, kernel bases) are mostly zero.  A
quotient by the zero subspace has identity projection and section, so
the map it induces is the map itself, returned without a product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .errors import InvarianceViolation

Q = Fraction


def _coerce(x) -> Fraction:
    # bool is an int subclass and a float is already inexact; refuse both
    # so that every stored entry is the exact rational the caller meant.
    if isinstance(x, (bool, float)):
        raise TypeError(f"{type(x).__name__} is not a rational scalar")
    return Fraction(x)


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix over the rationals, row-major.

    A 0 x n or n x 0 matrix is valid and represents a map to or from the
    zero space.
    """

    rows: int
    cols: int
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(self.entries) != self.rows:
            raise ValueError("row count mismatch")
        for r in self.entries:
            if len(r) != self.cols:
                raise ValueError("column count mismatch")

    # -- constructors ------------------------------------------------

    @staticmethod
    def from_rows(rows: Sequence[Sequence], cols: int | None = None) -> "Matrix":
        data = tuple(tuple(_coerce(x) for x in r) for r in rows)
        if cols is None:
            cols = len(data[0]) if data else 0
        return Matrix(len(data), cols, data)

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return Matrix(rows, cols, tuple(tuple(Q(0) for _ in range(cols)) for _ in range(rows)))

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(n, n, tuple(tuple(Q(1 if i == j else 0) for j in range(n)) for i in range(n)))

    @staticmethod
    def column(vec: Sequence) -> "Matrix":
        return Matrix(len(vec), 1, tuple((_coerce(x),) for x in vec))

    @staticmethod
    def row_vector(vec: Sequence, cols: int | None = None) -> "Matrix":
        return Matrix.from_rows([list(vec)], cols=cols if cols is not None else len(vec))

    # -- access ------------------------------------------------------

    def col(self, j: int) -> tuple[Fraction, ...]:
        return tuple(r[j] for r in self.entries)

    @property
    def is_zero(self) -> bool:
        return all(x == 0 for r in self.entries for x in r)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    # -- arithmetic --------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(
            self.rows,
            self.cols,
            tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.entries, other.entries)),
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(
            self.rows,
            self.cols,
            tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(self.entries, other.entries)),
        )

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols, tuple(tuple(-a for a in r) for r in self.entries))

    def scale(self, k) -> "Matrix":
        k = _coerce(k)
        return Matrix(self.rows, self.cols, tuple(tuple(k * a for a in r) for r in self.entries))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        # One product runs on integers: each operand is scaled by the lcm
        # of its denominators, ints are multiplied and summed, and each
        # nonzero result entry is divided once.  Most operands here are
        # mostly zero, so only nonzeros are read and no product has a zero
        # factor.
        ls, left = _scaled_nonzeros(self.entries)
        lo, right = _scaled_nonzeros(other.entries)
        scale, zero, out = ls * lo, Q(0), []
        for row in left:
            acc = [0] * other.cols
            for k, a in row:
                for j, b in right[k]:
                    acc[j] += a * b
            if scale == 1:
                out.append(tuple(Q(x) if x else zero for x in acc))
            else:
                out.append(tuple(Q(x, scale) if x else zero for x in acc))
        return Matrix(self.rows, other.cols, tuple(out))

    def transpose(self) -> "Matrix":
        return Matrix(
            self.cols, self.rows, tuple(tuple(self.entries[i][j] for i in range(self.rows)) for j in range(self.cols))
        )

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise ValueError("hstack: row mismatch")
        return Matrix(
            self.rows, self.cols + other.cols, tuple(ra + rb for ra, rb in zip(self.entries, other.entries))
        )

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols:
            raise ValueError("vstack: column mismatch")
        return Matrix(self.rows + other.rows, self.cols, self.entries + other.entries)

    def submatrix(self, row_idx: Iterable[int], col_idx: Iterable[int]) -> "Matrix":
        ri, ci = list(row_idx), list(col_idx)
        return Matrix(len(ri), len(ci), tuple(tuple(self.entries[i][j] for j in ci) for i in ri))

    def _same_shape(self, other: "Matrix"):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")

    def __repr__(self):
        if self.rows == 0 or self.cols == 0:
            return f"Matrix({self.rows}x{self.cols})"
        body = "; ".join(" ".join(str(x) for x in r) for r in self.entries)
        return f"Matrix[{body}]"


def _scaled_nonzeros(entries) -> tuple[int, list[list[tuple[int, int]]]]:
    """The lcm of the entries' denominators, and each row's nonzeros
    times it as (column, integer) pairs."""
    ratios = [[(j, x.as_integer_ratio()) for j, x in enumerate(r) if x] for r in entries]
    scale = math.lcm(*{d for r in ratios for _, (_, d) in r})
    if scale == 1:
        return 1, [[(j, n) for j, (n, _) in r] for r in ratios]
    return scale, [[(j, n * (scale // d)) for j, (n, d) in r] for r in ratios]


class RrefResult(NamedTuple):
    echelon: Matrix
    pivots: tuple[int, ...]
    rank: int


def rref(m: Matrix) -> RrefResult:
    """Unique reduced row echelon form with pivot columns and rank.

    The rows of m are added to one ``RunningSpan``; its rows in pivot
    order, then zero rows, are the one canonical RREF, so subspaces built
    from it stay equal exactly when their representations are.
    """
    span = RunningSpan(m.cols)
    for r in m.entries:
        span.add(r)
    zero_row = (Q(0),) * m.cols
    ech = Matrix(m.rows, m.cols, span.rows.entries + (zero_row,) * (m.rows - span.rank))
    return RrefResult(ech, tuple(sorted(span._rows)), span.rank)


def solve(a: Matrix, b: Matrix) -> Matrix | None:
    """One exact solution X of a @ X = b with free variables set to zero.

    Returns None when the system is inconsistent.  a's columns enter one
    running span, the t-th column to grow it with the unit vector e_t
    appended (there are at most a.rows), so each row's tail is its
    combination of those columns; b's columns enter with zeros appended,
    and minus a residual's tail is X's column at them.  A dependent column
    never enters the span, so its variable is zero.
    """
    if a.rows != b.rows:
        raise ValueError("solve: row mismatch")
    zero, one = Q(0), Q(1)
    span, entered = RunningSpan(a.rows), []
    for j in range(a.cols):
        t = span.rank
        if span.add(a.col(j) + (zero,) * t + (one,) + (zero,) * (a.rows - t - 1)):
            entered.append(j)
    x = [[zero] * b.cols for _ in range(a.cols)]
    for k in range(b.cols):
        r = span.residual(b.col(k) + (zero,) * a.rows)
        if any(r[: a.rows]):
            return None
        for t, j in enumerate(entered):
            x[j][k] = -r[a.rows + t]
    return Matrix(a.cols, b.cols, tuple(map(tuple, x)))


@dataclass(frozen=True)
class Subspace:
    """Subspace of Q^n with a canonical column-reduced echelon basis.

    The basis columns have leading ones in strictly increasing rows and
    each pivot row is zero in every other column, so two equal subspaces
    have identical representations.
    """

    ambient_dim: int
    basis: Matrix

    def __post_init__(self):
        if self.basis.rows != self.ambient_dim:
            raise ValueError("basis rows must equal ambient dimension")

    @staticmethod
    def span(ambient_dim: int, vectors: Matrix) -> "Subspace":
        """Canonical subspace spanned by the columns of ``vectors``."""
        if vectors.rows != ambient_dim:
            raise ValueError("span: ambient dimension mismatch")
        return _row_span(vectors.transpose())

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, Matrix.zeros(ambient_dim, 0))

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, Matrix.identity(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.cols

    def pivot_rows(self) -> tuple[int, ...]:
        # column j is zero above its pivot, which lies below column j - 1's
        out: list[int] = []
        for i, r in enumerate(self.basis.entries):
            if len(out) < self.dim and r[len(out)]:
                out.append(i)
        return tuple(out)


def _pivot_coordinates(s: Subspace, vectors: Matrix) -> Matrix | None:
    """Coordinates of the columns of ``vectors`` in s's basis, or None when
    one lies outside s.  The basis is the identity on its pivot rows, so
    the vectors' entries there are the only candidates, and a vector lies
    in s exactly when the basis times them rebuilds it."""
    if vectors.rows != s.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    coords = vectors.submatrix(s.pivot_rows(), range(vectors.cols))
    return coords if s.basis @ coords == vectors else None


def _row_span(vectors: Matrix) -> Subspace:
    """Canonical subspace spanned by the rows of ``vectors``."""
    ech, _, rank = rref(vectors)
    return Subspace(vectors.cols, Matrix(rank, vectors.cols, ech.entries[:rank]).transpose())


def kernel_basis(m: Matrix) -> Subspace:
    """Canonical basis of {v : m v = 0}; dimension is cols - rank."""
    span = RunningSpan(m.cols)
    for r in m.entries:
        span.add(r)
    return span.kernel()


class RunningSpan:
    """The span of vectors in Q^dim added one at a time, kept in one
    running reduced echelon form.

    A vector's first ``dim`` entries are eliminated on; any entries past
    them are carried through every row operation and never become pivots,
    the augmented matrix [A | I] when a caller appends unit vectors (a
    vector needs an entry at every column a row reaches).  There is one
    sparse row per pivot, 1 at its pivot and 0 at every other pivot.  Adding a vector
    reduces it against the rows and, when something is left in its first
    ``dim`` entries, eliminates the new pivot from the other rows; nothing
    is ever re-eliminated from scratch.
    """

    __slots__ = ("dim", "_rows")

    def __init__(self, dim: int):
        self.dim = dim
        self._rows: dict[int, dict[int, Fraction]] = {}  # pivot -> the row's nonzeros by column

    @property
    def rank(self) -> int:
        return len(self._rows)

    def residual(self, v: Sequence[Fraction]) -> list[Fraction]:
        """v minus its part in the span: zero in the first ``dim`` entries
        exactly when those entries lie in the span, and with every appended
        entry carried along."""
        if len(v) < self.dim:
            raise ValueError(f"vector of length {len(v)} in a span of Q^{self.dim}")
        residual = list(v)
        for p, row in self._rows.items():
            # every other row is zero at p, so v's own entry is the multiple
            if c := v[p]:
                for j, x in row.items():
                    residual[j] -= c * x
        return residual

    def add(self, v: Sequence[Fraction]) -> bool:
        """Add v; True exactly when the span grew."""
        nonzeros = [(j, x) for j, x in enumerate(self.residual(v)) if x]
        if not nonzeros or nonzeros[0][0] >= self.dim:
            return False
        pc, lead = nonzeros[0]
        # a leading 1, the usual case on integer data, needs no scaling
        row = dict(nonzeros) if lead == 1 else {j: x / lead for j, x in nonzeros}
        for other in self._rows.values():
            if f := other.get(pc):
                _axpy(other, -f, row)
        self._rows[pc] = row
        return True

    @property
    def rows(self) -> Matrix:
        """The reduced echelon rows in pivot order, first ``dim`` entries:
        ``rref`` of the added vectors stacked as rows, without its zero rows."""
        cols, zeros = range(self.dim), [Q(0)] * self.dim
        rows = (self._rows[p] for p in sorted(self._rows))
        return Matrix(self.rank, self.dim, tuple(tuple(map(r.get, cols, zeros)) for r in rows))

    def subspace(self) -> "Subspace":
        """The canonical subspace spanned so far."""
        return Subspace(self.dim, self.rows.transpose())

    def kernel(self) -> "Subspace":
        """The canonical common kernel of the rows, spanned by one vector per
        free column f: 1 at f and minus each row's entry at f at its pivot."""
        vectors = []
        for f in (j for j in range(self.dim) if j not in self._rows):
            v = [Q(0)] * self.dim
            v[f] = Q(1)
            for p, row in self._rows.items():
                if x := row.get(f):
                    v[p] = -x
            vectors.append(tuple(v))
        return _row_span(Matrix(len(vectors), self.dim, tuple(vectors)))


def _axpy(y: dict, a: Fraction, x: dict) -> None:
    """y += a * x on sparse dicts of nonzeros (a nonzero), dropping what cancels."""
    for j, v in x.items():
        if j not in y:
            y[j] = a * v
        elif t := y[j] + a * v:
            y[j] = t
        else:
            del y[j]


def image_basis(m: Matrix) -> Subspace:
    """Canonical basis of the column span; dimension is rank."""
    return Subspace.span(m.rows, m)


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Canonical basis of a meet b (Zassenhaus via a stacked kernel)."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(a.ambient_dim)
    stacked = a.basis.hstack(-b.basis)
    ker = kernel_basis(stacked)
    if ker.dim == 0:
        return Subspace.zero(a.ambient_dim)
    upart = ker.basis.submatrix(range(a.dim), range(ker.dim))
    return Subspace.span(a.ambient_dim, a.basis @ upart)


@dataclass(frozen=True)
class QuotientSpace:
    """Q^n / S with an explicit projection and section.

    The section hits the non-pivot coordinates of the subspace basis, a
    deterministic choice; projection @ section is the identity and the
    kernel of the projection is exactly the subspace.
    """

    ambient_dim: int
    subspace: Subspace
    projection: Matrix
    section: Matrix

    @property
    def dim(self) -> int:
        return self.projection.rows


def quotient(ambient_dim: int, s: Subspace) -> QuotientSpace:
    if s.ambient_dim != ambient_dim:
        raise ValueError("ambient dimension mismatch")
    pivots = s.pivot_rows()
    complement = [i for i in range(ambient_dim) if i not in pivots]
    m = len(complement)
    proj = [[Q(0)] * ambient_dim for _ in range(m)]
    for t, c in enumerate(complement):
        proj[t][c] = Q(1)
        for idx, p in enumerate(pivots):
            proj[t][p] -= s.basis.entries[c][idx]
    section = [[Q(0)] * m for _ in range(ambient_dim)]
    for t, c in enumerate(complement):
        section[c][t] = Q(1)
    return QuotientSpace(
        ambient_dim,
        s,
        Matrix(m, ambient_dim, tuple(tuple(r) for r in proj)),
        Matrix(ambient_dim, m, tuple(tuple(r) for r in section)),
    )


def restrict(f: Matrix, s: Subspace) -> Matrix:
    """Matrix of f on the invariant subspace s, in the basis of s."""
    if not f.is_square or f.rows != s.ambient_dim:
        raise ValueError("restrict: f must be square on the ambient space")
    x = _pivot_coordinates(s, f @ s.basis)
    if x is None:
        raise InvarianceViolation("map does not leave the subspace invariant")
    return x


def induced_on_quotient(f: Matrix, q: QuotientSpace) -> Matrix:
    """Matrix induced by f on the quotient, via projection o f o section.

    Requires f to map the quotient's subspace into itself; the result is
    independent of the section choice.  A quotient by zero returns f
    itself: its projection and section are identities, and there is no
    invariance to check.
    """
    if not f.is_square or f.rows != q.ambient_dim:
        raise ValueError("induced_on_quotient: f must be square on the ambient space")
    if q.subspace.dim == 0:
        return f
    if _pivot_coordinates(q.subspace, f @ q.subspace.basis) is None:
        raise InvarianceViolation("map does not leave the quotient's subspace invariant")
    return q.projection @ f @ q.section


def trace(f: Matrix) -> Fraction:
    """Sum of diagonal entries; the 0 x 0 matrix has trace 0."""
    if not f.is_square:
        raise ValueError("trace: matrix must be square")
    return sum((f.entries[i][i] for i in range(f.rows)), Q(0))
