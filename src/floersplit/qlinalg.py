"""Exact rational linear algebra: echelon forms, kernels, images,
intersections, spans grown one vector at a time, quotients with chosen
sections, restrictions, traces.

Everything is immutable and canonical.  Scalars are ``fractions.Fraction``,
so all arithmetic is exact and every comparison downstream is an equality,
never a tolerance.  Subspace bases are kept in column-reduced echelon form,
which makes subspace equality plain representation equality.

Matrix storage is dense; instance sizes in this engine are at most tens
of dimensions per degree.  Products skip zero factors and elimination
skips zero entries of the pivot row, since most operands (chain maps,
block-structured differentials, kernel bases) are mostly zero.  A
quotient by the zero subspace has identity projection and section, so
the map it induces is the map itself, returned without a product.
"""

from __future__ import annotations

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

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i][j]

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
        # Most operands here are mostly zero: read the right operand's
        # nonzeros once per row and skip every product with a zero factor.
        nonzeros = [[(j, b) for j, b in enumerate(r) if b] for r in other.entries]
        out = []
        for row in self.entries:
            acc = [Q(0)] * other.cols
            for a, nz in zip(row, nonzeros):
                if a:
                    for j, b in nz:
                        acc[j] += a * b
            out.append(tuple(acc))
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


class RrefResult(NamedTuple):
    echelon: Matrix
    pivots: tuple[int, ...]
    rank: int


def rref(m: Matrix) -> RrefResult:
    """Unique reduced row echelon form with pivot columns and rank.

    Row operations touch only the pivot row's nonzeros, which all lie at
    or after the pivot column; the result is still the one canonical
    RREF, so subspaces built from it stay equal exactly when their
    representations are.
    """
    a = [list(r) for r in m.entries]
    pivots: list[int] = []
    pr = 0
    for pc in range(m.cols):
        piv = next((i for i in range(pr, m.rows) if a[i][pc]), None)
        if piv is None:
            continue
        a[pr], a[piv] = a[piv], a[pr]
        row = a[pr]
        inv = 1 / row[pc]
        nonzeros = [(j, x * inv) for j in range(pc, m.cols) if (x := row[j])]
        for j, x in nonzeros:
            row[j] = x
        for i, other in enumerate(a):
            f = other[pc]
            if f and i != pr:
                for j, y in nonzeros:
                    other[j] -= f * y
        pivots.append(pc)
        pr += 1
        if pr == m.rows:
            break
    ech = Matrix(m.rows, m.cols, tuple(tuple(r) for r in a))
    return RrefResult(ech, tuple(pivots), len(pivots))


def solve(a: Matrix, b: Matrix) -> Matrix | None:
    """One exact solution X of a @ X = b with free variables set to zero.

    Returns None when the system is inconsistent.  b may have any number
    of columns; each is solved against the same elimination.
    """
    if a.rows != b.rows:
        raise ValueError("solve: row mismatch")
    aug, augpiv, _ = rref(a.hstack(b))
    # pivots of [a|b] inside the a-part are exactly the pivots of a;
    # a pivot in the b-part means the system is inconsistent
    if any(p >= a.cols for p in augpiv):
        return None
    x = [[Q(0)] * b.cols for _ in range(a.cols)]
    for r, pc in enumerate(augpiv):
        for j in range(b.cols):
            x[pc][j] = aug.entries[r][a.cols + j]
    return Matrix(a.cols, b.cols, tuple(tuple(r) for r in x))


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
        out = []
        for j in range(self.basis.cols):
            col = self.basis.col(j)
            out.append(next(i for i, x in enumerate(col) if x != 0))
        return tuple(out)

    def contains(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        if other.dim == 0:
            return True
        return solve(self.basis, other.basis) is not None

    def coordinates_of(self, vectors: Matrix) -> Matrix:
        """Coordinates of the given column vectors in this basis."""
        x = solve(self.basis, vectors)
        if x is None:
            raise ValueError("vectors not contained in subspace")
        return x


def _row_span(vectors: Matrix) -> Subspace:
    """Canonical subspace spanned by the rows of ``vectors``."""
    ech, _, rank = rref(vectors)
    return Subspace(vectors.cols, Matrix(rank, vectors.cols, ech.entries[:rank]).transpose())


def kernel_basis(m: Matrix) -> Subspace:
    """Canonical basis of {v : m v = 0}; dimension is cols - rank."""
    ech, pivots, _ = rref(m)
    free = [j for j in range(m.cols) if j not in pivots]
    if not free:
        return Subspace.zero(m.cols)
    rows = []
    for f in free:
        v = [Q(0)] * m.cols
        v[f] = Q(1)
        for r, pc in enumerate(pivots):
            v[pc] = -ech.entries[r][f]
        rows.append(tuple(v))
    return _row_span(Matrix(len(free), m.cols, tuple(rows)))


class RunningSpan:
    """The span of vectors in Q^dim added one at a time, kept in one
    running reduced echelon form.

    Each row is 1 at its pivot and 0 at every other pivot, and carries its
    combination of the independent vectors added so far (those for which
    ``add`` returned True), keyed by the caller's distinct keys.  Adding a
    vector reduces it against the rows and, when something is left,
    eliminates the new pivot from the other rows; nothing is ever
    re-eliminated from scratch.  ``coordinates`` equals ``solve`` against
    the added vectors stacked as columns with free variables set to zero,
    since the independent vectors are exactly that matrix's pivot columns.
    """

    __slots__ = ("dim", "_rows")

    def __init__(self, dim: int):
        self.dim = dim
        # pivot -> (the row's nonzeros by column, its combination by key)
        self._rows: dict[int, tuple[dict[int, Fraction], dict]] = {}

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _reduce(self, v: Sequence[Fraction]):
        """v minus its part in the span, and that part's combination."""
        if len(v) != self.dim:
            raise ValueError(f"vector of length {len(v)} in a span of Q^{self.dim}")
        residual = list(v)
        coeffs: dict = {}
        for p, (row, combo) in self._rows.items():
            # every other row is zero at p, so v's own entry is the multiple
            c = v[p]
            if c:
                for j, x in row.items():
                    residual[j] -= c * x
                for k, y in combo.items():
                    coeffs[k] = coeffs.get(k, 0) + c * y
        return residual, coeffs

    def coordinates(self, v: Sequence[Fraction]) -> dict | None:
        """v's combination of the independent vectors (a missing key has
        coefficient zero), or None when v lies outside the span."""
        residual, coeffs = self._reduce(v)
        return None if any(residual) else coeffs

    def add(self, key, v: Sequence[Fraction]) -> bool:
        """Add v under ``key``; True exactly when the span grew."""
        residual, coeffs = self._reduce(v)
        pc = next((j for j, x in enumerate(residual) if x), None)
        if pc is None:
            return False
        inv = Q(1) / residual[pc]
        row = {j: x * inv for j, x in enumerate(residual) if x}
        combo = {k: -c * inv for k, c in coeffs.items() if c}
        combo[key] = inv
        for other, other_combo in self._rows.values():
            if f := other.get(pc):
                _axpy(other, -f, row)
                _axpy(other_combo, -f, combo)
        self._rows[pc] = (row, combo)
        return True

    @property
    def rows(self) -> Matrix:
        """The reduced echelon rows in pivot order: ``rref`` of the added
        vectors stacked as rows, without its zero rows."""
        zero, cols = Q(0), range(self.dim)
        rows = (self._rows[p][0] for p in sorted(self._rows))
        return Matrix(self.rank, self.dim, tuple(tuple(r.get(j, zero) for j in cols) for r in rows))

    def subspace(self) -> "Subspace":
        """The canonical subspace spanned so far."""
        return Subspace(self.dim, self.rows.transpose())


def _axpy(y: dict, a: Fraction, x: dict) -> None:
    """y += a * x on sparse dicts, dropping entries that cancel."""
    for j, v in x.items():
        if t := y.get(j, 0) + a * v:
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
    x = solve(s.basis, f @ s.basis)
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
    if solve(q.subspace.basis, f @ q.subspace.basis) is None:
        raise InvarianceViolation("map does not leave the quotient's subspace invariant")
    return q.projection @ f @ q.section


def trace(f: Matrix) -> Fraction:
    """Sum of diagonal entries; the 0 x 0 matrix has trace 0."""
    if not f.is_square:
        raise ValueError("trace: matrix must be square")
    return sum((f.entries[i][i] for i in range(f.rows)), Q(0))
