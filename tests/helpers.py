"""Shared builders and independent oracles for the test suite.

Oracles here deliberately avoid the code paths they check: cohomology
dimensions come from rank-nullity counts, induced family members from
direct chain-level evaluation on a cocycle basis, and the splitting
quantities from their definitions recomputed with raw traces.
"""

from __future__ import annotations

import dataclasses
import random
import types
from fractions import Fraction

from hypothesis import strategies as st

from floersplit import gen
from floersplit.cobordism import validate_relations
from floersplit.graded import CochainComplex, GradedMap, GradedSpace
from floersplit.instance import LEVEL_COHOMOLOGY, Instance
from floersplit.qlinalg import Matrix, RrefResult, Subspace, intersect, kernel_basis, rref


def mat(rows, cols=None):
    return Matrix.from_rows(rows, cols=cols)


def dense_matmul(a: Matrix, b: Matrix) -> Matrix:
    """Reference product: every entry is a full dot product of a row with a
    column of the transpose, zero factors included."""
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch: {a.rows}x{a.cols} @ {b.rows}x{b.cols}")
    bt = b.transpose().entries
    return Matrix(
        a.rows,
        b.cols,
        tuple(
            tuple(sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in bt)
            for row in a.entries
        ),
    )


def word_matrices(n: int, word) -> tuple[Matrix, Matrix]:
    """P and P^-1 of a change-of-basis word of Q^n (``gen._unimodular``),
    built densely as the generator once built them: each row operation E
    on P (P <- E P) is undone on the right of P^-1 (P^-1 <- P^-1 E^-1,
    the inverse column operation), so P^-1 P stays the identity."""
    p = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    inv = [row[:] for row in p]
    for i, j, c in word:
        if i == j:
            p[i] = [-x for x in p[i]]
            for r in inv:
                r[i] = -r[i]
        elif c:
            for k in range(n):
                p[i][k] += c * p[j][k]
                inv[k][j] -= c * inv[k][i]
        else:
            p[i], p[j] = p[j], p[i]
            for r in inv:
                r[i], r[j] = r[j], r[i]

    def mk(rows):
        return Matrix(n, n, tuple(tuple(r) for r in rows))

    return mk(p), mk(inv)


def dense_rref(m: Matrix) -> RrefResult:
    """Reference Gauss-Jordan elimination: every row operation runs over
    the whole row, zero entries included."""
    a = [list(r) for r in m.entries]
    pivots: list[int] = []
    pr = 0
    for pc in range(m.cols):
        piv = next((i for i in range(pr, m.rows) if a[i][pc] != 0), None)
        if piv is None:
            continue
        a[pr], a[piv] = a[piv], a[pr]
        inv = 1 / a[pr][pc]
        a[pr] = [x * inv for x in a[pr]]
        for i in range(m.rows):
            if i != pr and a[i][pc] != 0:
                f = a[i][pc]
                a[i] = [x - f * y for x, y in zip(a[i], a[pr])]
        pivots.append(pc)
        pr += 1
        if pr == m.rows:
            break
    ech = Matrix(m.rows, m.cols, tuple(tuple(r) for r in a))
    return RrefResult(ech, tuple(pivots), len(pivots))


def dense_solve(a: Matrix, b: Matrix) -> Matrix | None:
    """Reference solve with free variables set to zero: ``dense_rref`` of
    the augmented matrix [a|b], read at its pivots; None when a pivot
    falls in the b-part."""
    if a.rows != b.rows:
        raise ValueError("solve: row mismatch")
    aug, augpiv, _ = dense_rref(a.hstack(b))
    # pivots of [a|b] inside the a-part are exactly the pivots of a;
    # a pivot in the b-part means the system is inconsistent
    if any(p >= a.cols for p in augpiv):
        return None
    x = [[Fraction(0)] * b.cols for _ in range(a.cols)]
    for r, pc in enumerate(augpiv):
        for j in range(b.cols):
            x[pc][j] = aug.entries[r][a.cols + j]
    return Matrix(a.cols, b.cols, tuple(tuple(r) for r in x))


def dense_kernel_basis(m: Matrix) -> Subspace:
    """Reference kernel: one vector per free variable read off
    ``dense_rref``, stacked as rows and made canonical by ``dense_rref``
    of that stack."""
    ech, pivots, _ = dense_rref(m)
    cols = []
    for f in (j for j in range(m.cols) if j not in pivots):
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -ech.entries[r][f]
        cols.append(v)
    if not cols:
        return Subspace.zero(m.cols)
    red = dense_rref(Matrix.from_rows(cols, cols=m.cols))
    rows = red.echelon.entries[: red.rank]
    return Subspace(m.cols, Matrix(red.rank, m.cols, rows).transpose())


def reference_tower(dim: int, q: int, members) -> list[Subspace]:
    """Every stage of the filtration tower walk as first written: a kernel
    stage intersects the previous stage with the member's kernel, a span
    stage is the span of the previous basis and the member side by side."""
    kernel = q in (0, 4)
    stage = Subspace.full(dim) if kernel else Subspace.zero(dim)
    stages = []
    for _, m in members:
        if kernel:
            stage = intersect(stage, kernel_basis(m))
        else:
            stage = Subspace.span(dim, stage.basis.hstack(m))
        stages.append(stage)
    return stages


# three in four entries zero, the rest small or with numerator and
# denominator above 2**100
above_2_100 = st.integers(2**100 + 1, 2**110)
huge = st.builds(
    lambda sign, p, q: Fraction(sign * p, q), st.sampled_from([1, -1]), above_2_100, above_2_100
)
sparse_scalars = st.tuples(
    st.integers(0, 3), st.one_of(st.integers(-4, 4), huge)
).map(lambda t: t[1] if t[0] == 0 else 0)
coefficients = st.one_of(
    st.integers(-3, 3), huge, st.fractions(min_value=-3, max_value=3, max_denominator=7)
)


@st.composite
def vector_sequences(draw, max_dim=6, max_count=8):
    """(dim, vectors): mostly-zero vectors in Q^dim, dim 0 included, mixed
    with zero ones, repeats and combinations of earlier ones (non-integral
    and huge coefficients), so that many additions leave a span unchanged."""
    dim = draw(st.integers(0, max_dim))
    vectors: list[tuple[Fraction, ...]] = []
    for _ in range(draw(st.integers(0, max_count))):
        kind = draw(st.sampled_from(("sparse", "zero", "repeat", "combination")))
        if kind == "sparse" or (kind != "zero" and not vectors):
            v = draw(st.lists(sparse_scalars, min_size=dim, max_size=dim))
        elif kind == "zero":
            v = [0] * dim
        elif kind == "repeat":
            v = draw(st.sampled_from(vectors))
        else:
            picks = draw(st.lists(st.sampled_from(vectors), min_size=1, max_size=3))
            cs = draw(st.lists(coefficients, min_size=len(picks), max_size=len(picks)))
            v = [sum((c * u[j] for c, u in zip(cs, picks)), Fraction(0)) for j in range(dim)]
        vectors.append(tuple(Fraction(x) for x in v))
    return dim, vectors


def graded_space(*dims):
    return GradedSpace.of(dims)


def zero_map(space, shift=0):
    """The zero endomap of ``space`` raising degree by ``shift``."""
    return GradedMap(
        space, space, shift,
        tuple(Matrix.zeros(space.dim(q + shift), space.dim(q)) for q in range(8)),
    )


def compose(g: GradedMap, f: GradedMap) -> GradedMap:
    """g o f (apply ``f`` first), block by block."""
    assert f.target == g.source
    blocks = tuple(g.block(q + f.shift) @ f.block(q) for q in range(8))
    return GradedMap(f.source, g.target, g.shift + f.shift, blocks)


def contains(s: Subspace, other: Subspace) -> bool:
    """Whether ``other`` lies in ``s``: adding its basis to s's leaves the
    span's dimension unchanged."""
    return Subspace.span(s.ambient_dim, s.basis.hstack(other.basis)).dim == s.dim


def blocks_map(space, shift, block_dict):
    """Graded endomap with the given blocks, zero elsewhere."""
    blocks = []
    for q in range(8):
        if q in block_dict:
            blocks.append(block_dict[q])
        else:
            blocks.append(Matrix.zeros(space.dim(q + shift), space.dim(q)))
    return GradedMap(space, space, shift, tuple(blocks))


def two_term_complex():
    """dims (0,2,1,0,...), d_1 = [[1,0]]: one surviving class in degree 1."""
    space = graded_space(0, 2, 1, 0, 0, 0, 0, 0)
    d = blocks_map(space, 1, {1: mat([[1, 0]])})
    return CochainComplex(space, d)


def oracle_cohomology_dims(cx: CochainComplex) -> tuple[int, ...]:
    """Rank-nullity count: dim ker(d_q) - rank(d_{q-1})."""
    dims = []
    for q in range(8):
        null = cx.space.dim(q) - rref(cx.d.block(q)).rank
        dims.append(null - rref(cx.d.block(q - 1)).rank)
    return tuple(dims)


def oracle_family_on_cocycles(cx, delta, delta_prime, v, n):
    """Direct chain-level evaluation of the induced families.

    Returns (functional member n as a row on the cocycle basis of its
    degree, vector member n as a chain-level column).  Only chain data
    and kernel bases are used; classes and representative sections are
    not.
    """
    from floersplit.froyshov import delta_degree

    deg = delta_degree(n)
    cocycles = kernel_basis(cx.d.block(deg))
    composite = cocycles.basis
    q = deg
    for _ in range(n):
        composite = v.block(q) @ composite
        q = (q + 4) % 8
    functional = delta @ composite  # 1 x dim cocycles

    vec = delta_prime
    q = 1
    for _ in range(n):
        vec = v.block(q) @ vec
        q = (q + 4) % 8
    return functional, vec


def oracle_splitting_sides(instance):
    """Both sides of the identities straight from definitions.

    Uses only raw block traces and kernel/image dimension counts; the
    reduced side is recomputed here from scratch rather than taken from
    the engine's reduced structures.  Z^q is one kernel of all the
    functionals acting at degree q stacked as rows, and B^q one span of
    all the vectors acting there stacked as columns, with no tower walk.
    """
    from floersplit.qlinalg import Subspace, induced_on_quotient, quotient, restrict, trace

    sp, w = instance.pair, instance.w
    n_range = range(sp.n_max + 1)
    z, b = [], []
    for q in range(8):
        dim = instance.space.dim(q)
        # functionals: degree 4 for even n, 0 for odd; vectors: 1 for even n, 5 for odd
        rows = [sp.deltas[n].entries[0] for n in n_range if (q, n % 2) in ((4, 0), (0, 1))]
        cols = [sp.deltas_prime[n].col(0) for n in n_range if (q, n % 2) in ((1, 0), (5, 1))]
        z.append(kernel_basis(Matrix.from_rows(rows, cols=dim)))
        b.append(Subspace.span(dim, Matrix.from_rows(cols, cols=dim).transpose()))
    lef_w = sum((Fraction((-1) ** q) * trace(w.block(q)) for q in range(8)), Fraction(0))
    lef_hat = Fraction(0)
    chi = 0
    chi_red = 0
    for q in range(8):
        chi += (-1) ** q * instance.space.dim(q)
        chi_red += (-1) ** q * (z[q].dim - b[q].dim)
        on_z = restrict(w.block(q), z[q])
        b_in_z = dense_solve(z[q].basis, b[q].basis)
        qs = quotient(z[q].dim, Subspace.span(z[q].dim, b_in_z))
        lef_hat += Fraction((-1) ** q) * trace(induced_on_quotient(on_z, qs))
    lam = -lef_w / 2
    hx = (lef_w - lef_hat) / 2
    hy = Fraction(chi - chi_red, 2)
    return {
        "lef_w": lef_w, "lef_hat": lef_hat, "lambda": lam,
        "h_x": hx, "h_y": hy, "splitting_rhs": -lef_hat / 2,
    }


def random_small_matrix(rng: random.Random, rows, cols, bound=3):
    return Matrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)], cols=cols
    )


def random_split_complex(rng: random.Random, max_part=2):
    """Small complex with d mapping an acyclic slot one degree up.

    Returns (complex, acyclic ranks, harmonic ranks).  Written here from
    scratch so graded-module tests do not lean on the generator.
    """
    a = [rng.randint(0, max_part) for _ in range(8)]
    h = [rng.randint(0, max_part) for _ in range(8)]
    cf = [a[q] + a[(q - 1) % 8] + h[q] for q in range(8)]
    space = GradedSpace.of(cf)
    blocks = []
    for q in range(8):
        t = (q + 1) % 8
        rows = [[Fraction(0)] * cf[q] for _ in range(cf[t])]
        for i in range(a[q]):
            rows[a[t] + i][i] = Fraction(1)
        blocks.append(Matrix.from_rows(rows, cols=cf[q]))
    return CochainComplex(space, GradedMap(space, space, 1, tuple(blocks))), a, h


def chain_special_for(rng, cx, a, h, delta_class_zero=False, prime_class_zero=False, bound=2):
    """Valid chain-level special data on a split complex.

    The degree-4 functional vanishes on the image slot; the degree-1
    vector avoids the acyclic slot so it is a cocycle; either class can
    be forced to vanish to pick a dichotomy side.
    """
    from floersplit.froyshov import ChainSpecial

    cf4, cf1 = cx.space.dim(4), cx.space.dim(1)
    b4, b1 = a[3], a[0]
    delta = [rng.randint(-bound, bound) for _ in range(cf4)]
    for i in range(b4):
        delta[a[4] + i] = 0
    if delta_class_zero:
        for i in range(h[4]):
            delta[cf4 - h[4] + i] = 0
    prime = [rng.randint(-bound, bound) for _ in range(cf1)]
    for i in range(a[1]):
        prime[i] = 0
    if prime_class_zero:
        for i in range(h[1]):
            prime[cf1 - h[1] + i] = 0
    v = random_chain_selfmap(rng, cx, a, h, shift=4, bound=bound)
    return ChainSpecial(
        Matrix.from_rows([delta], cols=cf4), Matrix.column(prime), v
    )


def random_chain_selfmap(rng: random.Random, cx: CochainComplex, a, h, shift=0, bound=2):
    """Random chain self-map of a split complex (see random_split_complex)."""
    cf = list(cx.space.dims)
    aa = {q: random_small_matrix(rng, a[(q + shift) % 8], a[q], bound) for q in range(8)}
    blocks = []
    for q in range(8):
        t = (q + shift) % 8
        bq, bt = a[(q - 1) % 8], a[(t - 1) % 8]
        rows = [[Fraction(0)] * cf[q] for _ in range(cf[t])]

        def put(block, r0, c0):
            for i in range(block.rows):
                for j in range(block.cols):
                    rows[r0 + i][c0 + j] = block.entries[i][j]

        put(aa[q], 0, 0)
        put(random_small_matrix(rng, bt, a[q], bound), a[t], 0)
        put(random_small_matrix(rng, h[t], a[q], bound), a[t] + bt, 0)
        put(aa[(q - 1) % 8], a[t], a[q])
        put(random_small_matrix(rng, bt, h[q], bound), a[t], a[q] + bq)
        put(random_small_matrix(rng, h[t], h[q], bound), a[t] + bt, a[q] + bq)
        blocks.append(Matrix.from_rows(rows, cols=cf[q]))
    return GradedMap(cx.space, cx.space, shift, tuple(blocks))


def perturb_w(w: GradedMap, sp, k: int) -> GradedMap:
    """W with the block that member k of the nonzero family acts on moved
    by half a rank-one term through that member.

    The shift puts member k's own defect on a multiple of itself (a
    violation unless that multiple is zero) and moves higher same-parity
    defects within the span of member k (half-integral coefficients).
    A both-zero pair leaves W unchanged.
    """
    from floersplit.froyshov import Case, delta_degree, delta_prime_degree

    if sp.case is Case.DELTA_SIDE:
        q, m = delta_degree(k), sp.deltas[k]
        bump = Matrix.from_rows([[1]] * m.cols, cols=1) @ m
    elif sp.case is Case.DELTA_PRIME_SIDE:
        q, m = delta_prime_degree(k), sp.deltas_prime[k]
        bump = m @ Matrix.from_rows([[1] * m.rows], cols=m.rows)
    else:
        return w
    blocks = list(w.blocks)
    blocks[q] = blocks[q] + bump.scale(Fraction(1, 2))
    return GradedMap(w.source, w.target, w.shift, tuple(blocks))


def product_cobordism(instance: Instance) -> Instance:
    """Same spaces and special pair, cobordism map replaced by identity."""
    chain_ident = GradedMap.identity(instance.complex.space) if instance.complex else None
    return dataclasses.replace(
        instance, w=GradedMap.identity(instance.space), w_label="product", chain_w=chain_ident
    )


def redraw_cobordism(instance: Instance, seed: int) -> Instance:
    """Fresh valid cobordism map for the same space and special pair.

    Used to exercise independence of the reported invariants from the
    choice of map; new correction coefficients are planted and a new
    solution of the relation system is drawn.
    """
    sp, space = instance.pair, instance.space
    blocks, _, _ = gen._w_blocks(random.Random(seed), space, sp, periodic=False)
    w = GradedMap(space, space, 0, tuple(blocks))
    assert validate_relations(w, sp).ok, f"redrawn cobordism failed validation (seed {seed})"
    # the fresh map has no chain-level lift, so the result is a plain
    # cohomology-level instance
    return dataclasses.replace(
        instance,
        w=w, w_label=f"W(redraw={seed})",
        level=LEVEL_COHOMOLOGY, complex=None, chain_special=None, chain_w=None,
    )


class _UpperEndRandom(random.Random):
    """``random.Random`` whose first ``upper`` ``randint`` draws return
    their upper end; later draws are the seeded stream's."""

    def __init__(self, seed, upper: int):
        super().__init__(seed)
        self.upper = upper

    def randint(self, a, b):
        if self.upper:
            self.upper -= 1
            return b
        return super().randint(a, b)


def gen_at_upper_end(cfg: gen.GenConfig) -> Instance:
    """``gen.gen_instance(cfg)`` with every dimension draw at its upper end:
    the generator's first 8 ``randint`` draws (the degree dimensions), or
    16 at chain level (acyclic and harmonic ranks), return their bound."""
    draws = 16 if cfg.chain_level else 8
    real = gen.random
    gen.random = types.SimpleNamespace(Random=lambda seed: _UpperEndRandom(seed, draws))
    try:
        return gen.gen_instance(cfg)
    finally:
        gen.random = real
