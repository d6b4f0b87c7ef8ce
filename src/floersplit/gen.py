"""Seeded random generator of structurally valid instances.

Instances are built so that the relation constraints hold by
construction: correction coefficients are planted first and the cobordism
blocks are then solved from the resulting affine-linear system (one
particular solution plus a random element of the homogeneous solution
space).  Rejection sampling would essentially never hit the relation set.

A family member lying in the span of the lower same-parity members has
its relation satisfied automatically once the lower ones hold, so only
the independent members contribute equations and planted coefficients;
the included rows are then linearly independent and the solve cannot
fail.  The generator does not re-check the relations it planted: its
consumers validate every instance they verify (``verify_splitting``), so
a generator defect surfaces there as a relation error on an instance
that can be dumped and replayed, and the tests check the construction,
also with every dimension draw at its upper end.

Chain-level complexes are drawn in split form: each degree decomposes
into an acyclic part mapped isomorphically one degree up and a harmonic
part, which plants the cohomology; the whole package (differential,
degree +4 operator, special data, cobordism map) is then conjugated by a
random unimodular word of shears, swaps and negations per degree, applied
as row and column operations, so nothing stays coordinate-aligned.  The
loader's constructor, ``instance.chain_instance``, builds the instance
from that package, so it equals its loaded document by construction.
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import Infeasible, ValidationError
from .froyshov import (
    FAMILIES,
    MAX_N_MAX,
    Case,
    ChainSpecial,
    SpecialPair,
    derive_case,
    krylov_families,
    tower_members,
)
from .graded import CochainComplex, GradedMap, GradedSpace
from .instance import COHOMOLOGY, Instance, LEVEL_COHOMOLOGY, chain_instance
from .qlinalg import Matrix, RunningSpan, solve

_CASES = (Case.DELTA_SIDE, Case.DELTA_PRIME_SIDE, Case.BOTH_ZERO)

# Drawn integer entries, planted coefficients and member multiples lie in
# [-ENTRY_BOUND, ENTRY_BOUND].
ENTRY_BOUND = 3

# The largest max_dim a config accepts: blocks are up to max_dim x
# max_dim (chain level about twice that), built as dense exact matrices.
MAX_GEN_DIM = 64


@dataclass(frozen=True)
class GenConfig:
    seed: int
    max_dim: int = 6
    n_max: int = 4
    case_mix: tuple[float, float, float] = (2.0, 2.0, 1.0)
    periodic: bool = False
    chain_level: bool = False

    def __post_init__(self):
        for name in ("seed", "max_dim", "n_max"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValidationError(f"{name} must be an int, not {type(value).__name__}")
        if self.max_dim < 0:
            raise ValidationError("max_dim must be nonnegative")
        if self.max_dim > MAX_GEN_DIM:
            raise ValidationError(f"max_dim {self.max_dim} is past {MAX_GEN_DIM}")
        if self.n_max < 1:
            raise ValidationError("n_max must be at least 1")
        # the largest n_max an emitted document can carry: chain-level
        # families grow past n_max until stable (krylov_families), and
        # periodic ones get an odd n_max
        reach = self.n_max
        if self.chain_level:
            reach += 2 * (self.max_dim + 2)
        elif self.periodic and self.n_max % 2 == 0:
            reach += 1
        if reach > MAX_N_MAX:
            raise ValidationError(
                f"n_max {self.n_max} can emit documents with n_max up to {reach}, past {MAX_N_MAX}"
            )
        mix = self.case_mix
        if len(mix) != 3 or any(w < 0 for w in mix) or not any(mix):
            raise ValidationError("case_mix needs 3 nonnegative weights, not all zero")
        try:
            finite = all(map(math.isfinite, mix)) and math.isfinite(sum(mix))
        except OverflowError:  # an int too large for a float
            finite = False
        if not finite:
            raise ValidationError("case_mix needs finite weights with a finite total")


def _rand_matrix(rng: random.Random, rows: int, cols: int) -> Matrix:
    return Matrix.from_rows(
        [[rng.randint(-ENTRY_BOUND, ENTRY_BOUND) for _ in range(cols)] for _ in range(rows)], cols=cols
    )


def _draw_member(rng, shape, prev):
    """One family member: usually random, sometimes zero or a multiple of
    an earlier member so that inactive tower steps and underdetermined
    coefficient solves actually occur in sweeps."""
    rows, cols = shape
    roll = rng.random()
    if roll < 0.18:
        return Matrix.zeros(rows, cols)
    nonzero_prev = [m for m in prev if not m.is_zero]
    if roll < 0.33 and nonzero_prev:
        k = rng.randint(1, ENTRY_BOUND) * rng.choice((-1, 1))
        return rng.choice(nonzero_prev).scale(k)
    return _rand_matrix(rng, rows, cols)


def _solve_member_block(rng, dim, members, planted):
    """Solve member_n @ B = member_n + sum of planted * lower members.

    ``members`` are (n, row) pairs of one parity, ascending.  Members in
    the span of their lower family are skipped (their relation follows
    from the lower ones); coefficients are planted for the rest, over all
    lower same-parity indices, and recorded in ``planted``.
    """
    if not members:
        return _rand_matrix(rng, dim, dim)
    span = RunningSpan(dim)
    d_mat = Matrix.zeros(0, dim)
    r_mat = Matrix.zeros(0, dim)
    for idx, (n, row) in enumerate(members):
        if span.add(n, row.entries[0]):
            rhs = row
            for i, row_i in members[:idx]:
                c = rng.randint(-ENTRY_BOUND, ENTRY_BOUND)
                planted[(i, n)] = c
                rhs = rhs + row_i.scale(c)
            d_mat = d_mat.vstack(row)
            r_mat = r_mat.vstack(rhs)
    part = solve(d_mat, r_mat)  # never None: the included rows are independent
    ker = span.kernel()
    if ker.dim:
        part = part + ker.basis @ _rand_matrix(rng, ker.dim, dim)
    return part


def _solve_vector_block(rng, dim, members, planted):
    """Solve B @ member_n = member_n + sum of planted * lower members."""
    rows = [(n, col.transpose()) for n, col in members]
    return _solve_member_block(rng, dim, rows, planted).transpose()


def _w_blocks(rng, space, pair, periodic):
    """Cobordism blocks with the relations planted by construction.

    The blocks a family acts on are solved from its relations (see
    ``_solve_member_block``) and every other block is drawn at random, in
    increasing degree.  In periodic mode the linked towers are identical
    systems: only the even-indexed tower is solved, its solution and
    coefficients are mirrored onto the odd one, and every block of degree
    q + 4 repeats degree q.  Returns (blocks, planted functional-side
    coefficients, planted vector-side coefficients).
    """
    planted_a: dict[tuple[int, int], int] = {}
    planted_b: dict[tuple[int, int], int] = {}
    if pair.case is Case.DELTA_SIDE:
        degrees, planted, solver = (4, 0), planted_a, _solve_member_block
    elif pair.case is Case.DELTA_PRIME_SIDE:
        degrees, planted, solver = (1, 5), planted_b, _solve_vector_block
    else:
        degrees, planted, solver = (), None, None
    solved: dict[int, Matrix] = {}
    for q in degrees[:1] if periodic else degrees:
        solved[q] = solver(rng, space.dim(q), tower_members(pair, q), planted)
        if periodic:
            solved[(q + 4) % 8] = solved[q]
            # copy even-pair coefficients onto the linked odd pairs
            planted.update({(i + 1, n + 1): c for (i, n), c in planted.items() if n % 2 == 0})
    blocks: list[Matrix] = []
    for q in range(8):
        if periodic and q >= 4:
            blocks.append(blocks[q - 4])
        elif q in solved:
            blocks.append(solved[q])
        else:
            blocks.append(_rand_matrix(rng, space.dim(q), space.dim(q)))
    return blocks, planted_a, planted_b


def _draw_pair(rng, space, case, n_eff, periodic):
    """Draw the family that ``case`` allows; the other stays zero."""
    families = []
    for fam in FAMILIES:
        shapes = [fam.shape(space.dim(fam.degree(n))) for n in range(n_eff + 1)]
        members = [Matrix.zeros(*shape) for shape in shapes]
        for n in range(n_eff + 1) if case is fam.case else ():
            if periodic and n % 2 == 1:
                members[n] = members[n - 1]
            else:
                prev = [members[i] for i in range(n % 2, n, 2)]
                members[n] = _draw_member(rng, shapes[n], prev)
        families.append(tuple(members))
    deltas, primes = families
    # an unlucky draw may leave the active family all zero; retag
    return SpecialPair(n_eff, deltas, primes, derive_case(deltas, primes))


def _planted_metadata(planted_a, planted_b):
    return {
        "planted_a": sorted([i, n, c] for (i, n), c in planted_a.items()),
        "planted_b": sorted([i, n, c] for (i, n), c in planted_b.items()),
    }


def gen_instance(cfg: GenConfig) -> Instance:
    """Deterministic-in-seed cohomology-level instance.

    The relations and the dichotomy hold by construction, and identical
    configs give identical instances; consumers and tests check the
    relations, so no check runs here.
    """
    if cfg.chain_level:
        return gen_chain_instance(cfg)
    rng = random.Random(cfg.seed)
    dims = [rng.randint(0, cfg.max_dim) for _ in range(8)]
    if cfg.periodic:
        dims[4:] = dims[:4]
    space = GradedSpace.of(dims)
    case = rng.choices(_CASES, weights=cfg.case_mix)[0]
    n_eff = cfg.n_max
    if cfg.periodic and n_eff % 2 == 0:
        n_eff += 1  # keep the linked towers the same length
    sp = _draw_pair(rng, space, case, n_eff, cfg.periodic)

    blocks, planted_a, planted_b = _w_blocks(rng, space, sp, cfg.periodic)
    w = GradedMap(space, space, 0, tuple(blocks))

    return Instance(
        space=space,
        pair=sp,
        w=w,
        w_label=f"W(seed={cfg.seed})",
        convention=COHOMOLOGY,
        level=LEVEL_COHOMOLOGY,
        metadata={
            "name": f"gen-{cfg.seed}",
            "seed": cfg.seed,
            "generator": "gen_instance",
            "case": sp.case.value,
            **_planted_metadata(planted_a, planted_b),
        },
    )


# -- chain level -----------------------------------------------------


def _unimodular(rng: random.Random, n: int):
    """Random unimodular change of basis P = E_k ... E_1 of Q^n, as the
    word [E_1, ..., E_k] of elementary row operations drawn for it.

    A letter (i, j, c) adds c * row j to row i (a shear; a zero shear is
    drawn, then dropped), swaps rows i and j when c == 0, and negates row
    i when i == j.  ``_change_basis`` applies words; no matrix is built.
    """
    word = []
    for _ in range(2 * n + 2 if n else 0):
        kind = rng.random()
        i, j = rng.randrange(n), rng.randrange(n)
        if kind < 0.7 and i != j:
            c = rng.randint(-2, 2)
            if c:
                word.append((i, j, c))
        elif kind < 0.9 and i != j:
            word.append((i, j, 0))
        else:
            word.append((i, i, -1))
    return word


def _change_basis(m: Matrix, target_word, source_word) -> Matrix:
    """P_t @ m @ P_s^-1 for the words of P_t and P_s, skipping zero entries.

    The target word's letters act on m's rows in drawn order.  P_s^-1 =
    E_1^-1 ... E_k^-1 acts on columns in drawn order too, and the inverse
    of letter (i, j, c) on columns is (j, i, -c) on the transpose's rows.
    """
    for word in (target_word, [(j, i, -c) for i, j, c in source_word]):
        a = [list(r) for r in m.entries]
        for i, j, c in word:
            if i == j:
                a[i] = [-x for x in a[i]]
            elif c:
                row_i = a[i]
                for k, x in enumerate(a[j]):
                    if x:
                        row_i[k] += c * x
            else:
                a[i], a[j] = a[j], a[i]
        m = Matrix(m.rows, m.cols, tuple(map(tuple, a))).transpose()
    return m


def _split_chain_map(rng, a, h, cf, shift, hh_blocks):
    """Chain map in the split basis: per degree [acyclic | image | harmonic].

    The image part is forced to follow the acyclic part one degree down
    and three sub-blocks vanish; everything else is free.  The harmonic
    diagonal is prescribed where a cohomology-level block was solved.
    Returns the blocks and the harmonic diagonal blocks they hold.
    """
    aa = {q: _rand_matrix(rng, a[(q + shift) % 8], a[q]) for q in range(8)}
    blocks, harmonic = [], []
    for q in range(8):
        t = (q + shift) % 8
        bq, bt = a[(q - 1) % 8], a[(t - 1) % 8]
        rows, cols = cf[t], cf[q]
        m = [[Fraction(0)] * cols for _ in range(rows)]

        def put(block, r0, c0):
            for i in range(block.rows):
                for j in range(block.cols):
                    m[r0 + i][c0 + j] = block.entries[i][j]

        hh = hh_blocks.get(q)
        if hh is None:
            hh = _rand_matrix(rng, h[t], h[q])
        put(aa[q], 0, 0)
        put(_rand_matrix(rng, bt, a[q]), a[t], 0)
        put(_rand_matrix(rng, h[t], a[q]), a[t] + bt, 0)
        put(aa[(q - 1) % 8], a[t], a[q])  # image slot follows the acyclic part below
        put(_rand_matrix(rng, bt, h[q]), a[t], a[q] + bq)
        put(hh, a[t] + bt, a[q] + bq)
        blocks.append(Matrix(rows, cols, tuple(tuple(r) for r in m)))
        harmonic.append(hh)
    return blocks, harmonic


def gen_chain_instance(cfg: GenConfig) -> Instance:
    """Deterministic-in-seed chain-level instance with planted cohomology."""
    rng = random.Random(cfg.seed)
    amax = max(1, cfg.max_dim // 2)
    a = [rng.randint(0, amax) for _ in range(8)]
    h = [rng.randint(0, cfg.max_dim) for _ in range(8)]
    if cfg.periodic:
        a[4:] = a[:4]
        h[4:] = h[:4]
    cf = [a[q] + a[(q - 1) % 8] + h[q] for q in range(8)]
    cf_space = GradedSpace.of(cf)
    case = rng.choices(_CASES, weights=cfg.case_mix)[0]

    # differential in split form: acyclic slot to image slot one degree up
    d_blocks = []
    for q in range(8):
        t = (q + 1) % 8
        m = [[Fraction(0)] * cf[q] for _ in range(cf[t])]
        for i in range(a[q]):
            m[a[t] + i][i] = Fraction(1)
        d_blocks.append(Matrix(cf[t], cf[q], tuple(tuple(r) for r in m)))

    # degree +4 operator; an identity harmonic diagonal in periodic mode
    # links the towers so the reduced theory mirrors too
    v_hh = {q: Matrix.identity(h[q]) for q in range(8)} if cfg.periodic else {}
    v_blocks, vhh = _split_chain_map(rng, a, h, cf, 4, v_hh)

    # special data: one family's class seed is zeroed, fixing the dichotomy
    delta_chain = [rng.randint(-ENTRY_BOUND, ENTRY_BOUND) for _ in range(cf[4])]
    for i in range(a[3]):
        delta_chain[a[4] + i] = 0  # must kill coboundaries
    prime_chain = [rng.randint(-ENTRY_BOUND, ENTRY_BOUND) for _ in range(cf[1])]
    for i in range(a[1]):
        prime_chain[i] = 0  # must be a cocycle
    if case is not Case.DELTA_SIDE:
        for i in range(h[4]):
            delta_chain[cf[4] - h[4] + i] = 0
    if case is not Case.DELTA_PRIME_SIDE:
        for i in range(h[1]):
            prime_chain[cf[1] - h[1] + i] = 0
    delta_row = Matrix.row_vector(delta_chain, cols=cf[4])
    prime_col = Matrix.column(prime_chain)

    d0 = Matrix.row_vector([delta_chain[cf[4] - h[4] + i] for i in range(h[4])], cols=h[4])
    p0 = Matrix.column([prime_chain[cf[1] - h[1] + i] for i in range(h[1])])
    pair = krylov_families(d0, p0, vhh, h, cfg.n_max)
    w_hh, planted_a, planted_b = _w_blocks(rng, GradedSpace.of(h), pair, cfg.periodic)
    w_blocks, _ = _split_chain_map(rng, a, h, cf, 0, dict(enumerate(w_hh)))

    # conjugate everything by one unimodular change of basis per degree
    words = [_unimodular(rng, cf[q]) for q in range(4 if cfg.periodic else 8)]
    if cfg.periodic:
        words += words
    d_blocks = [_change_basis(d_blocks[q], words[(q + 1) % 8], words[q]) for q in range(8)]
    v_blocks = [_change_basis(v_blocks[q], words[(q + 4) % 8], words[q]) for q in range(8)]
    w_blocks = [_change_basis(w_blocks[q], words[q], words[q]) for q in range(8)]
    delta_row = _change_basis(delta_row, (), words[4])
    prime_col = _change_basis(prime_col, words[1], ())

    inst = chain_instance(
        CochainComplex(cf_space, GradedMap(cf_space, cf_space, 1, tuple(d_blocks))),
        ChainSpecial(delta_row, prime_col, GradedMap(cf_space, cf_space, 4, tuple(v_blocks))),
        GradedMap(cf_space, cf_space, 0, tuple(w_blocks)),
        cfg.n_max,
        w_label=f"W(seed={cfg.seed})",
    )
    if inst.space.dims != tuple(h):
        raise Infeasible(f"planted cohomology dims not reproduced (seed {cfg.seed})")
    return dataclasses.replace(inst, metadata={
        "name": f"genchain-{cfg.seed}",
        "seed": cfg.seed,
        "generator": "gen_chain_instance",
        "case": inst.pair.case.value,
        "planted_h_dims": list(h),
        **_planted_metadata(planted_a, planted_b),
    })
