"""Independent checks of floersplit's outputs.

Nothing here calls ``floersplit.qlinalg`` or any other floersplit
function: the instance data is read into plain lists of exact rationals
(``Fraction``, or ``int`` where integral) and every expected value is
recomputed from definitions, with a small exact elimination of its own
for ranks.

All data is held in the internal (cohomology) grading.  A document in the
homology convention is relabeled here by ``q -> 5 - q (mod 8)``, so the
functionals live in degrees 4 (n even) and 0 (n odd) and the vectors in
degrees 1 (n even) and 5 (n odd), whatever the document says.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

HOMOLOGY = "homology"

# Published values of the catalog mapping tori, and the definitional
# values of the product demo; reports use the documents' homology view.
CATALOG_VALUES = {
    "sigma_2_7_13_mapping_torus": {
        "lef_w": -4, "lef_w_hat": 0, "lambda_fo": -2, "h_x": 2, "h_y": 2,
    },
    "akbulut_cork_mapping_torus": {"lambda_fo": 2, "h_x": 0, "h_y": 0},
    "product_cobordism_demo": {
        "lef_w": -12, "lef_w_hat": -8, "lambda_fo": -6, "h_x": 2, "h_y": 2,
    },
}


def rank(rows) -> int:
    """Rank by plain Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in r] for r in rows if any(r)]
    r = 0
    cols = len(a[0]) if a else 0
    for c in range(cols):
        piv = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, len(a)):
            if a[i][c] != 0:
                f = a[i][c] / a[r][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


def _regrade_index(q: int) -> int:
    return (5 - q) % 8


@dataclass(frozen=True)
class RawInstance:
    """Cohomology-level data in the internal grading, as plain lists.

    ``traces[q]`` is the trace of the cobordism block in degree q, the only
    part of the map the checks need; ``deltas[n]`` is a functional (list of
    entries) and ``primes[n]`` a vector (list of entries); an empty list
    means a zero member.
    """

    convention: str
    dims: tuple[int, ...]
    traces: tuple[Fraction, ...]
    deltas: tuple[list, ...]
    primes: tuple[list, ...]


def _compact(x):
    """An integral Fraction as an int, which takes far less memory."""
    return x.numerator if x.denominator == 1 else x


def _entries(m) -> list[list]:
    return [[_compact(x) for x in r] for r in m.entries]


def _trace(rows) -> Fraction:
    return sum((rows[i][i] for i in range(len(rows))), Fraction(0))


def raw_from_instance(inst) -> RawInstance:
    """Read an engine ``Instance`` through its data fields only."""
    return RawInstance(
        inst.convention,
        tuple(inst.space.dims),
        tuple(_trace(b.entries) for b in inst.w.blocks),
        tuple([_compact(x) for row in m.entries for x in row] for m in inst.pair.deltas),
        tuple([_compact(row[0]) for row in m.entries] for m in inst.pair.deltas_prime),
    )


def _rational(v) -> Fraction:
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise ValueError(f"not an exact rational entry: {v!r}")
    return Fraction(v)


def raw_from_document(doc: dict) -> RawInstance:
    """Parse a cohomology-level document without the engine's loader."""
    conv = doc["convention"]

    def internal(seq):
        seq = list(seq)
        return tuple(seq[_regrade_index(q)] for q in range(8)) if conv == HOMOLOGY else tuple(seq)

    def matrix(rows):
        return [[_rational(x) for x in r] for r in rows]

    special = doc["special"]
    return RawInstance(
        conv,
        internal(doc["spaces"]["hf"]),
        internal(_trace(matrix(b)) for b in doc["cobordism"]["blocks"]),
        tuple(matrix(m)[0] for m in special.get("deltas") or []),
        tuple([r[0] for r in matrix(m)] for m in special.get("deltas_prime") or []),
    )


def _lefschetz(traces) -> Fraction:
    return sum(((-1) ** q * t for q, t in enumerate(traces)), Fraction(0))


def _euler(dims) -> int:
    return sum((-1) ** q * d for q, d in enumerate(dims))


@dataclass(frozen=True)
class Expected:
    """Values recomputed from the raw data, all in the cohomology grading."""

    lef_w: Fraction
    removed: dict[int, int]       # codim Z in degrees 0, 4; dim B in degrees 1, 5
    hf_dims: tuple[int, ...]
    reduced_dims: tuple[int, ...]
    h: Fraction


def expected_values(raw: RawInstance) -> Expected:
    def members(family, parity):
        return [m for n, m in enumerate(family) if n % 2 == parity and m]

    removed = {
        4: rank(members(raw.deltas, 0)),
        0: rank(members(raw.deltas, 1)),
        1: rank(members(raw.primes, 0)),
        5: rank(members(raw.primes, 1)),
    }
    red = tuple(d - removed.get(q, 0) for q, d in enumerate(raw.dims))
    h = Fraction(_euler(raw.dims) - _euler(red), 2)
    return Expected(_lefschetz(raw.traces), removed, raw.dims, red, h)


def verdict_fields(v) -> dict:
    """The report fields of an engine ``SplittingVerdict``."""
    return {
        "convention": v.convention,
        "hf_dims": list(v.hf_dims),
        "reduced_dims": list(v.reduced_dims),
        "lef_w": v.lef_w,
        "lef_w_hat": v.lef_w_hat,
        "lambda_fo": v.lambda_fo,
        "h_x": v.h_x,
        "h_y": v.h_y,
        "pass": v.passed,
    }


def _reject_float(text):
    raise ValueError(f"float {text} in a JSON report")


def parse_report(stdout: str) -> dict:
    """Parse a ``verify --format json`` report into verdict fields.

    Raises ValueError on a float anywhere in the report or a rational
    that is neither an integer nor a "p/q" string.
    """
    report = json.loads(stdout, parse_float=_reject_float)
    v = dict(report["verdict"])
    for key in ("lef_w", "lef_w_hat", "lambda_fo", "h_x", "h_y"):
        v[key] = _rational(v[key])
    v["instance"] = report["instance"]
    return v


def check_verdict(v: dict, exp: Expected) -> list[str]:
    """Compare reported verdict fields with the recomputed values.

    Besides equality with the independent values, asserts the properties
    of the method: h(X) = h(Y), lambda = -Lef(W)/2 and
    Lef(W-hat) = Lef(W) - 2h, the last two in the cohomology convention.
    """
    sign = -1 if v["convention"] == HOMOLOGY else 1

    def view(dims):
        return [dims[_regrade_index(q)] for q in range(8)] if sign < 0 else list(dims)

    lef_w, lef_hat = sign * v["lef_w"], sign * v["lef_w_hat"]
    problems = []
    for ok, what in (
        (lef_w == exp.lef_w, f"Lef(W) {lef_w} != recomputed {exp.lef_w}"),
        (v["hf_dims"] == view(exp.hf_dims), f"HF dims {v['hf_dims']} differ"),
        (v["reduced_dims"] == view(exp.reduced_dims),
         f"reduced dims {v['reduced_dims']} != recomputed {view(exp.reduced_dims)}"),
        (v["h_y"] == exp.h, f"h(Y) {v['h_y']} != recomputed {exp.h}"),
        (v["h_x"] == v["h_y"], f"h(X) {v['h_x']} != h(Y) {v['h_y']}"),
        (v["lambda_fo"] == -lef_w / 2, f"lambda {v['lambda_fo']} != -Lef(W)/2"),
        (lef_hat == lef_w - 2 * exp.h, f"Lef(W-hat) {lef_hat} != Lef(W) - 2h"),
        (v["pass"] is True, "verdict did not pass"),
    ):
        if not ok:
            problems.append(what)
    return problems


@dataclass(frozen=True)
class SweepRecord:
    """What the checks need of one sweep operation's outputs, kept
    compact so that stored records do not inflate the measured memory."""

    raw: RawInstance
    verdict: dict
    towers: tuple[tuple[int, str, tuple[Fraction, ...]], ...]  # degree, kind, drops
    refinement: tuple[tuple, tuple]                             # diffs, expected
    chain: tuple | None = None  # cf dims, differential blocks, planted dims


def sweep_record(inst, verdict, ref) -> SweepRecord:
    chain = None
    if inst.complex is not None:
        chain = (
            tuple(inst.complex.space.dims),
            tuple(_entries(b) for b in inst.complex.d.blocks),
            tuple(inst.metadata["planted_h_dims"]),
        )
    return SweepRecord(
        raw_from_instance(inst),
        verdict_fields(verdict),
        tuple((t.degree, t.kind, tuple(s.drop for s in t.steps)) for t in verdict.trace_log.towers),
        (tuple(ref.diffs), tuple(ref.expected)),
        chain,
    )


def check_sweep(rec: SweepRecord) -> list[str]:
    exp = expected_values(rec.raw)
    problems = check_verdict(rec.verdict, exp) + check_towers(rec.towers, exp)
    want = tuple(exp.removed.get(q, 0) for q in range(8))
    if rec.refinement != (want, want):
        problems.append(f"refinement {rec.refinement} != {want}")
    if rec.chain is not None:
        cf, d_blocks, planted = rec.chain
        h = cohomology_dims(cf, d_blocks)
        if h != planted or h != rec.raw.dims:
            problems.append(f"cohomology dims {h} vs planted {planted} vs instance {rec.raw.dims}")
    return problems


def check_towers(towers, exp: Expected) -> list[str]:
    """Every step drops by 0 or 1 and the drops telescope to codim Z or dim B."""
    kinds = {0: "kernel", 4: "kernel", 1: "span", 5: "span"}
    problems = []
    degrees = sorted(degree for degree, _, _ in towers)
    if degrees not in ([0, 4], [1, 5]):
        problems.append(f"towers at degrees {degrees}")
    for degree, kind, drops in towers:
        if any(d not in (0, 1) for d in drops):
            problems.append(f"tower {degree}: a step dropped by {drops}")
        if kind != kinds.get(degree) or sum(drops) != exp.removed.get(degree):
            problems.append(
                f"tower {degree} ({kind}): drops sum to {sum(drops)}, "
                f"expected {exp.removed.get(degree)}"
            )
    return problems


def cohomology_dims(cf_dims, d_blocks) -> tuple[int, ...]:
    """Rank-nullity: dim H^q = dim C^q - rank d_q - rank d_{q-1}."""
    ranks = [rank(b) for b in d_blocks]
    return tuple(cf_dims[q] - ranks[q] - ranks[(q - 1) % 8] for q in range(8))


def check_catalog(v: dict) -> list[str]:
    """Compare a catalog fixture's report with its literature values."""
    want = CATALOG_VALUES.get(v["instance"])
    if want is None:
        return [f"{v['instance']} is not a catalog entry"]
    return [f"{v['instance']}: {k} = {v[k]}, published {x}" for k, x in want.items() if v[k] != x]
