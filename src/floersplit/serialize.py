"""Versioned JSON instance documents: parsing, export.

Documents carry their grading convention; everything degree-indexed in a
homology-convention document is relabeled on load (degree q to 5 - q mod
8, through ``instance.relabel``) so the engine always works in the
cohomology convention, and written back out the same way so the user's
numbers round-trip bit-exactly.  Rational entries are JSON integers or
strings matching ``-?[0-9]+(/[0-9]+)?`` with a nonzero denominator, never
floats.  Loading parses, regrades and checks shapes; at chain level it
also computes cohomology and induces the families and W on it, through
``instance.chain_instance``.  The relations and the reduced theory are
validated once, where the instance is used:
``verify_splitting``, ``floersplit trace`` and ``validate_instance``
(re-exported here) each run that validation prefix.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Any

from .cobordism import validate_instance  # noqa: F401  re-exported
from .errors import ParseError
from .froyshov import FAMILIES, MAX_N_MAX, Case, ChainSpecial, SpecialPair
from .graded import CochainComplex, GradedMap, GradedSpace
from .instance import COHOMOLOGY, HOMOLOGY, Instance, LEVEL_CHAIN, LEVEL_COHOMOLOGY, chain_instance, relabel
from .qlinalg import Matrix

SCHEMA_VERSION = "1"

# The largest dimension ``spaces.hf`` or ``spaces.cf`` may list.  It admits
# every document the generator emits: at its largest max_dim (64) a
# chain-level degree has a[q] + a[q-1] + h[q] <= 32 + 32 + 64 cochains.
MAX_DIM = 128

_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def shown(value) -> str:
    """A document value or a command-line argument in an error message: a
    short string or a small integer as written, anything else by its type
    alone, so that no huge or deeply nested value is ever rendered."""
    small = isinstance(value, str) and len(value) <= 40 or isinstance(value, int) and abs(value) < 2**64
    return repr(value) if small or value is None else type(value).__name__


def rational_to_json(x: Fraction):
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def rational_from_json(v) -> Fraction:
    if isinstance(v, bool):
        raise ParseError("booleans are not rational entries")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        # the message names the length, never the string: it may be huge
        if not _RATIONAL.fullmatch(v):
            raise ParseError(f"bad rational: str of length {len(v)}, expected an integer or 'p/q'")
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError) as e:
            why = "zero denominator" if isinstance(e, ZeroDivisionError) else "too many digits"
            raise ParseError(f"bad rational: str of length {len(v)}, {why}") from e
    raise ParseError(f"rational entries must be integers or 'p/q' strings, got {type(v).__name__}")


def matrix_to_json(m) -> list:
    return [[rational_to_json(x) for x in row] for row in m.entries]


def matrix_from_json(obj, rows: int, cols: int, where: str):
    if not isinstance(obj, list) or len(obj) != rows:
        got = type(obj).__name__ + (f" of length {len(obj)}" if isinstance(obj, list) else "")
        raise ParseError(f"{where}: expected {rows} rows, got {got}")
    data = []
    for r in obj:
        if not isinstance(r, list) or len(r) != cols:
            raise ParseError(f"{where}: expected rows of length {cols}")
        data.append(tuple(rational_from_json(x) for x in r))
    return Matrix(rows, cols, tuple(data))  # the entries are Fractions already


def _graded_map_from_json(obj, space: GradedSpace, shift: int, where: str) -> GradedMap:
    if not isinstance(obj, list) or len(obj) != 8:
        raise ParseError(f"{where}: expected 8 blocks")
    blocks = [
        matrix_from_json(obj[q], space.dim(q + shift), space.dim(q), f"{where}[{q}]")
        for q in range(8)
    ]
    return GradedMap(space, space, shift, tuple(blocks))


def _dims_from_json(obj, where: str) -> GradedSpace:
    if not isinstance(obj, list) or len(obj) != 8:
        raise ParseError(f"{where}: expected 8 dimensions")
    for d in obj:
        if not isinstance(d, int) or isinstance(d, bool) or d < 0:
            raise ParseError(f"{where}: dimensions must be nonnegative integers")
        if d > MAX_DIM:
            raise ParseError(f"{where}: dimensions must be at most {MAX_DIM}")
    return GradedSpace.of(obj)


def _family_from_json(doc_special, space: GradedSpace, n_max: int):
    """Parse both families, sized from the internal-convention ``space``;
    missing or empty arrays mean all-zero.

    Both length checks run first, then the members are parsed in
    increasing n, each n's functional before its vector.
    """
    raws = []
    for fam in FAMILIES:
        raw = doc_special.get(fam.key)
        if raw is None:
            raw = []
        if not isinstance(raw, list):
            raise ParseError(f"{fam.key} must be a list of matrices")
        if raw and len(raw) != n_max + 1:
            raise ParseError(f"{fam.key} must have n_max + 1 members or be empty")
        raws.append(raw)
    families = ([], [])
    for n in range(n_max + 1):
        for fam, raw, members in zip(FAMILIES, raws, families):
            rows, cols = fam.shape(space.dim(fam.degree(n)))
            if raw:
                members.append(matrix_from_json(raw[n], rows, cols, f"{fam.key}[{n}]"))
            else:
                members.append(Matrix.zeros(rows, cols))
    return tuple(map(tuple, families))


def document_to_instance(doc: Any) -> Instance:
    """Parse, regrade to the internal convention, and check shapes.

    The relations and the reduced theory are not validated here; the
    consumer runs ``validate_instance`` (``verify_splitting`` does).
    """
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ParseError(f"unsupported schema_version {shown(doc.get('schema_version'))}")
    convention = doc.get("convention")
    if convention not in (HOMOLOGY, COHOMOLOGY):
        raise ParseError(f"unknown convention {shown(convention)}")
    level = doc.get("level")
    if level not in (LEVEL_COHOMOLOGY, LEVEL_CHAIN):
        raise ParseError(f"unknown level {shown(level)}")
    metadata = doc.get("metadata")
    if metadata is None:
        metadata = {}
    elif not isinstance(metadata, dict):
        raise ParseError("metadata must be an object")
    cob = doc.get("cobordism")
    if not isinstance(cob, dict) or "blocks" not in cob:
        raise ParseError("cobordism section with blocks is required")
    label = cob.get("label", "W")
    if not isinstance(label, str):
        raise ParseError("cobordism.label must be a string")
    spaces = doc.get("spaces")
    if not isinstance(spaces, dict):
        raise ParseError("spaces section is required")

    if level == LEVEL_COHOMOLOGY:
        h_doc = _dims_from_json(spaces.get("hf"), "spaces.hf")
        # the blocks first: every dimension the families are built at is
        # then backed by a block the document lists
        w_doc = _graded_map_from_json(cob["blocks"], h_doc, 0, "cobordism.blocks")
        special = doc.get("special")
        if not isinstance(special, dict):
            raise ParseError("special section is required")
        n_max = special.get("n_max")
        if not isinstance(n_max, int) or isinstance(n_max, bool) or not 0 <= n_max <= MAX_N_MAX:
            raise ParseError(f"special.n_max must be an integer from 0 to {MAX_N_MAX}")
        case_str = special.get("case")
        case = next((c for c in Case if c.value == case_str), None)
        if case is None:
            raise ParseError(f"unknown case {shown(case_str)}")
        space, w = relabel(h_doc, convention), relabel(w_doc, convention)
        deltas, primes = _family_from_json(special, space, n_max)
        pair = SpecialPair(n_max, deltas, primes, case)
        return Instance(space, pair, w, label, convention, level, metadata=metadata)

    cf_doc = _dims_from_json(spaces.get("cf"), "spaces.cf")
    d_shift_doc = 1 if convention == COHOMOLOGY else 7
    d_doc = _graded_map_from_json(doc.get("differential"), cf_doc, d_shift_doc, "differential")
    v_doc = _graded_map_from_json(doc.get("v"), cf_doc, 4, "v")
    w_doc = _graded_map_from_json(cob["blocks"], cf_doc, 0, "cobordism.blocks")
    cf_space = relabel(cf_doc, convention)
    delta = matrix_from_json(doc.get("delta"), 1, cf_space.dim(4), "delta")
    delta_prime = matrix_from_json(doc.get("delta_prime"), cf_space.dim(1), 1, "delta_prime")
    n_max = doc.get("n_max", 4)
    if not isinstance(n_max, int) or isinstance(n_max, bool) or not 1 <= n_max <= MAX_N_MAX:
        raise ParseError(f"n_max must be an integer from 1 to {MAX_N_MAX}")
    d_map, v_map, w_chain = (relabel(x, convention) for x in (d_doc, v_doc, w_doc))
    return chain_instance(
        CochainComplex(cf_space, d_map), ChainSpecial(delta, delta_prime, v_map), w_chain, n_max,
        w_label=label, convention=convention, metadata=metadata,
    )


def instance_to_document(instance: Instance) -> dict:
    """Serialize back out in the instance's declared convention."""
    conv = instance.convention
    doc: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "level": instance.level,
        "convention": conv,
        "metadata": dict(instance.metadata),
    }
    if instance.level == LEVEL_COHOMOLOGY:
        w_doc = relabel(instance.w, conv)
        doc["spaces"] = {"hf": list(relabel(instance.space, conv).dims)}
        doc["special"] = {
            "case": instance.pair.case.value,
            "n_max": instance.pair.n_max,
            "deltas": [matrix_to_json(m) for m in instance.pair.deltas],
            "deltas_prime": [matrix_to_json(m) for m in instance.pair.deltas_prime],
        }
    else:
        cx, cs = instance.complex, instance.chain_special
        cf_doc, d_doc, v_doc, w_doc = (
            relabel(x, conv) for x in (cx.space, cx.d, cs.v, instance.chain_w)
        )
        doc["spaces"] = {"cf": list(cf_doc.dims)}
        doc["differential"] = [matrix_to_json(b) for b in d_doc.blocks]
        doc["v"] = [matrix_to_json(b) for b in v_doc.blocks]
        doc["delta"] = matrix_to_json(cs.delta)
        doc["delta_prime"] = matrix_to_json(cs.delta_prime)
        doc["n_max"] = instance.pair.n_max
    doc["cobordism"] = {
        "label": instance.w_label,
        "blocks": [matrix_to_json(b) for b in w_doc.blocks],
    }
    return doc


def dumps(instance: Instance) -> str:
    return json.dumps(instance_to_document(instance), indent=2, sort_keys=True)


def load(path: str) -> Instance:
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except json.JSONDecodeError as e:
        raise ParseError(f"{shown(path)}: invalid JSON at line {e.lineno}: {e.msg}") from e
    except ValueError as e:  # an integer past the interpreter's digit limit, or not UTF-8
        raise ParseError(f"{shown(path)}: invalid JSON: {e}") from e
    except RecursionError:
        raise ParseError(f"{shown(path)}: invalid JSON: nested too deeply") from None
    return document_to_instance(doc)


def export(instance: Instance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(dumps(instance))
        f.write("\n")
