"""Built-in instance documents with their expected invariant values.

The documents are the committed ``fixtures/NAME.json`` files, shipped in
the package as ``floersplit/fixtures`` and read on each lookup; only the
expected values live here.  The two mapping-torus entries carry
literature values for their Floer ranks, Lefschetz numbers and
invariants; where the literature fixes only ranks and the invariant, the
functional tower is a synthetic realization, tagged "derived", chosen to
reproduce the known reduced ranks.  Expected values are tagged with
their provenance: "published" (literature value for the named object),
"derived" (forced by construction or arithmetic), or "trivial"
(definitional).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib.resources import files

from .errors import UnknownEntry
from .instance import Instance
from .serialize import document_to_instance, shown


def _expected(value, provenance: str, note: str = "") -> dict:
    out = {"value": value, "provenance": provenance}
    if note:
        out["note"] = note
    return out


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    document: dict
    expected: dict

    def instance(self) -> Instance:
        return document_to_instance(self.document)


# Entry name -> expected values; the key order is the listing order.
_EXPECTED = {
    "sigma_2_7_13_mapping_torus": {
        "lef_w": _expected(-4, "published"),
        "lef_w_hat": _expected(0, "published"),
        "lambda_fo": _expected(-2, "published", "equals -b_1 + b_3 for these ranks"),
        "h_x": _expected(2, "published"),
        "h_y": _expected(2, "published"),
        "chi_hf": _expected(-12, "derived", "alternating sum of the literature ranks"),
        "chi_hf_red": _expected(-8, "derived", "alternating sum of the literature reduced ranks"),
        "reduced_dims": _expected([0, 2, 0, 2, 0, 2, 0, 2], "published"),
        "deltas": _expected(None, "derived", "synthetic tower consistent with the reduced ranks"),
    },
    "akbulut_cork_mapping_torus": {
        "lambda_fo": _expected(2, "published"),
        "h_x": _expected(0, "published"),
        "h_y": _expected(0, "published", "the boundary is homology cobordant to zero"),
        "lef_w": _expected(4, "derived", "forced by lambda = Lef/2; equals the alternating trace of -Id on four odd degrees"),
        "lef_w_hat": _expected(4, "derived", "reduced equals unreduced here"),
        "reduced_dims": _expected([0, 1, 0, 1, 0, 1, 0, 1], "published"),
    },
    "product_cobordism_demo": {
        "lef_w": _expected(-12, "trivial", "Lefschetz number of the identity is the Euler characteristic"),
        "lef_w_hat": _expected(-8, "trivial"),
        "lambda_fo": _expected(-6, "derived", "half the Euler characteristic"),
        "h_x": _expected(2, "derived", "reduces to the Euler characteristic formula"),
        "h_y": _expected(2, "published"),
    },
}


def names() -> list[str]:
    return list(_EXPECTED)


def get(name: str) -> CatalogEntry:
    """Exact name, or a unique prefix of one."""
    if name not in _EXPECTED:
        matches = [k for k in _EXPECTED if k.startswith(name)]
        if len(matches) != 1:
            raise UnknownEntry(f"no catalog entry named {shown(name)}; have {', '.join(_EXPECTED)}")
        name = matches[0]
    text = (files("floersplit") / "fixtures" / f"{name}.json").read_text(encoding="utf-8")
    return CatalogEntry(name, json.loads(text), _EXPECTED[name])


def load_entry(name: str) -> Instance:
    return get(name).instance()
