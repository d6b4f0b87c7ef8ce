"""The committed fixture files are the catalog's documents; each must
reproduce the expected values the catalog records for it."""

from __future__ import annotations

from floersplit import catalog
from floersplit.cobordism import verify_splitting


def test_fixture_expected_values_hold():
    for name in catalog.names():
        entry = catalog.get(name)
        v = verify_splitting(entry.instance())
        field_map = {
            "lef_w": v.lef_w,
            "lef_w_hat": v.lef_w_hat,
            "lambda_fo": v.lambda_fo,
            "h_x": v.h_x,
            "h_y": v.h_y,
            "reduced_dims": list(v.reduced_dims),
        }
        for key, exp in entry.expected.items():
            if key in field_map and exp["value"] is not None:
                assert field_map[key] == exp["value"], (name, key)
