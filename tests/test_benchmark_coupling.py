"""The benchmark in ``perfbench/`` times floersplit functions by name; every
name it traces must exist, so that renaming or dropping a traced function
fails here rather than in a traced benchmark run."""

from __future__ import annotations

import importlib
import importlib.util
import pathlib

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    traced = _load_spans().TRACED
    assert traced
    for metric, modname, attr in traced:
        home = importlib.import_module(f"floersplit.{modname}")
        if "." in attr:
            # patched on the class itself, so it must be in the class's own dict
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(home, cls_name)), metric
        else:
            assert callable(getattr(home, attr, None)), metric
