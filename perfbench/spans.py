"""Span recorder that times calls into floersplit's public functions from
outside the library.

``Recorder.install()`` replaces each traced function with a wrapper in
every floersplit module that holds a binding to it (``from .qlinalg import
rref`` binds a separate name in each importing module), and ``uninstall()``
puts the originals back.  Spans are kept in memory as
``(name, start_ns, end_ns, parent)`` and written out by ``dump()``.

Self time is a span's duration minus the time its child spans cover.  A
child's own bookkeeping is charged to neither side: the parent is credited
with the child's whole wrapper time, so wrapper overhead lands only in the
traced-minus-untraced time that the benchmark reports.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from fractions import Fraction

# (metric prefix, module, attribute); "Class.method" attributes are patched
# on the class.
TRACED = (
    ("qlinalg.matmul", "qlinalg", "Matrix.__matmul__"),
    ("qlinalg.rref", "qlinalg", "rref"),
    ("qlinalg.solve", "qlinalg", "solve"),
    ("qlinalg.kernel_basis", "qlinalg", "kernel_basis"),
    ("qlinalg.intersect", "qlinalg", "intersect"),
    ("qlinalg.span", "qlinalg", "Subspace.span"),
    ("qlinalg.quotient", "qlinalg", "quotient"),
    ("qlinalg.restrict", "qlinalg", "restrict"),
    ("qlinalg.induced_on_quotient", "qlinalg", "induced_on_quotient"),
    ("graded.cohomology", "graded", "cohomology"),
    ("graded.is_chain_map", "graded", "is_chain_map"),
    ("graded.induced_map", "graded", "induced_map"),
    ("graded.lefschetz", "graded", "lefschetz"),
    ("graded.regrade", "graded", "regrade"),
    ("froyshov.induce_special", "froyshov", "induce_special"),
    ("froyshov.z_subspaces", "froyshov", "z_subspaces"),
    ("froyshov.b_subspaces", "froyshov", "b_subspaces"),
    ("froyshov.reduced", "froyshov", "reduced"),
    ("cobordism.validate_relations", "cobordism", "validate_relations"),
    ("cobordism.reduced_induced", "cobordism", "reduced_induced"),
    ("cobordism.verify_splitting", "cobordism", "verify_splitting"),
    ("cobordism.trace_towers", "cobordism", "trace_towers"),
    ("cobordism.trace_refinement", "cobordism", "trace_refinement"),
    ("gen.gen_instance", "gen", "gen_instance"),
    ("gen.gen_chain_instance", "gen", "gen_chain_instance"),
    ("serialize.document_to_instance", "serialize", "document_to_instance"),
    ("serialize.validate_instance", "serialize", "validate_instance"),
    ("serialize.instance_to_document", "serialize", "instance_to_document"),
    ("cli.main", "cli", "main"),
)


def _entry_bits(x: Fraction) -> int:
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


def _matrices(result):
    """The matrices inside a qlinalg result: a Matrix, RrefResult,
    Subspace, QuotientSpace, or None."""
    if hasattr(result, "projection"):
        return (result.projection, result.section, result.subspace.basis)
    if hasattr(result, "echelon"):
        return (result.echelon,)
    if hasattr(result, "basis"):
        return (result.basis,)
    if hasattr(result, "entries"):
        return (result,)
    return ()


class Recorder:
    """In-memory spans and per-name call counts and self times."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, int] | None] = []
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.scalar_mults = 0
        self.nonzero_products = 0
        self.max_entry_bits = 0
        self._open: list[int] = []
        self._child_ns: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.self_ns.append(0)
        return len(self.names) - 1

    def reset(self) -> None:
        """Forget all spans and counts; names and patches stay."""
        self.spans.clear()
        self.calls = [0] * len(self.names)
        self.self_ns = [0] * len(self.names)
        self.scalar_mults = self.nonzero_products = self.max_entry_bits = 0

    def count(self, name: str) -> int:
        return self.calls[self.names.index(name)]

    def wrap(self, name: str, fn, inspect=None):
        """Wrap ``fn`` in a span; ``inspect(args, result)`` runs after the
        span has ended, outside every span's self time."""
        nid = self._name_id(name)
        spans, open_, child_ns = self.spans, self._open, self._child_ns
        clock = time.process_time_ns  # CPU time, like the untraced operations

        def traced(*args, **kwargs):
            enter = clock()
            idx = len(spans)
            spans.append(None)
            open_.append(idx)
            child_ns.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                open_.pop()
                inner = child_ns.pop()
                spans[idx] = (nid, start, end, open_[-1] if open_ else -1)
                self.calls[nid] += 1
                self.self_ns[nid] += end - start - inner
            if inspect is not None:
                inspect(args, result)
            if child_ns:
                child_ns[-1] += clock() - enter
            return result

        traced.__wrapped__ = fn
        return traced

    def _inspect_qlinalg(self, args, result) -> None:
        for m in _matrices(result):
            for row in m.entries:
                for x in row:
                    if x:
                        b = _entry_bits(x)
                        if b > self.max_entry_bits:
                            self.max_entry_bits = b

    def _inspect_matmul(self, args, result) -> None:
        a, b = args
        self.scalar_mults += a.rows * a.cols * b.cols
        col_nz = [0] * a.cols
        for row in a.entries:
            for k, x in enumerate(row):
                if x:
                    col_nz[k] += 1
        self.nonzero_products += sum(
            col_nz[k] * sum(1 for x in row if x) for k, row in enumerate(b.entries)
        )
        self._inspect_qlinalg(args, result)

    def install(self) -> None:
        """Wrap every function in TRACED wherever floersplit binds it."""
        modules = [m for k, m in sorted(sys.modules.items()) if k == "floersplit" or k.startswith("floersplit.")]
        for metric, modname, attr in TRACED:
            home = sys.modules[f"floersplit.{modname}"]
            if modname == "qlinalg":
                inspect = self._inspect_matmul if attr == "Matrix.__matmul__" else self._inspect_qlinalg
            else:
                inspect = None
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, staticmethod):
                    new = staticmethod(self.wrap(metric, raw.__func__, inspect))
                else:
                    new = self.wrap(metric, raw, inspect)
                self._patch(cls, meth, raw, new)
                continue
            orig = getattr(home, attr)
            wrapper = self.wrap(metric, orig, inspect)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, key, orig, wrapper)

    def _patch(self, owner, key, orig, new) -> None:
        setattr(owner, key, new)
        self._patches.append((owner, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    def dump(self, path) -> None:
        """Write the spans as gzipped JSON: a name table and one
        ``[name, start_ns, end_ns, parent]`` row per span."""
        with gzip.open(path, "wt", encoding="utf-8") as f:
            json.dump({"names": self.names, "spans": self.spans}, f, separators=(",", ":"))
