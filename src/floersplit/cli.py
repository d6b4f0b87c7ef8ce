"""Command-line surface: verify, trace, sweep, catalog.

Targets are file paths, ``catalog:NAME`` or ``gen:SEED``.  Exit codes:
0 pass, 1 a checked identity failed, 2 the instance failed validation or
any other engine error (such as an infeasible generator seed), 3 an I/O
or parse problem; a malformed command line exits 2, argparse's code.
Every error ends in one stderr line, never a traceback.  ``--format
json`` emits a versioned report with all rationals as strings; set
REPORT_COLOR=1 for colored PASS/FAIL in text mode.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

from . import catalog, serialize
from .cobordism import (
    CaseTrace,
    SplittingVerdict,
    trace_towers,
    validate_instance,
    verify_splitting,
)
from .errors import (
    EngineError,
    ParseError,
    StepMismatch,
    TheoremCounterexample,
    UnknownEntry,
    ValidationError,
)
from .froyshov import Case
from .gen import GenConfig, gen_instance
from .instance import COHOMOLOGY, HOMOLOGY, Instance
from .serialize import rational_to_json, shown

REPORT_SCHEMA_VERSION = "1"

EXIT_PASS = 0
EXIT_IDENTITY = 1
EXIT_VALIDATION = 2
EXIT_IO = 3


def _color(text: str, good: bool) -> str:
    if os.environ.get("REPORT_COLOR") == "1":
        code = "32" if good else "31"
        return f"\x1b[{code}m{text}\x1b[0m"
    return text


def _passfail(ok: bool) -> str:
    return _color("PASS" if ok else "FAIL", ok)


def _load_target(target: str) -> Instance:
    if target.startswith("catalog:"):
        return catalog.load_entry(target[len("catalog:"):])
    if target.startswith("gen:"):
        try:
            seed = int(target[len("gen:"):])
        except ValueError:
            raise ParseError(f"bad generator target {shown(target)}, expected gen:SEED") from None
        return gen_instance(GenConfig(seed=seed))
    try:
        return serialize.load(target)
    except OSError as e:
        # the OSError's own text repeats the path, which may be huge
        raise ParseError(f"cannot read {shown(target)}: {e.strerror or type(e).__name__}") from e


def _view(instance: Instance, convention: str | None) -> Instance:
    if convention and convention != instance.convention:
        return dataclasses.replace(instance, convention=convention)
    return instance


def _verdict_json(v: SplittingVerdict) -> dict:
    return {
        "convention": v.convention,
        "case": v.case.value,
        "hf_dims": list(v.hf_dims),
        "reduced_dims": list(v.reduced_dims),
        "lef_w": rational_to_json(v.lef_w),
        "lef_w_hat": rational_to_json(v.lef_w_hat),
        "lambda_fo": rational_to_json(v.lambda_fo),
        "h_x": rational_to_json(v.h_x),
        "h_y": rational_to_json(v.h_y),
        "h_integral": v.h_y.denominator == 1 and v.h_x.denominator == 1,
        "identity_hx_equals_hy": v.identity_hx_equals_hy,
        "identity_splitting": v.identity_splitting,
        "pass": v.passed,
        "w_label": v.w_label,
    }


def _print_verdict(v: SplittingVerdict, name: str, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps({
            "schema_version": REPORT_SCHEMA_VERSION,
            "kind": "verify-report",
            "instance": name,
            "verdict": _verdict_json(v),
        }, indent=2, sort_keys=True))
        return
    print(f"instance:     {name}")
    print(f"convention:   {v.convention}    case: {v.case.value}")
    print(f"HF dims:      {v.hf_dims}")
    print(f"reduced dims: {v.reduced_dims}")
    print(f"Lef(W)      = {v.lef_w}")
    print(f"Lef(W-hat)  = {v.lef_w_hat}")
    print(f"lambda      = {v.lambda_fo}")
    print(f"h(X)        = {v.h_x}")
    print(f"h(Y)        = {v.h_y}")
    if v.h_y.denominator != 1 or v.h_x.denominator != 1:
        print("note: h is not an integer; expected only for genuinely periodic data")
    print(f"identity h(X) = h(Y):                 {_passfail(v.identity_hx_equals_hy)}")
    print(f"identity lambda + h(X) = Lef(hat)/2:  {_passfail(v.identity_splitting)}")


def cmd_verify(args) -> int:
    instance = _view(_load_target(args.target), args.convention)
    verdict = verify_splitting(instance)
    _print_verdict(verdict, instance.name, args.format)
    return EXIT_PASS if verdict.passed else EXIT_IDENTITY


def _trace_json(tr: CaseTrace) -> dict:
    return {
        "case": tr.case.value,
        "towers": [
            {
                "degree": t.degree,
                "kind": t.kind,
                "start_dim": t.start_dim,
                "start_trace": rational_to_json(t.start_trace),
                "final_dim": t.final_dim,
                "final_trace": rational_to_json(t.final_trace),
                "removed": t.removed,
                "steps": [
                    {
                        "index": s.index,
                        "dim": s.dim,
                        "trace": rational_to_json(s.trace),
                        "active": s.active,
                        "drop": rational_to_json(s.drop),
                    }
                    for s in t.steps
                ],
            }
            for t in tr.towers
        ],
    }


def _print_trace(tr: CaseTrace, name: str, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps({
            "schema_version": REPORT_SCHEMA_VERSION,
            "kind": "trace-report",
            "instance": name,
            "trace": _trace_json(tr),
        }, indent=2, sort_keys=True))
        return
    print(f"instance: {name}    case: {tr.case.value}")
    if tr.case is Case.BOTH_ZERO:
        print("note: both families vanish; reduced equals unreduced and the towers are trivial")
    for t in tr.towers:
        print(f"tower degree {t.degree} ({t.kind}): start dim {t.start_dim}, trace {t.start_trace}")
        for s in t.steps:
            flag = "active" if s.active else "inactive"
            print(f"  step n={s.index}: dim {s.dim}, trace {s.trace}, drop {s.drop} ({flag})")
        print(f"  final: dim {t.final_dim}, trace {t.final_trace}, removed {t.removed}")


def cmd_trace(args) -> int:
    instance = _view(_load_target(args.target), args.convention)
    validate_instance(instance)  # loading only parses; the towers replay validated data only
    try:
        tr = trace_towers(instance, args.tower)
    except ValueError as e:
        print(f"validation error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    _print_trace(tr, instance.name, args.format)
    return EXIT_PASS


# Most seeds one sweep takes; its task list and results are held in memory.
MAX_SWEEP_SEEDS = 10**6


def _parse_seeds(text: str) -> range:
    try:
        lo, hi = text.split("..")
        seeds = range(int(lo), int(hi) + 1)
    except ValueError:
        raise ParseError(f"bad seed range {shown(text)}, expected A..B") from None
    if not seeds:
        raise ParseError(f"empty seed range {shown(text)}, expected A..B with A <= B")
    # stop - start, not len(): len() overflows past sys.maxsize seeds
    if seeds.stop - seeds.start > MAX_SWEEP_SEEDS:
        raise ParseError(f"seed range {shown(text)} has more than {MAX_SWEEP_SEEDS} seeds")
    return seeds


def _parse_case_mix(text: str) -> tuple[float, float, float]:
    try:
        parts = tuple(float(x) for x in text.split(","))
    except ValueError:
        raise ParseError(f"bad case mix {shown(text)}") from None
    if len(parts) != 3:
        raise ParseError("case mix needs 3 comma-separated weights")
    return parts


def _sweep_one(task) -> dict:
    """Generate and fully check one seed; returns a summary record."""
    seed, kwargs = task
    cfg = GenConfig(seed=seed, **kwargs)
    out = {"seed": seed, "ok": True, "error": "", "kind": "", "case": "", "document": None}
    instance = None
    try:
        instance = gen_instance(cfg)
        out["case"] = instance.pair.case.value
        verdict = verify_splitting(instance, with_trace=True)
        if not verdict.passed:
            raise TheoremCounterexample(
                f"splitting identities failed on a validated instance: {verdict}"
            )
        ref = verdict.refinement
        if not ref.ok:
            raise TheoremCounterexample(
                f"degreewise refinement fails: {ref.diffs} vs {ref.expected}"
            )
    except (TheoremCounterexample, StepMismatch) as e:
        out.update(ok=False, error=str(e), kind="identity")
    except EngineError as e:
        out.update(ok=False, error=str(e), kind="validation")
    if not out["ok"] and instance is not None:
        out["document"] = serialize.instance_to_document(instance)
    return out


def cmd_sweep(args) -> int:
    seeds = _parse_seeds(args.seeds)
    kwargs = dict(
        max_dim=args.max_dim,
        n_max=args.nmax,
        case_mix=_parse_case_mix(args.case_mix),
        periodic=args.periodic,
        chain_level=args.chain_level,
    )
    tasks = [(seed, kwargs) for seed in seeds]
    jobs = min(args.jobs, os.cpu_count() or 1)  # one worker process per core at most
    if jobs > 1:
        # imported here: loading multiprocessing costs every other command memory
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_sweep_one, tasks, chunksize=16))
    else:
        results = [_sweep_one(t) for t in tasks]

    by_case: dict[str, int] = {}
    failures = [r for r in results if not r["ok"]]
    for r in results:
        if r["case"]:
            by_case[r["case"]] = by_case.get(r["case"], 0) + 1
    for r in failures:
        if r["document"] is not None:
            path = f"floersplit-failure-{r['seed']}.json"
            with open(path, "w", encoding="utf-8") as f:
                json.dump(r["document"], f, indent=2, sort_keys=True)
            r["dump"] = path

    if args.format == "json":
        print(json.dumps({
            "schema_version": REPORT_SCHEMA_VERSION,
            "kind": "sweep-report",
            "total": len(results),
            "passed": len(results) - len(failures),
            "by_case": by_case,
            "failures": [
                {k: r[k] for k in ("seed", "error", "kind", "dump") if k in r}
                for r in failures
            ],
        }, indent=2, sort_keys=True))
    else:
        total = len(results)
        print(f"sweep: {total - len(failures)}/{total} passed")
        for case, count in sorted(by_case.items()):
            print(f"  {case}: {count}")
        for r in failures:
            where = f" (dumped to {r['dump']})" if "dump" in r else ""
            print(f"  FAIL seed {r['seed']}: {r['error']}{where}")
    if not failures:
        return EXIT_PASS
    return EXIT_IDENTITY if any(r["kind"] == "identity" for r in failures) else EXIT_VALIDATION


def cmd_catalog(args) -> int:
    if args.action == "list":
        if args.format == "json":
            print(json.dumps({
                "schema_version": REPORT_SCHEMA_VERSION,
                "kind": "catalog-list",
                "entries": {
                    name: catalog.get(name).expected for name in catalog.names()
                },
            }, indent=2, sort_keys=True))
        else:
            for name in catalog.names():
                entry = catalog.get(name)
                print(name)
                for key, exp in entry.expected.items():
                    if exp["value"] is None:
                        continue
                    print(f"  {key} = {exp['value']}  [{exp['provenance']}]")
        return EXIT_PASS
    if not args.name:
        raise ParseError("catalog show/export needs an entry name")
    entry = catalog.get(args.name)
    if args.action == "show":
        payload = {"document": entry.document, "expected": entry.expected}
        print(json.dumps(payload, indent=2, sort_keys=True))
        return EXIT_PASS
    if args.action == "export":
        if not args.path:
            raise ParseError("catalog export needs a destination path")
        with open(args.path, "w", encoding="utf-8") as f:
            json.dump(entry.document, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"wrote {args.path}")
        return EXIT_PASS
    raise ParseError(f"unknown catalog action {args.action!r}")


def _int_arg(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        # argparse's own message echoes the whole value
        raise argparse.ArgumentTypeError(f"invalid int value: {shown(text)}") from None


class _Parser(argparse.ArgumentParser):
    """argparse with each command-line error as one stderr line, without
    the usage text, naming a bad value by ``shown``; the exit code stays
    argparse's 2."""

    def _check_value(self, action, value):
        # argparse's choice check (subcommands included); its own message
        # echoes the whole value
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise argparse.ArgumentError(
                action, f"invalid choice: {shown(value)} (choose from {choices})"
            )

    def parse_args(self, args=None, namespace=None):
        namespace, extra = self.parse_known_args(args, namespace)
        if extra:
            more = f" and {len(extra) - 1} more" if len(extra) > 1 else ""
            self.error(f"unrecognized arguments: {shown(extra[0])}{more}")
        return namespace

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process on first use;
    ``parse_args`` keeps no state between calls, so it is shared."""
    parser = _Parser(
        prog="floersplit",
        description="Exact verification of Lefschetz-number splitting identities "
        "for mod-8 graded Floer (co)homology data.",
    )
    parser.add_argument("--format", choices=["text", "json"], default="text")
    parser.add_argument(
        "--convention", choices=[HOMOLOGY, COHOMOLOGY], default=None,
        help="report view only; the stored data is unchanged",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check both splitting identities on an instance")
    p.add_argument("target", help="instance file or catalog:NAME")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("trace", help="replay the filtration towers step by step")
    p.add_argument("target")
    p.add_argument("--tower", type=_int_arg, choices=[0, 1, 4, 5], default=None)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("sweep", help="generate and verify a seed range")
    p.add_argument("--seeds", required=True, help="inclusive range A..B")
    p.add_argument("--max-dim", type=_int_arg, default=6)
    p.add_argument("--nmax", type=_int_arg, default=4)
    p.add_argument("--case-mix", default="2,2,1")
    p.add_argument("--periodic", action="store_true")
    p.add_argument("--chain-level", action="store_true")
    p.add_argument("--jobs", type=_int_arg, default=1)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("catalog", help="list, show or export the built-in fixtures")
    p.add_argument("action", choices=["list", "show", "export"])
    p.add_argument("name", nargs="?")
    p.add_argument("path", nargs="?")
    p.set_defaults(func=cmd_catalog)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TheoremCounterexample, StepMismatch) as e:
        print(f"identity failure: {e}", file=sys.stderr)
        return EXIT_IDENTITY
    except ValidationError as e:
        print(f"validation error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ParseError, UnknownEntry) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except EngineError as e:
        print(f"engine error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as e:
        # the OSError's own text repeats the file name, which may be huge
        name = "" if e.filename is None else f" on {shown(e.filename)}"
        print(f"i/o error{name}: {e.strerror or type(e).__name__}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
