"""Instance documents and the command-line surface."""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import decimal
import io
import json
import pathlib
import tempfile
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from floersplit import catalog
from floersplit.cli import build_parser, main
from floersplit.cobordism import verify_splitting
from floersplit.errors import (
    DichotomyViolation,
    EngineError,
    ParseError,
    RelationViolation,
    StepMismatch,
    UnknownEntry,
)
from floersplit.froyshov import MAX_N_MAX
from floersplit.gen import GenConfig, gen_chain_instance, gen_instance
from floersplit.instance import HOMOLOGY, Instance
from floersplit.qlinalg import Matrix
from floersplit.serialize import (
    MAX_DIM,
    document_to_instance,
    dumps,
    export,
    instance_to_document,
    load,
    rational_from_json,
    rational_to_json,
    shown,
)


# -- rationals ----------------------------------------------------------


def test_rational_json_round_trip():
    for x in (Fraction(0), Fraction(4), Fraction(-7), Fraction(1, 2), Fraction(-22, 7)):
        assert rational_from_json(rational_to_json(x)) == x
    assert rational_to_json(Fraction(4)) == 4
    assert rational_to_json(Fraction(1, 2)) == "1/2"
    assert rational_from_json("-10") == -10
    assert rational_from_json("007/14") == Fraction(1, 2)


def test_rational_json_rejects_floats_and_bools():
    with pytest.raises(ParseError):
        rational_from_json(0.5)
    with pytest.raises(ParseError):
        rational_from_json(True)
    with pytest.raises(ParseError):
        rational_from_json("not-a-number")


@pytest.mark.parametrize(
    "text", [" 1_0 ", "1_0", "1.5", "1e3", "1/0", "+1", "\u0661", "1/2\n"]
)
def test_rational_json_refuses_strings_outside_the_grammar(text):
    with pytest.raises(ParseError):
        rational_from_json(text)
    doc = copy.deepcopy(catalog.get("akbulut_cork_mapping_torus").document)
    doc["cobordism"]["blocks"][1][0][0] = text
    with pytest.raises(ParseError):
        document_to_instance(doc)


# -- documents ------------------------------------------------------------


def test_catalog_round_trips(tmp_path):
    for name in catalog.names():
        inst = catalog.load_entry(name)
        path = tmp_path / f"{name}.json"
        export(inst, str(path))
        assert load(str(path)) == inst


def test_generated_round_trips():
    for seed in range(1, 11):
        inst = gen_instance(GenConfig(seed=seed))
        assert document_to_instance(instance_to_document(inst)) == inst
    for seed in range(1, 4):
        inst = gen_chain_instance(GenConfig(seed=seed, chain_level=True))
        assert document_to_instance(instance_to_document(inst)) == inst


def test_homology_convention_chain_round_trip():
    inst = gen_chain_instance(GenConfig(seed=2, chain_level=True))
    hom = dataclasses.replace(inst, convention=HOMOLOGY)
    again = document_to_instance(instance_to_document(hom))
    assert again == hom


def test_no_floats_anywhere_in_documents():
    def walk(x):
        if isinstance(x, float):
            raise AssertionError(f"float leaked into document: {x}")
        if isinstance(x, dict):
            for v in x.values():
                walk(v)
        if isinstance(x, list):
            for v in x:
                walk(v)

    for seed in range(1, 6):
        inst = gen_instance(GenConfig(seed=seed))
        doc = instance_to_document(inst)
        walk(doc)
        assert document_to_instance(json.loads(json.dumps(doc))) == inst


def test_parse_error_on_truncated_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(dumps(catalog.load_entry("akbulut_cork_mapping_torus"))[:40])
    with pytest.raises(ParseError):
        load(str(path))


def _huge_integer_document() -> bytes:
    doc = copy.deepcopy(catalog.get("akbulut_cork_mapping_torus").document)
    doc["cobordism"]["blocks"][1][0][0] = "HUGE"
    # json.dumps cannot write the integer either, so splice it in as text
    return json.dumps(doc).replace('"HUGE"', "7" * 5000).encode()


@pytest.mark.parametrize(
    "payload", [_huge_integer_document(), b"\xff\xfe{}"], ids=["5000-digit-int", "not-utf8"]
)
def test_parse_error_on_undecodable_document(payload, tmp_path, capsys):
    path = tmp_path / "undecodable.json"
    path.write_bytes(payload)
    with pytest.raises(ParseError):
        load(str(path))
    assert main(["verify", str(path)]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")


def _metadata_nest_document(nest: str) -> str:
    doc = copy.deepcopy(catalog.get("akbulut_cork_mapping_torus").document)
    doc["metadata"] = {"note": "HOLE"}
    return json.dumps(doc).replace('"HOLE"', nest)


@pytest.mark.parametrize("where", ["top-level", "inside-metadata"])
def test_deeply_nested_document_is_a_parse_error(where, tmp_path, capsys):
    nest = "[" * 200_000 + "]" * 200_000
    path = tmp_path / "deep.json"
    path.write_text(nest if where == "top-level" else _metadata_nest_document(nest))
    assert main(["verify", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {shown(str(path))}: invalid JSON: nested too deeply"]


def test_parse_error_names_a_long_path_by_its_type(tmp_path, capsys):
    where = tmp_path.joinpath(*["d" * 200] * 18)  # a path of about 3,600 characters
    where.mkdir(parents=True)
    path = where / "truncated.json"
    path.write_text(dumps(catalog.load_entry("akbulut_cork_mapping_torus"))[:40])
    assert main(["verify", str(path)]) == 3
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and len(lines[0].encode()) < 300
    assert lines[0].startswith("error: str: invalid JSON at line ")


def test_parse_error_on_bad_shape():
    doc = copy.deepcopy(catalog.get("sigma_2_7_13_mapping_torus").document)
    doc["special"]["deltas"][0] = [[1, 0, 0]]  # wrong width
    with pytest.raises(ParseError):
        document_to_instance(doc)


def test_parse_error_on_schema_version():
    doc = copy.deepcopy(catalog.get("akbulut_cork_mapping_torus").document)
    doc["schema_version"] = "99"
    with pytest.raises(ParseError):
        document_to_instance(doc)


def test_parse_error_on_misshapen_family_member():
    doc = copy.deepcopy(catalog.get("sigma_2_7_13_mapping_torus").document)
    # vector members live on zero-dimensional degrees in this fixture, so
    # a member with a row cannot parse
    doc["special"]["deltas_prime"] = [[[1]], [], [], []]
    with pytest.raises(ParseError):
        document_to_instance(doc)


def test_misshapen_block_error_names_the_shape_not_the_data(tmp_path, capsys):
    doc = copy.deepcopy(catalog.get("akbulut_cork_mapping_torus").document)
    doc["spaces"]["hf"][1] = MAX_DIM
    doc["cobordism"]["blocks"][1] = [[10**15] * MAX_DIM for _ in range(MAX_DIM - 1)]
    path = tmp_path / "short-block.json"
    path.write_text(json.dumps(doc))
    assert path.stat().st_size > 250_000
    assert main(["verify", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.splitlines() == [
        f"error: cobordism.blocks[1]: expected {MAX_DIM} rows, got list of length {MAX_DIM - 1}"
    ]
    assert len(err.encode()) < 200


@pytest.mark.parametrize(
    "entry", ["7" * 100_000, "x" * 100_000, "1/" + "0" * 100_000],
    ids=["100000-digit-string", "100000-char-junk", "zero-denominator"],
)
def test_bad_rational_error_names_the_length_not_the_string(entry, tmp_path, capsys):
    doc = copy.deepcopy(catalog.get("akbulut_cork_mapping_torus").document)
    doc["cobordism"]["blocks"][1][0][0] = entry
    path = tmp_path / "long-entry.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: bad rational: str of length ")
    assert len(err.encode()) < 200


@pytest.mark.parametrize("level", ["cohomology-level", "chain-level"])
def test_n_max_past_the_cap_is_refused_before_members_are_built(level, tmp_path, capsys):
    import tracemalloc

    if level == "cohomology-level":
        doc = copy.deepcopy(catalog.get("sigma_2_7_13_mapping_torus").document)
        doc["special"].update(n_max=200_000, deltas=[], deltas_prime=[])
    else:
        doc = instance_to_document(gen_chain_instance(GenConfig(seed=2, chain_level=True)))
        doc["n_max"] = 200_000
    path = tmp_path / "long-family.json"
    path.write_text(json.dumps(doc))
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match=f"n_max must be an integer from [01] to {MAX_N_MAX}"):
            load(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # no family member was built
    assert main(["verify", str(path)]) == 3
    assert len(capsys.readouterr().err.splitlines()) == 1
    if level == "cohomology-level":
        doc["special"]["n_max"] = MAX_N_MAX
        assert document_to_instance(doc).pair.n_max == MAX_N_MAX


def _matrices_in(x):
    if isinstance(x, Matrix):
        yield x
    elif dataclasses.is_dataclass(x):
        for f in dataclasses.fields(x):
            yield from _matrices_in(getattr(x, f.name))
    elif isinstance(x, tuple):
        for v in x:
            yield from _matrices_in(v)


def test_loaded_entries_are_fractions():
    docs = [catalog.get(name).document for name in catalog.names()]
    docs.append(instance_to_document(gen_chain_instance(GenConfig(seed=2, chain_level=True))))
    for doc in docs:
        inst = document_to_instance(json.loads(json.dumps(doc)))
        matrices = list(_matrices_in(inst))
        assert matrices
        assert all(type(x) is Fraction for m in matrices for r in m.entries for x in r)


def test_unbacked_dimensions_fail_before_families_are_built():
    import tracemalloc

    doc = {
        "schema_version": "1",
        "level": "cohomology-level",
        "convention": "homology",
        "spaces": {"hf": [MAX_DIM, 0, 0, 0, MAX_DIM, 0, 0, 0]},
        "special": {"case": "both_zero", "n_max": MAX_N_MAX, "deltas": [], "deltas_prime": []},
        "cobordism": {"label": "W", "blocks": []},
    }
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match="cobordism.blocks: expected 8 blocks"):
            document_to_instance(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # no zero family member was built at a declared dimension


def _document_at(level: str, dim: int) -> dict:
    """A both-zero document with one degree of dimension ``dim``, an
    identity cobordism block there and zero data everywhere else."""
    dims = [0, dim, 0, 0, 0, 0, 0, 0]

    def blocks(shift, fill):
        return [
            [[fill(i, j) for j in range(dims[q])] for i in range(dims[(q + shift) % 8])]
            for q in range(8)
        ]

    identity = blocks(0, lambda i, j: int(i == j))
    doc = {"schema_version": "1", "level": level, "convention": "cohomology"}
    if level == "cohomology-level":
        doc["spaces"] = {"hf": dims}
        doc["special"] = {"case": "both_zero", "n_max": 1, "deltas": [], "deltas_prime": []}
    else:
        zero = lambda i, j: 0  # noqa: E731
        doc["spaces"] = {"cf": dims}
        doc.update(differential=blocks(1, zero), v=blocks(4, zero), n_max=1)
        doc.update(delta=[[]], delta_prime=[[0] for _ in range(dim)])
    doc["cobordism"] = {"label": "W", "blocks": identity}
    return doc


@pytest.mark.parametrize("level", ["cohomology-level", "chain-level"])
def test_document_dimensions_are_capped(level, tmp_path, capsys):
    key = "hf" if level == "cohomology-level" else "cf"
    at_cap = tmp_path / "at-cap.json"
    at_cap.write_text(json.dumps(_document_at(level, MAX_DIM)))
    assert load(str(at_cap)).space.dim(1) == MAX_DIM
    assert main(["verify", str(at_cap)]) == 0
    capsys.readouterr()
    past = tmp_path / "past-cap.json"
    past.write_text(json.dumps(_document_at(level, MAX_DIM + 1)))
    assert main(["verify", str(past)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: spaces.{key}: dimensions must be at most {MAX_DIM}"]


@pytest.mark.parametrize(
    "where", [("schema_version",), ("convention",), ("level",), ("special", "case"), ("cobordism", "label")]
)
@pytest.mark.parametrize(
    "make", [lambda: _nest(100_000, "list"), lambda: 10**5000, lambda: "x" * 10**5],
    ids=["deep-nest", "huge-int", "long-str"],
)
def test_parse_error_never_renders_a_huge_value(where, make):
    doc = copy.deepcopy(catalog.get("akbulut_cork_mapping_torus").document)
    parent = doc
    for key in where[:-1]:
        parent = parent[key]
    parent[where[-1]] = value = make()
    if where == ("cobordism", "label") and isinstance(value, str):
        assert document_to_instance(doc).w_label == value  # a long label is data, not an error
        return
    with pytest.raises(ParseError) as info:
        document_to_instance(doc)
    assert len(str(info.value)) < 100


FIXTURE_DOCS = {
    p.stem: json.loads(p.read_text())
    for p in sorted((pathlib.Path(__file__).resolve().parent.parent / "fixtures").glob("*.json"))
}


def _node_paths(node, path=()):
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _node_paths(child, path + (key,))


def _nest(depth: int, kind: str):
    x = [] if kind == "list" else {}
    for _ in range(depth):
        x = [x] if kind == "list" else {"k": x}
    return x


MUTATIONS = st.one_of(
    st.sampled_from(["x", 1.5, float("nan"), None, True, -1, 0, [[]], {"k": 1}]),  # wrong types
    st.sampled_from([2**200, -(2**200), 10**5000]),  # huge ints, the last past str()'s digit limit
    st.sampled_from([[], {}, ""]),  # empty containers
    st.builds(_nest, st.sampled_from([50, 100_000]), st.sampled_from(["list", "dict"])),
)


def _mutated(data, source: dict):
    """A copy of ``source`` with one node (the root included) replaced by
    a drawn mutation."""
    doc = json.loads(json.dumps(source))
    path = data.draw(st.sampled_from(list(_node_paths(doc))))
    mutation = data.draw(MUTATIONS)
    if not path:
        return mutation
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = mutation
    return doc


def _load_mutated(data, source: dict) -> None:
    """A mutated copy of ``source`` either loads or raises an EngineError
    subclass, within 2 s of CPU time."""
    doc = _mutated(data, source)
    start = time.process_time()
    try:
        assert isinstance(document_to_instance(doc), Instance)
    except EngineError:
        pass
    assert time.process_time() - start < 2.0


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_mutated_fixture_loads_or_raises_an_engine_error(data):
    """One node of a fixture document replaced by a wrong type, a huge
    int, an empty container or a deep nest loads or fails cleanly."""
    _load_mutated(data, FIXTURE_DOCS[data.draw(st.sampled_from(sorted(FIXTURE_DOCS)))])


def _json_text(node) -> str:
    """JSON text of a document, written without recursion and without
    ``str`` of an int: ``json.dumps`` refuses a nest past the recursion
    limit and an int past the digit limit, which the reader must bound."""
    out, todo = [], [node]
    while todo:
        x = todo.pop()
        if type(x) is tuple:  # punctuation queued below
            out.append(x[0])
        elif type(x) is list:
            out.append("[")
            todo.append(("]",))
            for i in reversed(range(len(x))):
                todo += [x[i], (",",)] if i else [x[i]]
        elif type(x) is dict:
            out.append("{")
            todo.append(("}",))
            items = list(x.items())
            for i in reversed(range(len(items))):
                key, value = items[i]
                todo += [value, (("," if i else "") + json.dumps(key) + ":",)]
        elif type(x) is int:
            out.append(str(decimal.Decimal(x)))
        else:
            out.append(json.dumps(x))
    return "".join(out)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_mutated_fixture_file_verifies_with_a_documented_exit(data):
    """The fixture mutations written to a file and run through
    ``floersplit verify``, where the JSON reader meets them first: an exit
    code 0 to 3, at most one stderr line and no traceback, within 2 s of
    CPU time."""
    doc = _mutated(data, FIXTURE_DOCS[data.draw(st.sampled_from(sorted(FIXTURE_DOCS)))])
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "mutated.json"
        path.write_text(_json_text(doc), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        start = time.process_time()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", str(path)])
        assert time.process_time() - start < 2.0
    assert code in (0, 1, 2, 3)
    lines = err.getvalue().splitlines()
    assert len(lines) <= 1 and "Traceback" not in err.getvalue()
    assert all(len(line) < 300 for line in lines)


CHAIN_DOC = instance_to_document(gen_chain_instance(GenConfig(seed=2, chain_level=True)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_mutated_chain_document_loads_or_raises_an_engine_error(data):
    """The same mutations on a chain-level document, which loading turns
    into an instance through ``chain_instance``: cohomology, the induced
    families and the induced W."""
    _load_mutated(data, CHAIN_DOC)


def test_dichotomy_violation_on_load_clean():
    dims = [1, 1, 1, 1, 1, 1, 1, 1]
    doc = {
        "schema_version": "1",
        "level": "cohomology-level",
        "convention": "cohomology",
        "metadata": {"name": "conflict"},
        "spaces": {"hf": dims},
        "special": {
            "case": "delta_side",
            "n_max": 1,
            "deltas": [[[1]], [[0]]],
            "deltas_prime": [[[1]], [[0]]],
        },
        "cobordism": {"label": "W", "blocks": [[[1]] for _ in range(8)]},
    }
    with pytest.raises(DichotomyViolation):
        document_to_instance(doc)


def test_unknown_catalog_entry():
    with pytest.raises(UnknownEntry):
        catalog.get("nope")


def test_catalog_unique_prefix():
    assert catalog.get("sigma_2_7_13").name == "sigma_2_7_13_mapping_torus"
    with pytest.raises(UnknownEntry):
        catalog.get("")  # ambiguous prefix


# -- CLI -------------------------------------------------------------------


def test_cli_verify_pass(capsys):
    rc = main(["verify", "catalog:sigma_2_7_13_mapping_torus"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "Lef(W)      = -4" in out
    assert "PASS" in out


def test_cli_verify_json(capsys):
    rc = main(["--format", "json", "verify", "catalog:akbulut_cork_mapping_torus"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["schema_version"] == "1"
    assert out["verdict"]["lef_w"] == 4
    assert out["verdict"]["lambda_fo"] == 2
    assert out["verdict"]["pass"] is True


def test_cli_convention_view(capsys):
    rc = main(["--format", "json", "--convention", "cohomology",
               "verify", "catalog:sigma_2_7_13_mapping_torus"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["verdict"]["lef_w"] == 4  # sign flips relative to the homology view
    assert out["verdict"]["h_x"] == 2    # invariants do not


# the degree-zero relation fails: the map doubles the functional
BAD_RELATION_DOC = {
    "schema_version": "1",
    "level": "cohomology-level",
    "convention": "cohomology",
    "metadata": {"name": "bad-relation"},
    "spaces": {"hf": [0, 0, 0, 0, 1, 0, 0, 0]},
    "special": {
        "case": "delta_side",
        "n_max": 1,
        "deltas": [[[1]], [[]]],
        "deltas_prime": [],
    },
    "cobordism": {"label": "W", "blocks": [[], [], [], [], [[2]], [], [], []]},
}


@pytest.fixture
def bad_relation_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(BAD_RELATION_DOC))
    return str(path)


def test_cli_verify_validation_error(bad_relation_file, capsys):
    rc = main(["verify", bad_relation_file])
    assert rc == 2
    assert "validation error" in capsys.readouterr().err


@pytest.mark.parametrize("tower", [[], ["--tower", "0"]])
def test_cli_trace_validation_error(bad_relation_file, tower, capsys):
    rc = main(["trace", bad_relation_file, *tower])
    assert rc == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        "validation error: RelationViolation: degree-zero delta relation fails at degree 4"
    ]


def test_load_parses_and_verify_validates(bad_relation_file):
    inst = load(bad_relation_file)
    assert isinstance(inst, Instance)
    with pytest.raises(RelationViolation):  # a ValidationError, exit 2 in the CLI
        verify_splitting(inst)


@pytest.mark.parametrize("target", ["file", "catalog:sigma_2_7_13_mapping_torus"])
def test_cli_verify_validates_once(target, tmp_path, monkeypatch, capsys):
    import floersplit.cobordism as cobordism

    if target == "file":
        target = str(tmp_path / "sigma.json")
        export(catalog.load_entry("sigma_2_7_13_mapping_torus"), target)
    real, calls = cobordism.reduced, []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(cobordism, "reduced", counted)
    assert main(["verify", target]) == 0
    assert len(calls) == 1


def test_cli_verify_parse_error(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    assert main(["verify", str(path)]) == 3
    assert main(["verify", "catalog:missing"]) == 3
    assert main(["verify", str(tmp_path / "absent.json")]) == 3


@pytest.mark.parametrize(
    "where,line",
    [
        (("v", 0), "validation error: NotAChainMap: v does not commute with the differentials"),
        (
            ("cobordism", "blocks", 0),
            "validation error: NotAChainMap: W does not commute with the differentials",
        ),
    ],
    ids=["v", "W"],
)
def test_cli_verify_names_the_map_that_is_not_a_chain_map(where, line, tmp_path, capsys):
    doc = copy.deepcopy(CHAIN_DOC)
    block = doc
    for key in where:
        block = block[key]
    block[0][0] = rational_to_json(rational_from_json(block[0][0]) + 1)  # one entry changed
    path = tmp_path / "not-a-chain-map.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [line]


LONG = "x" * 5000


@pytest.mark.parametrize(
    "argv",
    [
        lambda tmp: ["verify", "gen:" + "9" * 5000],  # past int()'s digit limit
        lambda tmp: ["verify", "catalog:" + LONG],
        lambda tmp: ["verify", str(tmp / LONG)],
        lambda tmp: ["sweep", "--seeds", LONG],
        lambda tmp: ["sweep", "--seeds", "1..1", "--case-mix", LONG],
        lambda tmp: ["catalog", "export", "akbulut_cork_mapping_torus", str(tmp / LONG)],
    ],
    ids=["gen", "catalog", "path", "seeds", "case-mix", "export"],
)
def test_cli_error_never_echoes_a_long_argument(argv, tmp_path, capsys):
    assert main(argv(tmp_path)) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and len(lines[0].encode()) < 200


@pytest.mark.parametrize(
    "command, flag",
    [("sweep", "--jobs"), ("sweep", "--max-dim"), ("sweep", "--nmax"), ("trace", "--tower")],
)
@pytest.mark.parametrize("value, rendered", [(LONG, "str"), ("1.5", "'1.5'")], ids=["long", "short"])
def test_cli_bad_int_flag_is_one_line_exit_2(command, flag, value, rendered, capsys):
    """argparse's own type error, without its usage text and without
    echoing a long value; the exit code stays argparse's 2."""
    target = ["--seeds", "1..1"] if command == "sweep" else ["catalog:sigma_2_7_13"]
    with pytest.raises(SystemExit) as info:
        main([command, *target, flag, value])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"floersplit {command}: error: argument {flag}: invalid int value: {rendered}"
    ]


@pytest.mark.parametrize(
    "value, rendered", [("0", "'0'"), ("-3", "'-3'"), ("-" + "9" * 100, "str")], ids=["zero", "negative", "long"]
)
def test_cli_jobs_below_1_is_one_line_exit_2(value, rendered, capsys):
    """A worker count below 1 is refused before any seed runs, not run
    serially."""
    with pytest.raises(SystemExit) as info:
        main(["sweep", "--seeds", "1..2", "--jobs", value])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"floersplit sweep: error: argument --jobs: must be at least 1: {rendered}"
    ]


@pytest.mark.parametrize(
    "argv, line",
    [
        (["catalog", LONG], "floersplit catalog: error: argument action: invalid choice: str"),
        ([LONG], "floersplit: error: argument command: invalid choice: str"),
        (["--format", LONG, "verify", "x"], "floersplit: error: argument --format: invalid choice: str"),
        (["verify", "catalog:sigma", LONG], "floersplit: error: unrecognized arguments: str"),
        (["verify", "catalog:sigma", "a", LONG], "floersplit: error: unrecognized arguments: 'a' and 1 more"),
    ],
    ids=["catalog-action", "command", "format", "unrecognized", "unrecognized-two"],
)
def test_cli_bad_choice_or_extra_argument_is_one_short_line(argv, line, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (err,) = captured.err.splitlines()
    assert err.startswith(line) and len(err.encode()) < 300


@pytest.mark.parametrize("family", ["deltas", "deltas_prime"])
def test_cli_verify_non_list_family_is_parse_error(family, tmp_path, capsys):
    doc = copy.deepcopy(catalog.get("sigma_2_7_13_mapping_torus").document)
    doc["special"][family] = 5
    path = tmp_path / "bad-family.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.strip().splitlines() == [f"error: {family} must be a list of matrices"]



@pytest.mark.parametrize("metadata", [0, "", False, [], 1, "x", [{}]], ids=repr)
def test_cli_verify_non_object_metadata_is_parse_error(metadata, tmp_path, capsys):
    doc = copy.deepcopy(catalog.get("sigma_2_7_13_mapping_torus").document)
    doc["metadata"] = metadata
    path = tmp_path / "bad-metadata.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.strip().splitlines() == ["error: metadata must be an object"]


@pytest.mark.parametrize("present", [True, False])
def test_missing_or_null_metadata_is_empty(present):
    doc = copy.deepcopy(catalog.get("sigma_2_7_13_mapping_torus").document)
    if present:
        doc["metadata"] = None
    else:
        del doc["metadata"]
    assert document_to_instance(doc).metadata == {}

def test_cli_verify_identity_failure_exit_code(monkeypatch, capsys):
    import floersplit.cli as cli

    real = cli.verify_splitting

    def broken(instance, **kw):
        v = real(instance, **kw)
        return dataclasses.replace(v, identity_hx_equals_hy=False)

    monkeypatch.setattr(cli, "verify_splitting", broken)
    rc = main(["verify", "catalog:akbulut_cork_mapping_torus"])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_engine_error_exits_2_without_traceback(monkeypatch, capsys):
    import floersplit.cli as cli
    from floersplit.errors import Infeasible

    def infeasible(cfg):
        raise Infeasible(f"no valid instance for seed {cfg.seed}")

    monkeypatch.setattr(cli, "gen_instance", infeasible)
    assert main(["verify", "gen:1"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().splitlines() == ["engine error: Infeasible: no valid instance for seed 1"]


def test_cli_trace_text(capsys):
    rc = main(["trace", "catalog:sigma_2_7_13_mapping_torus", "--tower", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "tower degree 0" in out and "removed 2" in out


def test_cli_trace_both_zero_note(capsys):
    rc = main(["trace", "catalog:akbulut_cork_mapping_torus"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "reduced equals unreduced" in out


def test_cli_trace_generated_seed(capsys):
    rc = main(["trace", "gen:42"])
    out = capsys.readouterr().out
    assert rc == 0 and "tower degree" in out
    assert main(["verify", "gen:42"]) == 0
    capsys.readouterr()
    assert main(["verify", "gen:nope"]) == 3


def test_cli_trace_json(capsys):
    rc = main(["--format", "json", "trace", "catalog:sigma_2_7_13_mapping_torus"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    degrees = [t["degree"] for t in out["trace"]["towers"]]
    assert degrees == [0, 4]


def test_cli_trace_replays_only_the_requested_tower(capsys, monkeypatch):
    import floersplit.cobordism as cob

    replay = cob._replay_tower
    replayed = []

    def broken_at_4(block, degree, members):
        replayed.append(degree)
        if degree == 4:
            raise StepMismatch("kernel tower at degree 4: step 1 dropped 2, expected 1")
        return replay(block, degree, members)

    monkeypatch.setattr(cob, "_replay_tower", broken_at_4)
    target = "catalog:sigma_2_7_13_mapping_torus"
    assert main(["trace", target, "--tower", "0"]) == 0
    assert replayed == [0]
    assert "tower degree 0" in capsys.readouterr().out
    assert main(["trace", target, "--tower", "4"]) == 1
    assert main(["trace", target]) == 1  # by default both towers of the kind
    assert replayed == [0, 4, 0, 4]
    assert "identity failure: kernel tower at degree 4" in capsys.readouterr().err


def test_cli_shared_parser_keeps_no_state(capsys):
    target = "catalog:sigma_2_7_13_mapping_torus"

    def run(*argv):
        assert main(list(argv)) == 0
        return capsys.readouterr().out

    sequences = [
        (["--convention", "cohomology", "verify", target], ["verify", target]),
        (["--format", "json", "verify", target], ["verify", target]),
    ]
    for first, second in sequences:
        build_parser.cache_clear()  # the reference: a fresh parser
        alone = run(*second)
        build_parser.cache_clear()
        assert run(*first) != alone
        assert run(*second) == alone
    assert "convention:   homology" in alone


def test_cli_sweep_small(capsys):
    rc = main(["sweep", "--seeds", "1..12"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "12/12 passed" in out


def test_cli_sweep_json_and_jobs(capsys):
    rc = main(["--format", "json", "sweep", "--seeds", "1..8", "--jobs", "2"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["total"] == 8 and out["passed"] == 8


def test_cli_sweep_bad_range(capsys):
    assert main(["sweep", "--seeds", "nope"]) == 3


@pytest.mark.parametrize("seeds", ["5..1", "2..1"])
def test_cli_sweep_empty_range_is_parse_error(seeds, capsys):
    assert main(["sweep", "--seeds", seeds]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines() == [
        f"error: empty seed range {seeds!r}, expected A..B with A <= B"
    ]


def test_cli_sweep_seed_range_is_capped(monkeypatch, capsys):
    import tracemalloc

    from floersplit import cli

    def never(task):
        raise AssertionError("a seed ran past the cap")

    monkeypatch.setattr(cli, "_sweep_one", never)
    tracemalloc.start()
    try:
        for seeds in (f"1..{cli.MAX_SWEEP_SEEDS + 1}", "1..1000000000000", f"0..{10**30}"):
            assert main(["sweep", "--seeds", seeds, "--jobs", "1"]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.strip().splitlines() == [
                f"error: seed range {seeds!r} has more than {cli.MAX_SWEEP_SEEDS} seeds"
            ]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # no task list was built


@pytest.mark.parametrize("mix", ["nan,1,1", "inf,1,1", "1e308,1e308,1e308"])
def test_cli_sweep_non_finite_case_mix_is_a_validation_error(mix, capsys):
    assert main(["sweep", "--seeds", "1..3", "--case-mix", mix]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "validation error: ValidationError: case_mix needs finite weights with a finite total"
    ]


def test_cli_sweep_n_max_past_the_cap_is_a_validation_error(capsys):
    assert main(["sweep", "--seeds", "1..1", "--nmax", str(MAX_N_MAX + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert captured.err.startswith("validation error: ValidationError: n_max ")


def test_cli_sweep_max_dim_past_the_cap_is_a_validation_error(capsys):
    import tracemalloc

    from floersplit.gen import MAX_GEN_DIM

    tracemalloc.start()
    try:
        for max_dim in (MAX_GEN_DIM + 1, 10**6, 10**30):
            assert main(["sweep", "--seeds", "1..1", "--max-dim", str(max_dim), "--jobs", "1"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.splitlines() == [
                f"validation error: ValidationError: max_dim {max_dim} is past {MAX_GEN_DIM}"
            ]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # refused before any dimension was drawn


def test_cli_sweep_empty_instances(capsys):
    rc = main(["sweep", "--seeds", "1..1", "--max-dim", "0"])
    out = capsys.readouterr().out
    assert rc == 0 and "1/1 passed" in out


def test_cli_catalog_list(capsys):
    rc = main(["catalog", "list"])
    out = capsys.readouterr().out
    assert rc == 0
    for name in (
        "sigma_2_7_13_mapping_torus",
        "akbulut_cork_mapping_torus",
        "product_cobordism_demo",
    ):
        assert name in out


def test_cli_catalog_show(capsys):
    rc = main(["catalog", "show", "sigma_2_7_13_mapping_torus"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["expected"]["h_y"]["value"] == 2
    assert out["document"]["spaces"]["hf"] == [0, 4, 0, 2, 0, 4, 0, 2]


def test_cli_catalog_export_then_load(tmp_path, capsys):
    path = tmp_path / "sigma.json"
    rc = main(["catalog", "export", "sigma_2_7_13_mapping_torus", str(path)])
    assert rc == 0
    inst = load(str(path))
    assert inst == catalog.load_entry("sigma_2_7_13_mapping_torus")


def test_cli_catalog_unknown(capsys):
    assert main(["catalog", "show", "missing"]) == 3


def test_report_color_toggle(capsys, monkeypatch):
    monkeypatch.setenv("REPORT_COLOR", "1")
    main(["verify", "catalog:akbulut_cork_mapping_torus"])
    assert "\x1b[32mPASS\x1b[0m" in capsys.readouterr().out


def test_cli_trace_wrong_tower_for_case(capsys):
    # the cork fixture has both families zero, so every tower applies;
    # use a vector-side instance and ask for a kernel tower
    doc = {
        "schema_version": "1",
        "level": "cohomology-level",
        "convention": "cohomology",
        "metadata": {"name": "prime-side"},
        "spaces": {"hf": [0, 1, 0, 0, 0, 0, 0, 0]},
        "special": {
            "case": "delta_prime_side",
            "n_max": 1,
            "deltas": [],
            "deltas_prime": [[[1]], []],
        },
        "cobordism": {"label": "W", "blocks": [[], [[1]], [], [], [], [], [], []]},
    }
    import tempfile, os

    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as f:
        json.dump(doc, f)
        path = f.name
    try:
        capsys.readouterr()
        assert main(["trace", path, "--tower", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "validation error: kernel-tower replay needs a vanishing delta' family\n"
        assert main(["trace", path, "--tower", "1"]) == 0
    finally:
        os.unlink(path)
    capsys.readouterr()
    assert main(["trace", "catalog:sigma_2_7_13_mapping_torus", "--tower", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "validation error: span-tower replay needs a vanishing delta family\n"


def _sabotage_seed_2(monkeypatch):
    """The CLI's verify raises an identity failure on seed 2."""
    import floersplit.cli as cli
    from floersplit.errors import TheoremCounterexample

    real = cli.verify_splitting

    def sabotage(instance, **kw):
        if instance.metadata.get("seed") == 2:
            raise TheoremCounterexample("sabotaged for the test")
        return real(instance, **kw)

    monkeypatch.setattr(cli, "verify_splitting", sabotage)


def _perturb_a_solved_block(monkeypatch):
    """The generator adds the identity to the cobordism block it solved for
    the active family's member 0, so that member's degree-zero relation
    fails wherever it is nonzero."""
    from floersplit import gen
    from floersplit.froyshov import Case

    real = gen._w_blocks

    def perturbed(rng, space, pair, periodic):
        blocks, planted_a, planted_b = real(rng, space, pair, periodic)
        q = {Case.DELTA_SIDE: 4, Case.DELTA_PRIME_SIDE: 1}.get(pair.case)
        if q is not None:
            blocks[q] = blocks[q] + Matrix.identity(space.dim(q))
        return blocks, planted_a, planted_b

    monkeypatch.setattr(gen, "_w_blocks", perturbed)


@pytest.mark.parametrize(
    "plant,rc,kind",
    [(_sabotage_seed_2, 1, "identity"), (_perturb_a_solved_block, 2, "validation")],
    ids=["broken-verify", "broken-generator"],
)
def test_cli_sweep_failure_dump(plant, rc, kind, tmp_path, capsys, monkeypatch):
    """Every failing seed is dumped, and verifying its dump exits as the
    sweep did with the sweep's error, also when the generator is at fault."""
    plant(monkeypatch)
    monkeypatch.chdir(tmp_path)
    assert main(["--format", "json", "sweep", "--seeds", "1..6"]) == rc
    report = json.loads(capsys.readouterr().out)
    failures = report["failures"]
    assert failures and report["passed"] == 6 - len(failures)
    if kind == "identity":
        assert [f["seed"] for f in failures] == [2]
    assert main(["sweep", "--seeds", "1..6"]) == rc
    text = capsys.readouterr().out.splitlines()
    assert text[0] == f"sweep: {report['passed']}/6 passed"
    assert text[-len(failures):] == [
        f"  FAIL seed {f['seed']}: {f['error']} (dumped to {f['dump']})" for f in failures
    ]
    for f in failures:
        assert f["kind"] == kind
        assert f["dump"] == f"floersplit-failure-{f['seed']}.json"
        replay = document_to_instance(json.loads((tmp_path / f["dump"]).read_text()))
        assert replay.metadata["seed"] == f["seed"]
        assert main(["verify", f["dump"]]) == rc
        assert capsys.readouterr().err.splitlines()[-1].endswith(f["error"])


def test_cli_sweep_analyses_each_seed_once(monkeypatch, tmp_path, capsys):
    """One sweep seed validates its relations once and analyses its reduced
    theory once, counted in every module that binds each name."""
    import sys

    import floersplit.cobordism as cob

    calls = {"validate_relations": 0, "reduced": 0, "reduced_induced": 0}

    def counting(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "floersplit"]
    for name in calls:
        real = getattr(cob, name)
        wrapper = counting(name, real)
        for module in modules:  # wherever the name is bound
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, wrapper)
    monkeypatch.chdir(tmp_path)  # where a failing seed would be dumped
    assert main(["sweep", "--seeds", "1..5"]) == 0
    assert "5/5 passed" in capsys.readouterr().out
    assert calls == {"validate_relations": 5, "reduced": 5, "reduced_induced": 5}


def test_cli_sweep_jobs_clamped_to_cores(monkeypatch, capsys):
    import concurrent.futures

    import floersplit.cli as cli

    seen = []

    class FakePool:
        """Records the requested worker count and runs the tasks inline."""

        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    assert main(["sweep", "--seeds", "1..2", "--jobs", "4096"]) == 0
    assert seen == [2]
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)  # unknown: one core
    assert main(["sweep", "--seeds", "1..2", "--jobs", "4096"]) == 0
    assert seen == [2]  # no pool at all
    assert capsys.readouterr().out.count("2/2 passed") == 2


def test_cli_import_does_not_load_process_pool():
    import os
    import subprocess
    import sys

    import floersplit

    src = os.path.dirname(os.path.dirname(os.path.abspath(floersplit.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import floersplit.cli, sys; print('concurrent.futures.process' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    assert out.stdout.strip() == "False"
