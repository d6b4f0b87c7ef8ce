"""Golden outputs: generated instances, relation reports and CLI reports,
byte for byte.

The instance and report digests were recorded before the tower walk, the
Krylov loop and the cobordism-block solver were each merged into one code
path, and they pin that those paths still consume the random stream in
the same order and print the same reports.  The relation-report digests
were recorded before the two special families were merged into one
relation loop, and pin its coefficients, violations and defects.  The
catalog digests were recorded while the catalog still carried its own
copies of the fixture documents, and pin that reading the fixture files
prints the same listings, entries, exports and reports.  A digest
changes only when an output changes; a deliberate output change must
re-record it and say why.

The digests of the `verify gen:N` and `trace gen:N` reports and of the
chain-level verdicts were recorded on the commit whose generator still
ran its own relation check and whose cohomology still rebuilt B^q from
its coordinates in Z^q, before either was removed; they pin that
dropping those checks changed no report and no verdict.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from floersplit.cli import _verdict_json, main
from floersplit.cobordism import validate_relations, verify_splitting
from floersplit.gen import GenConfig, gen_instance
from floersplit.serialize import dumps

from helpers import perturb_w

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

# SHA-256 of the newline-joined serialize.dumps of the seeds' instances
INSTANCE_DIGESTS = {
    "default": (
        {}, range(1, 13),
        "2016f0104750ee3a2da85f24c5b9ee77547a23cb6e0dc56bc19a872b8e8dc3f2",
    ),
    "periodic": (
        {"periodic": True}, range(1, 13),
        "cd6a68753db635ff57279a87d1f0e3ba98193d59b2b3c9ee9932086d38222665",
    ),
    "chain_level": (
        {"chain_level": True}, range(1, 4),
        "2d07906882acdd762e68fa87e41556e5dbf27a4dfba9a610290b117b6847e8a3",
    ),
    "chain_level_periodic": (
        {"chain_level": True, "periodic": True}, range(1, 4),
        "19e8d204613a6e61d03d2071d38bf62f4457ecbe2c3d203bb8963890a97f591b",
    ),
}

# SHA-256 of the stdout of `floersplit --format json COMMAND fixtures/NAME.json`
REPORT_DIGESTS = {
    ("sigma_2_7_13_mapping_torus", "verify"):
        "7e4b32903442ad1ea133bd6772279948291066a1db33e2229eb11a2729914ead",
    ("sigma_2_7_13_mapping_torus", "trace"):
        "98c91a6f45d952bb11cfd2273c5c98fdb196ce941eeb7f51ef65ace3d5909f3e",
    ("akbulut_cork_mapping_torus", "verify"):
        "f1c25c850040a0411550dccf2ac085a2835089a744a6e2e67a26daa130b29e02",
    ("akbulut_cork_mapping_torus", "trace"):
        "3993547a9aec4c6d27102ffc5e09cea40e0138b5d7321ed5a49986e6fcaa1691",
    ("product_cobordism_demo", "verify"):
        "684688e2a66895578e190644c635c2ff7233c8f08e6cbc51e0242a5ddc60aa7c",
    ("product_cobordism_demo", "trace"):
        "3dfe0fa3600fad0dd772e637df2a105b7108be91a1dc672b1baeb315cc93f551",
}

# (exit code, SHA-256 of the stdout) of `floersplit --format json trace
# fixtures/NAME.json --tower Q`; a span tower on a functional-side fixture
# is refused with exit 2 and an empty stdout
_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
TOWER_DIGESTS = {
    ("akbulut_cork_mapping_torus", 0):
        (0, "3b1a0fd0fca4d983410d5e6fab62c66dae579b05a4a6d82429947866829a5ac0"),
    ("akbulut_cork_mapping_torus", 1):
        (0, "b05576ddd12ae3b6e8ca8498b65df23d4fc1a0b5bc2939ac3d921f60b1dc6efe"),
    ("akbulut_cork_mapping_torus", 4):
        (0, "6cc0e3a9d50e673713948f6dc23ff11e909c83d9f4d92d351131e110150f9954"),
    ("akbulut_cork_mapping_torus", 5):
        (0, "d3cde7498a93d722117f5462c7fa634867f630bc5fa34b79eda91974e03b113e"),
    ("product_cobordism_demo", 0):
        (0, "80b10ae4a090c3bd8092e3e5939a377fc458b77c6b36854c5ec2437fe1617a68"),
    ("product_cobordism_demo", 1): (2, _EMPTY),
    ("product_cobordism_demo", 4):
        (0, "dd34a26500b72ab326896813bd15d802ef37f17054014232d5a9f2e65d8b1b36"),
    ("product_cobordism_demo", 5): (2, _EMPTY),
    ("sigma_2_7_13_mapping_torus", 0):
        (0, "8bece348e78b89a990e86bff1025df64095184335f3f5ed376a37512c57492f9"),
    ("sigma_2_7_13_mapping_torus", 1): (2, _EMPTY),
    ("sigma_2_7_13_mapping_torus", 4):
        (0, "9a2ac8af40571ee56c995a543ad188c696fdb95cc869b4c1926cf3972f087d2e"),
    ("sigma_2_7_13_mapping_torus", 5): (2, _EMPTY),
}

# SHA-256 of the stdout of `floersplit ARGS`; a unique prefix shows its entry
CATALOG_DIGESTS = {
    ("catalog", "list"):
        "a1507f13d341a9f4163eec4d407b2ecd80e519bad7b43fc250dc503a8b5546e0",
    ("--format", "json", "catalog", "list"):
        "4b9b71c7b0c236a2050158d776a5999135f0eaf92c346ffe0e52cdd3dd916bdb",
    ("catalog", "show", "sigma_2_7_13_mapping_torus"):
        "989279d6fee0a179c78a9e000e3650e979369d6749d0c0cb59b2ae70d07bda66",
    ("catalog", "show", "sigma_2_7"):
        "989279d6fee0a179c78a9e000e3650e979369d6749d0c0cb59b2ae70d07bda66",
    ("catalog", "show", "akbulut_cork_mapping_torus"):
        "884734cc7aef2b6afd631c50927b99d7e9f74883855069a9d1d8a6d12efbb735",
    ("catalog", "show", "product_cobordism_demo"):
        "8bf691d4db6c4bb007107ac9af33b53477d72f1012582142a3a6e3fb3c54f3e3",
}

# SHA-256 of the concatenated stdouts of `floersplit --format json COMMAND
# gen:N` for N in 0..39
GENERATED_REPORT_DIGESTS = {
    "verify": "82e1af8d9f4c2322040ee281277ec6371467d9b59d0e50f762d281f58d5841ee",
    "trace": "65ea332d740fa6256175f1ae8e1d8610c20c3f2d1fb25d362fe54ff2d2a44b36",
}

# SHA-256 of the newline-joined sorted-key JSON of cli._verdict_json of
# verify_splitting on the chain-level seeds' instances
CHAIN_VERDICT_DIGESTS = {
    "chain_level": (
        {"chain_level": True}, range(1, 7),
        "3d3885ae9e1b53a5f839099115acf55a1ed9795c8e9845f7db9e08ea27f6a155",
    ),
    "chain_level_periodic": (
        {"chain_level": True, "periodic": True}, range(1, 7),
        "74f540e8367fa1f92e0846551ed6e5b963df92e99aa535ba5e0b7e828de1feea",
    ),
}

# SHA-256 of the newline-joined validate_relations reports of the seeds'
# instances, each with its own W and with perturb_w(W, pair, seed % 2)
RELATION_DIGESTS = {
    "default": (
        {}, range(1, 41),
        "dcea6cfdcf73687fd201b8195e23d4325bb1070166a78d5e7377a2c4e62c8597",
    ),
    "periodic": (
        {"periodic": True}, range(1, 21),
        "8db5d2dbbe1ab9744456c43ca00e7eb18b1f01f20353b55e66d4da8225482e66",
    ),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("mode", sorted(INSTANCE_DIGESTS))
def test_generated_instances_are_golden(mode):
    kwargs, seeds, digest = INSTANCE_DIGESTS[mode]
    docs = "\n".join(dumps(gen_instance(GenConfig(seed=s, **kwargs))) for s in seeds)
    assert _sha256(docs) == digest


@pytest.mark.parametrize("name,command", sorted(REPORT_DIGESTS))
def test_json_reports_are_golden(name, command, capsys):
    rc = main(["--format", "json", command, str(FIXTURES / f"{name}.json")])
    assert rc == 0
    assert _sha256(capsys.readouterr().out) == REPORT_DIGESTS[name, command]


@pytest.mark.parametrize("name,command", sorted(REPORT_DIGESTS))
def test_catalog_target_reports_are_golden(name, command, capsys):
    rc = main(["--format", "json", command, f"catalog:{name}"])
    assert rc == 0
    assert _sha256(capsys.readouterr().out) == REPORT_DIGESTS[name, command]


@pytest.mark.parametrize("command", sorted(GENERATED_REPORT_DIGESTS))
def test_generated_seed_reports_are_golden(command, capsys):
    outs = []
    for n in range(40):
        assert main(["--format", "json", command, f"gen:{n}"]) == 0
        outs.append(capsys.readouterr().out)
    assert _sha256("".join(outs)) == GENERATED_REPORT_DIGESTS[command]


@pytest.mark.parametrize("mode", sorted(CHAIN_VERDICT_DIGESTS))
def test_chain_level_verdicts_are_golden(mode):
    kwargs, seeds, digest = CHAIN_VERDICT_DIGESTS[mode]
    lines = []
    for s in seeds:
        verdict = verify_splitting(gen_instance(GenConfig(seed=s, **kwargs)))
        lines.append(json.dumps(_verdict_json(verdict), sort_keys=True))
    assert _sha256("\n".join(lines)) == digest


@pytest.mark.parametrize("name,tower", sorted(TOWER_DIGESTS))
def test_json_tower_reports_are_golden(name, tower, capsys):
    rc = main(["--format", "json", "trace", str(FIXTURES / f"{name}.json"), "--tower", str(tower)])
    captured = capsys.readouterr()
    assert (rc, _sha256(captured.out)) == TOWER_DIGESTS[name, tower]
    refused = "validation error: span-tower replay needs a vanishing delta family\n"
    assert captured.err == ("" if rc == 0 else refused)


@pytest.mark.parametrize("args", sorted(CATALOG_DIGESTS))
def test_catalog_outputs_are_golden(args, capsys):
    assert main(list(args)) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert _sha256(captured.out) == CATALOG_DIGESTS[args]


def test_catalog_unknown_entry_is_golden(capsys):
    assert main(["catalog", "show", "missing"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: no catalog entry named 'missing'; have sigma_2_7_13_mapping_torus, "
        "akbulut_cork_mapping_torus, product_cobordism_demo\n"
    )


@pytest.mark.parametrize("name", sorted({name for name, _ in REPORT_DIGESTS}))
def test_catalog_export_writes_the_fixture_file(name, tmp_path, capsys):
    path = tmp_path / "out.json"
    assert main(["catalog", "export", name, str(path)]) == 0
    assert capsys.readouterr().out == f"wrote {path}\n"
    assert path.read_bytes() == (FIXTURES / f"{name}.json").read_bytes()


def _report_text(r) -> str:
    violations = [(v.relation, v.n, v.degree, v.defect.entries) for v in r.violations]
    return repr((
        r.ok, sorted(r.a.items()), sorted(r.b.items()), violations,
        r.a_integral, r.b_integral, r.nonunique_a, r.nonunique_b,
    ))


@pytest.mark.parametrize("mode", sorted(RELATION_DIGESTS))
def test_relation_reports_are_golden(mode):
    kwargs, seeds, digest = RELATION_DIGESTS[mode]
    lines = []
    for s in seeds:
        inst = gen_instance(GenConfig(seed=s, **kwargs))
        for w in (inst.w, perturb_w(inst.w, inst.pair, s % 2)):
            lines.append(_report_text(validate_relations(w, inst.pair)))
    assert _sha256("\n".join(lines)) == digest
