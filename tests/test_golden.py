"""Golden digests of CLI reports.

Each digest is the sha256 of a report without its `meta` section, laid out
as the CLI writes it (`json.dumps(report, sort_keys=True, indent=2)`).  The
values were recorded from the plain and equivariant presheaf code before the
two presheaf classes were merged, so a refactor of the presheaf, bar or CLI
layers has to leave every report byte for byte as it was.
"""

import hashlib
import json
import pathlib

import pytest

from gammaspaces import cli

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"

BUILD = {
    "klein": "0256c995bf799773f3c8e0aded50924f55a0f3cbb149d081e671eea162c6be87",
    "max2": "0077743d805b825b56e925e96c84ab47d7736d7536c556558a9631782d3c1a8c",
    "trivial": "726f2e90ffb431303fb5fe3ef47cf57a4109d778968364b17d7ed5676aa97b2a",
    "z2": "4bff028398f65b3d986ff291ac8a2ce6db99721ca6e284face2949dbe6db2794",
    "z2_inversion_on_z3": "fe30edecae74f8c2035be5e124ac33762a7354fec2cd7b4f308976c57088f543",
    "z2_swap_on_klein": "beb4d064ae25a91a2a1bf9ce6358138e7ac058dbb0fd4dbcf697876d4558d603",
    "z2_trivial_on_z2": "5c22e7f26f076b5bf1c49a90706e767c7fa96558cc2d1757a4891a1c34a84972",
    "z3": "891855fbc282cee40eb333f65f2a90ebdee4daa366e974374d670b6be125727a",
    "z4": "c6a8a81a55264575b8578600e3f9b55139ba98978288bf1d8476ea16c914173b",
}
ROUNDTRIP = {
    "klein": "03835928be857ff6e879b89024ec477e7ca419108f65bd3774d3b79ea3739993",
    "max2": "dc923cfeb2e2dc1c8b45c543d89a3df90d95901b9c454358945f0b88624e45de",
    "trivial": "03835928be857ff6e879b89024ec477e7ca419108f65bd3774d3b79ea3739993",
    "z2": "03835928be857ff6e879b89024ec477e7ca419108f65bd3774d3b79ea3739993",
    "z2_inversion_on_z3": "03835928be857ff6e879b89024ec477e7ca419108f65bd3774d3b79ea3739993",
    "z2_swap_on_klein": "03835928be857ff6e879b89024ec477e7ca419108f65bd3774d3b79ea3739993",
    "z2_trivial_on_z2": "03835928be857ff6e879b89024ec477e7ca419108f65bd3774d3b79ea3739993",
    "z3": "03835928be857ff6e879b89024ec477e7ca419108f65bd3774d3b79ea3739993",
    "z4": "03835928be857ff6e879b89024ec477e7ca419108f65bd3774d3b79ea3739993",
}
CLASSIFY = {
    "klein": "dbc5d0dde9aeb387821597fc10c6cc1a8d48896053c5275d62336a569b6de2a9",
    "z2_inversion_on_z3": "c7220953e2ecbafeef2e41e208e1e9da46bcdd83b42227314dde195b7a351580",
    "z2_swap_on_klein": "287aa7c9177acdff0c085ea3e534025819fa138a1f9baa3f5d54cf172af19746",
    "z2_trivial_on_z2": "fcde2b3dc64a1f242f89ddf8ec4f17808639921b638308df3c9b098374c1a797",
    "z3": "acb50de5e29a70af753fad88645fca52e29cede804d49d8f7a50bef53bd44f68",
}


def report_digest(path: pathlib.Path) -> str:
    report = json.loads(path.read_text())
    del report["meta"]
    return hashlib.sha256(json.dumps(report, sort_keys=True, indent=2).encode()).hexdigest()


def run_to_file(tmp_path, name, args) -> pathlib.Path:
    out = tmp_path / f"{name}.json"
    assert cli.main([*args, "--out", str(out)]) == 0
    return out


def build(tmp_path, fixture) -> pathlib.Path:
    return run_to_file(tmp_path, f"{fixture}_presheaf",
                       ["build", "--input", str(FIXTURES / f"{fixture}.json"),
                        "--levels", "3", "--seed", "7"])


@pytest.mark.parametrize("fixture", sorted(BUILD))
def test_build_report(tmp_path, fixture):
    assert report_digest(build(tmp_path, fixture)) == BUILD[fixture]


@pytest.mark.parametrize("fixture", sorted(ROUNDTRIP))
def test_roundtrip_report(tmp_path, fixture):
    out = run_to_file(tmp_path, "roundtrip",
                      ["roundtrip", "--input", str(FIXTURES / f"{fixture}.json"),
                       "--levels", "3", "--seed", "7"])
    assert report_digest(out) == ROUNDTRIP[fixture]


@pytest.mark.parametrize("fixture", sorted(CLASSIFY))
def test_classify_report(tmp_path, fixture):
    out = run_to_file(tmp_path, "classify",
                      ["classify", "--input", str(build(tmp_path, fixture)),
                       "--dim", "4", "--homology", "2"])
    assert report_digest(out) == CLASSIFY[fixture]
