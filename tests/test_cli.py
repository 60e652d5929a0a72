import contextlib
import copy
import functools
import hashlib
import io
import json
import operator
import os
import pathlib
import re
import resource
import shutil
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from gammaspaces import algebra as alg
from gammaspaces import classifying as cb
from gammaspaces import cli
from gammaspaces import homology as hm
from gammaspaces import presheaves as ps

ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"


def run(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def build(tmp_path, fixture, levels=3, seed=0):
    out = tmp_path / f"{fixture}_presheaf.json"
    code = cli.main(["build", "--input", str(FIXTURES / f"{fixture}.json"),
                     "--levels", str(levels), "--seed", str(seed),
                     "--out", str(out)])
    assert code == 0
    return out


class TestBuild:
    def test_build_z3_level_sizes(self, tmp_path, capsys):
        out = build(tmp_path, "z3")
        data = json.loads(out.read_text())
        assert [len(level) for level in data["levels"]] == [1, 3, 9, 27]
        assert data["meta"]["version"]
        assert data["functoriality_probe"]["passed"]

    def test_build_action_file(self, tmp_path):
        out = build(tmp_path, "z2_inversion_on_z3")
        data = json.loads(out.read_text())
        assert data["kind"] == "ggamma"
        assert data["algebra_kind"] == "gmonoid"

    def test_nonassociative_table_exits_three(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "elements": [0, 1, 2], "unit": 0,
            "table": [[0, 1, 2], [1, 0, 1], [2, 1, 1]]}))
        code, _, err = run(["build", "--input", str(bad)], capsys)
        assert code == 3
        assert "associativity" in err

    def test_malformed_json_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        code, _, err = run(["build", "--input", str(bad)], capsys)
        assert code == 2

    def test_listed_inverses_need_a_group_table(self, tmp_path, capsys):
        # a monoid file that lists inverses is read as a group, and checked as one
        bad = tmp_path / "max2_with_inverses.json"
        bad.write_text(json.dumps({**json.loads((FIXTURES / "max2.json").read_text()),
                                   "inverse": [0, 1]}))
        code, out, err = run(["build", "--input", str(bad)], capsys)
        assert (code, out) == (3, "")
        assert err == "algebra/extraction error: axiom violated: inverse (witness: 1)\n"

    def test_missing_keys_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "partial.json"
        bad.write_text(json.dumps({"elements": [0, 1]}))
        code, _, err = run(["build", "--input", str(bad)], capsys)
        assert code == 2

    # the count runs level by level and stops at the first level past the budget
    @pytest.mark.parametrize("fixture, levels, message", [
        ("klein", 30, "predicted 39147650 label, key and table entries"),
        ("z2", 24, "predicted 12324479 label, key and table entries"),
        # one label of n entries per level, 2n - 1 keys of n + 1 values, and
        # 2n - 1 tables of one entry
        ("trivial", 5000, "predicted 10106252 label, key and table entries"),
        # 5,592,405 labels of at most 11 entries: refused at level 10 as at level 30
        ("klein", 11, "predicted 39147650 label, key and table entries"),
    ], ids=["klein_30", "z2_24", "trivial_5000", "klein_11"])
    def test_levels_past_the_budget_exit_four_at_once(self, tmp_path, fixture, levels, message):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        env.pop(cli.DEFAULT_BUDGET_ENV, None)

        def cap_memory():  # a build that lists the levels fails fast instead
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        proc = subprocess.run([sys.executable, "-m", "gammaspaces.cli", "build", "--input",
                               str(FIXTURES / f"{fixture}.json"), "--levels", str(levels)],
                              capture_output=True, text=True, env=env, timeout=20,
                              preexec_fn=cap_memory)
        assert (proc.returncode, proc.stdout) == (4, "")
        assert proc.stderr == (f"resource error: --levels {levels}: {message} "
                               f"exceeds budget 10000000\n")

    def test_budget_env_var_bounds_build(self, capsys, monkeypatch):
        args = ["build", "--input", str(FIXTURES / "z2.json"), "--levels", "3"]
        # labels of 0 + 2 + 8 + 24 entries, 3 keys of 3 values and 5 of 4, and
        # tables of 1 (the unit's) + 3 * 4 + 5 * 8 entries
        monkeypatch.setenv(cli.DEFAULT_BUDGET_ENV, "116")
        assert run(args, capsys)[0] == 0
        monkeypatch.setenv(cli.DEFAULT_BUDGET_ENV, "115")
        assert run(args, capsys) == (4, "", "resource error: --levels 3: predicted 116 label, "
                                            "key and table entries exceeds budget 115\n")
        # refused at level 2, before level 3 is sized
        monkeypatch.setenv(cli.DEFAULT_BUDGET_ENV, "31")
        assert run(args, capsys) == (4, "", "resource error: --levels 3: predicted 32 label, "
                                            "key and table entries exceeds budget 31\n")
        monkeypatch.setenv(cli.DEFAULT_BUDGET_ENV, "ten")
        assert run(args, capsys) == \
            (2, "", "input error: $GAMMASPACES_BUDGET must be an integer, got 'ten'\n")
        for value in ("0", "-5"):
            monkeypatch.setenv(cli.DEFAULT_BUDGET_ENV, value)
            assert run(args, capsys) == \
                (2, "", f"input error: $GAMMASPACES_BUDGET must be positive, got {value}\n")

    # at --levels 1 the fold is stored beside the unit's table, or is the
    # identity element's action when there is a group
    @pytest.mark.parametrize("fixture, levels", [
        *(pytest.param(path.stem, 3, id=path.stem) for path in sorted(FIXTURES.glob("*.json"))),
        pytest.param("z2", 1, id="z2-levels1"),
        pytest.param("z2_swap_on_klein", 1, id="z2_swap_on_klein-levels1")])
    def test_budget_counts_the_entries_of_the_written_report(self, tmp_path, capsys,
                                                            monkeypatch, fixture, levels):
        monkeypatch.delenv(cli.DEFAULT_BUDGET_ENV, raising=False)
        report = json.loads(build(tmp_path, fixture, levels).read_text())
        # every label entry, every table entry, and the n + 1 values naming
        # each map out of a level n >= 2
        entries = sum(len(label) for level in report["levels"] for label in level)
        entries += sum(map(len, report["maps"].values()))
        for key in report["maps"]:
            if int(key.partition(">")[0]) >= 2:
                entries += len(key.partition(":")[2].partition("|")[0].split(","))
        args = ["build", "--input", str(FIXTURES / f"{fixture}.json"), "--levels", str(levels)]
        monkeypatch.setenv(cli.DEFAULT_BUDGET_ENV, str(entries))
        assert run(args, capsys)[0] == 0
        monkeypatch.setenv(cli.DEFAULT_BUDGET_ENV, str(entries - 1))
        assert run(args, capsys) == (4, "", f"resource error: --levels {levels}: predicted "
                                            f"{entries} label, key and table entries exceeds "
                                            f"budget {entries - 1}\n")

    @pytest.mark.parametrize("fixture, first_refused", [
        ("trivial", 246), ("z2", 17), ("max2", 17), ("z2_trivial_on_z2", 17), ("z3", 12),
        ("z2_inversion_on_z3", 12), ("z4", 10), ("klein", 10), ("z2_swap_on_klein", 10)])
    def test_first_levels_past_the_default_budget(self, capsys, monkeypatch, fixture,
                                                  first_refused):
        monkeypatch.delenv(cli.DEFAULT_BUDGET_ENV, raising=False)
        # an admitted build lists no level, so the largest admitted one is cheap
        monkeypatch.setattr(ps, "presheaf_to_json", lambda X: {"kind": "unlisted", "levels": []})
        args = ["build", "--input", str(FIXTURES / f"{fixture}.json"), "--format", "text"]
        assert run([*args, "--levels", str(first_refused - 1)], capsys) == \
            (0, "built unlisted presheaf, levels []\n", "")
        code, out, err = run([*args, "--levels", str(first_refused)], capsys)
        assert (code, out) == (4, "")
        assert re.fullmatch(f"resource error: --levels {first_refused}: predicted [0-9]+ label, "
                            f"key and table entries exceeds budget 10000000\n", err)

    def test_line_break_in_a_label_stays_on_one_line(self, tmp_path, capsys):
        bad = tmp_path / "unit.json"
        bad.write_text(json.dumps({"elements": ["x\ny", "b"], "unit": "x\ny",
                                   "table": [["b", "b"], ["b", "b"]]}))
        code, _, err = run(["build", "--input", str(bad)], capsys)
        assert (code, err) == (3, "algebra/extraction error: axiom violated: unit "
                                  "(witness: x\\ny)\n")


class TestCheck:
    def test_z3_bousfield_passes(self, tmp_path, capsys):
        presheaf = build(tmp_path, "z3")
        code, out, _ = run(["check", "--input", str(presheaf), "--bousfield"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["check"]["passed"] is True

    def test_max2_bousfield_fails_with_witness(self, tmp_path, capsys):
        presheaf = build(tmp_path, "max2")
        code, out, _ = run(["check", "--input", str(presheaf), "--bousfield"], capsys)
        assert code == 1
        report = json.loads(out)
        assert report["check"]["failed_at"] == 2
        assert report["check"]["witness"]

    def test_max2_segal_passes(self, tmp_path, capsys):
        presheaf = build(tmp_path, "max2")
        code, out, _ = run(["check", "--input", str(presheaf), "--segal"], capsys)
        assert code == 0

    def test_upto_one_always_passes(self, tmp_path, capsys):
        presheaf = build(tmp_path, "max2")
        code, _, _ = run(["check", "--input", str(presheaf), "--bousfield", "--upto", "1"], capsys)
        assert code == 0

    def test_negative_upto_exits_two(self, tmp_path, capsys):
        presheaf = build(tmp_path, "max2")
        code, out, err = run(["check", "--input", str(presheaf), "--upto", "-3"], capsys)
        assert (code, out, err) == (2, "", "input error: --upto must be nonnegative, got -3\n")

    def test_upto_zero_passes(self, tmp_path, capsys):
        presheaf = build(tmp_path, "max2")
        code, out, _ = run(["check", "--input", str(presheaf), "--bousfield", "--upto", "0"], capsys)
        assert code == 0
        assert json.loads(out)["meta"]["config"]["upto"] == 0

    def test_text_format(self, tmp_path, capsys):
        presheaf = build(tmp_path, "z2")
        code, out, _ = run(["check", "--input", str(presheaf), "--segal",
                            "--format", "text"], capsys)
        assert code == 0
        assert "pass" in out

    def test_equivariant_presheaf_checks(self, tmp_path, capsys):
        presheaf = build(tmp_path, "z2_inversion_on_z3")
        for flag in ("--segal", "--bousfield"):
            code, out, _ = run(["check", "--input", str(presheaf), flag], capsys)
            assert code == 0
            assert json.loads(out)["check"]["passed"] is True


class TestRoundtrip:
    @pytest.mark.parametrize("fixture", ["trivial", "z2", "z3", "z4", "klein", "max2",
                                         "z2_trivial_on_z2", "z2_inversion_on_z3",
                                         "z2_swap_on_klein"])
    def test_shipped_fixtures_roundtrip(self, fixture, capsys):
        code, out, _ = run(["roundtrip", "--input", str(FIXTURES / f"{fixture}.json")], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["roundtrip"]["tables_identical"] is True

    def test_group_fixtures_also_roundtrip_through_bousfield(self, capsys):
        code, out, _ = run(["roundtrip", "--input", str(FIXTURES / "z4.json")], capsys)
        report = json.loads(out)
        assert report["roundtrip"]["bousfield_roundtrip_identical"] is True

    def test_roundtrip_accepts_presheaf_file(self, tmp_path, capsys):
        presheaf = build(tmp_path, "z3")
        code, out, _ = run(["roundtrip", "--input", str(presheaf)], capsys)
        assert code == 0

    @pytest.mark.parametrize("levels", ["0", "-2"])
    def test_nonpositive_levels_exit_two(self, tmp_path, levels):
        code, out, err = fresh_process(["roundtrip", "--input", str(FIXTURES / "z2.json"),
                                        "--levels", levels], tmp_path)
        assert (code, out) == (2, "")
        assert err == f"input error: --levels must be positive, got {levels}\n"

    def test_levels_unused_for_presheaf_file(self, tmp_path, capsys):
        presheaf = build(tmp_path, "z3")
        code, _, err = run(["roundtrip", "--input", str(presheaf), "--levels", "0"], capsys)
        assert (code, err) == (0, "")

    def test_corrupted_presheaf_exits_three(self, tmp_path, capsys):
        presheaf = build(tmp_path, "z2")
        data = json.loads(presheaf.read_text())
        key = "2>1:0,1,0"
        assert key in data["maps"]
        data["maps"][key] = [0] * len(data["maps"][key])
        corrupted = tmp_path / "corrupted.json"
        corrupted.write_text(json.dumps(data))
        code, _, err = run(["roundtrip", "--input", str(corrupted)], capsys)
        assert code == 3
        assert "not strict" in err

    def test_strictness_failure_is_one_line_with_its_witness(self, tmp_path, capsys):
        data = json.loads(build(tmp_path, "z3").read_text())
        data["maps"]["2>1:0,1,0"] = data["maps"]["2>1:0,0,1"]
        corrupted = tmp_path / "corrupted.json"
        corrupted.write_text(json.dumps(data))
        code, _, err = run(["roundtrip", "--input", str(corrupted)], capsys)
        assert (code, err) == (3, "algebra/extraction error: presheaf is not strict up to "
                                  "level 2 (witness: not injective at n=2: (0, 0) and (1, 0) "
                                  "share image (0, 0))\n")


# fixture to build, then the damage done to its presheaf file
PRESHEAF_DEFECTS = {
    "no_group": ("z2_inversion_on_z3", lambda data: data.pop("group")),
    "morphism_beyond_levels": ("z2", lambda data: data["maps"].update({"5>1:0,1,0,0,0,0": [0]})),
    "non_integer_entry": ("z2", lambda data: data["maps"].update({"1>1:0,1": ["a", "b"]})),
    "duplicate_element": ("z2", lambda data: data["levels"][1].__setitem__(1, data["levels"][1][0])),
    # a used table with its 0/1 entries stored as JSON false/true
    "bool_entry": ("z2", lambda data: data["maps"].update(
        {"2>1:0,1,0": [bool(v) for v in data["maps"]["2>1:0,1,0"]]})),
    "n_not_integer": ("z2", lambda data: data.__setitem__("N", str(data["N"]))),
    # N = -1 with no levels would pass the level count
    "n_negative": ("z2", lambda data: data.update(N=-1, levels=[], maps={})),
    "maps_not_object": ("z2", lambda data: data.__setitem__("maps", list(data["maps"].values()))),
    "algebra_not_object": ("z2", lambda data: data.__setitem__("algebra", 0)),
    # the action's monoid in place of the action: a plain algebra on a ggamma file
    "algebra_of_other_kind": ("z2_inversion_on_z3",
                              lambda data: data.__setitem__("algebra", data["algebra"]["monoid"])),
}


class TestMalformedPresheafFiles:
    @pytest.mark.parametrize("command", [["check", "--segal"], ["roundtrip"], ["classify"]],
                             ids=["check", "roundtrip", "classify"])
    @pytest.mark.parametrize("defect", sorted(PRESHEAF_DEFECTS))
    def test_exits_two_with_one_line(self, tmp_path, command, defect):
        fixture, damage = PRESHEAF_DEFECTS[defect]
        data = json.loads(build(tmp_path, fixture).read_text())
        damage(data)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-m", "gammaspaces.cli", *command,
                               "--input", str(bad)],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1

    @pytest.mark.parametrize("key, reason", [
        ("1>1:0,1", "missing group-element tag"),
        ("1>1:0,1|gx", "invalid literal for int() with base 10: 'x'"),
        ("1>1:0,1|g2", "group element index 2 out of range")],
        ids=["no_tag", "tag_not_integer", "tag_out_of_range"])
    def test_bad_group_element_tag_names_the_key(self, tmp_path, capsys, key, reason):
        presheaf = build(tmp_path, "z2_inversion_on_z3")
        data = json.loads(presheaf.read_text())
        data["maps"][key] = data["maps"]["1>1:0,1|g0"]
        presheaf.write_text(json.dumps(data))
        line = f"input error: bad morphism key {key!r}: {reason}\n"
        for command in (["check", "--segal"], ["roundtrip"], ["classify"]):
            assert run([*command, "--input", str(presheaf)], capsys) == (2, "", line), command


class TestUndecodableInput:
    @pytest.mark.parametrize("command", [["build"], ["check", "--segal"], ["roundtrip"],
                                         ["classify"]],
                             ids=["build", "check", "roundtrip", "classify"])
    def test_non_utf8_byte_exits_two_with_one_line(self, tmp_path, capsys, command):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b'{"elements": ["\xff"], "unit": "\xff", "table": [["\xff"]]}')
        code, out, err = run([*command, "--input", str(bad)], capsys)
        assert code == 2
        assert out == ""
        assert err == f"input error: cannot read {bad}: 'utf-8' codec can't decode byte 0xff " \
                      f"in position 15: invalid start byte\n"

    def test_byte_order_mark_is_a_json_error(self, tmp_path, capsys):
        bom = tmp_path / "bom.json"
        bom.write_bytes(b"\xef\xbb\xbf" + (FIXTURES / "z2.json").read_bytes())
        code, _, err = run(["build", "--input", str(bom)], capsys)
        assert code == 2
        assert err == f"input error: cannot read {bom}: Unexpected UTF-8 BOM " \
                      f"(decode using utf-8-sig): line 1 column 1 (char 0)\n"

    def test_meta_hashes_the_bytes_read(self, tmp_path, capsys):
        presheaf = build(tmp_path, "z2")
        code, out, _ = run(["check", "--input", str(presheaf)], capsys)
        assert code == 0
        digest = hashlib.sha256(presheaf.read_bytes()).hexdigest()
        assert json.loads(out)["meta"]["inputs"] == {str(presheaf): digest}


class TestDeepNesting:
    """Nesting past the recursion limit is an input error, whether json
    refuses it or the presheaf reader does."""

    @staticmethod
    def nested(depth: int) -> str:
        return "[" * depth + "0" + "]" * depth

    def test_algebra_label_past_the_json_decoder_exits_two(self, tmp_path):
        source = tmp_path / "deep.json"
        source.write_text('{"elements": [0, %s], "unit": 0, "table": [[0, 0], [0, 0]]}'
                          % self.nested(5 * sys.getrecursionlimit()))
        code, _, err = fresh_process(["build", "--input", str(source)], tmp_path)
        assert code == 2
        assert err.startswith(f"input error: cannot read {source}: maximum recursion")
        assert len(err.splitlines()) == 1

    def test_level_label_past_the_label_reader_exits_two(self, tmp_path):
        # shallow enough for the json decoder, too deep to freeze into tuples
        data = json.loads(build(tmp_path, "z2").read_text())
        data["levels"][1][1] = "deep"
        source = tmp_path / "deep.json"
        source.write_text(json.dumps(data).replace(
            '"deep"', self.nested(sys.getrecursionlimit() * 9 // 10)))
        code, _, err = fresh_process(["check", "--input", str(source)], tmp_path)
        assert code == 2
        assert err.startswith("input error: malformed presheaf file: maximum recursion")
        assert len(err.splitlines()) == 1


class TestNonObjectInput:
    @pytest.mark.parametrize("command", ["build", "check", "roundtrip", "classify"])
    @pytest.mark.parametrize("root", ["[[1]]", "5", '"x"'], ids=["list", "number", "string"])
    def test_exits_two_with_one_line(self, tmp_path, command, root):
        source = tmp_path / "root.json"
        source.write_text(root)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-m", "gammaspaces.cli", command,
                               "--input", str(source)],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 2
        assert proc.stderr == f"input error: {source} does not hold a JSON object\n"


class TestClassify:
    def test_inversion_fixture_h1_and_action(self, tmp_path, capsys):
        presheaf = build(tmp_path, "z2_inversion_on_z3", levels=2)
        code, out, _ = run(["classify", "--input", str(presheaf),
                            "--iterate", "1", "--dim", "4", "--homology", "2"], capsys)
        assert code == 0
        report = json.loads(out)
        hom = report["delooping"]["homology"]
        assert hom[0] == {"degree": 0, "rank": 1, "torsion": []}
        assert hom[1] == {"degree": 1, "rank": 0, "torsion": [3]}
        assert hom[2] == {"degree": 2, "rank": 0, "torsion": []}
        assert report["delooping"]["g_action_on_H"]["1"][1] == [[2]]
        assert report["structure_map"]["equivariant"] is True
        comparisons = report["delooping"]["oracle_comparisons"]
        assert all(c["match"] is True for c in comparisons if c["expected"] is not None)

    def test_string_labeled_action_file_full_flow(self, tmp_path, capsys):
        # group and monoid labels that are not their own indices
        action = {
            "group": {"elements": ["id", "flip"],
                      "table": [["id", "flip"], ["flip", "id"]]},
            "monoid": {"elements": ["e", "r", "rr"], "unit": "e",
                       "table": [["e", "r", "rr"], ["r", "rr", "e"], ["rr", "e", "r"]]},
            "action": [["e", "r", "rr"], ["e", "rr", "r"]],
        }
        source = tmp_path / "named_action.json"
        source.write_text(json.dumps(action))
        presheaf = tmp_path / "named_presheaf.json"
        assert cli.main(["build", "--input", str(source), "--levels", "2",
                         "--out", str(presheaf)]) == 0
        code, out, _ = run(["classify", "--input", str(presheaf), "--dim", "3",
                            "--homology", "1"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["delooping"]["homology"][1] == {"degree": 1, "rank": 0, "torsion": [3]}
        assert report["delooping"]["g_action_on_H"]["flip"][1] == [[2]]

    def test_group_labels_that_are_json_lists(self, tmp_path, capsys):
        # tuple labels written by FiniteGroup.to_json come out of json as lists
        action = json.loads((FIXTURES / "z2_swap_on_klein.json").read_text())
        group = alg.FiniteGroup(((0,), (1,)), ((0, 1), (1, 0)))
        action["group"] = json.loads(json.dumps(group.to_json()))
        assert action["group"]["elements"] == [[0], [1]]
        source = tmp_path / "list_group.json"
        source.write_text(json.dumps(action))
        presheaf = tmp_path / "list_group_presheaf.json"
        assert run(["build", "--input", str(source), "--out", str(presheaf)], capsys)[0] == 0
        assert run(["roundtrip", "--input", str(source)], capsys)[0] == 0
        code, out, _ = run(["classify", "--input", str(presheaf), "--dim", "3",
                            "--homology", "2"], capsys)
        assert code == 0
        plain = build(tmp_path, "z2_swap_on_klein")
        _, plain_out, _ = run(["classify", "--input", str(plain), "--dim", "3",
                               "--homology", "2"], capsys)
        action_on_h = json.loads(out)["delooping"]["g_action_on_H"]
        assert action_on_h["(1,)"] == json.loads(plain_out)["delooping"]["g_action_on_H"]["1"]

    def test_evaluation_at_zero_is_point(self, tmp_path, capsys):
        presheaf = build(tmp_path, "z3", levels=2)
        code, out, _ = run(["classify", "--input", str(presheaf), "--at", "0",
                            "--dim", "3"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["evaluation_at_zero"]["is_point"] is True

    def test_point_report_of_a_level_zero_file(self, tmp_path, capsys):
        # a file cut down to level 0: the rebuilt presheaf still needs level 1
        presheaf = build(tmp_path, "z2", levels=1)
        data = json.loads(presheaf.read_text())
        data.update(N=0, levels=data["levels"][:1], maps={})
        presheaf.write_text(json.dumps(data))
        code, out, err = run(["classify", "--input", str(presheaf), "--at", "0",
                              "--dim", "2"], capsys)
        assert (code, err) == (0, "")
        assert json.loads(out)["evaluation_at_zero"] == {"is_point": True, "levels": [1, 1, 1]}

    def test_budget_exits_four(self, tmp_path, capsys):
        presheaf = build(tmp_path, "z4", levels=2)
        code, _, err = run(["classify", "--input", str(presheaf), "--dim", "4",
                            "--homology", "2", "--budget", "10"], capsys)
        assert code == 4
        # level 4 is past the budget, yet small enough to count exactly
        assert err == "resource error: predicted 341 simplices exceeds budget 10\n"

    def test_budget_bounds_the_presentations(self, tmp_path, capsys):
        # the bar's 1,365 simplices fit, but the degree 4 presentation that
        # the swap's induced maps need holds more nonzeros
        presheaf = build(tmp_path, "z2_swap_on_klein")
        args = ["classify", "--input", str(presheaf), "--dim", "5", "--homology", "4"]
        code, out, err = run([*args, "--budget", "1365"], capsys)
        assert (code, out) == (4, "")
        assert err == ("resource error: homology presentation in degree 4: "
                       "nonzeros held exceed budget 1365\n")
        assert run([*args, "--budget", "2000"], capsys)[0] == 0

    def test_budget_bounds_the_group_free_elimination(self, tmp_path, capsys):
        # the bar's 66,067 simplices fit, but the cleared boundary out of
        # degree 4 holds more nonzeros
        presheaf = build(tmp_path, "z2", levels=2)
        code, out, err = run(["classify", "--input", str(presheaf), "--iterate", "2",
                              "--dim", "4", "--homology", "3", "--budget", "100000"], capsys)
        assert (code, out) == (4, "")
        assert err == ("resource error: homology boundary 4: Smith form holds 277758 "
                       "nonzeros, past budget 100000\n")

    @pytest.mark.parametrize("fixture, bounds, message", [
        ("z2", ["--dim", "100", "--iterate", "5"], "predicted bar level 5 alone"),
        ("z2", ["--dim", "3", "--iterate", "40"], "predicted bar level 2 alone"),
        # level 2 holds 2**(2**20000): too many digits to print
        ("z2", ["--dim", "3", "--iterate", "20000"], "predicted bar level 2 alone"),
        # p**k is not computed once k alone puts level 2 past the budget
        ("z2", ["--dim", "3", "--iterate", "10000000"], "predicted bar level 2 alone"),
        # the levels are not listed up front
        ("z2", ["--dim", "100000000"], "predicted bar level 2049 alone"),
        # one simplex per level, but its label holds p**k entries
        ("trivial", ["--dim", "100", "--iterate", "5"],
         "predicted 12333300 label entries in one-element bar levels"),
        ("trivial", ["--dim", "40", "--iterate", "4"],
         "predicted 11268978 label entries in one-element bar levels"),
        # every level is the point at the zero object: d + 1 simplices, not walked
        ("z2", ["--at", "0", "--dim", "20000000"], "predicted 20000001 simplices"),
        ("z2", ["--at", "0", "--dim", "2000000000"], "predicted 2000000001 simplices"),
        # 401 simplices, but validate would compare identities on them for minutes
        ("trivial", ["--dim", "400"],
         "predicted 42906999 identity checks on one-element bar levels"),
        ("trivial", ["--at", "0", "--dim", "400"],
         "predicted 42906999 identity checks on one-element bar levels"),
    ], ids=["dim100_iterate5", "dim3_iterate40", "dim3_iterate20000", "dim3_iterate1e7",
            "dim1e8", "trivial_dim100_iterate5", "trivial_dim40_iterate4",
            "at0_dim2e7", "at0_dim2e9", "trivial_dim400", "trivial_at0_dim400"])
    def test_budget_refuses_astronomical_levels_at_once(self, tmp_path, fixture, bounds, message):
        presheaf = build(tmp_path, fixture, levels=2)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        env.pop(cli.DEFAULT_BUDGET_ENV, None)

        def cap_memory():  # a run that allocates the bar fails fast instead
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        proc = subprocess.run([sys.executable, "-m", "gammaspaces.cli", "classify",
                               "--input", str(presheaf), *bounds], capture_output=True,
                              text=True, env=env, timeout=20, preexec_fn=cap_memory)
        assert "Traceback" not in proc.stderr
        assert (proc.returncode, proc.stdout) == (4, "")
        assert proc.stderr == f"resource error: {message} exceeds budget 10000000\n"

    def test_memory_exhaustion_exits_four_with_one_line(self, tmp_path):
        # Z/2 at --dim 17 is inside the default budget, but its action
        # tables do not fit a 160 MB address space
        presheaf = build(tmp_path, "z2", levels=2)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
        env.pop(cli.DEFAULT_BUDGET_ENV, None)

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (160 << 20, 160 << 20))

        proc = subprocess.run([sys.executable, "-B", "-m", "gammaspaces.cli", "classify",
                               "--input", str(presheaf), "--dim", "17"], capture_output=True,
                              text=True, env=env, timeout=60, preexec_fn=cap_memory)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            4, "", "resource error: out of memory\n")

    @pytest.mark.parametrize("at", [[], ["--at", "0"]], ids=["at1", "at0"])
    def test_budget_bounds_identity_checks_on_one_element_levels(self, tmp_path, capsys, at):
        # 21 simplices and at most 210 label entries fit; the 5,949 identity
        # checks are counted after them
        presheaf = build(tmp_path, "trivial", levels=2)
        args = ["classify", "--input", str(presheaf), *at, "--dim", "20"]
        code, out, err = run([*args, "--budget", "5948"], capsys)
        assert (code, out) == (4, "")
        assert err == ("resource error: predicted 5949 identity checks on one-element bar "
                       "levels exceeds budget 5948\n")
        assert run([*args, "--budget", "5949"], capsys)[0] == 0

    def test_one_element_levels_inside_the_budget_still_run(self, tmp_path):
        # 681,749 identity checks at --dim 100, a few seconds of work
        presheaf = build(tmp_path, "trivial", levels=2)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        env.pop(cli.DEFAULT_BUDGET_ENV, None)
        proc = subprocess.run([sys.executable, "-m", "gammaspaces.cli", "classify",
                               "--input", str(presheaf), "--dim", "100"], capture_output=True,
                              text=True, env=env, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout)["delooping"]["dimension"] == 100

    def test_second_delooping_of_z2_through_degree_three(self, tmp_path):
        # the 63,577-column boundary out of degree 4 under a 3 GB address space
        presheaf = build(tmp_path, "z2", levels=2)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        env.pop(cli.DEFAULT_BUDGET_ENV, None)

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

        proc = subprocess.run([sys.executable, "-m", "gammaspaces.cli", "classify",
                               "--input", str(presheaf), "--iterate", "2", "--dim", "4",
                               "--homology", "3"], capture_output=True, text=True,
                              env=env, timeout=120, preexec_fn=cap_memory)
        assert proc.returncode == 0, proc.stderr
        deloop = json.loads(proc.stdout)["delooping"]
        assert deloop["levels"] == [1, 2, 16, 512, 65536]
        assert deloop["homology"][3] == {"degree": 3, "rank": 0, "torsion": []}
        assert [c["match"] for c in deloop["oracle_comparisons"]] == [True] * 4

    def test_equivariant_second_delooping_of_z3(self, tmp_path):
        # nondegenerate ranks 1, 2, 76, 19448: the degree-2 relations are 74 x 19,448,
        # diagonalized without their 19,448^2 V, under a 1.5 GB address space
        presheaf = build(tmp_path, "z2_inversion_on_z3", levels=2)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        env.pop(cli.DEFAULT_BUDGET_ENV, None)

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (3 << 29, 3 << 29))

        proc = subprocess.run([sys.executable, "-m", "gammaspaces.cli", "classify",
                               "--input", str(presheaf), "--iterate", "2", "--dim", "3",
                               "--homology", "2"], capture_output=True, text=True,
                              env=env, timeout=120, preexec_fn=cap_memory)
        assert proc.returncode == 0, proc.stderr
        deloop = json.loads(proc.stdout)["delooping"]
        assert deloop["levels"] == [1, 3, 81, 19683]
        assert deloop["homology"][2] == {"degree": 2, "rank": 0, "torsion": [3]}
        # the identity and the inversion on H_0, H_1 = 0 and H_2 = Z/3
        assert deloop["g_action_on_H"] == {"0": [[[1]], [], [[1]]], "1": [[[1]], [], [[2]]]}
        assert [c["match"] for c in deloop["oracle_comparisons"]] == [True] * 3

    def test_at_above_one_exits_two(self, tmp_path, capsys):
        presheaf = build(tmp_path, "z3", levels=2)
        code, out, err = run(["classify", "--input", str(presheaf), "--at", "2",
                              "--dim", "3", "--homology", "2"], capsys)
        assert (code, out, err) == (2, "", "input error: --at must be 0 or 1, got 2\n")

    def test_classify_validates_one_bar(self, tmp_path, capsys, monkeypatch):
        presheaf = build(tmp_path, "klein", levels=2)
        validated = []
        validate = cb.validate
        monkeypatch.setattr(cb, "validate", lambda space: validated.append(space) or validate(space))
        code, out, _ = run(["classify", "--input", str(presheaf), "--iterate", "1",
                            "--dim", "5", "--homology", "4"], capsys)
        assert code == 0 and "structure_map" in json.loads(out)
        assert len(validated) == 1

    @pytest.mark.parametrize("bounds", [["--iterate", "2", "--dim", "4", "--homology", "2"],
                                        ["--at", "0", "--dim", "3"]], ids=["iterate2", "at0"])
    def test_classify_walks_the_budget_once(self, tmp_path, capsys, monkeypatch, bounds):
        presheaf = build(tmp_path, "z2")
        walks = []
        check_budget = cb._check_budget
        monkeypatch.setattr(cb, "_check_budget",
                            lambda *args: walks.append(args) or check_budget(*args))
        assert run(["classify", "--input", str(presheaf), *bounds], capsys)[0] == 0
        assert len(walks) == 1

    @pytest.mark.parametrize("tamper", ["relabelled", "one_key_removed"])
    def test_budget_refuses_before_the_stored_file_is_compared(self, tmp_path, capsys,
                                                               monkeypatch, tamper):
        presheaf = build(tmp_path, "z2")
        data = json.loads(presheaf.read_text())
        if tamper == "relabelled":
            data["levels"][1] = [[1], [0]]
        else:
            del data["maps"]["2>1:0,1,0"]
        presheaf.write_text(json.dumps(data))
        monkeypatch.delenv(cli.DEFAULT_BUDGET_ENV, raising=False)
        args = ["classify", "--input", str(presheaf)]
        refusal = "resource error: predicted {} simplices exceeds budget 10000000\n"
        assert run([*args, "--iterate", "2", "--dim", "10"], capsys) == \
            (4, "", refusal.format(1267653018098315937847468687891))
        assert run([*args, "--at", "0", "--dim", "10000000"], capsys) == \
            (4, "", refusal.format(10000001))
        # inside the budget, the comparison with the rebuild refuses the file
        assert run([*args, "--dim", "3", "--homology", "2"], capsys) == {
            "relabelled": (3, "", "algebra/extraction error: stored level 1 disagrees "
                                  "with rebuild\n"),
            "one_key_removed": (2, "", "input error: morphism 2>1:0,1,0 not stored in "
                                       "presheaf file\n")}[tamper]

    def test_classify_requires_presheaf_file(self, capsys):
        code, _, err = run(["classify", "--input", str(FIXTURES / "z3.json")], capsys)
        assert code == 2

    def test_stored_table_disagreement_exits_three(self, tmp_path, capsys):
        presheaf = build(tmp_path, "z3", levels=2)
        data = json.loads(presheaf.read_text())
        key = "2>1:0,1,0"
        data["maps"][key] = [0] * len(data["maps"][key])
        corrupted = tmp_path / "classify_corrupt.json"
        corrupted.write_text(json.dumps(data))
        code, _, err = run(["classify", "--input", str(corrupted), "--dim", "2",
                            "--homology", "1"], capsys)
        assert code == 3
        assert "disagrees" in err

    @pytest.mark.parametrize("level_one", [[[0], [1], [2]], [[1], [0]]],
                             ids=["extended", "relabelled"])
    def test_stored_level_disagreement_exits_three(self, tmp_path, capsys, level_one):
        # the stored tables still match: no canonical map leaves level 1
        presheaf = build(tmp_path, "z2")
        data = json.loads(presheaf.read_text())
        data["levels"][1] = level_one
        presheaf.write_text(json.dumps(data))
        assert run(["classify", "--input", str(presheaf), "--dim", "3", "--homology", "2"],
                   capsys) == (3, "", "algebra/extraction error: stored level 1 disagrees "
                                      "with rebuild\n")

    @pytest.mark.parametrize("maps", ["emptied", "one_key_removed"])
    def test_missing_canonical_table_exits_two(self, tmp_path, capsys, maps):
        # classify refuses the file with the line check gives on it
        presheaf = build(tmp_path, "z2")
        data = json.loads(presheaf.read_text())
        if maps == "emptied":
            data["maps"] = {}
        else:
            del data["maps"]["2>1:0,1,0"]
        presheaf.write_text(json.dumps(data))
        line = "input error: morphism 2>1:0,1,0 not stored in presheaf file\n"
        assert run(["check", "--input", str(presheaf), "--segal"], capsys) == (2, "", line)
        assert run(["classify", "--input", str(presheaf), "--dim", "3", "--homology", "2"],
                   capsys) == (2, "", line)

    def test_stored_group_disagreement_exits_three(self, tmp_path, capsys):
        # the relabelled group keeps the tables, whose keys name elements by position
        presheaf = build(tmp_path, "z2_swap_on_klein")
        data = json.loads(presheaf.read_text())
        data["group"] = {"elements": ["a", "b"], "table": [["a", "b"], ["b", "a"]]}
        presheaf.write_text(json.dumps(data))
        assert run(["classify", "--input", str(presheaf), "--dim", "3", "--homology", "2"],
                   capsys) == (3, "", "algebra/extraction error: stored group disagrees "
                                      "with rebuild\n")

    def test_nonpositive_bounds_exit_two(self, tmp_path, capsys):
        code, _, err = run(["build", "--input", str(FIXTURES / "z2.json"),
                            "--levels", "0"], capsys)
        assert code == 2
        presheaf = build(tmp_path, "z2", levels=2)
        code, _, err = run(["classify", "--input", str(presheaf), "--iterate", "0"], capsys)
        assert code == 2

    def test_budget_env_var(self, tmp_path, capsys, monkeypatch):
        presheaf = build(tmp_path, "z4", levels=2)
        monkeypatch.setenv(cli.DEFAULT_BUDGET_ENV, "10")
        code, _, err = run(["classify", "--input", str(presheaf), "--dim", "4",
                            "--homology", "2"], capsys)
        assert code == 4
        code, _, _ = run(["classify", "--input", str(presheaf), "--dim", "4",
                          "--homology", "2", "--budget", str(10 ** 7)], capsys)
        assert code == 0
        monkeypatch.setenv(cli.DEFAULT_BUDGET_ENV, "0")
        assert run(["classify", "--input", str(presheaf)], capsys) == \
            (2, "", "input error: $GAMMASPACES_BUDGET must be positive, got 0\n")

    def test_bar_validation_failure_exits_three(self, tmp_path, capsys, monkeypatch):
        presheaf = build(tmp_path, "z2", levels=1)  # stores no table out of level 2

        def broken_build(algebra, N):  # faces out of level 2 land on one simplex
            X = ps.build_gamma_set(algebra, N)
            return ps.TruncatedGammaSet(N, X.level, lambda f: [0] * X.level_size(2)
                                        if (f.source, f.target) == (2, 1) else X.action_table(f),
                                        algebra=algebra)

        monkeypatch.setattr(cli, "_build_presheaf", broken_build)
        code, out, err = run(["classify", "--input", str(presheaf), "--dim", "3"], capsys)
        assert (code, out) == (3, "")
        assert err.startswith("algebra/extraction error: bar output failed validation: "
                              "d_i s_j = id at ")
        assert len(err.splitlines()) == 1

    def test_second_delooping_z2(self, tmp_path, capsys):
        presheaf = build(tmp_path, "z2", levels=2)
        code, out, _ = run(["classify", "--input", str(presheaf), "--iterate", "2",
                            "--dim", "4", "--homology", "2"], capsys)
        assert code == 0
        report = json.loads(out)
        hom = report["delooping"]["homology"]
        assert hom[1] == {"degree": 1, "rank": 0, "torsion": []}
        assert hom[2] == {"degree": 2, "rank": 0, "torsion": [2]}


class TestDeterminism:
    def test_identical_runs_byte_identical(self, tmp_path, capsys):
        presheaf = build(tmp_path, "z2_inversion_on_z3", levels=2)
        args = ["classify", "--input", str(presheaf), "--dim", "3",
                "--homology", "1", "--seed", "7"]
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert cli.main(args + ["--out", str(out1)]) == 0
        assert cli.main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_build_is_byte_identical(self, tmp_path):
        a = build(tmp_path, "z3", seed=3)
        b_path = tmp_path / "again.json"
        cli.main(["build", "--input", str(FIXTURES / "z3.json"), "--levels", "3",
                  "--seed", "3", "--out", str(b_path)])
        assert a.read_bytes() == b_path.read_bytes()


class TestUnwritableOut:
    COMMANDS = {"build": ["build", "--input", str(FIXTURES / "z2.json")],
                "check": ["check", "--input", "z2.p.json"],
                "roundtrip": ["roundtrip", "--input", str(FIXTURES / "z2.json")],
                "classify": ["classify", "--input", "z2.p.json", "--dim", "2"]}

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_missing_directory_exits_two(self, tmp_path, capsys, monkeypatch, command, fmt):
        monkeypatch.chdir(tmp_path)
        build(tmp_path, "z2").rename("z2.p.json")
        out = str(tmp_path / "missing" / "report.json")
        code, stdout, err = run([*self.COMMANDS[command], "--format", fmt, "--out", out], capsys)
        assert (code, stdout) == (2, "")
        assert err.startswith(f"input error: cannot write {out}: ") and err.count("\n") == 1
        assert sorted(os.listdir(tmp_path)) == ["z2.p.json"]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_directory_exits_two_and_leaves_no_tmp_file(self, tmp_path, capsys, monkeypatch,
                                                         command):
        monkeypatch.chdir(tmp_path)
        build(tmp_path, "z2").rename("z2.p.json")
        (tmp_path / "somedir").mkdir()
        code, stdout, err = run([*self.COMMANDS[command], "--out", "somedir"], capsys)
        assert (code, stdout) == (2, "")
        assert err.startswith("input error: cannot write somedir: ") and err.count("\n") == 1
        assert sorted(os.listdir(tmp_path)) == ["somedir", "z2.p.json"]
        assert not os.listdir(tmp_path / "somedir")


class TestUnwritableStdout:
    def stderr_of(self, tmp_path, args, **stdout):
        build(tmp_path, "z2").rename(tmp_path / "z2.p.json")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        env.pop("PYTHONUNBUFFERED", None)  # a buffered stdout, as a redirected one is by default
        proc = subprocess.run([sys.executable, "-m", "gammaspaces.cli", *args], cwd=tmp_path,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=60, **stdout)
        assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
        assert proc.returncode == 2 and proc.stderr.count("\n") == 1, proc.stderr
        return proc.stderr

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("args", [
        # build's 24 kB json report fails while it is written, a short one only when flushed
        ["build", "--input", str(FIXTURES / "z2.json"), "--levels", "6"],
        ["check", "--input", "z2.p.json"]], ids=["build", "check"])
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_full_stdout_exits_two_on_one_line(self, tmp_path, args, fmt):
        with open("/dev/full", "w") as full:
            err = self.stderr_of(tmp_path, [*args, "--format", fmt], stdout=full)
        assert err.startswith("input error: cannot write stdout: [Errno 28] ")

    def test_closed_stdout_exits_two_on_one_line(self, tmp_path):
        err = self.stderr_of(tmp_path, ["check", "--input", "z2.p.json"],
                             preexec_fn=functools.partial(os.close, 1))
        assert err == "input error: cannot write stdout: file descriptor 1 is closed\n"


def fresh_process(args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "gammaspaces.cli", *args], cwd=cwd,
                          capture_output=True, text=True, env=env, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


class TestParser:
    def test_reused_parser_carries_no_defaults_over(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        source = str(FIXTURES / "z3.json")
        calls = [["build", "--input", source, "--levels", "3", "--out", "z3.p.json"],
                 ["check", "--input", "z3.p.json", "--bousfield", "--seed", "5"],
                 ["check", "--input", "z3.p.json"]]
        in_process = [run(args, capsys) for args in calls]
        fresh = [fresh_process(args, tmp_path) for args in calls]
        assert in_process == fresh
        assert json.loads(in_process[2][1])["meta"]["config"]["seed"] == 0
        assert json.loads(in_process[2][1])["check"]["kind"] == "segal"

    def test_command_looked_up_at_call_time(self, tmp_path, capsys, monkeypatch):
        presheaf = build(tmp_path, "z2")
        monkeypatch.setattr(cli, "cmd_check", lambda args: 42)
        assert cli.main(["check", "--input", str(presheaf)]) == 42


def without_meta(report: str) -> str:
    """A report as written, its top-level meta section cut out."""
    return re.sub(r'\n  "meta": \{\n.*?\n  \},?', "", report, count=1, flags=re.S)


class TestOldestPython:
    def test_reports_match_under_the_oldest_supported_python(self, tmp_path):
        # 3.10 is the oldest version requires-python admits; a pyenv shim runs
        # python3.10 only once PYENV_VERSION selects a 3.10, and other
        # interpreters ignore that variable
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1",
                   PYENV_VERSION="3.10")
        oldest = shutil.which("python3.10")
        probe = oldest and subprocess.run([oldest, "-c", "import sys; print(sys.version_info[:2])"],
                                          capture_output=True, text=True, env=env, timeout=60)
        if not probe or probe.stdout != "(3, 10)\n":
            pytest.skip("no python3.10 on PATH")
        calls = [["build", "--input", str(FIXTURES / "z2.json"), "--out", "z2.p.json"],
                 ["classify", "--input", "z2.p.json", "--iterate", "2", "--dim", "3",
                  "--homology", "1", "--out", "report.json"],
                 ["check", "--input", "z2.p.json", "--bousfield", "--out", "check.json"],
                 ["roundtrip", "--input", str(FIXTURES / "z2.json"), "--out", "roundtrip.json"]]
        reports = []
        for side, python in (("oldest", oldest), ("current", sys.executable)):
            cwd = tmp_path / side
            cwd.mkdir()
            for args in calls:
                proc = subprocess.run([python, "-m", "gammaspaces.cli", *args], cwd=cwd,
                                      capture_output=True, text=True, env=env, timeout=120)
                assert (proc.returncode, proc.stderr) == (0, ""), (python, args)
            reports.append([without_meta((cwd / name).read_text())
                            for name in ("z2.p.json", "report.json", "check.json",
                                         "roundtrip.json")])
        assert '"meta"' not in "".join(reports[1])
        assert reports[0] == reports[1]


def reference_dumps(node) -> str:
    return json.dumps(node, sort_keys=True, indent=2)


JSON_LEAVES = (st.integers() | st.booleans() | st.none()
               | st.floats(allow_nan=True, allow_infinity=True)
               | st.text(alphabet=st.characters(max_codepoint=127))
               | st.text())
INT_LISTS = st.lists(st.integers(-5, 10 ** 20), max_size=6)


def json_trees():
    tables = (INT_LISTS  # plain tables, empty ones included
              | INT_LISTS.flatmap(lambda t: st.lists(st.booleans(), min_size=1).map(
                  lambda b: t + b))  # an int list holding a bool
              | st.integers(1, 3).flatmap(  # level labels of one length
                  lambda n: st.lists(st.lists(st.integers(0, 9), min_size=n, max_size=n)))
              | st.lists(INT_LISTS))  # labels of mixed lengths, empty ones included
    return st.recursive(JSON_LEAVES | tables,
                        lambda children: st.lists(children, max_size=4)
                        | st.dictionaries(st.text(max_size=4), children, max_size=4)
                        | st.dictionaries(st.integers(), children, max_size=3),
                        max_leaves=30)


class TestEmitter:
    @settings(max_examples=300, deadline=None)
    @given(json_trees())
    def test_matches_json_dumps(self, node):
        assert cli._dumps(node) == reference_dumps(node)

    def test_build_report_is_byte_identical(self, tmp_path):
        out = tmp_path / "klein.json"
        assert cli.main(["build", "--input", str(FIXTURES / "klein.json"), "--levels", "5",
                         "--out", str(out)]) == 0
        text = out.read_text()
        report = json.loads(text)
        assert [len(level) for level in report["levels"]] == [1, 4, 16, 64, 256, 1024]
        assert text == reference_dumps(report) + "\n"
        X = ps.build_gamma_set(alg.klein_four(), 5)
        direct = ps.presheaf_to_json(X)
        assert cli._dumps(direct) == reference_dumps(direct)

    def test_classify_report_is_byte_identical(self, tmp_path):
        presheaf = build(tmp_path, "z2_swap_on_klein", levels=3)
        out = tmp_path / "classify.json"
        assert cli.main(["classify", "--input", str(presheaf), "--dim", "3",
                         "--homology", "2", "--out", str(out)]) == 0
        text = out.read_text()
        assert text == reference_dumps(json.loads(text)) + "\n"


# -- fuzzed inputs: every failure is an exit code in 0..4 with one stderr line

FUZZ_FIXTURES = ("trivial", "z2", "z3", "max2", "z2_trivial_on_z2", "z2_inversion_on_z3")
FUZZ_COMMANDS = (["build", "--levels", "2"], ["check"], ["check", "--bousfield"],
                 ["roundtrip", "--levels", "2"], ["classify"])
FUZZ_VALUES = (st.integers(-2, 4) | st.integers() | st.sampled_from([2 ** 64, -(10 ** 30)])
               | st.booleans() | st.none() | st.floats() | st.text(max_size=3)
               | st.lists(st.integers(-1, 3), max_size=3)
               | st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=2))


@functools.cache
def fuzz_documents() -> tuple:
    """Each small fixture as an algebra file and as a level-2 presheaf file."""
    documents = []
    for name in FUZZ_FIXTURES:
        algebra = json.loads((FIXTURES / f"{name}.json").read_text())
        presheaf = cli._build_presheaf(alg.from_json(algebra), 2)
        documents += [algebra, ps.presheaf_to_json(presheaf)]
    return tuple(documents)


def json_paths(node, prefix=()):
    """The path of every node of a JSON tree, the root's included."""
    yield prefix
    children = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from json_paths(child, prefix + (key,))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


class TestFuzzedInputs:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_failures_keep_the_contract(self, fuzz_dir, data):
        doc = copy.deepcopy(data.draw(st.sampled_from(fuzz_documents())))
        mutation = data.draw(st.sampled_from(["replace", "copy", "delete", "truncate"]))
        if mutation == "truncate":
            text = json.dumps(doc)
            text = text[:data.draw(st.integers(0, len(text) - 1))]
        else:
            paths = list(json_paths(doc))
            # any node, the root too, may be replaced, say by a list; the root is never deleted
            path = data.draw(st.sampled_from(paths[1:] if mutation == "delete" else paths))
            if mutation == "copy":  # say, one stored table over another
                other = data.draw(st.sampled_from(paths))
                value = copy.deepcopy(functools.reduce(operator.getitem, other, doc))
            elif mutation == "replace":
                value = data.draw(FUZZ_VALUES)
            if not path:
                doc = value
            else:
                *parent_path, key = path
                parent = functools.reduce(operator.getitem, parent_path, doc)
                if mutation == "delete":
                    del parent[key]
                else:
                    parent[key] = value
            text = json.dumps(doc)
        source = fuzz_dir / "input.json"
        source.write_text(text)
        command, *bounds = data.draw(st.sampled_from(FUZZ_COMMANDS))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, "--input", str(source), *bounds])  # raising is a traceback
        assert code in range(5)
        assert len(err.getvalue().splitlines()) <= 1


class TestDenseHelpersUnreached:
    @pytest.mark.parametrize("fixture, bounds", [
        ("z2_swap_on_klein", ["--dim", "5", "--homology", "4"]),
        ("klein", ["--dim", "5", "--homology", "4"]),
        ("z2", ["--iterate", "2", "--dim", "4", "--homology", "2"]),
    ])
    def test_classify_holds_homology_as_sparse_rows_only(self, tmp_path, capsys, monkeypatch,
                                                         fixture, bounds):
        def dense(*args, **kwargs):
            raise AssertionError("the homology path reached a dense matrix helper")

        for name in ("zeros", "eye", "mat_mul", "smith_normal_form", "_dense", "solve_exact",
                     "invert_unimodular"):
            monkeypatch.setattr(hm, name, dense)
        monkeypatch.setattr(hm.ChainComplex, "boundary", dense)
        presheaf = build(tmp_path, fixture)
        code, out, err = run(["classify", "--input", str(presheaf), *bounds], capsys)
        assert (code, err) == (0, "")
