import functools
import hashlib
import json
import random

import pytest

from hopfcheck import cli, identities
from hopfcheck.cli import matrix_order, order_text, run
from hopfcheck.catalog import (CYCLOTOMIC_ORDER_LIMIT, GROUP_ORDER_LIMIT, GroupPresentation,
                               algebra_to_json, build_taft, builtin, read_algebra)
from hopfcheck.identities import MAX_NESTING, parse_corpus
from hopfcheck.hopf import ANTIPODE_DIM_LIMIT
from hopfcheck.linalg import Matrix, invert
from hopfcheck.scalars import RATIONAL, cyclotomic_field


def test_example_then_verify_axioms(tmp_path):
    path = str(tmp_path / "h4.alg")
    code, text = run(["example", "sweedler", "-o", path])
    assert code == 0 and "wrote sweedler" in text
    code, text = run(["verify-axioms", path])
    assert code == 0
    assert "axiom associativity sweedler PASS" in text
    assert "galois-regularity sweedler PASS" in text


def test_modular_output(tmp_path):
    path = str(tmp_path / "t3.alg")
    assert run(["example", "taft", "--n", "3", "-o", path])[0] == 0
    code, text = run(["modular", path])
    assert code == 0
    assert "tau = -z - 1" in text
    assert "sigma order = 3" in text
    assert "antipode order = 6" in text
    assert "." not in text.split("tau = ")[1].splitlines()[0]  # exact scalars only


def test_radford_command(tmp_path):
    path = str(tmp_path / "h4.alg")
    run(["example", "sweedler", "-o", path])
    code, text = run(["radford", path])
    assert code == 0
    assert "s4-sandwich sweedler PASS" in text
    assert "s4-dual-transported dual(sweedler) PASS" in text
    assert "bidual-structure-iso sweedler PASS" in text


def test_radford_rejects_corrupted_antipode(tmp_path):
    path = tmp_path / "h4.alg"
    run(["example", "sweedler", "-o", str(path)])
    doc = json.loads(path.read_text())
    doc["antipode"] = []
    doc["name"] = "corrupted"
    bad = tmp_path / "corrupted.alg"
    bad.write_text(json.dumps(doc))
    code, text = run(["radford", str(bad)])
    assert code == 1
    assert "antipode-left corrupted FAIL" in text


CORRUPTED_AXIOM_LINES = (
    "axiom associativity corrupted PASS\n"
    "axiom unit corrupted PASS\n"
    "axiom coassociativity corrupted PASS\n"
    "axiom counit corrupted PASS\n"
    "axiom coproduct-homomorphism corrupted PASS\n"
    "axiom counit-homomorphism corrupted PASS\n"
    "axiom antipode-left corrupted FAIL antipode left law fails on e0\n"
    "axiom antipode-right corrupted FAIL antipode right law fails on e0\n"
    "axiom antipode-invertible corrupted FAIL antipode matrix is singular\n"
)


def test_commands_on_an_invalid_algebra_print_exactly_its_axiom_report(tmp_path):
    # every command that needs a valid algebra stops at validation with
    # exit code 1; dual reports the failing axioms by name and writes nothing
    path = tmp_path / "h4.alg"
    run(["example", "sweedler", "-o", str(path)])
    doc = json.loads(path.read_text())
    doc["antipode"] = []
    doc["name"] = "corrupted"
    bad = str(tmp_path / "corrupted.alg")
    (tmp_path / "corrupted.alg").write_text(json.dumps(doc))
    for command in ("modular", "radford", "check"):
        assert run([command, bad]) == (1, CORRUPTED_AXIOM_LINES), command
    assert run(["verify-axioms", bad]) == (
        1, CORRUPTED_AXIOM_LINES + "galois-regularity corrupted SKIPPED (axioms failed)\n")
    out = tmp_path / "dual.alg"
    assert run(["dual", bad, "-o", str(out)]) == (
        1, "FAIL corrupted: axiom failures: antipode-left, antipode-right, antipode-invertible\n")
    assert not out.exists()


CHANGED_CONSTANT_REPORTS = {
    # taft-3 takes G = {e1, e3}; its product e2*e6 changed at e8
    "taft-3": """\
axiom associativity taft-3 FAIL (e1*e1)*e6 != e1*(e1*e6)
axiom unit taft-3 PASS
axiom coassociativity taft-3 PASS
axiom counit taft-3 PASS
axiom coproduct-homomorphism taft-3 FAIL coproduct(e2*e2) != coproduct(e2)*coproduct(e2)
axiom counit-homomorphism taft-3 PASS
axiom antipode-left taft-3 PASS
axiom antipode-right taft-3 PASS
axiom antipode-invertible taft-3 PASS
galois-regularity taft-3 SKIPPED (axioms failed)
""",
    # functions-s3 takes P = {e1, e3}; its coproduct of e0 changed at e2 (x) e2
    "functions-s3": """\
axiom associativity functions-s3 PASS
axiom unit functions-s3 PASS
axiom coassociativity functions-s3 FAIL fails on e0
axiom counit functions-s3 PASS
axiom coproduct-homomorphism functions-s3 FAIL coproduct of 1 is not 1 (x) 1
axiom counit-homomorphism functions-s3 PASS
axiom antipode-left functions-s3 FAIL antipode left law fails on e0
axiom antipode-right functions-s3 FAIL antipode right law fails on e0
axiom antipode-invertible functions-s3 PASS
galois-regularity functions-s3 SKIPPED (axioms failed)
""",
}


@pytest.mark.parametrize("name, table, legs", [("taft-3", "mul", slice(0, 2)),
                                               ("functions-s3", "comul", slice(1, 3))])
def test_verify_axioms_prints_the_witnesses_of_a_changed_constant(tmp_path, name, table, legs):
    # one structure constant changed where the generating set's rows do not
    # read it: a product of two elements outside G = {e1, e3} and the unit,
    # or a coproduct term whose legs are outside P = {e1, e3} and the counit's
    # point.  The report names the full scan's first failures
    doc = algebra_to_json(builtin(name))
    entry = next(e for e in doc[table] if not set(e[legs]) & {0, 1, 3})
    entry[3] = "2" if entry[3] == "1" else "1"
    path = tmp_path / f"{name}.alg"
    path.write_text(json.dumps(doc))
    assert run(["verify-axioms", str(path)]) == (1, CHANGED_CONSTANT_REPORTS[name])


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "broken.alg"
    bad.write_text("{not json")
    code, text = run(["radford", str(bad)])
    assert code == 2 and "error:" in text
    code, text = run(["modular", str(tmp_path / "missing.alg")])
    assert code == 2


def test_dual_command_round_trips(tmp_path):
    src = str(tmp_path / "t2.alg")
    mid = str(tmp_path / "t2-dual.alg")
    back = str(tmp_path / "t2-bidual.alg")
    run(["example", "taft", "--n", "2", "-o", src])
    assert run(["dual", src, "-o", mid])[0] == 0
    assert run(["dual", mid, "-o", back])[0] == 0
    original = read_algebra(src)
    bidual = read_algebra(back)
    assert bidual.mul == original.mul and bidual.comul == original.comul
    assert bidual.antipode == original.antipode


def test_check_command_with_default_and_trap_corpus(tmp_path):
    path = str(tmp_path / "t3.alg")
    run(["example", "taft", "--n", "3", "-o", path])
    code, text = run(["check", path])
    assert code == 0
    assert "radford taft-3 PASS" in text
    from importlib import resources
    traps = resources.files("hopfcheck").joinpath("corpus/convention_traps.ids")
    code, text = run(["check", path, "--corpus", str(traps)])
    assert code == 1
    assert "radford_swapped taft-3 FAIL" in text


def test_check_command_with_corpus_directory(tmp_path):
    path = str(tmp_path / "h4.alg")
    run(["example", "sweedler", "-o", path])
    corpus_dir = tmp_path / "ids"
    corpus_dir.mkdir()
    (corpus_dir / "one.ids").write_text("idy: forall a in A . eps(a(1)) * a(2) = a\n")
    code, text = run(["check", path, "--corpus", str(corpus_dir)])
    assert code == 0 and "idy sweedler PASS" in text


def test_identity_name_repeated_across_corpus_files_exits_2(tmp_path):
    path = str(tmp_path / "h4.alg")
    run(["example", "sweedler", "-o", path])
    corpus_dir = tmp_path / "ids"
    corpus_dir.mkdir()
    for name in ("a.ids", "b.ids"):
        (corpus_dir / name).write_text("idy: forall a in A . eps(a(1)) * a(2) = a\n")
    code, text = run(["check", path, "--corpus", str(corpus_dir)])
    assert code == 2
    assert text == (f"error: identity 'idy' is defined in both {corpus_dir / 'a.ids'} "
                    f"and {corpus_dir / 'b.ids'}\n")


def test_corpus_file_without_identities_exits_2(tmp_path):
    path = str(tmp_path / "h4.alg")
    run(["example", "sweedler", "-o", path])
    empty = tmp_path / "empty.ids"
    empty.write_text("# only a comment\n")
    code, text = run(["check", path, "--corpus", str(empty)])
    assert (code, text) == (2, f"error: {empty}: no identities found\n")


@pytest.mark.parametrize("command", ["check", "full-report"])
def test_empty_corpus_path_exits_2(tmp_path, command):
    # an empty --corpus names no file; it is not the bundled corpus
    path = str(tmp_path / "h4.alg")
    run(["example", "sweedler", "-o", path])
    code, text = run([command, path, "--corpus", ""])
    assert code == 2 and text.startswith("error: ")


def test_full_report_deterministic(tmp_path):
    path = str(tmp_path / "h4.alg")
    run(["example", "sweedler", "-o", path])
    code1, text1 = run(["full-report", path])
    code2, text2 = run(["full-report", path])
    assert code1 == code2 == 0
    assert text1 == text2
    assert "== summary sweedler PASS ==" in text1


def test_example_group_algebras(tmp_path):
    path = str(tmp_path / "z6.alg")
    code, _ = run(["example", "group-algebra", "--cyclic", "6", "-o", path])
    assert code == 0
    assert read_algebra(path).dim == 6
    code, _ = run(["example", "function-algebra", "--symmetric", "3", "-o", path])
    assert code == 0
    assert read_algebra(path).dim == 6
    table = tmp_path / "z2.group"
    table.write_text(json.dumps({"order": 2, "identity": 0, "table": [[0, 1], [1, 0]]}))
    code, _ = run(["example", "group-algebra", "--table", str(table), "-o", path])
    assert code == 0
    assert read_algebra(path).dim == 2


@pytest.mark.parametrize("argv", [["sweedler"], ["taft", "--n", "4"],
                                  ["group-algebra", "--symmetric", "3"],
                                  ["function-algebra", "--cyclic", "6"]])
def test_example_on_stdout_is_the_file_it_writes(tmp_path, argv):
    path = tmp_path / "out.alg"
    code, text = run(["example", *argv])
    assert code == 0
    assert run(["example", *argv, "-o", str(path)])[0] == 0
    assert path.read_text(encoding="utf-8") == text


# SHA-256 of example files: a change to a builder must keep their bytes
EXAMPLE_FILE_DIGESTS = {
    "sweedler":
        "fb15c0305b88e000e61b716c54c0b8fdcea2f7859868975b55741a35e14efe45",
    "taft --n 2":
        "bc656066696b9ff62f3ba192e0879e059ed6dba2c10f6ad86152810c8b052c34",
    "taft --n 3":
        "e22cdea899fd6612defb95922f921617d6a592c36567c251241a75e9f7969c0b",
    "taft --n 4":
        "3f19c7a42c88f3f512bdec163026366e0e796c6313a4fd27c89f2cdd9af49b0c",
    "taft --n 5":
        "30bb9c610b880251346f1ddf71174d92978bf3f8fc8ce9a73aa01688a00274fb",
    "taft --n 6":
        "ba367c43189b261ac8fcc2853ff9032e6eb7272f783c3d37568db16e5c0884b6",
    "taft --n 7":
        "ccba95cfdaaa710e3237a6ab254b444c99e57ddb568509337a0953fd056f5645",
    "taft --n 8":
        "a0039006f5fca598e8746de86327a57d79f7f158aa1c138f7de8fbed29425dec",
    "taft --n 9":
        "b4f6d6a3b8576bd6355af1498ac1649cb5ea0f8afd53e90c53d6662a670c44a3",
    "taft --n 10":
        "4fb2d8840541a7a8d31991ffcc2db45f88d73cbf25fee51b2898144e21bd41e2",
    "taft --n 11":
        "866b4ff05370f87660c2a628750efef1dc941bd1f9be9703cd69ef4324647284",
    "taft --n 12":
        "8ce7f0b9330a7d0d9bcc4c636824da92cc878f32d2fd39dee9ce4ecfeb17164b",
    "group-algebra --cyclic 1":
        "5356930204f37244ecab41a92d146e0ecd7c477e846ebcc02d475afc8eb69c4b",
    "group-algebra --cyclic 2":
        "364cd74dce5f6496f79ee2767ac33cda3e830bf5b3e530f345564e27b5cf9714",
    "group-algebra --cyclic 3":
        "9474820be854768593ec31c2ff3332fa4e663b12d225a8da9e63d285eb3661c3",
    "group-algebra --cyclic 4":
        "8d724304f9efd12eec229384e8189f0ce47fc0588397a6266d434e4b8a092a59",
    "group-algebra --cyclic 5":
        "d2158ad0334261cc85ec69913ef65b1a31586662203234aa08e7777b23485e83",
    "group-algebra --cyclic 6":
        "505bf45ff8c2b3e46ffa7581c0487288dfa8d9a63dfbe04d775e8c643a2c672a",
    "group-algebra --cyclic 7":
        "a4bbae374e6946db46b323bb24605c5f1bb57d04bfb99b2ddc41bf90d751610c",
    "group-algebra --cyclic 8":
        "cb3151cb084c3823bed63f0faa1d0324902813b350bd48a00e0d0c1c59dfdc66",
    "group-algebra --cyclic 9":
        "a88087fa79af025596633dbdfcdd01e8864898af11f3790ba2ee04b5dd2948fc",
    "group-algebra --cyclic 10":
        "a419a1b9898f16bf03d653e1324fc22f518b9187220dd393ec0d6c66c20bcb59",
    "group-algebra --cyclic 11":
        "9e63f4243b5879cd0d6feebe4c97efd51cee2e8592bcb8bf4940f14901dca2dc",
    "group-algebra --cyclic 12":
        "cae9cc1db860e314bef025f6e7aa28bd708adae0e07c25b1536430b11ce55261",
    "group-algebra --cyclic 64":
        "a8b39399688ba20ffef3e210c4435acceee0d2f37d4e0e1b9640908ff753f661",
    "group-algebra --symmetric 1":
        "45326a7b5cb76b6dcbb354fcaf952d52bc3bae3ec0a50a12c704a7d765982c27",
    "group-algebra --symmetric 2":
        "de8fc8fb02c8499b62dc81df9309fb455239d2dc241a019465bae41888e0b7c3",
    "group-algebra --symmetric 3":
        "4a6d98303aa41e2776a031aba59ca984061e2a37d5fbdee8b38ff4a00613922a",
    "group-algebra --symmetric 4":
        "af8a7f80e04e31b931e2214f2ccfca92ea21c95f9194287be437bcb17cf3e0ae",
    "function-algebra --cyclic 1":
        "a26931bc150a954944b2fba3144269ea5441d2b8077c5f450574651b58f4d87d",
    "function-algebra --cyclic 2":
        "1eb4cb3b2cebb21bb0b96ceaa9a594b2edf6ccaf26498d6ad25f4e52401bd449",
    "function-algebra --cyclic 3":
        "71d097c5e05dfde078cc5d21c90f349e247451d761e537af198187b9654830d8",
    "function-algebra --cyclic 4":
        "cc3d435989d6c5b6044358d50fc8f365d567905332475b7dac794e859800124c",
    "function-algebra --cyclic 5":
        "5de3907c58ac4b1112bed1886ba8b91f361ace75c4c712f7c68401e03b81c130",
    "function-algebra --cyclic 6":
        "f6428ac191fb082e7049edac41773aaa8f60cbb854a1c7d5605ab7779ba1b786",
    "function-algebra --cyclic 7":
        "647a737e64c4fbc9135830374dee66db134f6880e0713825a7648ad5a9b7bea7",
    "function-algebra --cyclic 8":
        "ac7f5f347afc57d3ef665b1b8bae21fcf772a51dbb906ea1abcbcab574e93db3",
    "function-algebra --cyclic 9":
        "81705c67d60f89d92218dad5bf16f6b826a592fef91b0e103593e26800b8a650",
    "function-algebra --cyclic 10":
        "854025f2ec93a30988d1bc018a45ca37a745d668d11252b3eb294aefeb7b0c0f",
    "function-algebra --cyclic 11":
        "2105e9db2da8e07f41cb918575ce7b5e7a2e1d525fd6bf6985dde671f3a73cc1",
    "function-algebra --cyclic 12":
        "a44df9a25f9f1fb6ab7e9bb0bbcdd1aba6283109fd54d15db2e66154be1189c9",
    "function-algebra --cyclic 64":
        "1125f0be2f626ee77f90b8ad5c6c35bacf799325cd56b7a45c6674f378ad9567",
    "function-algebra --symmetric 1":
        "2ed17b9c771c65994d7841d7d43b57dceef6b77e352418661c8ee1551b61eb41",
    "function-algebra --symmetric 2":
        "7a11bb9b5b4028b361913fb403ac49f8c65ae3cb231ab2d28600e4e28f8da381",
    "function-algebra --symmetric 3":
        "f5d50be4ab79499e7af691e57e5d6120e873245f78ec51ac48bbae433b2285eb",
    "function-algebra --symmetric 4":
        "ec300dde26b0a826cf09540c97205cfe6ef67ee79a5958199657bf2dd0d19a2d",
}


def test_example_files_keep_their_bytes():
    for argv, digest in EXAMPLE_FILE_DIGESTS.items():
        code, text = run(["example", *argv.split()])
        assert code == 0, argv
        assert hashlib.sha256(text.encode()).hexdigest() == digest, argv


def test_example_usage_errors(tmp_path):
    assert run(["example", "taft", "-o", str(tmp_path / "x.alg")])[0] == 2
    assert run(["example", "group-algebra", "-o", str(tmp_path / "x.alg")])[0] == 2
    assert run(["example", "group-algebra", "--cyclic", "2", "--symmetric", "3",
                "-o", str(tmp_path / "x.alg")])[0] == 2


def test_example_taft_order_past_the_limit_exits_2_before_building(tmp_path, monkeypatch):
    # taft-n has dimension n^2, bounded like a group example's, so
    # 16 is the largest n; the builder is stubbed, nothing large is built
    built = []

    def recorded(n):
        built.append(n)
        return build_taft(2)

    monkeypatch.setattr(cli, "build_taft", recorded)
    path = tmp_path / "t.alg"
    for n in (17, CYCLOTOMIC_ORDER_LIMIT, CYCLOTOMIC_ORDER_LIMIT + 1):
        code, text = run(["example", "taft", "--n", str(n), "-o", str(path)])
        assert (code, built) == (2, []), n
        assert text == (f"error: --n {n} gives dimension {n * n}, above the limit of "
                        f"{GROUP_ORDER_LIMIT}\n")
        assert not path.exists()
    assert run(["example", "taft", "--n", "16", "-o", str(path)])[0] == 0
    assert built == [16]


@pytest.mark.parametrize("kind", ["group-algebra", "function-algebra"])
@pytest.mark.parametrize("n", [0, -3])
def test_example_symmetric_below_one_exits_2(tmp_path, kind, n):
    path = tmp_path / "s.alg"
    code, text = run(["example", kind, "--symmetric", str(n), "-o", str(path)])
    assert (code, text) == (2, f"error: symmetric group degree must be >= 1, got {n}\n")
    assert not path.exists()
    assert run(["example", kind, "--symmetric", "1", "-o", str(path)])[0] == 0
    assert read_algebra(str(path)).dim == 1


def test_full_reports_parse_the_bundled_corpus_once(monkeypatch):
    calls = []

    def counted(text):
        calls.append(text)
        return parse_corpus(text)

    monkeypatch.setattr(identities, "parse_corpus", counted)
    # the loader with an empty cache: the process's own parsed the corpus
    # when verify.py built its suites
    monkeypatch.setattr(cli, "standard_corpus", functools.cache(
        identities.standard_corpus.__wrapped__))
    for _ in range(2):
        assert cli.full_report_text(builtin("sweedler"))[1]
    assert len(calls) == 1


def test_example_writes_to_stdout():
    code, text = run(["example", "sweedler"])
    assert code == 0
    doc = json.loads(text)
    assert doc["name"] == "sweedler" and doc["dim"] == 4


def test_malformed_scalar_literals_exit_2(tmp_path):
    src = tmp_path / "h4.alg"
    run(["example", "sweedler", "-o", str(src)])
    path = tmp_path / "bad.alg"
    for bad, message in (("1/0", "zero denominator in '1/0'"),
                         (1, "scalar literal must be a string, got 1"),
                         (None, "scalar literal must be a string, got None")):
        doc = json.loads(src.read_text())
        doc["mul"][0][3] = bad
        path.write_text(json.dumps(doc))
        assert run(["full-report", str(path)]) == (2, f"error: {path}: mul[0]: {message}\n"), bad


def test_duplicate_triple_exits_2(tmp_path):
    src = tmp_path / "h4.alg"
    run(["example", "sweedler", "-o", str(src)])
    doc = json.loads(src.read_text())
    doc["mul"].append(doc["mul"][0][:3] + ["2"])
    path = tmp_path / "dup.alg"
    path.write_text(json.dumps(doc))
    code, text = run(["verify-axioms", str(path)])
    assert code == 2 and "duplicate entry" in text and "mul[0]" in text


@pytest.mark.parametrize("key,value,where", [
    ("mul", 5, "mul must be"),
    ("basis", 4, "basis must be"),
    ("counit", "1", "counit must be"),
    ("field", "Q", "field must be"),
    ("field", {"kind": "cyclotomic", "order": True}, "field: bad cyclotomic order True"),
    ("field", {"kind": "cyclotomic", "order": CYCLOTOMIC_ORDER_LIMIT + 1},
     f"field: cyclotomic order {CYCLOTOMIC_ORDER_LIMIT + 1} exceeds the limit"),
    ("field", {"kind": "cyclotomic", "order": 3001}, "field: cyclotomic order 3001 exceeds"),
    ("name", "a\nb", "name: bad name 'a\\nb'"),
    ("name", "my alg", "name: bad name"),
    ("name", "", "name: bad name"),
    ("name", 7, "name: bad name"),
    ("basis", ["1", "x", "g", "g x"], "basis[3]: bad name"),
    ("basis", ["1", "x\u0007", "g", "g*x"], "basis[1]: bad name"),
    ("basis", ["1", "x", "g", "x"], "basis[3]: duplicate name 'x', first given at basis[1]"),
])
def test_wrongly_shaped_sections_exit_2(tmp_path, key, value, where):
    src = tmp_path / "h4.alg"
    run(["example", "sweedler", "-o", str(src)])
    doc = json.loads(src.read_text())
    doc[key] = value
    path = tmp_path / "shape.alg"
    path.write_text(json.dumps(doc))
    code, text = run(["verify-axioms", str(path)])
    assert code == 2 and where in text, text


def test_scalar_with_split_digits_exits_2(tmp_path):
    # "1 2" is not read as 12: a file whose counit is off by that much
    # would otherwise fail an axiom instead of being refused
    src = tmp_path / "h4.alg"
    run(["example", "sweedler", "-o", str(src)])
    doc = json.loads(src.read_text())
    doc["counit"][0] = "1 2"
    path = tmp_path / "split.alg"
    path.write_text(json.dumps(doc))
    assert run(["verify-axioms", str(path)]) == (
        2, f"error: {path}: counit[0]: whitespace inside a number in '1 2'\n")


@pytest.mark.parametrize("section,item", [("mul", 5), ("comul", "0 0 0 1"), ("antipode", {"i": 0})])
def test_non_list_items_exit_2(tmp_path, section, item):
    src = tmp_path / "h4.alg"
    run(["example", "sweedler", "-o", str(src)])
    doc = json.loads(src.read_text())
    doc[section][0] = item
    path = tmp_path / "item.alg"
    path.write_text(json.dumps(doc))
    code, text = run(["verify-axioms", str(path)])
    assert code == 2 and f"{section}[0]: expected" in text, text


def test_boolean_index_exits_2(tmp_path):
    src = tmp_path / "h4.alg"
    run(["example", "sweedler", "-o", str(src)])
    doc = json.loads(src.read_text())
    doc["mul"][0][2] = True
    path = tmp_path / "bool.alg"
    path.write_text(json.dumps(doc))
    assert run(["verify-axioms", str(path)]) == (
        2, f"error: {path}: mul[0]: index True is not an integer\n")


def test_cyclotomic_order_at_the_limit_loads(tmp_path):
    src = tmp_path / "h4.alg"
    run(["example", "sweedler", "-o", str(src)])
    doc = json.loads(src.read_text())
    doc["field"] = {"kind": "cyclotomic", "order": CYCLOTOMIC_ORDER_LIMIT}
    src.write_text(json.dumps(doc))
    assert run(["verify-axioms", str(src)])[0] == 0


def test_boolean_group_table_entry_exits_2(tmp_path):
    table = tmp_path / "z2.group"
    table.write_text(json.dumps({"order": 2, "identity": 0,
                                 "table": [[0, 1], [1, False]]}))
    assert run(["example", "group-algebra", "--table", str(table),
                "-o", str(tmp_path / "z2.alg")]) == (
        2, f"error: {table}: table[1][1]: entry False is not an integer\n")


def test_example_group_order_past_the_limit_exits_2(tmp_path):
    path = tmp_path / "g.alg"
    n = GROUP_ORDER_LIMIT + 1
    code, text = run(["example", "group-algebra", "--cyclic", str(n), "-o", str(path)])
    assert (code, text) == (2, f"error: cyclic group order {n} exceeds the group order "
                               f"limit of {GROUP_ORDER_LIMIT}\n")
    # 6! = 720 is the first factorial past the limit, 5! = 120 the last below it
    code, text = run(["example", "function-algebra", "--symmetric", "6", "-o", str(path)])
    assert (code, text) == (2, f"error: symmetric group degree 6 exceeds the group order "
                               f"limit of {GROUP_ORDER_LIMIT} (6! elements)\n")
    assert not path.exists()
    assert run(["example", "function-algebra", "--symmetric", "5", "-o", str(path)])[0] == 0
    assert json.loads(path.read_text())["dim"] == 120
    n = GROUP_ORDER_LIMIT
    assert run(["example", "group-algebra", "--cyclic", str(n), "-o", str(path)])[0] == 0
    assert json.loads(path.read_text())["dim"] == n


def test_group_table_file_past_the_limit_exits_2_before_validating(tmp_path, monkeypatch):
    n = GROUP_ORDER_LIMIT + 1
    table = tmp_path / "z257.group"
    table.write_text(json.dumps({"table": [[(i + j) % n for j in range(n)] for i in range(n)]}))
    validated = []
    monkeypatch.setattr(GroupPresentation, "_validate", lambda g: validated.append(g.order))
    path = tmp_path / "g.alg"
    code, text = run(["example", "group-algebra", "--table", str(table), "-o", str(path)])
    assert (code, text) == (2, f"error: {table}: group table order {n} exceeds the group order "
                               f"limit of {GROUP_ORDER_LIMIT}\n")
    assert validated == [] and not path.exists()


@pytest.mark.parametrize("command", [["verify-axioms"], ["example", "group-algebra", "--table"]])
def test_json_nested_past_the_decoder_exits_2(tmp_path, command):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    assert run(command + [str(deep)]) == (2, f"error: {deep}: JSON nested too deeply to read\n")


@pytest.mark.parametrize("command", [["verify-axioms"], ["example", "group-algebra", "--table"],
                                     ["check", "h4.alg", "--corpus"]])
def test_file_that_is_not_utf8_exits_2_naming_it(tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    run(["example", "sweedler", "-o", "h4.alg"])
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff{}")
    assert run(command + [str(bad)]) == (
        2, f"error: {bad}: 'utf-8' codec can't decode byte 0xff in position 0: "
           "invalid start byte\n")


def test_zero_denominator_in_an_identity_exits_2(tmp_path):
    src, ids = tmp_path / "h4.alg", tmp_path / "z.ids"
    run(["example", "sweedler", "-o", str(src)])
    ids.write_text("z: forall a in A . 1/0 * a = a\n")
    assert run(["check", str(src), "--corpus", str(ids)]) == (
        2, f"error: {ids}: line 1: position 21: zero denominator\n")


def test_number_too_long_in_an_identity_exits_2_naming_its_place(tmp_path):
    # past the interpreter's limit on converting digits to an int
    src, ids = tmp_path / "h4.alg", tmp_path / "big.ids"
    run(["example", "sweedler", "-o", str(src)])
    ids.write_text(f"# big\n\nz: forall a in A . {'1' * 5000} * a = a\n")
    assert run(["check", str(src), "--corpus", str(ids)]) == (
        2, f"error: {ids}: line 3: position 19: number too long: more than 4300 digits\n")


def test_number_too_long_in_an_algebra_file_exits_2_naming_its_field(tmp_path):
    doc = algebra_to_json(builtin("sweedler"))
    doc["unit"][0] = "1" * 5000
    path = tmp_path / "big.alg"
    path.write_text(json.dumps(doc))
    assert run(["verify-axioms", str(path)]) == (
        2, f"error: {path}: unit[0]: number too long: more than 4300 digits\n")


@pytest.mark.parametrize("body, message", [
    ("forall a in A .\n   1/0 * a = a", "position 21: zero denominator"),
    ("forall a in A .\n   b = a", "undeclared variable 'b'"),
    ("forall a in A .\n   a(1) * a(3) = a",
     "z: legs of 'a' on the left side must be 1..k, got [1, 3]"),
], ids=["syntax", "sort", "legs"])
def test_corpus_errors_name_the_file_and_the_line_the_identity_starts_on(tmp_path, body, message):
    # a wrapped identity inside a directory corpus: the error names its file
    # and the line its block starts on; a position counts within the
    # identity's lines joined into one
    src, corpus_dir = tmp_path / "h4.alg", tmp_path / "ids"
    run(["example", "sweedler", "-o", str(src)])
    corpus_dir.mkdir()
    (corpus_dir / "a.ids").write_text("idy: forall a in A . eps(a(1)) * a(2) = a\n")
    bad = corpus_dir / "b.ids"
    bad.write_text(f"# comment\n\nok: forall a in A .\n  a = a\n\nz: {body}\n")
    for command in ("check", "full-report"):
        assert run([command, str(src), "--corpus", str(corpus_dir)]) == (
            2, f"error: {bad}: line 6: {message}\n"), command


def test_identity_name_repeated_in_one_corpus_file_exits_2(tmp_path):
    src, ids = tmp_path / "h4.alg", tmp_path / "d.ids"
    run(["example", "sweedler", "-o", str(src)])
    ids.write_text("x: forall a in A . a = a\n\n# again\nx: forall a in A . a = a\n")
    assert run(["check", str(src), "--corpus", str(ids)]) == (
        2, f"error: {ids}: line 4: identity 'x' is already defined at line 1\n")


@pytest.mark.parametrize("opening", ["(", "S("])
def test_deeply_nested_identity_exits_2(tmp_path, opening):
    src = tmp_path / "h4.alg"
    run(["example", "sweedler", "-o", str(src)])
    depth = 3000 if opening == "(" else 2000
    ids = tmp_path / "deep.ids"
    ids.write_text(f"deep: forall a in A . {opening * depth}a{')' * depth} = a\n")
    code, text = run(["check", str(src), "--corpus", str(ids)])
    assert code == 2 and text.startswith(f"error: {ids}: line 1: position "), text
    assert text.endswith(f": brackets nested deeper than {MAX_NESTING} levels\n"), text


@pytest.mark.parametrize("nested", [False, True], ids=["flat", "nested"])
def test_long_product_is_checked_in_a_loop(tmp_path, nested):
    # a product's factors fold in a loop, not one stack frame each: 1,200
    # factors, alone or inside the brackets of another 1,200-factor
    # product, are checked like a short product
    src, ids = tmp_path / "h4.alg", tmp_path / "long.ids"
    run(["example", "sweedler", "-o", str(src)])
    ones = " * 1" * 1199
    product = f"(a{ones}){ones}" if nested else f"a{ones}"
    ids.write_text(f"long: forall a in A . {product} = a\n\n"
                   f"scaled: forall a in A . 2 * {product} = a\n")
    assert run(["check", str(src), "--corpus", str(ids)]) == (
        1, "long sweedler PASS\nscaled sweedler FAIL at a=1: lhs=(2)*1 rhs=1\n")


def test_verify_axioms_decides_a_changed_dual_file_from_scratch(tmp_path):
    # a dual built in memory takes the primal's validation; a dual read from a
    # file is checked like any other file
    src, dual = tmp_path / "t3.alg", tmp_path / "dual.alg"
    assert run(["example", "taft", "--n", "3", "-o", str(src)])[0] == 0
    assert run(["dual", str(src), "-o", str(dual)]) == (0, f"wrote dual(taft-3) to {dual}\n")
    assert run(["verify-axioms", str(dual)])[0] == 0
    doc = json.loads(dual.read_text())
    assert doc["mul"][1] == [0, 5, 5, "1"]
    doc["mul"][1][3] = "2"
    dual.write_text(json.dumps(doc))
    code, text = run(["verify-axioms", str(dual)])
    assert code == 1
    assert "axiom associativity dual(taft-3) FAIL (e0*e0)*e5 != e0*(e0*e5)\n" in text
    assert text.endswith("galois-regularity dual(taft-3) SKIPPED (axioms failed)\n")


def test_nonlinear_identity_exits_2(tmp_path):
    src = tmp_path / "h4.alg"
    run(["example", "sweedler", "-o", str(src)])
    ids = tmp_path / "square.ids"
    ids.write_text("square: forall a in A, y in Ahat . <a(1) * a(1), y> = <a(2), y>\n")
    code, text = run(["check", str(src), "--corpus", str(ids)])
    assert code == 2 and text.startswith(
        f"error: {ids}: line 1: square: a(1) occurs more than once"), text


def test_antipode_synthesis_past_the_dimension_limit_exits_2(tmp_path):
    n = ANTIPODE_DIM_LIMIT + 1
    path = tmp_path / "big.alg"
    assert run(["example", "group-algebra", "--cyclic", str(n), "-o", str(path)])[0] == 0
    doc = json.loads(path.read_text())
    del doc["antipode"]
    path.write_text(json.dumps(doc))
    code, text = run(["verify-axioms", str(path)])
    assert code == 2
    assert text == (f"error: {path}: group-z{n}: dim {n} exceeds the antipode synthesis limit of "
                    f"{ANTIPODE_DIM_LIMIT} (the system has dim^2 unknowns)\n")


def test_order_past_the_cap_prints_the_bound():
    two = Matrix(RATIONAL, [[2]])
    assert matrix_order(two) is None
    assert order_text(two) == "> 1000"
    assert order_text(Matrix(RATIONAL, [[-1]])) == "2"


def _power_loop_order(m):
    """The order by the loop matrix_order ran before: the first of m, m^2,
    ..., m^ORDER_CAP that is the identity, or None."""
    acc, ident = m, Matrix.identity(m.field, m.rows)
    for k in range(1, cli.ORDER_CAP + 1):
        if acc == ident:
            return k
        acc = acc * m
    return None


def _permutation(field, images, scales=None):
    """The monomial matrix sending e_j to scales[j] e_images[j]."""
    n = len(images)
    rows = [[0] * n for _ in range(n)]
    for j, i in enumerate(images):
        rows[i][j] = scales[j] if scales else 1
    return Matrix(field, rows)


def _seeded_matrices(seed):
    """Monomial matrices (permutations scaled by roots of unity, by 2 or
    by 0), dense invertible ones (a monomial one conjugated by a unipotent
    matrix, and unipotent ones of infinite order), and singular ones."""
    rng = random.Random(seed)
    out = []
    for field in (RATIONAL, cyclotomic_field(3), cyclotomic_field(4)):
        roots = [field.one(), -field.one()] + (
            [] if field is RATIONAL else [field.generator(), -field.generator()])
        for n in (1, 2, 3, 5, 6):
            images = rng.sample(range(n), n)
            monomial = _permutation(field, images, [rng.choice(roots) for _ in range(n)])
            unipotent = Matrix(field, [[int(i == j) if i >= j else rng.randint(-2, 2)
                                        for j in range(n)] for i in range(n)])
            out.append(monomial)
            out.append(unipotent * monomial * invert(unipotent))
            out.append(unipotent)
            out.append(_permutation(field, images, [rng.choice(roots + [field.scalar(2)])
                                                   for _ in range(n)]))
            out.append(_permutation(field, images, [rng.choice(roots + [field.zero()])
                                                   for _ in range(n)]))
            out.append(Matrix(field, [[rng.choice((0, 0, 1, -1)) for _ in range(n)]
                                      for _ in range(n)]))
    return out


@pytest.mark.parametrize("seed", [1, 2])
def test_matrix_order_agrees_with_the_power_loop(seed):
    matrices = _seeded_matrices(seed)
    orders = [matrix_order(m) for m in matrices]
    assert orders == [_power_loop_order(m) for m in matrices]
    assert None in orders and len(set(orders) - {None}) > 3


def test_matrix_order_past_the_cap_by_the_lcm_of_its_cycles():
    # cycles of 7, 11 and 13: each closes well within the cap, their lcm
    # 1001 does not; cycles of 8 and 125 close at 1000, the cap itself
    def cycles(*lengths):
        images, start = [], 0
        for n in lengths:
            images += [start + (j + 1) % n for j in range(n)]
            start += n
        return _permutation(RATIONAL, images)

    for lengths, order in (((7, 11, 13), None), ((8, 125), 1000), ((7, 11), 77)):
        m = cycles(*lengths)
        assert matrix_order(m) == _power_loop_order(m) == order, lengths


def test_consecutive_runs_share_no_parser_state(tmp_path):
    # the parser is built once per process; each run parses afresh
    assert cli._build_arg_parser() is cli._build_arg_parser()
    path = str(tmp_path / "h4.alg")
    assert run(["example", "sweedler", "-o", path])[0] == 0
    default = run(["full-report", path])
    corpus = tmp_path / "one.ids"
    corpus.write_text("idy: forall a in A . eps(a(1)) * a(2) = a\n")
    code, text = run(["full-report", path, "--corpus", str(corpus)])
    assert code == 0 and "idy sweedler PASS" in text
    assert run(["full-report", path]) == default
    assert default[0] == 0 and "idy sweedler" not in default[1]
    for usage_error in (["example"], ["full-report"], ["no-such-command"]):
        assert run(usage_error) == (2, "")
        assert run(["verify-axioms", path])[0] == 0


def test_every_command_checks_regularity_only_on_a_valid_algebra(tmp_path, monkeypatch):
    # galois_maps relies on validation having passed; every call the
    # commands make sees a valid algebra, on a valid file, on a file
    # without an antipode (synthesized on reading) and on a corrupted file
    seen = []
    real = cli.galois_maps

    def recorded(h):
        seen.append((h.name, h.validate().ok))
        return real(h)

    monkeypatch.setattr(cli, "galois_maps", recorded)
    doc = algebra_to_json(builtin("taft-3"))
    files = {"valid": doc, "no-antipode": {k: v for k, v in doc.items() if k != "antipode"}}
    bad = json.loads(json.dumps(doc))
    bad["mul"][1][3] = "2"
    files["corrupted"] = bad
    corpus_dir = tmp_path / "ids"
    corpus_dir.mkdir()
    (corpus_dir / "one.ids").write_text("idy: forall a in A . eps(a(1)) * a(2) = a\n")
    codes = {label: set() for label in files}
    for label, content in files.items():
        path = str(tmp_path / f"{label}.alg")
        with open(path, "w") as fh:
            json.dump(content, fh)
        for argv in (["verify-axioms"], ["modular"], ["radford"], ["check"],
                     ["check", "--corpus", str(corpus_dir)], ["full-report"],
                     ["full-report", "--corpus", str(corpus_dir)],
                     ["dual", "-o", str(tmp_path / f"{label}-dual.alg")]):
            codes[label].add(run([argv[0], path] + argv[1:])[0])
    assert run(["example", "taft", "--n", "3"])[0] == 0
    assert codes == {"valid": {0}, "no-antipode": {0}, "corrupted": {1}}
    # verify-axioms and the two full-reports of each of the two valid files;
    # the corrupted file never reaches the regularity check
    assert seen == [("taft-3", True)] * 6
