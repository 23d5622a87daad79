import ast
import errno
import functools
import gc
import hashlib
import json
import shlex
import weakref
from pathlib import Path

import pytest

from tropicone import cli, decograph, oracle, stringcone, wordtools
from tropicone.cli import main
from tropicone.rootsystem import CartanType, cartan_matrix

C3_ARGS = ["--type", "C3", "--word", "2,3,2,1,2,3,2,3,1"]
D4_ARGS = ["--type", "D4", "--word", "2,1,3,2,4,2,3,2,1,2,3,4"]
G2_ARGS = ["--type", "G2", "--word", "1,2,1,2,1,2"]
F4_WORD = "1,2,1,3,2,1,3,2,3,4,3,2,1,3,2,3,4,3,2,1,3,2,3,4"
E6_WORD = "1,2,1,3,2,1,4,3,2,1,5,4,3,2,1,6,3,2,1,4,3,2,5,4,3,6,3,2,1,4,3,2,5,4,3,6"

# sha256 of the default output bytes: any change to what the CLI prints,
# however small, fails here
GOLDEN = [
    (["graph", *C3_ARGS, "--format", "json"], "4416f979a6ba975ee33fde8ea7ab628cf0afeb2e4714dac0fbb8bba1e8c083f9"),
    (["graph", *C3_ARGS, "--i", "2", "--format", "dot"], "1262f749058491f7b360e15e7545caf40fc424d4ed0d89fb87210b33d3cd865e"),
    (["cone", *C3_ARGS], "15be621e1edfb3e6a24f6183e788ef84e8c635cc7b5779e1c45449d4e4cd88ed"),
    (["cone", *C3_ARGS, "--format", "latex"], "aff343227e0df486fe49adeae0bed644165a507561aacc82935f28fe9d0d6417"),
    (["cone", *C3_ARGS, "--format", "json"], "0d6e9a9a91de09fe3aeecbb6c9e56a3ece1c05afa4119e4ac0eae2d509626358"),
    (["check", *C3_ARGS], "0335d66cb356bdc652585e34b1ceb5c79ac73552f31f22de75f11ec1dee8078b"),
    (["cone", *D4_ARGS], "668d9ce96bd370ec69af32b4d10285e419a42e72e5544b00effdf01614404d6e"),
    (["check", *D4_ARGS], "9a2787d395680931019aedc215b5dceca6ec659aef8a27e6c69880f7aa64e881"),
    (["graph", *G2_ARGS, "--format", "json"], "0e88fa1c150bb2546387d48411d0122332d20466a476ea1adc7550ce088bdc2c"),
    (
        ["graph", "--type", "F4", "--word", F4_WORD, "--i", "2", "--force", "--format", "json"],
        "e30f6838256525692382111c8d6055d99986ec9126e054cc6e60a22427f8b495",
    ),
    (
        ["oracle", "--type", "A3", "--all-words", "--census-bound", "1"],
        "c9aa8a0a814283efaf0ab09ab01c857e19cba765377ae7694de1db7e7d148378",
    ),
    (
        ["oracle", "--type", "A4", "--word", "2,4,1,3,2,3,4,3,1,2"],
        "888ddb8e801a807f0f99d699e0b5b2cb1396f6f835372564bc5df873b47452c6",
    ),
    (
        ["oracle", "--type", "C3", "--all-words", "--census-bound", "1"],
        "fa025c40d53164cd708594b10e8aec8a5b0bd38686bc72cd0fc8dfa5bb8448af",
    ),
    (
        ["oracle", "--type", "B3", "--all-words", "--census-bound", "1"],
        "869c0ae1ae348d41e3e292caa62032be6e1ab23d0cf0c25a06e0a30f2307e88f",
    ),
]
# the command, the type and the flags after the word
GOLDEN_IDS = [" ".join(a[:1] + a[2:3] + a[5:]) for a, _ in GOLDEN]
WORD_LIMIT_ARGS = ["oracle", "--type", "A3", "--all-words", "--word-limit", "5"]


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_graph_dot(capsys):
    rc, out, _ = run(capsys, "graph", *C3_ARGS, "--i", "2", "--format", "dot")
    assert rc == 0
    assert out.startswith('digraph "C3_i2"')
    assert out.count("->") == 14


def test_graph_json(capsys):
    rc, out, _ = run(capsys, "graph", *C3_ARGS, "--i", "2", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["meta"]["vertex_count"] == 12


def test_graph_bundle_without_i(capsys):
    rc, out, _ = run(capsys, "graph", *C3_ARGS, "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["type"] == "C3"
    assert [g["meta"]["i"] for g in doc["graphs"]] == [1, 2, 3]


def test_graph_dot_requires_i(capsys):
    assert run(capsys, "graph", *C3_ARGS, "--format", "dot") == (1, "", "error: --i is required with dot output\n")


def test_graph_unsupported_exit_code(capsys):
    rc, _, err = run(capsys, "graph", "--type", "F4", "--word", F4_WORD, "--i", "2")
    assert rc == 2
    assert "force" in err
    rc, out, _ = run(capsys, "graph", "--type", "F4", "--word", F4_WORD, "--i", "2", "--force", "--format", "json")
    assert rc == 0
    assert json.loads(out)["meta"]["forced"] is True


def test_bad_input_exit_codes(capsys):
    assert run(capsys, "graph", "--type", "Q9", "--word", "1", "--i", "1")[0] == 1
    assert run(capsys, "graph", "--type", "C3", "--word", "2,2,2,1,2,3,2,3,1", "--i", "2")[0] == 1
    assert run(capsys, "graph", "--type", "C3", "--word", "2,3,2", "--i", "2")[0] == 1
    assert run(capsys, "cone", "--type", "C3", "--word", "2,3,2,1,2,3,2,3,x")[0] == 1
    # an index outside [1, n] is bad input, not an unproven index
    assert run(capsys, "graph", "--type", "E6", "--word", E6_WORD, "--i", "9") == (1, "", "error: index 9 out of [1, 6]\n")
    assert run(capsys, "graph", "--type", "E6", "--word", E6_WORD, "--i", "0")[0] == 1
    rc, out, err = run(capsys, "oracle", "--type", "A3", "--word", "1,2,1,3,2,1", "--census-bound", "-1")
    assert (rc, out, err) == (1, "", "error: --census-bound must be nonnegative\n")
    rc, out, err = run(capsys, "oracle", "--type", "A3", "--all-words", "--word-limit", "0")
    assert (rc, out, err) == (1, "", "error: --word-limit must be positive\n")
    # more words than the limit is bad input too, and nothing is printed
    assert run(capsys, *WORD_LIMIT_ARGS) == (1, "", "error: more than 5 reduced words\n")
    # argparse usage errors exit 1 too: 2 means an unproven index
    rc, out, err = run(capsys, "cone", "--type", "C3")
    assert rc == 1 and out == "" and "the following arguments are required: --word" in err
    rc, out, err = run(capsys, "graph", *C3_ARGS, "--i", "x")
    assert rc == 1 and out == "" and "invalid int value: 'x'" in err
    # oracle takes exactly one of --word and --all-words
    rc, out, err = run(capsys, "oracle", "--type", "A3", "--word", "1,2,1,3,2,1", "--all-words")
    assert rc == 1 and out == "" and "argument --all-words: not allowed with argument --word" in err
    rc, out, err = run(capsys, "oracle", "--type", "A3")
    assert rc == 1 and out == "" and "one of the arguments --word --all-words is required" in err
    # an empty word is a word of the wrong length, as in every other command
    assert run(capsys, "oracle", "--type", "A3", "--word", "") == (1, "", "error: expected 6 letters for A3, got 0\n")
    assert run(capsys, "cone", "--type", "A3", "--word", "") == (1, "", "error: expected 6 letters for A3, got 0\n")


def test_vertex_cap_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(cli, "build_graph", functools.partial(decograph.build_graph, max_vertices=5))
    rc, out, err = run(capsys, "graph", *C3_ARGS, "--i", "2")
    assert rc == 1 and out == ""
    assert err == "error: vertex cap 5 hit building (C3, i=2, word 2,3,2,1,2,3,2,3,1)\n"


def test_out_of_memory_exits_1(capsys, monkeypatch):
    def exhausted(cone, mvec):
        raise MemoryError

    monkeypatch.setattr(cli, "weight_census", exhausted)
    rc, out, err = run(capsys, "oracle", *C3_ARGS, "--census-bound", "1")
    assert rc == 1 and out == ""
    assert err == "error: out of memory running oracle\n"


def _without_first_row(cd, w, graphs):
    cone = stringcone.cone_from_graphs(cd, w, graphs)
    return stringcone.ConeSystem(cd, w, cone.rows[1:])


def test_uncertified_cone_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(cli, "cone_from_graphs", _without_first_row)
    rc, out, err = run(capsys, "oracle", *C3_ARGS, "--census-bound", "1")
    assert rc == 1 and out == ""
    assert err == "error: census of (C3, word 2,3,2,1,2,3,2,3,1): no certificate that z_4 >= 0\n"


def test_uncertified_cone_exits_1_at_census_bound_0(capsys, monkeypatch):
    # the zero weight alone is counted only on a certified cone too
    monkeypatch.setattr(cli, "cone_from_graphs", _without_first_row)
    rc, out, err = run(capsys, "oracle", *C3_ARGS, "--census-bound", "0")
    assert (rc, out) == (1, "")
    assert err == "error: census of (C3, word 2,3,2,1,2,3,2,3,1): no certificate that z_4 >= 0\n"


def test_recursion_too_deep_exits_1(capsys):
    # A60 has 1,830 positive roots, and the word search recurses once per letter
    rc, out, err = run(capsys, "oracle", "--type", "A60", "--all-words", "--word-limit", "1")
    assert (rc, out, err) == (1, "", "error: recursion too deep running oracle\n")


def test_census_mismatch_is_reported(capsys, monkeypatch):
    monkeypatch.setattr(cli, "dual_kostant_count", lambda cd, mv: stringcone.dual_kostant_count(cd, mv) + 1)
    rc, out, _ = run(capsys, "oracle", *C3_ARGS, "--census-bound", "1")
    assert rc == 1
    doc = json.loads(out)
    assert doc["status"] == "fail"
    assert doc["census_checked"] == len(doc["census_failures"]) == 4
    for failure in doc["census_failures"]:
        assert failure["word"] == [2, 3, 2, 1, 2, 3, 2, 3, 1]
        assert sum(failure["mvec"]) <= 1
        assert failure["kostant"] == failure["census"] + 1


def test_closed_form_mismatch_exits_3(capsys, monkeypatch):
    closed_form = decograph._initial_b_closed_form

    def off_by_one(cd, w, i, k):
        b = closed_form(cd, w, i, k)
        return (b[0] + 1,) + b[1:]

    monkeypatch.setattr(decograph, "_initial_b_closed_form", off_by_one)
    rc, out, err = run(capsys, "cone", *C3_ARGS)
    assert rc == 3 and out == ""
    assert err.startswith("internal assertion failed: initial b mismatch for C3 i=1 word 2,3,2,1,2,3,2,3,1")
    cd, w = cli._load("C3", C3_ARGS[3])
    with pytest.raises(decograph.ClosedFormMismatch):
        decograph.build_graph(cd, w, 2, force=True)


def test_cone_text(capsys):
    rc, out, _ = run(capsys, "cone", *C3_ARGS)
    assert rc == 0
    lines = out.strip().split("\n")
    assert len(lines) == 14
    assert lines[0] == "z_9 >= 0"
    assert all(line.endswith(">= 0") for line in lines)


def test_cone_latex_and_json(capsys):
    rc, out, _ = run(capsys, "cone", *C3_ARGS, "--format", "latex")
    assert rc == 0 and "\\begin{align*}" in out
    rc, out, _ = run(capsys, "cone", *C3_ARGS, "--format", "json")
    assert rc == 0 and len(json.loads(out)["rows"]) == 14


def test_check_passes(capsys):
    rc, out, _ = run(capsys, "check", *C3_ARGS)
    assert rc == 0
    doc = json.loads(out)
    assert doc["status"] == "pass"
    assert [g["i"] for g in doc["graphs"]] == [1, 2, 3]


def test_check_single_index(capsys):
    rc, out, _ = run(capsys, "check", "--type", "F4", "--word", F4_WORD, "--i", "1")
    assert rc == 0
    assert json.loads(out)["status"] == "pass"


def test_check_unsupported_without_force(capsys):
    rc, _, _ = run(capsys, "check", "--type", "F4", "--word", F4_WORD)
    assert rc == 2


def test_oracle_a2(capsys):
    rc, out, _ = run(capsys, "oracle", "--type", "A2", "--all-words")
    assert rc == 0
    doc = json.loads(out)
    assert doc["status"] == "pass"
    assert len(doc["agreement"]) == 4
    assert doc["census_failures"] == []
    assert doc["census_checked"] > 0


def test_oracle_builds_each_graph_once(capsys, monkeypatch):
    built = []

    def build(*args, **kwargs):
        # one graph alive at a time, serving both the agreement and the census cone
        assert all(ref() is None for ref in built)
        g = decograph.build_graph(*args, **kwargs)
        built.append(weakref.ref(g))
        return g

    monkeypatch.setattr(cli, "build_graph", build)
    for name, builds, compared in (
        ("A3", 48, 48),  # 16 words, 4 of them censused, 3 indices each, all covered
        ("B3", 50, 42),  # 42 words at the covered i = 3, and the 2 other indices of the 4 censused words
    ):
        built.clear()
        rc, out, _ = run(capsys, "oracle", "--type", name, "--all-words", "--census-bound", "1")
        assert rc == 0
        doc = json.loads(out)
        assert (len(built), len(doc["agreement"])) == (builds, compared)
        assert all(r["status"] == "pass" for r in doc["agreement"])
        assert doc["census_checked"] == 4 * 4


def test_oracle_validates_only_the_words_it_checks(capsys, monkeypatch):
    validated = []
    original = wordtools.validate_word

    def validate(cd, letters):
        validated.append(tuple(letters))
        return original(cd, letters)

    # the enumeration's own module binding as well as the command's
    monkeypatch.setattr(wordtools, "validate_word", validate)
    monkeypatch.setattr(cli, "validate_word", validate)
    argv = ["oracle", "--type", "B3", "--all-words", "--census-bound", "1"]
    # where no index is covered (F4, E8) only the four censused words of the enumeration are used
    with monkeypatch.context() as m:
        m.setattr(oracle, "covered_indices", lambda cd: ())
        rc, out, _ = run(capsys, *argv)
    assert rc == 0 and json.loads(out)["input"]["words"] == 42
    assert len(validated) == 4
    # B3's i = 3 is covered, so every word is used, and validated once
    validated.clear()
    rc, out, _ = run(capsys, *argv)
    assert rc == 0 and len(json.loads(out)["agreement"]) == 42
    b3 = cartan_matrix(CartanType.parse("B3"))
    assert sorted(validated) == sorted(wordtools.enumerate_w0_letters(b3))


def test_oracle_keeps_the_words_as_one_flat_array_of_letters(capsys, monkeypatch):
    b3 = cartan_matrix(CartanType.parse("B3"))
    words = list(wordtools.enumerate_w0_letters(b3))
    letters, N = cli._all_letters(b3, 100000)
    assert (letters.typecode, N, len(letters)) == ("B", 9, 9 * len(words))
    assert [tuple(letters[k * N : (k + 1) * N]) for k in range(len(words))] == words
    with pytest.raises(wordtools.LimitExceeded, match="more than 41 reduced words"):
        cli._all_letters(b3, 41)
    # the census words are the first, the last and the two at the thirds
    validated = []
    original = cli.validate_word

    def validate(cd, word):
        validated.append(tuple(word))
        return original(cd, word)

    monkeypatch.setattr(cli, "validate_word", validate)
    # with no index covered, the census alone uses a word
    monkeypatch.setattr(oracle, "covered_indices", lambda cd: ())
    rc, _, _ = run(capsys, "oracle", "--type", "B3", "--all-words", "--census-bound", "0")
    assert rc == 0
    assert validated == [words[k] for k in (0, 14, 28, 41)]


@pytest.mark.parametrize("rank", [1, 255, 256, 65535, 65536, 2**32])
def test_the_letter_array_holds_every_letter_of_its_rank(rank):
    letters = cli._letter_array(rank)
    letters.extend((1, rank))
    assert list(letters) == [1, rank]


def test_oracle_single_word_g2(capsys):
    rc, out, _ = run(capsys, "oracle", "--type", "G2", "--word", "1,2,1,2,1,2")
    assert rc == 0
    doc = json.loads(out)
    assert doc["agreement"] == []  # G2 has no minuscule index, so no oracle covers it
    assert doc["status"] == "pass"


@pytest.mark.parametrize("name, word, checked", [("F4", F4_WORD, 15), ("E6", E6_WORD, 28)])
def test_oracle_forces_the_cones_it_censuses(capsys, name, word, checked):
    # unproven indices, yet no exit 2: every count is checked against Kostant
    rc, out, _ = run(capsys, "oracle", "--type", name, "--word", word)
    assert rc == 0
    doc = json.loads(out)
    assert doc["status"] == "pass" and doc["census_checked"] == checked
    # the minuscule indices alone are compared with the trails
    assert [r["input"]["i"] for r in doc["agreement"]] == {"F4": [], "E6": [1, 5]}[name]


def test_oracle_compares_every_covered_index_outside_type_a(capsys, monkeypatch):
    word = [2, 1, 2, 3, 4, 2, 4, 1, 2, 3, 2, 4]
    argv = ["oracle", "--type", "D4", "--word", ",".join(map(str, word))]
    rc, out, _ = run(capsys, *argv)
    assert rc == 0
    doc = json.loads(out)
    assert [(r["input"]["i"], r["status"]) for r in doc["agreement"]] == [(1, "pass"), (3, "pass"), (4, "pass")]
    # a trail oracle that loses one monomial at i = 3 fails the run, naming the graph it disagrees with
    trails = oracle.minuscule_trail_monomials

    def one_short(cd, w, i):
        monomials = trails(cd, w, i)
        return monomials - {min(monomials)} if i == 3 else monomials

    monkeypatch.setattr(oracle, "minuscule_trail_monomials", one_short)
    rc, out, _ = run(capsys, *argv)
    assert rc == 1
    doc = json.loads(out)
    assert doc["status"] == "fail"
    failed = [r for r in doc["agreement"] if r["status"] == "fail"]
    assert [r["input"] for r in failed] == [{"type": "D4", "word": word, "i": 3}]
    assert len(failed[0]["extra_in_graph"]) == 1 and failed[0]["missing_in_graph"] == []


def test_oracle_needs_word_flag(capsys):
    rc, _, err = run(capsys, "oracle", "--type", "A2")
    assert rc == 1
    assert "word" in err


@pytest.mark.parametrize(
    "argv", [a for a, _ in GOLDEN] + [WORD_LIMIT_ARGS], ids=GOLDEN_IDS + [" ".join(WORD_LIMIT_ARGS)]
)
def test_commands_leave_no_cycle(capsys, gc_disabled, argv):
    main(argv)  # fills the per-root-system caches, which a second run only reads
    capsys.readouterr()
    gc.collect()
    main(argv)
    assert gc.collect() == 0


def test_deterministic_output(capsys):
    one = run(capsys, "graph", *C3_ARGS, "--i", "2", "--format", "json")
    two = run(capsys, "graph", *C3_ARGS, "--i", "2", "--format", "json")
    assert one == two


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=GOLDEN_IDS)
def test_output_matches_golden_digest(capsys, argv, digest):
    rc, out, _ = run(capsys, *argv)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=GOLDEN_IDS)
def test_out_writes_the_bytes_stdout_gets(capsys, tmp_path, argv, digest):
    rc, out, _ = run(capsys, *argv)
    assert rc == 0
    target = tmp_path / "out"
    assert run(capsys, *argv, "--out", str(target)) == (0, "", "")
    assert target.read_bytes() == out.encode()
    assert hashlib.sha256(target.read_bytes()).hexdigest() == digest


def test_failed_write_keeps_the_old_file(capsys, tmp_path, monkeypatch):
    target = tmp_path / "cone.txt"
    target.write_text("old content\n")

    def full(fd, data):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(cli.os, "write", full)
    rc, out, err = run(capsys, "cone", *C3_ARGS, "--out", str(target))
    assert (rc, out, err) == (1, "", f"error: cannot write {target}: No space left on device\n")
    assert target.read_text() == "old content\n"
    assert not list(tmp_path.rglob(".tropicone-*"))


def test_out_file(capsys, tmp_path):
    target = tmp_path / "cone.txt"
    rc, out, _ = run(capsys, "cone", *C3_ARGS, "--out", str(target))
    assert rc == 0 and out == ""
    assert target.read_text().count(">= 0") == 14


@pytest.mark.parametrize("target", ["existing_dir", "under_a_file/cone.txt"])
def test_unwritable_out_exits_1(capsys, tmp_path, target):
    (tmp_path / "existing_dir").mkdir()
    (tmp_path / "under_a_file").write_text("a regular file\n")
    path = tmp_path / target
    rc, out, err = run(capsys, "cone", *C3_ARGS, "--out", str(path))
    assert rc == 1 and out == ""
    assert err.startswith(f"error: cannot write {path}: ")
    assert not list(tmp_path.rglob(".tropicone-*"))


@pytest.mark.parametrize("command", [["cone", *C3_ARGS], ["oracle", "--type", "A2", "--all-words"]])
def test_empty_out_is_a_usage_error(capsys, tmp_path, monkeypatch, command):
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    rc, out, err = run(capsys, *command, "--out", "")
    assert rc == 1 and out == ""
    assert "argument --out: must name a file" in err
    assert not list(tmp_path.rglob(".tropicone-*"))


def test_parsed_flags_do_not_leak_between_calls(capsys):
    argv = ["graph", "--type", "F4", "--word", F4_WORD, "--i", "2", "--format", "json"]
    assert run(capsys, *argv, "--force")[0] == 0
    assert run(capsys, *argv)[0] == 2


def test_readme_command_examples_run(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    commands = [shlex.split(line, comments=True) for line in block.splitlines() if line.startswith("tropicone ")]
    assert commands
    for argv in commands:
        assert run(capsys, *argv[1:])[0] == 0, argv


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library", 1)[1].split("```", 2)[1]
    lang, *lines = block.splitlines()
    assert lang == "python"
    namespace, shown = {}, []
    for line in lines:
        code, _, comment = line.partition("#")
        if comment:
            # a commented line shows the value of its expression
            shown.append(eval(code, namespace))
            assert shown[-1] == ast.literal_eval(comment.strip()), line
        else:
            exec(code, namespace)
    assert shown == [(12, 14), 14]


def test_outdir_env(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("TROPICONE_OUTDIR", str(tmp_path))
    rc, _, _ = run(capsys, "cone", *C3_ARGS, "--out", "sub/cone.txt")
    assert rc == 0
    assert (tmp_path / "sub" / "cone.txt").exists()


def test_argparse_rejects_unknown_format(capsys):
    rc, out, err = run(capsys, "cone", *C3_ARGS, "--format", "pdf")
    assert rc == 1 and out == "" and "invalid choice: 'pdf'" in err
    rc, out, _ = run(capsys, "--help")
    assert rc == 0 and out.startswith("usage: tropicone")
