"""Command-line surface: flags, exit codes, text and JSON output."""

import inspect
import json
import os
import shlex
import signal
import subprocess
import sys

import pytest

import heckeblocks
from heckeblocks.cli import (
    EXIT_EMPTY,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    main,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_classify_human_output(capsys):
    code, out = run(capsys, "classify", "--ell", "1", "--s", "1", "--beta", "1,1")
    assert code == EXIT_OK
    assert "type: tame" in out
    assert "brauer: graph" in out


def test_classify_json_round_trip(capsys):
    code, out = run(
        capsys, "classify", "--ell", "1", "--s", "1", "--beta", "2,2", "--json"
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["rep_type"] == "wild"
    assert data["canonical"] == {"family": "lambda", "s": 1, "i": 0, "k": 2}
    assert data["input"]["beta"] == [2, 2]


def test_classify_from_bipartition_matches_content(capsys):
    code_a, out_a = run(
        capsys,
        "classify", "--ell", "2", "--s", "1",
        "--from-bipartition", "[[2],[1]]", "--json",
    )
    code_b, out_b = run(
        capsys, "classify", "--ell", "2", "--s", "1", "--beta", "1,2,0", "--json"
    )
    assert code_a == code_b == EXIT_OK
    assert json.loads(out_a) == json.loads(out_b)


def test_classify_exit_codes(capsys):
    assert run(capsys, "classify", "--ell", "2", "--s", "1", "--beta", "5,0,0")[0] == EXIT_EMPTY
    assert run(capsys, "classify", "--ell", "2", "--s", "1", "--beta", "1,1")[0] == EXIT_USAGE
    assert run(capsys, "classify", "--ell", "2", "--s", "1")[0] == EXIT_USAGE
    assert run(capsys, "classify", "--ell", "2", "--s", "5", "--beta", "0,0,0")[0] == EXIT_USAGE
    assert (
        run(
            capsys,
            "classify", "--ell", "1", "--s", "1", "--beta", "1,1",
            "--char2", "--char-odd",
        )[0]
        == EXIT_USAGE
    )


def test_dims_table_and_polynomials(capsys):
    code, out = run(capsys, "dims", "--ell", "1", "--s", "1", "--beta", "1,1", "--all")
    assert code == EXIT_OK
    assert "1+q^2+q^4" in out
    assert "e(0,1)" in out and "e(1,0)" in out


def test_dims_builds_only_the_form_it_prints(capsys, monkeypatch):
    def refuse(self):
        raise AssertionError("built an output form that is not printed")

    argv = ["dims", "--ell", "1", "--s", "1", "--beta", "1,1", "--all"]
    monkeypatch.setattr(heckeblocks.DimMatrix, "__str__", refuse)
    code, out = run(capsys, *argv, "--json")
    assert code == EXIT_OK
    assert json.loads(out)["idempotents"] == [[0, 1], [1, 0]]
    monkeypatch.undo()
    monkeypatch.setattr(heckeblocks.DimMatrix, "to_json", refuse)
    code, out = run(capsys, *argv)
    assert code == EXIT_OK
    assert "1+q^2+q^4" in out


def test_dims_with_explicit_idempotents(capsys):
    code, out = run(
        capsys,
        "dims", "--ell", "1", "--s", "1", "--beta", "2,2",
        "--idems", "0,1,0,1;1,0,1,0",
    )
    assert code == EXIT_OK
    assert "1+3q^2+4q^4+3q^6+q^8" in out
    assert "2q^2+4q^4+2q^6" in out


def test_dims_trivial_and_empty_blocks(capsys):
    code, out = run(capsys, "dims", "--ell", "1", "--s", "1", "--beta", "0,0", "--all")
    assert code == EXIT_OK
    assert "1" in out
    code, _ = run(capsys, "dims", "--ell", "2", "--s", "1", "--beta", "5,0,0", "--all")
    assert code == EXIT_EMPTY


@pytest.mark.parametrize("words", [["--all"], ["--idems", "0,1"]])
def test_dims_outside_the_positive_cone_is_an_empty_block(capsys, words):
    code = main(["dims", "--ell", "1", "--s", "1", "--beta=-1,1", *words])
    assert code == EXIT_EMPTY
    assert "empty block: (-1,1) is outside the positive cone" in capsys.readouterr().err


@pytest.mark.parametrize("words", [["--all"], ["--all", "--json"], ["--idems", "0,0"]])
def test_dims_on_a_cone_label_that_is_no_weight_is_an_empty_block(capsys, words):
    code = main(["dims", "--ell", "1", "--s", "1", "--beta", "2,0", *words])
    captured = capsys.readouterr()
    assert code == EXIT_EMPTY
    assert captured.out == ""
    assert captured.err == (
        "empty block: (2,0) does not correspond to a module weight; the block is zero\n"
    )


def test_dims_json_matrix(capsys):
    code, out = run(
        capsys, "dims", "--ell", "1", "--s", "1", "--beta", "1,1", "--all", "--json"
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert len(data["idempotents"]) == 2
    assert len(data["entries"]) == 2


@pytest.mark.parametrize("beta", ["1_0,1", "\u0661,1", "1.0,1", "+1,1", "1 0,1", "1,", ""])
def test_beta_takes_only_ascii_integers(capsys, beta):
    code = main(["orbit", "--ell", "1", "--s", "1", "--beta", beta])
    assert code == EXIT_USAGE
    assert "--beta must be comma-separated integers" in capsys.readouterr().err


@pytest.mark.parametrize("idems", ["0 ,1_0", "0,\u0661", "0,1;", "0;;1", "0.0,1"])
def test_idems_take_only_ascii_integers(capsys, idems):
    code = main(["dims", "--ell", "1", "--s", "1", "--beta", "1,1", "--idems", idems])
    assert code == EXIT_USAGE
    assert "malformed --idems entry" in capsys.readouterr().err


def test_integer_lists_allow_spaces_and_signs(capsys):
    code, out = run(capsys, "orbit", "--ell", "1", "--s", "1", "--beta", " 1 , 1 ", "--json")
    assert code == EXIT_OK
    assert json.loads(out)["beta"] == [1, 1]
    code, out = run(
        capsys, "dims", "--ell", "1", "--s", "1", "--beta", "1,1", "--idems", " 0 ,1; -1,0"
    )
    assert code == EXIT_OK
    assert "e(0,1)" in out and "e(1,0)" in out


def test_a_negative_first_coefficient_needs_the_equals_spelling(capsys):
    code = main(["orbit", "--ell", "1", "--s", "1", "--beta", "-1,0"])
    assert code == EXIT_USAGE
    assert "argument --beta: expected one argument" in capsys.readouterr().err
    code, out = run(capsys, "orbit", "--ell", "1", "--s", "1", "--beta=-1,0")
    assert code == EXIT_OK
    assert "dominant reduction: (-1,-1)" in out


def test_a_negative_first_word_entry_needs_the_equals_spelling(capsys):
    argv = ["dims", "--ell", "1", "--s", "1", "--beta", "1,1"]
    code = main([*argv, "--idems", "-1,0"])
    assert code == EXIT_USAGE
    assert "argument --idems: expected one argument" in capsys.readouterr().err
    code, out = run(capsys, *argv, "--idems=-1,0")
    assert code == EXIT_OK
    assert "e(1,0)  1+q^2+q^4" in out


def _readme_commands():
    """The lines of the README's command-line block, split as a shell would."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as f:
        text = f.read()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [
        (shlex.split(line, comments=True), line.partition("#")[2].split())
        for line in block.splitlines()
    ]


def test_readme_command_examples_run(capsys):
    """Every example in the README's command-line block exits 0, and each
    classify line gives the type its comment names.  The check line is
    left to test_check_oracle_suite."""
    ran = []
    for argv, comment in _readme_commands():
        assert argv[0] == "heckeblocks", argv
        if argv[1] == "check":
            continue
        code, out = run(capsys, *argv[1:])
        assert code == EXIT_OK, argv
        if argv[1] == "classify":
            tag = comment[0].rstrip(",")
            if "--json" in argv:
                assert json.loads(out)["rep_type"] == tag, argv
            else:
                assert f"type: {tag}" in out, argv
        ran.append(argv[1])
    assert len(ran) == 10 and ran.count("classify") == 3


def test_orbit_report(capsys):
    code, out = run(capsys, "orbit", "--ell", "2", "--s", "1", "--beta", "3,1,1")
    assert code == EXIT_OK
    assert "(0,0,0)" in out
    assert "lambda(s=1, i=0) + 0*delta" in out
    code, out = run(capsys, "orbit", "--ell", "2", "--s", "1", "--beta", "5,0,0")
    assert code == EXIT_OK
    assert "False" in out


def test_orbit_reduces_a_mixed_sign_label_past_its_height(capsys):
    """(-3,-3,5) at level one lies 31 reflections from the dominant chamber,
    more than 10*e*|height| = 30."""
    code, out = run(capsys, "orbit", "--ell", "2", "--level", "1", "--beta=-3,-3,5")
    assert code == EXIT_OK
    assert out == (
        "dominant reduction: (-67,-67,-67)\n"
        "weight of the module: False\n"
        "canonical: none (empty block)\n"
    )


@pytest.mark.parametrize(
    "beta, reduction",
    [
        ("10000000,0", "(-49999995000000,-49999995000000)"),
        ("1000000,-1000000", "(-2000000000000,-2000000000000)"),
    ],
)
def test_orbit_reduces_a_huge_label(capsys, beta, reduction):
    """Labels 10**7 and 2*10**6 reflections from the dominant chamber; a
    reflection loop took seconds on each."""
    code, out = run(capsys, "orbit", "--ell", "1", "--s", "1", f"--beta={beta}")
    assert code == EXIT_OK
    assert out == (
        f"dominant reduction: {reduction}\n"
        "weight of the module: False\n"
        "canonical: none (empty block)\n"
    )


def test_blocks_listing(capsys):
    code, out = run(capsys, "blocks", "--e", "2", "--s", "1", "--n", "2")
    assert code == EXIT_OK
    assert "beta=[1, 1]" in out and "type=tame" in out
    code, out = run(capsys, "blocks", "--e", "3", "--separated", "--n", "2", "--json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert len(data) == 5
    assert all(entry["canonical"] is None for entry in data)
    code, out = run(capsys, "blocks", "--e", "3", "--s", "1", "--n", "60", "--json")
    assert code == EXIT_OK
    assert len(json.loads(out)) == 51


def test_separated_blocks_listing_names_both_factors(capsys):
    code, out = run(capsys, "blocks", "--e", "2", "--separated", "--n", "2")
    assert code == EXIT_OK
    assert out.splitlines() == [
        "beta1=[0, 0] beta2=[1, 1] type=finite",
        "beta1=[1, 0] beta2=[1, 0] type=simple",
        "beta1=[1, 1] beta2=[0, 0] type=finite",
    ]


def test_blocks_flag_conflicts(capsys):
    assert run(capsys, "blocks", "--e", "3", "--n", "2")[0] == EXIT_USAGE
    assert (
        run(capsys, "blocks", "--e", "3", "--s", "1", "--separated", "--n", "2")[0]
        == EXIT_USAGE
    )
    assert run(capsys, "blocks", "--e", "4", "--n", "2", "--typeD")[0] == EXIT_USAGE


@pytest.mark.parametrize("flags", [["--s", "1"], ["--separated"]])
def test_blocks_typeD_rejects_charge_flags(capsys, flags):
    code = main(["blocks", "--e", "4", "--n", "3", "--typeD", *flags])
    assert code == EXIT_USAGE
    assert flags[0] in capsys.readouterr().err


def test_blocks_typeD(capsys):
    code, out = run(
        capsys, "blocks", "--e", "4", "--n", "3", "--typeD", "--char-odd"
    )
    assert code == EXIT_OK
    assert "beta=[1, 1, 1, 0]" in out and "type=finite" in out


def test_tableaux_listing(capsys):
    code, out = run(
        capsys, "tableaux", "--ell", "1", "--s", "1", "--shape", "[[2],[1]]"
    )
    assert code == EXIT_OK
    # The stream order is pinned: corner choices in (component, row) order.
    assert out.splitlines() == [
        "T0: degree=2 residues=(0,1,1) growth=(1,1,1) (1,1,2) (2,1,1)",
        "T1: degree=0 residues=(0,1,1) growth=(1,1,1) (2,1,1) (1,1,2)",
        "T2: degree=2 residues=(1,0,1) growth=(2,1,1) (1,1,1) (1,1,2)",
        "total: 3",
    ]


def test_tableaux_listing_stops_at_the_limit(capsys):
    code, out = run(
        capsys, "tableaux", "--ell", "1", "--s", "1", "--shape", "[[2],[1]]", "--limit", "1"
    )
    assert code == EXIT_OK
    assert out.splitlines() == [
        "T0: degree=2 residues=(0,1,1) growth=(1,1,1) (1,1,2) (2,1,1)",
        "total: 1",
    ]


def test_tableaux_listing_at_level_one(capsys):
    code, out = run(
        capsys, "tableaux", "--ell", "2", "--level", "1", "--shape", "[[2,1],[]]"
    )
    assert code == EXIT_OK
    assert out.splitlines() == [
        "T0: degree=0 residues=(0,1,2) growth=(1,1,1) (1,1,2) (1,2,1)",
        "T1: degree=1 residues=(0,2,1) growth=(1,1,1) (1,2,1) (1,1,2)",
        "total: 2",
    ]


def test_tableaux_rejects_a_negative_limit(capsys):
    code = main(
        ["tableaux", "--ell", "1", "--s", "1", "--shape", "[[2],[1]]", "--limit", "-1"]
    )
    assert code == EXIT_USAGE
    assert "--limit" in capsys.readouterr().err


@pytest.mark.parametrize("shape", ["[[2.7],[1]]", '[["2"],[1]]', "[[true],[1]]"])
def test_classify_rejects_parts_that_are_not_ints(capsys, shape):
    code = main(["classify", "--ell", "1", "--s", "1", "--from-bipartition", shape])
    assert code == EXIT_USAGE
    assert "must consist of integers" in capsys.readouterr().err


@pytest.mark.parametrize("shape", ['{"a":1,"b":2}', '"ab"', "[[1],2]", "null"])
@pytest.mark.parametrize("flag", ["--from-bipartition", "--shape"])
def test_a_shape_that_is_not_two_lists_is_malformed(capsys, flag, shape):
    command = "classify" if flag == "--from-bipartition" else "tableaux"
    assert main([command, "--ell", "1", flag, shape]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == (
        f"usage error: malformed bipartition {shape!r}: "
        "a bipartition is a pair of partitions\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["tableaux", "--ell", "1", "--shape", "[[2],[1]]", "--beta", "1,1"],
        ["tableaux", "--ell", "1", "--shape", "[[2],[1]]", "--from-bipartition", "[[1]]"],
        ["classify", "--ell", "1", "--beta", "1,1", "--from-bipartition", "[[1],[1]]"],
        ["dims", "--ell", "1", "--beta", "1,1", "--from-bipartition", "[[1],[1]]", "--all"],
        ["orbit", "--ell", "1", "--beta", "1,1", "--from-bipartition", "[[1],[1]]"],
        ["dims", "--ell", "1", "--s", "1", "--beta", "1,1", "--all", "--idems", "0,1;1,0"],
        ["dims", "--ell", "1", "--s", "1", "--beta", "1,1"],
        ["classify", "--ell", "1", "--from-bipartition", ""],
    ],
)
def test_flags_that_would_be_ignored_are_usage_errors(capsys, argv):
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("usage error:")


def test_check_oracle_suite(capsys):
    code, out = run(capsys, "check", "--suite", "oracle")
    assert code == EXIT_OK
    assert out.splitlines() == [
        "[O1] PASS -- 328 corner statistics match the brute-force scan",
        "[O2] PASS -- 392 tableau generating functions match brute force",
        "[O3] PASS -- hook-length counts agree with direct enumeration",
        "[O4] PASS -- block tables are symmetric and sum to the block dimension",
        "[O5] PASS -- 554 tableau degrees agree under both conventions",
        "[O6] PASS -- dominant reduction matches the textbook reduction, is idempotent, "
        "lands in the chamber and agrees with is_weight on 2429 vectors",
        "[O7] PASS -- engine words, classes, K_q and dimension matrices match the "
        "tableau replay on 123 blocks",
        "[O8] PASS -- the early-exit quiver verdict matches quiver_bounds of the class "
        "matrix, and every class diagonal is palindromic with q^0 >= 1, on 123 blocks",
    ]


def test_package_import_leaves_the_suites_unloaded():
    code = "import sys, heckeblocks; print('heckeblocks.checks' in sys.modules)"
    src = os.path.dirname(os.path.dirname(heckeblocks.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert done.stdout.strip() == "False"


@pytest.mark.parametrize(
    "argv, code, text",
    [
        (["classify", "--ell", "1", "--s", "1", "--beta", "1,1"], EXIT_OK, "type: tame"),
        (["classify", "--ell", "1", "--s", "1", "--beta", "1_0,1"], EXIT_USAGE, "usage error"),
    ],
)
def test_python_dash_m_runs_the_command_line(argv, code, text):
    src = os.path.dirname(os.path.dirname(heckeblocks.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", "heckeblocks", *argv], capture_output=True, text=True, env=env
    )
    assert done.returncode == code, done.stderr
    assert text in done.stdout + done.stderr


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE here")
def test_closed_pipe_ends_the_process_quietly():
    # about 400 kB of output, more than a pipe buffer holds
    argv = ["blocks", "--e", "3", "--n", "30", "--separated", "--json"]
    src = os.path.dirname(os.path.dirname(heckeblocks.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    with subprocess.Popen(
        [sys.executable, "-m", "heckeblocks", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    ) as proc:
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert (code, err) == (-signal.SIGPIPE, b"")


def test_all_lists_the_public_names():
    public = {
        name
        for name, value in vars(heckeblocks).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert len(heckeblocks.__all__) == len(set(heckeblocks.__all__))
    assert set(heckeblocks.__all__) == public | {"__version__"}


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(capsys, "frobnicate")[0] == EXIT_USAGE
    assert run(capsys)[0] == EXIT_USAGE


def test_internal_code_reserved():
    assert (EXIT_OK, EXIT_USAGE, EXIT_EMPTY, EXIT_INTERNAL) == (0, 1, 2, 3)
