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
    argv = ["classify", "--ell", "1", "--s", "1", "--beta", "1,1", "--char2", "--char-odd"]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == "usage error: char2 and char_odd cannot both hold\n"


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


@pytest.mark.parametrize(
    "argv, err",
    [
        (
            ["dims", "--ell", "1", "--s", "1", "--beta", "9,9", "--all"],
            "dims --ell 1 --s 1 --beta 9,9 --all; use a smaller block, or --idems in place of --all",
        ),
        (
            ["classify", "--ell", "2", "--level", "1", "--from-bipartition", "[[4,4],[]]"],
            "classify --ell 2 --level 1 --from-bipartition '[[4,4],[]]'; use a smaller block",
        ),
        (
            ["blocks", "--e", "3", "--n", "6", "--separated", "--char2"],
            "blocks --e 3 --n 6 --separated --char2; use a smaller block",
        ),
    ],
)
def test_running_out_of_memory_names_the_command_and_the_block(capsys, monkeypatch, argv, err):
    """A MemoryError has no text; the message repeats the command as typed,
    flags that pick the block family or the field included, and says what to
    shrink, in place of a bare "internal error: "."""
    from heckeblocks import classify, gdim

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(gdim, "_walk", exhausted)  # the class walk of dims and classify
    monkeypatch.setattr(classify, "_grow_blocks", exhausted)  # the block listing
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_INTERNAL
    assert captured.out == ""
    assert captured.err == f"out of memory: {err}\n"


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


def _readme_block(heading, lang):
    """The first fenced block in the given language under a README heading."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as f:
        text = f.read()
    return text.split(heading, 1)[1].split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def _readme_commands():
    """The lines of the README's command-line block, split as a shell would."""
    return [
        (shlex.split(line, comments=True), line.partition("#")[2].split())
        for line in _readme_block("## Command line", "sh").splitlines()
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


def test_readme_library_example_prints_its_comments(capsys):
    """The README's Library block runs, and each print line that carries a
    comment prints exactly the comment."""
    block = _readme_block("## Library", "python")
    exec(compile(block, "README.md", "exec"), {})
    out = capsys.readouterr().out.splitlines()
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    comments = [line.partition("#")[2].strip() for line in prints]
    assert len(out) == len(prints)
    pinned = [(got, want) for got, want in zip(out, comments) if want]
    assert pinned == [("q^2", "q^2"), ("tame", "tame")]


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


def test_blocks_refuses_a_rank_past_the_listing_limit(capsys):
    assert main(["blocks", "--e", "3", "--s", "1", "--n", str(2**64)]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "usage error: rank 18446744073709551616 is too large: a listing takes ranks below 2**64\n"
    )


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


FIRST_TABLEAU = {"degree": 2, "growth": [[1, 1, 1], [1, 1, 2], [2, 1, 1]], "residues": [0, 1, 1]}


@pytest.mark.parametrize(
    "flags, first",
    [
        ([], "T0: degree=2 residues=(0,1,1) growth=(1,1,1) (1,1,2) (2,1,1)\n"),
        # the whole document's text up to the first element's end
        (["--json"], json.dumps([FIRST_TABLEAU], indent=2, sort_keys=True).removesuffix("\n]")),
    ],
    ids=["human", "json"],
)
def test_tableaux_prints_each_line_as_it_reads_the_tableau(capsys, monkeypatch, flags, first):
    """Both forms print a tableau before they read the next tableau, so a
    shape with millions of them starts at once."""
    from heckeblocks import cli

    real = cli.enumerate_standard

    def one_then_fail(ctx, shape):
        yield next(real(ctx, shape))
        raise RuntimeError("read past the first tableau")

    monkeypatch.setattr(cli, "enumerate_standard", one_then_fail)
    code = main(["tableaux", "--ell", "1", "--s", "1", "--shape", "[[2],[1]]", *flags])
    captured = capsys.readouterr()
    assert code == EXIT_INTERNAL
    assert captured.out == first
    assert captured.err == "internal error: read past the first tableau\n"


def _orbit_json(ctx, beta):
    try:
        rep = heckeblocks.canonical_rep(ctx, beta).to_json()
    except heckeblocks.NotAWeightError:
        rep = None
    return {
        "beta": beta.to_json(),
        "dominant_reduction": heckeblocks.dominant_reduce(ctx, beta).to_json(),
        "is_weight": rep is not None,
        "canonical": rep,
    }


def _tableau_rows(ctx, shape, limit=None):
    tabs = heckeblocks.enumerate_standard(ctx, heckeblocks.Bipartition(*shape))
    rows = []
    for tab in tabs if limit is None else list(tabs)[:limit]:
        degree, residues = heckeblocks.tableau_stats(ctx, tab)
        growth = tab.to_json()["growth"]
        rows.append({"growth": growth, "residues": list(residues), "degree": degree})
    return rows


CTX = heckeblocks.FockContext(heckeblocks.AffineRank(1), 1)
ODD = heckeblocks.ClassifierConfig(char_odd=True)


def _root(*coeffs):
    return heckeblocks.RootVec(CTX.rank, coeffs)


#: (a command, the library value its --json form prints)
JSON_COMMANDS = [
    (
        "classify --ell 1 --s 1 --beta 2,2",
        lambda: heckeblocks.classify_block(CTX, _root(2, 2)).to_json(),
    ),
    ("orbit --ell 1 --s 1 --beta 3,1", lambda: _orbit_json(CTX, _root(3, 1))),
    ("orbit --ell 1 --s 1 --beta 2,0", lambda: _orbit_json(CTX, _root(2, 0))),
    (
        "dims --ell 1 --s 1 --beta 2,2 --all",
        lambda: heckeblocks.class_matrix(CTX, _root(2, 2)).to_json(),
    ),
    (
        "dims --ell 1 --s 1 --beta 2,2 --idems 0,1,0,1;1,0,1,0",
        lambda: heckeblocks.dim_matrix(CTX, _root(2, 2), [(0, 1, 0, 1), (1, 0, 1, 0)]).to_json(),
    ),
    (
        "blocks --e 3 --s 1 --n 6",
        lambda: [r.to_json() for r in heckeblocks.classify_heckeB(3, 1, 6)],
    ),
    (
        "blocks --e 3 --separated --n 4",
        lambda: [r.to_json() for r in heckeblocks.classify_heckeB(3, None, 4)],
    ),
    (
        "blocks --e 3 --typeD --n 4 --char-odd",
        lambda: [r.to_json() for r in heckeblocks.classify_heckeD(3, 4, ODD)],
    ),
    (
        "tableaux --ell 1 --s 1 --shape [[2,1],[1]]",
        lambda: _tableau_rows(CTX, ((2, 1), (1,))),
    ),
    (
        "tableaux --ell 1 --s 1 --shape [[2,1],[1]] --limit 2",
        lambda: _tableau_rows(CTX, ((2, 1), (1,)), 2),
    ),
    ("tableaux --ell 1 --s 1 --shape [[2,1],[1]] --limit 0", lambda: []),
]


@pytest.mark.parametrize("argv, want", JSON_COMMANDS, ids=[argv for argv, _ in JSON_COMMANDS])
def test_json_output_is_the_dump_of_the_library_value(capsys, argv, want):
    """Every command's --json output, a streamed listing too, has the bytes
    of the library's JSON form dumped at once."""
    code, out = run(capsys, *argv.split(), "--json")
    assert code == EXIT_OK
    assert out == json.dumps(want(), indent=2, sort_keys=True) + "\n"


def test_blocks_prints_each_report_before_it_renders_the_next(capsys, monkeypatch):
    """The JSON listing writes a report's element before the next report's
    to_json runs, so the listing is never held whole as text or as dicts."""
    from heckeblocks import classify

    real = classify.BlockReport.to_json
    calls = []

    def once_then_fail(self):
        calls.append(self)
        if len(calls) > 1:
            raise RuntimeError("rendered past the first report")
        return real(self)

    monkeypatch.setattr(classify.BlockReport, "to_json", once_then_fail)
    code = main(["blocks", "--e", "2", "--separated", "--n", "2", "--json"])
    captured = capsys.readouterr()
    first = real(heckeblocks.classify_heckeB(2, None, 2)[0])
    assert code == EXIT_INTERNAL
    assert captured.out == json.dumps([first], indent=2, sort_keys=True).removesuffix("\n]")
    assert captured.err == "internal error: rendered past the first report\n"


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
        "[O6] PASS -- dominant reduction matches the textbook reduction, is idempotent "
        "and lands in the chamber on 2429 vectors",
        "[O7] PASS -- engine words, classes, K_q and dimension matrices match the "
        "tableau replay on 123 blocks",
        "[O8] PASS -- the early-exit quiver verdict matches quiver_bounds of the class "
        "matrix, and every class diagonal is palindromic with q^0 >= 1, on 123 blocks",
    ]


def test_check_paper_fixtures_fails_only_on_a2_and_a10(capsys):
    """The printed table that A2 checks is inconsistent, so the suite exits 3
    with A2 and A10 its only FAIL lines."""
    code, out = run(capsys, "check", "--suite", "paper-fixtures")
    assert code == EXIT_INTERNAL
    lines = out.splitlines()
    assert [line.split()[0] for line in lines] == [f"[A{i}]" for i in range(1, 11)]
    assert [line.split()[0] for line in lines if " FAIL " in line] == ["[A2]", "[A10]"]


def test_a_check_that_raises_fails_alone(capsys, monkeypatch):
    """A check that raises prints as its own FAIL line with the exception;
    the other checks still run and the exit code is the failed suite's, not
    a usage error."""
    from heckeblocks import checks

    def broken():
        raise ValueError("dimension matrix must be symmetric")

    monkeypatch.setitem(checks.ACCEPTANCE, "A5", broken)
    assert main(["check", "--suite", "paper-fixtures"]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert captured.err == ""
    assert lines[4] == "[A5] FAIL -- ValueError: dimension matrix must be symmetric"
    assert [line.split()[0] for line in lines if " FAIL " in line] == ["[A2]", "[A5]", "[A10]"]
    assert sum(" PASS " in line for line in lines) == 7


def _loaded_by_import(*modules, statement="import heckeblocks"):
    """Those of the modules that are loaded after the statement runs in a
    fresh interpreter."""
    code = f"import sys; {statement}; print(sorted(set({modules!r}) & set(sys.modules)))"
    src = os.path.dirname(os.path.dirname(heckeblocks.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    return done.stdout.strip()


def test_package_import_leaves_the_suites_unloaded():
    assert _loaded_by_import("heckeblocks.checks") == "[]"


def test_package_import_loads_no_rational_arithmetic():
    """Graded dimensions are read only at q = 1, so nothing needs fractions."""
    assert _loaded_by_import("fractions", "decimal") == "[]"


def test_package_import_loads_no_dataclass_machinery():
    """The value types are slotted classes, so neither the package nor its
    suites need dataclasses or the inspect chain it pulls in; what a bare
    interpreter already loads (a site hook, say) is not counted."""
    modules = ("dataclasses", "inspect")
    bare = _loaded_by_import(*modules, statement="pass")
    assert _loaded_by_import(*modules) == bare
    assert _loaded_by_import(*modules, statement="import heckeblocks.checks") == bare


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
