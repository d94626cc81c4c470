"""Self-test of the benchmark's output checker.

    python3 -m pytest perfbench/tests

Shows that the checker flags a perturbed graded dimension and the counting
kernel's level-one matrix as the seed commit computed it, and accepts the
tableau-replay answers.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import heckeblocks as hb  # noqa: E402

import checker  # noqa: E402
import workloads  # noqa: E402

REFERENCE = json.loads((HERE / "reference.json").read_text())


def poly(min_deg, coeffs):
    return hb.QPoly.from_json({"min_deg": min_deg, "coeffs": coeffs})


def level_one(ell, k):
    ctx = hb.FockContext(hb.AffineRank(ell), 0, level=1)
    return ctx, hb.null_root(ctx.rank) * k


def level_two_table():
    ctx = hb.FockContext(hb.AffineRank(1), 1, level=2)
    _, table = checker.replay_table(ctx, hb.null_root(ctx.rank) * 2)
    return ctx, table


def test_accepts_kernel_answers_that_match_the_replay():
    ctx, table = level_two_table()
    words = sorted(table)
    for a in words[:4]:
        for b in words[:4]:
            answer = hb.graded_dim(ctx, a, b)
            assert checker.answer_problems(answer, checker.replay_dim(table, a, b), a == b) == []


def test_flags_a_perturbed_answer():
    ctx, table = level_two_table()
    word = sorted(table)[0]
    answer = hb.graded_dim(ctx, word, word)
    for perturbed in (answer + hb.QPoly.monomial(2), answer - hb.QPoly.monomial(0),
                      answer.shift(2)):
        problems = checker.answer_problems(perturbed, answer, True)
        assert any("differs from the replay value" in p for p in problems)


def test_flags_broken_invariants_without_a_reference():
    assert checker.poly_problems(poly(0, [1, -1, 1]), False)
    assert checker.poly_problems(poly(0, [1, 2]), True)  # not palindromic
    assert checker.poly_problems(poly(2, [1, 0, 1]), True)  # no q^0 term
    assert checker.matrix_problems([[poly(0, [1]), poly(2, [1])],
                                    [poly(2, [2]), poly(0, [1])]])  # not symmetric


# The counting kernel's dim_matrix at the seed commit on the level-one blocks
# delta and 2*delta of ell = 1 (ROADMAP item 1: a phantom second component).
SEED_KERNEL_LEVEL_ONE = {
    (1, 1): [[poly(2, [1, 0, 1])]],
    (1, 2): [[poly(4, [1, 0, 2, 0, 1]), poly(4, [1, 0, 2, 0, 1])],
             [poly(4, [1, 0, 2, 0, 1]), poly(2, [1, 0, 3, 0, 4, 0, 3, 0, 1])]],
}


def test_flags_the_seed_kernel_level_one_matrix():
    for (ell, k), kernel in SEED_KERNEL_LEVEL_ONE.items():
        _, replay = checker.replay_report(*level_one(ell, k))
        assert checker.matrix_problems(kernel), "invariants alone catch it"
        assert any("differs from the replay value" in p
                   for p in checker.matrix_problems(kernel, replay))


def test_accepts_the_replay_answer_at_level_one():
    _, replay = checker.replay_report(*level_one(1, 1))
    assert replay == [[poly(0, [1, 0, 1])]]  # 1 + q^2
    assert checker.matrix_problems(replay, replay) == []
    for op in workloads.levelone_ops():
        ctx = hb.FockContext(hb.AffineRank(op["ell"]), 0, level=1)
        report, entries = checker.replay_report(ctx, hb.RootVec(ctx.rank, tuple(op["beta"])))
        assert checker.matrix_problems(entries) == []
        assert checker.digest(report) == REFERENCE["levelone"][workloads.op_key(op)]["digest"]
