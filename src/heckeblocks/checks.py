"""Executable verification suites.

Two suites are exposed: the fixture suite replays every printed
graded-dimension table, classification statement, and identity the package
is built around; the oracle suite cross-checks the optimized code paths
against independent brute-force reimplementations.  Each is a table of
checks keyed by name, and the key is the only place a check is named: a
check returns (passed, detail), and ``_run`` runs one check at a time into
a ``CheckResult`` under its key, a plain record that the CLI and the test
suite share; a check that raises fails alone.

Every alternate path to a graded dimension lives here, as a labelled oracle
for the engine: the tableau replay ``_replay`` under either node-placement
convention, the brute-force K_q of O2 and the textbook reduction of O6.  So
does the reference Cartan algebra the oracles read: ``cartan_entry``, and
``defect``, ``pair_coroot`` and ``simple_reflection``, which take the
highest weight as a charge tuple, as ``FockContext.charges`` holds it.  So
does the code that only verifies the paper's lemmas: the Fock-space
operators e_i / f_i of A9 on plain ``{shape: coefficient}`` vectors, the
orbit BFS of A7, the ladder walks of A8 and the corner statistic above a
node of O1.  Each grid is written once, here: ``_small_shapes`` (O1, O2,
O5), ``_small_blocks`` (O7, O8), and ``_contexts`` (every context of a
rank) and ``_weight_vectors`` (every root vector up to a height), which
the test suite reads too.
``import heckeblocks`` does not load this module; import the suites from
``heckeblocks.checks``.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable

from .cartan import AffineRank, RootVec, _Value, lambda_rep, mu_rep, null_root
from .classify import FINITE, SIMPLE, TAME, WILD, ClassifierConfig, classify_canonical
from .fock import (
    Bipartition,
    FockContext,
    Node,
    _corners,
    _stat_below,
    add_node,
    addable_nodes,
    bipartitions,
    content,
    enumerate_standard,
    removable_nodes,
    tableau_stats,
)
from .gdim import (
    QuiverBound,
    QuiverShapeError,
    _class_verdict,
    block_bipartitions,
    class_matrix,
    count_standard,
    dim_matrix,
    graded_dim,
    kostka_q,
    nonzero_idempotents,
    quiver_bounds,
    residue_sequences,
    ungraded_block_dim,
)
from .orbits import (
    LAMBDA,
    MU,
    CanonicalRep,
    NotAWeightError,
    _lambda_range,
    _mu_range,
    canonical_rep,
    dominant_reduce,
    rep_root,
)
from .qpoly import QPoly, quantum_int


class CheckResult(_Value):
    """A check's name, whether it passed, and the detail its line prints."""

    __slots__ = _fields = ("name", "passed", "detail")
    name: str
    passed: bool
    detail: str

    def __init__(self, name: str, passed: bool, detail: str = "") -> None:
        put = self._put
        put[0](self, name)
        put[1](self, passed)
        put[2](self, detail)

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        suffix = f" -- {self.detail}" if self.detail else ""
        return f"[{self.name}] {verdict}{suffix}"


#: What a check returns: whether it passed, and the detail its line prints.
Outcome = tuple[bool, str]


ReplayTable = dict[Bipartition, dict[tuple[int, ...], QPoly]]


def _replay(ctx: FockContext, shapes: list[Bipartition], convention: str) -> ReplayTable:
    """K_q of every realised word on each shape, read only from
    ``enumerate_standard`` and ``tableau_stats`` under the given convention,
    independently of the engine's fold: {shape: {word: K_q}}."""
    table: ReplayTable = {}
    for shape in shapes:
        row = table.setdefault(shape, {})
        for tab in enumerate_standard(ctx, shape):
            deg, word = tableau_stats(ctx, tab, convention)
            row[word] = row.get(word, QPoly.zero()) + QPoly.monomial(deg)
    return table


def _replay_dim(table: ReplayTable, one: tuple[int, ...], other: tuple[int, ...]) -> QPoly:
    """Graded dimension between two words: the sum over the table's shapes
    of the product of their K_q."""
    total = QPoly.zero()
    for row in table.values():
        if one in row and other in row:
            total = total + row[one] * row[other]
    return total


def _diagonal_shape_a1(poly: QPoly) -> int | None:
    """Match 1 + c*q^2 + q^4 and return c, else None."""
    rest = poly - QPoly({0: 1, 4: 1})
    c = rest.coeff(2)
    if rest == QPoly({2: c}) and c >= 0:
        return c
    return None


def check_a1() -> Outcome:
    expected_off = QPoly({2: 1})
    for ell in range(1, 6):
        rank = AffineRank(ell)
        ctx = FockContext(rank, 1, level=2)
        e = rank.e
        nu1 = tuple(range(e))
        nu2 = tuple((1 + j) % e for j in range(e))
        cs = []
        for nu in (nu1, nu2):
            diag = graded_dim(ctx, nu, nu)
            c = _diagonal_shape_a1(diag)
            if c is None or c not in (1, 2):
                return False, f"ell={ell}: diagonal {diag} not of shape 1+c*q^2+q^4"
            cs.append(c)
        off = graded_dim(ctx, nu1, nu2)
        if off != expected_off or graded_dim(ctx, nu2, nu1) != expected_off:
            return False, f"ell={ell}: off-diagonal {off} != q^2"
        has_two = 2 in cs
        if ell == 1 and (cs != [1, 1]):
            return False, f"ell=1: expected c1=c2=1, got {cs}"
        if ell >= 2 and not has_two:
            return False, f"ell={ell}: expected some c=2, got {cs}"
    return True, "null-root block tables match for ell=1..5"


def check_a2() -> Outcome:
    rank = AffineRank(1)
    ctx = FockContext(rank, 1, level=2)
    nu1, nu2 = (0, 1, 0, 1), (1, 0, 1, 0)
    diag_expected = QPoly({0: 1, 2: 2, 4: 2, 6: 2, 8: 1})
    off_expected = QPoly({2: 1, 4: 2, 6: 1})
    for nu in (nu1, nu2):
        diag = graded_dim(ctx, nu, nu)
        if diag != diag_expected:
            return False, f"diagonal at {nu}: {diag} != {diag_expected}"
    for pair in ((nu1, nu2), (nu2, nu1)):
        off = graded_dim(ctx, *pair)
        if off != off_expected:
            return False, f"off-diagonal at {pair}: {off} != {off_expected}"
    return True, "doubled null-root block table matches"


def check_a3() -> Outcome:
    diag_expected = QPoly({0: 1, 2: 1})
    off_expected = QPoly({1: 1})
    for ell, s in ((3, 1), (4, 1), (4, 2), (5, 2)):
        rank = AffineRank(ell)
        ctx = FockContext(rank, s, level=2)
        beta = lambda_rep(s, 1, rank)
        idems = nonzero_idempotents(ctx, beta)
        if len(idems) != s + 1:
            return (
                False,
                f"(ell,s)=({ell},{s}): {len(idems)} idempotent classes, expected {s + 1}",
            )
        matrix = dim_matrix(ctx, beta, idems)
        for a in range(len(idems)):
            for b in range(len(idems)):
                got = matrix.entry(a, b)
                if a == b:
                    want = diag_expected
                elif abs(a - b) == 1:
                    want = off_expected
                else:
                    want = QPoly.zero()
                if got != want:
                    return (
                        False,
                        f"(ell,s)=({ell},{s}): entry ({a},{b}) = {got}, expected {want}",
                    )
    return True, "tridiagonal tables match for all four charge pairs"


def check_a4() -> Outcome:
    diag_expected = QPoly({0: 1, 2: 2, 4: 1})
    off_expected = QPoly({2: 1})
    fixtures = {
        (4, 1): ((0, 1, 2, 4, 0, 1), (1, 0, 2, 4, 1, 0)),
        (5, 2): ((0, 1, 2, 3, 5, 0, 1, 2), (0, 2, 1, 3, 5, 0, 2, 1)),
    }
    for (ell, s), (nu1, nu2) in fixtures.items():
        rank = AffineRank(ell)
        ctx = FockContext(rank, s, level=2)
        beta = lambda_rep(s, 2, rank)
        matrix = dim_matrix(ctx, beta, [nu1, nu2])
        for a in range(2):
            got = matrix.entry(a, a)
            if got != diag_expected:
                return False, f"(ell,s)=({ell},{s}): diagonal {got} != {diag_expected}"
        for a, b in ((0, 1), (1, 0)):
            got = matrix.entry(a, b)
            if got != off_expected:
                return False, f"(ell,s)=({ell},{s}): off-diagonal {got} != {off_expected}"
        bound = quiver_bounds(matrix)
        if not bound.wild:
            return False, f"(ell,s)=({ell},{s}): wild flag not raised"
    return True, "two-loop tables match and raise the wild flag"


def check_a5() -> Outcome:
    rank = AffineRank(3)
    ctx = FockContext(rank, 0, level=2)
    beta = lambda_rep(0, 1, rank) + null_root(rank)
    nu = (0, 1, 2, 3, 0)
    dim = graded_dim(ctx, nu, nu).evaluate()
    if dim != 8:
        return False, f"ungraded corner dimension {dim} != 8"
    return True, "corner algebra dimension is 8"


def _expected_type(
    i: int, k: int, ell: int, s: int, char2: bool, lambda_is_sign: bool
) -> str:
    """The paper's main theorem: the type of the level-two block
    lambda(s, i) + k delta of rank ell, for distinct (s > 0) and equal
    (s = 0) charges alike."""
    if (i, k) == (0, 0):
        return SIMPLE
    if (i, k) == (1, 0):
        return FINITE
    if (i, k) == (0, 1) and (ell == 1 or s == 0 and not lambda_is_sign):
        return TAME
    if (i, k) == (2, 0) and s == 0 and ell >= 3 and not char2:
        return TAME
    return WILD


def check_a6() -> Outcome:
    count = 0
    flags = list(itertools.product((False, True), repeat=2))
    for ell in range(1, 7):
        for s in range(ell + 1):
            ctx = FockContext(AffineRank(ell), s, level=2)
            for i, k, (char2, sign) in itertools.product(_lambda_range(ctx), range(4), flags):
                cfg = ClassifierConfig(char2=char2, lambda_is_sign=sign)
                got = classify_canonical(ctx, CanonicalRep(LAMBDA, s, i, k), cfg).tag
                want = _expected_type(i, k, ell, s, char2, sign)
                if got != want:
                    return (
                        False,
                        f"ell={ell} s={s} i={i} k={k} char2={char2} sign={sign}: "
                        f"{got} != {want}",
                    )
                count += 1
    return True, f"{count} classification table entries match"


def _contexts(ell: int) -> list[FockContext]:
    """Every level-two context of the rank, one per charge, then the
    level-one context."""
    rank = AffineRank(ell)
    level_two = [FockContext(rank, s, level=2) for s in range(ell + 1)]
    return level_two + [FockContext(rank, 0, level=1)]


def _weight_vectors(ell: int, max_height: int) -> list[RootVec]:
    rank = AffineRank(ell)
    out = []
    for total in range(max_height + 1):
        for coeffs in itertools.product(range(total + 1), repeat=ell + 1):
            if sum(coeffs) == total:
                out.append(RootVec(rank, coeffs))
    return out


def weyl_orbit_bfs(ctx: FockContext, beta: RootVec, radius: int) -> set[RootVec]:
    """Positive-cone members of the orbit of beta within the given number
    of reflections; a brute-force oracle for canonical_rep."""
    seen = {beta}
    frontier = {beta}
    for _ in range(radius):
        nxt = set()
        for b in frontier:
            for i in ctx.rank.vertices:
                image = simple_reflection(ctx.charges, i, b)
                if image not in seen:
                    nxt.add(image)
        if not nxt:
            break
        seen |= nxt
        frontier = nxt
    return {b for b in seen if b.in_positive_cone()}


def check_a7() -> Outcome:
    checked = 0
    for ell in range(1, 4):
        rank = AffineRank(ell)
        for s in range(ell + 1):
            ctx = FockContext(rank, s, level=2)
            reachable: set[tuple[int, ...]] = set()
            for n in range(7):
                for bp in bipartitions(ctx, n):
                    reachable.add(content(ctx, bp).coeffs)
            for beta in _weight_vectors(ell, 6):
                try:
                    rep = canonical_rep(ctx, beta)
                except NotAWeightError:
                    rep = None
                if (rep is not None) != (beta.coeffs in reachable):
                    return False, f"ell={ell} s={s} beta={beta}: canonical_rep gives {rep}"
                checked += 1
                if rep is None:
                    continue
                for member in weyl_orbit_bfs(ctx, beta, 4):
                    if canonical_rep(ctx, member) != rep:
                        return (
                            False,
                            f"ell={ell} s={s}: canonical label not orbit-invariant "
                            f"at {beta} vs {member}",
                        )
            # round-trips on the representative table itself
            labels = [(LAMBDA, i) for i in _lambda_range(ctx)]
            labels += [(MU, i) for i in _mu_range(ctx)]
            for (family, i), k in itertools.product(labels, range(3)):
                rep = CanonicalRep(family, s, i, k)
                if canonical_rep(ctx, rep_root(ctx, rep)) != rep:
                    return False, f"{family} round-trip failed at {rep}"
                checked += 1
    return True, f"{checked} orbit/weight checks agree with the oracle"


def _pairing_walk(
    ctx: FockContext, start: RootVec, indices: list[int]
) -> tuple[bool, RootVec]:
    """Add simple roots in order, demanding pairing >= 1 before each step."""
    cur = start
    ok = True
    for j in indices:
        if pair_coroot(ctx.charges, j, cur) < 1:
            ok = False
        cur = cur + RootVec.simple(ctx.rank, j)
    return ok, cur


def propagation_check_1(ctx: FockContext, i: int, k: int) -> bool:
    """Wildness carries from the (i, k) block to the (i-1, k+1) block:
    verify the pairing inequalities along the root additions and that the
    endpoint is the expected label."""
    ell, s = ctx.rank.ell, ctx.s
    if not 1 <= i <= (ell - s + 1) // 2:
        raise ValueError(f"i must lie in 1..{(ell - s + 1) // 2}, got {i}")
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    start = lambda_rep(s, i, ctx.rank) + null_root(ctx.rank) * k
    indices = list(range(s + i, ell - i + 2))
    ok, end = _pairing_walk(ctx, start, indices)
    expected = lambda_rep(s, i - 1, ctx.rank) + null_root(ctx.rank) * (k + 1)
    return ok and end == expected


def propagation_check_2(ctx: FockContext, i: int, k: int) -> bool:
    """Wildness carries from the (i, k) block to the (i+1, k) block."""
    ell, s = ctx.rank.ell, ctx.s
    if not 0 <= i <= (ell - s - 1) // 2:
        raise ValueError(f"i must lie in 0..{(ell - s - 1) // 2}, got {i}")
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    start = lambda_rep(s, i, ctx.rank) + null_root(ctx.rank) * k
    indices = (
        list(range(s + i, s, -1))
        + list(range(ell - i + 1, ell + 1))
        + list(range(0, s))
        + [s]
    )
    ok, end = _pairing_walk(ctx, start, indices)
    expected = lambda_rep(s, i + 1, ctx.rank) + null_root(ctx.rank) * k
    return ok and end == expected


def check_a8() -> Outcome:
    count = 0
    for ell in range(1, 9):
        rank = AffineRank(ell)
        for s in range(1, ell + 1):
            ctx = FockContext(rank, s, level=2)
            for k in range(3):
                for i in range(1, (ell - s + 1) // 2 + 1):
                    if not propagation_check_1(ctx, i, k):
                        return False, f"walk 1 fails at ell={ell} s={s} i={i} k={k}"
                    count += 1
                for i in range((ell - s - 1) // 2 + 1):
                    if not propagation_check_2(ctx, i, k):
                        return False, f"walk 2 fails at ell={ell} s={s} i={i} k={k}"
                    count += 1
    return True, f"{count} propagation walks verified"


FockVec = dict[Bipartition, QPoly]


def fock_sum(terms: Iterable[tuple[Bipartition, QPoly]]) -> FockVec:
    """The vector sum of (shape, coefficient) pairs, zero coefficients dropped."""
    acc: FockVec = {}
    for bp, coeff in terms:
        acc[bp] = acc.get(bp, QPoly.zero()) + coeff
    return {bp: coeff for bp, coeff in acc.items() if coeff}


def remove_node(bp: Bipartition, node: Node) -> Bipartition:
    parts = list(bp.component(node.component))
    r = node.row - 1
    if r >= len(parts) or parts[r] != node.col:
        raise ValueError(f"{node} is not a removable corner of {bp}")
    parts[r] -= 1
    new = tuple(p for p in parts if p > 0)
    if node.component == 1:
        return Bipartition(new, bp.comp2)
    return Bipartition(bp.comp1, new)


def _stat_above(ctx: FockContext, bp: Bipartition, node: Node, i: int) -> int:
    """Addable minus removable i-nodes of bp in earlier components or rows."""
    return sum(sign for sign, nd in _corners(ctx, bp, i) if nd[:2] < node[:2])


def apply_e(ctx: FockContext, vec: FockVec, i: int) -> FockVec:
    """Lower by an i-node: e_i |lam> = sum q^{stat below} |lam minus node>."""
    i = i % ctx.rank.e
    return fock_sum(
        (remove_node(bp, node), coeff.shift(_stat_below(ctx, bp, node, i)))
        for bp, coeff in vec.items()
        for node in removable_nodes(ctx, bp, i)
    )


def apply_f(ctx: FockContext, vec: FockVec, i: int) -> FockVec:
    """Raise by an i-node: f_i |lam> = sum q^{-stat above} |lam plus node>."""
    i = i % ctx.rank.e
    terms = []
    for bp, coeff in vec.items():
        for node in addable_nodes(ctx, bp, i):
            bigger = add_node(bp, node)
            terms.append((bigger, coeff.shift(-_stat_above(ctx, bigger, node, i))))
    return fock_sum(terms)


def check_a9() -> Outcome:
    count = 0
    for ell in range(1, 5):
        rank = AffineRank(ell)
        for s in range(ell + 1):
            ctx = FockContext(rank, s, level=2)
            bps = [bp for n in range(5) for bp in bipartitions(ctx, n)]
            for bp in bps:
                vec = {bp: QPoly.one()}
                for i in rank.vertices:
                    ef = apply_e(ctx, apply_f(ctx, vec, i), i)
                    fe = apply_f(ctx, apply_e(ctx, vec, i), i)
                    n_i = pair_coroot(ctx.charges, i, content(ctx, bp))
                    if ef != fock_sum([*fe.items(), (bp, quantum_int(n_i))]):
                        return False, f"ell={ell} s={s} i={i} at {bp}: commutator mismatch"
                    count += 1
    return True, f"{count} commutator identities hold"


def check_a10() -> Outcome:
    fixtures = []
    # null-root block, both charges adjacent
    rank = AffineRank(1)
    ctx = FockContext(rank, 1, level=2)
    fixtures.append((ctx, null_root(rank), (0, 1), (1, 0)))
    fixtures.append((ctx, null_root(rank) * 2, (0, 1, 0, 1), (1, 0, 1, 0)))
    rank4 = AffineRank(4)
    fixtures.append(
        (FockContext(rank4, 1, level=2), lambda_rep(1, 2, rank4), (0, 1, 2, 4, 0, 1), (1, 0, 2, 4, 1, 0))
    )
    rank3 = AffineRank(3)
    fixtures.append(
        (FockContext(rank3, 1, level=2), lambda_rep(1, 1, rank3), (0, 1), (1, 0))
    )
    for ctx, beta, nu1, nu2 in fixtures:
        table = _replay(ctx, block_bipartitions(ctx, beta), "pre")
        for pair in ((nu1, nu1), (nu1, nu2), (nu2, nu2)):
            post = graded_dim(ctx, *pair)
            pre = _replay_dim(table, *pair)
            if post != pre:
                return (
                    False,
                    f"conventions disagree at {pair} in block {beta}: "
                    f"post={post}, pre={pre}",
                )
    failed = [name for name in ("A1", "A2", "A3", "A4") if not ACCEPTANCE[name]()[0]]
    if failed:
        return (
            False,
            f"{', '.join(failed)} fail; both node-placement conventions produce "
            "identical tables (verified above), so no convention choice can "
            "recover the printed values -- see the table checks for details",
        )
    return (
        True,
        "node-placement conventions coincide on all fixtures; tables pinned under "
        "the post-placement reading",
    )


ACCEPTANCE = {
    "A1": check_a1, "A2": check_a2, "A3": check_a3, "A4": check_a4, "A5": check_a5,
    "A6": check_a6, "A7": check_a7, "A8": check_a8, "A9": check_a9, "A10": check_a10,
}


def _run(checks: dict[str, Callable[[], Outcome]]) -> list[CheckResult]:
    """Run each check on its own, named by its key: a check that raises
    fails with the exception as its detail, and the checks after it still
    run."""
    results = []
    for name, check in checks.items():
        try:
            passed, detail = check()
        except Exception as exc:
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        results.append(CheckResult(name, passed, detail))
    return results


# ---------------------------------------------------------------------------
# brute-force oracles
# ---------------------------------------------------------------------------


def _brute_addable(ctx: FockContext, bp: Bipartition) -> list[tuple[int, int, int]]:
    """Cells whose addition keeps every component of the context a valid
    partition."""
    out = []
    for c in range(1, ctx.level + 1):
        parts = bp.component(c)
        for row in range(1, len(parts) + 2):
            col = (parts[row - 1] if row <= len(parts) else 0) + 1
            trial = list(parts)
            if row <= len(parts):
                trial[row - 1] += 1
            else:
                trial.append(1)
            if all(trial[r] >= trial[r + 1] for r in range(len(trial) - 1)):
                out.append((c, row, col))
    return out


def _brute_removable(ctx: FockContext, bp: Bipartition) -> list[tuple[int, int, int]]:
    """Cells whose removal keeps every component of the context a valid
    partition."""
    out = []
    for c in range(1, ctx.level + 1):
        parts = bp.component(c)
        for row in range(1, len(parts) + 1):
            trial = list(parts)
            trial[row - 1] -= 1
            if all(trial[r] >= trial[r + 1] for r in range(len(trial) - 1)):
                out.append((c, row, parts[row - 1]))
    return out


def _brute_residue(ctx: FockContext, cell: tuple[int, int, int]) -> int:
    c, row, col = cell
    charge = 0 if c == 1 else ctx.s
    return (col - row + charge) % ctx.rank.e


def _brute_stat(
    ctx: FockContext,
    bp: Bipartition,
    node: tuple[int, int, int],
    i: int,
    side: str,
) -> int:
    def matters(cell: tuple[int, int, int]) -> bool:
        if side == "below":
            return (cell[0], cell[1]) > (node[0], node[1])
        return (cell[0], cell[1]) < (node[0], node[1])

    add = sum(
        1
        for cell in _brute_addable(ctx, bp)
        if _brute_residue(ctx, cell) == i and matters(cell)
    )
    rem = sum(
        1
        for cell in _brute_removable(ctx, bp)
        if _brute_residue(ctx, cell) == i and matters(cell)
    )
    return add - rem


def _small_shapes():
    """Every (bi)partition of size 1 to 4, ell <= 2, at both levels and
    every charge: (context, shape)."""
    for ell in (1, 2):
        for ctx in _contexts(ell):
            for n in range(1, 5):
                for shape in bipartitions(ctx, n):
                    yield ctx, shape


def oracle_corner_stats() -> Outcome:
    count = 0
    for ctx, bp in _small_shapes():
        for node in removable_nodes(ctx, bp):
            cell = (node.component, node.row, node.col)
            i = _brute_residue(ctx, cell)
            got_b = _stat_below(ctx, bp, node, i)
            want_b = _brute_stat(ctx, bp, cell, i, "below")
            got_a = _stat_above(ctx, bp, node, i)
            want_a = _brute_stat(ctx, bp, cell, i, "above")
            if got_b != want_b or got_a != want_a:
                return (
                    False,
                    f"stat mismatch at {bp} node {node}: "
                    f"below {got_b}/{want_b} above {got_a}/{want_a}",
                )
            count += 1
    return True, f"{count} corner statistics match the brute-force scan"


def _brute_kostka(ctx: FockContext, shape: Bipartition, nu: tuple[int, ...]) -> QPoly:
    """Sum q^deg over standard growths, built from raw cell sets only."""
    cells = list(shape.cells())
    total = QPoly.zero()
    for order in itertools.permutations(range(len(cells))):
        seq = [cells[j] for j in order]
        partial = Bipartition((), ())
        ok = True
        deg = 0
        for step, node in enumerate(seq):
            i = _brute_residue(ctx, (node.component, node.row, node.col))
            if i != nu[step] % ctx.rank.e:
                ok = False
                break
            if (node.component, node.row, node.col) not in _brute_addable(ctx, partial):
                ok = False
                break
            comp1 = list(partial.component(1))
            comp2 = list(partial.component(2))
            target = comp1 if node.component == 1 else comp2
            if node.row <= len(target):
                target[node.row - 1] += 1
            else:
                target.append(1)
            partial = Bipartition(tuple(comp1), tuple(comp2))
            deg += _brute_stat(
                ctx, partial, (node.component, node.row, node.col), i, "below"
            )
        if ok:
            total = total + QPoly.monomial(deg)
    return total


def oracle_kostka() -> Outcome:
    count = 0
    for ctx, shape in _small_shapes():
        words = {tableau_stats(ctx, tab)[1] for tab in enumerate_standard(ctx, shape)}
        for nu in sorted(words):
            got = kostka_q(ctx, shape, nu)
            want = _brute_kostka(ctx, shape, nu)
            if got != want:
                return False, f"kostka mismatch at shape {shape}, word {nu}: {got} != {want}"
            count += 1
    return True, f"{count} tableau generating functions match brute force"


def oracle_counts() -> Outcome:
    rank = AffineRank(2)
    ctx = FockContext(rank, 1, level=2)
    for n in range(6):
        for shape in bipartitions(ctx, n):
            got = count_standard(shape)
            want = sum(1 for _ in enumerate_standard(ctx, shape))
            if got != want:
                return False, f"count mismatch at {shape}: {got} != {want}"
    return True, "hook-length counts agree with direct enumeration"


def oracle_block_tables() -> Outcome:
    for ell, s, beta in (
        (1, 1, null_root(AffineRank(1))),
        (2, 1, null_root(AffineRank(2))),
        (2, 2, mu_rep(2, 1, AffineRank(2))),
        (3, 1, lambda_rep(1, 1, AffineRank(3))),
    ):
        rank = beta.rank
        ctx = FockContext(rank, s, level=2)
        words = residue_sequences(ctx, beta)
        total = 0
        for nu1 in words:
            for nu2 in words:
                one = graded_dim(ctx, nu1, nu2)
                other = graded_dim(ctx, nu2, nu1)
                if one != other:
                    return False, f"symmetry fails at {nu1} vs {nu2}"
                total += one.evaluate()
            diag = graded_dim(ctx, nu1, nu1)
            if diag.coeff(0) < 1:
                return False, f"diagonal at {nu1} has no degree-zero element"
            if not diag.is_palindromic():
                return False, f"diagonal at {nu1} is not palindromic"
        want = ungraded_block_dim(ctx, beta)
        if total != want:
            return (
                False,
                f"block dimension mismatch for {beta}: table sums to {total}, "
                f"square-sum gives {want}",
            )
    return True, "block tables are symmetric and sum to the block dimension"


def oracle_conventions() -> Outcome:
    count = 0
    for ctx, shape in _small_shapes():
        for tab in enumerate_standard(ctx, shape):
            post = tableau_stats(ctx, tab, "post")
            pre = tableau_stats(ctx, tab, "pre")
            if post != pre:
                return False, f"conventions differ on {tab}: {post} vs {pre}"
            count += 1
    return True, f"{count} tableau degrees agree under both conventions"


def cartan_entry(rank: AffineRank, i: int, j: int) -> int:
    """Entry a_ij of the affine Cartan matrix.

    The single formula 2*[i==j] - [j==i+1] - [j==i-1] covers ell = 1 as
    well: both neighbour conditions then hit the same vertex, giving -2.
    """
    i, j = rank.reduce(i), rank.reduce(j)
    a = 2 if i == j else 0
    if j == rank.reduce(i + 1):
        a -= 1
    if j == rank.reduce(i - 1):
        a -= 1
    return a


def defect(ctx: FockContext, beta: RootVec) -> int:
    """def(beta) = (Lambda|beta) - (beta|beta)/2, read off the Cartan matrix:
    the sum over the charges c of beta_(c mod e), minus half of
    sum_ij a_ij beta_i beta_j; the quadratic form is even, as a_ii = 2."""
    rank, b = ctx.rank, beta.coeffs
    pairs = itertools.product(rank.vertices, repeat=2)
    form = sum(cartan_entry(rank, i, j) * b[i] * b[j] for i, j in pairs)
    return sum(b[rank.reduce(c)] for c in ctx.charges) - form // 2


def pair_coroot(charges: tuple[int, ...], i: int, beta: RootVec) -> int:
    """<h_i, Lambda - beta> for Lambda the sum of the fundamental weights
    Lambda_c over the charges c, read off the Cartan matrix.

    <h_i, Lambda_c> is 1 when c = i mod e and 0 otherwise, so a charge
    tuple (c,) pairs as a Kronecker delta.
    """
    rank = beta.rank
    i = rank.reduce(i)
    val = sum(rank.reduce(c) == i for c in charges)
    return val - sum(cartan_entry(rank, i, j) * beta.coeffs[j] for j in rank.vertices)


def simple_reflection(charges: tuple[int, ...], i: int, beta: RootVec) -> RootVec:
    """Reflect Lambda - beta in r_i, returned as the new beta.

    r_i(Lambda - beta) = Lambda - beta', where
    beta' = beta + <h_i, Lambda - beta> alpha_i.
    """
    i = beta.rank.reduce(i)
    new = list(beta.coeffs)
    new[i] += pair_coroot(charges, i, beta)
    return RootVec(beta.rank, tuple(new))


class ReductionCapError(RuntimeError):
    """The textbook reduction exceeded its iteration budget."""


def textbook_reduce(ctx: FockContext, beta: RootVec) -> RootVec:
    """Dominant reduction read off the Cartan matrix: pair every vertex with
    ``pair_coroot`` after each step and reflect with ``simple_reflection``
    at the smallest one with negative pairing, capped at e^2 times the sum
    of the initial |pairings|.  Each reflection lowers by one the number N
    of positive real coroots that pair negatively with Lambda - beta (Kac,
    Infinite dimensional Lie algebras, Lemma 3.11), and in affine type A at
    positive level N <= e^2 * sum_j |p_j|, so ReductionCapError means a bug.
    An independent oracle for the closed form of ``orbits.dominant_reduce``."""
    if beta.rank != ctx.rank:
        raise ValueError("rank mismatch between context and root vector")
    total = sum(abs(pair_coroot(ctx.charges, i, beta)) for i in ctx.rank.vertices)
    cap = ctx.rank.e ** 2 * max(1, total)
    cur = beta
    for _ in range(cap):
        for i in ctx.rank.vertices:
            if pair_coroot(ctx.charges, i, cur) < 0:
                cur = simple_reflection(ctx.charges, i, cur)
                break
        else:
            return cur
    raise ReductionCapError(
        f"dominant reduction did not terminate within {cap} reflections for {beta}"
    )


def oracle_reduction() -> Outcome:
    count = 0
    for ell in range(1, 5):
        for ctx in _contexts(ell):
            where = f"level {ctx.level}, ell={ell}, s={ctx.s}"
            for beta in _weight_vectors(ell, 5):
                plus = dominant_reduce(ctx, beta)
                want = textbook_reduce(ctx, beta)
                if plus != want:
                    return (
                        False,
                        f"{where}: reduction of {beta} is {plus}, textbook gives {want}",
                    )
                if dominant_reduce(ctx, plus) != plus:
                    return False, f"{where}: reduction of {beta} is not idempotent"
                if any(pair_coroot(ctx.charges, i, plus) < 0 for i in ctx.rank.vertices):
                    return False, f"{where}: reduction of {beta} is not dominant"
                count += 1
    return (
        True,
        f"dominant reduction matches the textbook reduction, is idempotent "
        f"and lands in the chamber on {count} vectors",
    )


def _small_blocks():
    """Every block of (bi)partitions of size at most 6, ell <= 2, at both
    levels and every charge: (context, beta, its shapes, where)."""
    for ell in (1, 2):
        for ctx in _contexts(ell):
            for height in range(7):
                blocks: dict[tuple[int, ...], list[Bipartition]] = {}
                for shape in bipartitions(ctx, height):
                    blocks.setdefault(content(ctx, shape).coeffs, []).append(shape)
                for coeffs, shapes in blocks.items():
                    beta = RootVec(ctx.rank, coeffs)
                    where = f"level {ctx.level}, ell={ell}, s={ctx.s}, block {beta}"
                    yield ctx, beta, shapes, where


def oracle_engine_replay() -> Outcome:
    count = 0
    for ctx, beta, shapes, where in _small_blocks():
        table = _replay(ctx, shapes, "post")
        words = sorted({word for row in table.values() for word in row})
        classes: dict[tuple, tuple[int, ...]] = {}
        for word in words:
            key = tuple(
                tuple(row.get(word, QPoly.zero()).items()) for row in table.values()
            )
            classes.setdefault(key, word)
        idems = sorted(classes.values())
        if residue_sequences(ctx, beta) != words:
            return False, f"{where}: residue words differ from the replay"
        if nonzero_idempotents(ctx, beta) != idems:
            return False, f"{where}: idempotent classes differ from the replay"
        for shape, row in table.items():
            for word in words:
                got = kostka_q(ctx, shape, word)
                want = row.get(word, QPoly.zero())
                if got != want:
                    return (
                        False,
                        f"{where}: K_q at {shape}, {word} is {got}, "
                        f"replay gives {want}",
                    )
        matrix = class_matrix(ctx, beta)
        if matrix != dim_matrix(ctx, beta, idems):
            return False, f"{where}: class_matrix differs from dim_matrix"
        for a, one in enumerate(idems):
            for b, other in enumerate(idems[: a + 1]):
                want = _replay_dim(table, one, other)
                if matrix.entry(a, b) != want:
                    return (
                        False,
                        f"{where}: dimension at {one}, {other} is "
                        f"{matrix.entry(a, b)}, replay gives {want}",
                    )
        count += 1
    return (
        True,
        f"engine words, classes, K_q and dimension matrices match the tableau "
        f"replay on {count} blocks",
    )


def _quiver_outcome(bound) -> QuiverBound | str:
    """The quiver bound a call returns, or the text of its QuiverShapeError."""
    try:
        return bound()
    except QuiverShapeError as exc:
        return str(exc)


def oracle_quiver_verdict() -> Outcome:
    """The classify path decides the quiver bound without the class matrix,
    so the matrix's invariants on the diagonals it skips are checked here."""
    count = 0
    for ctx, beta, _, where in _small_blocks():
        matrix = class_matrix(ctx, beta)
        for i, nu in enumerate(matrix.idempotents):
            diag = matrix.entry(i, i)
            if diag.coeff(0) < 1 or not diag.is_palindromic():
                return (
                    False,
                    f"{where}: diagonal at e{nu} is {diag}, not palindromic with q^0 >= 1",
                )
        want = _quiver_outcome(lambda: quiver_bounds(matrix))
        got = _quiver_outcome(lambda: _class_verdict(ctx, beta))
        if got != want:
            return (
                False,
                f"{where}: early-exit quiver verdict {got}, class matrix gives {want}",
            )
        count += 1
    return (
        True,
        f"the early-exit quiver verdict matches quiver_bounds of the class matrix, "
        f"and every class diagonal is palindromic with q^0 >= 1, on {count} blocks",
    )


ORACLES = {
    "O1": oracle_corner_stats, "O2": oracle_kostka, "O3": oracle_counts,
    "O4": oracle_block_tables, "O5": oracle_conventions, "O6": oracle_reduction,
    "O7": oracle_engine_replay, "O8": oracle_quiver_verdict,
}

SUITES = {"paper-fixtures": ACCEPTANCE, "oracle": ORACLES}


def run_suite(suite: str) -> tuple[list[CheckResult], bool]:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    results = _run(SUITES[suite])
    return results, all(r.passed for r in results)
