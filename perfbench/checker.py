"""Output checks: reference digests, the invariants every graded dimension
must satisfy, and the tableau-replay oracle that answers are compared with.

The oracle reads degrees off ``fock.enumerate_standard`` and
``fock.tableau_stats``, never the counting kernel, so a kernel fault cannot
hide in both the answer and the expected value.
"""

from __future__ import annotations

import hashlib
import importlib
import json
from collections import defaultdict


def digest(obj) -> str:
    """SHA-256 of the canonical JSON text of an output."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def poly_problems(poly, diagonal: bool) -> list[str]:
    """Invariant violations of one graded dimension: coefficients are
    nonnegative, and a nonzero diagonal entry is palindromic with a q^0
    term (the identity of the corner)."""
    problems = []
    if not poly.is_nonnegative():
        problems.append(f"{poly} has a negative coefficient")
    if diagonal and poly:
        if poly.coeff(0) < 1:
            problems.append(f"diagonal {poly} has no q^0 term")
        if not poly.is_palindromic():
            problems.append(f"diagonal {poly} is not palindromic")
    return problems


def answer_problems(answer, expected, diagonal: bool) -> list[str]:
    """Problems with one graded_dim answer against the replay value."""
    problems = poly_problems(answer, diagonal)
    if answer != expected:
        problems.append(f"{answer} differs from the replay value {expected}")
    return problems


def matrix_problems(entries, expected=None) -> list[str]:
    """Problems with a square matrix of graded dimensions: symmetry, the
    per-entry invariants and, when given, equality with the replay matrix."""
    m = len(entries)
    problems = []
    for i in range(m):
        for j in range(i, m):
            if entries[i][j] != entries[j][i]:
                problems.append(f"entry ({i},{j}) differs from entry ({j},{i})")
            problems += [f"({i},{j}): {p}" for p in poly_problems(entries[i][j], i == j)]
            if expected is not None and entries[i][j] != expected[i][j]:
                problems.append(
                    f"({i},{j}): {entries[i][j]} differs from the replay value {expected[i][j]}"
                )
    return problems


def replay_table(ctx, beta, convention: str = "post"):
    """K_q(shape, word) for every residue word realised in the block, by
    replaying each standard bitableau: (shapes, {word: (K_q per shape)})."""
    hb = importlib.import_module("heckeblocks")
    shapes = hb.block_bipartitions(ctx, beta)
    degrees: dict[tuple, dict[int, int]] = defaultdict(lambda: defaultdict(int))
    for idx, shape in enumerate(shapes):
        for tab in hb.enumerate_standard(ctx, shape):
            deg, word = hb.tableau_stats(ctx, tab, convention=convention)
            degrees[(word, idx)][deg] += 1
    zero = hb.QPoly.zero()
    table: dict[tuple, list] = {}
    for (word, idx), counts in degrees.items():
        table.setdefault(word, [zero] * len(shapes))[idx] = hb.QPoly(counts)
    return shapes, {word: tuple(row) for word, row in table.items()}


def replay_dim(table, a, b):
    """Graded dimension between two words from a replay table."""
    hb = importlib.import_module("heckeblocks")
    acc = hb.QPoly.zero()
    ka, kb = table.get(tuple(a)), table.get(tuple(b))
    if ka is None or kb is None:
        return acc
    for x, y in zip(ka, kb):
        if x and y:
            acc = acc + x * y
    return acc


def replay_classes(table) -> list[tuple]:
    """Smallest word of each class of words with equal K_q rows, sorted."""
    classes: dict[tuple, tuple] = {}
    for word, row in table.items():
        key = tuple(tuple(p.items()) for p in row)
        if key not in classes or word < classes[key]:
            classes[key] = word
    return sorted(classes.values())


def replay_report(ctx, beta) -> tuple[dict, list]:
    """The classify_block report a correct engine gives, built from the
    replay path: K_q read with the "pre" convention, as
    ``kostka_q(..., convention="pre")`` reads it, idempotent classes from the
    replay table, then the public ``quiver_bounds``.  Returns the report JSON
    and the replay dimension matrix."""
    hb = importlib.import_module("heckeblocks")
    _, table = replay_table(ctx, beta, convention="pre")
    idems = replay_classes(table)
    entries = [[replay_dim(table, a, b) for b in idems] for a in idems]
    report = hb.classify_block(ctx, beta, with_quiver=False).to_json()
    notes = list(report["notes"])
    quiver = None
    try:
        quiver = hb.quiver_bounds(
            hb.DimMatrix(tuple(idems), tuple(tuple(row) for row in entries))
        ).to_json()
    except hb.QuiverShapeError as exc:
        notes.append(f"quiver bounds not applicable: {exc}")
    report["quiver"] = quiver
    report["notes"] = notes
    return report, entries
