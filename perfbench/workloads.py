"""Workload inputs, how each operation calls heckeblocks, and how its output
is serialised for checking.

Every operation goes through the package's public names (``heckeblocks.X``),
looked up when the calls are built, so that traced wrappers installed on
those names are the ones that run.
"""

from __future__ import annotations

import importlib
import random

#: (ell, s, k): level-two blocks k*delta of height at most 8, the quiver cap
LADDER_KDELTA = [(1, 1, 2), (1, 0, 2), (2, 1, 2), (2, 0, 2), (1, 1, 3), (3, 2, 2), (3, 0, 2)]

#: (ell, s, beta): small level-two labels whose quiver bounds apply or whose
#: mu label is rewritten; the first two are the README examples
LADDER_SMALL = [
    (1, 0, (1, 1)), (1, 1, (1, 1)), (2, 0, (1, 0, 1)), (2, 0, (1, 1, 0)),
    (2, 1, (0, 1, 1)), (2, 1, (1, 0, 1)), (2, 2, (0, 1, 1)), (2, 2, (1, 0, 1)),
    (2, 2, (1, 1, 0)), (2, 2, (1, 2, 1)), (3, 1, (0, 1, 1, 0)), (3, 1, (0, 1, 1, 1)),
    (3, 1, (1, 0, 0, 1)), (3, 1, (1, 0, 1, 1)), (3, 2, (0, 0, 1, 1)), (3, 2, (0, 1, 1, 0)),
    (3, 2, (0, 1, 1, 1)), (3, 2, (0, 1, 2, 1)), (3, 2, (1, 0, 0, 1)), (3, 2, (1, 0, 1, 0)),
    (3, 2, (1, 0, 1, 1)), (3, 2, (1, 1, 0, 0)), (3, 2, (1, 1, 0, 1)), (3, 2, (2, 1, 0, 1)),
    (3, 3, (0, 0, 1, 1)), (3, 3, (0, 1, 1, 1)), (3, 3, (1, 0, 0, 1)), (3, 3, (1, 0, 1, 1)),
    (3, 3, (1, 0, 1, 2)), (3, 3, (1, 1, 0, 0)), (3, 3, (1, 1, 0, 1)), (3, 3, (1, 1, 1, 0)),
    (3, 3, (2, 1, 0, 1)), (4, 2, (1, 0, 1, 1, 1)),
]

#: (ell, k): level-one blocks k*delta
LEVEL_ONE = [(1, 1), (1, 2), (2, 2), (1, 3), (3, 2)]

#: (ell, s, k): level-two blocks whose realised residue words the queries use
QUERY_BLOCKS = [(1, 1, 3), (2, 1, 2), (3, 2, 2)]
QUERIES_PER_BLOCK = 100
#: of which this many ask for a diagonal entry (the same word twice)
DIAGONAL_PER_BLOCK = 20

#: ("B", e, s, n) for classify_heckeB (s None: separated parameters) and
#: ("D", e, None, n) for classify_heckeD in odd characteristic
SWEEP = [
    ("B", 6, None, 12), ("B", 8, 3, 14), ("B", 5, 2, 14), ("B", 2, 1, 8),
    ("B", 3, 0, 10), ("B", 4, None, 10), ("B", 3, 1, 12), ("B", 4, 2, 12),
    ("B", 7, None, 12), ("B", 5, None, 14), ("B", 6, 3, 12), ("B", 2, None, 10),
    ("B", 4, 0, 12), ("B", 7, 2, 12), ("B", 3, None, 14),
    ("D", 4, None, 10), ("D", 5, None, 10), ("D", 6, None, 12), ("D", 3, None, 12),
    ("D", 8, None, 12), ("D", 7, None, 10),
]

WORKLOADS = ("ladder", "queries", "sweep", "levelone")


def _block_op(ell: int, s: int, level: int, beta) -> dict:
    return {"ell": ell, "s": s, "level": level, "beta": list(beta)}


def ladder_ops() -> list[dict]:
    ops = [_block_op(ell, s, 2, [k] * (ell + 1)) for ell, s, k in LADDER_KDELTA]
    return ops + [_block_op(ell, s, 2, beta) for ell, s, beta in LADDER_SMALL]


def levelone_ops() -> list[dict]:
    return [_block_op(ell, 0, 1, [k] * (ell + 1)) for ell, k in LEVEL_ONE]


def sweep_ops() -> list[dict]:
    return [{"kind": kind, "e": e, "s": s, "n": n} for kind, e, s, n in SWEEP]


def query_blocks() -> list[dict]:
    return [_block_op(ell, s, 2, [k] * (ell + 1)) for ell, s, k in QUERY_BLOCKS]


def query_ops(seed: int, words_by_block: list[list[tuple[int, ...]]]) -> list[dict]:
    """Pairs of realised residue words, a fixed number per block so that the
    work per pass varies little with the seed, shuffled across blocks."""
    rng = random.Random(seed)
    ops = []
    for block, words in zip(query_blocks(), words_by_block):
        for q in range(QUERIES_PER_BLOCK):
            a = rng.choice(words)
            b = a if q < DIAGONAL_PER_BLOCK else rng.choice(words)
            ops.append({"ell": block["ell"], "s": block["s"], "a": list(a), "b": list(b)})
    rng.shuffle(ops)
    return ops


def op_key(op: dict) -> str:
    """Stable name of a ladder, level-one or sweep operation."""
    if "kind" in op:
        return f"{op['kind']} e={op['e']} s={op['s']} n={op['n']}"
    beta = ",".join(str(c) for c in op["beta"])
    return f"L{op['level']} ell={op['ell']} s={op['s']} beta={beta}"


def query_block_key(op: dict) -> tuple:
    """The block a query lies in: its context and the content of its words."""
    e = op["ell"] + 1
    content = [0] * e
    for v in op["a"]:
        content[v % e] += 1
    return (op["ell"], op["s"], tuple(content))


def build_calls(workload: str, ops: list[dict]) -> list[tuple]:
    """(function, args, kwargs) for each operation; argument objects are
    built here, before any timing."""
    hb = importlib.import_module("heckeblocks")
    calls = []
    for op in ops:
        if workload == "sweep":
            if op["kind"] == "B":
                calls.append((hb.classify_heckeB, (op["e"], op["s"], op["n"]), {}))
            else:
                cfg = hb.ClassifierConfig(char_odd=True)
                calls.append((hb.classify_heckeD, (op["e"], op["n"], cfg), {}))
            continue
        level = op.get("level", 2)
        ctx = hb.FockContext(hb.AffineRank(op["ell"]), op["s"], level=level)
        if workload == "queries":
            calls.append((hb.graded_dim, (ctx, tuple(op["a"]), tuple(op["b"])), {}))
        else:
            beta = hb.RootVec(ctx.rank, tuple(op["beta"]))
            calls.append((hb.classify_block, (ctx, beta), {"with_quiver": True}))
    return calls


def serialise(workload: str, result):
    """JSON form of one operation's output, through the package's own
    to_json methods."""
    if workload == "sweep":
        return [report.to_json() for report in result]
    return result.to_json()
