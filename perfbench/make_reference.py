"""Write perfbench/reference.json, the expected outputs the benchmark checks.

    python3 perfbench/make_reference.py

- ladder and sweep: digests of the source tree's own outputs.  Run this only
  at a commit whose outputs are trusted; the committed file comes from the
  seed commit, whose level-two graded dimensions agree with the tableau
  replay (checked here for every ladder block of height at most 6).
- levelone: digests of the report a correct engine gives, built by
  ``checker.replay_report`` from the tableau replay and the public
  ``quiver_bounds``, never from the counting kernel.

Each entry also records the block's shapes, idempotent classes and standard
bitableaux (ladder, levelone) or block count (sweep).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import heckeblocks as hb  # noqa: E402

import checker  # noqa: E402
import workloads  # noqa: E402

#: ladder blocks up to this height are also checked against the replay
REPLAY_CONFIRM_HEIGHT = 6


def block_counts(ctx, beta) -> dict:
    shapes = hb.block_bipartitions(ctx, beta)
    return {"shapes": len(shapes), "tableaux": sum(hb.count_standard(s) for s in shapes)}


def ladder_entry(op: dict) -> dict:
    ctx = hb.FockContext(hb.AffineRank(op["ell"]), op["s"], level=2)
    beta = hb.RootVec(ctx.rank, tuple(op["beta"]))
    report = hb.classify_block(ctx, beta, with_quiver=True).to_json()
    idems = hb.nonzero_idempotents(ctx, beta)
    entry = {
        "digest": checker.digest(report),
        "source": "seed output",
        "rep_type": report["rep_type"],
        "quiver_applies": report["quiver"] is not None,
        "classes": len(idems),
        **block_counts(ctx, beta),
    }
    if beta.height <= REPLAY_CONFIRM_HEIGHT:
        _, table = checker.replay_table(ctx, beta)
        kernel = hb.dim_matrix(ctx, beta, idems).entries
        replay = [[checker.replay_dim(table, a, b) for b in idems] for a in idems]
        problems = checker.matrix_problems(kernel, replay)
        if problems:
            raise SystemExit(f"{workloads.op_key(op)}: kernel disagrees with replay: {problems}")
        entry["kernel_equals_replay"] = True
    return entry


def levelone_entry(op: dict) -> dict:
    ctx = hb.FockContext(hb.AffineRank(op["ell"]), 0, level=1)
    beta = hb.RootVec(ctx.rank, tuple(op["beta"]))
    report, entries = checker.replay_report(ctx, beta)
    problems = checker.matrix_problems(entries)
    if problems:
        raise SystemExit(f"{workloads.op_key(op)}: replay matrix breaks an invariant: {problems}")
    return {
        "digest": checker.digest(report),
        "source": "tableau replay",
        "rep_type": report["rep_type"],
        "quiver_applies": report["quiver"] is not None,
        "classes": len(entries),
        **block_counts(ctx, beta),
    }


def sweep_entry(op: dict) -> dict:
    [(fn, args, kwargs)] = workloads.build_calls("sweep", [op])
    reports = workloads.serialise("sweep", fn(*args, **kwargs))
    return {"digest": checker.digest(reports), "source": "seed output", "blocks": len(reports)}


def main() -> None:
    reference = {
        "ladder": {workloads.op_key(op): ladder_entry(op) for op in workloads.ladder_ops()},
        "levelone": {workloads.op_key(op): levelone_entry(op) for op in workloads.levelone_ops()},
        "sweep": {workloads.op_key(op): sweep_entry(op) for op in workloads.sweep_ops()},
    }
    path = HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
