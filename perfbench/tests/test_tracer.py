"""The traced run's wrappers: spans, self time and absent layers.

Each case runs in a fresh interpreter, because installing the tracer
rebinds heckeblocks module attributes for the rest of the process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent

PRELUDE = """
import json
import heckeblocks as hb
from tracer import Tracer
"""


def run(code: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(HERE.parent / "src"), str(HERE)])
    done = subprocess.run([sys.executable, "-c", PRELUDE + code], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout)


def test_spans_reach_callers_inside_the_package():
    metrics = run("""
tracer = Tracer()
tracer.install()
ctx = hb.FockContext(hb.AffineRank(1), 1, level=2)
hb.classify_block(ctx, hb.null_root(ctx.rank) * 2)
print(json.dumps(tracer.layer_metrics()))
""")
    assert metrics["classify.classify_block.self_s"] > 0
    assert metrics["gdim.nonzero_idempotents.classes"] == 4
    assert metrics["gdim.nonzero_idempotents.tableaux"] == 60
    assert metrics["gdim.dim_matrix.entries"] == 16
    assert metrics["gdim.kostka_q.calls"] == metrics["kernels.kostka_counts.calls"] > 0
    assert 0 < metrics["gdim.dim_matrix.self_s"] < metrics["gdim.dim_matrix.s"]
    assert metrics["gdim.quiver_bounds.applied"] == 0.0


def test_a_missing_layer_is_reported_absent():
    out = run("""
del hb._kernels.kostka_counts
tracer = Tracer()
tracer.install()
ctx = hb.FockContext(hb.AffineRank(1), 1, level=2)
hb.classify_block(ctx, hb.RootVec(ctx.rank, (1, 1)), with_quiver=False)
print(json.dumps({"absent": tracer.absent, "metrics": tracer.layer_metrics()}))
""")
    assert out["absent"] == ["kernels.kostka_counts"]
    assert out["metrics"]["kernels.kostka_counts.calls"] == 0
    assert out["metrics"]["orbits.canonical_rep.calls"] == 1
