"""Check that reference-speed times (speed.py) move with the program.

Run from the repository root:

    python3 perfbench/scale_check.py --workload queries --reps 12

Runs passes of a workload in turn with the package as it is ("base") and
with two variants that add a known cost to every call of
``gdim.kostka_q`` and ``orbits.canonical_rep``:

  busy   a fixed integer loop with a small working set
  table  writes, then reads spread over, a live table of 400 000 entries
         (about 140 MB), as a growing memo would; it moves the cache and
         heap state that the calibration loop run next to each operation
         shares with it

A variant is installed in the worker by rebinding those functions before
the pass, so no source file is edited.  For each variant and each of pass
time, median and p90 operation latency it prints the median, over rounds
of adjacent passes, of variant / base in reference-speed seconds and in
wall seconds.  If the calibration loop were moved by the variant, the two
ratios would differ.  Wall ratios are noisy on a machine whose speed
drifts, so compare them within their interquartile range.  The last line
of standard output is the summary as JSON.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import statistics
import subprocess
import sys

import run
from tracer import rebind

COSTED = [("gdim", "kostka_q"), ("orbits", "canonical_rep")]
TABLE_CAP = 400_000
TABLE_PER_CALL = 60

WORKER = """\
import sys
sys.path.insert(0, {here!r})
import scale_check
import worker
scale_check.install({variant!r})
worker.main()
"""


def busy_cost() -> None:
    x = 1
    for i in range(400):
        x = (x * 31 + i) % 1000003


_table: dict = {}
_cursor = [0]


def table_cost() -> None:
    n = len(_table)
    if n < TABLE_CAP:
        for i in range(n, n + TABLE_PER_CALL):
            _table[i, i >> 3] = (i, [i])
        return
    c = _cursor[0]
    for j in range(TABLE_PER_CALL):
        i = (c + j * 104729) % TABLE_CAP
        _table[i, i >> 3][1][0] += 1
    _cursor[0] = c + 7


def install(variant: str) -> None:
    """Add the variant's cost in front of each costed heckeblocks function."""
    cost = {"busy": busy_cost, "table": table_cost}.get(variant)
    if cost is None:
        return
    for module, attr in COSTED:
        original = getattr(importlib.import_module(f"heckeblocks.{module}"), attr)

        @functools.wraps(original)
        def costed(*args, _fn=original, **kwargs):
            cost()
            return _fn(*args, **kwargs)

        rebind(original, costed)


def one_pass(job: dict, variant: str, env: dict, check) -> dict:
    code = WORKER.format(here=str(run.HERE), variant=variant)
    done = subprocess.run([sys.executable, "-c", code], input=json.dumps(job), env=env,
                          capture_output=True, text=True, timeout=run.WORKER_TIMEOUT_S)
    if done.returncode != 0:
        raise run.BenchError(f"worker failed:\n{done.stderr}")
    result = json.loads(done.stdout)
    failed = sum(1 for k, (output, error) in enumerate(zip(result["outputs"], result["errors"]))
                 if error is not None or check(k, output))
    figures = {"failed": failed, "rss_mb": result["maxrss_kb"] / 1024}
    for clock, key in (("scaled", "op_s"), ("wall", "wall_s")):
        times = result[key]
        figures[clock] = {"pass": sum(times), "p50": statistics.median(times),
                          "p90": statistics.quantiles(times, n=10)[-1]}
    return figures


def summarise(rounds: list[dict]) -> dict:
    summary = {"failed": {v: sum(r[v]["failed"] for r in rounds) for v in rounds[0]},
               "rss_mb": {v: statistics.median(r[v]["rss_mb"] for r in rounds)
                          for v in rounds[0]}}
    for variant in ("busy", "table"):
        for figure in ("pass", "p50", "p90"):
            for clock in ("scaled", "wall"):
                ratios = [r[variant][clock][figure] / r["base"][clock][figure] for r in rounds]
                q1, _, q3 = statistics.quantiles(ratios, n=4)
                summary[f"{variant}.{figure}.{clock}"] = {
                    "ratio": statistics.median(ratios), "q1": q1, "q3": q3}
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("ladder", "queries", "sweep"))
    parser.add_argument("--reps", type=int, default=12)
    args = parser.parse_args()

    sys.path.insert(0, str(run.SRC))
    reference = json.loads((run.HERE / "reference.json").read_text())
    ops, check, _ = run.prepare(args.workload, 1, reference)
    job = {"workload": args.workload, "ops": ops, "trace": False}
    env = run.worker_env()
    variants = ["base", "busy", "table"]
    rounds = []
    for rep in range(args.reps):
        order = variants[rep % 3:] + variants[:rep % 3]
        rounds.append({v: one_pass(job, v, env, check) for v in order})
        print(f"# round {rep}: " + "  ".join(
            f"{v} {rounds[-1][v]['scaled']['pass']:.3f} s ({rounds[-1][v]['wall']['pass']:.3f} wall)"
            for v in variants), flush=True)
    summary = summarise(rounds)
    for name, value in summary.items():
        if "ratio" in value:
            print(f"# {name}: {value['ratio']:.3f} (IQR {value['q1']:.3f}-{value['q3']:.3f})")
    print(json.dumps({"workload": args.workload, "reps": args.reps, **summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
