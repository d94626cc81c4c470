"""Benchmark of heckeblocks through its public API, with checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each exists):
  ladder    classify_block(ctx, beta, with_quiver=True) over a fixed list of
            level-two blocks: the whole graded-dimension pipeline
  queries   graded_dim(ctx, nu', nu) on pairs of realised residue words drawn
            by --seed from three level-two blocks: point lookups
  sweep     classify_heckeB / classify_heckeD over a fixed grid: orbit
            reduction and decision tables, no graded dimensions
  levelone  classify_block on level-one blocks k*delta; not in BENCHMARK.json
            because the counting kernel gets level one wrong (ROADMAP item 1),
            so its operations fail until that is fixed

Each pass runs in a fresh interpreter (worker.py) that receives only the
generated inputs, as one closed-loop client: an operation starts when the
previous one returns.  Passes repeat until --seconds have elapsed.  Times
are scaled to a reference machine speed (speed.py); each run also prints
the raw wall times.  Outputs are checked against perfbench/reference.json
(ladder, levelone, sweep) or a tableau-replay K_q table built before timing
(queries).

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
passes with passes that record spans around each layer's functions, prints
the per-layer metrics and the tracing overhead (median traced pass minus
median untraced pass), and writes the spans to
perfbench/out/spans-<workload>.jsonl, replacing the previous run's.  The
last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checker
import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 9
MIN_PASSES = 5
#: the p90 latency needs at least ten samples above it
MIN_OP_SAMPLES = 100
#: start no pass this long after the run began, whatever --seconds says
HARD_STOP_S = 120.0
WORKER_TIMEOUT_S = 150.0

UNITS = {"setup_s": "s", "pass_s": "s", "op_ms_p50": "ms", "op_ms_p90": "ms",
         "peak_rss_mb": "MB"}
RATIO_METRICS = ("yield", "applied", "overhead_share")


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


SETUP_CODE = """\
import gc
import time
from time import perf_counter
KEYS = [(i, i >> 1, i & 7) for i in range({loop})]
{calibrate}
before = calibrate()
import heckeblocks
done = time.clock_gettime(time.CLOCK_MONOTONIC)
print(done, before, calibrate())
"""


def measure_setup(env: dict) -> tuple[float, float]:
    """Median seconds from starting a fresh interpreter until
    ``import heckeblocks`` returns, scaled to the reference speed by the
    calibration loop run in that interpreter just before and after the
    import, and as wall time.  The first probe only warms the bytecode
    cache."""
    code = SETUP_CODE.format(loop=speed.LOOP, calibrate=inspect.getsource(speed.calibrate))
    samples, wall = [], []
    for k in range(SETUP_PROBES + 1):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        if done.returncode != 0:
            raise BenchError(f"import heckeblocks failed:\n{done.stderr}")
        if k:
            end, before, after = map(float, done.stdout.split()[-3:])
            wall.append(end - start - before)
            samples.append(speed.scaled(wall[-1], [before, after]))
    return statistics.median(samples), statistics.median(wall)


def prepare(workload: str, seed: int, reference: dict):
    """Inputs, a per-operation checker and the workload's recorded
    properties; everything here happens before timing."""
    import heckeblocks as hb

    if workload == "queries":
        tables, words_by_block = {}, []
        for block in workloads.query_blocks():
            ctx = hb.FockContext(hb.AffineRank(block["ell"]), block["s"], level=2)
            _, table = checker.replay_table(ctx, hb.RootVec(ctx.rank, tuple(block["beta"])))
            tables[block["ell"], block["s"], tuple(block["beta"])] = table
            words_by_block.append(sorted(table))
        ops = workloads.query_ops(seed, words_by_block)
        expected = [
            checker.replay_dim(tables[workloads.query_block_key(op)], op["a"], op["b"])
            for op in ops
        ]
        op_is_diagonal = [op["a"] == op["b"] for op in ops]

        def check(k, output):
            answer = hb.QPoly.from_json(output)
            return checker.answer_problems(answer, expected[k], op_is_diagonal[k])

        seen, repeats = set(), 0
        for op in ops:
            key = workloads.query_block_key(op)
            repeats += key in seen
            seen.add(key)
        properties = {
            "queries": len(ops),
            "distinct_blocks": len(seen),
            "repeat_block_share": repeats / len(ops),
            "diagonal_share": sum(op_is_diagonal) / len(ops),
        }
        return ops, check, properties

    ops = {"ladder": workloads.ladder_ops, "levelone": workloads.levelone_ops,
           "sweep": workloads.sweep_ops}[workload]()
    recorded = reference[workload]
    keys = [workloads.op_key(op) for op in ops]
    missing = [key for key in keys if key not in recorded]
    if missing:
        raise BenchError(f"reference.json has no entry for {missing}")

    def check(k, output):
        ref = recorded[keys[k]]
        if checker.digest(output) != ref["digest"]:
            return [f"output differs from the reference ({ref['source']})"]
        return []

    if workload == "sweep":
        properties = {"grid_points": len(ops),
                      "blocks": sum(recorded[key]["blocks"] for key in keys)}
    else:
        properties = {key: {f: recorded[key][f] for f in ("shapes", "classes", "tableaux")}
                      for key in keys}
    return ops, check, properties


def run_pass(job: dict, env: dict) -> dict:
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "worker.py")], input=json.dumps(job), env=env,
            capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"a pass took longer than {WORKER_TIMEOUT_S} s") from exc
    if done.returncode != 0:
        raise BenchError(f"worker failed:\n{done.stderr}")
    result = json.loads(done.stdout)
    if not Path(result["module"]).resolve().is_relative_to(SRC):
        raise BenchError(f"worker imported heckeblocks from {result['module']}, not {SRC}")
    return result


def run_passes(jobs, env, check, until, hard_stop, min_samples=0):
    """Run passes, taking the jobs in turn, until the clock reaches `until`
    with at least MIN_PASSES per job and `min_samples` operations of the
    first job, or reaches `hard_stop`, by which every job must have run
    once.  Returns the passes of each job, each with its failed operations
    listed under "problems"."""
    runs = [[] for _ in jobs]
    while True:
        count = sum(len(r) for r in runs)
        passes = runs[count % len(jobs)]
        result = run_pass({**jobs[count % len(jobs)], "pass_index": count}, env)
        result["pass_s"] = sum(result["op_s"])
        result["pass_wall_s"] = sum(result["wall_s"])
        for name in result.get("layers", {}):
            if unit_of(name) == "s":
                result["layers"][name] *= result["pass_s"] / result["pass_wall_s"]
        problems = []
        for k, (output, error) in enumerate(zip(result["outputs"], result["errors"])):
            try:
                found = [error] if error is not None else check(k, output)
            except (KeyError, TypeError, ValueError) as exc:
                found = [f"unreadable output: {type(exc).__name__}: {exc}"]
            if found:
                problems.append((k, found))
        result["problems"] = problems
        passes.append(result)
        now = time.monotonic()
        samples = sum(len(p["op_s"]) for p in runs[0])
        if now >= hard_stop and not all(runs):
            raise BenchError(f"not every kind of pass ran once in {HARD_STOP_S:.0f} s")
        if now >= hard_stop or (
            now >= until and min(map(len, runs)) >= MIN_PASSES and samples >= min_samples
        ):
            return runs


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.rsplit(".", 1)[-1] in RATIO_METRICS:
        return "ratio"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (SRC / "heckeblocks" / "__init__.py").is_file():
        print(f"error: no heckeblocks source tree under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        return measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def measure(args) -> int:
    import heckeblocks

    if not Path(heckeblocks.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"imported heckeblocks from {heckeblocks.__file__}, not {SRC}")
    reference = json.loads((HERE / "reference.json").read_text())
    ops, check, properties = prepare(args.workload, args.seed, reference)
    env = worker_env()
    job = {"workload": args.workload, "ops": ops, "trace": False}

    metrics: dict[str, float] = {}
    wall: dict[str, float] = {}
    if not args.trace:
        metrics["setup_s"], wall["setup_s"] = measure_setup(env)
    start = time.monotonic()
    hard_stop = start + HARD_STOP_S
    traced: list = []
    absent: list = []
    if args.trace:
        span_file = HERE / "out" / f"spans-{args.workload}.jsonl"
        span_file.parent.mkdir(exist_ok=True)
        span_file.unlink(missing_ok=True)
        traced_job = {**job, "trace": True, "span_file": str(span_file)}
        untraced, traced = run_passes(
            [job, traced_job], env, check, start + args.seconds, hard_stop
        )
        for name in traced[0]["layers"]:
            metrics[name] = statistics.median(p["layers"][name] for p in traced)
        absent = traced[0]["absent"]
        base = statistics.median(p["pass_s"] for p in untraced)
        overhead = statistics.median(p["pass_s"] for p in traced) - base
        metrics["trace.overhead_s"] = overhead
        metrics["trace.overhead_share"] = overhead / base
    else:
        [untraced] = run_passes(
            [job], env, check, start + args.seconds, hard_stop, MIN_OP_SAMPLES
        )
        op_s = [t for p in untraced for t in p["op_s"]]
        metrics["pass_s"] = statistics.median(p["pass_s"] for p in untraced)
        wall["pass_s"] = statistics.median(p["pass_wall_s"] for p in untraced)
        metrics["op_ms_p50"] = 1000 * statistics.median(op_s)
        metrics["op_ms_p90"] = 1000 * statistics.quantiles(op_s, n=10)[-1]
        metrics["peak_rss_mb"] = statistics.median(p["maxrss_kb"] for p in untraced) / 1024

    passes = untraced + traced
    attempted = sum(len(p["op_s"]) for p in passes)
    failed = sum(len(p["problems"]) for p in passes)
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(untraced)} untraced + {len(traced)} traced passes of {len(ops)} ops")
    print("# properties " + json.dumps(properties))
    if absent:
        print("# absent layers (reported as 0): " + ", ".join(absent))
    shown = set()
    for p in passes:
        for k, found in p["problems"]:
            if k not in shown and len(shown) < 10:
                shown.add(k)
                print(f"# failed op {k} {json.dumps(ops[k])}: {found[0]}")
    summary = [f"{name}={value:.6g} {unit_of(name)}" for name, value in metrics.items()]
    summary.append(f"fail_share={failed / attempted:.6g} ({failed}/{attempted})")
    print("# " + "  ".join(summary))
    if wall:
        print("# wall time, unscaled: " + "  ".join(
            f"{name}={value:.6g} s" for name, value in wall.items()))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
