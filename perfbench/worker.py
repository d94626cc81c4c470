"""One timed pass of a workload in a fresh interpreter.

Reads {"workload", "ops", "trace", "span_file", "pass_index"} as JSON on
stdin and writes the per-operation wall and reference-speed seconds (see
speed.py), serialised outputs, errors, peak resident memory and (when
tracing) per-layer metrics as JSON on stdout.  A fresh process per pass keeps caches a later engine might add from
carrying over between passes, as they would not between CLI calls.
"""

from __future__ import annotations

import json
import resource
import sys

import heckeblocks

import speed
import workloads
from tracer import Tracer


def peak_rss_kb() -> int:
    """High-water resident memory of this process image.  ru_maxrss would
    also count the parent's memory at fork time, which Linux carries across
    exec, so VmHWM is read where /proc provides it."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> None:
    job = json.load(sys.stdin)
    workload = job["workload"]
    tracer = None
    if job["trace"]:
        tracer = Tracer()
        tracer.install()
    calls = workloads.build_calls(workload, job["ops"])
    if tracer is not None:
        calls = [(tracer.wrap("op", fn), args, kwargs) for fn, args, kwargs in calls]

    results, errors, wall_s, op_s = [], [], [], []
    with speed.Clock() as clock:
        for fn, args, kwargs in calls:
            result, error, wall, scaled = clock.time(fn, *args, **kwargs)
            results.append(result)
            errors.append(None if error is None else f"{type(error).__name__}: {error}")
            wall_s.append(wall)
            op_s.append(scaled)
    maxrss_kb = peak_rss_kb()

    outputs = []
    for k, result in enumerate(results):
        try:
            outputs.append(None if result is None else workloads.serialise(workload, result))
        except Exception as exc:  # an output that cannot be serialised fails its check
            outputs.append(None)
            errors[k] = f"{type(exc).__name__}: {exc}"
    out = {
        "module": heckeblocks.__file__,
        "wall_s": wall_s,
        "op_s": op_s,
        "errors": errors,
        "outputs": outputs,
        "maxrss_kb": maxrss_kb,
    }
    if tracer is not None:
        tracer.write(job["span_file"], job["pass_index"])
        out["layers"] = tracer.layer_metrics()
        out["absent"] = tracer.absent
    json.dump(out, sys.stdout)


if __name__ == "__main__":
    main()
