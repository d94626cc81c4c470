"""Spans around calls into heckeblocks' layers, for the traced run.

Each wrapper replaces a layer function on every heckeblocks module attribute
that refers to it, so callers inside the package (``classify`` calling
``nonzero_idempotents``, ``gdim`` calling ``_kernels.kostka_counts``) go
through it.  No source file is edited.  A layer missing at the traced commit
is reported as absent.  Spans stay in memory until the pass ends; self time
is a span's duration minus the durations of its children.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter


def _shapes_and_scanned(args, result):
    ctx, beta = args[0], args[1]
    return len(result), _bipartitions_of_size(beta.height, ctx.level)


@functools.lru_cache(maxsize=None)
def _partition_count(n: int) -> int:
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


def _bipartitions_of_size(n: int, level: int) -> int:
    """How many (bi)partitions the filter in block_bipartitions scans."""
    if level == 1:
        return _partition_count(n)
    return sum(_partition_count(m) * _partition_count(n - m) for m in range(n + 1))


# (metric prefix, module, attribute, count(args, result, error))
LAYERS = [
    ("gdim.block_bipartitions", "gdim", "block_bipartitions",
     lambda a, r, e: _shapes_and_scanned(a, r)),
    ("gdim.nonzero_idempotents", "gdim", "nonzero_idempotents",
     lambda a, r, e: (len(r), a[0], a[1])),
    ("gdim.dim_matrix", "gdim", "dim_matrix", lambda a, r, e: len(a[2]) ** 2),
    ("gdim.kostka_q", "gdim", "kostka_q", lambda a, r, e: 1 if r else 0),
    ("kernels.kostka_counts", "_kernels", "kostka_counts", lambda a, r, e: int(a[5].sum())),
    ("gdim.graded_dim", "gdim", "graded_dim", None),
    ("gdim.quiver_bounds", "gdim", "quiver_bounds", lambda a, r, e: 0 if e else 1),
    ("orbits.canonical_rep", "orbits", "canonical_rep", None),
    ("orbits.is_weight", "orbits", "is_weight", None),
    ("classify.classify_block", "classify", "classify_block", None),
    ("classify.classify_heckeB", "classify", "classify_heckeB", lambda a, r, e: len(r)),
]


def rebind(original, replacement) -> None:
    """Point every heckeblocks module attribute that refers to `original`
    at `replacement`."""
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "heckeblocks" or name.startswith("heckeblocks.")):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, replacement)


class Tracer:
    """Records (label, parent, start, end, count) spans in a list."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self.originals: dict = {}
        self.absent: list[str] = []

    def install(self) -> None:
        for label, module, attr, count in LAYERS:
            try:
                original = getattr(importlib.import_module(f"heckeblocks.{module}"), attr)
            except (ImportError, AttributeError):
                self.absent.append(label)
                continue
            self.originals[label] = original
            rebind(original, self.wrap(label, original, count))

    def wrap(self, label: str, fn, count=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            result = error = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (label, parent, start, end, _count(count, args, result, error))

        return traced

    def write(self, path: str, pass_index: int) -> None:
        """Append this pass's spans as JSON lines [pass, id, parent, label, start, end]."""
        with open(path, "a", encoding="utf-8") as out:
            for sid, (label, parent, start, end, _) in enumerate(self.spans):
                out.write(json.dumps([pass_index, sid, parent, label, start, end]) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer seconds, self seconds and counts for the recorded spans."""
        child = [0.0] * len(self.spans)
        for label, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total = defaultdict(float)
        own = defaultdict(float)
        calls = defaultdict(int)
        counts = defaultdict(list)
        for sid, (label, parent, start, end, count) in enumerate(self.spans):
            total[label] += end - start
            own[label] += end - start - child[sid]
            calls[label] += 1
            if count is not None:
                counts[label].append(count)

        bb = counts["gdim.block_bipartitions"]
        shapes = sum(c[0] for c in bb)
        scanned = sum(c[1] for c in bb)
        ni = counts["gdim.nonzero_idempotents"]
        quiver = counts["gdim.quiver_bounds"]
        return {
            "gdim.block_bipartitions.s": total["gdim.block_bipartitions"],
            "gdim.block_bipartitions.calls": calls["gdim.block_bipartitions"],
            "gdim.block_bipartitions.shapes": shapes,
            "gdim.block_bipartitions.yield": shapes / scanned if scanned else 0.0,
            "gdim.nonzero_idempotents.s": total["gdim.nonzero_idempotents"],
            "gdim.nonzero_idempotents.self_s": own["gdim.nonzero_idempotents"],
            "gdim.nonzero_idempotents.tableaux": self._tableaux([(c[1], c[2]) for c in ni]),
            "gdim.nonzero_idempotents.classes": sum(c[0] for c in ni),
            "gdim.dim_matrix.s": total["gdim.dim_matrix"],
            "gdim.dim_matrix.self_s": own["gdim.dim_matrix"],
            "gdim.dim_matrix.entries": sum(counts["gdim.dim_matrix"]),
            "gdim.kostka_q.s": total["gdim.kostka_q"],
            "gdim.kostka_q.calls": calls["gdim.kostka_q"],
            "gdim.kostka_q.nonzero": sum(counts["gdim.kostka_q"]),
            "kernels.kostka_counts.s": total["kernels.kostka_counts"],
            "kernels.kostka_counts.calls": calls["kernels.kostka_counts"],
            "kernels.kostka_counts.growths": sum(counts["kernels.kostka_counts"]),
            "gdim.graded_dim.s": total["gdim.graded_dim"],
            "gdim.graded_dim.calls": calls["gdim.graded_dim"],
            "gdim.quiver_bounds.s": total["gdim.quiver_bounds"],
            "gdim.quiver_bounds.applied": sum(quiver) / len(quiver) if quiver else 0.0,
            "orbits.canonical_rep.s": total["orbits.canonical_rep"],
            "orbits.canonical_rep.calls": calls["orbits.canonical_rep"],
            "orbits.is_weight.s": total["orbits.is_weight"],
            "orbits.is_weight.calls": calls["orbits.is_weight"],
            "classify.classify_block.self_s": own["classify.classify_block"],
            "classify.classify_heckeB.s": total["classify.classify_heckeB"],
            "classify.classify_heckeB.blocks": sum(counts["classify.classify_heckeB"]),
        }

    def _tableaux(self, blocks) -> int:
        """Standard bitableaux of the given blocks, summed, by the untraced
        public functions; 0 when either is absent at this commit."""
        hb = importlib.import_module("heckeblocks")
        shapes_of = self.originals.get("gdim.block_bipartitions")
        count_standard = getattr(hb, "count_standard", None)
        if shapes_of is None or count_standard is None:
            return 0
        per_block = {}
        for ctx, beta in blocks:
            if (ctx, beta) not in per_block:
                per_block[ctx, beta] = sum(count_standard(s) for s in shapes_of(ctx, beta))
        return sum(per_block[block] for block in blocks)


def _count(count, args, result, error):
    if count is None:
        return None
    try:
        return count(args, result, error)
    except (TypeError, IndexError, AttributeError, ValueError):
        return None
