"""Command-line front-end.

Exit codes: 0 success, 1 usage error, 2 empty/invalid block, 3 internal
failure, out of memory or failed check suite.
"""

from __future__ import annotations

import argparse
import itertools
import json
import re
import shlex
import signal
import sys
from collections.abc import Iterator
from typing import Callable, Optional, Sequence

from .cartan import AffineRank, RootVec
from .classify import (
    ClassifierConfig,
    UnsupportedConfigError,
    classify_block,
    classify_heckeB,
    classify_heckeD,
)
from .fock import Bipartition, FockContext, content, enumerate_standard, tableau_stats
from .gdim import class_matrix, dim_matrix
from .orbits import NotAWeightError, canonical_rep, dominant_reduce

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_EMPTY = 2
EXIT_INTERNAL = 3


class _UsageError(ValueError):
    """A malformed command line; ``main`` prints it as every other ValueError."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _context(args: argparse.Namespace) -> FockContext:
    rank = AffineRank(args.ell)
    return FockContext(rank, args.s, level=args.level)


def _parse_ints(text: str) -> tuple[int, ...]:
    """Comma-separated integers, each an optional '-' and ASCII digits with
    spaces around it; ValueError naming the first other part.  (int() alone
    would also take '1_0' and non-ASCII digits.)"""
    parts = [part.strip() for part in text.split(",")]
    for part in parts:
        if not re.fullmatch(r"-?[0-9]+", part):
            raise ValueError(f"{part!r} is not an integer")
    return tuple(int(part) for part in parts)


def _parse_beta(text: str, rank: AffineRank) -> RootVec:
    try:
        coeffs = _parse_ints(text)
    except ValueError as exc:
        raise _UsageError(f"--beta must be comma-separated integers: {exc}") from exc
    if len(coeffs) != rank.e:
        raise _UsageError(
            f"--beta needs {rank.e} coefficients for ell={rank.ell}, got {len(coeffs)}"
        )
    return RootVec(rank, coeffs)


def _parse_shape(text: str) -> Bipartition:
    try:
        data = json.loads(text)
        return Bipartition.from_json(data)
    except (json.JSONDecodeError, ValueError, TypeError) as exc:
        raise _UsageError(f"malformed bipartition {text!r}: {exc}") from exc


def _beta_from_args(args: argparse.Namespace, ctx: FockContext) -> RootVec:
    if args.from_bipartition is not None:
        return content(ctx, _parse_shape(args.from_bipartition))
    return _parse_beta(args.beta, ctx.rank)


def _config(args: argparse.Namespace) -> ClassifierConfig:
    return ClassifierConfig(
        char2=args.char2, char_odd=args.char_odd, lambda_is_sign=args.lambda_sign == "true"
    )


def _emit(args: argparse.Namespace, payload: Callable, lines: Callable) -> None:
    """The one writer of output: the JSON form of ``payload()``, the bytes of
    ``json.dumps(payload(), indent=2, sort_keys=True)`` and a newline, or each
    of the lines ``lines()``.  Only the printed form is built, and each part is
    written as it is made; an iterator payload is a JSON list written one
    element at a time, so a listing starts at once and is never held whole."""
    write = sys.stdout.write
    if not args.json:
        sys.stdout.writelines(line + "\n" for line in lines())
        return
    encode = json.JSONEncoder(indent=2, sort_keys=True).iterencode
    data = payload()
    if not isinstance(data, Iterator):
        chunks = encode(data)
        # a few thousand chunks a write: one write per chunk doubles the time
        while text := "".join(itertools.islice(chunks, 4096)):
            write(text)
        write("\n")
        return
    sep = "["
    for item in data:
        # an element sits one level in: every line break of its text indents
        write(sep + "\n  " + "".join(encode(item)).replace("\n", "\n  "))
        sep = ","
    write("[]\n" if sep == "[" else "\n]\n")


def _report_lines(report) -> list[str]:
    lines = [f"type: {report.rep_type.tag}"]
    if report.canonical is not None:
        lines.append(f"canonical: {report.canonical}")
    if report.rep_type.structure is not None:
        b = report.rep_type.structure
        lines.append(f"brauer: {b.kind}, {b.description}")
    if report.quiver is not None:
        q = report.quiver
        lines.append(
            f"quiver bounds: loops={list(q.loops)} arrows={q.arrows} wild={q.wild}"
        )
    for note in report.notes:
        lines.append(f"note: {note}")
    return lines


def cmd_classify(args: argparse.Namespace) -> int:
    ctx = _context(args)
    beta = _beta_from_args(args, ctx)
    cfg = _config(args)
    report = classify_block(ctx, beta, cfg)
    _emit(args, report.to_json, lambda: _report_lines(report))
    return EXIT_OK


def cmd_dims(args: argparse.Namespace) -> int:
    ctx = _context(args)
    beta = _beta_from_args(args, ctx)
    canonical_rep(ctx, beta)  # raises NotAWeightError on a zero block
    if args.all:
        matrix = class_matrix(ctx, beta)
    else:
        idems = []
        for chunk in args.idems.split(";"):
            try:
                idems.append(_parse_ints(chunk))
            except ValueError as exc:
                raise _UsageError(f"malformed --idems entry {chunk!r}") from exc
        matrix = dim_matrix(ctx, beta, idems)
    _emit(args, matrix.to_json, lambda: (str(matrix),))
    return EXIT_OK


def cmd_orbit(args: argparse.Namespace) -> int:
    ctx = _context(args)
    beta = _beta_from_args(args, ctx)
    plus = dominant_reduce(ctx, beta)
    try:
        rep = canonical_rep(ctx, beta)
    except NotAWeightError:
        rep = None
    payload = {
        "beta": beta.to_json(),
        "dominant_reduction": plus.to_json(),
        "is_weight": rep is not None,
        "canonical": None if rep is None else rep.to_json(),
    }
    lines = [
        f"dominant reduction: {plus}",
        f"weight of the module: {rep is not None}",
        "canonical: none (empty block)" if rep is None else f"canonical: {rep}",
    ]
    _emit(args, lambda: payload, lambda: lines)
    return EXIT_OK


def cmd_blocks(args: argparse.Namespace) -> int:
    cfg = _config(args)
    if args.typeD:
        reports = classify_heckeD(args.e, args.n, cfg)
    else:
        reports = classify_heckeB(args.e, None if args.separated else args.s, args.n, cfg)

    def line(report) -> str:
        # the block's coefficients: beta, or beta1 and beta2 of a pair
        label = " ".join(f"{k}={list(v)}" for k, v in report.input if type(v) is tuple)
        canon = f" canonical={report.canonical}" if report.canonical else ""
        return f"{label} type={report.rep_type.tag}{canon}"

    _emit(args, lambda: (r.to_json() for r in reports), lambda: map(line, reports))
    return EXIT_OK


def cmd_tableaux(args: argparse.Namespace) -> int:
    """Both forms print each tableau as it is read, so a large shape starts
    at once: the human form a line, the JSON form one element of the list."""
    if args.limit is not None and args.limit < 0:
        raise _UsageError(f"--limit must be nonnegative, got {args.limit}")
    ctx = _context(args)
    shape = _parse_shape(args.shape)

    def rows():
        for tab in itertools.islice(enumerate_standard(ctx, shape), args.limit):
            degree, residues = tableau_stats(ctx, tab)
            growth = tab.to_json()["growth"]
            yield {"growth": growth, "residues": list(residues), "degree": degree}

    def lines():
        count = 0
        for count, row in enumerate(rows(), 1):
            growth = " ".join(f"({c},{r},{col})" for c, r, col in row["growth"])
            residues = ",".join(str(x) for x in row["residues"])
            yield f"T{count - 1}: degree={row['degree']} residues=({residues}) growth={growth}"
        yield f"total: {count}"

    _emit(args, rows, lines)
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    from .checks import run_suite  # the package itself does not load the suites

    results, ok = run_suite(args.suite)
    for result in results:
        print(result.line())
    return EXIT_OK if ok else EXIT_INTERNAL


def _add_context_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--ell", type=int, required=True, help="number of vertices minus one")
    sub.add_argument("--s", type=int, default=0, help="second charge (default 0)")
    sub.add_argument("--level", type=int, default=2, choices=(1, 2))
    sub.add_argument("--json", action="store_true", help="machine-readable output")


def _add_block_flags(sub: argparse.ArgumentParser) -> None:
    """The context flags and one way to name the block."""
    _add_context_flags(sub)
    block = sub.add_mutually_exclusive_group(required=True)
    block.add_argument(
        "--beta",
        type=str,
        default=None,
        help="comma-separated coefficients; write --beta=-1,0 when the first is negative",
    )
    block.add_argument(
        "--from-bipartition",
        type=str,
        default=None,
        help='compute the content of a bipartition, e.g. "[[2,1],[1]]"',
    )


def _add_field_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--char2", action="store_true", help="characteristic two")
    sub.add_argument("--char-odd", dest="char_odd", action="store_true")
    sub.add_argument(
        "--lambda-sign",
        dest="lambda_sign",
        choices=("true", "false"),
        default="true",
        help="whether the deformation scalar equals the critical sign",
    )


def _build_parser() -> _Parser:
    parser = _Parser(prog="heckeblocks", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p_classify = subs.add_parser("classify", help="classify one block")
    _add_block_flags(p_classify)
    _add_field_flags(p_classify)
    p_classify.set_defaults(handler=cmd_classify)

    p_dims = subs.add_parser("dims", help="graded dimension matrix")
    _add_block_flags(p_dims)
    words = p_dims.add_mutually_exclusive_group(required=True)
    words.add_argument(
        "--idems",
        type=str,
        default=None,
        help='words "0,1;1,0"; write --idems=-1,0 when the first entry is negative',
    )
    words.add_argument("--all", action="store_true", help="use all idempotent classes")
    p_dims.set_defaults(handler=cmd_dims)

    p_orbit = subs.add_parser("orbit", help="canonical orbit data of a block")
    _add_block_flags(p_orbit)
    p_orbit.set_defaults(handler=cmd_orbit)

    p_blocks = subs.add_parser("blocks", help="classify all blocks of a Hecke algebra")
    p_blocks.add_argument("--e", type=int, required=True, help="quantum characteristic")
    p_blocks.add_argument("--n", type=int, required=True, help="rank")
    kind = p_blocks.add_mutually_exclusive_group(required=True)
    kind.add_argument("--s", type=int, default=None)
    kind.add_argument("--separated", action="store_true")
    kind.add_argument("--typeD", action="store_true")
    p_blocks.add_argument("--json", action="store_true")
    _add_field_flags(p_blocks)
    p_blocks.set_defaults(handler=cmd_blocks)

    p_tab = subs.add_parser("tableaux", help="standard bitableaux of a shape")
    _add_context_flags(p_tab)
    p_tab.add_argument("--shape", type=str, required=True, help='e.g. "[[2,1],[1]]"')
    p_tab.add_argument("--limit", type=int, default=None)
    p_tab.set_defaults(handler=cmd_tableaux)

    p_check = subs.add_parser("check", help="run a verification suite")
    p_check.add_argument(
        "--suite",
        choices=("paper-fixtures", "oracle"),
        default="paper-fixtures",
    )
    p_check.set_defaults(handler=cmd_check)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = None
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except NotAWeightError as exc:
        print(f"empty block: {exc}", file=sys.stderr)
        return EXIT_EMPTY
    except UnsupportedConfigError as exc:
        print(f"unsupported configuration: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        # it carries no text, so repeat the command as typed and say what to shrink
        typed = shlex.join(sys.argv[1:] if argv is None else argv)
        hint = ", or --idems in place of --all" if getattr(args, "all", False) else ""
        print(f"out of memory: {typed}; use a smaller block{hint}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def run() -> None:
    # A reader that closes the pipe early (``| head``) ends the process
    # quietly, as it ends ``yes``, instead of reaching main's catch-all.
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    run()
