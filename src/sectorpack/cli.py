"""Command-line front end: sector-pack <subcommand> [options].

Exit status: 0 success, 1 domain error (bad slope, point outside sector,
prefix over the region limit, ...), 2 usage error, 3 a verify that found a
violation (witness printed), 141 the reader closed stdout before the end
(as `| head` does), which cuts the output there without a message.
Results go to stdout (or --out FILE); search progress goes to stderr.

Output streams.  `layout` and `enumerate` make their rows lazily, from the
family's rank-order walk and from the order iterator, and main writes them
in batches, so their memory does not grow with --count (json included).
A coordinate too long to print (past Python's digit limit) ends the stream
with the error line of an argument that long and status 1; rows of earlier
batches may be out by then on stdout, but an --out file is removed.
`verify` and `search` must hold their examined region, the fewest columns
holding max(4, 2s) * prefix points for slope r/s: a prefix whose target, or
whose region's last column alone, exceeds _REGION_LIMIT points is refused
(verify.check_region), and a prefix below 1 by the command itself.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from itertools import chain, islice
from typing import Iterable, Iterator

from .core import (OrderKind, Point, Sector, SectorPackError, _is_ascii_number, _to_int,
                   _too_many_digits, parse_slope)
from .layout import check_fill_count
from .packing import parse_family
from .poly import deserialize
from .transforms import LinearMap2, lambda_map, m_map, phi_map, psi_map

# verify imports numpy, so enumerate, verify and search import it in their own bodies

_ORDER_NAMES = {kind.value: kind for kind in OrderKind}
_MAP_FACTORIES = {"lambda": lambda_map, "m": m_map, "phi": phi_map, "psi": psi_map}
_REGION_LIMIT = 1_000_000  # examined points; verify peaks near 40 MiB there, a late repeat too
_WRITE_BATCH = 4096  # output pieces joined into one write
_EXIT_PIPE_CLOSED = 141  # 128 + SIGPIPE, as a shell reports a writer the signal ended


def _strict_int(token: str) -> int:
    digits = token[1:] if token.startswith("-") else token
    if not _is_ascii_number(digits):
        raise SectorPackError(f"malformed integer {token!r}")
    return _to_int(token)


def _digits(n: int) -> str:
    """str(n); past Python's digit limit, a SectorPackError, as for an argument."""
    try:
        return str(n)
    except ValueError:
        raise SectorPackError(f"result exceeds the limit of {sys.get_int_max_str_digits()} "
                              "digits for printing an integer") from None


def _integer_option(token: str) -> int:
    """argparse type for integer options: a malformed value is a usage error."""
    try:
        return _strict_int(token)
    except SectorPackError:
        raise argparse.ArgumentTypeError(f"invalid integer value: {token!r}") from None


def parse_point(text: str) -> tuple[int, int]:
    """Parse "x,y" with no spaces; integers up to Python's digit limit (4,300)."""
    parts = text.split(",")
    if len(parts) != 2:
        raise SectorPackError(f"point must be x,y, got {text!r}")
    return (_strict_int(parts[0]), _strict_int(parts[1]))


def parse_map(text: str) -> LinearMap2:
    """Parse a transform name: lambda:S, m:S, phi:S, or psi:R."""
    head, sep, param = text.partition(":")
    factory = _MAP_FACTORIES.get(head)
    if factory is None or not sep:
        raise SectorPackError(f"unknown transform {text!r} (want lambda:S, m:S, phi:S, psi:R)")
    return factory(_strict_int(param))


def _order_for(name: str) -> OrderKind:
    """The order by its CLI name; enumerate_sector rejects a slope that does not fit it."""
    order = _ORDER_NAMES.get(name)
    if order is None:
        raise SectorPackError(f"unknown order {name!r} (choose from {sorted(_ORDER_NAMES)})")
    return order


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on the first call and then shared."""
    parser = argparse.ArgumentParser(
        prog="sector-pack",
        description="Packing polynomials on integer sectors: evaluate, invert, "
                    "enumerate, verify, search, and lay out sector-shaped arrays.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, formats=("text", "json"), default_format="text"):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--format", choices=formats, default=default_format)
        p.add_argument("--out", metavar="FILE", help="write the result to FILE instead of stdout")
        return p

    p = add("eval", "rank of a point under a packing family")
    p.add_argument("--family", required=True, help="cantor-f, steep-g:3, div-f:2/3, quasi:3/2, ...")
    p.add_argument("--point", required=True, help="lattice point as x,y")

    p = add("unrank", "point with a given rank under a packing family")
    p.add_argument("--family", required=True)
    p.add_argument("--rank", required=True, type=_integer_option)

    p = add("enumerate", "first points of a sector in a stated order",
            formats=("text", "json", "csv"))
    p.add_argument("--slope", required=True, help="R/S, R, or inf")
    p.add_argument("--order", required=True,
                   help="diagonal, reverse-diagonal, column-bottom-up, column-top-down, "
                        "block-bottom-up, block-top-down, residue-interleaved")
    p.add_argument("--count", required=True, type=_integer_option)

    p = add("verify", "check the packing property on a prefix of the sector")
    p.add_argument("--family", help="verify a built-in family")
    p.add_argument("--poly", help="verify a serialized polynomial (needs --slope)")
    p.add_argument("--slope", help="sector for --poly")
    p.add_argument("--prefix", type=_integer_option, default=1000)

    p = add("search", "exhaustive bounded coefficient search for packing candidates",
            default_format="json")
    p.add_argument("--slope", required=True)
    p.add_argument("--bound", type=_integer_option, default=4, help="half-integer coefficient bound")
    p.add_argument("--prefix", type=_integer_option, default=1000)
    p.add_argument("--degree", type=_integer_option, choices=(1, 2), default=2)
    p.add_argument("--workers", type=_integer_option, metavar="N",
                   help="worker processes, capped at one per CPU (the default)")
    p.epilog = ("Progress goes to stderr as 'search: N/M keys'.  A key is a pair of x^2 and "
                "xy numerators of the box, or, where one pair holds more candidates than a "
                "chunk, a finer key that fixes the y^2 numerator too (and more if needed).")

    p = add("basis", "free basis of the sector semigroup, if it exists")
    p.add_argument("--slope", required=True)

    p = add("transform", "print a named linear map (row-major), optionally applied to a point")
    p.add_argument("--family", required=True, metavar="MAP",
                   help="transform name: lambda:S, m:S, phi:S, or psi:R")
    p.add_argument("--point", help="apply the map to x,y instead of printing it")

    p = add("layout", "fill a sector array densely and dump offset,x,y",
            formats=("text", "json", "csv"), default_format="csv")
    p.add_argument("--family", required=True)
    p.add_argument("--count", required=True, type=_integer_option)

    return parser


def _decimal_digits(n: int) -> int:
    """len(str(abs(n))), without the conversion that the digit limit refuses."""
    n = abs(n)
    # a lower bound to start from, as log10(2) > 0.30102
    digits = max(1, (n.bit_length() - 1) * 30102 // 100000 + 1)
    while n >= 10 ** digits:
        digits += 1
    return digits


def _unprintable(x: int, y: int) -> SectorPackError:
    """The error for a point with a coordinate too long to print: the error
    that an argument that long gives."""
    limit = sys.get_int_max_str_digits()
    return _too_many_digits(next(digits for digits in map(_decimal_digits, (x, y))
                                 if digits > limit))


# The rows of a stream, one per point (x, y) or numbered point (n, (x, y)),
# made lazily.  Each format has its own literal f-string, the fastest way to
# format a row, in its own loop.

def _csv_rows(rows: Iterable[tuple[int, Point]]) -> Iterator[str]:
    for n, (x, y) in rows:
        try:
            piece = f"\n{n},{x},{y}"
        except ValueError:
            raise _unprintable(x, y) from None
        yield piece


def _text_points(points: Iterable[Point]) -> Iterator[str]:
    for x, y in points:
        try:
            piece = f"{x},{y}"
        except ValueError:
            raise _unprintable(x, y) from None
        yield piece


def _json_cells(rows: Iterable[tuple[int, Point]]) -> Iterator[str]:
    for n, (x, y) in rows:
        try:
            piece = f"[{n}, {x}, {y}]"
        except ValueError:
            raise _unprintable(x, y) from None
        yield piece


def _json_points(points: Iterable[Point]) -> Iterator[str]:
    for x, y in points:
        try:
            piece = f"[{x}, {y}]"
        except ValueError:
            raise _unprintable(x, y) from None
        yield piece


def _joined(sep: str, items: Iterable[str]) -> Iterator[str]:
    """The pieces of sep.join(items), made one item at a time."""
    items = iter(items)
    return chain(islice(items, 1), map(sep.__add__, items))


def _json_list(key: str, items: Iterable[str]) -> Iterator[str]:
    """The pieces of json.dumps({key: [...]}), given each element's json.dumps."""
    return chain((f'{{"{key}": [',), _joined(", ", items), ("]}",))


# Each command checks its arguments, then returns its output as pieces of text
# (one piece for a one-shot result) and the exit status.  The pieces may be made
# lazily: every check has run by the time main opens the output.  A one-shot
# result prints its integers through _digits (json prints an int as its str).

def _cmd_eval(args) -> tuple[Iterable[str], int]:
    family = parse_family(args.family)
    value = _digits(family.rank(parse_point(args.point)))
    if args.format == "json":
        return [f'{{"rank": {value}}}'], 0
    return [value], 0


def _point_result(key: str, point: tuple[int, int], fmt: str) -> tuple[Iterable[str], int]:
    x, y = map(_digits, point)
    if fmt == "json":
        return [f'{{"{key}": [{x}, {y}]}}'], 0
    return [f"{x},{y}"], 0


def _cmd_unrank(args) -> tuple[Iterable[str], int]:
    return _point_result("point", parse_family(args.family).unrank(args.rank), args.format)


def _cmd_enumerate(args) -> tuple[Iterable[str], int]:
    from .verify import iter_sector
    sector = Sector(parse_slope(args.slope))
    points = iter_sector(sector, _order_for(args.order), args.count)
    if args.format == "json":
        return _json_list("points", _json_points(points)), 0
    if args.format == "csv":
        return chain(("rank,x,y",), _csv_rows(enumerate(points))), 0
    return _joined("\n", _text_points(points)), 0


def _cmd_verify(args) -> tuple[Iterable[str], int]:
    from .verify import check_region, verify_packing
    if (args.family is None) == (args.poly is None):
        raise SectorPackError("verify needs exactly one of --family or --poly")
    if args.family is not None:
        if args.slope is not None:
            raise SectorPackError("--slope is for --poly; a family fixes its own sector")
        family = parse_family(args.family)
        check_region(family.sector, args.prefix, _REGION_LIMIT)  # before form: a branch per class
        candidate, sector = family.form, family.sector
    else:
        if args.slope is None:
            raise SectorPackError("--poly needs --slope")
        candidate, sector = deserialize(args.poly), Sector(parse_slope(args.slope))
        check_region(sector, args.prefix, _REGION_LIMIT)
    verdict = verify_packing(candidate, sector, args.prefix)
    status = 0 if verdict.ok else 3
    if args.format == "json":
        witness = list(verdict.witness) if verdict.witness is not None else None
        return [json.dumps({"ok": verdict.ok, "reason": verdict.reason, "witness": witness,
                            "column_bound": verdict.column_bound,
                            "points_examined": verdict.points_examined})], status
    return [("PASS " if verdict.ok else "FAIL ") + verdict.describe()], status


def _cmd_search(args) -> tuple[Iterable[str], int]:
    from .verify import check_region, linear_impossibility_check, search_quadratic
    sector = Sector(parse_slope(args.slope))
    check_region(sector, args.prefix, _REGION_LIMIT)

    # called once per key of the box swept, in order: a (k20, k11) pair, or finer
    # keys that fix k02 too (and more) where one pair holds more than a chunk can
    def progress(done, total):
        if done == total or done % max(1, total // 10) == 0:
            print(f"search: {done}/{total} keys", file=sys.stderr)

    run = search_quadratic if args.degree == 2 else linear_impossibility_check
    report = run(sector, args.bound, args.prefix, workers=args.workers, progress=progress)
    if args.format == "json":
        return [report.to_json()], 0
    lines = [f"sector {report.sector.slope}  degree {report.degree}  "
             f"bound {report.coeff_bound}  prefix {report.prefix}",
             f"survivors: {len(report.survivors)}"]
    lines.extend(f"  {f}" for f in report.survivors)
    lines.append(f"exhausted: {str(report.exhausted).lower()}")
    return ["\n".join(lines)], 0


def _cmd_basis(args) -> tuple[Iterable[str], int]:
    basis = Sector(parse_slope(args.slope)).free_basis()
    if args.format == "json":
        return [json.dumps({"basis": [list(w) for w in basis] if basis else None})], 0
    if basis is None:
        return ["none"], 0
    return [" ".join(f"({x},{y})" for x, y in basis)], 0


def _cmd_transform(args) -> tuple[Iterable[str], int]:
    m = parse_map(args.family)
    if args.point is not None:
        return _point_result("image", m.apply(parse_point(args.point)), args.format)
    rows = [_digits(v) for v in m.rows()]
    if args.format == "json":
        return [f'{{"matrix": [{", ".join(rows)}]}}'], 0
    return [" ".join(rows)], 0


def _cmd_layout(args) -> tuple[Iterable[str], int]:
    family = parse_family(args.family)
    check_fill_count(args.count)
    # rank is a bijection onto N0, so cell k of a dense layout holds the walk's k-th point
    rows = zip(range(args.count), family.walk())
    if args.format == "json":
        return _json_list("cells", _json_cells(rows)), 0
    return chain(("offset,x,y",), _csv_rows(rows)), 0


_COMMANDS = {
    "eval": _cmd_eval,
    "unrank": _cmd_unrank,
    "enumerate": _cmd_enumerate,
    "verify": _cmd_verify,
    "search": _cmd_search,
    "basis": _cmd_basis,
    "transform": _cmd_transform,
    "layout": _cmd_layout,
}


def _write(pieces: Iterable[str], handle) -> None:
    """Write the pieces and a final newline, joined in bounded batches."""
    pieces = chain(pieces, ("\n",))
    while batch := list(islice(pieces, _WRITE_BATCH)):
        handle.write("".join(batch))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        pieces, status = _COMMANDS[args.command](args)
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8") as handle:
                    _write(pieces, handle)
            except SectorPackError:
                os.remove(args.out)  # a stream that ends in an error leaves no part behind
                raise
            return status
        _write(pieces, sys.stdout)
        sys.stdout.flush()
    except SectorPackError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader has gone (say, `| head`): stop quietly, and point stdout
        # at devnull so that the interpreter's final flush does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _EXIT_PIPE_CLOSED
    return status


if __name__ == "__main__":
    sys.exit(main())
