"""Command line front end and the bit-exact interchange formats.

Exit codes: 0 success (for `check`: full isomorphism), 1 checked and
negative, 2 bad parameters, 3 I/O failure, 4 parse error, 5 search budget
exhausted.

GRASSMAP format (UTF-8, LF endings):

    GRASSMAP 1
    SOURCE PG <n> <q>
    TARGET PG <n'> <q'> [DUAL]
    MAP
    <src-line-id> <tgt-line-id>     one row per source line, ids ascending
    END

Ids refer to the canonical orders documented in `projspace`.  The DUAL
token marks maps whose images are meant as lines of the target's dual
space.
"""

import argparse
import dataclasses
import sys

from .errors import (
    BudgetExceeded,
    DimensionTooSmall,
    FormatError,
    IncompatibleSpaces,
    TooLarge,
    UnsupportedDimension,
    UnsupportedOrder,
)
from .grassmann import (
    DEFAULT_NODE_BUDGET,
    MAX_AUT_VERTICES,
    automorphism_group,
    build_grassmann,
    export_graph,
    parse_id,
)
from .maps import (
    LineMap,
    preserves_intersections,
    preserves_skewness,
    reconstruct_point_map,
)
from .projspace import (
    build_space,
    gaussian_binomial,
    star,
)
from .theorems import (
    InstanceGenerator,
    InstanceKind,
    chow_crosscheck,
    generate_instance,
    verify_population,
    verify_theorem1,
    verify_theorem2,
    verify_theorem3_preconditions,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_PARAMS = 2
EXIT_IO = 3
EXIT_PARSE = 4
EXIT_BUDGET = 5

MAX_CHECK_LINES = 2000


@dataclasses.dataclass(frozen=True)
class GrassmapFile:
    source_n: int
    source_q: int
    target_n: int
    target_q: int
    dual: bool
    image: tuple  # image[src]: the target id on row src, as a `LineMap` takes it


def serialize_grassmap(lm: LineMap) -> str:
    dual = " DUAL" if lm.dual else ""
    head = [
        "GRASSMAP 1",
        f"SOURCE PG {lm.source.n} {lm.source.q}",
        f"TARGET PG {lm.target.n} {lm.target.q}{dual}",
        "MAP",
    ]
    rows = [f"{src} {tgt}" for src, tgt in enumerate(lm.image)]
    return "\n".join(head + rows + ["END"]) + "\n"


def _parse_space_header(row, lineno, label):
    parts = row.split(" ")
    if len(parts) < 4 or parts[0] != label or parts[1] != "PG":
        raise FormatError(lineno, f"expected '{label} PG <n> <q>', got {row!r}")
    return parse_id(parts[2], lineno), parse_id(parts[3], lineno), parts


def parse_grassmap(text: str) -> GrassmapFile:
    """Strict parse of the GRASSMAP format; FormatError carries the
    1-based line number of the first deviation."""
    rows = text.split("\n")
    if rows and rows[-1] == "":
        rows.pop()
    if len(rows) < 5:
        raise FormatError(max(1, len(rows)), "truncated file")
    if rows[0] != "GRASSMAP 1":
        raise FormatError(1, f"expected 'GRASSMAP 1', got {rows[0]!r}")
    sn, sq, sparts = _parse_space_header(rows[1], 2, "SOURCE")
    if len(sparts) != 4:
        raise FormatError(2, "unexpected tokens after SOURCE parameters")
    tn, tq, tparts = _parse_space_header(rows[2], 3, "TARGET")
    if len(tparts) == 5 and tparts[4] == "DUAL":
        dual = True
    elif len(tparts) == 4:
        dual = False
    else:
        raise FormatError(3, "unexpected tokens after TARGET parameters")
    if rows[3] != "MAP":
        raise FormatError(4, f"expected 'MAP', got {rows[3]!r}")
    if rows[-1] != "END":
        raise FormatError(len(rows), "missing END line")
    image = []
    for lineno, row in enumerate(rows[4:-1], start=5):
        parts = row.split(" ")
        if len(parts) != 2:
            raise FormatError(lineno, f"expected '<src> <tgt>', got {row!r}")
        src, tgt = parse_id(parts[0], lineno), parse_id(parts[1], lineno)
        if src != len(image):
            raise FormatError(lineno, f"source ids must ascend from 0, got {src}")
        image.append(tgt)
    return GrassmapFile(sn, sq, tn, tq, dual, tuple(image))


def line_map_from_grassmap(gf: GrassmapFile) -> LineMap:
    """Materialize a parsed file against real spaces.

    Row-count or id-range mismatches against the declared headers are
    parse-level failures; unsupported space parameters raise the usual
    construction errors.
    """
    if gf.dual and gf.target_n != 3:
        raise FormatError(3, "DUAL requires a 3-dimensional target")
    source = build_space(gf.source_n, gf.source_q)
    target = build_space(gf.target_n, gf.target_q)
    expected = len(source.line_sets)
    if len(gf.image) != expected:
        found = len(gf.image)
        raise FormatError(5 + min(found, expected), f"expected {expected} map rows, found {found}")
    limit = len(target.line_sets)
    for src, tgt in enumerate(gf.image):
        if tgt >= limit:
            raise FormatError(5 + src, f"target id {tgt} out of range ({limit} lines)")
    return LineMap(source, target, gf.image, gf.dual)


def cmd_stats(args) -> int:
    sp = build_space(args.n, args.q)
    row = 0  # line 0's row of the line graph, as `build_grassmann` builds it
    for p in sp.line_sets[0]:
        row |= sp.star_bits[p]
    # the pencil at 0 in the plane of 0, a and b: 0 joined to each point of a|b
    a, b = (min(sp.line_sets[l] - {0}) for l in sp.lines_through[0][:2])
    pencil_size = len({sp.line_through(0, y) for y in sp.line_sets[sp.line_through(a, b)]})
    print(f"points {len(sp.point_labels)}")
    print(f"lines {len(sp.line_sets)}")
    print(f"star {len(star(sp, 0))}")
    print(f"pencil {pencil_size}")
    print(f"degree {(row & ~1).bit_count()}")
    return EXIT_OK


def _emit(text, out) -> int:
    """Write text to the --out path, or to stdout without one."""
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_graph(args) -> int:
    return _emit(export_graph(build_grassmann(build_space(args.n, args.q))), args.out)


def cmd_aut(args) -> int:
    sp = build_space(args.n, args.q)
    count = len(sp.line_sets)
    if count > MAX_AUT_VERTICES:  # before the graph is built
        raise TooLarge(f"{count} vertices exceeds the {MAX_AUT_VERTICES} limit")
    report = automorphism_group(build_grassmann(sp), node_budget=args.budget)
    print(report.group_order)
    return EXIT_OK


def cmd_gen(args) -> int:
    sp = build_space(args.n, args.q)
    gen = InstanceGenerator(seed=args.seed, kind=InstanceKind(args.kind))
    return _emit(serialize_grassmap(generate_instance(gen, sp, sp)), args.out)


def cmd_check(args) -> int:
    with open(args.input, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(data.count(b"\n", 0, exc.start) + 1, "not UTF-8") from exc
    gf = parse_grassmap(text)
    for n, q in ((gf.source_n, gf.source_q), (gf.target_n, gf.target_q)):
        too_large = max(n, q) >= MAX_CHECK_LINES  # PG(n, q) has more lines than n or q
        if n >= 2 and q >= 2 and (too_large or gaussian_binomial(n + 1, 2, q) > MAX_CHECK_LINES):
            raise TooLarge(
                f"PG({n},{q}) exceeds the {MAX_CHECK_LINES}-line checking limit"
            )
    lm = line_map_from_grassmap(gf)
    bijective = lm.is_bijective()
    intersections = preserves_intersections(lm)
    skew_preserved = preserves_skewness(lm)
    print(f"BIJECTIVE {'yes' if bijective else 'no'}")
    print(f"PRESERVES-INTERSECTIONS {'yes' if intersections else 'no'}")
    print(f"PRESERVES-SKEW {'yes' if skew_preserved else 'no'}")
    if not (bijective and intersections):
        print("KAPPA - -")
        return EXIT_NEGATIVE
    report = reconstruct_point_map(lm)
    if report.kappa is None:
        print(f"KAPPA {report.status.value} -")
        return EXIT_NEGATIVE
    print(f"KAPPA {report.status.value} {report.kind.value}")
    return EXIT_OK if skew_preserved else EXIT_NEGATIVE


def cmd_verify(args) -> int:
    sp = build_space(args.n, args.q)
    if args.suite == "thm3":
        report = verify_theorem3_preconditions(sp, sp)
    elif args.suite == "chow":
        report = chow_crosscheck(sp, node_budget=args.budget)
        for c in report.clauses:
            if c.clause in ("graph_order", "group_order"):
                print(f"{c.clause} {c.witness}")
    else:
        if args.samples < 1:
            raise ValueError(f"--samples must be at least 1, got {args.samples}")
        verify = verify_theorem1 if args.suite == "thm1" else verify_theorem2
        report = verify_population(sp, verify, args.samples, args.seed)
    print(report.render())
    return EXIT_OK if report.passed else EXIT_NEGATIVE


def _add_space_args(parser):
    parser.add_argument("-n", type=int, required=True, help="projective dimension")
    parser.add_argument("-q", type=int, required=True, help="field order")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grasspace",
        description="finite projective spaces, Grassmann line graphs, and "
        "verification of the line-map isomorphism theorems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="recomputed structure counts")
    _add_space_args(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("graph", help="export the Grassmann graph")
    _add_space_args(p)
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("aut", help="exact Grassmann-graph automorphism order")
    _add_space_args(p)
    p.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_NODE_BUDGET,
        help="search node budget",
    )
    p.set_defaults(func=cmd_aut)

    p = sub.add_parser("gen", help="generate a seeded line-map instance")
    _add_space_args(p)
    p.add_argument(
        "--kind",
        required=True,
        choices=[k.value for k in InstanceKind],
        help="instance family",
    )
    p.add_argument("--seed", type=int, default=0, help="64-bit instance seed")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("check", help="classify a GRASSMAP file")
    p.add_argument("input", help="path of the GRASSMAP file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("verify", help="run a theorem verification suite")
    p.add_argument(
        "--suite", required=True, choices=["thm1", "thm2", "thm3", "chow"]
    )
    _add_space_args(p)
    p.add_argument(
        "--samples",
        type=int,
        default=100,
        help="instances per kind (collineation seeds start at --seed, "
        "duality seeds at --seed + samples)",
    )
    p.add_argument("--seed", type=int, default=0, help="base seed")
    p.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_NODE_BUDGET,
        help="search node budget (chow suite)",
    )
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_PARAMS
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (
        UnsupportedOrder,
        DimensionTooSmall,
        UnsupportedDimension,
        IncompatibleSpaces,
        TooLarge,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMS
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
