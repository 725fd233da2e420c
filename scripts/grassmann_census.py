#!/usr/bin/env python3
"""Census of Grassmann line graphs over small projective spaces.

For each space the script prints the basic counts, the expected
automorphism order of the intersection graph (factorial for planes where
the graph is complete, twice the collineation order in dimension 3 where
dualities join in, the collineation order alone above that), the order
found by the exact search, and the geometric order: that of the group the
collineation generators (plus the identity duality in dimension 3)
generate on lines, from a stabiliser chain (`-` for planes).  A row
matches only if all three agree; a mismatch would falsify the
classification of adjacency-preserving bijections on one of these
instances.
"""

import argparse
import math
import pathlib
import re
import sys

_src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
if _src not in sys.path:
    sys.path.insert(0, _src)

from grasspace.errors import BudgetExceeded, TooLarge
from grasspace.field import SUPPORTED_ORDERS
from grasspace.grassmann import DEFAULT_NODE_BUDGET, automorphism_group, build_grassmann
from grasspace.projspace import build_space
from grasspace.theorems import geometric_orders, pgammal_order

DEFAULT_CASES = ["2,2", "2,3", "2,4", "2,5", "3,2", "3,3", "4,2"]


def expected_order(n, q, line_count):
    if n == 2:
        return math.factorial(line_count)
    if n == 3:
        return 2 * pgammal_order(n, q)
    return pgammal_order(n, q)


def geometric_order(sp):
    if sp.n == 2:
        return None
    return geometric_orders(sp)[2]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--cases",
        nargs="*",
        default=DEFAULT_CASES,
        help="space parameters as n,q pairs",
    )
    parser.add_argument(
        "--budget", type=int, default=DEFAULT_NODE_BUDGET, help="search node budget"
    )
    args = parser.parse_args(argv)
    cases = []
    for case in args.cases:
        pair = re.fullmatch("([0-9]+),([0-9]+)", case)
        if not pair or int(pair[1]) < 2 or int(pair[2]) not in SUPPORTED_ORDERS:
            parser.error(f"case {case!r} is not n,q with n >= 2 and q a supported order")
        cases.append((int(pair[1]), int(pair[2])))

    header = (
        f"{'space':>9} {'points':>6} {'lines':>6} {'degree':>6} {'edges':>7} "
        f"{'aut':>22} {'expected':>22} {'geometric':>22} match"
    )
    print(header)
    failures = 0
    for n, q in cases:
        sp = build_space(n, q)
        masks = build_grassmann(sp)
        degree = masks[0].bit_count()  # build_grassmann checks every row has it
        edges = sum(m.bit_count() for m in masks) // 2
        expected = expected_order(n, q, len(sp.line_sets))
        geometric = geometric_order(sp)
        geometric_text = "-" if geometric is None else str(geometric)
        geometric_ok = geometric in (None, expected)
        try:
            found = automorphism_group(masks, node_budget=args.budget).group_order
            match = "yes" if found == expected and geometric_ok else "NO"
            found_text = str(found)
        except (TooLarge, BudgetExceeded) as exc:
            found_text = "-"
            match = f"skipped ({exc.__class__.__name__})" if geometric_ok else "NO"
        failures += match == "NO"
        print(
            f"{f'PG({n},{q})':>9} {len(sp.point_labels):>6} {len(sp.line_sets):>6} "
            f"{degree:>6} {edges:>7} {found_text:>22} {expected:>22} "
            f"{geometric_text:>22} {match}"
        )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
