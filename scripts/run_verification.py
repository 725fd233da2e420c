#!/usr/bin/env python3
"""Full verification battery at configurable scale.

Runs every check the package ships: structure counts against the closed
form, quotient isomorphism, the theorem suites over seeded instance
populations, the independent group-order cross-check, the perturbed
population, and the field-pair rigidity table.  Exit status 0 means every
section passed.  Stdout is the same bytes on every run of the same
arguments; the wall time goes to stderr.
"""

import argparse
import pathlib
import sys
import time

_src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
if _src not in sys.path:
    sys.path.insert(0, _src)

from grasspace.errors import GeometryError
from grasspace.field import SUPPORTED_ORDERS, field_make, monomorphisms_all_surjective
from grasspace.projspace import (
    build_space,
    gaussian_binomial,
    quotient,
    verify_projective_axioms,
)
from grasspace.rng import SEED_LIMIT
from grasspace.theorems import (
    InstanceKind,
    chow_crosscheck,
    one_way_shadow,
    population,
    verify_theorem1,
    verify_theorem2,
    verify_theorem3_preconditions,
)


def section(title):
    print(f"== {title}")


def check(label, ok):
    print(f"   {label}: {'PASS' if ok else 'FAIL'}")
    return ok


def run_counts():
    section("structure counts")
    ok = True
    for n, q in ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2)):
        sp = build_space(n, q)
        good = (
            len(sp.point_labels) == gaussian_binomial(n + 1, 1, q)
            and len(sp.line_sets) == gaussian_binomial(n + 1, 2, q)
        )
        counts = f"{len(sp.point_labels)} points {len(sp.line_sets)} lines"
        ok &= check(f"PG({n},{q}) {counts}", good)
    return ok


def run_quotients():
    section("quotient spaces of PG(3,2)")
    sp = build_space(3, 2)
    ok = True
    for q_point in sp.point_labels:
        # quotient() returns only a structure certified isomorphic to PG(2,2)
        try:
            ok &= verify_projective_axioms(quotient(sp, q_point)).passed
        except GeometryError:
            ok = False
    return check("all 15 quotients projective and isomorphic to PG(2,2)", ok)


def run_theorem_population(args):
    ok = True
    for (n, q), count in (((3, 2), args.samples_q2), ((3, 3), args.samples_q3)):
        section(f"theorem suites on PG({n},{q}), {count} instances per kind")
        sp = build_space(n, q)
        for kind in (InstanceKind.COLLINEATION, InstanceKind.DUALITY):
            good1 = good2 = True
            for _, _, lm in population(sp, count, args.seed, (kind,)):
                good1 &= verify_theorem1(lm).passed
                good2 &= verify_theorem2(lm).passed
            ok &= check(f"theorem 1, {kind.value} instances", good1)
            ok &= check(f"theorem 2, {kind.value} instances", good2)
    return ok


def run_crosscheck():
    section("independent group-order cross-check")
    report = chow_crosscheck(build_space(3, 2))
    for clause in report.clauses:
        tail = f" ({clause.witness})" if clause.witness else ""
        print(f"   {clause.clause}{tail}: {'PASS' if clause.passed else 'FAIL'}")
    return report.passed


def run_shadow(args):
    section(f"perturbed population, {args.shadow} instances")
    report = one_way_shadow(build_space(3, 2), args.shadow, base_seed=args.seed)
    print(
        f"   rejected {report.rejected}, isomorphisms {report.isomorphisms}, "
        f"counterexamples {len(report.counterexamples)}"
    )
    return check("no counterexample to one-way preservation", report.passed)


def run_field_rigidity():
    section("field monomorphism rigidity (orders <= 9)")
    ok = True
    for q1 in (q for q in SUPPORTED_ORDERS if q <= 9):
        row = []
        for q2 in (q for q in SUPPORTED_ORDERS if q <= 9):
            value = monomorphisms_all_surjective(
                field_make(q1).spec, field_make(q2).spec
            )
            row.append("surj" if value else "embed")
        print(f"   GF({q1}): {' '.join(f'{v:>5}' for v in row)}")
    sp32 = build_space(3, 2)
    ok &= check("preconditions on PG(3,2) self-pair", verify_theorem3_preconditions(sp32, sp32).passed)
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples-q2", type=int, default=100)
    parser.add_argument("--samples-q3", type=int, default=50)
    parser.add_argument("--shadow", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if min(args.samples_q2, args.samples_q3, args.shadow) < 1:
        parser.error("--samples-q2, --samples-q3 and --shadow must be at least 1")
    last = args.seed + max(args.samples_q2, args.samples_q3, args.shadow) - 1
    if args.seed < 0 or last >= SEED_LIMIT:
        parser.error(f"seeds {args.seed}..{last} leave [0, 2**64)")
    started = time.perf_counter()
    ok = run_counts()
    ok &= run_quotients()
    ok &= run_theorem_population(args)
    ok &= run_crosscheck()
    ok &= run_shadow(args)
    ok &= run_field_rigidity()
    print(f"== {'ALL SECTIONS PASS' if ok else 'FAILURES PRESENT'}")
    print(f"wall time {time.perf_counter() - started:.1f}s", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
