"""The benchmark's four proof jobs and the verdicts each must reach.

A job starts from the state a fresh ``grasspace`` command has: it clears the
space cache and builds its own spaces, so every per-space cache (planes,
quotients, dual, Grassmann graph) is rebuilt and paid for inside the job.
GF(q) tables are process-global and belong to set-up.

Every verdict is compared with values fixed in this file, never with values
the program computes.  The program is called through its module attributes
at call time, so the wrappers of a traced run see every call.
"""

import dataclasses
import random
import time
import weakref

from grasspace import cli, grassmann, projspace, theorems
from grasspace.theorems import InstanceGenerator, InstanceKind

_clear_spaces = projspace.build_space.cache_clear

# Closed-form orders of the Grassmann-graph automorphism groups:
# |PGammaL(4,2)| = 20160 and |PGammaL(4,3)| = 12130560, each doubled by the
# dualities, and |PGammaL(5,2)| = 9999360, with no duality in dimension 4.
GROUP_ORDERS = {(3, 2): 40320, (3, 3): 24261120, (4, 2): 9999360}
CHOW_ORDER = "40320"
# PG(3,2) has 35 lines, each meeting 18 others.
PG32_GRAPH = (35, 35 * 18 // 2)


@dataclasses.dataclass
class JobResult:
    """What one job measured and found.

    ``summary`` lists the verdict facts in order; equal inputs must give an
    equal summary, traced or not.  ``spaces`` holds weak references, so the
    result itself keeps no space alive.
    """

    instance_s: list = dataclasses.field(default_factory=list)
    problems: list = dataclasses.field(default_factory=list)
    summary: list = dataclasses.field(default_factory=list)
    spaces: list = dataclasses.field(default_factory=list)
    aut_reports: list = dataclasses.field(default_factory=list)

    @property
    def ok(self):
        return not self.problems

    def expect(self, condition, problem):
        if not condition:
            self.problems.append(problem)

    def fresh_space(self, n, q):
        sp = projspace.build_space(n, q)
        self.spaces.append(weakref.ref(sp))
        return sp


def _verify_seeds(base, count):
    """Instance seeds laid out like ``grasspace verify``: a block of
    collineation seeds, then a block of duality seeds."""
    for block, kind in enumerate((InstanceKind.COLLINEATION, InstanceKind.DUALITY)):
        for i in range(count):
            yield kind, base + block * count + i


def _theorem_population(base, n, q, count, verifiers):
    out = JobResult()
    _clear_spaces()
    sp = out.fresh_space(n, q)
    for kind, seed in _verify_seeds(base, count):
        started = time.perf_counter()
        lm = theorems.generate_instance(InstanceGenerator(seed, kind), sp, sp)
        reports = [verify(lm) for verify in verifiers]
        out.instance_s.append(time.perf_counter() - started)
        for report in reports:
            text = report.render()
            out.summary.append(text)
            out.expect(report.clauses and report.passed, f"{kind.value} seed {seed}: {text}")
    return out


def suites_pg33(base, count=20):
    """Suites 1 and 2 on a collineation and a duality population of PG(3,3)."""
    return _theorem_population(
        base, 3, 3, count, (theorems.verify_theorem1, theorems.verify_theorem2)
    )


def suite1_pg34(base, count=3):
    """Suite 1 on a small collineation and duality population of PG(3,4)."""
    return _theorem_population(base, 3, 4, count, (theorems.verify_theorem1,))


def groups_pg32(base):
    """Exact Grassmann-graph group orders of PG(3,2), PG(3,3) and PG(4,2),
    then the Chow cross-check on PG(3,2).

    There is no random input: the seed only orders the three searches.
    """
    out = JobResult()
    _clear_spaces()
    order = sorted(GROUP_ORDERS)
    random.Random(base).shuffle(order)
    for n, q in order:
        started = time.perf_counter()
        sp = out.fresh_space(n, q)
        report = grassmann.automorphism_group(grassmann.build_grassmann(sp))
        out.instance_s.append(time.perf_counter() - started)
        out.aut_reports.append(report)
        out.summary.append(f"PG({n},{q}) order {report.group_order}")
        out.expect(
            report.group_order == GROUP_ORDERS[(n, q)],
            f"PG({n},{q}) group order {report.group_order}, expected {GROUP_ORDERS[(n, q)]}",
        )
    started = time.perf_counter()
    chow = theorems.chow_crosscheck(projspace.build_space(3, 2))
    out.instance_s.append(time.perf_counter() - started)
    text = chow.render()
    out.summary.append(text)
    witness = {c.clause: c.witness for c in chow.clauses}
    out.expect(
        len(chow.clauses) == 5
        and chow.passed
        and witness.get("graph_order") == CHOW_ORDER
        and witness.get("group_order") == CHOW_ORDER
        and witness.get("order_match") == f"{CHOW_ORDER} vs {CHOW_ORDER}",
        f"Chow cross-check on PG(3,2): {text}",
    )
    return out


def _graph_text(v_count, edges):
    """The GRAPH format rendered from parsed values, for the byte comparison."""
    return "".join([f"GRAPH {v_count} {len(edges)}\n"] + [f"{u} {v}\n" for u, v in edges])


def screen_pg32(base, count=10_000, roundtrips=10):
    """The perturbed population of PG(3,2) through ``one_way_shadow``, one
    instance per call, plus GRASSMAP round trips of each instance kind and
    a GRAPH round trip."""
    out = JobResult()
    _clear_spaces()
    sp = out.fresh_space(3, 2)
    rejected = isomorphisms = 0
    counterexamples = []
    for i in range(count):
        started = time.perf_counter()
        report = theorems.one_way_shadow(sp, 1, base_seed=base + i)
        out.instance_s.append(time.perf_counter() - started)
        rejected += report.rejected
        isomorphisms += report.isomorphisms
        counterexamples.extend(report.counterexamples)
    out.summary.append(f"rejected {rejected} isomorphisms {isomorphisms}")
    out.expect(not counterexamples, f"counterexamples at seeds {counterexamples[:8]}")
    out.expect(
        rejected + isomorphisms == count,
        f"rejected {rejected} + isomorphisms {isomorphisms} != {count} instances",
    )

    seed = base + count
    for kind in InstanceKind:
        for _ in range(roundtrips):
            started = time.perf_counter()
            lm = theorems.generate_instance(InstanceGenerator(seed, kind), sp, sp)
            text = cli.serialize_grassmap(lm)
            back = cli.line_map_from_grassmap(cli.parse_grassmap(text))
            again = cli.serialize_grassmap(back)
            out.instance_s.append(time.perf_counter() - started)
            out.summary.append(again)
            out.expect(
                again == text and back.image == lm.image and back.dual == lm.dual,
                f"GRASSMAP round trip differs for {kind.value} seed {seed}",
            )
            seed += 1

    started = time.perf_counter()
    text = grassmann.export_graph(grassmann.build_grassmann(sp))
    v_count, edges = grassmann.parse_graph(text)
    again = _graph_text(v_count, edges)
    out.instance_s.append(time.perf_counter() - started)
    out.summary.append(again)
    out.expect(
        again == text and (v_count, len(edges)) == PG32_GRAPH,
        f"GRAPH round trip of PG(3,2) gives {v_count} vertices, {len(edges)} edges",
    )
    return out


@dataclasses.dataclass(frozen=True)
class Workload:
    job: object
    field_orders: tuple  # GF(q) tables the jobs use, built during set-up


WORKLOADS = {
    "suites-pg33": Workload(suites_pg33, (3,)),
    "suite1-pg34": Workload(suite1_pg34, (4,)),
    "groups-pg32": Workload(groups_pg32, (2, 3)),
    "screen-pg32": Workload(screen_pg32, (2,)),
}
