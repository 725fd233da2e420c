"""Acceptance gate: the eight shipping criteria, each with its runtime bound.

Every test prints one `CRITERION <k> ... PASS|FAIL (<seconds>)` line so a
verbose run doubles as the acceptance report.  Timing bounds come from the
published contract; correctness failures and budget overruns both fail.
"""

import time
from itertools import combinations

from grasspace.cli import line_map_from_grassmap, main, parse_grassmap, serialize_grassmap
from grasspace.field import SUPPORTED_ORDERS, field_make, monomorphisms_all_surjective
from grasspace.grassmann import automorphism_group, build_grassmann
from grasspace.maps import (
    KappaStatus,
    collineation_point_map,
    duality_point_to_plane,
    noncollinear_witness,
    reconstruct_point_map,
)
from grasspace.projspace import (
    build_space,
    gaussian_binomial,
    quotient,
    star,
    verify_projective_axioms,
)
from grasspace.theorems import (
    InstanceKind,
    chow_crosscheck,
    one_way_shadow,
    population,
    sample_collineation,
    sample_duality,
    theorem2_predicates,
    verify_theorem1,
)

from oracles import enumerate_monomorphisms, incidence_isomorphic

_POOL = {}


def instance_pool():
    """Seeded instances shared by criteria 3 and 4: 100+100 on PG(3,2),
    50+50 on PG(3,3)."""
    if not _POOL:
        for (n, q), count in (((3, 2), 100), ((3, 3), 50)):
            sp = build_space(n, q)
            entries = []
            for kind in (InstanceKind.COLLINEATION, InstanceKind.DUALITY):
                entries.extend(population(sp, count, 0, (kind,)))
            _POOL[(n, q)] = (sp, entries)
    return _POOL


def report(number, label, ok, elapsed, bound):
    ok = ok and elapsed < bound
    print(f"CRITERION {number} {label}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)")
    return ok


def test_criterion_1_structure_counts():
    started = time.perf_counter()
    ok = True
    for n, q, points, lines in ((3, 2, 15, 35), (3, 3, 40, 130), (4, 2, 31, 155)):
        t0 = time.perf_counter()
        sp = build_space.__wrapped__(n, q)
        single = time.perf_counter() - t0
        ok = ok and single < 1.0
        ok = ok and len(sp.point_labels) == points == gaussian_binomial(n + 1, 1, q)
        ok = ok and len(sp.line_sets) == lines == gaussian_binomial(n + 1, 2, q)
    elapsed = time.perf_counter() - started
    assert report(1, "structure counts", ok, elapsed, 3.0)


def test_criterion_2_quotient_isomorphism():
    started = time.perf_counter()
    sp = build_space.__wrapped__(3, 2)
    reference = build_space(2, 2)
    ok = True
    for q_point in range(15):
        inc = quotient(sp, q_point)
        ok = ok and verify_projective_axioms(inc).passed
        ok = ok and incidence_isomorphic(inc, reference) is not None
    elapsed = time.perf_counter() - started
    assert report(2, "quotient isomorphism", ok, elapsed, 1.0)


def test_criterion_3_theorem1_suite():
    started = time.perf_counter()
    ok = True
    for sp, entries in instance_pool().values():
        for kind, seed, lm in entries:
            result = verify_theorem1(lm)
            ok = ok and result.passed
            kappa = reconstruct_point_map(lm)
            if kind is InstanceKind.COLLINEATION:
                ok = ok and kappa.status is KappaStatus.INDUCED_INTO_TARGET
                expected = collineation_point_map(
                    sample_collineation(sp, seed), sp, sp
                ).image
            else:
                ok = ok and kappa.status is KappaStatus.INDUCED_INTO_DUAL
                expected = duality_point_to_plane(sample_duality(sp, seed), sp, sp)
            ok = ok and kappa.kappa.image == expected
            if not ok:
                break
    elapsed = time.perf_counter() - started
    assert report(3, "theorem 1 suite", ok, elapsed, 30.0)


def test_criterion_4_theorem2_chain_and_witnesses():
    pool = instance_pool()
    started = time.perf_counter()
    ok = True
    for sp, entries in pool.values():
        for _, _, lm in entries:
            preds = theorem2_predicates(lm)
            ok = ok and preds == (True, True, True, True)
            if not ok:
                break
    for key in ((3, 2), (3, 3)):
        sp, _ = pool[key]
        for q_point in range(len(sp.point_labels)):
            struct = quotient(sp, q_point)
            for a, b, c in combinations(star(sp, q_point), 3):
                witness = noncollinear_witness(sp, q_point, a, b, c)
                ok = ok and (witness is None) == struct.collinear(a, b, c)
            if not ok:
                break
    elapsed = time.perf_counter() - started
    assert report(4, "theorem 2 chain + witnesses", ok, elapsed, 60.0)


def test_criterion_5_chow_crosscheck():
    started = time.perf_counter()
    sp = build_space(3, 2)
    aut = automorphism_group(build_grassmann(sp))
    result = chow_crosscheck(sp)
    by_clause = {c.clause: c for c in result.clauses}
    ok = (
        aut.group_order == 40320
        and by_clause["group_order"].witness == "40320"
        and result.passed
    )
    elapsed = time.perf_counter() - started
    assert report(5, "Chow cross-check", ok, elapsed, 300.0)


def test_criterion_6_perturbed_population():
    started = time.perf_counter()
    shadow = one_way_shadow(build_space(3, 2), 10_000, base_seed=0)
    ok = (
        shadow.instances == 10_000
        and shadow.counterexamples == ()
        and shadow.rejected + shadow.isomorphisms == 10_000
    )
    elapsed = time.perf_counter() - started
    assert report(6, "perturbed population", ok, elapsed, 300.0)


def test_criterion_7_monomorphism_condition():
    started = time.perf_counter()
    orders = [q for q in SUPPORTED_ORDERS if q <= 9]
    ok = len(orders) == 7
    for q1 in orders:
        for q2 in orders:
            f1, f2 = field_make(q1), field_make(q2)
            monos = enumerate_monomorphisms(f1, f2)
            oracle = all(len(set(m.values())) == q2 for m in monos)
            ok = ok and monomorphisms_all_surjective(f1.spec, f2.spec) == oracle
    elapsed = time.perf_counter() - started
    assert report(7, "monomorphism surjectivity", ok, elapsed, 10.0)


def test_criterion_8_determinism(tmp_path, capsys):
    started = time.perf_counter()
    paths = [tmp_path / "a.grassmap", tmp_path / "b.grassmap"]
    for path in paths:
        code = main(
            ["gen", "-n", "3", "-q", "2", "--kind", "duality", "--seed", "99",
             "--out", str(path)]
        )
        assert code == 0
    first, second = (p.read_bytes() for p in paths)
    ok = first == second

    text = first.decode("utf-8")
    rebuilt = line_map_from_grassmap(parse_grassmap(text))
    ok = ok and serialize_grassmap(rebuilt) == text

    outputs = []
    for _ in range(2):
        code = main(["check", str(paths[0])])
        outputs.append((code, capsys.readouterr().out))
    ok = ok and outputs[0] == outputs[1] and outputs[0][0] == 0
    elapsed = time.perf_counter() - started
    assert report(8, "byte determinism", ok, elapsed, 10.0)
