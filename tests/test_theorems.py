import collections
import hashlib
import math
import types

import pytest
from hypothesis import example, given, settings, strategies as st

from grasspace import maps, projspace, theorems
from grasspace.errors import (
    DimensionTooSmall,
    IncompatibleSpaces,
    PreconditionViolated,
    TooLarge,
    UnsupportedDimension,
)
from grasspace.field import field_make
from grasspace.maps import (
    Collineation,
    KappaStatus,
    LineMap,
    check_properties,
    classify_point_map,
    collineation_point_map,
    duality_line_map,
    induced_line_map,
    preserves_intersections,
    reconstruct_point_map,
    restrict_to_star,
)
from grasspace.projspace import (
    IncidenceStructure,
    build_space,
    dual_space,
    polarity,
    star_native,
)
from grasspace.rng import INCREMENT, SplitMix64
from grasspace.theorems import (
    ClauseVerdict,
    InstanceGenerator,
    InstanceKind,
    StabiliserChain,
    TheoremReport,
    _sample_semilinear,
    all_collineation_line_perms,
    chow_crosscheck,
    collineation_generators,
    duality_generator,
    generate_instance,
    geometric_orders,
    one_way_shadow,
    pgammal_order,
    pgl_order,
    population,
    sample_collineation,
    sample_duality,
    theorem2_predicates,
    verify_population,
    verify_theorem1,
    verify_theorem2,
    verify_theorem3_preconditions,
)

from oracles import invertible_matrix_count, whole_matrix_sample


def det2(f, m):
    return f.sub(f.mul(m[0][0], m[1][1]), f.mul(m[0][1], m[1][0]))


@pytest.mark.parametrize(
    "n,p",
    [(1, 2), (1, 3), (2, 2), (1, 5)],
)
def test_pgl_order_matches_matrix_enumeration(n, p):
    gl = invertible_matrix_count(n + 1, p)
    assert pgl_order(n, p) == gl // (p - 1)


def test_pgl_order_gf4_by_determinant():
    f = field_make(4)
    from itertools import product

    gl = sum(
        1
        for entries in product(range(4), repeat=4)
        if det2(f, (entries[:2], entries[2:])) != 0
    )
    assert gl == 180
    assert pgl_order(1, 4) == 180 // 3 == 60


def test_pgammal_order_values():
    assert pgl_order(3, 2) == 20160
    assert pgammal_order(3, 2) == 20160
    assert pgammal_order(1, 4) == 120
    assert pgammal_order(2, 9) == 2 * pgl_order(2, 9)
    assert pgammal_order(3, 3) == pgl_order(3, 3)


def test_splitmix_reference_stream():
    rng = SplitMix64(0)
    first = [rng.below(2**64) for _ in range(3)]
    assert first == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]
    rng = SplitMix64(0)
    assert [rng.below(10) for _ in range(3)] == [v % 10 for v in first]
    rng = SplitMix64(12345)
    assert all(0 <= rng.below(7) < 7 for _ in range(100))


@given(seed=st.integers(0, 2**64 - 1), n=st.integers(1, 2**64), count=st.integers(0, 40))
def test_draws_are_repeated_below(seed, n, count):
    batch, single = SplitMix64(seed), SplitMix64(seed)
    assert batch.draws(n, count) == [single.below(n) for _ in range(count)]
    assert batch.state == single.state


@given(seed=st.integers(0, 2**64 - 1), count=st.integers(0, 40))
def test_skip_is_repeated_full_width_draws(seed, count):
    skipped, stepped = SplitMix64(seed), SplitMix64(seed)
    skipped.skip(count)
    for _ in range(count):
        stepped.below(2**64)
    assert skipped.state == stepped.state


def test_skip_wraps_and_refuses_negative_counts():
    rng = SplitMix64(2**64 - 1)
    rng.skip(1)
    assert rng.state == INCREMENT - 1
    rng.skip(2**64)  # 2**64 increments add a multiple of 2**64
    assert rng.state == INCREMENT - 1
    with pytest.raises(ValueError, match="count >= 0"):
        rng.skip(-1)
    assert rng.state == INCREMENT - 1


@pytest.mark.parametrize("seed", [True, False, 1.0, 0.0, "1"])
def test_seeds_must_be_ints(seed):
    with pytest.raises(ValueError, match="no int"):
        SplitMix64(seed)


@pytest.mark.parametrize(
    "call",
    [
        lambda rng: rng.below(2.5),
        lambda rng: rng.below(True),
        lambda rng: rng.below(0),
        lambda rng: rng.draws(2.0, 3),
        lambda rng: rng.draws(2, -1),
        lambda rng: rng.draws(2, 1.0),
        lambda rng: rng.draws(2, True),
        lambda rng: rng.skip(1.0),
        lambda rng: rng.skip(True),
    ],
    ids=["below-float", "below-bool", "below-zero", "draws-float-bound", "draws-negative",
         "draws-float-count", "draws-bool-count", "skip-float", "skip-bool"],
)
def test_bounds_and_counts_must_be_ints(call):
    rng = SplitMix64(7)
    with pytest.raises(ValueError, match="int"):
        call(rng)
    assert rng.state == 7  # a refused call draws nothing
    assert rng.draws(10, 0) == [] and rng.state == 7


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
@pytest.mark.parametrize("n", [2, 3, 4])
@given(seed=st.integers(0, 2**64 - 1))
@example(seed=2**64 - 1)
@settings(max_examples=40, deadline=None)
def test_row_sampler_matches_the_whole_matrix_oracle(q, n, seed):
    f = field_make(q)
    matrix, auto_index, rng = _sample_semilinear(f, n, seed)
    want, want_index, want_rng = whole_matrix_sample(f, n, seed)
    assert (matrix, auto_index, rng.state) == (want, want_index, want_rng.state)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seeds_outside_64_bits_are_rejected(pg32, seed):
    with pytest.raises(ValueError, match="outside"):
        SplitMix64(seed)
    with pytest.raises(ValueError, match="outside"):
        generate_instance(InstanceGenerator(seed, InstanceKind.COLLINEATION), pg32, pg32)


def test_population_seeds_stay_in_64_bits(pg32):
    assert one_way_shadow(pg32, 2, base_seed=2**64 - 2).instances == 2
    for count, base in ((2, 2**64 - 1), (1, -1)):
        with pytest.raises(ValueError, match="leave"):
            one_way_shadow(pg32, count, base_seed=base)
    kinds = (InstanceKind.COLLINEATION, InstanceKind.DUALITY)
    with pytest.raises(ValueError, match="leave"):
        population(pg32, 3, 2**64 - 5, kinds)
    assert [s for _, s, _ in population(pg32, 3, 2**64 - 6, kinds)][-1] == 2**64 - 1


def test_generate_instance_is_deterministic(pg32):
    for kind in InstanceKind:
        a = generate_instance(InstanceGenerator(5, kind), pg32, pg32)
        b = generate_instance(InstanceGenerator(5, kind), pg32, pg32)
        assert a.image == b.image
        assert a.dual == b.dual
    a = generate_instance(InstanceGenerator(5, InstanceKind.COLLINEATION), pg32, pg32)
    b = generate_instance(InstanceGenerator(6, InstanceKind.COLLINEATION), pg32, pg32)
    assert a.image != b.image


def test_perturbed_differs_from_parent_by_transposition(pg32):
    parent = generate_instance(
        InstanceGenerator(9, InstanceKind.COLLINEATION), pg32, pg32
    )
    perturbed = generate_instance(
        InstanceGenerator(9, InstanceKind.PERTURBED), pg32, pg32
    )
    diff = [l for l in range(35) if parent.image[l] != perturbed.image[l]]
    assert len(diff) == 2
    i, j = diff
    assert parent.image[i] == perturbed.image[j]
    assert parent.image[j] == perturbed.image[i]


def _composed_instance(kind, seed, sp):
    """(image, dual) of a seeded instance joined from its parts: the sampled
    collineation's induced line map, for a perturbed instance with the two
    line ids drawn after the automorphism swapped, and for a duality the
    same matrix's induced line map followed by the polar-line table."""
    matrix, auto_index, rng = _sample_semilinear(sp.field, sp.n, seed)
    c = Collineation(matrix, auto_index)
    image = list(induced_line_map(collineation_point_map(c, sp, sp)).image)
    if kind is InstanceKind.DUALITY:
        polar_line = polarity(sp).polar_line
        return tuple(polar_line[m] for m in image), True
    if kind is InstanceKind.PERTURBED:
        i = rng.below(len(image))
        j = rng.below(len(image) - 1)
        j += j >= i
        image[i], image[j] = image[j], image[i]
    return tuple(image), False


@pytest.mark.parametrize("n, q", [(2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (4, 2)])
def test_instances_match_their_composed_parts(n, q):
    sp = build_space(n, q)
    for kind in InstanceKind:
        for seed in range(50):
            gen = InstanceGenerator(seed, kind)
            if kind is InstanceKind.DUALITY and n != 3:
                with pytest.raises(IncompatibleSpaces):
                    generate_instance(gen, sp, sp)
                with pytest.raises(IncompatibleSpaces):
                    duality_line_map(sample_duality(sp, seed), sp, sp)
                continue
            lm = generate_instance(gen, sp, sp)
            want = _composed_instance(kind, seed, sp)
            assert (lm.image, lm.dual) == want, (kind, seed)
            if kind is InstanceKind.DUALITY:
                d = duality_line_map(sample_duality(sp, seed), sp, sp)
                assert (d.image, d.dual) == want, seed


def _layout(rows):
    return [(kind, seed) for kind, seed, _ in rows]


def test_population_layout(pg32, pg23):
    C, D, P = InstanceKind.COLLINEATION, InstanceKind.DUALITY, InstanceKind.PERTURBED
    rows = list(population(pg32, 3, 10))
    assert _layout(rows) == [(C, 10), (C, 11), (C, 12), (D, 13), (D, 14), (D, 15)]
    assert _layout(population(pg23, 3, 10)) == [(C, 10), (C, 11), (C, 12)]
    shadow = list(population(pg32, 4, 7, (P,)))
    assert _layout(shadow) == [(P, 7), (P, 8), (P, 9), (P, 10)]
    for kind, seed, lm in rows + shadow:
        expected = generate_instance(InstanceGenerator(seed, kind), pg32, pg32)
        assert lm.image == expected.image
        assert lm.dual == expected.dual


@pytest.mark.parametrize("samples", [0, -1])
def test_population_rejects_empty(pg32, samples):
    with pytest.raises(ValueError):
        population(pg32, samples)
    with pytest.raises(ValueError):
        verify_population(pg32, verify_theorem1, samples)


def test_population_rejects_no_kinds(pg32):
    with pytest.raises(ValueError):
        population(pg32, 2, 0, ())


def test_verify_population_keeps_first_failure(pg32):
    # The stub reads each instance's seed off its image: collineation seeds
    # 0-3, then duality seeds 4-7.
    seed_of = {}
    for seed in range(8):
        kind = InstanceKind.COLLINEATION if seed < 4 else InstanceKind.DUALITY
        lm = generate_instance(InstanceGenerator(seed, kind), pg32, pg32)
        seed_of[lm.image] = seed
    calls = []

    def stub(lm):
        seed = seed_of[lm.image]
        calls.append(seed)
        clauses = [
            ClauseVerdict("w", True, f"seen {seed}"),
            ClauseVerdict("x", seed not in (3, 5), f"bad {seed}"),
            ClauseVerdict("v", seed != 5),
        ]
        if seed >= 2:
            clauses.insert(0, ClauseVerdict("z", True, "late"))
        return TheoremReport("STUB", tuple(clauses))

    report = verify_population(pg32, stub, 4)
    assert sorted(calls) == list(range(8))
    assert report.theorem == "STUB"
    assert report.clauses == (
        ClauseVerdict("w", True),
        ClauseVerdict("x", False, "kind=collineation seed=3 bad 3"),
        ClauseVerdict("v", False, "kind=duality seed=5"),
        ClauseVerdict("z", True),
    )
    assert not report.passed
    assert report.render() == (
        "STUB.w PASS\n"
        "STUB.x FAIL kind=collineation seed=3 bad 3\n"
        "STUB.v FAIL kind=duality seed=5\n"
        "STUB.z PASS"
    )


def test_theorem1_collineation_and_duality(pg32):
    lm = generate_instance(
        InstanceGenerator(0, InstanceKind.COLLINEATION), pg32, pg32
    )
    report = verify_theorem1(lm)
    assert report.passed, report.render()
    assert {c.clause for c in report.clauses} == {"ab", "c", "d"}
    assert "InducedIntoTarget" in report.clauses[0].witness

    lm = generate_instance(InstanceGenerator(0, InstanceKind.DUALITY), pg32, pg32)
    report = verify_theorem1(lm)
    assert report.passed, report.render()
    assert "InducedIntoDual" in report.clauses[0].witness


def test_suites_build_no_incidence_structure_once_the_space_and_its_dual_exist(monkeypatch):
    # Star restrictions are read on certified rank tables over the one cached
    # native PG(2, 3), so Suites 1-2 construct no quotient, nor any other core.
    sp = build_space.__wrapped__(3, 3)
    dual_space(sp)
    star_native(sp)
    built = []
    real = IncidenceStructure._index

    def counted(self, *fields):
        built.append(self)
        return real(self, *fields)

    monkeypatch.setattr(IncidenceStructure, "_index", counted)
    for verify in (verify_theorem1, verify_theorem2):
        assert verify_population(sp, verify, 2).passed
    assert built == []
    assert sorted(sp._sections) == list(sp.point_labels)


@pytest.mark.parametrize("kind", [InstanceKind.COLLINEATION, InstanceKind.DUALITY])
def test_suites_1_and_2_reconstruct_each_line_map_once(pg33, monkeypatch, kind):
    # Both suites read a line map's one kappa and its kind; a line map equal
    # in every field is another line map and reconstructs on its own.
    classified = []

    def spy(pm):
        classified.append(pm)
        return classify_point_map(pm)

    monkeypatch.setattr(maps, "classify_point_map", spy)
    monkeypatch.setattr(theorems, "classify_point_map", spy, raising=False)
    lm = generate_instance(InstanceGenerator(5, kind), pg33, pg33)
    assert verify_theorem1(lm).passed and verify_theorem2(lm).passed
    assert classified == [reconstruct_point_map(lm).kappa]
    twin = LineMap(lm.source, lm.target, lm.image, lm.dual)
    assert verify_theorem1(twin).passed and verify_theorem2(twin).passed
    assert len(classified) == 2 and classified[1] is reconstruct_point_map(twin).kappa
    assert classified[1].image == classified[0].image


def test_a_reconstruction_that_raises_raises_again(pg33):
    # Not bijective, and bijective without preserving intersections: no
    # suite call may find a report kept from an earlier one.
    perturbed = population(pg33, 10, kinds=[InstanceKind.PERTURBED])
    broken = next(lm for _, _, lm in perturbed if not preserves_intersections(lm))
    for lm in (LineMap(pg33, pg33, (0,) * len(pg33.line_sets)), broken):
        for verify in (verify_theorem1, verify_theorem2, verify_theorem1, verify_theorem2):
            with pytest.raises(PreconditionViolated):
                verify(lm)


@pytest.mark.parametrize(
    "n,q,kind",
    [
        (3, 2, InstanceKind.COLLINEATION),
        (3, 3, InstanceKind.DUALITY),
        (4, 2, InstanceKind.COLLINEATION),
    ],
)
def test_theorem1_clause_d_names_the_first_failing_star(n, q, kind):
    # Two ranks swapped in the cached tables of two target stars, after their
    # certificates pass, break the restrictions at the two points whose
    # images those stars are, and nowhere else: reconstruction reads no rank
    # table, so ab and c still pass, and d names the first of the two.  The
    # swapped ranks lie off the image of native line 0, so every failing row
    # keeps that line collinear.
    sp = build_space.__wrapped__(n, q)
    lm = generate_instance(InstanceGenerator(1, kind), sp, sp)
    assert verify_theorem1(lm).passed
    kappa = reconstruct_point_map(lm).kappa
    line0 = star_native(sp).line_sets[0]
    broken = (1, len(sp.point_labels) - 2)
    for p in broken:
        row = restrict_to_star(lm, p, kappa).image
        centre = kappa.image[p]
        if kappa.target is not sp:
            centre = polarity(sp).normal[centre]
        ra, rb = sorted(set(row.values()) - {row[x] for x in line0})[:2]
        ranks = sp._sections[centre]
        la, lb = (next(l for l, r in ranks.items() if r == x) for x in (ra, rb))
        ranks[la], ranks[lb] = rb, ra
    failing = [
        p for p in sp.point_labels
        if not all(tuple(check_properties(restrict_to_star(lm, p, kappa)))[:3])
    ]
    assert failing == list(broken)
    status = "InducedIntoDual" if kind is InstanceKind.DUALITY else "InducedIntoTarget"
    assert verify_theorem1(lm).render().split("\n") == [
        f"THM1.ab PASS {status} Collineation",
        f"THM1.c PASS {n}>={n}",
        f"THM1.d FAIL star centre {failing[0]}",
    ]


def test_theorem1_render_shape(pg33):
    lm = generate_instance(
        InstanceGenerator(1, InstanceKind.COLLINEATION), pg33, pg33
    )
    text = verify_theorem1(lm).render()
    rows = text.split("\n")
    assert len(rows) == 3
    assert rows[0].startswith("THM1.ab PASS")
    assert rows[1].startswith("THM1.c PASS")
    assert rows[2].startswith("THM1.d PASS")


def test_theorem2_chain_on_isomorphisms(pg32, pg33):
    for sp in (pg32, pg33):
        for kind in (InstanceKind.COLLINEATION, InstanceKind.DUALITY):
            lm = generate_instance(InstanceGenerator(2, kind), sp, sp)
            report = verify_theorem2(lm)
            assert report.passed, report.render()
            assert theorem2_predicates(lm) == (True, True, True, True)


def test_theorem2_rejects_maps_outside_hypothesis(pg32):
    hit = 0
    for seed in range(10):
        lm = generate_instance(
            InstanceGenerator(seed, InstanceKind.PERTURBED), pg32, pg32
        )
        if preserves_intersections(lm):
            continue
        hit += 1
        with pytest.raises(PreconditionViolated):
            theorem2_predicates(lm)
    assert hit > 0


# sha256 of every reconstruction that a population of 100 samples per kind
# reaches: its status, sorted unresolved points, whether kappa maps into the
# target, kappa's items in key order and both suites' renders; a map
# outside the hypothesis adds its error instead.  Recorded before
# reconstruction ran one pass per core.  In a plane a perturbed map is
# Mixed; in dimension 3 it preserves no intersections.
@pytest.mark.parametrize(
    "n, q, kinds, statuses, digest",
    [
        (2, 3, "perturbed", {"Mixed": 100}, "46795388771d18a1"),
        (2, 4, "perturbed", {"Mixed": 100}, "42927bcf7c0db5cc"),
        (2, 5, "perturbed", {"Mixed": 100}, "8507b3870a07ce71"),
        (
            3, 2, "collineation duality perturbed",
            {"InducedIntoTarget": 100, "InducedIntoDual": 100}, "b3854efa77f35a0a",
        ),
        (
            3, 3, "collineation duality",
            {"InducedIntoTarget": 100, "InducedIntoDual": 100}, "56ef55def6323ca0",
        ),
    ],
)
def test_reconstruction_is_pinned(n, q, kinds, statuses, digest):
    sp = build_space(n, q)
    kinds = [InstanceKind(k) for k in kinds.split()]
    h = hashlib.sha256()
    seen = collections.Counter()
    for _, seed, lm in population(sp, 100, kinds=kinds):
        try:
            report = reconstruct_point_map(lm)
        except PreconditionViolated as exc:
            h.update(f"{seed} {exc}\n".encode())
            continue
        kappa = report.kappa
        seen[report.status.value] += 1
        record = (
            report.status.value,
            sorted(report.unresolved_points),
            None if kappa is None else kappa.target is sp,
            None if kappa is None else list(kappa.image.items()),
            verify_theorem1(lm).render(),
            verify_theorem2(lm).render(),
        )
        h.update(repr(record).encode())
    assert dict(seen) == statuses
    assert h.hexdigest()[:16] == digest


def test_theorem3_preconditions(pg32, pg33, pg42):
    report = verify_theorem3_preconditions(pg32, pg32)
    assert report.passed
    report = verify_theorem3_preconditions(pg42, pg32)
    assert not report.clauses[0].passed
    report = verify_theorem3_preconditions(pg32, pg42)
    assert report.passed
    report = verify_theorem3_preconditions(
        build_space(2, 2), build_space(2, 4)
    )
    assert not report.passed
    assert not report.clauses[2].passed
    report = verify_theorem3_preconditions(pg32, pg33)
    assert report.clauses[2].passed


# sha256 of repr(list(all_collineation_line_perms(sp))): the enumeration's order
ENUMERATION_DIGESTS = {
    (3, 2): "5c51f12f5a0d6bf36b4a9c80c9ab370e702b2ec71dcd6211f89d1e95717d2845",
    (2, 3): "a4cf85a79b5897b3d5723346e252d0825fbaa6182d0562427068785c006c2f87",
}


def _enumerated(sp):
    perms = list(all_collineation_line_perms(sp))
    assert hashlib.sha256(repr(perms).encode()).hexdigest() == ENUMERATION_DIGESTS[sp.n, sp.q]
    return perms


def test_collineation_perm_count_pg32(pg32):
    distinct = set(_enumerated(pg32))
    assert len(distinct) == 20160
    identity = tuple(range(35))
    assert identity in distinct
    generators = collineation_generators(pg32)
    chain = StabiliserChain(generators)
    assert chain.order == 20160
    assert all(perm in chain for perm in distinct)
    # stopped at the proven bound, the chain sifts as exactly as the complete one
    stopped = StabiliserChain(generators, order=pgammal_order(3, 2))
    assert sum(map(len, stopped._checked)) < sum(map(len, chain._checked))
    assert stopped.order == 20160
    assert all(perm in stopped for perm in distinct)
    d = duality_generator(pg32)
    assert d not in stopped
    stopped.extend([d], order=40320)
    assert stopped.order == 40320 and d in stopped
    assert all(tuple(d[x] for x in perm) in stopped for perm in distinct)


def test_collineation_enumeration_pg23(pg23):
    # The one field with q = 3 the enumerator is run on: every one of the
    # |PGammaL(3,3)| = 5616 collineations lies in the generated chain.
    assert isinstance(all_collineation_line_perms(pg23), types.GeneratorType)
    distinct = set(_enumerated(pg23))
    assert len(distinct) == pgammal_order(2, 3) == 5616
    chain = StabiliserChain(collineation_generators(pg23))
    assert chain.order == 5616
    assert all(perm in chain for perm in distinct)


def test_stabiliser_chain_rejects_non_members(pg32):
    generators = collineation_generators(pg32)
    chain = StabiliserChain(generators)
    assert duality_generator(pg32) not in chain
    swapped = list(range(35))
    swapped[0], swapped[1] = 1, 0
    for g in generators[:3] + (tuple(range(35)),):
        assert tuple(g[x] for x in swapped) not in chain
    assert StabiliserChain(generators + (duality_generator(pg32),)).order == 40320


def test_stabiliser_chain_order_needs_every_generator():
    sp = build_space(2, 4)
    generators = collineation_generators(sp)
    identity = tuple(tuple(int(i == j) for j in range(3)) for i in range(3))
    frobenius = induced_line_map(
        collineation_point_map(Collineation(identity, 1), sp, sp)
    )
    assert generators[-1] == frobenius.image
    chain = StabiliserChain(generators[:-1])
    assert chain.order == pgl_order(2, 4)
    assert generators[-1] not in chain
    assert StabiliserChain(generators).order == pgammal_order(2, 4)
    chain.extend(generators[-1:])
    assert chain.order == pgammal_order(2, 4)
    assert generators[-1] in chain
    # an extension completes the chain again: absorbing (0 1) into the
    # chain of a 4-cycle without sifting Schreier generators gives order 12
    small = StabiliserChain([(1, 2, 3, 0)])
    small.extend([(1, 0, 2, 3)])
    assert small.order == 24


def test_stabiliser_chain_of_nothing_is_trivial():
    chain = StabiliserChain(())
    assert chain.order == 1 and chain.base == []
    chain.extend([(1, 0, 2)])
    assert chain.order == 2 and (1, 0, 2) in chain and (0, 2, 1) not in chain
    assert StabiliserChain([(0, 1, 2)]).order == 1
    assert StabiliserChain([(1, 2, 0), (1, 0, 2)]).order == 6


def test_empty_chain_holds_exactly_the_identity():
    assert (0, 1, 2) in StabiliserChain(())
    assert () in StabiliserChain(())
    assert (1, 0) not in StabiliserChain(())
    assert (0, 2, 1) not in StabiliserChain([(0, 1, 2)])
    with pytest.raises(ValueError):
        (0, 0) in StabiliserChain(())


@pytest.mark.parametrize("perm", [(1, 0), (1, 0, 2, 3), (0, 0, 1), (0, 1, 3), ()])
def test_chain_refuses_what_is_no_permutation_of_its_degree(perm):
    chain = StabiliserChain([(1, 2, 0)])
    with pytest.raises(ValueError, match="permutation of range"):
        perm in chain
    with pytest.raises(ValueError, match="permutation of range"):
        chain.extend([perm])
    assert chain.order == 3


def test_chain_generators_share_one_degree():
    with pytest.raises(ValueError, match=r"range\(2\)"):
        StabiliserChain([(1, 0), (1, 0, 2)])
    with pytest.raises(ValueError):
        StabiliserChain([(0, 0, 1)])


@pytest.mark.parametrize("n, q", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2)])
def test_chains_stopped_at_the_bound_match_complete_chains(n, q):
    sp = build_space(n, q)
    complete = StabiliserChain(collineation_generators(sp))
    collineations, disjoint, total = geometric_orders(sp)
    assert collineations == complete.order == pgammal_order(n, q)
    if n == 3:
        d = duality_generator(sp)
        assert disjoint and d not in complete
        complete.extend([d])
        assert total == complete.order == 2 * collineations
    else:
        assert disjoint is None and total == collineations


@pytest.mark.parametrize("n, q, divisor", [(3, 3, 2), (2, 4, 3)])
def test_a_bound_below_the_order_stops_the_chain_short(n, q, divisor, monkeypatch):
    # The chain trusts its bound: a wrong one that the product of the orbit
    # sizes meets stops it below the group's order, and the verdicts say so.
    from grasspace import theorems

    class Cut(StabiliserChain):
        def extend(self, generators, order=None):
            super().extend(generators, order and order // divisor)

    sp = build_space(n, q)
    bound = pgammal_order(n, q)
    cut = bound // divisor
    assert StabiliserChain(collineation_generators(sp), order=cut).order == cut
    monkeypatch.setattr(theorems, "StabiliserChain", Cut)
    assert geometric_orders(sp)[0] == cut
    if n == 3:
        verdicts = {c.clause: (c.passed, c.witness) for c in chow_crosscheck(sp).clauses}
        assert verdicts["collineations_distinct"] == (False, f"{cut} of {bound}")


@pytest.fixture(scope="module")
def collineation_chains(pg32, pg33):
    return {
        sp.q: (sp, StabiliserChain(collineation_generators(sp))) for sp in (pg32, pg33)
    }


@given(q=st.sampled_from([2, 3]), seed=st.integers(0, 2**20))
@settings(max_examples=30, deadline=None)
def test_sampled_collineations_are_chain_members(collineation_chains, q, seed):
    sp, chain = collineation_chains[q]
    c = sample_collineation(sp, seed)
    assert induced_line_map(collineation_point_map(c, sp, sp)).image in chain
    d = sample_duality(sp, seed)
    assert duality_line_map(d, sp, sp).image not in chain


def test_chow_crosscheck_pg32(pg32):
    report = chow_crosscheck(pg32)
    assert report.passed, report.render()
    by_clause = {c.clause: c for c in report.clauses}
    assert by_clause["graph_order"].witness == "40320"
    assert by_clause["group_order"].witness == "40320"


def test_chow_crosscheck_pg33(pg33):
    report = chow_crosscheck(pg33)
    assert report.passed, report.render()
    by_clause = {c.clause: c for c in report.clauses}
    assert by_clause["group_order"].witness == "24261120"
    assert by_clause["collineations_distinct"].witness == "12130560 of 12130560"


def test_chow_crosscheck_fails_when_the_duality_is_a_collineation(pg32, monkeypatch):
    from grasspace import theorems

    collineation = collineation_generators(pg32)[0]
    monkeypatch.setattr(theorems, "duality_generator", lambda sp: collineation)
    report = chow_crosscheck(pg32)
    verdicts = {c.clause: (c.passed, c.witness) for c in report.clauses}
    assert verdicts == {
        "graph_order": (True, "40320"),
        "group_order": (False, "20160"),
        "collineations_distinct": (True, "20160 of 20160"),
        "coset_disjoint": (False, ""),
        "order_match": (False, "20160 vs 40320"),
    }


def test_chow_crosscheck_bounds_the_duality_only_when_it_normalises(pg32, monkeypatch):
    # A transposition of two lines does not normalise the collineations, so
    # the chain it joins runs to completion: the whole symmetric group.
    from grasspace import theorems

    swap = list(range(35))
    swap[0], swap[1] = 1, 0
    monkeypatch.setattr(theorems, "duality_generator", lambda sp: tuple(swap))
    verdicts = {c.clause: (c.passed, c.witness) for c in chow_crosscheck(pg32).clauses}
    assert verdicts["group_order"] == (False, str(math.factorial(35)))
    assert verdicts["coset_disjoint"] == (True, "")


@pytest.mark.parametrize(
    "g, d, order",
    [
        ((1, 2, 0, 3, 4, 5), (0, 2, 1, 4, 5, 3), 18),  # d normalises G, d^2 lies outside
        ((1, 2, 3, 0, 4, 5), (0, 1, 3, 2, 4, 5), 24),  # d^2 = 1, d does not normalise G
    ],
)
def test_the_duality_bound_needs_both_sifts(pg32, monkeypatch, g, d, order):
    # On the way to the true order, the product of the orbit sizes meets
    # 2|G|, so a bound taken without its proof would stop the chain there.
    from grasspace import theorems

    group = StabiliserChain([g]).order
    chain = StabiliserChain([g], order=group)
    chain.extend([d], order=2 * group)
    assert chain.order == 2 * group < order
    monkeypatch.setattr(theorems, "collineation_generators", lambda sp: (g,))
    monkeypatch.setattr(theorems, "pgammal_order", lambda n, q: group)
    monkeypatch.setattr(theorems, "duality_generator", lambda sp: d)
    assert geometric_orders(pg32) == (group, True, order)


def test_chow_crosscheck_guards(pg22, pg42):
    with pytest.raises(UnsupportedDimension):
        chow_crosscheck(pg22)
    with pytest.raises(UnsupportedDimension):
        chow_crosscheck(pg42)
    with pytest.raises(TooLarge):
        chow_crosscheck(build_space(3, 5))


@pytest.mark.parametrize("count", [0, -3])
def test_one_way_shadow_rejects_empty_population(pg32, count):
    with pytest.raises(ValueError):
        one_way_shadow(pg32, count)


def test_one_way_shadow_rejects_planes(pg23):
    # Every two lines of a plane meet, so the dichotomy's hypothesis fails.
    with pytest.raises(DimensionTooSmall):
        one_way_shadow(pg23, 20)


def test_one_way_shadow_accounting(pg32):
    report = one_way_shadow(pg32, 200, base_seed=0)
    assert report.instances == 200
    assert report.rejected + report.isomorphisms + len(report.counterexamples) == 200
    assert report.passed
    assert report.rejected == 200


def test_shadow_seeds_are_offset(pg32):
    a = one_way_shadow(pg32, 3, base_seed=0)
    b = one_way_shadow(pg32, 3, base_seed=3)
    assert a.passed and b.passed


@given(seed=st.integers(0, 2**20))
@settings(max_examples=15, deadline=None)
def test_sampled_maps_are_valid(seed):
    sp = build_space(3, 2)
    c = sample_collineation(sp, seed)
    pm = collineation_point_map(c, sp, sp)
    lm = induced_line_map(pm)
    assert reconstruct_point_map(lm).status is KappaStatus.INDUCED_INTO_TARGET
    d = sample_duality(sp, seed)
    dlm = duality_line_map(d, sp, sp)
    assert reconstruct_point_map(dlm).status is KappaStatus.INDUCED_INTO_DUAL


def test_suites_and_the_shadow_build_no_line_graph():
    # Every clique these verdicts ask about is read off its holder.
    sp = projspace._build_space(3, 3)
    for kind in (InstanceKind.COLLINEATION, InstanceKind.DUALITY):
        lm = generate_instance(InstanceGenerator(1, kind), sp, sp)
        assert verify_theorem1(lm).passed and verify_theorem2(lm).passed
        assert preserves_intersections(lm)
    assert one_way_shadow(sp, 5).passed
    assert sp._grassmann is None
