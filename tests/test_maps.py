import collections
import dataclasses
import random
from itertools import combinations, permutations

import pytest
from hypothesis import assume, given, settings, strategies as st

from grasspace import maps, projspace, theorems
from grasspace.errors import (
    BadConfiguration,
    GeometryError,
    IncompatibleSpaces,
    NotInStar,
    NotLineConsistent,
    PreconditionViolated,
)
from grasspace.grassmann import build_grassmann, related
from grasspace.maps import (
    Collineation,
    Duality,
    KappaStatus,
    LineMap,
    MapKind,
    PointMap,
    check_properties,
    classify_point_map,
    collineation_point_map,
    duality_line_map,
    duality_point_to_plane,
    induced_line_map,
    intersection_compatibility_check,
    noncollinear_witness,
    pencil_image_is_pencil,
    preserves_intersections,
    preserves_skewness,
    rank_row_flags,
    reconstruct_point_map,
    restrict_to_star,
    star_rows,
)
from grasspace.projspace import (
    IncidenceStructure,
    build_space,
    dual_space,
    join,
    meet,
    pencil,
    plane_points,
    plane_quotient,
    planes,
    planes_of_line,
    planes_through_point,
    point_parents,
    polarity,
    quotient,
    star,
)
from grasspace.theorems import (
    InstanceGenerator,
    InstanceKind,
    generate_instance,
    population,
    sample_collineation,
    sample_duality,
)

from oracles import (
    annihilator_line_map,
    annihilator_point_to_plane,
    filtered_pencil,
    joined_line_map,
    line_rule_property_flags,
    pairwise_preserves_intersections,
    pairwise_preserves_skewness,
    per_point_row_ids,
    projected_star,
    spanned_planes,
    triple_property_flags,
    two_pass_reconstruction,
    vec_add,
)


def identity_matrix(m):
    return tuple(tuple(int(i == j) for j in range(m)) for i in range(m))


def identity_line_map(sp):
    return LineMap(source=sp, target=sp, image=tuple(range(len(sp.line_sets))))


def test_enum_wire_values():
    assert MapKind.COLLINEATION.value == "Collineation"
    assert MapKind.SEMICOLLINEATION.value == "Semicollineation"
    assert MapKind.EMBEDDING.value == "Embedding"
    assert MapKind.OTHER.value == "Other"
    assert KappaStatus.INDUCED_INTO_TARGET.value == "InducedIntoTarget"
    assert KappaStatus.INDUCED_INTO_DUAL.value == "InducedIntoDual"
    assert KappaStatus.MIXED.value == "Mixed"


def test_identity_collineation(pg32):
    c = Collineation(matrix=identity_matrix(4))
    pm = collineation_point_map(c, pg32, pg32)
    assert pm.image == {p: p for p in range(15)}
    flags = check_properties(pm)
    assert flags.injective and flags.surjective
    assert flags.preserves_collinearity and flags.preserves_noncollinearity
    assert classify_point_map(pm) == MapKind.COLLINEATION
    lm = induced_line_map(pm)
    assert lm.image == tuple(range(35))


def test_sampled_collineations_classify(pg32, pg33):
    for sp in (pg32, pg33):
        for seed in range(6):
            c = sample_collineation(sp, seed)
            pm = collineation_point_map(c, sp, sp)
            assert classify_point_map(pm) == MapKind.COLLINEATION
            lm = induced_line_map(pm)
            assert lm.is_bijective()
            assert preserves_intersections(lm)
            assert preserves_skewness(lm)


def test_frobenius_collineation_pg24():
    sp = build_space(2, 4)
    c = Collineation(matrix=identity_matrix(3), auto_index=1)
    pm = collineation_point_map(c, sp, sp)
    assert classify_point_map(pm) == MapKind.COLLINEATION
    assert any(pm.image[p] != p for p in pm.image)
    twice = {p: pm.image[pm.image[p]] for p in pm.image}
    assert twice == {p: p for p in sp.point_labels}


def test_collineation_rejects_incompatible_spaces(pg22, pg32, pg33):
    with pytest.raises(IncompatibleSpaces):
        collineation_point_map(Collineation(identity_matrix(3)), pg22, pg32)
    with pytest.raises(IncompatibleSpaces):
        collineation_point_map(Collineation(identity_matrix(4)), pg32, pg33)
    with pytest.raises(IncompatibleSpaces):
        collineation_point_map(Collineation(identity_matrix(3)), quotient(pg32, 0), pg22)


def test_linear_embedding_is_embedding(pg22, pg32):
    image = {p: pg32.point_index[c + (0,)] for p, c in enumerate(pg22.coords)}
    pm = PointMap(source=pg22, target=pg32, image=image)
    flags = check_properties(pm)
    assert flags.injective
    assert not flags.surjective
    assert flags.preserves_collinearity
    assert flags.preserves_noncollinearity
    assert classify_point_map(pm) == MapKind.EMBEDDING
    lm = induced_line_map(pm)
    assert not lm.is_bijective()
    assert preserves_intersections(lm)


def test_constant_map_triggers_degenerate_rule(pg22):
    pm = PointMap(source=pg22, target=pg22, image={p: 0 for p in range(7)})
    flags = check_properties(pm)
    assert not flags.injective
    assert not flags.surjective
    assert flags.preserves_collinearity
    assert not flags.preserves_noncollinearity
    assert classify_point_map(pm) == MapKind.OTHER
    with pytest.raises(NotLineConsistent):
        induced_line_map(pm)


def test_synthetic_semicollineation_between_structures():
    source = IncidenceStructure(
        point_labels=tuple(range(6)),
        line_sets=(frozenset({0, 1, 2}), frozenset({3, 4, 5})),
        kind="native",
        detail="two lines",
    )
    target = IncidenceStructure(
        point_labels=tuple(range(6)),
        line_sets=(frozenset(range(6)),),
        kind="native",
        detail="one line",
    )
    pm = PointMap(source=source, target=target, image={p: p for p in range(6)})
    assert classify_point_map(pm) == MapKind.SEMICOLLINEATION


def test_duality_line_map_basics(pg32):
    d = Duality(matrix=identity_matrix(4))
    lm = duality_line_map(d, pg32, pg32)
    assert lm.dual
    assert lm.is_bijective()
    assert preserves_intersections(lm)
    assert preserves_skewness(lm)


def test_duality_rejects_wrong_dimension(pg22, pg42, pg32, pg33):
    with pytest.raises(IncompatibleSpaces):
        duality_line_map(Duality(identity_matrix(3)), pg22, pg22)
    with pytest.raises(IncompatibleSpaces):
        duality_line_map(Duality(identity_matrix(5)), pg42, pg42)
    with pytest.raises(IncompatibleSpaces):
        duality_line_map(Duality(identity_matrix(4)), pg32, pg33)
    for call in (duality_line_map, duality_point_to_plane):
        with pytest.raises(IncompatibleSpaces):
            call(Duality(identity_matrix(4)), pg32, quotient(pg32, 0))


def test_reconstruct_collineation_instance(pg32):
    c = sample_collineation(pg32, 7)
    pm = collineation_point_map(c, pg32, pg32)
    lm = induced_line_map(pm)
    report = reconstruct_point_map(lm)
    assert report.status == KappaStatus.INDUCED_INTO_TARGET
    assert report.unresolved_points == frozenset()
    assert report.kappa.image == pm.image
    assert report.kappa.target is pg32


def test_reconstruct_duality_instance(pg32):
    d = sample_duality(pg32, 11)
    lm = duality_line_map(d, pg32, pg32)
    report = reconstruct_point_map(lm)
    assert report.status == KappaStatus.INDUCED_INTO_DUAL
    assert report.unresolved_points == frozenset()
    assert report.kappa.target is dual_space(pg32)
    assert report.kappa.image == duality_point_to_plane(d, pg32, pg32)


def test_reconstruction_builds_the_dual_only_when_a_star_needs_it():
    sp = projspace._build_space(3, 3)
    c = sample_collineation(sp, 2)
    report = reconstruct_point_map(induced_line_map(collineation_point_map(c, sp, sp)))
    assert report.status == KappaStatus.INDUCED_INTO_TARGET
    assert sp._plane_tables is None and sp._dual is None
    report = reconstruct_point_map(duality_line_map(sample_duality(sp, 2), sp, sp))
    assert report.status == KappaStatus.INDUCED_INTO_DUAL
    assert report.kappa.target is sp._dual is not None


@pytest.mark.parametrize("n,q", [(3, 2), (3, 3), (4, 2), (3, 4)])
def test_reconstruction_reports_the_kind_of_kappa(n, q):
    sp = build_space(n, q)
    seen = collections.Counter()
    for _, _, lm in population(sp, 3):
        report = reconstruct_point_map(lm)
        assert report.kind is classify_point_map(report.kappa)
        assert reconstruct_point_map(lm) is report
        seen[report.status, report.kind] += 1
    assert seen[KappaStatus.INDUCED_INTO_TARGET, MapKind.COLLINEATION] == 3
    assert seen[KappaStatus.INDUCED_INTO_DUAL, MapKind.COLLINEATION] == (3 if n == 3 else 0)


@pytest.mark.parametrize("q", [3, 9])
def test_a_mixed_reconstruction_has_no_kind(q):
    # test_pinned_outputs' `PLANE_SWAP` rows: in a plane a perturbed map is Mixed.
    sp = build_space(2, q)
    lm = generate_instance(InstanceGenerator(1, InstanceKind.PERTURBED), sp, sp)
    report = reconstruct_point_map(lm)
    assert (report.status, report.kappa, report.kind) == (KappaStatus.MIXED, None, None)


def test_line_maps_and_their_reports_are_frozen(pg32):
    # A report kept on its line map must not go stale.
    lm = generate_instance(InstanceGenerator(0, InstanceKind.COLLINEATION), pg32, pg32)
    report = reconstruct_point_map(lm)
    for obj, attr, value in [
        (lm, "image", tuple(reversed(lm.image))),
        (lm, "dual", True),
        (lm, "target", dual_space(pg32)),
        (report, "kind", MapKind.OTHER),
        (report, "kappa", None),
        (report, "status", KappaStatus.MIXED),
    ]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, attr, value)
    assert reconstruct_point_map(lm) is report


def test_duality_squared_is_induced_by_a_collineation(pg32):
    d = sample_duality(pg32, 3)
    lm = duality_line_map(d, pg32, pg32)
    composed = LineMap(
        source=pg32,
        target=pg32,
        image=tuple(lm.image[lm.image[l]] for l in range(35)),
    )
    report = reconstruct_point_map(composed)
    assert report.status == KappaStatus.INDUCED_INTO_TARGET
    assert classify_point_map(report.kappa) == MapKind.COLLINEATION
    assert induced_line_map(report.kappa).image == composed.image


def test_reconstruct_requires_bijection(pg32):
    lm = LineMap(source=pg32, target=pg32, image=(0,) * 35)
    with pytest.raises(PreconditionViolated):
        reconstruct_point_map(lm)


def test_reconstruct_rejects_perturbed_instance(pg32):
    lm = generate_instance(
        InstanceGenerator(0, InstanceKind.PERTURBED), pg32, pg32
    )
    assert lm.is_bijective()
    assert not preserves_intersections(lm) or not preserves_skewness(lm)
    if not preserves_intersections(lm):
        with pytest.raises(PreconditionViolated):
            reconstruct_point_map(lm)


def test_perturbed_instances_break_a_preservation_property(pg32):
    for seed in range(25):
        lm = generate_instance(
            InstanceGenerator(seed, InstanceKind.PERTURBED), pg32, pg32
        )
        assert not (preserves_intersections(lm) and preserves_skewness(lm))


def _reconstruction(call, lm):
    """What a reconstruction reports: its status, unresolved points,
    kappa's kind, kappa's items in key order and kappa's target (compared
    by identity), or the type and message of what it raised."""
    try:
        report = call(lm)
    except (GeometryError, PreconditionViolated) as exc:
        return type(exc), str(exc)
    kappa, head = report.kappa, (report.status, report.unresolved_points, report.kind)
    if kappa is None:
        return *head, None, None
    return *head, list(kappa.image.items()), kappa.target


@pytest.mark.parametrize("n,q", [(2, 3), (2, 4), (3, 2), (3, 3), (4, 2)])
def test_reconstruction_matches_the_two_pass_oracle(n, q):
    sp = build_space(n, q)
    kinds = [InstanceKind.COLLINEATION, InstanceKind.PERTURBED]
    if n == 3:
        kinds.append(InstanceKind.DUALITY)
    seen = collections.Counter()
    for kind, seed, lm in population(sp, 30, kinds=kinds):
        got = _reconstruction(reconstruct_point_map, lm)
        assert got == _reconstruction(two_pass_reconstruction, lm), (kind, seed)
        seen[kind, got[0]] += 1
    assert seen[InstanceKind.COLLINEATION, KappaStatus.INDUCED_INTO_TARGET] == 30
    if n == 3:
        assert seen[InstanceKind.DUALITY, KappaStatus.INDUCED_INTO_DUAL] == 30
    # A perturbed map is Mixed in a plane and breaks intersections above it.
    perturbed = KappaStatus.MIXED if n == 2 else PreconditionViolated
    assert seen[InstanceKind.PERTURBED, perturbed] == 30


@pytest.mark.parametrize("q", [2, 3])
def test_reconstruction_checks_intersections_and_builds_the_dual_lazily(q):
    sp = projspace._build_space(3, q)
    for _, _, lm in population(sp, 30, kinds=[InstanceKind.COLLINEATION]):
        assert reconstruct_point_map(lm).status is KappaStatus.INDUCED_INTO_TARGET
    assert sp._dual is None
    for _, seed, lm in population(sp, 30, kinds=[InstanceKind.PERTURBED]):
        try:
            reconstruct_point_map(lm)
        except PreconditionViolated as exc:
            assert str(exc) == "line map must preserve intersections"
            raised = True
        else:
            raised = False
        assert raised is not preserves_intersections(lm), seed


ORACLE_SPACES = [(2, 3), (3, 2), (4, 2)]
MAP_FAMILIES = [
    "permutation",
    "total",
    "three lines",
    "constant",
    *(kind.value for kind in InstanceKind),
]


@given(
    data=st.data(),
    nq=st.sampled_from(ORACLE_SPACES),
    family=st.sampled_from(MAP_FAMILIES),
)
@settings(max_examples=150, deadline=None)
def test_preservation_verdicts_match_the_pairwise_oracle(data, nq, family):
    sp = build_space(*nq)
    count = len(sp.line_sets)
    line = st.integers(0, count - 1)
    if family == "permutation":
        image = data.draw(st.permutations(range(count)))
    elif family == "total":
        image = data.draw(st.lists(line, min_size=count, max_size=count))
    elif family == "three lines":
        chosen = data.draw(st.lists(line, min_size=3, max_size=3))
        image = data.draw(
            st.lists(st.sampled_from(chosen), min_size=count, max_size=count)
        )
    elif family == "constant":
        image = [data.draw(line)] * count
    else:
        kind = InstanceKind(family)
        if kind is InstanceKind.DUALITY and sp.n != 3:
            kind = InstanceKind.COLLINEATION
        seed = data.draw(st.integers(0, 2**16))
        instance = generate_instance(InstanceGenerator(seed, kind), sp, sp)
        image = instance.image
    lm = LineMap(source=sp, target=sp, image=tuple(image))
    assert preserves_intersections(lm) == pairwise_preserves_intersections(lm)
    assert preserves_skewness(lm) == pairwise_preserves_skewness(lm)


def test_restrict_to_star_collineation(pg32):
    c = sample_collineation(pg32, 2)
    pm = collineation_point_map(c, pg32, pg32)
    lm = induced_line_map(pm)
    kappa = reconstruct_point_map(lm).kappa
    for q_point in (0, 7, 14):
        restriction = restrict_to_star(lm, q_point, kappa)
        # a map of the one native PG(2, 2), star lines read as their ranks
        assert restriction.source is restriction.target is build_space(2, 2)
        ranks = projected_star(pg32, q_point)
        target = projected_star(pg32, kappa.image[q_point])
        assert restriction.image == {ranks[l]: target[lm.image[l]] for l in ranks}
        assert classify_point_map(restriction) == MapKind.COLLINEATION


def test_restrict_to_star_duality_targets_the_quotient_at_the_normal(pg32):
    # A plane-valued kappa is read through the polarity: the quotient of the
    # target at the plane's normal, each star line sent to its image's polar.
    d = sample_duality(pg32, 5)
    lm = duality_line_map(d, pg32, pg32)
    kappa = reconstruct_point_map(lm).kappa
    table = polarity(pg32)
    restriction = restrict_to_star(lm, 0, kappa)
    assert restriction.source is restriction.target is build_space(2, 2)
    ranks = projected_star(pg32, 0)
    target = projected_star(pg32, table.normal[kappa.image[0]])
    assert restriction.image == {ranks[l]: target[table.polar_line[lm.image[l]]] for l in ranks}
    assert classify_point_map(restriction) == MapKind.COLLINEATION


def _plane_quotient_restriction(lm, q_point, kappa):
    """A dual kappa's star restriction read in the dual's plane quotient at
    kappa's plane, with the line map's own images: the reading that the
    transported restriction must agree with."""
    image = {l: lm.image[l] for l in star(lm.source, q_point)}
    target = plane_quotient(lm.target, kappa.image[q_point])
    return PointMap(quotient(lm.source, q_point), target, image)


def _star_merged(lm, q_point, i, j):
    """A copy of lm in which star line i at q_point takes star line j's image."""
    members = star(lm.source, q_point)
    image = list(lm.image)
    image[members[i]] = lm.image[members[j]]
    return LineMap(lm.source, lm.target, tuple(image), lm.dual)


@pytest.mark.parametrize("q", [2, 3])
def test_transported_restrictions_match_the_plane_quotient_oracle(q):
    # At every centre of several dualities, as generated and with two star
    # lines swapped or merged, the four flags of the restriction into the
    # quotient at the normal equal those of the restriction into the plane
    # quotient.  Both kinds of copy keep every image inside kappa's plane.
    sp = build_space(3, q)
    rng = random.Random(q)
    seen = set()
    for seed in range(3):
        lm = generate_instance(InstanceGenerator(seed, InstanceKind.DUALITY), sp, sp)
        kappa = reconstruct_point_map(lm).kappa
        assert kappa.target is dual_space(sp)
        for p in sp.point_labels:
            i, j = rng.sample(range(len(star(sp, p))), 2)
            for variant in (lm, _star_swapped(lm, p, i, j), _star_merged(lm, p, i, j)):
                flags = dataclasses.astuple(check_properties(restrict_to_star(variant, p, kappa)))
                oracle = check_properties(_plane_quotient_restriction(variant, p, kappa))
                assert flags == dataclasses.astuple(oracle), f"seed {seed} centre {p}"
                seen.update(enumerate(flags))
    assert seen == {(k, v) for k in range(4) for v in (False, True)}


def _quotient_restriction(lm, q_point, kappa):
    """A star restriction read between two `quotient`s, the oracle of the
    rank-table one: at kappa's value, or, for a kappa into the dual, at its
    plane's normal with each image read through `polar_line`."""
    sp2, centre = lm.target, kappa.image[q_point]
    image = {l: lm.image[l] for l in star(lm.source, q_point)}
    if kappa.target is not sp2:
        table = polarity(sp2)
        centre = table.normal[centre]
        image = {l: table.polar_line[m] for l, m in image.items()}
    return PointMap(quotient(lm.source, q_point), quotient(sp2, centre), image)


@pytest.mark.parametrize("n,q", [(2, 3), (3, 2), (3, 3), (4, 2)])
def test_rank_table_restrictions_match_the_quotient_restrictions(n, q):
    # At every centre of seeded collineations, and dualities in dimension 3,
    # as generated and with two star lines swapped or merged, the restriction
    # on the native PG(n-1, q) has the flags of the one between quotients.
    sp = build_space(n, q)
    rng = random.Random(n * q)
    kinds = [InstanceKind.COLLINEATION] + [InstanceKind.DUALITY] * (n == 3)
    seen = set()
    for kind in kinds:
        lm = generate_instance(InstanceGenerator(1, kind), sp, sp)
        kappa = reconstruct_point_map(lm).kappa
        for p in sp.point_labels:
            i, j = rng.sample(range(len(star(sp, p))), 2)
            for variant in (lm, _star_swapped(lm, p, i, j), _star_merged(lm, p, i, j)):
                restriction = restrict_to_star(variant, p, kappa)
                assert restriction.source is restriction.target is projspace.star_native(sp)
                flags = dataclasses.astuple(check_properties(restriction))
                oracle = check_properties(_quotient_restriction(variant, p, kappa))
                assert flags == dataclasses.astuple(oracle), f"{kind} centre {p}"
                seen.update(enumerate(flags))
    expected = {(k, v) for k in range(4) for v in (False, True)}
    if n == 2:  # PG(1, q) is one line: both preservation flags always hold
        expected -= {(2, False), (3, False)}
    assert seen == expected


def _star_pass(flag_rows):
    """The flags of each star in point order, ended by the class and
    message of the PreconditionViolated that stopped the pass, if any."""
    out = []
    try:
        for flags in flag_rows:
            out.append(tuple(flags))
    except PreconditionViolated as e:
        out.append((type(e), str(e)))
    return out


@pytest.mark.parametrize("n,q", [(2, 3), (3, 2), (3, 3), (4, 2)])
def test_rank_rows_match_the_per_star_restrictions(n, q):
    # Clause d's one pass of rank rows gives every star the three flags of
    # its restriction built on its own, and stops with the same exception
    # at the same point: on seeded collineations, and dualities in dimension
    # 3, as generated and with two star lines swapped or merged (images off
    # the target star), and with kappa undefined at one point or at all.
    sp = build_space(n, q)
    native, points = projspace.star_native(sp), sp.point_labels
    rng = random.Random(n * q)
    kinds = [InstanceKind.COLLINEATION] + [InstanceKind.DUALITY] * (n == 3)
    seen = set()
    for kind in kinds:
        lm = generate_instance(InstanceGenerator(1, kind), sp, sp)
        kappa = reconstruct_point_map(lm).kappa
        partial = PointMap(sp, kappa.target, dict(kappa.image))
        del partial.image[len(points) // 2]
        cases = [(lm, None), (lm, partial)]
        for p in points:
            i, j = rng.sample(range(len(star(sp, p))), 2)
            variants = (lm, _star_swapped(lm, p, i, j), _star_merged(lm, p, i, j))
            cases += [(v, kappa) for v in variants]
        for c, (variant, k) in enumerate(cases):
            rows = star_rows(variant, k, points)
            kernel = _star_pass(rank_row_flags(row, native, native) for row in rows)
            per_star = _star_pass(
                dataclasses.astuple(check_properties(restrict_to_star(variant, p, k)))[:3]
                for p in points
            )
            assert kernel == per_star, f"{kind} case {c}"
            seen.update(o if isinstance(o[0], bool) else o[1].rstrip("0123456789") for o in kernel)
    flags = {o for o in seen if isinstance(o, tuple)}
    assert (True, True, True) in flags and any(f[:2] == (False, False) for f in flags)
    assert n == 2 or (True, True, False) in flags  # PG(1, q) is one line
    errors = {"kappa undefined at point ", "point map sends a point outside the target"}
    assert seen - flags == errors


def test_transported_restrictions_need_the_dual_certificate(monkeypatch):
    # With two normals swapped, the dual is not isomorphic to the space
    # through them, so the first duality read, reconstruction's, refuses
    # the polarity and no duality reaches a transported restriction.
    pg32 = build_space(3, 2)
    image = generate_instance(InstanceGenerator(0, InstanceKind.DUALITY), pg32, pg32).image
    sp = projspace._build_space(3, 2)  # not cached: its polarity is not built yet
    lm = LineMap(sp, sp, image, dual=True)
    _faked_normals(_swap_first_two_normals)(monkeypatch, sp)
    with pytest.raises(GeometryError, match="is not isomorphic to PG"):
        kappa = reconstruct_point_map(lm).kappa
        for p in sp.point_labels:
            restrict_to_star(lm, p, kappa)
    assert sp._polarity is None and sp._dual is None


def test_restrict_to_star_preconditions(pg32, pg33):
    lm = identity_line_map(pg32)
    kappa = PointMap(source=pg32, target=pg32, image={p: p for p in range(15)})
    with pytest.raises(PreconditionViolated):
        restrict_to_star(lm, 99, kappa)
    foreign = PointMap(
        source=pg33, target=pg33, image={p: p for p in range(40)}
    )
    with pytest.raises(PreconditionViolated):
        restrict_to_star(lm, 0, foreign)
    broken = dict(kappa.image)
    broken[0] = 1 if kappa.image[0] != 1 else 2
    shifted = {p: (p + 1) % 15 for p in range(15)}
    for image in (broken, shifted):
        # kappa moves point 0, so the identity sends star lines outside the target star
        with pytest.raises(PreconditionViolated, match="outside the target"):
            restrict_to_star(lm, 0, PointMap(source=pg32, target=pg32, image=image))


def test_kappa_must_map_into_the_target_or_its_dual(pg32):
    # An equal copy of the target is neither the target nor its dual.
    lm = identity_line_map(pg32)
    plane_id, a = _first_valid_config(pg32, 0)
    labels = quotient(pg32, 0).point_labels
    for kappa in (
        PointMap(pg32, projspace._build_space(3, 2), {p: p for p in range(15)}),
        PointMap(pg32, quotient(pg32, 0), {p: labels[p % 7] for p in range(15)}),
    ):
        with pytest.raises(PreconditionViolated, match="target or its dual"):
            restrict_to_star(lm, 0, kappa)
        with pytest.raises(PreconditionViolated, match="target or its dual"):
            intersection_compatibility_check(lm, kappa, 0, plane_id, a)


def test_noncollinear_witness_matches_quotient_collinearity(pg32):
    q_point = 0
    members = star(pg32, q_point)
    struct = quotient(pg32, q_point)
    for a, b, c in combinations(members, 3):
        witness = noncollinear_witness(pg32, q_point, a, b, c)
        if struct.collinear(a, b, c):
            assert witness is None
        else:
            assert witness is not None
            assert witness not in members
            hits = [meet(pg32, witness, l) is not None for l in (a, b, c)]
            assert hits == [True, True, False]


def test_noncollinear_witness_errors(pg32):
    members = star(pg32, 0)
    a, b, c = members[0], members[1], members[2]
    with pytest.raises(NotInStar):
        noncollinear_witness(pg32, 0, a, a, b)
    outside = next(l for l in range(35) if l not in members)
    with pytest.raises(NotInStar):
        noncollinear_witness(pg32, 0, a, b, outside)


def _graph_witness(sp, a, b, c):
    """The smallest line that meets a and b and misses c, by a scan of the
    line graph's rows: the oracle of the plane rule."""
    g = build_grassmann(sp)
    meeting = (l for l in range(len(sp.line_sets)) if related(g, l, a) and related(g, l, b))
    return next((l for l in meeting if not related(g, l, c)), None)


@pytest.mark.parametrize("n,q", [(2, 3), (3, 2), (3, 3), (4, 2), (2, 4)])
def test_noncollinear_witness_matches_the_line_graph_scan(n, q):
    # Every ordered triple of star lines at four centres gets the witness
    # that the scan over the line graph finds, None included.
    sp = build_space(n, q)
    last = len(sp.point_labels) - 1
    seen = set()
    for centre in (0, 1, last // 2, last):
        for a, b, c in permutations(star(sp, centre), 3):
            witness = noncollinear_witness(sp, centre, a, b, c)
            assert witness == _graph_witness(sp, a, b, c), (centre, a, b, c)
            seen.add(witness is None)
    assert seen == ({True} if n == 2 else {False, True})


def test_pencil_image_is_pencil_identity(pg32):
    lm = identity_line_map(pg32)
    for plane_id in range(3):
        pts = sorted(plane_points(pg32, plane_id))
        assert pencil_image_is_pencil(lm, pencil(pg32, pts[0], plane_id))


def test_pencil_image_is_pencil_collineation(pg33):
    c = sample_collineation(pg33, 1)
    lm = induced_line_map(collineation_point_map(c, pg33, pg33))
    plane_id = planes_through_point(pg33, 0)[0]
    assert pencil_image_is_pencil(lm, pencil(pg33, 0, plane_id))


def test_pencil_image_is_pencil_negative(pg32):
    plane_id = planes_through_point(pg32, 0)[0]
    pen = pencil(pg32, 0, plane_id)
    outside = next(
        l for l in range(35) if 0 not in pg32.line_sets[l]
    )
    image = list(range(35))
    image[pen[0]], image[outside] = outside, pen[0]
    lm = LineMap(source=pg32, target=pg32, image=tuple(image))
    assert not pencil_image_is_pencil(lm, pen)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_pencil_image_in_a_plane_is_a_whole_star(q):
    # PG(2, q) has one plane, holding every line, so a pencil image is a
    # pencil exactly when it is the star of some point.
    sp = build_space(2, q)
    stars = [set(star(sp, p)) for p in sp.point_labels]
    rng = random.Random(q)
    line_ids = list(range(len(sp.line_sets)))
    line_maps = [identity_line_map(sp)]
    for seed in range(100):
        c = sample_collineation(sp, seed)
        lm = induced_line_map(collineation_point_map(c, sp, sp))
        line_maps.append(lm)
        line_maps.append(LineMap(sp, sp, _swapped(lm.image, *rng.sample(line_ids, 2))))
    while len(line_maps) < 300:
        shuffled = rng.sample(line_ids, len(line_ids))
        line_maps.append(LineMap(sp, sp, tuple(shuffled)))
    seen = set()
    for lm in line_maps:
        for centre in sp.point_labels:
            images = {lm.image[l] for l in star(sp, centre)}
            want = images in stars
            assert pencil_image_is_pencil(lm, pencil(sp, centre, 0)) == want
            seen.add(want)
    assert seen == {False, True}


@pytest.mark.parametrize("lines", [(-1, 0, 1), (0, 1, 35), (0, 1.0, 2), (True, 0, 2)])
def test_pencil_image_is_pencil_refuses_ids_that_name_no_line(pg32, lines):
    # A negative id must not wrap onto the last line.
    with pytest.raises(BadConfiguration):
        pencil_image_is_pencil(identity_line_map(pg32), lines)


@pytest.mark.parametrize("lines", [[], ()])
def test_pencil_image_of_no_lines_is_no_pencil(pg32, lines):
    assert pencil_image_is_pencil(identity_line_map(pg32), lines) is False


def test_pencil_image_collapse_is_rejected(pg32):
    plane_id = planes_through_point(pg32, 0)[0]
    pen = pencil(pg32, 0, plane_id)
    image = list(range(35))
    image[pen[0]] = pen[1]
    lm = LineMap(source=pg32, target=pg32, image=tuple(image))
    assert not pencil_image_is_pencil(lm, pen)


@pytest.mark.parametrize("n", [2, 3])
def test_pencil_image_is_pencil_across_orders(n):
    # A pencil of PG(n, 2) has three lines and one of PG(n, 3) four, so
    # three lines of one target pencil are no target pencil.
    sp, sp2 = build_space(n, 2), build_space(n, 3)
    plane_id = planes_through_point(sp, 0)[0]
    source_pencil = pencil(sp, 0, plane_id)
    image = list(range(len(sp.line_sets)))
    for l, m in zip(source_pencil, pencil(sp2, 0, planes_through_point(sp2, 0)[0])):
        image[l] = m
    lm = LineMap(sp, sp2, tuple(image))
    images = {lm.image[l] for l in source_pencil}
    oracle = any(
        images == set(filtered_pencil(sp2, lines, c))
        for pts, lines in spanned_planes(sp2)
        for c in pts
    )
    assert pencil_image_is_pencil(lm, source_pencil) is oracle is False


def _grouped_pencil_rule(lm, q_point, plane_id):
    """The pencil rule that groups a target star: the images of the pencil
    at (q_point, plane_id) are distinct and are the target pencil at their
    one common point in their one common plane."""
    source_pencil = pencil(lm.source, q_point, plane_id)
    images = {lm.image[l] for l in source_pencil}
    sp2 = lm.target
    common_pts = frozenset.intersection(*(sp2.line_sets[l] for l in images))
    common_planes = frozenset.intersection(*(planes_of_line(sp2, l) for l in images))
    if len(images) != len(source_pencil) or len(common_pts) != 1 or len(common_planes) != 1:
        return False
    (centre,), (plane,) = common_pts, common_planes
    return images == set(pencil(sp2, centre, plane))


@pytest.mark.parametrize("n,q", [(2, 3), (3, 2), (3, 3), (4, 2)])
def test_suite2_predicates_match_the_per_star_and_per_pencil_rules(n, q, monkeypatch):
    # Theorem 2's predicate c reads one term per star and predicate d one
    # per pencil.  Each star's term is whether the full classification of
    # its restriction is a collineation, and each pencil's term is the rule
    # that groups a target star: on seeded collineations, and dualities in
    # dimension 3, at every star and pencil; and with two star lines
    # swapped or merged at each point, at that star and at every pencil
    # holding either line, the only pencils whose images move.  A copy's
    # other stars send lines off kappa's stars, so the copy has no kappa of
    # its own: reconstruction is pinned to the generated map's report, and
    # the stars read are pinned too.  `any` keeps every term it reads.
    sp = build_space(n, q)
    points = sp.point_labels
    rng = random.Random(n * q)
    kinds = [InstanceKind.COLLINEATION] + [InstanceKind.DUALITY] * (n == 3)
    terms, centres, at, seen_c, seen_d = [], [], set(), set(), set()

    def kept_any(predicate_terms):
        terms.append(list(predicate_terms))
        return any(terms[-1])

    monkeypatch.setattr(theorems, "any", kept_any, raising=False)
    monkeypatch.setattr(theorems, "star_rows", lambda lm, kappa, _: star_rows(lm, kappa, centres))
    monkeypatch.setattr(theorems, "pencils", lambda s, x: projspace.pencils(s, x) if x in at else {})
    for kind in kinds:
        lm = generate_instance(InstanceGenerator(1, kind), sp, sp)
        report = reconstruct_point_map(lm)
        monkeypatch.setattr(theorems, "reconstruct_point_map", lambda _: report)
        cases = [(lm, points, points)]
        for p in points:
            i, j = rng.sample(range(len(star(sp, p))), 2)
            moved = sp.line_sets[star(sp, p)[i]] | sp.line_sets[star(sp, p)[j]]
            for variant in (_star_swapped(lm, p, i, j), _star_merged(lm, p, i, j)):
                cases.append((variant, (p,), moved))
        for c, (variant, read, moved) in enumerate(cases):
            centres[:] = read
            at.clear()
            at.update(moved)
            terms.clear()
            theorems.theorem2_predicates(variant)
            stars, pencils = [], []
            for p in centres:
                restriction = restrict_to_star(variant, p, report.kappa)
                stars.append(classify_point_map(restriction) is MapKind.COLLINEATION)
                flags = check_properties(restriction)
                seen_c.add((stars[-1], flags.injective and flags.surjective))
            for p in filter(at.__contains__, points):
                for plane_id, lines in projspace.pencils(sp, p).items():
                    pencils.append(_grouped_pencil_rule(variant, p, plane_id))
                    images = {variant.image[l] for l in lines}
                    common = frozenset.intersection(*(sp.line_sets[l] for l in images))
                    seen_d.add((pencils[-1], len(images) == q + 1 and len(common) == 1))
            assert terms == [stars, pencils], f"{kind} case {c}"
    # Both branches of each term, and in dimension 3 and above the terms
    # that a weaker rule would pass: a bijective star restriction that is
    # no collineation, and q+1 concurrent images in no common plane.
    expected = {(True, True), (False, False)}
    if n > 2:
        expected.add((False, True))
    assert seen_c == seen_d == expected


def _first_valid_config(sp, q_point):
    for plane_id in planes_through_point(sp, q_point):
        pts = plane_points(sp, plane_id)
        for l in range(len(sp.line_sets)):
            if sp.line_sets[l] <= pts and q_point not in sp.line_sets[l]:
                return plane_id, l
    raise AssertionError("no configuration found")


def test_intersection_compatibility_identity(pg32):
    lm = identity_line_map(pg32)
    kappa = PointMap(source=pg32, target=pg32, image={p: p for p in range(15)})
    plane_id, a = _first_valid_config(pg32, 0)
    assert intersection_compatibility_check(lm, kappa, 0, plane_id, a)


def test_intersection_compatibility_collineation_and_duality(pg32):
    c = sample_collineation(pg32, 4)
    lm = induced_line_map(collineation_point_map(c, pg32, pg32))
    kappa = reconstruct_point_map(lm).kappa
    plane_id, a = _first_valid_config(pg32, 3)
    assert intersection_compatibility_check(lm, kappa, 3, plane_id, a)

    d = sample_duality(pg32, 4)
    dlm = duality_line_map(d, pg32, pg32)
    dkappa = reconstruct_point_map(dlm).kappa
    assert intersection_compatibility_check(dlm, dkappa, 3, plane_id, a)


def test_intersection_compatibility_detects_wrong_kappa(pg32):
    lm = identity_line_map(pg32)
    plane_id, a = _first_valid_config(pg32, 0)
    pen = pencil(pg32, 0, plane_id)
    crossing = meet(pg32, pen[0], a)
    image = {p: p for p in range(15)}
    other = next(p for p in range(15) if p != crossing)
    image[crossing], image[other] = other, crossing
    kappa = PointMap(source=pg32, target=pg32, image=image)
    assert not intersection_compatibility_check(lm, kappa, 0, plane_id, a)


def test_intersection_compatibility_follows_kappa_not_dual_flag(pg32):
    # A GRASSMAP file without the DUAL token arrives with dual=False even when
    # its table is a duality's; kappa alone says which meet to compare.
    configs = []
    for plane_id in planes_through_point(pg32, 0):
        pts = plane_points(pg32, plane_id)
        configs += [
            (plane_id, a)
            for a in range(35)
            if pg32.line_sets[a] <= pts and 0 not in pg32.line_sets[a]
        ]
    assert len(configs) == 7 * 4
    for kind in (InstanceKind.COLLINEATION, InstanceKind.DUALITY):
        for seed in range(20):
            lm = generate_instance(InstanceGenerator(seed=seed, kind=kind), pg32, pg32)
            kappa = reconstruct_point_map(lm).kappa
            assert (kappa.target is pg32) == (kind is InstanceKind.COLLINEATION)
            for dual in (False, True):
                relabelled = dataclasses.replace(lm, dual=dual)
                for plane_id, a in configs:
                    assert intersection_compatibility_check(
                        relabelled, kappa, 0, plane_id, a
                    ), (kind, seed, dual, a)


def test_intersection_compatibility_rejects_coinciding_images(pg32):
    plane_id, a = _first_valid_config(pg32, 0)
    image = list(range(35))
    image[pencil(pg32, 0, plane_id)[0]] = a
    lm = LineMap(source=pg32, target=pg32, image=tuple(image))
    kappa = PointMap(source=pg32, target=pg32, image={p: p for p in range(15)})
    assert not intersection_compatibility_check(lm, kappa, 0, plane_id, a)


def test_intersection_compatibility_rejects_a_kappa_from_another_space(pg32):
    # Read by label, this kappa would pass: the identity line map's images
    # meet where the labels say.
    plane_id, a = _first_valid_config(pg32, 0)
    kappa = PointMap(build_space(3, 3), pg32, {p: p % 15 for p in range(40)})
    with pytest.raises(PreconditionViolated, match="source"):
        intersection_compatibility_check(identity_line_map(pg32), kappa, 0, plane_id, a)


def test_intersection_compatibility_needs_kappa(pg32):
    plane_id, a = _first_valid_config(pg32, 0)
    with pytest.raises(PreconditionViolated):
        intersection_compatibility_check(identity_line_map(pg32), None, 0, plane_id, a)


def test_intersection_compatibility_bad_configurations(pg32):
    lm = identity_line_map(pg32)
    kappa = PointMap(source=pg32, target=pg32, image={p: p for p in range(15)})
    plane_id, a = _first_valid_config(pg32, 0)
    pen = pencil(pg32, 0, plane_id)
    with pytest.raises(BadConfiguration):
        intersection_compatibility_check(lm, kappa, 0, plane_id, pen[0])
    pts = plane_points(pg32, plane_id)
    outside = next(
        l for l in range(35) if not pg32.line_sets[l] <= pts
    )
    with pytest.raises(BadConfiguration):
        intersection_compatibility_check(lm, kappa, 0, plane_id, outside)
    for a in (-1, 35):  # a negative id must not wrap onto the last line
        with pytest.raises(BadConfiguration, match=f"no line {a}"):
            intersection_compatibility_check(lm, kappa, 0, plane_id, a)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_reconstruction_round_trip(seed):
    sp = build_space(3, 2)
    c = sample_collineation(sp, seed)
    pm = collineation_point_map(c, sp, sp)
    lm = induced_line_map(pm)
    kappa = reconstruct_point_map(lm).kappa
    assert kappa.image == pm.image
    assert induced_line_map(kappa).image == lm.image


def _swapped(image, a, b):
    """A copy of a point map's dict or a line map's tuple, a and b swapped."""
    out = list(image) if isinstance(image, tuple) else dict(image)
    out[a], out[b] = image[b], image[a]
    return type(image)(out)


def _merged(image, a, b):
    out = dict(image)
    out[a] = image[b]
    return out


def _table_cases(rng):
    """Random, constant, collapsed and perturbed image tables."""
    for n, q in ((2, 2), (3, 2), (2, 3), (3, 3)):
        sp = build_space(n, q)
        labels = range(len(sp.point_labels))
        on_line = sorted(sp.line_sets[0])
        off_line = next(p for p in labels if p not in sp.line_sets[0])
        yield PointMap(sp, sp, {p: rng.randrange(len(labels)) for p in labels})
        yield PointMap(sp, sp, {p: 0 for p in labels})
        yield PointMap(sp, sp, {p: rng.choice(on_line) for p in labels})
        yield PointMap(sp, sp, {p: rng.choice(on_line[:2] + [off_line]) for p in labels})
        shuffled = list(labels)
        rng.shuffle(shuffled)
        yield PointMap(sp, sp, dict(zip(labels, shuffled)))
        for seed in range(3):
            image = collineation_point_map(sample_collineation(sp, seed), sp, sp).image
            a, b = rng.sample(labels, 2)
            yield PointMap(sp, sp, image)
            yield PointMap(sp, sp, _swapped(image, a, b))
            yield PointMap(sp, sp, _merged(image, a, b))
    for small, big in (((2, 2), (3, 2)), ((2, 3), (3, 3))):
        sp, sp2 = build_space(*small), build_space(*big)
        image = {p: sp2.point_index[c + (0,)] for p, c in enumerate(sp.coords)}
        yield PointMap(sp, sp2, image)
        yield PointMap(sp, sp2, _swapped(image, 0, len(sp.point_labels) - 1))


def _star_swapped(lm, q_point, i, j):
    members = star(lm.source, q_point)
    return LineMap(lm.source, lm.target, _swapped(lm.image, members[i], members[j]), lm.dual)


def _kappa_cases():
    """Reconstructed point maps and their star restrictions, into the
    target, its dual and the target's quotients, and for a duality the
    same restrictions read in the dual's plane quotients."""
    for n, q in ((3, 2), (3, 3)):
        sp = build_space(n, q)
        last = len(sp.point_labels) - 1
        for kind in (InstanceKind.COLLINEATION, InstanceKind.DUALITY):
            lm = generate_instance(InstanceGenerator(1, kind), sp, sp)
            kappa = reconstruct_point_map(lm).kappa
            yield kappa
            yield PointMap(kappa.source, kappa.target, _swapped(kappa.image, 0, last))
            yield PointMap(kappa.source, kappa.target, _merged(kappa.image, 0, last))
            for q_point in (0, last):
                yield restrict_to_star(lm, q_point, kappa)
            swapped = _star_swapped(lm, 0, 0, 1)
            yield restrict_to_star(swapped, 0, kappa)
            if kind is InstanceKind.DUALITY:
                for variant in (lm, swapped):
                    yield _plane_quotient_restriction(variant, 0, kappa)


def _two_line_cases():
    two = IncidenceStructure(
        point_labels=tuple(range(6)),
        line_sets=(frozenset({0, 1, 2}), frozenset({3, 4, 5})),
        kind="native",
        detail="two lines",
    )
    one = IncidenceStructure(
        point_labels=tuple(range(6)),
        line_sets=(frozenset(range(6)),),
        kind="native",
        detail="one line",
    )
    wider = IncidenceStructure(
        point_labels=tuple(range(7)),
        line_sets=two.line_sets + (frozenset({0, 3, 6}),),
        kind="native",
        detail="three lines",
    )
    identity = {p: p for p in range(6)}
    for image in (identity, _swapped(identity, 2, 3), _merged(identity, 0, 1)):
        for source, target in ((two, one), (one, two), (two, two), (two, wider)):
            yield PointMap(source, target, image)
    # a line onto two points that share no line
    yield PointMap(two, two, {0: 0, 1: 3, 2: 3, 3: 3, 4: 4, 5: 5})


def test_check_properties_matches_triple_oracle():
    cases = [
        *_table_cases(random.Random(20)),
        *_kappa_cases(),
        *_two_line_cases(),
    ]
    seen = set()
    for i, pm in enumerate(cases):
        flags = dataclasses.astuple(check_properties(pm))
        assert flags == triple_property_flags(pm), f"case {i}: {pm.source!r}->{pm.target!r}"
        seen.update(enumerate(flags))
    # every flag is seen both true and false, so no rule is checked vacuously
    assert seen == {(k, v) for k in range(4) for v in (False, True)}


def _drawn_structure(data):
    """A small incidence structure over labels that are not 0..n-1, as a
    quotient's are (parent line ids).  Its lines share at most one label
    with every earlier line, some labels may lie on no line, and sometimes
    one more line passes through two labels of the first, so that two
    lines share two points."""
    labels = data.draw(st.lists(st.integers(0, 99), min_size=1, max_size=7, unique=True))
    lines = []
    if len(labels) >= 2:
        subsets = st.frozensets(st.sampled_from(labels), min_size=2)
        for s in data.draw(st.lists(subsets, max_size=6)):
            if all(len(s & l) <= 1 for l in lines):
                lines.append(s)
    if lines and data.draw(st.booleans()):
        pair = set(sorted(lines[0])[:2])
        doubled = data.draw(st.frozensets(st.sampled_from(labels))) | pair
        if doubled not in lines:
            lines.append(doubled)
    return IncidenceStructure(
        point_labels=tuple(labels), line_sets=tuple(lines), kind="native", detail="drawn"
    )


def _grown(data, source):
    """A copy of source with one more label, put on some of its lines."""
    new = max(source.point_labels) + 1
    lines = source.line_sets
    grown = data.draw(st.lists(st.booleans(), min_size=len(lines), max_size=len(lines)))
    return IncidenceStructure(
        point_labels=source.point_labels + (new,),
        line_sets=tuple(s | {new} if g else s for s, g in zip(lines, grown)),
        kind="native",
        detail="grown",
    )


POINT_TABLES = ["constant", "collapsing", "injective", "into a grown copy", "total"]


@given(data=st.data(), family=st.sampled_from(POINT_TABLES))
@settings(max_examples=300, deadline=None)
def test_check_properties_matches_the_oracles_on_drawn_structures(data, family):
    source = _drawn_structure(data)
    labels = source.point_labels
    size = len(labels)
    if family == "into a grown copy":  # injective, and target lines hold unmapped labels
        target, image = _grown(data, source), labels
    else:
        target = _drawn_structure(data)
        values = st.sampled_from(target.point_labels)
    if family == "constant":
        image = [data.draw(values)] * size
    elif family == "collapsing":  # fewer distinct images than labels
        chosen = data.draw(st.lists(values, min_size=1, max_size=max(1, size - 1)))
        image = data.draw(st.lists(st.sampled_from(chosen), min_size=size, max_size=size))
    elif family == "injective":
        assume(len(target.point_labels) >= size)
        image = data.draw(st.permutations(target.point_labels))[:size]
    elif family == "total":
        image = data.draw(st.lists(values, min_size=size, max_size=size))
    pm = PointMap(source, target, dict(zip(labels, image)))
    flags = dataclasses.astuple(check_properties(pm))
    assert flags == line_rule_property_flags(pm)
    # the definitions over triples match the line rule only where two
    # lines share at most one point (see `line_rule_property_flags`)
    pairs = (pair for s in (source, target) for pair in combinations(s.line_sets, 2))
    if all(len(a & b) <= 1 for a, b in pairs):
        assert flags == triple_property_flags(pm)


def test_check_properties_matches_full_triple_walk_pg34():
    sp = build_space(3, 4)
    lm = generate_instance(InstanceGenerator(0, InstanceKind.DUALITY), sp, sp)
    kappa = reconstruct_point_map(lm).kappa
    assert kappa.target is dual_space(sp)
    swapped = PointMap(sp, kappa.target, _swapped(kappa.image, 0, 84))
    for pm in (kappa, swapped):
        assert dataclasses.astuple(check_properties(pm)) == triple_property_flags(pm)
    assert classify_point_map(kappa) == MapKind.COLLINEATION
    assert classify_point_map(swapped) == MapKind.OTHER


def test_map_tables_must_be_total(pg22):
    with pytest.raises(PreconditionViolated):
        PointMap(source=pg22, target=pg22, image={0: 0})
    with pytest.raises(PreconditionViolated):
        LineMap(source=pg22, target=pg22, image={0: 0})


@pytest.mark.parametrize(
    "make,message",
    [
        (lambda sp: LineMap(sp, sp, (-35, *range(1, 35))), "outside the target"),
        (lambda sp: LineMap(sp, sp, (35, *range(1, 35))), "outside the target"),
        (lambda sp: PointMap(sp, sp, {**{p: p for p in range(15)}, 0: -1}), "outside the target"),
        (lambda sp: PointMap(sp, sp, {**{p: p for p in range(15)}, 1: True}), "outside the target"),
        (lambda sp: PointMap(sp, sp, {**{p: p for p in range(15)}, 2: 2.0}), "outside the target"),
        (lambda sp: PointMap(sp, sp, {True: 1, **{p: p for p in range(2, 15)}, 0: 0}),
         "not total on the source"),
        (lambda sp: LineMap(sp, sp, tuple(range(34))), "not a tuple of 35 line ids"),
        (lambda sp: LineMap(sp, sp, tuple(range(36))), "not a tuple of 35 line ids"),
        (lambda sp: LineMap(sp, sp, (0, True, *range(2, 35))), "outside the target"),
        (lambda sp: LineMap(sp, sp, (0, 1, 2, 3.0, *range(4, 35))), "outside the target"),
        (lambda sp: LineMap(sp, sp, tuple(range(35)), dual="no"), "not a bool"),
        (lambda sp: LineMap(sp, sp, tuple(range(35)), dual=1), "not a bool"),
        (lambda sp: LineMap(pg42 := build_space(4, 2), pg42, tuple(range(155)), dual=True),
         "3-dimensional target"),
    ],
    ids=["line-negative", "line-past-the-end", "point-negative", "point-bool", "point-float",
         "point-bool-key", "line-short", "line-long", "line-bool", "line-float", "dual-str",
         "dual-int", "dual-pg42"],
)
def test_map_tables_must_stay_inside_the_target(pg32, make, message):
    # A negative id would wrap onto a real line or point of the target; a
    # bool or a float equal to an id or a label is neither, and a table of
    # the wrong length is no line map of PG(3,2).  A dual flag that is no
    # bool, or a dual map into PG(4,2), would be written as DUAL and refused
    # when read back.
    with pytest.raises(PreconditionViolated, match=message):
        make(pg32)


@pytest.mark.parametrize(
    "matrix,auto_index,q",
    [
        (identity_matrix(3), 0, 2),
        (((1, 0, 0, 0),) * 4, 0, 2),
        (identity_matrix(4), 1, 2),
        (identity_matrix(4), -1, 2),
        (identity_matrix(4)[:3] + ((0, 0, 0, -1),), 0, 2),
        (identity_matrix(4)[:3] + ((0, 0, 0, 2),), 0, 2),
        (identity_matrix(4)[:3] + ((0, 0, 0, 1.0),), 0, 2),
        (identity_matrix(4), 0.0, 2),
        (identity_matrix(4)[:3] + ((0, 0, 0, True),), 0, 2),
        (identity_matrix(4), True, 4),  # index 1 is Frobenius on GF(4)
    ],
    ids=["shape", "singular", "auto-high", "auto-negative", "entry-negative",
         "entry-q", "entry-float", "auto-float", "entry-bool", "auto-bool-pg34"],
)
def test_semilinear_maps_reject_bad_input(matrix, auto_index, q):
    sp = build_space(3, q)
    with pytest.raises(BadConfiguration):
        collineation_point_map(Collineation(matrix, auto_index), sp, sp)
    with pytest.raises(BadConfiguration):
        duality_line_map(Duality(matrix, auto_index), sp, sp)
    with pytest.raises(BadConfiguration):
        duality_point_to_plane(Duality(matrix, auto_index), sp, sp)


def test_semilinear_entry_points_refuse_the_other_kind(pg32):
    # A collineation's line table marked dual would be written as DUAL, and
    # a duality's rows read as points are the image planes' normals.
    identity = identity_matrix(4)
    with pytest.raises(BadConfiguration, match="a Collineation is no Duality"):
        duality_line_map(Collineation(identity), pg32, pg32)
    with pytest.raises(BadConfiguration, match="a Duality is no Collineation"):
        collineation_point_map(Duality(identity), pg32, pg32)
    with pytest.raises(BadConfiguration, match="a Collineation is no Duality"):
        duality_point_to_plane(Collineation(identity), pg32, pg32)


POINT_MAPS = ["collineation", "swapped collineation", "permutation", "total"]


@given(data=st.data(), n=st.sampled_from([2, 3]), family=st.sampled_from(POINT_MAPS))
@settings(max_examples=300, deadline=None)
def test_induced_line_map_matches_the_join_oracle(data, n, family):
    sp = build_space(n, 2)
    points = sp.point_labels
    some_point = st.sampled_from(points)
    if family == "permutation":  # injective, almost never collinear
        image = data.draw(st.permutations(points))
    elif family == "total":  # mostly collapsing
        image = data.draw(st.lists(some_point, min_size=len(points), max_size=len(points)))
    else:
        c = sample_collineation(sp, data.draw(st.integers(0, 1000)))
        image = list(collineation_point_map(c, sp, sp).image.values())
        if family == "swapped collineation":
            i, j = data.draw(st.lists(some_point, min_size=2, max_size=2, unique=True))
            image[i], image[j] = image[j], image[i]
    pm = PointMap(sp, sp, dict(zip(points, image)))
    try:
        expected = joined_line_map(pm)
    except NotLineConsistent as exc:
        with pytest.raises(NotLineConsistent) as got:
            induced_line_map(pm)
        assert (type(got.value), str(got.value)) == (type(exc), str(exc))
    else:
        assert induced_line_map(pm).image == expected


def test_induced_line_map_needs_coordinate_spaces(pg32):
    inc = quotient(pg32, 0)
    pm = PointMap(source=inc, target=inc, image={p: p for p in inc.point_labels})
    with pytest.raises(IncompatibleSpaces):
        induced_line_map(pm)


def _truncated(real):
    return lambda *args: real(*args)[:1]


def _swap_first_two_normals(real, bases):
    swap = {bases[0]: bases[1], bases[1]: bases[0]}
    return lambda f, rows: real(f, swap.get(rows, rows))


def _faked_normals(fake):
    def corrupt(monkeypatch, sp):
        monkeypatch.setattr(projspace, "_normal", fake(projspace._normal, planes(sp)))
    return corrupt


def _plane_dropped_from_line_0(monkeypatch, sp):
    tables = projspace._planes(sp)
    on_line = list(tables.on_line)
    on_line[0] = frozenset(sorted(on_line[0])[1:])
    sp._plane_tables = tables._replace(on_line=tuple(on_line))


POLARITY_READERS = [
    lambda sp: duality_line_map(Duality(identity_matrix(4)), sp, sp),
    lambda sp: duality_point_to_plane(Duality(identity_matrix(4)), sp, sp),
    lambda sp: generate_instance(InstanceGenerator(0, InstanceKind.DUALITY), sp, sp),
    theorems.duality_generator,
    dual_space,
]


@pytest.mark.parametrize(
    "corrupt,message",
    [
        (_faked_normals(_swap_first_two_normals), r"is not isomorphic to PG\(3,2\)"),
        (_faked_normals(lambda real, bases: lambda f, rows: real(f, rows[:2])),
         "plane 0 has no 1-dimensional normal"),
        (_faked_normals(lambda real, bases: lambda f, rows: real(f, bases[0])),
         r"is not isomorphic to PG\(3,2\)"),
        (_plane_dropped_from_line_0, r"is not isomorphic to PG\(3,2\)"),
    ],
    ids=["normals-not-collinear", "no-normal", "shared-normal", "planes-on-line"],
)
def test_duality_maps_raise_on_a_broken_polarity(monkeypatch, corrupt, message):
    # Every reader of the polarity reads a table that the dual's one
    # certificate passed, so each corruption is refused at every reader
    # and no table is cached.
    sp = projspace._build_space(3, 2)
    corrupt(monkeypatch, sp)
    for read in POLARITY_READERS:
        with pytest.raises(GeometryError, match=message):
            read(sp)
        assert sp._polarity is None


@pytest.mark.parametrize("q", [2, 3, 4])
@given(seed=st.integers(0, 10_000), auto=st.integers(0, 1))
@settings(max_examples=15, deadline=None)
def test_duality_maps_agree_with_the_annihilator_oracles(q, seed, auto):
    # On GF(4) the automorphism index draws Frobenius as often as not.
    sp = build_space(3, q)
    d = Duality(sample_duality(sp, seed).matrix, auto % len(sp.field.automorphisms))
    assert duality_line_map(d, sp, sp).image == annihilator_line_map(d, sp, sp)
    assert duality_point_to_plane(d, sp, sp) == annihilator_point_to_plane(d, sp, sp)


KERNEL_SPACES = [(2, 4), (3, 2), (3, 3), (3, 4), (3, 5), (3, 8), (2, 9), (4, 2)]


@pytest.mark.parametrize("n,q", KERNEL_SPACES)
def test_point_parents_add_one_coordinate(n, q):
    sp = build_space(n, q)
    for p, (parent, j, x) in enumerate(point_parents(sp)):
        c = sp.coords[p]
        assert x == c[j] != 0 and not any(c[j + 1:])
        assert (parent < 0) == (sum(map(bool, c)) == 1)
        if parent >= 0:
            assert parent < p
            step = tuple(x if i == j else 0 for i in range(n + 1))
            assert c == vec_add(sp.field, sp.coords[parent], step)


@pytest.mark.parametrize("n,q", KERNEL_SPACES)
def test_semilinear_rows_match_the_per_point_oracle(n, q):
    # Both kinds share the kernel; every automorphism index is tried.
    sp = build_space(n, q)
    for seed in range(3):
        matrix = sample_collineation(sp, seed).matrix
        for a in range(len(sp.field.automorphisms)):
            for t in (Collineation(matrix, a), Duality(matrix, a)):
                assert maps._semilinear_rows(t, sp, sp) == per_point_row_ids(t, sp, sp)


def _row_moved_off_its_line(real):
    """_semilinear_rows with point 0's row moved off the image of the first
    line through point 0, onto a point that the other rows of that line
    do not span."""
    def rows(t, sp, sp2):
        ids = real(t, sp, sp2)
        a, b, *_ = (ids[p] for p in sp.line_sets[star(sp, 0)[0]] if p != 0)
        image = sp2.line_sets[join(sp2, a, b)]
        ids[0] = next(x for x in sp2.point_labels if x not in image)
        return ids
    return rows


@pytest.mark.parametrize("q", [2, 3])
def test_line_tables_read_every_point_of_every_line(monkeypatch, q):
    # A table that joined only two rows per line would map every line to a
    # line, whichever two it read, and raise nothing.
    sp = build_space(3, q)
    monkeypatch.setattr(maps, "_semilinear_rows", _row_moved_off_its_line(maps._semilinear_rows))
    for kind in InstanceKind:
        with pytest.raises(NotLineConsistent, match="not collinear"):
            generate_instance(InstanceGenerator(5, kind), sp, sp)
    with pytest.raises(NotLineConsistent, match="not collinear"):
        duality_line_map(Duality(identity_matrix(4)), sp, sp)


@pytest.mark.parametrize(
    "name,fake,call,message",
    [
        ("star", _truncated(maps.star),
         lambda sp: reconstruct_point_map(identity_line_map(sp)),
         "shares"),
        ("meet", lambda sp, a, b: None,
         lambda sp: intersection_compatibility_check(
             identity_line_map(sp),
             PointMap(source=sp, target=sp, image={p: p for p in range(15)}),
             0,
             *_first_valid_config(sp, 0),
         ),
         "do not meet"),
    ],
)
def test_reconstruction_invariants_raise(pg32, monkeypatch, name, fake, call, message):
    # These checks must survive python -O, so they raise instead of asserting.
    monkeypatch.setattr(maps, name, fake)
    with pytest.raises(GeometryError, match=message):
        call(pg32)


def test_reconstruction_invariants_raise_in_the_dual(pg32, monkeypatch):
    # A duality's star images share no point, so reconstruction reads the
    # plane on two of their lines; plane tables that put every plane on
    # every line must raise.
    lm = duality_line_map(Duality(identity_matrix(4)), pg32, pg32)
    tables = projspace._planes(pg32)
    monkeypatch.setattr(pg32, "_plane_tables", tables._replace(on_line=(frozenset(range(15)),) * 35))
    with pytest.raises(GeometryError, match=r"shares 15 planes with line \d+ of PG\(3,2\)"):
        reconstruct_point_map(lm)
