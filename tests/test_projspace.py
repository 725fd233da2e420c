import collections
import hashlib
import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from grasspace import projspace
from grasspace.errors import (
    BadConfiguration,
    DimensionTooSmall,
    EqualLines,
    EqualPoints,
    GeometryError,
    NotAPlane,
    PointNotInPlane,
    RepeatedPoints,
    UnsupportedDimension,
    UnsupportedOrder,
)
from grasspace.grassmann import build_grassmann
from grasspace.maps import noncollinear_witness
from grasspace.projspace import (
    IncidenceStructure,
    build_space,
    collinear,
    dual_space,
    gaussian_binomial,
    join,
    lines_in_plane,
    meet,
    pencil,
    plane_points,
    plane_quotient,
    planes,
    planes_of_line,
    planes_through_point,
    point_id_of_vector,
    polarity,
    quotient,
    star,
    star_native,
    star_ranks,
    verify_projective_axioms,
)
from grasspace.theorems import (
    InstanceGenerator,
    InstanceKind,
    generate_instance,
    verify_population,
    verify_theorem1,
    verify_theorem2,
)

from oracles import (
    collinear_triple_count,
    filtered_pencil,
    incidence_dual,
    incidence_isomorphic,
    is_clique,
    prime_subspace_count,
    projected_star,
    spanned_lines,
    spanned_planes,
    structure_planes,
)


def affine_plane_order3():
    """AG(2,3) as an incidence structure: a linear space that is not projective."""
    label = lambda x, y: 3 * x + y
    lines = [frozenset(label(x, y) for y in range(3)) for x in range(3)]
    for m in range(3):
        for b in range(3):
            lines.append(frozenset(label(x, (m * x + b) % 3) for x in range(3)))
    return IncidenceStructure(
        point_labels=tuple(range(9)), line_sets=tuple(lines), kind="native", detail="ag23"
    )


def test_gaussian_binomial_known_values():
    assert gaussian_binomial(3, 1, 2) == 7
    assert gaussian_binomial(4, 1, 2) == 15
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(4, 2, 3) == 130
    assert gaussian_binomial(5, 2, 2) == 155
    assert gaussian_binomial(5, 1, 2) == 31
    assert gaussian_binomial(4, 0, 5) == 1
    assert gaussian_binomial(2, 3, 2) == 0


@pytest.mark.parametrize(
    "m,k,p",
    [(3, 1, 2), (3, 2, 2), (4, 1, 2), (4, 2, 2), (4, 3, 2), (3, 1, 3), (3, 2, 3), (4, 2, 3), (5, 2, 2)],
)
def test_gaussian_binomial_against_span_enumeration(m, k, p):
    assert gaussian_binomial(m, k, p) == prime_subspace_count(m, k, p)


@given(
    m=st.integers(0, 7),
    k=st.integers(0, 7),
    q=st.sampled_from([2, 3, 4, 5]),
)
def test_gaussian_binomial_symmetry(m, k, q):
    assert gaussian_binomial(m, k, q) == gaussian_binomial(m, m - k, q)


@pytest.mark.parametrize(
    "n,q,points,lines",
    [(2, 2, 7, 7), (3, 2, 15, 35), (2, 3, 13, 13), (3, 3, 40, 130), (4, 2, 31, 155), (2, 4, 21, 21)],
)
def test_space_counts(n, q, points, lines):
    sp = build_space(n, q)
    assert len(sp.point_labels) == points
    assert len(sp.line_sets) == lines
    assert points == gaussian_binomial(n + 1, 1, q)
    assert lines == gaussian_binomial(n + 1, 2, q)


def test_build_space_rejects_bad_parameters():
    with pytest.raises(DimensionTooSmall):
        build_space(1, 2)
    with pytest.raises(UnsupportedOrder):
        build_space(3, 6)


def test_canonical_point_order_pg22(pg22):
    coords = list(pg22.coords)
    assert coords == [
        (0, 0, 1),
        (0, 1, 0),
        (0, 1, 1),
        (1, 0, 0),
        (1, 0, 1),
        (1, 1, 0),
        (1, 1, 1),
    ]
    assert coords == sorted(coords)


def test_points_sorted_and_normalized(pg33):
    coords = list(pg33.coords)
    assert coords == sorted(coords)
    for vec in coords:
        leading = next(c for c in vec if c)
        assert leading == 1


def test_lines_sorted_by_point_tuples(pg32):
    tuples = [tuple(sorted(s)) for s in pg32.line_sets]
    assert tuples == sorted(tuples)


def test_line_sizes(pg32, pg33):
    assert all(len(s) == 3 for s in pg32.line_sets)
    assert all(len(s) == 4 for s in pg33.line_sets)


def test_star_sizes(pg32, pg33, pg42):
    assert all(len(star(pg32, p)) == 7 for p in pg32.point_labels)
    assert all(len(star(pg33, p)) == 13 for p in pg33.point_labels)
    assert all(len(star(pg42, p)) == 15 for p in pg42.point_labels)


def test_join_meet_collinear_basics(pg22):
    l = join(pg22, 0, 1)
    assert pg22.line_sets[l] == {0, 1, 2}
    assert collinear(pg22, 0, 1, 2)
    assert not collinear(pg22, 0, 1, 3)
    other = join(pg22, 3, 4)
    assert meet(pg22, l, other) is not None
    with pytest.raises(EqualPoints):
        join(pg22, 4, 4)
    with pytest.raises(EqualLines):
        meet(pg22, 2, 2)
    with pytest.raises(RepeatedPoints):
        collinear(pg22, 1, 1, 2)


def test_join_meet_are_mutually_consistent(pg32):
    for l in range(10):
        a, b, c = sorted(pg32.line_sets[l])
        assert join(pg32, a, b) == l
        assert join(pg32, b, c) == l
        assert collinear(pg32, a, b, c)
    assert meet(pg32, 0, 1) is not None
    skew_found = False
    for other in range(1, 35):
        if not (pg32.line_sets[0] & pg32.line_sets[other]):
            assert meet(pg32, 0, other) is None
            skew_found = True
            break
    assert skew_found


def test_collinear_triple_count_matches_rank_oracle(pg22, pg23):
    coords = list(pg22.coords)
    expected = collinear_triple_count(coords, 2)
    assert expected == 7
    got = sum(
        1
        for a in range(7)
        for b in range(a + 1, 7)
        for c in range(b + 1, 7)
        if collinear(pg22, a, b, c)
    )
    assert got == expected
    coords = list(pg23.coords)
    got = sum(
        1
        for a in range(13)
        for b in range(a + 1, 13)
        for c in range(b + 1, 13)
        if collinear(pg23, a, b, c)
    )
    assert got == collinear_triple_count(coords, 3)


@given(data=st.data())
@settings(max_examples=60)
def test_point_id_of_vector_is_scale_invariant(data):
    sp = build_space(*data.draw(st.sampled_from([(2, 2), (3, 2), (2, 3), (3, 3), (2, 4)])))
    p = data.draw(st.integers(0, len(sp.point_labels) - 1))
    s = data.draw(st.integers(1, sp.q - 1))
    scaled = tuple(sp.field.mul(s, c) for c in sp.coords[p])
    assert point_id_of_vector(sp, scaled) == p


@pytest.mark.parametrize(
    "vec",
    [(-1, 0, 0, 0), (3, 0, 0, 0), (0, 1, 2, 7), (1, 0, 0), (1, 0, 0, 0, 0),
     (1.0, 0, 0, 0), (0, 0, True, 2), (2.0, 0, 0, 0)],
)
def test_point_id_of_vector_refuses_non_codes(pg33, vec):
    with pytest.raises(BadConfiguration):
        point_id_of_vector(pg33, vec)


def test_point_id_of_vector_refuses_zero(pg33):
    with pytest.raises(ValueError, match="zero vector"):
        point_id_of_vector(pg33, (0, 0, 0, 0))


def test_plane_tables(pg32):
    assert len(planes(pg32)) == 15
    for pl in range(15):
        pts = plane_points(pg32, pl)
        assert len(pts) == 7
        inside = lines_in_plane(pg32, pl)
        assert len(inside) == 7
        for l in inside:
            assert pg32.line_sets[l] <= pts
    for l in range(35):
        assert len(planes_of_line(pg32, l)) == 3
    for p in range(15):
        assert len(planes_through_point(pg32, p)) == 7


def test_plane_counts_pg33(pg33):
    assert len(planes(pg33)) == 40
    assert all(len(plane_points(pg33, pl)) == 13 for pl in range(40))
    assert all(len(planes_of_line(pg33, l)) == 4 for l in range(130))


@pytest.mark.parametrize("n,q", [(2, 3), (3, 2), (4, 2), (3, 3)])
def test_pencil_matches_the_oracle_planes(n, q):
    # Plane ids rank the sorted point sets, as the oracle's closures are sorted.
    sp = build_space(n, q)
    found = structure_planes(sp)
    assert len(found) == len(planes(sp))
    for plane_id, pts in enumerate(found):
        assert plane_points(sp, plane_id) == pts
        for p in pts:
            want = tuple(l for l in star(sp, p) if sp.line_sets[l] <= pts)
            assert pencil(sp, p, plane_id) == want, (p, plane_id)


@pytest.mark.parametrize("n,q", [(2, 3), (3, 2), (3, 3), (4, 2), (3, 4)])
def test_section_tables_match_the_span_and_filter_oracles(n, q):
    sp = _fresh(n, q)
    rows = spanned_planes(sp)
    assert [sorted(pts) for pts, _ in rows] == sorted(sorted(pts) for pts, _ in rows)
    assert len(rows) == gaussian_binomial(n + 1, 3, q)
    # Ids are shared objects, not fresh ints: a pencil's are its star's,
    # and each line id is one object in every plane that holds it.
    star_ids = {id(l) for ls in sp.lines_through.values() for l in ls}
    plane_ids = {}
    pencils = {}
    for plane_id, (pts, lines) in enumerate(rows):
        assert plane_points(sp, plane_id) == pts
        assert lines_in_plane(sp, plane_id) == lines
        assert all(plane_ids.setdefault(l, l) is l for l in lines_in_plane(sp, plane_id))
        for p in sp.point_labels:
            if p in pts:
                pencils[p, plane_id] = want = filtered_pencil(sp, lines, p)
                got = pencil(sp, p, plane_id)
                assert got == want
                assert all(id(l) in star_ids for l in got)
            else:
                with pytest.raises(PointNotInPlane):
                    pencil(sp, p, plane_id)
    for l in range(len(sp.line_sets)):
        assert planes_of_line(sp, l) == {pl for pl, (_, ls) in enumerate(rows) if l in ls}
    for p in sp.point_labels:
        assert planes_through_point(sp, p) == tuple(
            pl for pl, (pts, _) in enumerate(rows) if p in pts
        )

    def sorted_pencils(keys):
        return tuple(sorted((frozenset(pencils[k]) for k in keys), key=sorted))

    # Every star, and so its quotient and a plane's, is certified through its
    # ranks onto the native PG(n-1, q); PG(1, q) is q + 1 points on one line.
    native = star_native(sp)
    if n > 2:
        assert native is build_space(n - 1, q)
    else:
        assert native.line_sets == (frozenset(range(q + 1)),) and star_native(sp) is native
    for p in sp.point_labels:
        on = [(p, pl) for pl in planes_through_point(sp, p)]
        section = quotient(sp, p)
        assert section.line_sets == sorted_pencils(on)
        assert not hasattr(section, "lines_through")  # one star index: the masks
        ranks = projected_star(sp, p)
        assert star_ranks(sp, p) == ranks
        _certify(section, native, ranks)
    if n == 3:
        for plane_id, (pts, _) in enumerate(rows):
            on = [(p, plane_id) for p in pts]
            assert plane_quotient(sp, plane_id).line_sets == sorted_pencils(on)


@pytest.mark.parametrize("n,q", [(2, 9), (3, 5), (3, 8), (4, 3), (5, 2)])
def test_projection_from_a_centre_keeps_the_order_of_ids(n, q):
    # The certificates read each star line's projection as its rank in the
    # star; the coordinate oracle projects every star of spaces the section
    # tables test above does not reach, GF(8) among them.
    sp = build_space(n, q)
    for p in sp.point_labels:
        assert projected_star(sp, p) == dict(zip(star(sp, p), range(len(star(sp, p)))))


def test_pencil(pg32):
    pts = sorted(plane_points(pg32, 0))
    centre = pts[0]
    pen = pencil(pg32, centre, 0)
    assert len(pen) == 3
    for l in pen:
        assert centre in pg32.line_sets[l]
        assert pg32.line_sets[l] <= plane_points(pg32, 0)
    for plane_id in (-1, len(planes(pg32))):
        with pytest.raises(NotAPlane):
            pencil(pg32, centre, plane_id)
    outside = next(p for p in range(15) if p not in plane_points(pg32, 0))
    with pytest.raises(PointNotInPlane):
        pencil(pg32, outside, 0)


@pytest.mark.parametrize("point", [True, 3.0, -1, 10**6])
def test_pencil_refuses_an_id_that_names_no_point(pg32, point):
    # The plane holds points 1 and 3, which True and 3.0 equal in value.
    plane_id = next(pl for pl in range(15) if {1, 3} <= plane_points(pg32, pl))
    with pytest.raises(BadConfiguration, match="has no point"):
        pencil(pg32, point, plane_id)


@pytest.mark.parametrize("n,q", [(2, 3), (3, 2), (4, 2)])
def test_planes_through_a_point_are_the_oracle_planes_on_it(n, q):
    # Plane ids rank the sorted point sets, as the oracle's closures are sorted.
    sp = build_space(n, q)
    found = structure_planes(sp)
    for p in sp.point_labels:
        want = tuple(plane_id for plane_id, pts in enumerate(found) if p in pts)
        assert planes_through_point(sp, p) == want, p


@pytest.mark.parametrize(
    "labels,line_sets,message",
    [
        ((0, 0, 1), (frozenset({0, 3}),), "repeated point labels"),
        ((0, 1, 2), (frozenset({0, 1}), frozenset({0}), frozenset({0, 3})),
         "line 1 has fewer than two points"),
        ((0, 1, 2), (frozenset({0, 2}), frozenset({0, 2}), frozenset({0, 3})),
         "line 1 repeats an earlier line"),
        ((0, 1, 2), (frozenset({1, 2}), frozenset({0, 3}), frozenset({1, 2})),
         "line 1 passes through an unknown point"),
    ],
    ids=["repeated-label", "short-line", "repeated-line", "unknown-point"],
)
def test_incidence_structure_rejects_bad_input(labels, line_sets, message):
    # Each line is checked in turn, so a later bad line never hides an
    # earlier one and the message names the first.
    with pytest.raises(BadConfiguration, match=f"^{message}$"):
        IncidenceStructure(point_labels=labels, line_sets=line_sets, kind="native")


def _two_lines_sharing_two_points():
    return IncidenceStructure(
        point_labels=(0, 1, 2, 3, 4),
        line_sets=(frozenset({0, 1, 2}), frozenset({0, 1, 3}), frozenset({2, 3, 4})),
        kind="native",
        detail="pair on two lines",
    )


@pytest.mark.parametrize(
    "make",
    [_two_lines_sharing_two_points, lambda: quotient(build_space(3, 2), 5),
     lambda: build_space(2, 3)],
    ids=["non-linear", "quotient-pg32", "pg23"],
)
def test_line_through_and_collinear_match_a_scan_of_the_lines(make):
    inc = make()
    labels = inc.point_labels
    for a, b in product(labels, repeat=2):
        first = next((i for i, s in enumerate(inc.line_sets) if {a, b} <= s), None)
        assert inc.line_through(a, b) == (first if a != b else None)
    # A repeated first pair is never collinear, even where one line holds
    # the labels; in the non-linear case only the second line through 0 and
    # 1 holds 3, so collinear(0, 1, 3) must look past the first.
    for a, b, c in product(labels, repeat=3):
        held = any({a, b, c} <= s for s in inc.line_sets)
        assert inc.collinear(a, b, c) == (held and a != b), (a, b, c)


def test_space_is_its_own_incidence_core(pg32):
    assert pg32.point_labels == tuple(range(15))
    for l, s in enumerate(pg32.line_sets):
        a, b = sorted(s)[:2]
        assert pg32.line_through(a, b) == pg32.line_through(b, a) == l
    for p in range(15):
        assert star(pg32, p) == tuple(
            l for l in range(35) if p in pg32.line_sets[l]
        )


def test_native_spaces_pass_axioms():
    # every native space a quotient, plane quotient or dual is certified against
    for n, q in ((2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (3, 4), (4, 2)):
        inc = build_space(n, q)
        report = verify_projective_axioms(inc)
        assert report.passed, (n, q, str(report))
        assert inc.kind == "native"


def test_quotient_structures(pg32, pg33):
    inc = quotient(pg32, 0)
    assert inc.kind == "quotient"
    assert len(inc.point_labels) == 7
    assert len(inc.line_sets) == 7
    assert set(inc.point_labels) == set(star(pg32, 0))
    assert verify_projective_axioms(inc).passed
    assert incidence_isomorphic(inc, build_space(2, 2)) is not None
    inc = quotient(pg33, 5)
    assert len(inc.point_labels) == 13
    assert incidence_isomorphic(inc, build_space(2, 3)) is not None


def test_quotient_lines_are_pencils(pg32):
    inc = quotient(pg32, 3)
    for line_set in inc.line_sets:
        common = frozenset.intersection(*(pg32.line_sets[l] for l in line_set))
        assert common == frozenset({3})


def test_dual_space(pg32):
    inc = dual_space(pg32)
    assert inc.kind == "dual"
    assert len(inc.point_labels) == 15
    assert len(inc.line_sets) == 35
    assert verify_projective_axioms(inc).passed
    assert incidence_isomorphic(inc, pg32) is not None
    with pytest.raises(UnsupportedDimension):
        dual_space(build_space(2, 2))
    with pytest.raises(UnsupportedDimension):
        dual_space(build_space(4, 2))


def test_dual_line_sets_are_planes_through_line(pg32):
    inc = dual_space(pg32)
    for l in range(35):
        assert inc.line_sets[l] == planes_of_line(pg32, l)


def test_plane_quotient(pg32):
    inc = plane_quotient(pg32, 0)
    assert len(inc.point_labels) == 7
    assert len(inc.line_sets) == 7
    assert set(inc.point_labels) == set(lines_in_plane(pg32, 0))
    assert verify_projective_axioms(inc).passed
    assert incidence_isomorphic(inc, build_space(2, 2)) is not None


def test_quotient_of_a_plane_is_one_line(pg23):
    for p in range(13):
        inc = quotient(pg23, p)
        assert inc.point_labels == star(pg23, p)
        assert inc.line_sets == (frozenset(star(pg23, p)),)


def _corrupt(monkeypatch, change):
    """Make projspace._grouped group its members by a list copy of its
    holders table (line id -> holders) that change edits in place.  The
    plane tables, which it builds too, must exist before."""
    real = projspace._grouped

    def patched(members, holders):
        holders = list(holders)
        change(holders)
        return real(members, holders)

    monkeypatch.setattr(projspace, "_grouped", patched)


def _fresh(n, q):
    # a space outside build_space's cache, so no certified section is reused
    return build_space.__wrapped__(n, q)


def _short_pencil(monkeypatch, sp):
    # The first line of the pencil at 0 in its first plane leaves that pencil.
    plane_id = planes_through_point(sp, 0)[0]
    dropped = pencil(sp, 0, plane_id)[0]

    def drop(holders):
        holders[dropped] -= {plane_id}

    _corrupt(monkeypatch, drop)


def _swapped_pencil_lines(monkeypatch, sp):
    # Line sizes and degrees survive the swap, so only the line check refutes it.
    first, second = planes_through_point(sp, 0)[:2]
    a1 = next(l for l in pencil(sp, 0, first) if l not in pencil(sp, 0, second))
    b1 = next(l for l in pencil(sp, 0, second) if l not in pencil(sp, 0, first))

    def swap(holders):  # a1 moves to the pencil in second, b1 to first
        holders[a1] = holders[a1] - {first} | {second}
        holders[b1] = holders[b1] - {second} | {first}

    _corrupt(monkeypatch, swap)


def _repeated_pencil(monkeypatch, sp):
    # The pencil at 0 in one plane becomes a copy of the pencil in another:
    # one line is repeated and one is missing.
    first, second = planes_through_point(sp, 0)[:2]
    copied, replaced = set(pencil(sp, 0, second)), set(pencil(sp, 0, first))

    def repeat(holders):
        for l in replaced - copied:
            holders[l] = holders[l] - {first}
        for l in copied - replaced:
            holders[l] = holders[l] | {first}

    _corrupt(monkeypatch, repeat)


def _doubled_rank(monkeypatch, sp):
    # The second label takes the first one's image on its way to the one
    # certificate rule, as a rank table that is not injective would.
    real = projspace._certified

    def doubled(what, labels, line_sets, native, image):
        image = {lab: image[lab] for lab in labels}
        image[labels[1]] = image[labels[0]]
        return real(what, labels, line_sets, native, image)

    monkeypatch.setattr(projspace, "_certified", doubled)


@pytest.mark.parametrize("n", [2, 3])
def test_quotient_certificate_rejects_a_short_pencil(monkeypatch, n):
    sp = _fresh(n, 2)
    _short_pencil(monkeypatch, sp)
    with pytest.raises(GeometryError, match="not isomorphic"):
        quotient(sp, 0)


def test_quotient_certificate_rejects_swapped_pencil_lines(monkeypatch):
    sp = _fresh(3, 2)
    _swapped_pencil_lines(monkeypatch, sp)
    with pytest.raises(GeometryError, match="not isomorphic"):
        quotient(sp, 0)
    assert not sp._sections


def test_plane_quotient_certificate_rejects_a_missing_line(monkeypatch):
    # The line stays a point of the plane quotient, on none of its lines.
    sp = _fresh(3, 2)
    dropped = lines_in_plane(sp, 0)[0]
    _corrupt(monkeypatch, lambda holders: holders.__setitem__(dropped, ()))
    with pytest.raises(GeometryError, match="not isomorphic"):
        plane_quotient(sp, 0)


def test_quotient_certificate_rejects_a_repeated_pencil(monkeypatch):
    sp = _fresh(3, 2)
    _repeated_pencil(monkeypatch, sp)
    with pytest.raises(BadConfiguration, match="repeats an earlier line"):
        quotient(sp, 0)
    assert not sp._sections


@pytest.mark.parametrize("n", [2, 3])
def test_quotient_certificate_rejects_an_image_that_is_not_injective(monkeypatch, n):
    sp = _fresh(n, 2)
    _doubled_rank(monkeypatch, sp)
    with pytest.raises(GeometryError, match="not isomorphic"):
        quotient(sp, 0)
    assert not sp._sections


@pytest.mark.parametrize(
    "fault,n",
    [
        (_short_pencil, 2),
        (_short_pencil, 3),
        (_swapped_pencil_lines, 3),
        (_repeated_pencil, 3),
        (_doubled_rank, 2),
        (_doubled_rank, 3),
    ],
    ids=["short-pencil-2", "short-pencil-3", "swapped-lines", "repeated-pencil",
         "doubled-rank-2", "doubled-rank-3"],
)
def test_suite1_refuses_a_star_whose_certificate_fails(monkeypatch, fault, n):
    # Suite 1 certifies the star at 0 in its first restriction, on a rank
    # table and no quotient, and must stop there with no table cached.
    sp = _fresh(n, 2)
    lm = generate_instance(InstanceGenerator(0, InstanceKind.COLLINEATION), sp, sp)
    fault(monkeypatch, sp)
    with pytest.raises(GeometryError, match="not isomorphic"):
        verify_theorem1(lm)
    assert not sp._sections


def test_dual_certificate_rejects_a_short_line():
    sp = _fresh(3, 2)
    tables = projspace._planes(sp)
    on_line = list(tables.on_line)
    on_line[0] = frozenset(sorted(on_line[0])[1:])  # line 0 loses its first plane
    sp._plane_tables = tables._replace(on_line=tuple(on_line))
    with pytest.raises(GeometryError, match="not isomorphic"):
        dual_space(sp)
    assert sp._dual is None


@pytest.mark.parametrize(
    "section,centre,error",
    [
        (plane_quotient, -1, NotAPlane),
        (plane_quotient, 15, NotAPlane),
        (quotient, -1, BadConfiguration),
        (quotient, 15, BadConfiguration),
    ],
)
def test_sections_reject_centres_outside_the_space(section, centre, error):
    # A negative plane id must not wrap onto the last plane and be cached.
    sp = _fresh(3, 2)
    with pytest.raises(error):
        section(sp, centre)
    assert not sp._sections


def test_sections_are_cached_by_point_id_and_plane_quotients_never():
    # PG(3, q) has as many planes as points, so a plane quotient cached
    # under its plane id would take, or overwrite, a point's rank table.
    # The suites cache one certified rank table per point and no section.
    sp = _fresh(3, 3)
    for verify in (verify_theorem1, verify_theorem2):
        assert verify_population(sp, verify, 3).passed
    cache = dict(sp._sections)
    assert sorted(cache) == list(sp.point_labels)
    for key, ranks in cache.items():
        assert type(key) is int
        assert star_ranks(sp, key) is ranks
        assert ranks == projected_star(sp, key)
        first, second = quotient(sp, key), quotient(sp, key)
        assert first is not second
        assert first.point_labels == tuple(ranks) and first.line_sets == second.line_sets
    for plane_id in range(len(planes(sp))):
        first, second = plane_quotient(sp, plane_id), plane_quotient(sp, plane_id)
        assert first is not second
        assert first.point_labels == second.point_labels == lines_in_plane(sp, plane_id)
        assert first.line_sets == second.line_sets
    assert sp._sections == cache


@pytest.mark.parametrize(
    "call,args",
    [
        (planes_of_line, (-1,)),
        (planes_of_line, (35,)),
        (planes_through_point, (-1,)),
        (planes_through_point, (15,)),
        (star, (-1,)),
        (star, (15,)),
        (join, (-1, 0)),
        (join, (0, 15)),
        (meet, (-1, 0)),
        (meet, (0, 35)),
        (collinear, (0, 1, 99)),
        (noncollinear_witness, (-1, 0, 1, 2)),
    ],
)
def test_ids_outside_the_space_raise_bad_configuration(pg32, call, args):
    # A negative id must not wrap onto the last line or point.
    with pytest.raises(BadConfiguration):
        call(pg32, *args)


@pytest.mark.parametrize(
    "call,args,error",
    [
        (star, (1.0,), BadConfiguration),
        (star, (True,), BadConfiguration),
        (join, (1.0, 2), BadConfiguration),
        (collinear, (0, 1.0, 2), BadConfiguration),
        (meet, (1.0, 2), BadConfiguration),
        (planes_of_line, (True,), BadConfiguration),
        (planes_through_point, (2.0,), BadConfiguration),
        (quotient, (1.0,), BadConfiguration),
        (lines_in_plane, (True,), NotAPlane),
        (plane_points, (1.0,), NotAPlane),
        (pencil, (0, 1.0), NotAPlane),
        # ids are checked before the arguments are compared
        (join, (True, 1), BadConfiguration),
        (join, (99, 99), BadConfiguration),
        (meet, (1.0, 1), BadConfiguration),
        (collinear, (1.0, 1, 2), BadConfiguration),
        (collinear, (0, 2, 2.0), BadConfiguration),
    ],
)
def test_ids_that_are_no_ints_are_refused(call, args, error):
    # A bool or a float equal to an id names nothing (`field.is_code`).
    with pytest.raises(error):
        call(_fresh(3, 2), *args)


def _certify(structure, native, ids):
    """The one certificate rule, applied to a whole structure."""
    projspace._certified(structure, structure.point_labels, structure.line_sets, native, ids)


def test_certificate_rejects_a_swapped_map(pg32):
    # label -> native point id along the oracle's isomorphism
    structure, native = quotient(pg32, 0), build_space(2, 2)
    ids = incidence_isomorphic(structure, native)
    _certify(structure, native, ids)
    a, b = structure.point_labels[:2]
    ids[a], ids[b] = ids[b], ids[a]
    with pytest.raises(GeometryError, match="not isomorphic"):
        _certify(structure, native, ids)


def test_certificate_rejects_a_label_without_an_image(pg32):
    structure, native = dual_space(pg32), pg32
    ids = incidence_isomorphic(structure, native)
    ids[0] = None
    with pytest.raises(GeometryError, match="not isomorphic"):
        _certify(structure, native, ids)


def test_certificate_rejects_a_map_that_is_not_injective(pg22):
    # Label 7 doubles point c and point 0 is missed, yet every one of the
    # seven lines maps onto a native line: only the bijection check refutes it.
    avoiding = [s for s in pg22.line_sets if 0 not in s]
    c = min(avoiding[0])
    doubled = [s for s in avoiding if c in s]
    extra = [s - {c} | {7} for s in doubled] + [doubled[0] | {7}]
    structure = IncidenceStructure(
        point_labels=tuple(range(1, 8)),
        line_sets=tuple(avoiding + extra),
        kind="quotient",
        detail="doubled point",
    )
    ids = {lab: c if lab == 7 else lab for lab in structure.point_labels}
    with pytest.raises(GeometryError, match="not isomorphic"):
        _certify(structure, pg22, ids)


def test_certificate_rejects_a_missing_line(pg22):
    # The identity on points sends each of six lines onto a native line:
    # only the line count refutes it.
    structure = IncidenceStructure(
        point_labels=pg22.point_labels,
        line_sets=pg22.line_sets[1:],
        kind="quotient",
        detail="missing line",
    )
    with pytest.raises(GeometryError, match="not isomorphic"):
        _certify(structure, pg22, pg22.point_labels)


def test_certificate_rejects_a_repeated_line(pg32):
    # One pencil of a quotient replaced by a copy of another, after
    # construction, so only the certificate sees it: every line still maps
    # onto a native line, the map is a bijection and the line counts agree,
    # but the images miss one native line.
    section = quotient(pg32, 0)
    structure = IncidenceStructure(
        point_labels=section.point_labels,
        line_sets=section.line_sets,
        kind="quotient",
        detail="repeated pencil",
    )
    structure.line_sets = (structure.line_sets[0],) + structure.line_sets[:-1]
    with pytest.raises(GeometryError, match="not isomorphic"):
        _certify(structure, build_space(2, 2), star_ranks(pg32, 0))


def test_certificate_rejects_an_extra_label(pg22):
    # A label on no line, sent to an id that names no native point: the map
    # is injective, every line maps onto a native line and the line counts
    # agree, so only the label count refutes it.
    structure = IncidenceStructure(
        point_labels=pg22.point_labels + (7,),
        line_sets=pg22.line_sets,
        kind="quotient",
        detail="extra label",
    )
    ids = {lab: lab for lab in structure.point_labels}
    with pytest.raises(GeometryError, match="not isomorphic"):
        _certify(structure, pg22, ids)


def test_plane_quotient_certificate_rejects_a_line_off_the_plane():
    # Swap a line of the plane for one that meets it in one point, in the
    # plane's lines tuple: grouped by their points, the lines give that
    # line alone as the pencil at each of its points off the plane.
    sp = _fresh(3, 2)
    inside = plane_points(sp, 0)
    outside = next(l for l, s in enumerate(sp.line_sets) if len(s & inside) == 1)
    tables = projspace._planes(sp)
    lines = list(tables.lines)
    lines[0] = tuple(sorted(lines[0][1:] + (outside,)))
    sp._plane_tables = tables._replace(lines=tuple(lines))
    with pytest.raises(BadConfiguration, match="fewer than two points"):
        plane_quotient(sp, 0)
    assert not sp._sections


def test_plane_quotient_certificate_rejects_a_corrupted_polar_line_table():
    # Two lines of the plane trade polar lines: both still pass through the
    # normal, but their projections trade places, which no collineation does.
    sp = _fresh(3, 2)
    table = polarity(sp)
    a, b = lines_in_plane(sp, 0)[:2]
    polar = list(table.polar_line)
    polar[a], polar[b] = polar[b], polar[a]
    sp._polarity = table._replace(polar_line=tuple(polar))
    with pytest.raises(GeometryError, match="not isomorphic"):
        plane_quotient(sp, 0)
    # only the normal's star, which the polar table does not touch, is certified
    assert list(sp._sections) == [table.normal[0]]


@pytest.mark.parametrize("q", [2, 3, 4])
def test_polarity_is_an_incidence_reversing_involution(q):
    sp = build_space(3, q)
    f, table = sp.field, polarity(sp)
    plane_ids, points = range(len(planes(sp))), sp.point_labels
    assert sorted(table.normal) == list(points)
    assert all(table.polar_plane[table.normal[pl]] == pl for pl in plane_ids)
    assert all(table.normal[table.polar_plane[p]] == p for p in points)
    for l in range(len(sp.line_sets)):
        assert table.polar_line[table.polar_line[l]] == l
        normals = {table.normal[pl] for pl in planes_of_line(sp, l)}
        assert sp.line_sets[table.polar_line[l]] == normals
    for pl in plane_ids:
        n = sp.coords[table.normal[pl]]
        for p in points:
            dot = 0
            for x, y in zip(sp.coords[p], n):
                dot = f.add_table[dot][f.mul_table[x][y]]
            assert (p in plane_points(sp, pl)) == (dot == 0)
            assert (p in plane_points(sp, pl)) == (
                table.normal[pl] in plane_points(sp, table.polar_plane[p])
            )


def test_polarity_needs_dimension_3(pg22, pg42):
    for sp in (pg22, pg42):
        with pytest.raises(UnsupportedDimension):
            polarity(sp)


@pytest.mark.parametrize("n,q", [(2, 3), (3, 2), (3, 3), (4, 2)])
def test_oracle_agrees_with_the_coordinate_certificates(n, q):
    sp = build_space(n, q)
    if n > 2:
        native = build_space(n - 1, q)
    else:
        native = IncidenceStructure(
            point_labels=tuple(range(q + 1)),
            line_sets=(frozenset(range(q + 1)),),
            kind="native",
            detail=f"PG(1,{q})",
        )
    pairs = [(quotient(sp, p), native) for p in sp.point_labels]
    if n == 3:
        pairs += [(plane_quotient(sp, pl), build_space(2, q)) for pl in range(len(planes(sp)))]
        pairs.append((dual_space(sp), sp))
    for section, target in pairs:
        assert incidence_isomorphic(section, target) is not None, section


def test_sections_match_the_golden_digest(pg33):
    # The certificate only checks a section; it must not change one.  This
    # pins the labels and line order of every section of PG(3,3).
    sections = [quotient(pg33, p) for p in pg33.point_labels]
    sections += [plane_quotient(pg33, pl) for pl in range(len(planes(pg33)))]
    sections.append(dual_space(pg33))
    digest = hashlib.sha256()
    for s in sections:
        lines = tuple(tuple(sorted(ls)) for ls in s.line_sets)
        digest.update(repr((s.point_labels, lines)).encode())
    assert digest.hexdigest() == (
        "32567cefb10d2f773a61385c5c337b446a7c4fbb47d79ecadaeb3ad3f7159ee2"
    )


SECTION_DIGESTS = {  # sha256 prefixes of every quotient, every plane quotient
    2: ("57c56a793382c785", "6f24b6e4873bdc67"),
    3: ("bea4d250ff0f6b4f", "b55f22d6c6277e93"),
    4: ("f735196fd329c646", "4485943463499cc3"),
    5: ("90a86e7f67d879d1", "6c110389b0a48916"),
    8: ("e293ce1097a4f6b9", "e729779853743a2e"),
}


@pytest.mark.parametrize("q", sorted(SECTION_DIGESTS))
def test_quotients_and_plane_quotients_are_pinned(q):
    # (point_labels, line_sets) of each section in centre order, whatever
    # vectors certified them.
    sp = build_space(3, q)
    got = []
    plane_ids = range(len(planes(sp)))
    for section, centres in ((quotient, sp.point_labels), (plane_quotient, plane_ids)):
        digest = hashlib.sha256()
        for centre in centres:
            s = section(sp, centre)
            lines = tuple(tuple(sorted(ls)) for ls in s.line_sets)
            digest.update(repr((s.point_labels, lines)).encode())
        got.append(digest.hexdigest()[:16])
    assert tuple(got) == SECTION_DIGESTS[q]


LINE_DIGESTS = {  # sha256 of every line's sorted point ids, in line id order
    (2, 9): "e743438d7c48e3b4ea9cc7490e885870f40fc5fe7ecdead12483e86d25f59904",
    (3, 4): "074af8f947e29926d78aa1e748a15a6380f64dabb24ea4073137dbf0993a7d6b",
    (3, 8): "f86eb90d904367aa066d1293944b6150dc8a6d0f61a683c1dfbf688b95255993",
    (4, 3): "e55ecb5f4affddcbd9a4de0439c266c2b42b072d68b1cff7d28d8928bf6fe011",
    (5, 2): "223764f0a109175c7b9fd7fe18568285b0f0310d391b275b92fa73d01af8cfe7",
}


@pytest.mark.parametrize("n,q", sorted(LINE_DIGESTS))
def test_line_tables_are_pinned(n, q):
    # Line ids are the interchange formats' ids, whatever builds the table.
    lines = tuple(tuple(sorted(s)) for s in build_space(n, q).line_sets)
    assert hashlib.sha256(repr(lines).encode()).hexdigest() == LINE_DIGESTS[n, q]


@pytest.mark.parametrize("n,q", [(2, q) for q in (2, 3, 4, 5, 7, 8, 9)] + [(3, 2), (3, 3), (3, 4)])
def test_line_tables_match_the_span_oracle(n, q):
    sp = build_space(n, q)
    assert tuple(tuple(sorted(s)) for s in sp.line_sets) == tuple(spanned_lines(sp))


@pytest.mark.parametrize(
    "name,fake,message",
    [
        ("_rref_bases",  # drop the last point, keep every line and plane basis
         lambda real: lambda q, m, k: list(real(q, m, k))[: -1 if k == 1 else None],
         "14 points"),
        ("_subspaces", lambda real: lambda *a: list(real(*a))[:-1], "34 lines"),
        # expect 8 lines through each point of PG(3,2) instead of 7
        ("gaussian_binomial", lambda real: lambda m, k, q: real(m, k, q) + (m == 3),
         "lies on 7 lines, not 8"),
    ],
)
def test_build_space_checks_its_counts(monkeypatch, name, fake, message):
    # These checks must survive python -O, so they raise instead of asserting.
    monkeypatch.setattr(projspace, name, fake(getattr(projspace, name)))
    with pytest.raises(GeometryError, match=message):
        build_space.__wrapped__(3, 2)


def test_axiom_failure_unique_join():
    base = build_space(2, 2)
    trimmed = IncidenceStructure(
        point_labels=base.point_labels,
        line_sets=base.line_sets[1:],
        kind="native",
        detail="missing line",
    )
    report = verify_projective_axioms(trimmed)
    assert not report.passed
    assert report.unique_join == (0, 1, 0)
    assert report.veblen is None


def test_axiom_failure_double_join():
    inc = IncidenceStructure(
        point_labels=(0, 1, 2, 3, 4),
        line_sets=(
            frozenset({0, 1, 2}),
            frozenset({0, 1, 3}),
            frozenset({2, 3, 4}),
        ),
        kind="native",
        detail="pair on two lines",
    )
    report = verify_projective_axioms(inc)
    assert not report.passed
    assert report.unique_join == (0, 1, 2)
    assert report.veblen is None


def test_axiom_failure_short_line():
    inc = IncidenceStructure(
        point_labels=(0, 1, 2),
        line_sets=(frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2})),
        kind="native",
        detail="triangle",
    )
    report = verify_projective_axioms(inc)
    assert not report.passed
    assert report.line_size is not None


def test_axiom_failure_veblen_on_affine_plane():
    inc = affine_plane_order3()
    report = verify_projective_axioms(inc)
    assert report.unique_join is None
    assert report.line_size is None
    assert report.veblen is not None
    assert not report.passed
    assert report.veblen == (0, 2, 6, 1, 3)


def test_incidence_isomorphic_returns_real_bijection(pg32):
    a = quotient(pg32, 0)
    b = build_space(2, 2)
    mapping = incidence_isomorphic(a, b)
    assert mapping is not None
    assert sorted(mapping.values()) == sorted(b.point_labels)
    image_lines = {frozenset(mapping[x] for x in s) for s in a.line_sets}
    assert image_lines == set(b.line_sets)


def test_incidence_isomorphic_negative(pg22):
    a = pg22
    assert incidence_isomorphic(a, affine_plane_order3()) is None
    b = build_space(2, 3)
    assert incidence_isomorphic(a, b) is None


def test_structure_planes_recovers_plane_point_sets(pg32):
    found = structure_planes(pg32)
    assert len(found) == 15
    expected = {frozenset(plane_points(pg32, pl)) for pl in range(15)}
    assert {frozenset(s) for s in found} == expected


def test_incidence_dual_agrees_with_coordinate_dual(pg32):
    dual = incidence_dual(pg32)
    assert len(dual.point_labels) == 15
    assert len(dual.line_sets) == 35
    assert dual.line_sets == dual_space(pg32).line_sets


def _holder_cases(sp, rng):
    """Seeded line lists with the holder each must get, None where only
    the oracle decides: every star and every plane's line set, a random
    subset of each, and each of these with one stray line put anywhere.
    A subset of at least two star lines keeps the star's point."""
    table = projspace._planes(sp)
    held = [(list(star(sp, p)), ("point", p)) for p in sp.point_labels]
    held += [(list(lines), ("plane", pi)) for pi, lines in enumerate(table.lines)]
    for lines, expect in held:
        part = rng.sample(lines, rng.randint(2, len(lines) - 1))
        for chosen, pinned in ((lines, expect), (part, expect if expect[0] == "point" else None)):
            yield chosen, pinned
            stray = list(chosen)
            stray.insert(rng.randint(0, len(stray)), rng.randrange(len(sp.line_sets)))
            yield stray, None


@pytest.mark.parametrize("n,q", [(2, 3), (3, 2), (3, 3), (4, 2), (3, 4)])
def test_holder_matches_the_line_graph_clique_oracle(n, q):
    sp = build_space(n, q)
    graph, rng = build_grassmann(sp), random.Random(n * 100 + q)
    seen = collections.Counter()
    for lines, pinned in _holder_cases(sp, rng):
        got = projspace.holder(sp, lines)
        assert (got is not None) == is_clique(graph, lines), lines
        if pinned is not None:
            assert got == pinned, lines
        seen[got and got[0]] += 1
    # In a plane every two lines meet, so no list is skew.
    assert seen["point"] and seen["plane"] and bool(seen[None]) is (n > 2)
    # A pencil lies in a plane, yet its point is what holds it.
    for p in (0, len(sp.point_labels) - 1):
        for lines in projspace.pencils(sp, p).values():
            assert projspace.holder(sp, lines) == ("point", p)


def test_holder_edge_cases(pg32):
    a, b = star(pg32, 0)[:2]
    skew = next(l for l in range(35) if not pg32.line_sets[a] & pg32.line_sets[l])
    assert is_clique(build_grassmann(pg32), []) and projspace.holder(pg32, []) == ("line", None)
    assert projspace.holder(pg32, [a]) == projspace.holder(pg32, [a, a, a]) == ("line", a)
    assert projspace.holder(pg32, [a, b, a]) == projspace.holder(pg32, [a, a, b]) == ("point", 0)
    assert projspace.holder(pg32, [a, skew, a]) is None
