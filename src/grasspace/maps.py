"""Point maps, line maps, and the machinery connecting the two.

A point map runs between two incidence cores (`IncidenceStructure`,
which a `ProjSpace` is) and carries four checkable properties:
injectivity, surjectivity, preservation of collinearity, preservation of
non-collinearity.  The four flags classify it as a collineation,
semicollineation, embedding, or other.  Line maps join point images
(`induced_line_map`), or come in one pass from a semilinear map's rows
(`semilinear_lines`, every seeded instance): each line goes to the line
on all its points' rows, then for a duality to its polar line, a duality
being the standard polarity (`projspace.polarity`) after the collineation
with the same matrix and automorphism; it sends a point to the polar
plane of its row.  Whether lines meet pairwise is read off the point or
plane that holds them all (`holder`), never off the line graph: both
preservation verdicts read it, and so does reconstruction, which sends
each star of a bijective intersection-preserving line map to the holder
of its image, a target point or, in dimension 3, a plane, a point of the
dual (`dual_space`, whose line i holds the planes through line i).  The
`KappaReport` carries kappa's kind, classified once, and is kept on the
line map: both suites and `cli check` read one reconstruction per line
map, and the frozen `LineMap` and `KappaReport` keep it from going
stale.  Every verdict that reads kappa intersects image lines in that
core, and restricts it to stars through certified rank tables:
`star_rows` reads every star as a rank row, in one pass over the star
tables, and `restrict_to_star` is one such row as a point map.
A line map's image is a tuple, image[l] the target line of source line l.
Map tables are total on the source and stay inside the target: a value
that is no target label or line id is PreconditionViolated.
`pencil_image_is_pencil` takes a source pencil's lines and groups no
target star: q'+1 distinct images with one common point and one common
plane are every line of that pencil.

Both preservation properties are decided exactly from lines, at every
size.  They are defined on triples of pairwise distinct source points,
with the degenerate-triple rule: an image triple that is not pairwise
distinct counts as collinear, so constant maps fail non-collinearity
preservation and honest embeddings are unaffected.  `check_properties`
decides them line by line with the star-mask rule: a set of labels lies on
one line exactly when the AND of their `star_bits` masks is nonzero.
`rank_row_flags` decides the first three flags of a rank row by the same
line rule, and on a row those three decide a collineation.
"""

import enum
from functools import reduce
from itertools import chain, repeat
from operator import and_

from .errors import (
    BadConfiguration,
    GeometryError,
    IncompatibleSpaces,
    NotInStar,
    NotLineConsistent,
    PreconditionViolated,
)
from .field import is_code
from .linalg import is_invertible
from .projspace import (
    IncidenceStructure,
    ProjSpace,
    dual_space,
    holder,
    lines_in_plane,
    meet,
    pencil,
    planes_of_line,
    point_parents,
    polarity,
    star,
    star_native,
    star_ranks,
)
from .records import record


class MapKind(enum.Enum):
    COLLINEATION = "Collineation"
    SEMICOLLINEATION = "Semicollineation"
    EMBEDDING = "Embedding"
    OTHER = "Other"


class KappaStatus(enum.Enum):
    INDUCED_INTO_TARGET = "InducedIntoTarget"
    INDUCED_INTO_DUAL = "InducedIntoDual"
    MIXED = "Mixed"


class PropertyFlags(record(
    "PropertyFlags", "injective surjective preserves_collinearity preserves_noncollinearity"
)):
    __slots__ = ()


class Collineation(record("Collineation", "matrix auto_index", defaults=(0,))):
    """Semilinear point transformation: coordinate automorphism then matrix."""

    __slots__ = ()


class Duality(record("Duality", "matrix auto_index", defaults=(0,))):
    """Incidence-reversing transformation of a 3-space: points to planes."""

    __slots__ = ()


_OUTSIDE = "point map sends a point outside the target"


class PointMap:
    def __init__(self, source: IncidenceStructure, target: IncidenceStructure, image: dict):
        # Labels compare by type as well as value (`typed_labels`).  The keys
        # are distinct, so as many keys as labels, each a label, are all.
        keys, values, labels = image, image.values(), source.typed_labels
        if len(keys) != len(labels) or not labels.issuperset(zip(map(type, keys), keys)):
            raise PreconditionViolated("point map table is not total on the source")
        if not target.typed_labels.issuperset(zip(map(type, values), values)):
            raise PreconditionViolated(_OUTSIDE)
        self.source, self.target, self.image = source, target, image


class KappaReport(record("KappaReport", "status kappa unresolved_points kind")):
    """Outcome of point-map reconstruction from star images, with kappa's
    kind (`classify_point_map`), None when the status is Mixed.

    unresolved_points holds the sources whose star images are held by a
    plane of a target with no dual: in a plane, lines through no common
    point.  Star images that do not pairwise meet raise instead."""

    __slots__ = ()


class LineMap:
    """image[l] is the target line id of source line l; with dual set, the
    images are meant as lines of the target's dual space.  A line map
    refuses assignment and deletion: `reconstruct_point_map` keeps its
    report on it, as spaces keep their graph and polarity."""

    def __init__(self, source: ProjSpace, target: ProjSpace, image: tuple, dual: bool = False):
        count = len(source.line_sets)
        if not isinstance(image, tuple) or len(image) != count:
            raise PreconditionViolated(f"line map table is not a tuple of {count} line ids")
        if not all(map(is_code, image, repeat(len(target.line_sets)))):
            raise PreconditionViolated("line map sends a line outside the target")
        if type(dual) is not bool:
            raise PreconditionViolated(f"line map dual flag {dual!r} is not a bool")
        if dual and target.n != 3:
            raise PreconditionViolated("a dual line map needs a 3-dimensional target")
        vars(self).update(source=source, target=target, image=image, dual=dual, _kappa=None)

    def __setattr__(self, name, *_):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def is_bijective(self):
        return len(set(self.image)) == len(self.image) == len(self.target.line_sets)


def _check_semilinear(t, sp, sp2, kinds):
    """Reject a t that is none of kinds or does not fit its spaces:
    IncompatibleSpaces unless sp and sp2 are coordinate spaces with equal
    (n, q), n = 3 for a duality; BadConfiguration for the wrong kind, or
    unless the matrix is an invertible (n+1)x(n+1) table of codes below q
    and the automorphism index names an automorphism of GF(q)."""
    name = type(t).__name__
    if not isinstance(t, kinds):
        raise BadConfiguration(f"a {name} is no {' or '.join(k.__name__ for k in kinds)}")
    if not (isinstance(sp, ProjSpace) and isinstance(sp2, ProjSpace)):
        raise IncompatibleSpaces(f"a {name} acts between coordinate spaces")
    if (sp.n, sp.q) != (sp2.n, sp2.q) or (isinstance(t, Duality) and sp.n != 3):
        raise IncompatibleSpaces(f"no {name} maps {sp!r} onto {sp2!r}")
    m, a, q = sp.n + 1, t.auto_index, sp.q
    if len(t.matrix) != m or any(len(row) != m for row in t.matrix):
        raise BadConfiguration(f"{name} of {sp!r} needs a {m}x{m} matrix")
    if not all(map(is_code, chain.from_iterable(t.matrix), repeat(q))):
        raise BadConfiguration(f"{name} matrix entries must be ints in range({q})")
    if not is_invertible(sp.field, t.matrix):
        raise BadConfiguration(f"{name} matrix must be invertible")
    if not is_code(a, len(sp.field.automorphisms)):
        raise BadConfiguration(f"automorphism index {a!r} out of range for GF({sp.q})")


def _semilinear_rows(t, sp, sp2) -> list:
    """Row kernel of a checked collineation or duality t: per point of sp,
    the sp2 point id of normalize(auto(coords) . matrix), the image point of
    a collineation or the image plane's normal of a duality.  Along
    `point_parents`, a point's vector is its parent's plus auto(x) times
    matrix row j: one vector add per point.  terms[j][x] holds that product;
    x = 1 gives the row itself, and x = 0 never occurs."""
    f = sp.field
    add, mul, inv = f.add_table, f.mul_table, f.inv_table
    auto = f.automorphisms[t.auto_index]
    terms = [
        (None, row, *(tuple(mul[auto[x]][y] for y in row) for x in range(2, f.q)))
        for row in t.matrix
    ]
    index = sp2.point_index
    vecs, ids = [], []
    for parent, j, x in point_parents(sp):
        out = terms[j][x]
        if parent >= 0:
            out = [add[a][b] for a, b in zip(vecs[parent], out)]
        vecs.append(out)
        for lead in out:
            if lead:
                break
        if lead != 1:
            row = mul[inv[lead]]
            out = [row[y] for y in out]
        ids.append(index[tuple(out)])
    return ids


def _joined_lines(sp, sp2, img, injective=True) -> list:
    """Line table through the point images img[p] of the points of sp: each
    line goes to the one set bit of the AND of the `star_bits` of all its
    points' images in sp2, which is nonzero exactly when every image lies
    on that line.  Raises NotLineConsistent at the first line whose images
    collapse (tested only when img is not injective) or are not collinear."""
    masks = [sp2.star_bits[img[p]] for p in sp.point_labels]
    image = []
    for l, points in enumerate(sp.line_sets):
        if not injective and len({img[p] for p in points}) != len(points):
            raise NotLineConsistent(f"line {l}: point images collapse")
        common = -1
        for p in points:
            common &= masks[p]
        if not common:
            raise NotLineConsistent(f"line {l}: point images not collinear")
        image.append(common.bit_length() - 1)
    return image


def semilinear_lines(t, sp, sp2) -> list:
    """Line table of a collineation or duality t, checked in full: the
    lines through its rows (`_semilinear_rows`), then for a duality their
    polar lines."""
    _check_semilinear(t, sp, sp2, (Collineation, Duality))
    image = _joined_lines(sp, sp2, _semilinear_rows(t, sp, sp2))
    if isinstance(t, Duality):
        image = list(map(polarity(sp2).polar_line.__getitem__, image))
    return image


def collineation_point_map(c: Collineation, sp, sp2) -> PointMap:
    """Point action P -> normalize(auto(P) . matrix) between equal-type spaces."""
    _check_semilinear(c, sp, sp2, (Collineation,))
    image = dict(enumerate(_semilinear_rows(c, sp, sp2)))
    return PointMap(source=sp, target=sp2, image=image)


def induced_line_map(pm: PointMap) -> LineMap:
    """Line map sending each line to the line through its point images
    (`_joined_lines`)."""
    sp, sp2, img = pm.source, pm.target, pm.image
    if not (isinstance(sp, ProjSpace) and isinstance(sp2, ProjSpace)):
        raise IncompatibleSpaces("induced line maps act between coordinate spaces")
    injective = len(set(img.values())) == len(img)
    return LineMap(sp, sp2, tuple(_joined_lines(sp, sp2, img, injective)))


def duality_line_map(d: Duality, sp, sp2) -> LineMap:
    """Line map of a duality (`semilinear_lines`), marked dual=True."""
    _check_semilinear(d, sp, sp2, (Duality,))
    return LineMap(sp, sp2, tuple(semilinear_lines(d, sp, sp2)), dual=True)


def duality_point_to_plane(d: Duality, sp, sp2) -> dict:
    """Point -> plane-id table of a duality: the polar plane of each row."""
    _check_semilinear(d, sp, sp2, (Duality,))
    polar_plane = polarity(sp2).polar_plane
    return {pid: polar_plane[row] for pid, row in enumerate(_semilinear_rows(d, sp, sp2))}


def _collinear_images(label_sets, image, masks) -> bool:
    """Whether every label set's images are collinear: at most two distinct
    images, or a nonzero AND of their masks, masks[x] being the `star_bits`
    mask of image[x].  Both tables are total on the labels of label_sets."""
    for s in label_sets:
        common = -1
        for x in s:
            common &= masks[x]
        if not common and len({image[x] for x in s}) > 2:
            return False
    return True


def rank_row_flags(row, source, target) -> tuple:
    """The first three `check_properties` flags of a rank row (`star_rows`),
    read off the two natives' tables: every value is a target point, so the
    row is surjective when it takes as many values as the target has points.
    The three decide a collineation.  A row needs a kappa, so a bijective
    line map, and a bijective row joins stars of one size S; with
    (1 + qS)S/(q + 1) lines on each side, the orders agree.  A bijection keeping collinear
    points collinear then maps the lines of q + 1 points onto as many
    lines, so its inverse keeps collinear points collinear as well."""
    values, masks = set(row), list(map(target.star_bits.__getitem__, row))
    col_ok = _collinear_images(source.line_sets, row, masks)
    return len(values) == len(row), len(values) == len(target.point_labels), col_ok


def check_properties(pm: PointMap) -> PropertyFlags:
    """Evaluate the four point-map properties exactly, from star masks.

    Call a label set collinear when it has at most two labels or lies on
    one line, that is, when the AND of its labels' `star_bits` is nonzero:
    a line holds every label exactly when it lies in every label's star.
    Collinearity is preserved exactly when every source line's image set is
    collinear; non-collinearity when the whole source is one collinear set,
    or the map is injective and every target line's preimage is collinear.
    On partial linear spaces (two points share at most one line: every
    structure this package builds) both rules agree with the definitions
    over all triples, degenerate images counting as collinear.  The cost is
    one AND per label of each line on each side.
    """
    source, img, bits = pm.source, pm.image, pm.target.star_bits
    values = set(img.values())  # inside the target (`PointMap`)
    injective, surjective = len(values) == len(img), len(values) == len(pm.target.point_labels)
    col_ok = _collinear_images(source.line_sets, img, {x: bits[y] for x, y in img.items()})
    if len(img) <= 2 or reduce(and_, source.star_bits.values()):
        noncol_ok = True  # no non-collinear triple to preserve
    elif not injective:
        noncol_ok = False
    else:
        inverse, bits = {x: p for p, x in img.items()}, source.star_bits
        lines = pm.target.line_sets
        if not surjective:  # only labels with a preimage count
            lines = [s & inverse.keys() for s in lines]
        noncol_ok = _collinear_images(lines, inverse, {x: bits[p] for x, p in inverse.items()})
    return PropertyFlags(injective, surjective, col_ok, noncol_ok)


def classify_point_map(pm: PointMap) -> MapKind:
    flags = check_properties(pm)
    if flags.injective and flags.preserves_collinearity:
        if flags.surjective and flags.preserves_noncollinearity:
            return MapKind.COLLINEATION
        if flags.surjective:
            return MapKind.SEMICOLLINEATION
        if flags.preserves_noncollinearity:
            return MapKind.EMBEDDING
    return MapKind.OTHER


def preserves_intersections(lm: LineMap) -> bool:
    """Whether images of every related line pair are related: exactly when
    each source star's image has a `holder` in the target, since two
    distinct lines meet exactly when some star holds both."""
    target, img = lm.target, lm.image
    return all(
        holder(target, [img[l] for l in through]) is not None
        for through in lm.source.lines_through.values()
    )


def preserves_skewness(lm: LineMap) -> bool:
    """Whether images of every skew line pair are skew: exactly when the
    lines mapped into each target star have a `holder` in the source
    (images that coincide lie in a common star, so this holds for maps
    that are not injective too)."""
    target = lm.target
    preimage = {p: [] for p in target.point_labels}
    for l, m in enumerate(lm.image):
        for p in target.line_sets[m]:
            preimage[p].append(l)
    return all(holder(lm.source, lines) is not None for lines in preimage.values())


def _kappa_core(lm: LineMap, kappa: PointMap):
    """The incidence core kappa maps into: the line map's target or, in
    dimension 3, the target's `dual_space`, compared by identity (an equal
    copy of the target is neither).  A kappa whose source is not the line
    map's source, or that maps anywhere else, is PreconditionViolated."""
    if kappa.source is not lm.source:
        raise PreconditionViolated("kappa and line map disagree on the source")
    sp2 = lm.target
    if kappa.target is sp2 or (sp2.n == 3 and kappa.target is dual_space(sp2)):
        return kappa.target
    raise PreconditionViolated("kappa must map into the target or its dual")


def reconstruct_point_map(lm: LineMap) -> KappaReport:
    """Recover the point map behind a bijective intersection-preserving
    line map in one pass over the source points: each star goes to the
    `holder` of its image lines, a target point or, in dimension 3, a
    plane, a point of the dual, which is built only for such a kappa.  The
    report, with kappa classified once, is kept on the line map, and later
    calls return it; a reconstruction that raises keeps nothing."""
    if lm._kappa is None:
        object.__setattr__(lm, "_kappa", _reconstructed(lm))
    return lm._kappa


def _reconstructed(lm: LineMap) -> KappaReport:
    if not lm.is_bijective():
        raise PreconditionViolated("line map must be bijective")
    sp, sp2, img = lm.source, lm.target, lm.image
    held = {"point": {}, "plane": {}}
    for pid in sp.point_labels:
        found = holder(sp2, [img[l] for l in star(sp, pid)])
        if found is None:
            raise PreconditionViolated("line map must preserve intersections")
        if found[0] == "line":
            raise GeometryError(f"star image of point {pid} shares every point of line {found[1]}")
        held[found[0]][pid] = found[1]
    points, planes = held.values()
    if len(points) == len(sp.point_labels):
        status, kappa = KappaStatus.INDUCED_INTO_TARGET, PointMap(sp, sp2, points)
    elif sp2.n == 3 and len(planes) == len(sp.point_labels):
        status, kappa = KappaStatus.INDUCED_INTO_DUAL, PointMap(sp, dual_space(sp2), planes)
    else:  # in dimension 3 a plane is a point of the dual, so none is unresolved
        return KappaReport(KappaStatus.MIXED, None, frozenset(() if sp2.n == 3 else planes), None)
    return KappaReport(status, kappa, frozenset(), classify_point_map(kappa))


def star_rows(lm: LineMap, kappa: PointMap, points):
    """The line map's restrictions to the stars at points, in order, in one
    pass over the star tables, each as its rank row: row[r] is the rank
    (`star_ranks`) in the target star at kappa's value of the image of the
    source star line of rank r, its index in `star`.  For a kappa into the
    dual (see `_kappa_core`) the target star is the one at the plane's
    normal, and each image is read through `polar_line`.  The core and the
    polarity are read once, at the first point; each source star is
    certified on first use.  PreconditionViolated where kappa is undefined
    or an image is off the target star, which gives it no rank."""
    sp, sp2, img = lm.source, lm.target, lm.image
    read = None
    for p in points:
        if kappa is None or p not in kappa.image:
            raise PreconditionViolated(f"kappa undefined at point {p}")
        if read is None:
            normal, read = range(len(sp2.point_labels)), range(len(sp2.line_sets))
            if _kappa_core(lm, kappa) is not sp2:
                normal, _, read = polarity(sp2)
        star_ranks(sp, p)  # certifies the source star on first use
        rank = star_ranks(sp2, normal[kappa.image[p]]).get
        row = [rank(read[img[l]]) for l in star(sp, p)]
        if None in row:
            raise PreconditionViolated(_OUTSIDE)
        yield row


def restrict_to_star(lm: LineMap, q_point: int, kappa: PointMap) -> PointMap:
    """Restriction of a line map to one star, as a map of the native
    PG(n-1, q) (`star_native`): the point map of its rank row
    (`star_rows`), the restriction between the two `quotient`s relabelled."""
    (row,) = star_rows(lm, kappa, (q_point,))
    return PointMap(star_native(lm.source), star_native(lm.target), dict(enumerate(row)))


def noncollinear_witness(sp, q_point: int, a: int, b: int, c: int):
    """A line skew to c meeting both a and b, or None.

    Such a witness exists exactly when the three star lines do not lie in
    one pencil, which makes it a coordinate-free non-collinearity test for
    the quotient at the star's centre.  A line through the centre meets c,
    and one meeting a and b elsewhere lies in their plane: the witnesses
    are that plane's lines off the centre, unless c lies in it.  Smallest
    line id is returned for determinism.
    """
    members = set(star(sp, q_point))
    if len({a, b, c}) != 3 or not {a, b, c} <= members:
        raise NotInStar(
            f"need three distinct lines through point {q_point}, got {a},{b},{c}"
        )
    (plane,) = planes_of_line(sp, a) & planes_of_line(sp, b)
    if plane in planes_of_line(sp, c):
        return None
    return next(l for l in lines_in_plane(sp, plane) if q_point not in sp.line_sets[l])


def pencil_image_is_pencil(lm: LineMap, lines) -> bool:
    """Whether the image of a source pencil, given as its lines (`pencil`),
    is exactly a pencil of the target: q'+1 distinct lines, q' the target's
    order, with one common point and one common plane.  They all lie in
    the pencil at that point and plane, which has q'+1 lines, so they are
    all of it.  BadConfiguration for an id that names no source line; an
    empty list is no pencil."""
    if not all(map(is_code, lines, repeat(len(lm.source.line_sets)))):
        raise BadConfiguration(f"{lm.source!r} has no line among {lines!r}")
    sp2, images = lm.target, {lm.image[l] for l in lines}
    if not len(images) == len(lines) == sp2.q + 1:
        return False
    common_pts = frozenset.intersection(*(sp2.line_sets[l] for l in images))
    common_planes = frozenset.intersection(*(planes_of_line(sp2, l) for l in images))
    return len(common_pts) == len(common_planes) == 1


def intersection_compatibility_check(
    lm: LineMap, kappa: PointMap, q_point: int, plane_id: int, a: int
) -> bool:
    """Whether kappa commutes with intersections along one pencil: for
    every pencil line l, the labels that the images of l and a share in
    kappa's core (see `_kappa_core`) are exactly {kappa(l meet a)}.  In the
    dual those labels are the planes through both image lines; images that
    coincide share a whole line and fail.
    """
    sp = lm.source
    holders = planes_of_line(sp, a)  # BadConfiguration for an id that names no line
    lines_in_plane(sp, plane_id)  # NotAPlane for an id that names no plane
    if plane_id not in holders:
        raise BadConfiguration(f"line {a} does not lie in the given plane")
    if q_point in sp.line_sets[a]:
        raise BadConfiguration(f"point {q_point} must not lie on line {a}")
    if kappa is None:
        raise PreconditionViolated("kappa is undefined")
    sets = _kappa_core(lm, kappa).line_sets
    on_a = sets[lm.image[a]]
    for l in pencil(sp, q_point, plane_id):
        crossing = meet(sp, l, a)
        if crossing is None:
            raise GeometryError(f"coplanar lines {l} and {a} do not meet")
        if sets[lm.image[l]] & on_a != {kappa.image[crossing]}:
            return False
    return True
