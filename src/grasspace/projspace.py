"""Finite projective spaces PG(n, q) on one incidence core.

`IncidenceStructure` is the only incidence representation: point labels,
each line as the frozenset of its labels and each label's star as a mask
of its lines, built once at construction.  `ProjSpace` is that core plus
each star as a tuple and one coordinate table; the line through two
points is the one bit of the AND of their star masks.  A point is its
id: the points are the 1-dimensional subspaces of GF(q)^(n+1), and
`coords[id]` is its one-row RREF basis, the unique coordinate vector
whose leftmost nonzero entry is 1.  A line is its id: the lines are the
2-dimensional subspaces, `line_sets[id]` holds their point ids, and any
two of those points span the line, so no basis is stored.  A plane is
its id: every plane query takes one, `planes` lists the RREF bases by id,
and an id outside that list is `NotAPlane`.  The plane tables hold each
plane's lines and each line's planes; a plane's points are the union of
its lines (`plane_points`).  Every pencil is the flag rule p ∈ l ⊂ π
read off the tables: `pencils` groups a star's lines by the planes on
them for the star's certificate, its quotient, `pencil`,
`planes_through_point` and Theorem 2's pencil predicate, and a plane
quotient groups its lines by their points.  Quotients, duals and plane
quotients are plain cores, so every query and every map check reads one
code path.  A space caches its dual and one certified rank table per
point (`star_ranks`), but no quotient and no plane quotient.

A 3-space has one `polarity` table for x -> x⊥ = {y : x·y = 0}: each
plane's normal point, each point's polar plane and each line's polar line.
The polar lines are what the dual's certificate returns, and the dual is
read off the tables that certificate passed.

Each star, and each derived structure, is certified isomorphic to the
native space it must be (PG(n-1, q) for a star, its quotient or a plane
quotient, `star_native`, built like every space, PG(1, q) included; the
space itself for a dual), else `GeometryError`.  Each construction writes
the isomorphism down as a native point id per label (a star line's rank
in the star, which is its projection from the centre, after the polarity
for a plane quotient; or a plane's normal), and one check, `_certified`,
confirms it: a bijection onto the native points under which the lines, as
many as the native's, go onto exactly the native's set of lines.  It
returns each line's native line id, which the polarity keeps.  The tests
scan the natives' axioms with `verify_projective_axioms`.

Canonical order contract (used by the interchange formats in `cli`):

* point id = rank of the normalized coordinate tuple in lexicographic
  order (element-code order);
* line id  = rank of the line's sorted point-id tuple in lexicographic
  order over all lines;
* plane id = the same rank construction over sorted point-id tuples.
"""

import collections
import functools
from itertools import combinations, product

from .errors import (
    BadConfiguration,
    DimensionTooSmall,
    EqualLines,
    EqualPoints,
    GeometryError,
    NotAPlane,
    PointNotInPlane,
    RepeatedPoints,
    UnsupportedDimension,
)
from .field import field_make, is_code
from .linalg import normalize, rref_kernel
from .records import record


def gaussian_binomial(m: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of GF(q)^m (exact integer)."""
    if k < 0 or k > m:
        return 0
    num = 1
    den = 1
    for i in range(k):
        num *= q**m - q**i
        den *= q**k - q**i
    return num // den


def _grouped(members, holders) -> dict:
    """Holder -> the members m with that holder in holders[m], in member order."""
    groups = collections.defaultdict(list)
    for m in members:
        for h in holders[m]:
            groups[h].append(m)
    return groups


class IncidenceStructure:
    """Point/line incidence structure with hashable point labels.

    kind is one of "native", "quotient", "dual" (plus free-form detail);
    line_sets[i] is the set of labels on line i.  star_bits, the one star
    index, maps each label to the bitmask of its lines: a set of labels lies
    on line i exactly when bit i survives the AND of their masks.
    typed_labels pairs each label with its type, so that map tables are
    checked by type as well as value: 1, True and 1.0 are three labels.
    """

    def __init__(self, point_labels: tuple, line_sets: tuple, kind: str, detail: str = ""):
        self._index(point_labels, line_sets, kind, detail)

    def _index(self, point_labels, line_sets, kind, detail):
        """Set the fields, then check each line and group line ids by label
        in one loop: each star mask sets its lines' bits, and `ProjSpace`
        keeps the groups."""
        self.point_labels, self.line_sets = point_labels, line_sets
        self.kind, self.detail = kind, detail
        through = {p: [] for p in point_labels}
        if len(through) != len(point_labels):
            raise BadConfiguration("repeated point labels")
        seen = set()
        for i, s in enumerate(line_sets):
            if len(s) < 2:
                raise BadConfiguration(f"line {i} has fewer than two points")
            if s in seen:
                raise BadConfiguration(f"line {i} repeats an earlier line")
            seen.add(s)
            try:
                for p in s:
                    through[p].append(i)
            except KeyError:
                raise BadConfiguration(f"line {i} passes through an unknown point") from None
        self.star_bits = {}
        size = (len(self.line_sets) + 7) // 8
        for p, ls in through.items():
            row = bytearray(size)  # one int at the end, not one per line
            for i in ls:
                row[i >> 3] |= 1 << (i & 7)
            self.star_bits[p] = int.from_bytes(row, "little")
        self.typed_labels = frozenset(zip(map(type, self.point_labels), self.point_labels))
        return through

    def line_through(self, a, b):
        """Index of the first line through two distinct labels, or None."""
        bits = self.star_bits
        common = bits.get(a, 0) & bits.get(b, 0) if a != b else 0
        return (common & -common).bit_length() - 1 if common else None

    def collinear(self, a, b, c):
        """Whether one line holds all three labels; False when a == b."""
        bits = self.star_bits
        return a != b and bits.get(a, 0) & bits.get(b, 0) & bits.get(c, 0) != 0

    def __repr__(self):
        tag = f"{self.kind}:{self.detail}" if self.detail else self.kind
        return (
            f"IncidenceStructure({tag}, {len(self.point_labels)} points, "
            f"{len(self.line_sets)} lines)"
        )


class ProjSpace(IncidenceStructure):
    """PG(n, q): the incidence core over point ids, plus lines_through (each
    point's star as ascending line ids, which `star` reads with no mask to
    decode), coords (each point id's normalized coordinate tuple) and its
    inverse point_index."""

    def __init__(self, point_labels, line_sets, kind, detail="", *, n, field, coords, point_index):
        through = self._index(point_labels, line_sets, kind, detail)
        self.n, self.field, self.coords, self.point_index = n, field, coords, point_index
        self.lines_through = {p: tuple(through[p]) for p in self.point_labels}
        self._plane_tables = None
        self._polarity = None
        self._parents = None
        self._sections = {}
        self._star_native = None
        self._dual = None
        self._grassmann = None

    @property
    def q(self):
        return self.field.q

    def __repr__(self):
        return f"PG({self.n},{self.q})"


def _rref_bases(q, m, k):
    """Every k-row RREF matrix over GF(q)^m, one per k-dimensional subspace:
    for each choice of pivot columns, each row's 1 at its pivot, 0 before it
    and in the other pivot columns, and every code in each column left."""
    codes = range(q)
    for pivots in combinations(range(m), k):
        rows = (
            product(*((1,) if c == p else codes if c > p and c not in pivots else (0,)
                      for c in range(m)))
            for p in pivots
        )
        yield from product(*rows)


def _subspaces(field, point_index, m):
    """Every 2-dimensional subspace of GF(q)^m as its sorted point ids,
    ascending: the canonical order of lines.  An RREF pair (a, b) spans
    the normalized vectors b, then a + t·b for each code t; b leads later
    than a, and a + t·b is a up to b's pivot, where it holds t, so the ids
    come out ascending."""
    add = [row.__getitem__ for row in field.add_table]
    mul, point = field.mul_table, point_index.__getitem__
    lines = []
    for a, b in _rref_bases(field.q, m, 2):
        # column x + y·t over t = 0..q-1, for each column (x, y) of (a, b)
        columns = [map(add[x], mul[y]) for x, y in zip(a, b)]
        lines.append((point(b), *map(point, zip(*columns))))
    lines.sort()
    return lines


def _build_space(n, q):
    f = field_make(q)
    m = n + 1

    coords = tuple(sorted(row for row, in _rref_bases(q, m, 1)))
    if len(coords) != gaussian_binomial(m, 1, q):
        raise GeometryError(f"PG({n},{q}) built {len(coords)} points")
    point_index = {c: i for i, c in enumerate(coords)}

    line_sets = tuple(frozenset(pids) for pids in _subspaces(f, point_index, m))
    if len(line_sets) != gaussian_binomial(m, 2, q):
        raise GeometryError(f"PG({n},{q}) built {len(line_sets)} lines")

    sp = ProjSpace(
        point_labels=tuple(range(len(coords))),
        line_sets=line_sets,
        kind="native",
        detail=f"PG({n},{q})",
        n=n,
        field=f,
        coords=coords,
        point_index=point_index,
    )
    star_size = gaussian_binomial(n, 1, q)
    for pid, ls in sp.lines_through.items():
        if len(ls) != star_size:
            raise GeometryError(f"point {pid} lies on {len(ls)} lines, not {star_size}")
    return sp


@functools.lru_cache(maxsize=None)
def build_space(n: int, q: int) -> ProjSpace:
    """Construct PG(n, q), n >= 2.  Results are cached; spaces are immutable."""
    if n < 2:
        raise DimensionTooSmall(f"projective dimension must be >= 2, got {n}")
    return _build_space(n, q)


def point_id_of_vector(sp, vec):
    """Point id of a nonzero coordinate vector: the id of its normalized
    multiple.  BadConfiguration unless vec is n+1 codes in range(q); a zero
    vector raises ValueError."""
    if len(vec) != sp.n + 1 or not all(is_code(c, sp.q) for c in vec):
        raise BadConfiguration(f"{vec!r} is not {sp.n + 1} codes below {sp.q}")
    return sp.point_index[normalize(sp.field, vec)]


def point_parents(sp) -> tuple:
    """Each point's (parent, j, x), built once and cached: j is the last
    nonzero coordinate of coords[p], x its value, and parent the id of
    coords[p] with coordinate j zeroed, or -1 for a unit vector, which that
    leaves zero.  Zeroing a coordinate after the leading 1 keeps the vector
    normalized and lowers its lex rank, so every parent precedes its point."""
    if sp._parents is None:
        table = []
        for c in sp.coords:
            j = len(c) - 1
            while not c[j]:
                j -= 1
            parent = sp.point_index.get(c[:j] + (0,) * (len(c) - j), -1)
            table.append((parent, j, c[j]))
        sp._parents = tuple(table)
    return sp._parents


def join(sp, a: int, b: int) -> int:
    """Id of the unique line through two distinct points: the one bit of
    the AND of their star masks.  `star` rejects an id that names no point
    before the points are compared."""
    star(sp, a)
    star(sp, b)
    if a == b:
        raise EqualPoints(f"join needs two distinct points, got {a} twice")
    return sp.line_through(a, b)


def meet(sp, a: int, b: int):
    """Common point id of two distinct lines, or None when they are skew."""
    common = _line(sp, a) & _line(sp, b)
    if a == b:
        raise EqualLines(f"meet needs two distinct lines, got {a} twice")
    return next(iter(common), None)


def collinear(sp, a: int, b: int, c: int) -> bool:
    """Whether three pairwise distinct points lie on one line."""
    star(sp, a)
    star(sp, b)
    star(sp, c)
    if a == b or a == c or b == c:
        raise RepeatedPoints(f"collinear needs pairwise distinct points: {a},{b},{c}")
    return sp.collinear(a, b, c)


def star(sp, q_point: int) -> tuple:
    """Ids of all lines through a point, ascending; BadConfiguration for an
    id that names no point."""
    if not is_code(q_point, len(sp.point_labels)):
        raise BadConfiguration(f"{sp!r} has no point {q_point!r}")
    return sp.lines_through[q_point]


def _line(sp, line_id: int) -> frozenset:
    """Point ids of a line; BadConfiguration for an id that names no line."""
    if not is_code(line_id, len(sp.line_sets)):
        raise BadConfiguration(f"{sp!r} has no line {line_id!r}")
    return sp.line_sets[line_id]


PlaneTables = collections.namedtuple("PlaneTables", "bases lines on_line")


def _planes(sp) -> PlaneTables:
    """Canonical plane tables, one per relation that code reads: RREF
    bases, ascending line ids (one shared object per id) and the planes on
    each line; planes are ranked by their sorted point ids.  With basis
    points (a, b, c), the plane's lines are the spokes a|y for y on b|c
    and, since every line of the plane that misses a meets a|b and a|c,
    the joins x|z of x on a|b and z on a|c other than a.  Two distinct
    points share one line, the one bit of the AND of their star masks."""
    if sp._plane_tables is None:
        sets, bits, through = sp.line_sets, sp.star_bits, sp.line_through
        ids = tuple(range(len(sets)))
        raw = []
        for basis in _rref_bases(sp.q, sp.n + 1, 3):
            a, b, c = map(sp.point_index.__getitem__, basis)
            mask = bits[a]
            spokes = [(mask & bits[y]).bit_length() - 1 for y in sets[through(b, c)]]
            side_b = [bits[x] for x in sets[through(a, b)] if x != a]
            side_c = [bits[z] for z in sets[through(a, c)] if z != a]
            lines = spokes + [(x & z).bit_length() - 1 for x, z in product(side_b, side_c)]
            pts = sorted(set().union(*(sets[l] for l in spokes)))
            raw.append((pts, basis, tuple(ids[l] for l in sorted(lines))))
        raw.sort()
        bases, line_ids = zip(*(row[1:] for row in raw))
        on_line = _grouped(range(len(raw)), line_ids)
        sp._plane_tables = PlaneTables(bases, line_ids, tuple(frozenset(on_line[l]) for l in ids))
    return sp._plane_tables


def planes(sp) -> tuple:
    """The RREF basis of every plane, indexed by plane id."""
    return _planes(sp).bases


def lines_in_plane(sp, plane_id: int) -> tuple:
    """A plane's line ids, ascending; NotAPlane for an id that names no plane."""
    rows = _planes(sp).lines
    if not is_code(plane_id, len(rows)):
        raise NotAPlane(f"{sp!r} has no plane {plane_id!r}")
    return rows[plane_id]


def plane_points(sp, plane_id: int) -> frozenset:
    """Point ids of a plane, the union of its lines, built on each call."""
    return frozenset().union(*map(sp.line_sets.__getitem__, lines_in_plane(sp, plane_id)))


def planes_of_line(sp, line_id: int) -> frozenset:
    """Ids of the planes containing a line; BadConfiguration for an id that
    names no line."""
    _line(sp, line_id)
    return _planes(sp).on_line[line_id]


def holder(sp, lines):
    """What holds a list of line ids: ("point", y) for the point y on every
    line, else ("plane", π) for the plane π on every line, else None, when
    two are skew.  Lines that pairwise meet pass through one point or lie
    in one plane, both forced by two distinct lines: the one point, then
    the one plane (in the dual's line table `on_line`) on both, or
    GeometryError.  Fewer than two distinct lines give ("line", l or None)."""
    a, b = (lines[0], lines[-1]) if lines else (None, None)
    if a == b:
        b = next((l for l in lines if l != a), None)
        if b is None:
            return "line", a
    for kind in ("point", "plane"):
        table = sp.line_sets if kind == "point" else _planes(sp).on_line
        common = table[a] & table[b]
        if len(common) != 1:
            if kind == "point" and not common:
                return None
            raise GeometryError(f"line {a} shares {len(common)} {kind}s with line {b} of {sp!r}")
        for x in common:
            for l in lines:
                if x not in table[l]:
                    break
            else:
                return kind, x
    return None


def pencils(sp, x) -> dict:
    """The pencils at point x by the flag rule p ∈ l ⊂ π: each plane through
    x -> the lines through x in it, ascending, grouped on each call.  `star`
    rejects an id that names no point."""
    return _grouped(star(sp, x), _planes(sp).on_line)


def planes_through_point(sp, point_id: int) -> tuple:
    """Ids of the planes through a point, ascending: the keys of its
    `pencils`."""
    return tuple(sorted(pencils(sp, point_id)))


def pencil(sp, q_point: int, plane_id: int) -> tuple:
    """Lines through a point inside a plane, ascending ids: the plane's group
    in the point's `pencils`.  NotAPlane (`lines_in_plane`) or
    BadConfiguration (`star`) for an id that names nothing, PointNotInPlane
    off the plane."""
    lines_in_plane(sp, plane_id)
    group = pencils(sp, q_point).get(plane_id)
    if group is None:
        raise PointNotInPlane(f"point {q_point} not on plane {plane_id}")
    return tuple(group)


def _certified(what, labels, line_sets, native, image) -> tuple:
    """Check that image (label -> native point id, whatever computed it) is
    an isomorphism of what, the labels with their line_sets, onto native,
    whose axioms it then shares: no image None, the map injective, as many
    labels as native points and lines as native lines, each line's image a
    native line and none hit twice.  Returns the native line id of each
    line, in line order.  One image set is held at a time."""
    ids = [image[lab] for lab in labels]
    lines = native.line_sets
    ok = (None not in ids and len(set(ids)) == len(ids) == len(native.point_labels)
          and len(line_sets) == len(lines))
    if ok:
        line_id = dict(zip(lines, range(len(lines)))).get
        found = tuple(line_id(frozenset(map(image.__getitem__, s))) for s in line_sets)
        ok = None not in found and len(set(found)) == len(lines)
    if not ok:
        raise GeometryError(f"{what} is not isomorphic to {native!r}")
    return found


def star_native(sp) -> ProjSpace:
    """The native PG(n-1, q) that the stars of sp are certified against,
    kept on sp: `build_space`'s, or, for a plane, PG(1, q) from the same
    builder, which `build_space` refuses."""
    if sp._star_native is None:
        sp._star_native = build_space(sp.n - 1, sp.q) if sp.n > 2 else _build_space(1, sp.q)
    return sp._star_native


def _normal(f, rows):
    """The vector orthogonal to every row of an RREF basis, read off the
    basis with no elimination, or None unless the rows span a hyperplane."""
    kernel = rref_kernel(f, rows, len(rows[0]))
    return kernel[0] if len(kernel) == 1 else None


Polarity = collections.namedtuple("Polarity", "normal polar_plane polar_line")


def polarity(sp) -> Polarity:
    """x -> x⊥ on a 3-space as id tables, built once and cached: each
    plane's normal point (one `_normal` per plane), its inverse
    polar_plane, and each line's polar line, which `_certified` returns
    once it confirms that the normals carry the dual (the planes as points,
    line l as the planes on l in `_planes`) onto the space.  GeometryError
    if a plane has no 1-dimensional normal or the certificate fails."""
    if sp.n != 3:
        raise UnsupportedDimension(f"polarity needs dimension 3, got {sp.n}")
    if sp._polarity is None:
        vecs = [_normal(sp.field, basis) for basis in planes(sp)]
        if None in vecs:
            raise GeometryError(f"plane {vecs.index(None)} has no 1-dimensional normal")
        normal = tuple(point_id_of_vector(sp, v) for v in vecs)
        labels = range(len(normal))
        polar_line = _certified(f"dual of {sp!r}", labels, _planes(sp).on_line, sp, normal)
        polar_plane = tuple(sorted(labels, key=normal.__getitem__))
        sp._polarity = Polarity(normal, polar_plane, polar_line)
    return sp._polarity


def star_ranks(sp, centre: int) -> dict:
    """Line through the centre P -> native id of its projection from P onto
    the hyperplane x_i = 0 (i: P's leading 1), read as the line's rank in
    P's star.  The projection is the line's one point X with X[i] = 0,
    coordinate i dropped, and X is the line's least point other than P:
    either X leads after i and is the least point, or X leads before i, P
    is the least, and X is the least of the points X + t·P, which agree
    with X before i and hold t at i.  So the star's lines, ascending, go
    onto the points of `star_native`, ascending.  Cached by point id once
    certified on first use: its `pencils` onto native lines."""
    lines = star(sp, centre)
    ranks = sp._sections.get(centre)
    if ranks is None:
        ranks = dict(zip(lines, range(len(lines))))
        groups = pencils(sp, centre).values()
        _certified(f"star {centre} of {sp!r}", lines, groups, star_native(sp), ranks)
        sp._sections[centre] = ranks
    return ranks


def quotient(sp, q_point: int) -> IncidenceStructure:
    """Quotient space at a point, built on each call: star lines as points
    and as lines the sorted pencils, which `star_ranks` certifies."""
    members = star(sp, q_point)
    groups = tuple(map(frozenset, sorted(pencils(sp, q_point).values())))
    structure = IncidenceStructure(members, groups, "quotient", f"{sp!r}/{q_point}")
    star_ranks(sp, q_point)
    return structure


def dual_space(sp) -> IncidenceStructure:
    """Dual of a 3-dimensional space: planes as points, reversed incidence.

    Point labels are canonical plane ids; line i of the dual is the set of
    planes containing line i of the source (`_planes`), so line ids carry
    over.  `polarity` certifies that table isomorphic to the space itself,
    each plane going to its normal point, before the dual reads it.
    """
    if sp.n != 3:
        raise UnsupportedDimension(f"dual_space needs dimension 3, got {sp.n}")
    if sp._dual is None:
        labels = tuple(range(len(polarity(sp).normal)))
        sp._dual = IncidenceStructure(labels, _planes(sp).on_line, "dual", repr(sp))
    return sp._dual


def plane_quotient(sp, plane_id: int) -> IncidenceStructure:
    """Quotient of the dual space at a plane: the plane's lines as points,
    its pencils as lines.  Certified isomorphic to PG(2, q), never cached.

    The polarity sends the lines of π onto the lines through its normal N,
    and the pencil at a point P of π onto the pencil at N in P's polar
    plane.  So a line of π goes to its polar line projected from N, through
    `star_ranks` at N (None for a polar line off N)."""
    if sp.n != 3:
        raise UnsupportedDimension(f"plane_quotient needs dimension 3, got {sp.n}")
    members = lines_in_plane(sp, plane_id)
    groups = tuple(map(frozenset, sorted(_grouped(members, sp.line_sets).values())))
    structure = IncidenceStructure(members, groups, "quotient", f"dual({sp!r})/{plane_id}")
    table = polarity(sp)
    ranks = star_ranks(sp, table.normal[plane_id])
    image = {l: ranks.get(table.polar_line[l]) for l in members}
    _certified(structure, members, groups, star_native(sp), image)
    return structure


class AxiomReport(record("AxiomReport", "unique_join veblen line_size")):
    """Result of the projective-axiom check: each axiom's first witness, or
    None where the axiom holds."""

    __slots__ = ()

    @property
    def passed(self):
        return self.unique_join is None and self.veblen is None and self.line_size is None


def verify_projective_axioms(inc: IncidenceStructure) -> AxiomReport:
    """Check the point-line axioms of a projective space on an abstract structure.

    (i) two distinct points lie on exactly one common line; (ii) a line
    meeting two sides of a triangle away from the vertices meets the third
    side; (iii) every line has at least three points.  Failures are report
    content, never exceptions.
    """
    bits = inc.star_bits
    unique_join = None
    for a, b in combinations(inc.point_labels, 2):
        c = (bits[a] & bits[b]).bit_count()  # the lines through both
        if c != 1:
            unique_join = (a, b, c)
            break
    short = (tuple(sorted(s, key=repr)) for s in inc.line_sets if len(s) < 3)
    return AxiomReport(unique_join, _veblen_witness(inc), next(short, None))


def _veblen_witness(inc):
    """The first (A, B, C, P, R) in scan order where the line through P and
    R misses the side B|C, or None.  Triangle form: sides g = A|B and
    h = A|C through a common vertex A; the line through P on g and R on h
    (both away from A) must meet B|C.  Each of those lines is the first
    line through its two labels."""
    sets, line_through = inc.line_sets, inc.line_through
    for a in inc.point_labels:
        for g, h in combinations([i for i, s in enumerate(sets) if a in s], 2):
            g_rest = [x for x in sets[g] if x != a]
            h_rest = [x for x in sets[h] if x != a]
            for p_lab, r_lab in product(g_rest, h_rest):
                li = line_through(p_lab, r_lab)
                if li is None:
                    continue
                lset = sets[li]
                for b_lab, c_lab in product(g_rest, h_rest):
                    if b_lab == p_lab or c_lab == r_lab:
                        continue
                    side = line_through(b_lab, c_lab)
                    if side is not None and not (lset & sets[side]):
                        return (a, b_lab, c_lab, p_lab, r_lab)
    return None
