"""Independent brute-force oracles used to freeze expected values.

Everything here recomputes results from first principles with algorithms
deliberately unrelated to the package's implementations: subspace counts
come from span collection, collinearity from matrix rank over the prime
field, monomorphism counts from constraint propagation over raw operation
tables, automorphism orders of tiny graphs from filtering all vertex
permutations, equitable refinement from whole-partition signature passes,
point-map properties from walking every point triple (and, where two
lines may share two points, from subset tests over every line), line-map
preservation of intersections and skewness from walking every line pair
and intersecting point sets, cliques of lines from the line graph's
rows, point-map reconstruction from whole star images intersected one
core at a time, isomorphisms of incidence structures from a
backtracking search over point bijections, dual spaces from planes
found as closures of non-collinear triples, reduced echelon forms and
invertibility from column pivots with back-substitution, written here apart
from `grasspace.linalg`, the instance sampler from whole matrices
drawn and ranked before any is kept, semilinear point images from the
scaled rows of every nonzero coordinate, induced line maps from a scan for
the line through two image points plus a membership test for the rest, and
duality maps from annihilators: each point's image row by a plain matrix
product, then the kernel of one or two rows and a scan for the line or
plane it spans.  Plane tables come from the span of each RREF basis and a
subset test over every line, lines from every combination of two
points' coordinates, pencils from a set filter over the star, and
projections from a centre by X - X[i]·P on any other point X of the line,
normalized and looked up.
"""

from itertools import combinations, permutations, product

from grasspace.errors import GeometryError, NotLineConsistent, PreconditionViolated
from grasspace.linalg import normalize, nullspace
from grasspace.maps import KappaReport, KappaStatus, PointMap, classify_point_map
from grasspace.projspace import (
    IncidenceStructure,
    dual_space,
    plane_points,
    planes,
)
from grasspace.rng import SplitMix64


def vec_add(f, u, v):
    add = f.add_table
    return tuple(add[x][y] for x, y in zip(u, v))


def vec_scale(f, c, v):
    row = f.mul_table[c]
    return tuple(row[x] for x in v)


def normalized_vectors(q, m):
    """Every length-m code vector whose leftmost nonzero entry is 1, in
    lexicographic order: a filter over all q**m vectors."""
    return [v for v in product(range(q), repeat=m) if 1 in v and not any(v[: v.index(1)])]


def _span_points(field, point_index, basis):
    """Point ids on the span of an RREF basis, row by row: combining RREF
    rows with a normalized coefficient vector yields an already-normalized
    coordinate vector, so no per-point rescaling happens."""
    ids = []
    for coeffs in normalized_vectors(field.q, len(basis)):
        vec = None
        for c, row in zip(coeffs, basis):
            term = row if c == 1 else vec_scale(field, c, row)
            vec = term if vec is None else vec_add(field, vec, term)
        ids.append(point_index[vec])
    return ids


def prime_span(vectors, p):
    """All linear combinations of the given vectors mod p, as a frozenset."""
    width = len(vectors[0])
    total = {tuple([0] * width)}
    for coeffs in product(range(p), repeat=len(vectors)):
        vec = tuple(
            sum(c * v[i] for c, v in zip(coeffs, vectors)) % p for i in range(width)
        )
        total.add(vec)
    return frozenset(total)


def prime_subspace_count(m, k, p):
    """Count k-dimensional subspaces of GF(p)^m by collecting k-set spans."""
    nonzero = [v for v in product(range(p), repeat=m) if any(v)]
    spans = set()
    size = p**k
    for combo in combinations(nonzero, k):
        s = prime_span(list(combo), p)
        if len(s) == size:
            spans.add(s)
    return len(spans)


def prime_rank(rows, p):
    """Rank of a matrix over GF(p) by plain Gaussian elimination."""
    work = [list(r) for r in rows]
    if not work:
        return 0
    cols = len(work[0])
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, len(work)):
            if work[i][c] % p:
                pivot = i
                break
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = pow(work[r][c], -1, p)
        work[r] = [(x * inv) % p for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] % p:
                f = work[i][c]
                work[i] = [(x - f * y) % p for x, y in zip(work[i], work[r])]
        r += 1
        if r == len(work):
            break
    return r


def reference_rref(f, rows):
    """Reduced row echelon form by column pivots and back-substitution, kept
    apart from `grasspace.linalg`; returns the tuple of nonzero rows."""
    add = f.add_table
    mul = f.mul_table
    neg = f.neg_table
    inv = f.inv_table
    m = [list(r) for r in rows]
    if not m:
        return ()
    width = len(m[0])
    pivot_row = 0
    for col in range(width):
        pr = None
        for r in range(pivot_row, len(m)):
            if m[r][col]:
                pr = r
                break
        if pr is None:
            continue
        m[pivot_row], m[pr] = m[pr], m[pivot_row]
        lead = m[pivot_row][col]
        if lead != 1:
            s = inv[lead]
            m[pivot_row] = [mul[s][x] for x in m[pivot_row]]
        for r in range(len(m)):
            if r != pivot_row and m[r][col]:
                factor = neg[m[r][col]]
                frow = mul[factor]
                prow = m[pivot_row]
                m[r] = [add[x][frow[y]] for x, y in zip(m[r], prow)]
        pivot_row += 1
        if pivot_row == len(m):
            break
    return tuple(tuple(r) for r in m[:pivot_row] if any(r))


def rank(f, rows):
    """Rank over a FieldTable: the nonzero rows of the reduced echelon form."""
    return len(reference_rref(f, rows))


def invertible_by_rank(f, mat):
    """Whether mat is square with rank equal to its size."""
    n = len(mat)
    return all(len(r) == n for r in mat) and rank(f, mat) == n


def whole_matrix_sample(f, n, seed):
    """The instance sampling contract drawn whole: (n+1)^2 below(q) draws per
    matrix, row-major, redrawn until its rank is full, then one draw for the
    automorphism index.  Returns (matrix, auto_index, stream)."""
    size = n + 1
    rng = SplitMix64(seed)
    while True:
        matrix = tuple(zip(*[iter(rng.draws(f.q, size * size))] * size))
        if invertible_by_rank(f, matrix):
            return matrix, rng.below(len(f.automorphisms)), rng


def joined_line_map(pm):
    """Induced line table of a point map between coordinate spaces: each line
    goes to the target line through its first two point images, and every
    further image must lie on it.  Raises NotLineConsistent as
    `maps.induced_line_map` does: collapse first, then non-collinearity,
    at the first line that fails."""
    lines = pm.target.line_sets
    image = []
    for l, points in enumerate(pm.source.line_sets):
        imgs = [pm.image[p] for p in points]
        if len(set(imgs)) != len(imgs):
            raise NotLineConsistent(f"line {l}: point images collapse")
        lid = next(i for i, s in enumerate(lines) if imgs[0] in s and imgs[1] in s)
        if any(x not in lines[lid] for x in imgs[2:]):
            raise NotLineConsistent(f"line {l}: point images not collinear")
        image.append(lid)
    return tuple(image)


def semilinear_image_rows(t, sp):
    """Coordinates of normalize(auto(x) . matrix) for every point x of sp,
    by a plain matrix product over the field tables."""
    f = sp.field
    add, mul = f.add_table, f.mul_table
    auto = f.automorphisms[t.auto_index]
    rows = []
    for x in sp.coords:
        out = [0] * len(x)
        for c, row in zip(x, t.matrix):
            out = [add[o][mul[auto[c]][r]] for o, r in zip(out, row)]
        rows.append(normalize(f, out))
    return rows


def per_point_row_ids(t, sp, sp2):
    """The semilinear row kernel point by point: for each point of sp, the
    sp2 id of the sum of auto(x_i) times matrix row i over its nonzero
    coordinates, normalized.  Every multiple of every row is tabled once."""
    f = sp.field
    add, mul, inv = f.add_table, f.mul_table, f.inv_table
    auto = f.automorphisms[t.auto_index]
    scaled = [[tuple(mul[c][x] for x in row) for c in range(f.q)] for row in t.matrix]
    ids = []
    for coords in sp.coords:
        out = None
        for x, table in zip(coords, scaled):
            if x:
                term = table[auto[x]]
                out = term if out is None else [add[a][b] for a, b in zip(out, term)]
        for lead in out:
            if lead:
                break
        if lead != 1:
            row = mul[inv[lead]]
            out = [row[x] for x in out]
        ids.append(sp2.point_index[tuple(out)])
    return ids


def _kernel_ids(sp, rows):
    return {sp.point_index[normalize(sp.field, v)] for v in nullspace(sp.field, rows)}


def annihilator_line_map(d, sp, sp2):
    """Line table of a duality: each line goes to the annihilator of the
    image rows of two of its points, the sp2 line that holds both kernel
    points, found by a scan."""
    rows = semilinear_image_rows(d, sp)
    image = []
    for a, b, *_ in sp.line_sets:
        kernel = _kernel_ids(sp2, (rows[a], rows[b]))
        (lid,) = [i for i, s in enumerate(sp2.line_sets) if kernel <= s]
        image.append(lid)
    return tuple(image)


def annihilator_point_to_plane(d, sp, sp2):
    """Point -> plane table of a duality: the one sp2 plane that holds the
    annihilator of each point's image row, found by a scan."""
    plane_sets = [plane_points(sp2, pl) for pl in range(len(planes(sp2)))]
    table = {}
    for pid, row in enumerate(semilinear_image_rows(d, sp)):
        kernel = _kernel_ids(sp2, (row,))
        (table[pid],) = [pl for pl, s in enumerate(plane_sets) if kernel <= s]
    return table


def spanned_planes(sp):
    """(point set, ascending line ids) of every plane, by plane id: the span
    of its RREF basis, combined row by row, and every line inside it."""
    rows = []
    for basis in planes(sp):
        pts = frozenset(_span_points(sp.field, sp.point_index, basis))
        rows.append((pts, tuple(l for l, s in enumerate(sp.line_sets) if s <= pts)))
    return rows


def spanned_lines(sp):
    """Every line of a coordinate space as its sorted point ids, ascending:
    for each pair of points on no line found yet, every combination
    λu + μv of their coordinates, scaled to a leading 1 and looked up."""
    f = sp.field
    add, mul, inv = f.add_table, f.mul_table, f.inv_table
    found, covered = [], set()
    for a, b in combinations(sp.point_labels, 2):
        if (a, b) in covered:
            continue
        u, v = sp.coords[a], sp.coords[b]
        ids = set()
        for lam, mu in product(range(f.q), repeat=2):
            w = [add[mul[lam][x]][mul[mu][y]] for x, y in zip(u, v)]
            lead = next((c for c in w if c), 0)
            if lead:
                ids.add(sp.point_index[tuple(mul[inv[lead]][c] for c in w)])
        line = tuple(sorted(ids))
        covered.update(combinations(line, 2))
        found.append(line)
    return sorted(found)


def filtered_pencil(sp, plane_lines, point):
    """Lines through a point among a plane's lines, by a set filter over the
    point's star."""
    inside = set(plane_lines)
    return tuple(l for l in sp.lines_through[point] if l in inside)


def projected_star(sp, centre):
    """Line through the centre P -> PG(n-1, q) point id of X - X[i]·P, for
    the smallest other point X of the line and i P's leading 1, with
    coordinate i dropped, normalized and ranked among `normalized_vectors`,
    so PG(1, q) needs no space built."""
    f, p = sp.field, sp.coords[centre]
    i = p.index(1)
    native = {v: rank for rank, v in enumerate(normalized_vectors(sp.q, sp.n))}
    table = {}
    for l in sp.lines_through[centre]:
        x = sp.coords[min(sp.line_sets[l] - {centre})]
        v = vec_add(f, x, vec_scale(f, f.neg_table[x[i]], p))
        table[l] = native[normalize(f, v[:i] + v[i + 1 :])]
    return table


def collinear_triple_count(coords, p):
    """Unordered triples of projective points with dependent coordinates."""
    count = 0
    for a, b, c in combinations(coords, 3):
        if prime_rank([a, b, c], p) < 3:
            count += 1
    return count


def invertible_matrix_count(m, p):
    """Count invertible m x m matrices over GF(p) exhaustively."""
    count = 0
    for entries in product(range(p), repeat=m * m):
        rows = [entries[i * m : (i + 1) * m] for i in range(m)]
        if prime_rank(rows, p) == m:
            count += 1
    return count


def enumerate_monomorphisms(src, tgt):
    """All injective operation-preserving maps between two field tables.

    Works by forced closure: whenever images of a and b are known, the
    images of a+b and a*b are forced; conflicts prune the branch.  The
    tables are consumed as data only, no field theory is assumed.
    """

    def propagate(assign):
        assign = dict(assign)
        changed = True
        while changed:
            changed = False
            known = list(assign.items())
            for a, fa in known:
                for b, fb in known:
                    for res, forced in (
                        (src.add(a, b), tgt.add(fa, fb)),
                        (src.mul(a, b), tgt.mul(fa, fb)),
                    ):
                        current = assign.get(res)
                        if current is None:
                            assign[res] = forced
                            changed = True
                        elif current != forced:
                            return None
        values = list(assign.values())
        if len(set(values)) != len(values):
            return None
        return assign

    results = []

    def extend(assign):
        closed = propagate(assign)
        if closed is None:
            return
        missing = [x for x in range(src.q) if x not in closed]
        if not missing:
            results.append(dict(closed))
            return
        x = missing[0]
        used = set(closed.values())
        for y in range(tgt.q):
            if y not in used:
                trial = dict(closed)
                trial[x] = y
                extend(trial)

    extend({0: 0, 1: 1})
    return results


def brute_graph_aut_order(masks):
    """Automorphism count of a small graph by filtering all permutations."""
    n = len(masks)
    neighbors = [frozenset(i for i in range(n) if m >> i & 1) for m in masks]
    count = 0
    for perm in permutations(range(n)):
        if all(
            {perm[u] for u in neighbors[v]} == neighbors[perm[v]] for v in range(n)
        ):
            count += 1
    return count


def equitable_refinement_oracle(masks, pa, pb):
    """Lockstep equitable refinement of paired ordered partitions by whole
    passes: every vertex of a non-singleton cell is bucketed by its counts
    against every cell, until no cell splits.

    Returns (pa, pb) stabilized, or None when the signature multisets of a
    cell pair disagree.
    """
    while True:
        amasks = []
        bmasks = []
        for cell in pa:
            m = 0
            for v in cell:
                m |= 1 << v
            amasks.append(m)
        for cell in pb:
            m = 0
            for v in cell:
                m |= 1 << v
            bmasks.append(m)
        new_a = []
        new_b = []
        changed = False
        for ca, cb in zip(pa, pb):
            if len(ca) == 1:
                new_a.append(ca)
                new_b.append(cb)
                continue
            buckets_a = {}
            for v in ca:
                sig = tuple((masks[v] & m).bit_count() for m in amasks)
                buckets_a.setdefault(sig, []).append(v)
            buckets_b = {}
            for v in cb:
                sig = tuple((masks[v] & m).bit_count() for m in bmasks)
                buckets_b.setdefault(sig, []).append(v)
            if sorted(buckets_a) != sorted(buckets_b):
                return None
            for sig in sorted(buckets_a):
                if len(buckets_a[sig]) != len(buckets_b[sig]):
                    return None
            if len(buckets_a) > 1:
                changed = True
            for sig in sorted(buckets_a):
                new_a.append(tuple(buckets_a[sig]))
                new_b.append(tuple(buckets_b[sig]))
        pa, pb = new_a, new_b
        if not changed:
            return pa, pb


def triple_property_flags(pm):
    """(injective, surjective, preserves collinearity, preserves
    non-collinearity) of a point map, from every unordered triple of
    pairwise distinct source points.

    A triple is collinear when one line holds all three points.  By the
    degenerate-triple rule an image triple that is not pairwise distinct
    counts as collinear.
    """

    def collinear_triples(space):
        return {frozenset(t) for s in space.line_sets for t in combinations(s, 3)}

    source_col = collinear_triples(pm.source)
    target_col = collinear_triples(pm.target)
    img = pm.image
    values = list(img.values())
    injective = len(set(values)) == len(values)
    surjective = set(values) == set(pm.target.point_labels)
    col_ok = noncol_ok = True
    for triple in combinations(pm.source.point_labels, 3):
        images = frozenset(img[p] for p in triple)
        image_col = len(images) < 3 or images in target_col
        if frozenset(triple) in source_col:
            col_ok = col_ok and image_col
        else:
            noncol_ok = noncol_ok and not image_col
    return injective, surjective, col_ok, noncol_ok


def line_rule_property_flags(pm):
    """The same four flags by the line rule `check_properties` documents,
    from subset tests over every line: a label set is collinear when it
    has at most two members or some line contains it.

    On partial linear spaces this agrees with `triple_property_flags`.
    Where two lines share two points it need not: source lines {0, 1, 2}
    and {0, 1, 3} with 0 and 1 sent to one point fail non-collinearity
    preservation here (the map is not injective and the source is not one
    line), while every non-collinear source triple holds 2 and 3 and may
    keep a non-collinear image.
    """

    def collinear(space, labels):
        return len(labels) <= 2 or any(labels <= s for s in space.line_sets)

    img = pm.image
    values = set(img.values())
    injective = len(values) == len(img)
    surjective = values == set(pm.target.point_labels)
    col_ok = all(
        collinear(pm.target, {img[p] for p in s}) for s in pm.source.line_sets
    )
    if collinear(pm.source, set(img)):
        noncol_ok = True
    elif not injective:
        noncol_ok = False
    else:
        inverse = {x: p for p, x in img.items()}
        noncol_ok = all(
            collinear(pm.source, {inverse[x] for x in s if x in inverse})
            for s in pm.target.line_sets
        )
    return injective, surjective, col_ok, noncol_ok


def _lines_related(space, a, b):
    """Two lines of a space are equal or share a point."""
    return a == b or bool(space.line_sets[a] & space.line_sets[b])


def is_clique(masks, lines):
    """Whether every two of the lines (a sequence of ids) are equal or meet,
    read off the line graph's neighbour masks (`build_grassmann`): the
    oracle of `projspace.holder`."""
    bits = 0
    for l in lines:
        bits |= 1 << l
    return all(not bits & ~(masks[l] | 1 << l) for l in lines)


def pairwise_preserves_intersections(lm):
    """Whether the images of every pair of related source lines are related."""
    img = lm.image
    return all(
        _lines_related(lm.target, img[a], img[b])
        for a, b in combinations(range(len(lm.source.line_sets)), 2)
        if _lines_related(lm.source, a, b)
    )


def pairwise_preserves_skewness(lm):
    """Whether the images of every pair of skew source lines are skew."""
    img = lm.image
    return all(
        not _lines_related(lm.target, img[a], img[b])
        for a, b in combinations(range(len(lm.source.line_sets)), 2)
        if not _lines_related(lm.source, a, b)
    )


def two_pass_reconstruction(lm):
    """Point-map reconstruction one core at a time: the pairwise
    intersection check first, then a pass over the target that intersects
    every star image whole, then, in dimension 3, the same pass in
    `dual_space(target)` over the points the target left.  Returns the
    same report, and raises the same errors, as `reconstruct_point_map`."""
    if not lm.is_bijective():
        raise PreconditionViolated("line map must be bijective")
    if not pairwise_preserves_intersections(lm):
        raise PreconditionViolated("line map must preserve intersections")
    sp, sp2 = lm.source, lm.target
    unresolved = sp.point_labels
    for status in (KappaStatus.INDUCED_INTO_TARGET, KappaStatus.INDUCED_INTO_DUAL):
        core = sp2 if status is KappaStatus.INDUCED_INTO_TARGET else dual_space(sp2)
        table, rest = {}, []
        for pid in unresolved:
            common = frozenset.intersection(
                *(core.line_sets[lm.image[l]] for l in sp.lines_through[pid])
            )
            if not common:
                rest.append(pid)
            elif len(common) == 1:
                (table[pid],) = common
            else:
                raise GeometryError(
                    f"star image of point {pid} shares {len(common)} points of {core!r}"
                )
        if len(table) == len(sp.point_labels):
            kappa = PointMap(sp, core, table)
            return KappaReport(status, kappa, frozenset(), classify_point_map(kappa))
        unresolved = rest
        if sp2.n != 3:
            break
    return KappaReport(KappaStatus.MIXED, None, frozenset(unresolved), None)


def incidence_isomorphic(a: IncidenceStructure, b: IncidenceStructure):
    """Exhaustive backtracking isomorphism search between two structures.

    Returns a point-label bijection dict, or None.  Prunes on degrees and on
    collinearity of every mapped triple, which keeps the search tiny for the
    small projective structures this package builds.
    """
    pa = list(a.point_labels)
    pb = list(b.point_labels)
    if len(pa) != len(pb) or len(a.line_sets) != len(b.line_sets):
        return None
    if sorted(len(s) for s in a.line_sets) != sorted(len(s) for s in b.line_sets):
        return None
    deg_a = {p: a.star_bits[p].bit_count() for p in pa}
    deg_b = {p: b.star_bits[p].bit_count() for p in pb}
    if sorted(deg_a.values()) != sorted(deg_b.values()):
        return None

    b_sets = set(b.line_sets)
    mapping = {}
    used = set()

    def assign(i):
        if i == len(pa):
            for s in a.line_sets:
                if frozenset(mapping[x] for x in s) not in b_sets:
                    return False
            return True
        p = pa[i]
        for cand in pb:
            if cand in used or deg_b[cand] != deg_a[p]:
                continue
            ok = True
            for x, y in combinations(list(mapping), 2):
                if a.collinear(x, y, p) != b.collinear(mapping[x], mapping[y], cand):
                    ok = False
                    break
            if not ok:
                continue
            mapping[p] = cand
            used.add(cand)
            if assign(i + 1):
                return True
            del mapping[p]
            used.discard(cand)
        return False

    if assign(0):
        return dict(mapping)
    return None


def structure_planes(inc: IncidenceStructure):
    """Planes of an abstract projective structure: closures of non-collinear
    triples under pairwise joins."""
    labels = list(inc.point_labels)
    sets = inc.line_sets
    found = set()
    for a, b, c in combinations(labels, 3):
        if inc.collinear(a, b, c):
            continue
        closure = {a, b, c}
        grew = True
        while grew:
            grew = False
            for x, y in combinations(tuple(closure), 2):
                li = inc.line_through(x, y)
                if li is not None and not (sets[li] <= closure):
                    closure |= sets[li]
                    grew = True
        found.add(frozenset(closure))
    return sorted(found, key=sorted)


def incidence_dual(inc: IncidenceStructure) -> IncidenceStructure:
    """Dual of an abstract 3-dimensional structure: its planes become points,
    its lines keep their indices with incidence reversed."""
    pls = structure_planes(inc)
    new_sets = []
    for s in inc.line_sets:
        new_sets.append(frozenset(i for i, pl in enumerate(pls) if s <= pl))
    return IncidenceStructure(
        point_labels=tuple(range(len(pls))),
        line_sets=tuple(new_sets),
        kind="dual",
        detail=f"abstract({inc.kind})",
    )
