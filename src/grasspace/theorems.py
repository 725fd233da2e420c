"""Verification suites for the line-map isomorphism theorems.

Instances are generated from seeded semilinear transformations so every
report is reproducible from (kind, seed) alone, for a seed in [0, 2**64).
The sampling procedure is part of the contract: a SplitMix64 stream seeded
with the instance seed yields the (n+1)^2 matrix entries row-major as
below(q) draws, whole matrices are redrawn until invertible, then one draw
picks the field automorphism; perturbed instances continue the same stream
with two draws selecting the image transposition (i = below(L),
j = below(L-1) skipping i).  The sampler keeps that contract while drawing
one row at a time: `linalg.reduce_row` eliminates each row against the rows
before it, and a dependent row skips the rest of its matrix's draws with
`SplitMix64.skip`, one state add, so no singular matrix is drawn in full.
An instance is one `maps.semilinear_lines` pass over the matrix's rows.
Suites 1 and 2 read each star restriction as a rank row (`maps.star_rows`)
through one verdict, and Suite 2 groups each source star's pencils once.

`population` is the one seed layout: a block of consecutive seeds per
instance kind.  `verify_population` folds a suite over it into a single
TheoremReport, which is what `grasspace verify` prints for Suites 1-2.

`chow_crosscheck` compares the Grassmann graph's automorphism order with
the geometry.  The geometric side, `geometric_orders`, is a
`StabiliserChain` (Schreier-Sims) on line ids, generated by transvections,
one diagonal and Frobenius, then extended by the identity duality d.  Each
stage stops once its order meets a proven upper bound, which certifies the
order (Seress 2003, ch. 4):
- the collineations G: |PGammaL(n+1, q)|, since their line permutations are
  an image of that group;
- with d: 2|G|, once d^2 and d g d^-1 for every generator g sift into the
  complete chain of G, since d then normalises G and d^2 lies in it.  When
  a sift fails there is no bound, and the chain runs to completion.
`all_collineation_line_perms` enumerates every collineation instead and
stays as the brute-force oracle for small spaces: it keeps each matrix of
nonzero rows that `linalg.is_invertible`, the one invertibility test, accepts.
"""

import enum
import math
from itertools import permutations, product

from .errors import DimensionTooSmall, TooLarge, UnsupportedDimension
from .field import field_make, monomorphisms_all_surjective
from .grassmann import (
    DEFAULT_NODE_BUDGET,
    MAX_AUT_VERTICES,
    automorphism_group,
    build_grassmann,
)
from .linalg import is_invertible, reduce_row
from .maps import (
    Collineation,
    Duality,
    KappaStatus,
    LineMap,
    MapKind,
    check_properties,  # not called here: perfbench checks that its tracer rebinds it
    pencil_image_is_pencil,
    preserves_intersections,
    preserves_skewness,
    rank_row_flags,
    reconstruct_point_map,
    semilinear_lines,
    star_rows,
)
from .projspace import pencils, star_native
from .records import record
from .rng import SEED_LIMIT, SplitMix64


def pgl_order(n: int, q: int) -> int:
    """Order of the projective linear group acting on PG(n, q)."""
    total = 1
    for i in range(n + 1):
        total *= q ** (n + 1) - q**i
    return total // (q - 1)


def pgammal_order(n: int, q: int) -> int:
    """Order of the full semilinear collineation group of PG(n, q)."""
    return pgl_order(n, q) * field_make(q).spec.k


class InstanceKind(enum.Enum):
    COLLINEATION = "collineation"
    DUALITY = "duality"
    PERTURBED = "perturbed"


class InstanceGenerator(record("InstanceGenerator", "seed kind")):
    __slots__ = ()


def _sample_semilinear(f, n, seed):
    """Seeded (matrix, auto_index, stream) on the coordinates of PG(n, f.q);
    the stream is left after the automorphism draw for callers that continue
    it.  Each row is drawn and reduced by `linalg.reduce_row` against the
    rows before it.  A row in their span is dependent: the rest of its
    matrix is skipped unmixed."""
    size = n + 1
    rng = SplitMix64(seed)
    while True:
        rows, echelon = [], []
        for left in range(size - 1, -1, -1):  # rows still to draw after this one
            row = rng.draws(f.q, size)
            reduced = reduce_row(f, echelon, row)
            if reduced is None:
                rng.skip(left * size)
                break
            echelon.append(reduced)
            rows.append(tuple(row))
        else:
            return tuple(rows), rng.below(len(f.automorphisms)), rng


def sample_collineation(sp, seed: int) -> Collineation:
    return Collineation(*_sample_semilinear(sp.field, sp.n, seed)[:2])


def sample_duality(sp, seed: int) -> Duality:
    return Duality(*_sample_semilinear(sp.field, sp.n, seed)[:2])


def generate_instance(gen: InstanceGenerator, sp, sp2) -> LineMap:
    """Seeded line-map instance between two spaces (see module docstring):
    one `semilinear_lines` pass from the sampled matrix's rows."""
    kind = gen.kind
    if not isinstance(kind, InstanceKind):
        raise ValueError(f"unknown instance kind {kind!r}")
    matrix, auto_index, rng = _sample_semilinear(sp.field, sp.n, gen.seed)
    dual = kind is InstanceKind.DUALITY
    t = (Duality if dual else Collineation)(matrix, auto_index)
    image = semilinear_lines(t, sp, sp2)
    if kind is InstanceKind.PERTURBED:
        i = rng.below(len(image))
        j = rng.below(len(image) - 1)
        j += j >= i
        image[i], image[j] = image[j], image[i]
    return LineMap(sp, sp2, tuple(image), dual)


def population(sp, samples, seed=0, kinds=None):
    """Yield (kind, seed, line map on sp): one block of `samples` consecutive
    seeds per kind, block b starting at seed + b*samples.  The default kinds
    are the suites': collineations, plus dualities when n = 3.  An empty
    population, or one whose seeds leave [0, 2**64), is an error, never a
    passing run."""
    if kinds is None:
        kinds = (InstanceKind.COLLINEATION,)
        if sp.n == 3:
            kinds += (InstanceKind.DUALITY,)
    if samples < 1 or not kinds:
        raise ValueError(f"empty population: {samples} samples of {len(kinds)} kinds")
    last = seed + len(kinds) * samples - 1
    if seed < 0 or last >= SEED_LIMIT:
        raise ValueError(f"seeds {seed}..{last} leave [0, 2**64)")
    return (
        (kind, s, generate_instance(InstanceGenerator(s, kind), sp, sp))
        for block, kind in enumerate(kinds)
        for s in range(seed + block * samples, seed + (block + 1) * samples)
    )


class ClauseVerdict(record("ClauseVerdict", "clause passed witness", defaults=("",))):
    __slots__ = ()


class TheoremReport(record("TheoremReport", "theorem clauses")):
    __slots__ = ()

    @property
    def passed(self):
        return all(c.passed for c in self.clauses)

    def render(self) -> str:
        lines = []
        for c in self.clauses:
            tail = f" {c.witness}" if c.witness else ""
            lines.append(
                f"{self.theorem}.{c.clause} {'PASS' if c.passed else 'FAIL'}{tail}"
            )
        return "\n".join(lines)


def verify_population(sp, verify, samples, seed=0) -> TheoremReport:
    """Fold one suite (line map -> TheoremReport) over a population.  A
    clause passes only if it passes on every instance; otherwise it carries
    the first failure's witness as `kind=<kind> seed=<seed> <witness>`.
    Passing clauses carry none, and clauses keep their first-seen order."""
    theorem = ""
    merged = {}
    for kind, s, lm in population(sp, samples, seed):
        report = verify(lm)
        theorem = report.theorem
        for c in report.clauses:
            held = merged.setdefault(c.clause, ClauseVerdict(c.clause, True))
            if held.passed and not c.passed:
                witness = f"kind={kind.value} seed={s} {c.witness}".strip()
                merged[c.clause] = ClauseVerdict(c.clause, False, witness)
    return TheoremReport(theorem, tuple(merged.values()))


def _star_collineations(lm: LineMap, kappa):
    """Whether each star restriction, in point order, is a quotient
    collineation, read as a rank row in one pass over the star tables
    (`star_rows`): on a row, the three `rank_row_flags` decide it."""
    native, native2 = star_native(lm.source), star_native(lm.target)
    for row in star_rows(lm, kappa, lm.source.point_labels):
        yield all(rank_row_flags(row, native, native2))


def verify_theorem1(lm: LineMap) -> TheoremReport:
    """Check the embedding theorem on one bijective intersection-preserving
    line map: star images induce a point map into the target or its dual
    (clause ab), the source dimension dominates (clause c), and every star
    restriction is a quotient semicollineation (clause d), which on a rank
    row is a collineation (`_star_collineations`).  The theorem needs
    n >= 3: in a plane every bijection of lines preserves intersections,
    and a swap of two lines is induced by no point map."""
    report = reconstruct_point_map(lm)
    n, n2 = lm.source.n, lm.target.n
    c = ClauseVerdict("c", n >= n2, f"{n}>={n2}")
    if report.status is KappaStatus.MIXED:
        sample = tuple(sorted(report.unresolved_points))[:4]
        ab = ClauseVerdict("ab", False, f"unresolved stars at {sample}")
        d = ClauseVerdict("d", False, "no induced point map")
    else:
        ab_ok = report.kind in (MapKind.EMBEDDING, MapKind.COLLINEATION)
        ab = ClauseVerdict("ab", ab_ok, f"{report.status.value} {report.kind.value}")
        for pid, ok in zip(lm.source.point_labels, _star_collineations(lm, report.kappa)):
            if not ok:
                d = ClauseVerdict("d", False, f"star centre {pid}")
                break
        else:
            d = ClauseVerdict("d", True)
    return TheoremReport("THM1", (ab, c, d))


def theorem2_predicates(lm: LineMap) -> tuple:
    """The four equivalent assertions, each decided on its own; a and c
    read the line map's one kappa and its kind, which Suite 1 reads too
    (`reconstruct_point_map` keeps them on the line map):
    (a) the reconstructed point map is a collineation,
    (b) skew lines go to skew lines,
    (c) some star restriction is a quotient collineation, clause d's
        verdict of Theorem 1 (`_star_collineations`),
    (d) some pencil maps onto a pencil, each source star grouped once."""
    report = reconstruct_point_map(lm)  # kappa and kind None when the stars are mixed
    pred_a = report.kind is MapKind.COLLINEATION
    pred_b = preserves_skewness(lm)
    pred_c = report.kappa is not None and any(_star_collineations(lm, report.kappa))
    sp = lm.source
    pred_d = any(
        pencil_image_is_pencil(lm, lines)
        for p in sp.point_labels
        for lines in pencils(sp, p).values()
    )
    return (pred_a, pred_b, pred_c, pred_d)


def verify_theorem2(lm: LineMap) -> TheoremReport:
    """Check the equivalence chain on one line map.  Clauses a-d report the
    individual predicates; the equivalence clause is the theorem's claim
    that all four coincide.  It needs n >= 3: in a plane a swap of two
    lines preserves skewness vacuously, yet no point map induces it."""
    preds = theorem2_predicates(lm)
    clauses = [ClauseVerdict(clause, held) for clause, held in zip("abcd", preds)]
    clauses.append(ClauseVerdict("equivalence", len(set(preds)) == 1, f"{preds}"))
    return TheoremReport("THM2", tuple(clauses))


def verify_theorem3_preconditions(sp, sp2) -> TheoremReport:
    """Report which sufficient conditions for two-way preservation hold:
    (a) dimension grows, (b) finiteness, (c) field monomorphism rigidity."""
    clauses = (
        ClauseVerdict("a", sp.n <= sp2.n, f"dim {sp.n} vs {sp2.n}"),
        ClauseVerdict("b", True, "finite spaces"),
        ClauseVerdict(
            "c",
            monomorphisms_all_surjective(sp.field.spec, sp2.field.spec),
            f"GF({sp.q})->GF({sp2.q})",
        ),
    )
    return TheoremReport("THM3", clauses)


def all_collineation_line_perms(sp):
    """Line permutation of every semilinear collineation of a space.

    Yields each permutation as a tuple indexed by source line id; the
    number of distinct values is the full collineation group order.  The
    matrices are every (n+1)-tuple of nonzero rows, in lexicographic order,
    that `is_invertible` accepts; each is paired with every automorphism.
    """
    f = sp.field
    rows = [v for v in product(range(f.q), repeat=sp.n + 1) if any(v)]
    for matrix in product(rows, repeat=sp.n + 1):
        if is_invertible(f, matrix):
            for j in range(len(f.automorphisms)):
                yield tuple(semilinear_lines(Collineation(matrix, j), sp, sp))


def _identity_matrix(size):
    return tuple(tuple(int(i == j) for j in range(size)) for i in range(size))


def collineation_generators(sp) -> tuple:
    """Line permutations of collineations that generate the full group
    PGammaL(n+1, q): the transvections I + w^t E_ij (i != j, t < k) for a
    primitive w, which generate SL; diag(w, 1, ..., 1) when q > 2, which
    extends it to GL; then Frobenius (automorphism index 1) when k > 1."""
    f = sp.field
    size = sp.n + 1
    omega = f.primitive
    identity = _identity_matrix(size)

    def with_entry(i, j, value):
        return tuple(
            tuple(value if (r, c) == (i, j) else x for c, x in enumerate(row))
            for r, row in enumerate(identity)
        )

    transforms = [
        Collineation(with_entry(i, j, f.power(omega, t)))
        for i, j in permutations(range(size), 2)
        for t in range(f.spec.k)
    ]
    if f.q > 2:
        transforms.append(Collineation(with_entry(0, 0, omega)))
    if f.spec.k > 1:
        transforms.append(Collineation(identity, 1))
    return tuple(tuple(semilinear_lines(c, sp, sp)) for c in transforms)


def duality_generator(sp) -> tuple:
    """Line permutation of the identity-matrix duality of a 3-space."""
    return tuple(semilinear_lines(Duality(_identity_matrix(sp.n + 1)), sp, sp))


def _inverse(perm):
    undo = [0] * len(perm)
    for x, y in enumerate(perm):
        undo[y] = x
    return tuple(undo)


class StabiliserChain:
    """Base and strong generating set of the group that a few permutations
    generate, built by deterministic Schreier-Sims (Sims 1970; Seress,
    Permutation Group Algorithms, 2003, section 4.2).

    Permutations are tuples p with p[x] the image of x.  Level i holds the
    strong generators that fix base[:i], and an explicit transversal: for
    each point b of the orbit of base[i], one element taking base[i] to b,
    with its inverse.  The group order is the product of the orbit sizes,
    and a permutation belongs to the group exactly when it sifts through
    the levels to the identity.

    Given `order`, a proven upper bound on the order of the group, the
    Schreier loop stops once the product of the orbit sizes meets it.  Each
    orbit lies in the orbit of its base point under that base prefix's
    stabiliser, so the product never exceeds the group's order; meeting the
    bound proves every orbit whole, the chain complete and sifting exact.
    A bound the product passes without meeting changes nothing, but a
    wrong bound that it meets stops the chain short, so only a proof may
    supply one.  The chain's degree is that of its first generator; every
    later generator and every tuple tested for membership must be a
    permutation of that degree (ValueError).
    """

    def __init__(self, generators, order=None):
        self._identity = None  # of the degree of the first generator absorbed
        self.base = []
        self._strong = []
        self._transversal = []
        self._inverse = []
        self._checked = []  # per level: (orbit point, generator index) pairs sifted
        self.extend(generators, order)

    def extend(self, generators, order=None):
        """Absorb more generators (permutations of the chain's points) and
        complete the chain again, so it is that of the larger group.  Given
        `order`, a proven upper bound on that group's order, the Schreier
        loop stops once the chain's order reaches it: the chain is then
        complete already.  ValueError for a generator that is not a
        permutation of the chain's degree."""
        generators = [self._permutation(g) for g in generators]
        for g in generators:
            self._absorb(g, 0)
        level = len(self.base) - 1
        while level >= 0 and self.order != order:
            deeper = self._schreier_step(level)
            level = level - 1 if deeper is None else deeper

    @property
    def order(self) -> int:
        return math.prod(len(orbit) for orbit in self._transversal)

    def __contains__(self, perm) -> bool:
        """Exact membership; ValueError for a tuple that is not a
        permutation of the chain's degree.  A chain that has absorbed no
        generator holds exactly the identity of each degree."""
        perm = self._permutation(perm, adopt=False)
        if self._identity is None:
            return perm == tuple(range(len(perm)))
        residue, _ = self._sift(perm, 0)
        return residue == self._identity

    def _permutation(self, perm, adopt=True):
        """`perm` as a tuple, checked to be a permutation of the chain's
        degree; the first one adopted fixes that degree."""
        perm = tuple(perm)
        identity = self._identity
        if identity is None:
            identity = tuple(range(len(perm)))
        if len(perm) != len(identity) or set(perm) != set(identity):
            raise ValueError(f"not a permutation of range({len(identity)})")
        if adopt:
            self._identity = identity
        return perm

    def _sift(self, h, start):
        """Strip h through levels start.. of the chain: return the residue
        and the level where its base image left the orbit (len(base) when
        it passed every level)."""
        for level in range(start, len(self.base)):
            undo = self._inverse[level].get(h[self.base[level]])
            if undo is None:
                return h, level
            h = tuple(map(undo.__getitem__, h))
        return h, len(self.base)

    def _absorb(self, h, start):
        """Sift h from level start; a non-identity residue fixes the base
        points before the level j where it stopped, so it becomes a strong
        generator on levels start..j (j a new base point moved by it if it
        passed every level).  Return j, or None if h sifted away."""
        h, j = self._sift(h, start)
        if h == self._identity:
            return None
        if j == len(self.base):
            point = next(x for x, y in enumerate(h) if x != y)
            self.base.append(point)
            self._strong.append([])
            self._transversal.append({point: self._identity})
            self._inverse.append({point: self._identity})
            self._checked.append(set())
        for level in range(start, j + 1):
            self._strong[level].append(h)
            self._extend_orbit(level)
        return j

    def _extend_orbit(self, level):
        gens = self._strong[level]
        transversal = self._transversal[level]
        inverse = self._inverse[level]
        points = list(transversal)
        for beta in points:  # grows while iterating
            u = transversal[beta]
            for s in gens:
                gamma = s[beta]
                if gamma not in transversal:
                    v = tuple(map(s.__getitem__, u))
                    transversal[gamma] = v
                    inverse[gamma] = _inverse(v)
                    points.append(gamma)

    def _schreier_step(self, level):
        """Sift the untested Schreier generators u_b s u_{b^s}^-1 of one
        level through the levels below it.  The first that leaves a residue
        is absorbed and its deepest level returned; None means every
        Schreier generator of the level sifted, so the levels from here
        down are complete.  A tested pair stays valid: the levels below
        only grow, and they are complete again before this level is
        revisited."""
        checked = self._checked[level]
        inverse = self._inverse[level]
        for beta, u in self._transversal[level].items():
            for index, s in enumerate(self._strong[level]):
                if (beta, index) in checked:
                    continue
                checked.add((beta, index))
                undo = inverse[s[beta]]
                h = tuple(map(undo.__getitem__, map(s.__getitem__, u)))
                deeper = self._absorb(h, level + 1)
                if deeper is not None:
                    return deeper
        return None


def geometric_orders(sp) -> tuple:
    """Orders of the geometric groups on line ids: (collineation order,
    whether the identity duality lies outside the collineations, order with
    that duality joined), from one stabiliser chain stopped at each bound
    the module docstring proves.  Outside dimension 3 there is no duality,
    so (order, None, order)."""
    generators = collineation_generators(sp)
    chain = StabiliserChain(generators, order=pgammal_order(sp.n, sp.q))
    collineations = chain.order
    if sp.n != 3:
        return collineations, None, collineations
    d = duality_generator(sp)
    disjoint = d not in chain
    d_inverse = _inverse(d)
    normalises = tuple(d[y] for y in d) in chain and all(
        tuple(d[g[y]] for y in d_inverse) in chain for g in generators
    )
    chain.extend([d], order=2 * collineations if normalises else None)
    return collineations, disjoint, chain.order


def chow_crosscheck(sp, node_budget: int = DEFAULT_NODE_BUDGET) -> TheoremReport:
    """Tie the Grassmann graph's automorphism group to the geometry.  The
    geometric side is `geometric_orders`: the order of the collineation
    generators' chain must be |PGammaL(4, q)|, which shows the generators
    give the whole group acting faithfully on lines; the identity-matrix
    duality must not sift through it; and the chain extended by that
    duality gives the group order, which must equal twice |PGammaL| and the
    order found by the graph search.  Both sides are computed
    independently."""
    if sp.n != 3:
        raise UnsupportedDimension(
            f"the cross-check needs a 3-dimensional space, got dimension {sp.n}"
        )
    if len(sp.line_sets) > MAX_AUT_VERTICES:
        raise TooLarge(f"{len(sp.line_sets)} lines exceed the {MAX_AUT_VERTICES} limit")
    collineation_order = pgammal_order(sp.n, sp.q)
    expected = 2 * collineation_order
    aut = automorphism_group(build_grassmann(sp), node_budget)
    collineations, disjoint, total = geometric_orders(sp)

    clauses = (
        ClauseVerdict(
            "graph_order", aut.group_order == expected, str(aut.group_order)
        ),
        ClauseVerdict("group_order", total == expected, str(total)),
        ClauseVerdict(
            "collineations_distinct",
            collineations == collineation_order,
            f"{collineations} of {collineation_order}",
        ),
        ClauseVerdict("coset_disjoint", disjoint),
        ClauseVerdict(
            "order_match",
            total == aut.group_order,
            f"{total} vs {aut.group_order}",
        ),
    )
    return TheoremReport("CHOW", clauses)


class ShadowReport(record("ShadowReport", "instances rejected isomorphisms counterexamples")):
    """Population dichotomy result: every instance must either fail the
    one-way intersection condition or pass the whole equivalence chain."""

    __slots__ = ()

    @property
    def passed(self):
        return not self.counterexamples


def one_way_shadow(sp, count: int, base_seed: int = 0) -> ShadowReport:
    """Run the perturbed-instance population (seeds base_seed..+count-1).

    The dichotomy needs n >= 3: in a plane every two lines meet, so every
    bijection preserves intersections.  An empty population is an error,
    never a passing report.
    """
    if sp.n < 3:
        raise DimensionTooSmall(
            f"the one-way dichotomy needs dimension >= 3, got {sp.n}"
        )
    rejected = 0
    isomorphisms = 0
    bad = []
    for _, seed, lm in population(sp, count, base_seed, (InstanceKind.PERTURBED,)):
        if not (lm.is_bijective() and preserves_intersections(lm)):
            rejected += 1
        elif all(theorem2_predicates(lm)):
            isomorphisms += 1
        else:
            bad.append(seed)
    return ShadowReport(
        instances=count,
        rejected=rejected,
        isomorphisms=isomorphisms,
        counterexamples=tuple(bad),
    )
