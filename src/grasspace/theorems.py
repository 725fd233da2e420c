"""Verification suites for the line-map isomorphism theorems.

Instances are generated from seeded semilinear transformations so every
report is reproducible from (kind, seed) alone.  The sampling procedure is
part of the contract: a SplitMix64 stream seeded with the instance seed
yields matrix entries row-major, whole matrices are redrawn until
invertible, then one draw picks the field automorphism; perturbed
instances continue the same stream with two draws selecting the image
transposition (i = below(L), j = below(L-1) skipping i).

`population` is the one seed layout: a block of consecutive seeds per
instance kind.  `verify_population` folds a suite over it into a single
TheoremReport, which is what `grasspace verify` prints for Suites 1-2.
"""

import dataclasses
import enum
from itertools import product

from .errors import TooLarge, UnsupportedDimension
from .field import field_make, monomorphisms_all_surjective
from .grassmann import (
    DEFAULT_NODE_BUDGET,
    MAX_AUT_VERTICES,
    automorphism_group,
    build_grassmann,
)
from .linalg import apply_auto, is_invertible, mat_vec, normalize
from .maps import (
    Collineation,
    Duality,
    KappaStatus,
    LineMap,
    MapKind,
    check_properties,
    classify_point_map,
    collineation_point_map,
    duality_line_map,
    induced_line_map,
    pencil_image_is_pencil,
    preserves_intersections,
    preserves_skewness,
    reconstruct_point_map,
    restrict_to_star,
)
from .projspace import planes, planes_through_point
from .rng import SplitMix64

ENUMERATION_CAP = 100_000


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


@dataclasses.dataclass(frozen=True)
class InstanceGenerator:
    seed: int
    kind: InstanceKind


def _sample_semilinear(sp, seed):
    """Seeded (matrix, auto_index, stream) on the coordinates of sp; the
    stream is left after the automorphism draw for callers that continue it."""
    f = sp.field
    size = sp.n + 1
    rng = SplitMix64(seed)
    while True:
        matrix = tuple(
            tuple(rng.below(f.q) for _ in range(size)) for _ in range(size)
        )
        if is_invertible(f, matrix):
            break
    return matrix, rng.below(len(f.automorphisms)), rng


def sample_collineation(sp, seed: int) -> Collineation:
    return Collineation(*_sample_semilinear(sp, seed)[:2])


def sample_duality(sp, seed: int) -> Duality:
    return Duality(*_sample_semilinear(sp, seed)[:2])


def generate_instance(gen: InstanceGenerator, sp, sp2) -> LineMap:
    """Seeded line-map instance between two spaces (see module docstring)."""
    if gen.kind is InstanceKind.DUALITY:
        return duality_line_map(sample_duality(sp, gen.seed), sp, sp2)
    if gen.kind not in (InstanceKind.COLLINEATION, InstanceKind.PERTURBED):
        raise ValueError(f"unknown instance kind {gen.kind!r}")
    matrix, auto_index, rng = _sample_semilinear(sp, gen.seed)
    c = Collineation(matrix, auto_index)
    lm = induced_line_map(collineation_point_map(c, sp, sp2))
    if gen.kind is InstanceKind.COLLINEATION:
        return lm
    count = len(sp.lines)
    i = rng.below(count)
    j = rng.below(count - 1)
    if j >= i:
        j += 1
    image = dict(lm.image)
    image[i], image[j] = image[j], image[i]
    return LineMap(source=sp, target=sp2, image=image)


def population(sp, samples, seed=0, kinds=None):
    """Yield (kind, seed, line map on sp): one block of `samples` consecutive
    seeds per kind, block b starting at seed + b*samples.  The default kinds
    are the suites': collineations, plus dualities when n = 3.  An empty
    population is an error, never a passing run."""
    if kinds is None:
        kinds = (InstanceKind.COLLINEATION,)
        if sp.n == 3:
            kinds += (InstanceKind.DUALITY,)
    if samples < 1 or not kinds:
        raise ValueError(f"empty population: {samples} samples of {len(kinds)} kinds")
    return (
        (kind, s, generate_instance(InstanceGenerator(s, kind), sp, sp))
        for block, kind in enumerate(kinds)
        for s in range(seed + block * samples, seed + (block + 1) * samples)
    )


@dataclasses.dataclass(frozen=True)
class ClauseVerdict:
    clause: str
    passed: bool
    witness: str = ""


@dataclasses.dataclass(frozen=True)
class TheoremReport:
    theorem: str
    clauses: tuple
    instance: str = ""

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
    return TheoremReport(theorem, tuple(merged.values()), f"{sp!r}")


def _describe(lm: LineMap) -> str:
    tag = " dual" if lm.dual else ""
    return f"{lm.source!r}->{lm.target!r}{tag}"


def verify_theorem1(lm: LineMap) -> TheoremReport:
    """Check the embedding theorem on one bijective intersection-preserving
    line map: star images induce a point map into the target or its dual
    (clause ab), the source dimension dominates (clause c), and every star
    restriction is a quotient semicollineation (clause d)."""
    report = reconstruct_point_map(lm)
    clauses = []
    dim_ok = lm.source.n >= lm.target.n
    if report.status is KappaStatus.MIXED:
        sample = tuple(sorted(report.unresolved_points))[:4]
        clauses.append(ClauseVerdict("ab", False, f"unresolved stars at {sample}"))
        clauses.append(ClauseVerdict("c", dim_ok, f"{lm.source.n}>={lm.target.n}"))
        clauses.append(ClauseVerdict("d", False, "no induced point map"))
        return TheoremReport("THM1", tuple(clauses), _describe(lm))
    kind = classify_point_map(report.kappa)
    ab_ok = kind in (MapKind.EMBEDDING, MapKind.COLLINEATION)
    clauses.append(ClauseVerdict("ab", ab_ok, f"{report.status.value} {kind.value}"))
    clauses.append(ClauseVerdict("c", dim_ok, f"{lm.source.n}>={lm.target.n}"))
    bad_centre = None
    for pid in range(len(lm.source.points)):
        flags = check_properties(restrict_to_star(lm, pid, report.kappa))
        if not (flags.injective and flags.surjective and flags.preserves_collinearity):
            bad_centre = pid
            break
    clauses.append(
        ClauseVerdict(
            "d",
            bad_centre is None,
            "" if bad_centre is None else f"star centre {bad_centre}",
        )
    )
    return TheoremReport("THM1", tuple(clauses), _describe(lm))


def theorem2_predicates(lm: LineMap) -> tuple:
    """The four equivalent assertions, evaluated independently:
    (a) the reconstructed point map is a collineation,
    (b) skew lines go to skew lines,
    (c) some star restriction is a quotient collineation,
    (d) some pencil maps onto a pencil."""
    report = reconstruct_point_map(lm)
    if report.status is KappaStatus.MIXED:
        pred_a = False
        kappa = None
    else:
        kappa = report.kappa
        pred_a = classify_point_map(kappa) is MapKind.COLLINEATION

    pred_b = preserves_skewness(lm)

    pred_c = False
    if kappa is not None:
        for pid in range(len(lm.source.points)):
            restricted = restrict_to_star(lm, pid, kappa)
            if classify_point_map(restricted) is MapKind.COLLINEATION:
                pred_c = True
                break

    pred_d = False
    sp = lm.source
    all_planes = planes(sp)
    for pid in range(len(sp.points)):
        for plane_id in planes_through_point(sp, pid):
            if pencil_image_is_pencil(lm, pid, all_planes[plane_id]):
                pred_d = True
                break
        if pred_d:
            break
    return (pred_a, pred_b, pred_c, pred_d)


def verify_theorem2(lm: LineMap) -> TheoremReport:
    """Check the equivalence chain on one line map.  Clauses a-d report the
    individual predicates; the equivalence clause is the theorem's claim
    that all four coincide."""
    preds = theorem2_predicates(lm)
    a, b, c, d = preds
    clauses = (
        ClauseVerdict("a", a),
        ClauseVerdict("b", b),
        ClauseVerdict("c", c),
        ClauseVerdict("d", d),
        ClauseVerdict("equivalence", len(set(preds)) == 1, f"{preds}"),
    )
    return TheoremReport("THM2", clauses, _describe(lm))


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
    return TheoremReport("THM3", clauses, f"{sp!r}, {sp2!r}")


def _invertible_matrices(f, size):
    """All invertible size x size matrices, rows built left to right while
    tracking the span of the chosen prefix."""
    q = f.q
    add = f.add_table
    mul = f.mul_table
    nonzero = [v for v in product(range(q), repeat=size) if any(v)]

    def extend(rows, span):
        if len(rows) == size:
            yield tuple(rows)
            return
        for v in nonzero:
            if v in span:
                continue
            grown = set(span)
            for s in span:
                for c in range(1, q):
                    grown.add(
                        tuple(add[x][mul[c][y]] for x, y in zip(s, v))
                    )
            yield from extend(rows + [v], grown)

    zero = tuple([0] * size)
    yield from extend([], {zero})


def all_collineation_line_perms(sp):
    """Line permutation of every semilinear collineation of a space.

    Yields each permutation as a tuple indexed by source line id; the
    number of distinct values is the full collineation group order.
    """
    f = sp.field
    size = sp.n + 1
    joins = sp.joins
    lines = sp.lines
    points = sp.points
    index = sp.point_index
    auto_count = len(f.automorphisms)
    for matrix in _invertible_matrices(f, size):
        for j in range(auto_count):
            point_img = [0] * len(points)
            for pt in points:
                vec = apply_auto(f, j, pt.coords) if j else pt.coords
                point_img[pt.id] = index[normalize(f, mat_vec(f, vec, matrix))]
            perm = [0] * len(lines)
            for line in lines:
                a = point_img[line.point_ids[0]]
                b = point_img[line.point_ids[1]]
                perm[line.id] = joins[(a, b)]
            yield tuple(perm)


def chow_crosscheck(sp, node_budget: int = DEFAULT_NODE_BUDGET) -> TheoremReport:
    """Tie the Grassmann graph's automorphism group to the geometry: the
    graph search order must equal the count of distinct line permutations
    coming from all collineations plus their compositions with one fixed
    duality.  Both sides are computed independently."""
    if sp.n != 3:
        raise UnsupportedDimension(
            f"the cross-check needs a 3-dimensional space, got dimension {sp.n}"
        )
    if len(sp.lines) > MAX_AUT_VERTICES:
        raise TooLarge(f"{len(sp.lines)} lines exceed the {MAX_AUT_VERTICES} limit")
    collineation_order = pgammal_order(sp.n, sp.q)
    expected = 2 * collineation_order
    if expected > ENUMERATION_CAP:
        raise TooLarge(
            f"enumerating {expected} line permutations exceeds the "
            f"{ENUMERATION_CAP} cap"
        )
    aut = automorphism_group(build_grassmann(sp), node_budget)

    collineation_perms = set(all_collineation_line_perms(sp))
    identity = tuple(tuple(1 if i == j else 0 for j in range(sp.n + 1)) for i in range(sp.n + 1))
    dual_image = duality_line_map(Duality(matrix=identity), sp, sp).image
    dual_perm = tuple(dual_image[l] for l in range(len(sp.lines)))
    coset = {
        tuple(dual_perm[x] for x in perm) for perm in collineation_perms
    }
    disjoint = not (collineation_perms & coset)
    total = len(collineation_perms | coset)

    clauses = (
        ClauseVerdict(
            "graph_order", aut.group_order == expected, str(aut.group_order)
        ),
        ClauseVerdict("group_order", total == expected, str(total)),
        ClauseVerdict(
            "collineations_distinct",
            len(collineation_perms) == collineation_order,
            f"{len(collineation_perms)} of {collineation_order}",
        ),
        ClauseVerdict("coset_disjoint", disjoint),
        ClauseVerdict(
            "order_match",
            total == aut.group_order,
            f"{total} vs {aut.group_order}",
        ),
    )
    return TheoremReport("CHOW", clauses, f"{sp!r}")


@dataclasses.dataclass(frozen=True)
class ShadowReport:
    """Population dichotomy result: every instance must either fail the
    one-way intersection condition or pass the whole equivalence chain."""

    instances: int
    rejected: int
    isomorphisms: int
    counterexamples: tuple

    @property
    def passed(self):
        return not self.counterexamples


def one_way_shadow(sp, count: int, base_seed: int = 0) -> ShadowReport:
    """Run the perturbed-instance population (seeds base_seed..+count-1).

    An empty population is an error, never a passing report.
    """
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
