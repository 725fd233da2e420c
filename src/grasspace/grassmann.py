"""Grassmann space of lines: the intersection relation and its graph.

Two lines are related when they share a point; the relation is reflexive,
so the graph stores the irreflexive part and `related` re-adds the
diagonal.  The graph of PG(n, q) is regular of degree
(q+1)((q^n - 1)/(q - 1) - 1).

The automorphism search uses equitable partition refinement driven by a
splitter queue (only cells that changed are refined against), smallest-cell
branching with smallest-id tie-breaking, and first-path stabilizer
accounting, so reports are deterministic and the group order is exact
without materializing the group.  MAX_AUT_VERTICES sits between PG(5,2)
(651 lines, 191 search nodes) and PG(3,5) (806 lines, 6425 nodes, about
seven times the time); the node budget bounds every search below it.
"""

import collections
import dataclasses

from .errors import BudgetExceeded, FormatError, GeometryError, TooLarge

MAX_AUT_VERTICES = 700
DEFAULT_NODE_BUDGET = 2_000_000


@dataclasses.dataclass(eq=False)
class GrassmannSpace:
    space: object
    neighbors: tuple  # frozenset of line ids per line, diagonal excluded

    def line_count(self):
        return len(self.neighbors)

    def degree(self):
        q = self.space.q
        n = self.space.n
        return (q + 1) * ((q**n - 1) // (q - 1) - 1)

    def __repr__(self):
        return f"Grassmann({self.space!r})"


@dataclasses.dataclass(frozen=True)
class AutomorphismReport:
    group_order: int
    generators: tuple  # vertex permutations as tuples
    nodes_explored: int
    base: tuple  # vertices fixed along the first path


def build_grassmann(sp) -> GrassmannSpace:
    """Adjacency of the line-intersection graph of a space (cached on it)."""
    if sp._grassmann is None:
        through = sp.lines_through
        neighbors = tuple(
            frozenset(b for p in s for b in through[p]) - {a}
            for a, s in enumerate(sp.line_sets)
        )
        g = GrassmannSpace(space=sp, neighbors=neighbors)
        expected = g.degree()
        for a, row in enumerate(neighbors):
            if len(row) != expected:
                raise GeometryError(f"line {a} has degree {len(row)}, not {expected}")
        sp._grassmann = g
    return sp._grassmann


def related(g: GrassmannSpace, a: int, b: int) -> bool:
    """Reflexive intersection relation: a = b or the lines share a point."""
    return a == b or b in g.neighbors[a]


def skew(g: GrassmannSpace, a: int, b: int) -> bool:
    return a != b and b not in g.neighbors[a]


def export_graph(g: GrassmannSpace) -> str:
    """GRAPH format: header `GRAPH V E`, then `u v` rows with u < v, sorted."""
    edges = []
    for a in range(len(g.neighbors)):
        for b in g.neighbors[a]:
            if a < b:
                edges.append((a, b))
    edges.sort()
    lines = [f"GRAPH {len(g.neighbors)} {len(edges)}"]
    lines.extend(f"{u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"


def parse_graph(text: str):
    """Parse the GRAPH format back into (vertex count, sorted edge tuple).

    Raises FormatError with a 1-based line number on any deviation from the
    byte-exact contract (header shape, edge order, id ranges, row count).
    """
    rows = text.split("\n")
    if rows and rows[-1] == "":
        rows.pop()
    if not rows:
        raise FormatError(1, "empty input, expected GRAPH header")
    head = rows[0].split(" ")
    if len(head) != 3 or head[0] != "GRAPH":
        raise FormatError(1, f"expected 'GRAPH <V> <E>', got {rows[0]!r}")
    try:
        v_count = int(head[1])
        e_count = int(head[2])
    except ValueError:
        raise FormatError(1, f"non-integer counts in header {rows[0]!r}") from None
    if v_count < 0 or e_count < 0:
        raise FormatError(1, "negative counts in header")
    if len(rows) - 1 != e_count:
        raise FormatError(
            min(len(rows) + 1, e_count + 2),
            f"expected {e_count} edge rows, found {len(rows) - 1}",
        )
    edges = []
    prev = None
    for i, row in enumerate(rows[1:], start=2):
        parts = row.split(" ")
        if len(parts) != 2:
            raise FormatError(i, f"expected '<u> <v>', got {row!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise FormatError(i, f"non-integer edge {row!r}") from None
        if not (0 <= u < v < v_count):
            raise FormatError(i, f"edge ({u},{v}) out of range for {v_count} vertices")
        if prev is not None and (u, v) <= prev:
            raise FormatError(i, f"edge ({u},{v}) out of order")
        prev = (u, v)
        edges.append((u, v))
    return v_count, tuple(edges)


def adjacency_from_edges(v_count: int, edges) :
    """Neighbor bitmasks from an edge list."""
    masks = [0] * v_count
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return tuple(masks)


def _cell_bits(cell):
    """Bitmask of a set of vertex ids."""
    bits = 0
    for v in cell:
        bits |= 1 << v
    return bits


def _as_masks(g):
    """Neighbor bitmasks of a GrassmannSpace, or a mask sequence as a tuple."""
    if isinstance(g, GrassmannSpace):
        return tuple(map(_cell_bits, g.neighbors))
    return tuple(g)


def _refine(masks, pa, pb, splitter):
    """Lockstep equitable refinement of paired ordered partitions.

    A splitter queue (Hopcroft 1971; McKay and Piperno 2014) refines cells
    only against cells that changed.  It starts with cell `splitter` alone,
    so every other cell must already be equitable: `splitter` is the one
    cell of the unit partition, or the singleton `_individualize` just cut
    from an equitable partition.  Cells are runs of the flattened
    partitions named by their start, which a split keeps for its first
    fragment.

    Against a splitter W, every non-singleton cell pair that meets W's
    neighbourhood is cut by the number of neighbours each vertex has in W,
    fragments in place in ascending count order.  A split queues every
    fragment if its cell was still queued, and all but the first largest
    otherwise.

    Returns (pa, pb) stabilized, or None when a cell pair's counts against
    a splitter disagree (no isomorphism can respect the pairing).
    """
    lab_a = [v for cell in pa for v in cell]
    lab_b = [v for cell in pb for v in cell]
    end = {}
    bits_a = {}
    bits_b = {}
    open_cells = {}  # starts of the non-singleton cells, as an ordered set
    queue = collections.deque()
    start = 0
    for i, (ca, cb) in enumerate(zip(pa, pb)):
        end[start] = start + len(ca)
        bits_a[start] = _cell_bits(ca)
        bits_b[start] = _cell_bits(cb)
        if len(ca) > 1:
            open_cells[start] = None
        if i == splitter:
            queue.append(start)
        start += len(ca)
    queued = set(queue)

    while queue and open_cells:
        w = queue.popleft()
        queued.discard(w)
        wa = bits_a[w]
        wb = bits_b[w]
        near_a = near_b = 0
        for v in lab_a[w : end[w]]:
            near_a |= masks[v]
        for v in lab_b[w : end[w]]:
            near_b |= masks[v]
        for s in list(open_cells):
            if not (bits_a[s] & near_a or bits_b[s] & near_b):
                continue
            cell_a = lab_a[s : end[s]]
            cell_b = lab_b[s : end[s]]
            ka = [(masks[v] & wa).bit_count() for v in cell_a]
            kb = [(masks[v] & wb).bit_count() for v in cell_b]
            counts = sorted(set(ka))
            if counts != sorted(set(kb)):
                return None
            if len(counts) == 1:
                continue
            buckets_a = {k: [] for k in counts}
            buckets_b = {k: [] for k in counts}
            for v, k in zip(cell_a, ka):
                buckets_a[k].append(v)
            for v, k in zip(cell_b, kb):
                buckets_b[k].append(v)
            starts = []
            pos = s
            for k in counts:
                fa = buckets_a[k]
                fb = buckets_b[k]
                if len(fa) != len(fb):
                    return None
                lab_a[pos : pos + len(fa)] = fa
                lab_b[pos : pos + len(fb)] = fb
                end[pos] = pos + len(fa)
                bits_a[pos] = _cell_bits(fa)
                bits_b[pos] = _cell_bits(fb)
                if len(fa) > 1:
                    open_cells[pos] = None
                else:
                    open_cells.pop(pos, None)
                starts.append(pos)
                pos += len(fa)
            if s in queued:
                fresh = starts[1:]
            else:
                largest = max(starts, key=lambda p: end[p] - p)
                fresh = [p for p in starts if p != largest]
            queue.extend(fresh)
            queued.update(fresh)

    new_a = []
    new_b = []
    s = 0
    while s < len(lab_a):
        new_a.append(tuple(lab_a[s : end[s]]))
        new_b.append(tuple(lab_b[s : end[s]]))
        s = end[s]
    return new_a, new_b


def _branch_cell(partition):
    """Index of the smallest non-singleton cell (first on ties), or None."""
    best = None
    for i, cell in enumerate(partition):
        if len(cell) > 1 and (best is None or len(cell) < len(partition[best])):
            best = i
    return best


def _individualize(partition, cell_index, vertex):
    cell = partition[cell_index]
    rest = tuple(v for v in cell if v != vertex)
    return (
        list(partition[:cell_index])
        + [(vertex,), rest]
        + list(partition[cell_index + 1 :])
    )


def _is_automorphism(masks, perm):
    for v, nm in enumerate(masks):
        image = 0
        m = nm
        while m:
            low = m & -m
            image |= 1 << perm[low.bit_length() - 1]
            m ^= low
        if image != masks[perm[v]]:
            return False
    return True


class _Search:
    def __init__(self, masks, node_budget):
        self.masks = masks
        self.budget = node_budget
        self.nodes = 0

    def find(self, pa, pb, splitter):
        """One adjacency-preserving bijection respecting the paired cells;
        `splitter` is the cell individualised last."""
        self.nodes += 1
        if self.nodes > self.budget:
            raise BudgetExceeded(
                f"automorphism search exceeded {self.budget} nodes"
            )
        refined = _refine(self.masks, pa, pb, splitter)
        if refined is None:
            return None
        pa, pb = refined
        ci = _branch_cell(pa)
        if ci is None:
            perm = [0] * len(self.masks)
            for ca, cb in zip(pa, pb):
                perm[ca[0]] = cb[0]
            if _is_automorphism(self.masks, perm):
                return tuple(perm)
            return None
        va = min(pa[ci])
        for u in sorted(pb[ci]):
            result = self.find(
                _individualize(pa, ci, va), _individualize(pb, ci, u), ci
            )
            if result is not None:
                return result
        return None


def _orbit_close(seed, generators):
    orbit = set(seed)
    frontier = list(orbit)
    while frontier:
        v = frontier.pop()
        for g in generators:
            w = g[v]
            if w not in orbit:
                orbit.add(w)
                frontier.append(w)
    return orbit


def automorphism_group(g, node_budget: int = DEFAULT_NODE_BUDGET) -> AutomorphismReport:
    """Exact automorphism group order of an adjacency structure.

    Accepts a GrassmannSpace or a sequence of neighbor bitmasks.  At each
    level of the stabilizer chain the orbit of the smallest vertex in the
    branch cell is closed under the generators found so far, so failed
    searches happen only for vertices genuinely outside the orbit.
    """
    masks = _as_masks(g)
    count = len(masks)
    if count > MAX_AUT_VERTICES:
        raise TooLarge(f"{count} vertices exceeds the {MAX_AUT_VERTICES} limit")
    if count == 0:
        return AutomorphismReport(1, (), 0, ())

    search = _Search(masks, node_budget)
    generators = []
    base = []
    order = 1

    refined = _refine(masks, [tuple(range(count))], [tuple(range(count))], 0)
    if refined is None:
        raise GeometryError("the unit partition failed refinement against itself")
    partition = refined[0]

    while True:
        ci = _branch_cell(partition)
        if ci is None:
            break
        cell = partition[ci]
        v0 = min(cell)
        level_gens = []
        orbit = {v0}
        for u in sorted(cell):
            if u in orbit:
                continue
            found = search.find(
                _individualize(partition, ci, v0),
                _individualize(partition, ci, u),
                ci,
            )
            if found is not None:
                if found[v0] != u:
                    raise GeometryError(
                        f"search for {v0} -> {u} returned {v0} -> {found[v0]}"
                    )
                level_gens.append(found)
                generators.append(found)
                orbit = _orbit_close(orbit, level_gens)
        order *= len(orbit)
        base.append(v0)
        refined = _refine(
            masks,
            _individualize(partition, ci, v0),
            _individualize(partition, ci, v0),
            ci,
        )
        if refined is None:
            raise GeometryError("self-pairing failed refinement")
        partition = refined[0]

    for perm in generators:
        if not _is_automorphism(masks, perm):
            raise GeometryError("the search returned a non-automorphism")
    return AutomorphismReport(
        group_order=order,
        generators=tuple(generators),
        nodes_explored=search.nodes,
        base=tuple(base),
    )
