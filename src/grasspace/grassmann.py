"""Grassmann space of lines: the intersection relation and its graph.

Two lines are related when they share a point.  The graph is one table of
neighbour bitmasks, one per line, bit b of line a set when a != b and the
lines meet; the diagonal stays out, so `related` re-adds it, and a line's
mask is the OR of the star masks of its points less its own bit.  The
graph of PG(n, q) is regular of degree (q+1)((q^n - 1)/(q - 1) - 1).
Only the GRAPH export, the automorphism search, the Chow cross-check and
the census read it; line maps read cliques off `projspace.holder`.

The automorphism search fixes the base first: one path individualises the
smallest vertex of the first largest non-singleton cell down to a discrete
partition.  Deepest level first, each base vertex's orbit is closed under
every generator found so far, and only the cell's vertices outside it are
searched (McKay 1981).  A search refines the first path and a candidate
path equitably by a splitter queue, one side at a time, neighbour counts
bit-sliced, in one partition form from root to leaves, `(lab, end, bits,
open)`, which carries its open cells as nauty and Traces keep `lab`/`ptn`
(McKay and Piperno 2014).  The first path is refined once; a candidate
replays its trace to the first entry that differs.  The search yields
leaves lazily; the first to pass the one certificate, that it maps each
neighbour list onto its image's neighbourhood, is a generator.
MAX_AUT_VERTICES sits between PG(5,2) (651 lines, 29 nodes, 0.22 s on 2
cores) and PG(3,5) (806 lines, 218 nodes, 0.5 s).  Stopped at their proven
orders, both Chow chains of PG(3,4) take 0.14 s.  A cap that admits
PG(3,5) also admits planes whose complete line graphs still cost about n^3
to search, so raising it belongs to ROADMAP's "Chow across the whole size
ladder".  The node budget bounds every search.
"""

import collections
import re

from .errors import BudgetExceeded, FormatError, GeometryError, TooLarge
from .field import is_code
from .records import record

MAX_AUT_VERTICES = 700
DEFAULT_NODE_BUDGET = 2_000_000


class AutomorphismReport(
    record("AutomorphismReport", "group_order generators nodes_explored base")
):
    """generators are vertex permutations as tuples; base holds the vertices
    fixed along the first path."""

    __slots__ = ()


def build_grassmann(sp) -> tuple:
    """Neighbour bitmasks of the line-intersection graph of a space, one per
    line id (cached on it): each line ORs the star masks of its points, less
    its own bit.  GeometryError unless every line has the closed-form
    degree."""
    if sp._grassmann is None:
        stars = sp.star_bits
        masks = []
        for a, s in enumerate(sp.line_sets):
            bits = 0
            for p in s:
                bits |= stars[p]
            masks.append(bits & ~(1 << a))
        q = sp.q
        expected = (q + 1) * ((q**sp.n - 1) // (q - 1) - 1)
        for a, row in enumerate(masks):
            if row.bit_count() != expected:
                raise GeometryError(f"line {a} has degree {row.bit_count()}, not {expected}")
        sp._grassmann = tuple(masks)
    return sp._grassmann


def related(masks, a: int, b: int) -> bool:
    """Reflexive intersection relation: a = b or the lines share a point."""
    return a == b or bool(masks[a] >> b & 1)


def export_graph(masks) -> str:
    """GRAPH format: header `GRAPH V E`, then `u v` rows with u < v, ascending."""
    above = [m >> a + 1 << a + 1 for a, m in enumerate(masks)]
    rows = [f"{a} {b}" for a, row in enumerate(_neighbour_lists(above)) for b in row]
    return "\n".join([f"GRAPH {len(masks)} {len(rows)}", *rows]) + "\n"


_ID = re.compile("0|[1-9][0-9]*")


def parse_id(token: str, lineno: int) -> int:
    """A count or id token: `0` or ASCII `[1-9][0-9]*`.  Signs, underscores,
    leading zeros, non-ASCII digits and whitespace raise FormatError at
    `lineno`."""
    if _ID.fullmatch(token) is None:
        raise FormatError(lineno, f"expected a non-negative integer, got {token!r}")
    return int(token)


def parse_graph(text: str):
    """Parse the GRAPH format back into (vertex count, sorted edge tuple).

    Raises FormatError with a 1-based line number on any deviation from the
    byte-exact contract (header shape, integer spelling, edge order, id
    ranges, row count).
    """
    rows = text.split("\n")
    if rows and rows[-1] == "":
        rows.pop()
    if not rows:
        raise FormatError(1, "empty input, expected GRAPH header")
    head = rows[0].split(" ")
    if len(head) != 3 or head[0] != "GRAPH":
        raise FormatError(1, f"expected 'GRAPH <V> <E>', got {rows[0]!r}")
    v_count = parse_id(head[1], 1)
    e_count = parse_id(head[2], 1)
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
        u, v = parse_id(parts[0], i), parse_id(parts[1], i)
        if not u < v < v_count:
            raise FormatError(i, f"edge ({u},{v}) out of range for {v_count} vertices")
        if prev is not None and (u, v) <= prev:
            raise FormatError(i, f"edge ({u},{v}) out of order")
        prev = (u, v)
        edges.append((u, v))
    return v_count, tuple(edges)


def _count_planes(masks, cell):
    """Bit x of `planes[j]` is bit j of x's neighbour count in `cell`."""
    planes = []
    for v in cell:
        carry = masks[v]
        for j, plane in enumerate(planes):
            planes[j], carry = plane ^ carry, plane & carry
        if carry:
            planes.append(carry)
    return planes


def _cut(cell, bits, planes):
    """A cell's (vertices, bitmask, count) fragments by ascending count, in cell order."""
    fragments = [(cell, bits, 0)]
    for j in range(len(planes) - 1, -1, -1):
        cut = []
        for part, fb, k in fragments:
            on = planes[j] & fb
            if on and on != fb:
                cut.append(([v for v in part if not on >> v & 1], fb ^ on, k))
                cut.append(([v for v in part if on >> v & 1], on, k + (1 << j)))
            else:
                cut.append((part, fb, k + (1 << j if on else 0)))
        fragments = cut
    return fragments


def _refine_side(masks, p, splitter, expect=None):
    """Equitable refinement of one ordered partition, and its trace.

    A partition is `(lab, end, bits, open)`: its vertices in cell order, at
    each cell's start the cell's end and vertex bitmask, and the ascending
    starts of its open cells (two or more vertices).  A cell is named by
    its start, which a split keeps for its first fragment.  A splitter
    queue (Hopcroft 1971; McKay and Piperno 2014) refines cells only against
    cells that changed.  It starts with the cell at `splitter` alone, so
    every other cell must already be equitable: `splitter` is the one cell
    of the unit partition, or the singleton `_individualize` just cut from
    an equitable partition.  Against a splitter W, each open cell
    that meets W's neighbourhood is cut in place by neighbour count in W,
    ascending; a split queues every fragment if its cell was queued, else
    all but the first largest.  Each such cell adds `(W's start, cell
    start, counts)` to the trace: its one count, or the (count, fragment
    size) pairs.  `_count_planes` bit-slices the counts by ripple-carry
    adding W's rows: each caller passes an undirected graph, whose
    symmetric masks make the rows the columns.  A cell with each plane
    empty or full on it has count the sum of 2^j over the full planes;
    `_cut` cuts any other.

    Returns (a refined copy of `p`, trace).  Given `expect`, the trace of
    the paired partition, returns None at the first entry that differs or
    when the lengths differ: exactly when refining the pair in lockstep
    meets a cell pair whose counts disagree, so no isomorphism respects the
    pairing.
    """
    lab, end, bits = map(list, p[:3])
    open_cells = dict.fromkeys(p[3])  # an ordered set, ascending at the start
    queue = collections.deque([splitter])
    queued = {splitter}
    trace = []
    expect_len = None if expect is None else len(expect)

    while queue and open_cells:
        w = queue.popleft()
        queued.discard(w)
        planes = _count_planes(masks, lab[w : end[w]])
        near = 0
        for plane in planes:
            near |= plane
        for s in list(open_cells):
            cb = bits[s]
            if not cb & near:
                continue
            count = 0
            fragments = None
            for j, plane in enumerate(planes):
                on = plane & cb
                if on == cb:
                    count += 1 << j
                elif on:
                    fragments = _cut(lab[s : end[s]], cb, planes)
                    count = tuple((k, len(cell)) for cell, _, k in fragments)
                    break
            entry = (w, s, count)
            if expect is not None and (len(trace) == expect_len or expect[len(trace)] != entry):
                return None
            trace.append(entry)
            if fragments is None:
                continue
            starts = []
            pos = s
            for fragment, fbits, _ in fragments:
                lab[pos : pos + len(fragment)] = fragment
                end[pos] = pos + len(fragment)
                bits[pos] = fbits
                if len(fragment) > 1:
                    open_cells[pos] = None
                else:
                    open_cells.pop(pos, None)
                starts.append(pos)
                pos += len(fragment)
            if s in queued:
                fresh = starts[1:]
            else:
                largest = max(starts, key=lambda p: end[p] - p)
                fresh = [p for p in starts if p != largest]
            queue.extend(fresh)
            queued.update(fresh)

    if expect is not None and len(trace) != expect_len:
        return None
    return (lab, end, bits, sorted(open_cells)), trace  # fragments joined at the end


def _branch_cell(p):
    """Start of the first largest open cell, or None."""
    end = p[1]
    return max(p[3], key=lambda s: end[s] - s, default=None)


def _individualize(p, s, vertex):
    """A copy of `p` with `vertex` cut from the cell at `s` into a singleton
    just before the rest of that cell, open if it keeps two vertices."""
    lab, end, bits, opened = map(list, p)
    lab[s : end[s]] = [vertex, *(v for v in lab[s : end[s]] if v != vertex)]
    if end[s] > s + 1:
        end[s + 1], bits[s + 1] = end[s], bits[s] ^ 1 << vertex
        i = opened.index(s)
        opened[i : i + 1] = [s + 1] if end[s] > s + 2 else []
    end[s], bits[s] = s + 1, 1 << vertex
    return lab, end, bits, opened


def _neighbour_lists(masks):
    """Vertex ids of each neighbour bitmask, ascending."""
    return [[v for v, c in enumerate(bin(m)[:1:-1]) if c == "1"] for m in masks]


def _is_automorphism(masks, perm, neighbours):
    """Whether `perm` is a permutation of the vertices that maps every
    neighbourhood onto the image's: the sum of `1 << perm[u]` over v's
    neighbours (`_neighbour_lists(masks)`) must equal `masks[perm[v]]`."""
    if sorted(perm) != list(range(len(masks))):
        return False
    bit = [1 << p for p in perm]
    for v, row in enumerate(neighbours):
        if sum(map(bit.__getitem__, row)) != masks[perm[v]]:
            return False
    return True


class _Search:
    def __init__(self, masks, node_budget, path, cells):
        self.masks = masks
        self.budget = node_budget
        self.nodes = 0
        self.path = path  # the first path's (partition, trace) by depth
        self.cells = cells  # (branch cell start, base vertex) of each non-discrete depth

    def leaves(self, pb, splitter, depth):
        """Uncertified, in search order, each leaf permutation below `pb`
        paired with the first path at `depth`, counting each node as it is
        reached; `splitter` is the start of the cell individualised last."""
        self.nodes += 1
        if self.nodes > self.budget:
            raise BudgetExceeded(f"automorphism search exceeded {self.budget} nodes")
        pa, trace = self.path[depth]
        refined = _refine_side(self.masks, pb, splitter, trace)
        if refined is None:
            return
        lab, end, _, _ = pb = refined[0]
        if depth == len(self.cells):
            perm = [0] * len(self.masks)
            for a, b in zip(pa[0], lab):
                perm[a] = b
            yield tuple(perm)
            return
        s = self.cells[depth][0]
        for u in sorted(lab[s : end[s]]):
            yield from self.leaves(_individualize(pb, s, u), s, depth + 1)


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


def automorphism_group(masks, node_budget: int = DEFAULT_NODE_BUDGET) -> AutomorphismReport:
    """Exact automorphism group order of a graph given as a sequence of
    neighbour bitmasks, such as `build_grassmann` returns.

    The base is fixed first, branching on the first largest cell; then,
    deepest level first, each base vertex's orbit is closed under all
    generators found so far, which fix the base above it.  The order is the
    product of these exact orbits, and reports are deterministic.
    ValueError unless each mask is an int in range(2**len(masks)).
    """
    if node_budget < 0:
        raise ValueError(f"the node budget must be at least 0, got {node_budget}")
    count = len(masks)
    if count > MAX_AUT_VERTICES:
        raise TooLarge(f"{count} vertices exceeds the {MAX_AUT_VERTICES} limit")
    if not all(is_code(m, 1 << count) for m in masks):
        raise ValueError(f"a mask is not an int in range(2**{count})")

    opened = [0] if count > 1 else []
    unit = (list(range(count)), [count] + [0] * count, [(1 << count) - 1] + [0] * count, opened)
    path = [_refine_side(masks, unit, 0)]
    cells = []
    while (s := _branch_cell(path[-1][0])) is not None:
        lab, end, _, _ = partition = path[-1][0]
        v0 = min(lab[s : end[s]])
        cells.append((s, v0))
        path.append(_refine_side(masks, _individualize(partition, s, v0), s))
    search = _Search(masks, node_budget, path, cells)
    neighbours = _neighbour_lists(masks)

    generators = []
    order = 1
    for depth in range(len(cells), 0, -1):
        lab, end, _, _ = partition = path[depth - 1][0]
        s, v0 = cells[depth - 1]
        orbit = {v0}  # every generator found so far fixes the base down to v0
        for u in sorted(lab[s : end[s]]):
            if u in orbit:
                continue
            leaves = search.leaves(_individualize(partition, s, u), s, depth)
            # the one certificate: a leaf becomes a generator only here
            found = next((g for g in leaves if _is_automorphism(masks, g, neighbours)), None)
            if found is not None:
                if found[v0] != u:
                    raise GeometryError(
                        f"search for {v0} -> {u} returned {v0} -> {found[v0]}"
                    )
                generators.append(found)
                orbit = _orbit_close(orbit, generators)
        order *= len(orbit)

    return AutomorphismReport(
        group_order=order,
        generators=tuple(generators),
        nodes_explored=search.nodes,
        base=tuple(v0 for _, v0 in cells),
    )
