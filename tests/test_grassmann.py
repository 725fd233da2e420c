import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from grasspace import grassmann
from grasspace.errors import BudgetExceeded, FormatError, GeometryError, TooLarge
from grasspace.grassmann import (
    _count_planes,
    _cut,
    _individualize,
    _is_automorphism,
    _neighbour_lists,
    _refine_side,
    automorphism_group,
    build_grassmann,
    export_graph,
    parse_graph,
    related,
)
from grasspace.projspace import build_space, meet

from oracles import brute_graph_aut_order, equitable_refinement_oracle, prime_rank


def masks_from_pairs(n, pairs):
    masks = [0] * n
    for u, v in pairs:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return tuple(masks)


def complete_graph(n):
    return masks_from_pairs(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def cycle_graph(n):
    return masks_from_pairs(n, [(i, (i + 1) % n) for i in range(n)])


def test_adjacency_matches_meet(pg32):
    g = build_grassmann(pg32)
    for a in range(35):
        for b in range(a + 1, 35):
            assert related(g, a, b) == (meet(pg32, a, b) is not None)


def test_adjacency_matches_rank_oracle(pg32):
    g = build_grassmann(pg32)
    for a in range(35):
        ba = [list(pg32.coords[x]) for x in pg32.line_sets[a]]
        for b in range(a + 1, 35):
            bb = [list(pg32.coords[x]) for x in pg32.line_sets[b]]
            meets = prime_rank(ba + bb, 2) <= 3
            assert related(g, a, b) == meets


def test_related_is_reflexive_and_symmetric(pg32):
    g = build_grassmann(pg32)
    for a in range(0, 35, 7):
        assert related(g, a, a)
        for b in range(35):
            assert related(g, a, b) == related(g, b, a)


@pytest.mark.parametrize(
    "n,q,degree",
    [(2, 2, 6), (3, 2, 18), (2, 3, 12), (3, 3, 48), (4, 2, 42)],
)
def test_degree_formula(n, q, degree):
    masks = build_grassmann(build_space(n, q))  # checks every row against the formula
    assert all(m.bit_count() == degree for m in masks)


def test_plane_case_is_complete(pg22):
    g = build_grassmann(pg22)
    for a in range(7):
        assert g[a].bit_count() == 6


def test_skew_line_count_pg32(pg32):
    g = build_grassmann(pg32)
    for a in range(35):
        assert sum(1 for b in range(35) if not related(g, a, b)) == 16


def test_strongly_regular_parameters_pg32(pg32):
    g = build_grassmann(pg32)
    for a in range(35):
        for b in range(a + 1, 35):
            common = (g[a] & g[b]).bit_count()
            assert common == 9


def test_build_grassmann_is_cached(pg32):
    assert build_grassmann(pg32) is build_grassmann(pg32)


def test_build_grassmann_rejects_a_wrong_degree():
    sp = build_space.__wrapped__(3, 2)
    bits = dict(sp.star_bits)
    bits[0] &= bits[0] - 1  # drop the first line through point 0
    sp.star_bits = bits
    with pytest.raises(GeometryError, match="degree"):
        build_grassmann(sp)


def test_cached_graph_does_not_keep_its_space_alive():
    import gc
    import weakref

    sp = build_space.__wrapped__(2, 3)
    build_grassmann(sp)
    ref = weakref.ref(sp)
    del sp
    gc.collect()
    assert ref() is None


def test_export_graph_shape(pg32):
    text = export_graph(build_grassmann(pg32))
    rows = text.split("\n")
    assert rows[0] == "GRAPH 35 315"
    assert rows[-1] == ""
    assert len(rows) == 317
    edges = [tuple(int(x) for x in r.split(" ")) for r in rows[1:-1]]
    assert edges == sorted(edges)
    assert all(u < v for u, v in edges)


def test_parse_graph_round_trip(pg32, pg23):
    for sp in (pg32, pg23):
        g = build_grassmann(sp)
        text = export_graph(g)
        v_count, edges = parse_graph(text)
        assert v_count == len(g)
        assert masks_from_pairs(v_count, edges) == g


@pytest.mark.parametrize(
    "text,lineno",
    [
        ("", 1),
        ("GRAPH 3\n", 1),
        ("EDGES 3 1\n0 1\n", 1),
        ("GRAPH a 1\n0 1\n", 1),
        ("GRAPH 3 -1\n", 1),
        ("GRAPH 3 2\n0 1\n", 3),
        ("GRAPH 3 1\n0 1\n1 2\n", 3),
        ("GRAPH 3 1\n1 0\n", 2),
        ("GRAPH 3 1\n0 3\n", 2),
        ("GRAPH 3 1\n0 x\n", 2),
        ("GRAPH 3 2\n1 2\n0 1\n", 3),
        ("GRAPH 3 2\n0 1\n0 1\n", 3),
        ("GRAPH 3 1\n0  1\n", 2),
        ("GRAPH 3 1\n0 +1\n", 2),
        ("GRAPH 3 1\n0 0_1\n", 2),
        ("GRAPH 03 1\n0 1\n", 1),
        ("GRAPH 3 01\n0 1\n", 1),
        ("GRAPH 3 1\n0 \u0661\n", 2),
        ("GRAPH \u0663 1\n0 1\n", 1),
        ("GRAPH 3 1\n\t0 1\n", 2),
        ("GRAPH 3 1\r\n0 1\r\n", 1),
        ("GRAPH 3 1\n0 1\r\n", 2),
    ],
)
def test_parse_graph_rejects_malformed(text, lineno):
    with pytest.raises(FormatError) as err:
        parse_graph(text)
    assert err.value.lineno == lineno


def test_parse_graph_accepts_empty_graph():
    assert parse_graph("GRAPH 0 0\n") == (0, ())
    assert parse_graph("GRAPH 4 0\n") == (4, ())


@pytest.mark.parametrize(
    "masks",
    [
        complete_graph(1),
        complete_graph(4),
        complete_graph(7),
        cycle_graph(5),
        cycle_graph(6),
        masks_from_pairs(4, [(0, 1), (1, 2), (2, 3)]),
        masks_from_pairs(2, []),
        masks_from_pairs(6, [(0, 1), (2, 3)]),
    ],
)
def test_automorphism_order_matches_brute_force(masks):
    report = automorphism_group(masks)
    assert report.group_order == brute_graph_aut_order(masks)
    for gen in report.generators:
        relabeled = masks_from_pairs(
            len(masks),
            [
                (gen[u], gen[v])
                for u in range(len(masks))
                for v in range(u + 1, len(masks))
                if masks[u] >> v & 1
            ],
        )
        assert relabeled == tuple(masks)


@pytest.mark.parametrize("masks", [(), []])
def test_empty_graph_has_the_trivial_group(masks):
    # No vertex, no base and no search node: the one permutation of nothing.
    report = automorphism_group(masks)
    assert report == grassmann.AutomorphismReport(1, (), 0, ())


def test_automorphism_group_pg32(pg32):
    report = automorphism_group(build_grassmann(pg32))
    assert report.group_order == 40320
    assert report.nodes_explored == 24
    assert automorphism_group(list(build_grassmann(pg32))) == report


# sha256 of repr((group_order, generators, nodes_explored, base)), recorded
# when the base became fixed first and orbits closed deepest level first:
# the search path is pinned.
@pytest.mark.parametrize(
    "n, q, digest",
    [
        (2, 3, "d26599de838fdca5"),
        (3, 2, "a7b6d57136a416b0"),
        (3, 3, "8568814157e342cc"),
        (4, 2, "a06ee69d66dc64bb"),
    ],
)
def test_automorphism_search_path_is_pinned(n, q, digest):
    r = automorphism_group(build_grassmann(build_space(n, q)))
    pinned = repr((r.group_order, r.generators, r.nodes_explored, r.base))
    assert hashlib.sha256(pinned.encode()).hexdigest()[:16] == digest


# sha256 of repr of every refinement trace a search computes (None for a
# failed replay), recorded before singleton splitters were cut by one AND.
@pytest.mark.parametrize(
    "n, q, calls, digest",
    [
        (2, 3, 91, "df2bf0d8e7159f1e"),
        (3, 2, 30, "cda63bf131f6d982"),
        (3, 3, 47, "e33592088194636f"),
        (4, 2, 38, "169ed94d9bb3572e"),
    ],
)
def test_refinement_traces_are_pinned(n, q, calls, digest, monkeypatch):
    traces = []

    def recorded(masks, p, splitter, expect=None):
        result = _refine_side(masks, p, splitter, expect)
        traces.append(None if result is None else result[1])
        return result

    monkeypatch.setattr(grassmann, "_refine_side", recorded)
    automorphism_group(build_grassmann(build_space(n, q)))
    assert len(traces) == calls
    assert hashlib.sha256(repr(traces).encode()).hexdigest()[:16] == digest


def test_first_path_is_refined_once_per_search(pg32, monkeypatch):
    # Every node replays a trace once; no first-path partition is refined twice.
    first, replays = [], []

    def counted(masks, p, splitter, expect=None):
        if expect is None:
            first.append((tuple(map(tuple, p)), splitter))
        else:
            replays.append(None)
        return _refine_side(masks, p, splitter, expect)

    monkeypatch.setattr(grassmann, "_refine_side", counted)
    report = automorphism_group(build_grassmann(pg32))
    assert len(replays) == report.nodes_explored
    assert len(set(first)) == len(first) < report.nodes_explored


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_automorphism_order_is_relabeling_invariant(seed):
    import random

    rng = random.Random(seed)
    n = rng.randrange(1, 8)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
    masks = masks_from_pairs(n, pairs)
    perm = list(range(n))
    rng.shuffle(perm)
    shuffled = masks_from_pairs(n, [(perm[u], perm[v]) for u, v in pairs])
    assert automorphism_group(masks).group_order == automorphism_group(shuffled).group_order


def _random_graph(rng):
    n = rng.randrange(1, 25)
    density = rng.random()
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
    return masks_from_pairs(n, pairs)


def _bits(vertices):
    return sum(1 << v for v in vertices)


def _flat(cells):
    """A partition given as a list of cells, in the search's `(lab, end,
    bits)` form."""
    n = sum(map(len, cells))
    lab, end, bits = [], [n] + [0] * n, [0] * (n + 1)
    for cell in cells:
        s = len(lab)
        lab.extend(cell)
        end[s], bits[s] = len(lab), _bits(cell)
    return lab, end, bits


def _cells(p):
    """The cells of a partition in the search's form, by start, each
    checked against the bitmask kept at its start."""
    lab, end, bits = p
    cells, s = {}, 0
    while s < len(lab):
        cells[s] = tuple(lab[s : end[s]])
        assert bits[s] == _bits(cells[s])
        s = end[s]
    return cells


def _assert_counts_and_cut(masks, splitter, cell):
    """The bit-planes decode to every vertex's neighbour count in
    `splitter`, and `_cut` puts the cell's vertices into one fragment per
    count, ascending, each in the cell's order."""
    counts = [(m & _bits(splitter)).bit_count() for m in masks]
    planes = _count_planes(masks, splitter)
    decoded = [
        sum((plane >> x & 1) << j for j, plane in enumerate(planes)) for x in range(len(masks))
    ]
    assert decoded == counts
    want = [([v for v in cell if counts[v] == k], k) for k in sorted({counts[v] for v in cell})]
    fragments = _cut(list(cell), _bits(cell), planes)
    assert [(part, k) for part, _, k in fragments] == want
    assert [fb for _, fb, _ in fragments] == [_bits(part) for part, _ in want]


# Vertices 3-7 have 0, 1, 2, 3 and 2 neighbours in {0, 1, 2}.
COUNTED = masks_from_pairs(8, [(0, 4), (0, 5), (1, 5), (0, 6), (1, 6), (2, 6), (0, 7), (1, 7)])


@pytest.mark.parametrize(
    "cell",
    [(5, 7), (7, 5), (4, 5), (6, 3), (7, 6, 5, 4, 3), (3, 7, 4, 6, 5)],
    ids=["one", "one-reversed", "two", "two-reversed", "four", "four-mixed"],
)
def test_bit_planes_cut_a_cell_into_its_counts(cell):
    _assert_counts_and_cut(COUNTED, (0, 1, 2), cell)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_bit_planes_match_popcounts_on_random_graphs(seed):
    rng = random.Random(seed)
    masks = _random_graph(rng)
    n = len(masks)
    splitter = rng.sample(range(n), rng.randrange(1, n + 1))
    _assert_counts_and_cut(masks, splitter, rng.sample(range(n), rng.randrange(1, n + 1)))


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_first_splitter_trace_is_the_per_vertex_counts(seed):
    # The first splitter's entries open the trace: one per non-singleton
    # cell that meets its neighbourhood, in cell order, its one count or
    # its (count, fragment size) pairs ascending, counted vertex by vertex.
    rng = random.Random(seed)
    masks = _random_graph(rng)
    order = rng.sample(range(len(masks)), len(masks))
    cuts = sorted(rng.sample(range(1, len(masks)), rng.randrange(len(masks))))
    starts = [0, *cuts]
    p = [tuple(order[a:b]) for a, b in zip(starts, [*cuts, len(masks)])]
    splitter = rng.randrange(len(p))
    wbits = _bits(p[splitter])
    want = []
    for start, cell in zip(starts, p):
        ks = [(masks[v] & wbits).bit_count() for v in cell]
        if len(cell) < 2 or not any(ks):
            continue
        counts = sorted(set(ks))
        pairs = tuple((k, ks.count(k)) for k in counts)
        want.append((starts[splitter], start, counts[0] if len(counts) == 1 else pairs))
    _, trace = _refine_side(masks, _flat(p), starts[splitter])
    assert trace[: len(want)] == want


def _refine_matches_oracle(masks, pa, pb, splitter):
    """The splitter-queue refinement of one pairing, checked against the
    whole-pass oracle: the same set partitions, and None on the same
    pairings; the inputs are left as they were.  Returns the refined pair
    or None."""
    cells_a, cells_b = _cells(pa), _cells(pb)
    refined_a, trace = _refine_side(masks, pa, splitter)
    replay = _refine_side(masks, pb, splitter, trace)
    assert (_cells(pa), _cells(pb)) == (cells_a, cells_b)
    got = None if replay is None else (refined_a, replay[0])
    want = equitable_refinement_oracle(masks, [*cells_a.values()], [*cells_b.values()])
    assert (got is None) == (want is None)
    if got is not None:
        got_cells = [[*_cells(side).values()] for side in got]
        for side in (0, 1):
            assert set(map(frozenset, got_cells[side])) == set(map(frozenset, want[side]))
        assert list(map(len, got_cells[0])) == list(map(len, got_cells[1]))
    return got


def _replay_matches_oracle(masks, pa, pb, splitter):
    """`pb` replaying `pa`'s refinement trace fails exactly when the
    whole-pass oracle does, and `pa` always replays its own trace.  Returns
    the refined pair or None."""
    refined_a, trace = _refine_side(masks, pa, splitter)
    assert _refine_side(masks, pa, splitter, expect=trace) == (refined_a, trace)
    replay = _refine_side(masks, pb, splitter, expect=trace)
    want = equitable_refinement_oracle(masks, [*_cells(pa).values()], [*_cells(pb).values()])
    assert (replay is None) == (want is None)
    return None if replay is None else (refined_a, replay[0])


def _individualisation_walk(masks, data, check=_refine_matches_oracle):
    """Refine the unit partition, then keep individualising a drawn vertex
    of a drawn cell on each side, checking every refinement."""
    unit = _flat([tuple(range(len(masks)))])
    refined = check(masks, unit, unit, 0)
    while refined is not None:
        pa, pb = refined
        cells_a = _cells(pa)
        starts = [s for s, cell in cells_a.items() if len(cell) > 1]
        if not starts:
            break
        s = data.draw(st.sampled_from(starts))
        va = data.draw(st.sampled_from(sorted(cells_a[s])))
        u = data.draw(st.sampled_from(sorted(_cells(pb)[s])))
        refined = check(
            masks, _individualize(pa, s, va), _individualize(pb, s, u), s
        )


def _circulant(n, steps):
    return masks_from_pairs(
        n, {tuple(sorted((a, (a + c) % n))) for a in range(n) for c in steps}
    )


@st.composite
def small_graphs(draw):
    """Random graphs of every density, and relabelled pairs of circulants
    (each regular, so refinement alone rarely separates their vertices)."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 12))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        return masks_from_pairs(n, [pair for pair, edge in zip(pairs, edges) if edge])
    n = draw(st.integers(3, 8))
    steps = st.sets(st.integers(1, n - 1), min_size=1, max_size=3)
    masks = list(_circulant(n, draw(steps))) + [
        m << n for m in _circulant(n, draw(steps))
    ]
    perm = draw(st.permutations(range(2 * n)))
    return masks_from_pairs(
        2 * n,
        [(perm[u], perm[v]) for u in range(2 * n) for v in range(u) if masks[u] >> v & 1],
    )


# Small graphs on which a faulty splitter queue goes wrong: one whose unit
# partition refines to eight cells, then 6-, 4- and 5-regular graphs
# (circulants after a few degree-preserving edge swaps) whose individualised
# pairings often fail.
TRICKY_GRAPHS = [
    (118, 61, 123, 246, 207, 143, 157, 120),
    (476, 504, 881, 739, 455, 910, 543, 571, 567, 492),
    (6464, 12312, 10288, 354, 198, 396, 537, 1584, 1065, 6336, 12672, 8709, 1539, 3078),
    (
        18724, 37448, 9361, 16690, 33356, 9353, 18706, 37412,
        9289, 18578, 37156, 12865, 19586, 35108, 4681, 9362,
    ),
]


@pytest.mark.parametrize("masks", TRICKY_GRAPHS)
def test_refinement_matches_the_oracle_on_every_first_pairing(masks):
    unit = _flat([tuple(range(len(masks)))])
    pa, pb = _refine_matches_oracle(masks, unit, unit, 0)
    for s, cell in _cells(pa).items():
        for va in cell:
            for u in cell:
                _refine_matches_oracle(
                    masks, _individualize(pa, s, va), _individualize(pb, s, u), s
                )


@given(masks=small_graphs(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_refinement_matches_the_oracle_on_small_graphs(masks, data):
    _individualisation_walk(masks, data)


@pytest.mark.parametrize("n, q", [(2, 3), (3, 2)])
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_refinement_matches_the_oracle_on_line_graphs(n, q, data):
    _individualisation_walk(build_grassmann(build_space(n, q)), data)


@pytest.mark.parametrize("masks", TRICKY_GRAPHS)
def test_trace_replay_fails_with_the_oracle_on_every_first_pairing(masks):
    unit = _flat([tuple(range(len(masks)))])
    pa, pb = _replay_matches_oracle(masks, unit, unit, 0)
    for s, cell in _cells(pa).items():
        for va in cell:
            for u in cell:
                _replay_matches_oracle(
                    masks, _individualize(pa, s, va), _individualize(pb, s, u), s
                )


@given(masks=small_graphs(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_trace_replay_fails_with_the_oracle_on_small_graphs(masks, data):
    _individualisation_walk(masks, data, check=_replay_matches_oracle)


def test_is_automorphism_rejects_non_bijections():
    two_edges = (8, 4, 2, 1)  # edges 0-3 and 1-2
    rows = _neighbour_lists(two_edges)
    assert _is_automorphism(two_edges, (1, 0, 3, 2), rows)
    assert not _is_automorphism(two_edges, (0, 0, 3, 3), rows)
    assert not _is_automorphism(two_edges, (1, 0), rows)
    assert not _is_automorphism(two_edges, (1, 0, 3, 2, 4), rows)
    assert not _is_automorphism(two_edges, (0, 1, 3, 2), rows)


def test_collineation_perms_are_graph_automorphisms(pg32):
    from grasspace.theorems import InstanceGenerator, InstanceKind, generate_instance

    g = build_grassmann(pg32)
    rows = _neighbour_lists(g)
    for seed in range(20):
        lm = generate_instance(
            InstanceGenerator(seed, InstanceKind.COLLINEATION), pg32, pg32
        )
        assert _is_automorphism(g, lm.image, rows)


def _corrupt_top_level_leaves(monkeypatch, corrupt):
    """Ahead of each leaf a top-level search yields, yield that leaf passed
    through `corrupt` with the base vertex of its level; deeper searches
    are left alone."""
    leaves = grassmann._Search.leaves
    running = []  # non-empty while a top-level search is advancing

    def corrupted(self, pb, splitter, level):
        if running:
            yield from leaves(self, pb, splitter, level)
            return
        found = leaves(self, pb, splitter, level)
        while True:
            running.append(None)
            try:
                perm = next(found, None)
            finally:
                running.pop()
            if perm is None:
                return
            yield tuple(corrupt(list(perm), self.cells[level - 1][1]))
            yield perm

    monkeypatch.setattr(grassmann._Search, "leaves", corrupted)


def test_automorphism_group_rejects_a_corrupted_generator(pg32, monkeypatch):
    # Swap the images of two vertices off the base in a copy of every leaf,
    # yielded first, so each still sends its base vertex where it was asked
    # to; the Grassmann graph has no twin lines, so none is an
    # automorphism, and the certificate must pass over every copy.
    g = build_grassmann(pg32)
    report = automorphism_group(g)
    a, b = [v for v in range(35) if v not in report.base][-2:]

    def swap(perm, v0):
        perm[a], perm[b] = perm[b], perm[a]
        return perm

    _corrupt_top_level_leaves(monkeypatch, swap)
    assert automorphism_group(g) == report


def test_automorphism_group_rejects_a_generator_that_moves_the_base(pg32, monkeypatch):
    # The identity passes the certificate but sends the level's base vertex
    # to itself, not to the vertex the search was asked for.
    _corrupt_top_level_leaves(monkeypatch, lambda perm, v0: range(len(perm)))
    with pytest.raises(GeometryError, match=r"search for \d+ -> \d+ returned"):
        automorphism_group(build_grassmann(pg32))


@pytest.mark.parametrize(
    "n, q, calls", [(3, 2, 8), (3, 3, 7), (4, 2, 11), (2, 7, 56)]
)
def test_each_leaf_is_certified_once(n, q, calls, monkeypatch):
    # Every leaf these searches reach is a generator, and the certificate
    # reads it once.
    certified = []

    def counted(masks, perm, neighbours):
        certified.append(perm)
        return _is_automorphism(masks, perm, neighbours)

    monkeypatch.setattr(grassmann, "_is_automorphism", counted)
    report = automorphism_group(build_grassmann(build_space(n, q)))
    assert len(certified) == len(report.generators) == calls


@pytest.mark.parametrize(
    "masks",
    [(0b110, 0b001), (-1, -1), (True, 0), (0b10, 1.0), (2, None)],
    ids=["bit-out-of-range", "negative", "bool", "float", "none"],
)
def test_automorphism_group_rejects_malformed_masks(masks):
    with pytest.raises(ValueError, match=r"not an int in range\(2\*\*2\)"):
        automorphism_group(masks)


def test_automorphism_group_too_large():
    with pytest.raises(TooLarge):
        automorphism_group(build_grassmann(build_space(4, 3)))


def test_automorphism_group_budget(pg32):
    for budget in (0, 5):
        with pytest.raises(BudgetExceeded):
            automorphism_group(build_grassmann(pg32), node_budget=budget)
    with pytest.raises(ValueError, match="at least 0"):
        automorphism_group(build_grassmann(pg32), node_budget=-1)
