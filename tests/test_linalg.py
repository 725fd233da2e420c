from hypothesis import given, settings, strategies as st

from grasspace.field import field_make
from grasspace.linalg import is_invertible, nullspace, rref

from oracles import invertible_by_rank, reference_rref


@given(
    data=st.data(),
    q=st.sampled_from([2, 3, 4, 5, 9]),
    size=st.integers(0, 5),
    ragged=st.booleans(),
)
@settings(max_examples=400, deadline=None)
def test_is_invertible_matches_the_rank_oracle(data, q, size, ragged):
    f = field_make(q)
    widths = st.integers(max(0, size - 1), size + 1) if ragged else st.just(size)
    mat = tuple(
        tuple(data.draw(st.lists(st.integers(0, q - 1), min_size=w, max_size=w)))
        for w in data.draw(st.lists(widths, min_size=size, max_size=size))
    )
    assert is_invertible(f, mat) == invertible_by_rank(f, mat)


@given(
    data=st.data(),
    q=st.sampled_from([2, 3, 4, 5, 8, 9, 27]),
    width=st.integers(1, 6),
)
@settings(max_examples=500, deadline=None)
def test_rref_and_nullspace_match_the_column_pivot_oracle(data, q, width):
    # Zero rows and repeats of a few drawn rows come up often, so most
    # matrices are rank-deficient.
    f = field_make(q)
    row = st.lists(st.integers(0, q - 1), min_size=width, max_size=width).map(tuple)
    pool = data.draw(st.lists(row, min_size=1, max_size=3)) + [(0,) * width]
    rows = tuple(data.draw(st.lists(st.sampled_from(pool) | row, max_size=6)))
    reduced = rref(f, rows)
    assert reduced == reference_rref(f, rows)
    if rows:  # nullspace reads the width off the first row
        add, mul = f.add_table, f.mul_table
        kernel = nullspace(f, rows)
        assert len(kernel) == width - len(reduced)
        for v in kernel:
            for r in rows:
                dot = 0
                for x, y in zip(r, v):
                    dot = add[dot][mul[x][y]]
                assert dot == 0
