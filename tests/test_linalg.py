from hypothesis import given, settings, strategies as st

from grasspace.field import field_make
from grasspace.linalg import is_invertible

from oracles import invertible_by_rank


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

