import hashlib

import pytest
from hypothesis import given, strategies as st

from grasspace.errors import GeometryError, UnsupportedOrder
from grasspace.field import (
    _MODULI,
    SUPPORTED_ORDERS,
    FieldSpec,
    _check_axioms,
    field_make,
    monomorphisms_all_surjective,
)

from oracles import enumerate_monomorphisms

SMALL_ORDERS = [q for q in SUPPORTED_ORDERS if q <= 9]


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_construction_and_spec(q):
    f = field_make(q)
    assert f.q == q
    assert f.spec.p ** f.spec.k == q
    assert len(f.automorphisms) == f.spec.k
    assert f.automorphisms[0] == tuple(range(q))


def test_tables_are_fixed():
    # Element codes feed every coordinate, canonical id and generator, so
    # the tables of all supported orders must not drift between versions.
    h = hashlib.sha256()
    for q in SUPPORTED_ORDERS:
        f = field_make(q)
        h.update(repr((q, f.add_table, f.mul_table, f.neg_table, f.inv_table,
                       f.automorphisms)).encode())
    assert h.hexdigest()[:16] == "ddfd609e017d02b7"


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_field_spec_accepts_every_modulus(q):
    p, k, modulus = _MODULI[q]
    assert FieldSpec(p=p, k=k, q=q, modulus=modulus).q == q


@pytest.mark.parametrize(
    "p,k,q,modulus",
    [
        (4, 1, 4, (1, 1)),  # p not prime
        (2, 2, 4, (1, 0, 1)),  # x^2 + 1 = (x + 1)^2 over GF(2)
        (3, 2, 9, (1, 0, 1)),  # irreducible over GF(3), but x has order 4
        (2, 2, 4, (1, 1, 2)),  # not monic
        (2, 2, 4, (1, 1)),  # degree below k
        (2, 2, 8, (1, 1, 1)),  # p^k != q
        (2, 0, 1, (1,)),  # k < 1
        (2, 6, 64, (1, 1, 0, 0, 0, 0, 1)),  # above MAX_ORDER
    ],
)
def test_field_spec_refuses(p, k, q, modulus):
    with pytest.raises(ValueError):
        FieldSpec(p=p, k=k, q=q, modulus=modulus)


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_primitive_is_the_smallest_generator(q):
    f = field_make(q)

    def order(a):
        x, e = a, 1
        while x != 1:
            x, e = f.mul(x, a), e + 1
        return e

    assert f.primitive == min(a for a in range(1, q) if order(a) == q - 1)


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_inverse_and_negation_tables(q):
    f = field_make(q)
    for a in f.elements():
        assert f.add(a, f.neg(a)) == 0
        if a != 0:
            assert f.mul(a, f.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_frobenius_is_additive_and_multiplicative(q):
    f = field_make(q)
    for auto in f.automorphisms:
        for a in f.elements():
            for b in f.elements():
                assert auto[f.add(a, b)] == f.add(auto[a], auto[b])
                assert auto[f.mul(a, b)] == f.mul(auto[a], auto[b])


@pytest.mark.parametrize("q", [4, 5, 9])
def test_check_axioms_rejects_a_corrupted_mul_table(q):
    f = field_make(q)
    _check_axioms(q, f.add_table, f.mul_table, f.neg_table, f.inv_table)
    mul = [list(row) for row in f.mul_table]
    mul[2][2], mul[2][3] = mul[2][3], mul[2][2]
    with pytest.raises(GeometryError, match=rf"GF\({q}\) .* fails at a=\d"):
        _check_axioms(q, f.add_table, mul, f.neg_table, f.inv_table)


def test_gf4_frobenius_swaps_generators():
    f = field_make(4)
    frob = f.automorphisms[1]
    assert frob[0] == 0 and frob[1] == 1
    assert frob[2] == 3 and frob[3] == 2


@pytest.mark.parametrize("q", [0, 1, 6, 10, 12, 24])
def test_unsupported_orders_raise(q):
    with pytest.raises(UnsupportedOrder):
        field_make(q)


def test_order_above_maximum_raises():
    with pytest.raises(UnsupportedOrder):
        field_make(32)


@pytest.mark.parametrize("q", SMALL_ORDERS)
def test_automorphism_count_matches_search(q):
    f = field_make(q)
    found = enumerate_monomorphisms(f, f)
    assert len(found) == f.spec.k
    tables = {tuple(m[a] for a in f.elements()) for m in found}
    assert tables == set(f.automorphisms)


@pytest.mark.parametrize("q1", SMALL_ORDERS)
@pytest.mark.parametrize("q2", SMALL_ORDERS)
def test_surjectivity_predicate_matches_search(q1, q2):
    f1, f2 = field_make(q1), field_make(q2)
    monos = enumerate_monomorphisms(f1, f2)
    oracle = all(len(set(m.values())) == q2 for m in monos)
    assert monomorphisms_all_surjective(f1.spec, f2.spec) == oracle


def test_subfield_embedding_counts():
    monos = enumerate_monomorphisms(field_make(2), field_make(4))
    assert len(monos) == 1
    monos = enumerate_monomorphisms(field_make(3), field_make(9))
    assert len(monos) == 1
    monos = enumerate_monomorphisms(field_make(4), field_make(8))
    assert monos == []
    monos = enumerate_monomorphisms(field_make(2), field_make(3))
    assert monos == []


@given(
    q=st.sampled_from(SUPPORTED_ORDERS),
    data=st.data(),
)
def test_distributivity_samples(q, data):
    f = field_make(q)
    a = data.draw(st.integers(0, q - 1))
    b = data.draw(st.integers(0, q - 1))
    c = data.draw(st.integers(0, q - 1))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.power(a, q) == a
    e = data.draw(st.integers(1, 2 * q))
    for x in range(1, q):
        assert f.mul(f.power(x, -e), f.power(x, e)) == 1
    with pytest.raises(ZeroDivisionError):
        f.power(0, -e)
