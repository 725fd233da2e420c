"""Arithmetic tables for the finite fields GF(q), q = p^k <= 32.

Elements are integer codes 0..q-1: the polynomial c0 + c1*x + ... +
c_{k-1}*x^(k-1) over GF(p) gets the code c0 + c1*p + ... + c_{k-1}*p^(k-1).
Every field is built on one fixed modulus per order, listed in _MODULI, so
element codes are stable across runs and platforms.  Every modulus is
primitive (x generates GF(q)*), prime orders included, where the modulus
x - w names the primitive root w:

    GF(4)  x^2 + x + 1          GF(16) x^4 + x + 1
    GF(8)  x^3 + x + 1          GF(25) x^2 + 4x + 2
    GF(9)  x^2 + 2x + 2         GF(27) x^3 + 2x + 1

The sum table adds base-p digits; products, inverses and the Frobenius
maps are read off the powers of x: a*b = x^(log a + log b), a^-1 =
x^(-log a), a^(p^j) = x^(p^j log a).  Every table is still verified
exhaustively at construction (field axioms over all q^3 triples,
automorphisms over all pairs), which is cheap for q <= 32.
"""

from itertools import product

from .errors import GeometryError, UnsupportedOrder
from .records import record

# order -> (p, k, modulus coefficients c0..ck in ascending degree)
_MODULI = {
    2: (2, 1, (1, 1)),
    3: (3, 1, (1, 1)),
    4: (2, 2, (1, 1, 1)),
    5: (5, 1, (3, 1)),
    7: (7, 1, (4, 1)),
    8: (2, 3, (1, 1, 0, 1)),
    9: (3, 2, (2, 2, 1)),
    11: (11, 1, (9, 1)),
    13: (13, 1, (11, 1)),
    16: (2, 4, (1, 1, 0, 0, 1)),
    25: (5, 2, (2, 4, 1)),
    27: (3, 3, (1, 2, 0, 1)),
}

SUPPORTED_ORDERS = tuple(sorted(_MODULI))
MAX_ORDER = 32


def is_code(v, bound) -> bool:
    """Whether v is an int code or id in range(bound); no bool or float is."""
    return type(v) is int and 0 <= v < bound


def _powers_of_x(p, k, modulus):
    """Codes of x^0, x^1, ... modulo `modulus` over Z/p, up to the first
    return to 1 and at most p^k of them.  Multiplying by x shifts the base-p
    digits up one place and subtracts the top digit times the modulus."""
    digits, powers = [1] + [0] * (k - 1), []
    while len(powers) < p ** k:
        code = sum(d * p ** i for i, d in enumerate(digits))
        if code == 1 and powers:
            break
        powers.append(code)
        top = digits[-1]
        digits = [(low - top * c) % p for low, c in zip([0] + digits[:-1], modulus)]
    return powers


class FieldSpec(record("FieldSpec", "p k q modulus")):
    """Order data of one supported field: q = p^k with its defining modulus.

    The modulus must be primitive: x has multiplicative order q - 1 modulo
    it.  That one check also shows that p is prime and the modulus
    irreducible, since otherwise fewer than q - 1 residues are invertible.
    An irreducible modulus that is not primitive, such as x^2 + 1 over
    GF(3), is refused.
    """

    __slots__ = ()

    def __new__(cls, p, k, q, modulus):
        if p < 2 or k < 1 or p ** k != q:
            raise ValueError("q must equal p^k with p >= 2 and k >= 1")
        if q > MAX_ORDER:
            raise ValueError(f"order {q} above supported maximum {MAX_ORDER}")
        if len(modulus) != k + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree k")
        if len(_powers_of_x(p, k, modulus)) != q - 1:
            raise ValueError("modulus is not primitive: x does not have order q - 1")
        return super().__new__(cls, p, k, q, modulus)


class FieldTable:
    """Complete q x q operation tables plus the Frobenius automorphisms.

    automorphisms[j] is the permutation a -> a^(p^j); index 0 is the
    identity and the tuple has exactly k entries (the full automorphism
    group, cyclic of order k).  primitive is the code of x, a generator of
    GF(q)* and the smallest element of order q - 1 on every supported
    order.  Instances are immutable after construction and safe to share.
    """

    def __init__(self, spec, add_table, mul_table, neg_table, inv_table, automorphisms, primitive):
        self.spec, self.q = spec, spec.q
        self.add_table, self.mul_table = add_table, mul_table
        self.neg_table, self.inv_table = neg_table, inv_table
        self.automorphisms, self.primitive = automorphisms, primitive

    def elements(self):
        return range(self.q)

    def add(self, a, b):
        return self.add_table[a][b]

    def sub(self, a, b):
        return self.add_table[a][self.neg_table[b]]

    def mul(self, a, b):
        return self.mul_table[a][b]

    def neg(self, a):
        return self.neg_table[a]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self.inv_table[a]

    def power(self, a, e):
        if e < 0:
            a, e = self.inv(a), -e
        result = 1
        base = a
        while e > 0:
            if e & 1:
                result = self.mul_table[result][base]
            base = self.mul_table[base][base]
            e >>= 1
        return result


def _check_axioms(q, add, mul, neg, inv):
    """Raise GeometryError naming the first field law the tables break and
    the elements it fails at."""
    laws = (
        ("identity", 1, lambda a: add[a][0] == a and mul[a][1] == a and mul[a][0] == 0),
        ("additive inverse", 1, lambda a: add[a][neg[a]] == 0),
        ("multiplicative inverse", 1, lambda a: a == 0 or mul[a][inv[a]] == 1),
        ("commutativity", 2,
         lambda a, b: add[a][b] == add[b][a] and mul[a][b] == mul[b][a]),
        ("additive associativity", 3,
         lambda a, b, c: add[add[a][b]][c] == add[a][add[b][c]]),
        ("multiplicative associativity", 3,
         lambda a, b, c: mul[mul[a][b]][c] == mul[a][mul[b][c]]),
        ("distributivity", 3,
         lambda a, b, c: mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]),
    )
    for name, arity, law in laws:
        for args in product(range(q), repeat=arity):
            if not law(*args):
                where = " ".join(f"{v}={x}" for v, x in zip("abc", args))
                raise GeometryError(f"GF({q}) {name} fails at {where}")


_CACHE = {}


def field_make(q: int) -> FieldTable:
    """Build (and cache) the arithmetic tables for GF(q)."""
    table = _CACHE.get(q)
    if table is not None:
        return table
    if q not in _MODULI:
        raise UnsupportedOrder(
            f"GF({q}) is not supported; available orders: {SUPPORTED_ORDERS}"
        )
    p, k, modulus = _MODULI[q]
    spec = FieldSpec(p=p, k=k, q=q, modulus=modulus)

    exp = _powers_of_x(p, k, modulus)
    log = {a: e for e, a in enumerate(exp)}
    places = [p ** i for i in range(k)]
    add = [
        tuple(sum((a // w + b // w) % p * w for w in places) for b in range(q))
        for a in range(q)
    ]
    mul = [(0,) * q] + [
        (0,) + tuple(exp[(log[a] + log[b]) % (q - 1)] for b in range(1, q))
        for a in range(1, q)
    ]
    neg = tuple(add[a].index(0) for a in range(q))
    inv = (0,) + tuple(exp[-log[a] % (q - 1)] for a in range(1, q))

    _check_axioms(q, add, mul, neg, inv)

    autos = tuple(
        (0,) + tuple(exp[p ** j * log[a] % (q - 1)] for a in range(1, q))
        for j in range(k)
    )
    if len(set(autos)) != k:
        raise GeometryError(f"GF({q}) has {len(set(autos))} Frobenius maps, not {k}")
    for j, perm in enumerate(autos):
        for a, b in product(range(q), repeat=2):
            x, y = perm[a], perm[b]
            if perm[add[a][b]] != add[x][y] or perm[mul[a][b]] != mul[x][y]:
                raise GeometryError(f"GF({q}) automorphism {j} fails at a={a} b={b}")

    table = FieldTable(
        spec=spec,
        add_table=tuple(add),
        mul_table=tuple(mul),
        neg_table=neg,
        inv_table=inv,
        automorphisms=autos,
        primitive=exp[1 % (q - 1)],
    )
    _CACHE[q] = table
    return table


def monomorphisms_all_surjective(src: FieldSpec, tgt: FieldSpec) -> bool:
    """Whether every add/mul-preserving injection GF(src.q) -> GF(tgt.q) is onto.

    True when no monomorphism exists at all (different characteristic, or
    src.k does not divide tgt.k) and when the orders are equal (injections
    between equal finite sets are onto).  A proper subfield embedding is the
    only way to get a non-surjective monomorphism.
    """
    if src.p != tgt.p:
        return True
    if tgt.k % src.k != 0:
        return True
    return src.q == tgt.q
