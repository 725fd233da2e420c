"""Arithmetic tables for the finite fields GF(q), q = p^k <= 32.

Elements are integer codes 0..q-1: the polynomial c0 + c1*x + ... +
c_{k-1}*x^(k-1) over GF(p) gets the code c0 + c1*p + ... + c_{k-1}*p^(k-1).
Extension fields are built on one fixed modulus per order (the standard
primitive choices listed in _MODULI), so element codes are stable across
runs and platforms:

    GF(4)  x^2 + x + 1          GF(16) x^4 + x + 1
    GF(8)  x^3 + x + 1          GF(25) x^2 + 4x + 2
    GF(9)  x^2 + 2x + 2         GF(27) x^3 + 2x + 1

Every table is verified exhaustively at construction (field axioms over
all q^3 triples, automorphisms over all pairs), which is cheap for q <= 32.
"""

import dataclasses
from itertools import product

from .errors import GeometryError, UnsupportedOrder

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


def _is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_divmod(a, b, p):
    """Quotient and remainder of coefficient lists over GF(p)."""
    a = _poly_trim(a)
    b = _poly_trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = pow(b[-1], p - 2, p) if b[-1] != 1 else 1
    quot = [0] * max(0, len(a) - len(b) + 1)
    rem = list(a)
    while len(rem) >= len(b) and any(rem):
        shift = len(rem) - len(b)
        factor = (rem[-1] * inv_lead) % p
        quot[shift] = factor
        for i, bc in enumerate(b):
            rem[shift + i] = (rem[shift + i] - factor * bc) % p
        rem = _poly_trim(rem)
    return quot, rem


def _is_irreducible(modulus, p):
    """Exhaustive trial division by every monic polynomial of degree <= k/2."""
    deg = len(_poly_trim(modulus)) - 1
    for d in range(1, deg // 2 + 1):
        for tail in product(range(p), repeat=d):
            divisor = list(tail) + [1]
            _, rem = _poly_divmod(modulus, divisor, p)
            if not rem:
                return False
    return True


@dataclasses.dataclass(frozen=True)
class FieldSpec:
    """Order data of one supported field: q = p^k with its defining modulus."""

    p: int
    k: int
    q: int
    modulus: tuple

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.k < 1 or self.p ** self.k != self.q:
            raise ValueError("q must equal p^k with k >= 1")
        if self.q > MAX_ORDER:
            raise ValueError(f"order {self.q} above supported maximum {MAX_ORDER}")
        if len(self.modulus) != self.k + 1 or self.modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree k")
        if not _is_irreducible(self.modulus, self.p):
            raise ValueError("modulus is reducible")


@dataclasses.dataclass(eq=False)
class FieldTable:
    """Complete q x q operation tables plus the Frobenius automorphisms.

    automorphisms[j] is the permutation a -> a^(p^j); index 0 is the
    identity and the tuple has exactly k entries (the full automorphism
    group, cyclic of order k).  Instances are immutable after construction
    and safe to share.
    """

    spec: FieldSpec
    add_table: tuple
    mul_table: tuple
    neg_table: tuple
    inv_table: tuple
    automorphisms: tuple

    @property
    def q(self):
        return self.spec.q

    def elements(self):
        return range(self.spec.q)

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
        result = 1
        base = a
        while e > 0:
            if e & 1:
                result = self.mul_table[result][base]
            base = self.mul_table[base][base]
            e >>= 1
        return result


def _code_to_poly(code, p, k):
    coeffs = []
    for _ in range(k):
        coeffs.append(code % p)
        code //= p
    return coeffs


def _poly_to_code(coeffs, p):
    code = 0
    for c in reversed(coeffs):
        code = code * p + c
    return code


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

    polys = [_code_to_poly(a, p, k) for a in range(q)]
    add = []
    mul = []
    for a in range(q):
        add_row = []
        mul_row = []
        for b in range(q):
            s = [(x + y) % p for x, y in zip(polys[a], polys[b])]
            add_row.append(_poly_to_code(s, p))
            prod = [0] * (2 * k - 1)
            for i, x in enumerate(polys[a]):
                if x:
                    for j, y in enumerate(polys[b]):
                        prod[i + j] = (prod[i + j] + x * y) % p
            _, rem = _poly_divmod(prod, modulus, p)
            rem += [0] * (k - len(rem))
            mul_row.append(_poly_to_code(rem, p))
        add.append(tuple(add_row))
        mul.append(tuple(mul_row))

    neg = tuple(add[a].index(0) for a in range(q))
    inv = tuple(0 if a == 0 else mul[a].index(1) for a in range(q))

    _check_axioms(q, add, mul, neg, inv)

    def pow_code(a, e):
        r = 1
        for _ in range(e):
            r = mul[r][a]
        return r if e else 1

    frob = tuple(pow_code(a, p) if a else 0 for a in range(q))
    autos = [tuple(range(q))]
    current = frob
    while current != autos[0]:
        autos.append(current)
        current = tuple(frob[x] for x in current)
    if len(autos) != k:
        raise GeometryError(f"GF({q}) Frobenius has order {len(autos)}, not {k}")
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
        automorphisms=tuple(autos),
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
