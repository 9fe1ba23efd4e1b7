"""Arithmetic in GF(p^k) with precomputed discrete-log tables.

Field elements are plain integers in range(p**k): the element with
polynomial coefficient vector (c0, c1, ..., c_{k-1}) has index
c0 + c1*p + ... + c_{k-1}*p^(k-1).  Index 0 is zero, index 1 is one.

Multiplication, inversion and powers go through exp/log tables relative to
a fixed primitive element, so they are O(1) after construction; addition is
XOR in characteristic 2 and digitwise mod p otherwise (table-backed for
orders <= 256).  Construction refuses p**k > 2**16: tables and the
trial-factorization irreducibility check are only meant for desk scale.
"""

from __future__ import annotations

from typing import Sequence

from .errors import InvalidField

# Ascending coefficient lists, constant term first, monic.
DEFAULT_POLYS: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 2): (1, 1, 1),        # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),     # x^3 + x + 1
    (2, 4): (1, 1, 0, 0, 1),  # x^4 + x + 1
}

MAX_FIELD_ORDER = 1 << 16
_FULL_TABLE_LIMIT = 256


def is_prime(n: int) -> bool:
    """Deterministic trial division, adequate for desk-scale moduli."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime divisors of n in ascending order."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _digits(n: int, p: int, k: int) -> list[int]:
    out = []
    for _ in range(k):
        out.append(n % p)
        n //= p
    return out


def _poly_mod(a: list[int], m: Sequence[int], p: int) -> list[int]:
    """Remainder of a modulo monic m; ascending coefficients, reduced mod p."""
    a = [c % p for c in a]
    dm = len(m) - 1
    while len(a) > dm:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - dm
            for i, c in enumerate(m):
                a[shift + i] = (a[shift + i] - lead * c) % p
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return out


def is_irreducible(poly: Sequence[int], p: int) -> bool:
    """Trial factorization: no monic divisor of degree 1..deg//2."""
    k = len(poly) - 1
    for d in range(1, k // 2 + 1):
        for idx in range(p**d):
            cand = _digits(idx, p, d) + [1]
            if not _poly_mod(list(poly), cand, p):
                return False
    return True


class FieldSpec:
    """GF(p^k) with table-backed arithmetic on packed integer indices."""

    def __init__(self, p: int, k: int = 1, poly: Sequence[int] | None = None):
        # Before p**k or trial division: a huge p or k must cost nothing.
        if p > MAX_FIELD_ORDER or k > MAX_FIELD_ORDER.bit_length():
            raise InvalidField("field order exceeds the 2^16 table limit")
        if not is_prime(p):
            raise InvalidField(f"characteristic {p} is not prime")
        if k < 1:
            raise InvalidField("extension degree must be >= 1")
        q = p**k
        if q > MAX_FIELD_ORDER:
            raise InvalidField(f"field order {q} exceeds the 2^16 table limit")
        self.p = p
        self.k = k
        self.q = q
        if k == 1:
            self.poly: tuple[int, ...] | None = None
        else:
            if poly is None:
                poly = DEFAULT_POLYS.get((p, k))
                if poly is None:
                    raise InvalidField(
                        f"no default irreducible polynomial for GF({p}^{k}); pass poly="
                    )
            poly = tuple(int(c) % p for c in poly)
            if len(poly) != k + 1 or poly[-1] != 1:
                raise InvalidField("poly must be monic of degree k")
            if not is_irreducible(poly, p):
                raise InvalidField(f"reducible polynomial {list(poly)} over GF({p})")
            self.poly = poly
        self._build_tables()

    # --- representation ------------------------------------------------

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Coefficient vector (constant term first) of element index a."""
        return tuple(_digits(a, self.p, self.k))

    def from_coeffs(self, cs: Sequence[int]) -> int:
        idx = 0
        for c in reversed(cs):
            idx = idx * self.p + (c % self.p)
        return idx

    @property
    def primitive(self) -> int:
        """The fixed primitive element the log table is based on."""
        return self._exp[1 % (self.q - 1)]

    def primitive_power(self, m: int) -> int:
        """primitive ** m."""
        return self._exp[m % (self.q - 1)]

    @property
    def label(self) -> str:
        if self.k == 1:
            return f"gf{self.p}"
        return f"gf{self.p}^{self.k}p{self.from_coeffs(self.poly)}"

    def __repr__(self) -> str:
        return f"FieldSpec(p={self.p}, k={self.k})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FieldSpec):
            return NotImplemented
        return (self.p, self.k, self.poly) == (other.p, other.k, other.poly)

    def __hash__(self) -> int:
        return hash((self.p, self.k, self.poly))

    # --- arithmetic -----------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self._add_table is not None:
            return self._add_table[a][b]
        if self.k == 1:
            return (a + b) % self.p
        p = self.p
        out = 0
        mult = 1
        for _ in range(self.k):
            out += ((a + b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        if self.k == 1:
            return (-a) % self.p
        return self.from_coeffs([(-c) % self.p for c in self.coeffs(a)])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self._mul_table is not None:
            return self._mul_table[a][b]
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return self._exp[(-self._log[a]) % (self.q - 1)]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("zero has no multiplicative inverse")
            return 0
        return self._exp[(self._log[a] * e) % (self.q - 1)]

    # --- construction helpers --------------------------------------------

    def _raw_mul(self, a: int, b: int) -> int:
        """Table-free multiply, used only while building the tables."""
        if a == 0 or b == 0:
            return 0
        if self.k == 1:
            return (a * b) % self.p
        prod = _poly_mul(self.coeffs(a), self.coeffs(b), self.p)
        return self.from_coeffs(_poly_mod(prod, self.poly, self.p) + [0])

    def _raw_pow(self, a: int, e: int) -> int:
        out = 1
        base = a
        while e:
            if e & 1:
                out = self._raw_mul(out, base)
            base = self._raw_mul(base, base)
            e >>= 1
        return out

    def _build_tables(self) -> None:
        q = self.q
        gen = 1
        if q > 2:
            factors = prime_factors(q - 1)
            for cand in range(2, q):
                if all(self._raw_pow(cand, (q - 1) // f) != 1 for f in factors):
                    gen = cand
                    break
            else:
                raise InvalidField("no primitive element found (reducible poly?)")
        exp = [0] * (q - 1)
        log = [-1] * q
        val = 1
        for m in range(q - 1):
            exp[m] = val
            log[val] = m
            val = self._raw_mul(val, gen)
        if val != 1:
            raise InvalidField("primitive element order mismatch (reducible poly?)")
        self._exp = exp
        self._log = log
        self._add_table: list[list[int]] | None = None
        self._mul_table: list[list[int]] | None = None
        if q <= _FULL_TABLE_LIMIT:
            wrap = exp + exp  # wrap[log a + log b] without the mod q - 1
            self._mul_table = [[0] * q] + [
                [0] + [wrap[log[a] + log[b]] for b in range(1, q)] for a in range(1, q)
            ]
            if self.p == 2:
                self._add_table = [[a ^ b for b in range(q)] for a in range(q)]
            else:
                # Digitwise: add[a][b] = (a % p + b % p) % p + p * add[a//p][b//p],
                # row a // p < a already built; low[a0][b0] = (a0 + b0) % p.
                p = self.p
                low = [list(range(a0, p)) + list(range(a0)) for a0 in range(p)]
                add = [list(range(q))]
                for a in range(1, q):
                    high, digit = add[a // p][: q // p], low[a % p]
                    add.append([p * h + d for h in high for d in digit])
                self._add_table = add
