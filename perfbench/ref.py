"""Reference arithmetic for the benchmark's output checks.

Nothing in this module imports bbgroups: the checks must not trust the code
they measure.  Field elements use the library's packed-index encoding (for
GF(2^n) the index is the coefficient bitmask, constant term in bit 0), so
payloads built here can be handed to the oracles and payloads read back
from them can be checked here.

  * GF(2^n): carry-less product reduced modulo the polynomial;
  * GF(p):   integers mod p;
  * permutations: 0-based image tuples, composed left to right
    (compose(a, b) applies a first, then b), as the oracles document;
  * 2x2 / dxd matrices: row-major tuples of field indices;
  * the Moebius action of SL2(2^n) on [inf, 0, w, w^2, ..., w^(q-1)];
  * small real matrices (lists of rows) for the polar checks.
"""

from __future__ import annotations

import json
import math
import random


def _prime_factors(n: int) -> list[int]:
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


class GF2n:
    """GF(2^n) from an ascending coefficient list (constant term first)."""

    def __init__(self, n: int, coeffs: list[int]):
        if len(coeffs) != n + 1 or coeffs[-1] != 1:
            raise ValueError("polynomial must be monic of degree n")
        self.n = n
        self.q = 1 << n
        self.modulus = sum(c << k for k, c in enumerate(coeffs))
        self._inv: dict[int, int] = {}

    def add(self, a: int, b: int) -> int:
        return a ^ b

    sub = add

    def mul(self, a: int, b: int) -> int:
        top, mod = 1 << self.n, self.modulus
        r = 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a & top:
                a ^= mod
        return r

    def pow(self, a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        r = self._inv.get(a)
        if r is None:
            r = self._inv[a] = self.pow(a, self.q - 2)
        return r

    def primitive(self) -> int:
        """Least element of multiplicative order q - 1."""
        q = self.q
        factors = _prime_factors(q - 1)
        for g in range(2, q):
            if all(self.pow(g, (q - 1) // f) != 1 for f in factors):
                return g
        raise ValueError("no primitive element: polynomial is reducible")


class GFp:
    """The prime field GF(p); element index = residue."""

    def __init__(self, p: int):
        self.p = self.q = p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError("zero has no inverse")
        return pow(a, self.p - 2, self.p)


def random_sl2(field, rng: random.Random) -> tuple[int, int, int, int]:
    """Uniform (a, b, c, d) with a*d - b*c == 1: a nonzero first column
    (a, c), then one of the q completions."""
    q = field.q
    while True:
        a, c = rng.randrange(q), rng.randrange(q)
        if a or c:
            break
    if a:
        b = rng.randrange(q)
        d = field.mul(field.add(1, field.mul(b, c)), field.inv(a))
    else:
        d = rng.randrange(q)
        b = field.sub(0, field.inv(c))
    return a, b, c, d


# --- permutations -------------------------------------------------------------


def compose(a: tuple, b: tuple) -> tuple:
    """a, then b."""
    return tuple(b[x] for x in a)


def perm_inv(a: tuple) -> tuple:
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


def cycles_str(images: tuple) -> str:
    """Disjoint-cycle notation on 1-based points, "()" for the identity."""
    seen, parts = set(), []
    for start in range(len(images)):
        if start in seen or images[start] == start:
            continue
        cyc, x = [], start
        while x not in seen:
            seen.add(x)
            cyc.append(str(x + 1))
            x = images[x]
        parts.append("(" + " ".join(cyc) + ")")
    return "".join(parts) or "()"


def parse_cycles(text: str, degree: int) -> tuple:
    """Inverse of cycles_str for disjoint cycles."""
    images = list(range(degree))
    for body in text.replace(")", "").split("(")[1:]:
        pts = [int(t) - 1 for t in body.replace(",", " ").split()]
        for k, x in enumerate(pts):
            images[x] = pts[(k + 1) % len(pts)]
    return tuple(images)


# --- matrices over a finite field ----------------------------------------------


def mat_mul(field, a: tuple, b: tuple, d: int = 2) -> tuple:
    out = []
    for i in range(d):
        for j in range(d):
            acc = 0
            for m in range(d):
                acc = field.add(acc, field.mul(a[i * d + m], b[m * d + j]))
            out.append(acc)
    return tuple(out)


def mat2_inv(field, a: tuple) -> tuple:
    p, q, r, s = a
    det = field.sub(field.mul(p, s), field.mul(q, r))
    adj = (s, field.sub(0, q), field.sub(0, r), p)
    if det == 1:
        return adj
    k = field.inv(det)
    return tuple(field.mul(x, k) for x in adj)


# --- groups as the checks see them ------------------------------------------------


class PermModel:
    """Permutation group on `degree` points, with its own CLI notation."""

    def __init__(self, degree: int, gens: list[tuple]):
        self.degree = degree
        self.gens = gens
        self.identity = tuple(range(degree))

    def mul(self, a, b):
        return compose(a, b)

    def inv(self, a):
        return perm_inv(a)

    def fmt(self, a) -> str:
        return cycles_str(a)

    def parse(self, text: str):
        return parse_cycles(text, self.degree)


class MatrixModel:
    """2x2 matrix group over a finite field, notated as JSON rows."""

    def __init__(self, field, gens: list[tuple]):
        self.field = field
        self.gens = gens
        self.identity = (1, 0, 0, 1)

    def mul(self, a, b):
        return mat_mul(self.field, a, b)

    def inv(self, a):
        return mat2_inv(self.field, a)

    def fmt(self, a) -> str:
        return f"[[{a[0]}, {a[1]}], [{a[2]}, {a[3]}]]"

    def parse(self, text: str):
        rows = json.loads(text)
        return tuple(x for row in rows for x in row)


class MoebiusModel(PermModel):
    """SL2(2^n) acting on the 2^n + 1 points [inf, 0, w, ..., w^(q-1)] by
    z -> (a z + b) / (c z + d); generators z + 1, w z and 1 / z."""

    def __init__(self, field: GF2n):
        self.field = field
        q = field.q
        self.w = w = field.primitive()
        self.inf = q
        self.points = [q, 0] + [field.pow(w, m) for m in range(1, q)]
        self.pos = {pt: k for k, pt in enumerate(self.points)}
        gens = [self.perm(1, 1, 0, 1), self.perm(w, 0, 0, 1), self.perm(0, 1, 1, 0)]
        super().__init__(q + 1, gens)

    def perm(self, a: int, b: int, c: int, d: int) -> tuple:
        F, inf = self.field, self.inf
        out = []
        for z in self.points:
            if z == inf:
                img = inf if c == 0 else F.mul(a, F.inv(c))
            else:
                den = F.add(F.mul(c, z), d)
                img = inf if den == 0 else F.mul(F.add(F.mul(a, z), b), F.inv(den))
            out.append(self.pos[img])
        return tuple(out)

    def random(self, rng: random.Random) -> tuple:
        return self.perm(*random_sl2(self.field, rng))


def conj(model, x, g):
    """x^g = g^-1 x g."""
    return model.mul(model.mul(model.inv(g), x), g)


def order(model, x, cap: int = 1 << 20) -> int:
    y, n = x, 1
    while y != model.identity:
        y = model.mul(y, x)
        n += 1
        if n > cap:
            raise ValueError("element order above cap")
    return n


def power(model, x, k: int):
    r = model.identity
    for _ in range(k):
        r = model.mul(r, x)
    return r


def elements(model) -> list:
    """Brute-force closure of the model's generators."""
    seen = {model.identity}
    frontier = [model.identity]
    while frontier:
        nxt = []
        for a in frontier:
            for g in model.gens:
                b = model.mul(a, g)
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    return sorted(seen)


# --- small real matrices -----------------------------------------------------------


def real_mul(a: list, b: list) -> list:
    n, m = len(a), len(b[0])
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(m)] for i in range(n)]


def transpose(a: list) -> list:
    return [list(r) for r in zip(*a)]


def frob(a: list) -> float:
    return math.sqrt(sum(x * x for row in a for x in row))


def diff(a: list, b: list) -> list:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def eye(n: int) -> list:
    return [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
