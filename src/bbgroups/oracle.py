"""Black-box group oracles with concrete desk-scale backends.

An oracle exposes a group only through opaque element handles and the
operations mul / inv / identity-test, together with an exponent bound E
satisfying x**E == identity for every element.  Backends: permutation
groups, matrix groups over GF(p^k), and the degree-(2^n + 1)
fractional-linear ("moebius") realization of SL2(2^n) acting on the
projective line over GF(2^n).

Conventions fixed here and relied on everywhere else:
  * mul(a, b) applies a first, then b (for permutation backends);
  * conjugation is x^g == mul(mul(inv(g), x), g);
  * payloads are canonical, so two elements are equal iff their payloads
    are equal;
  * mult_counter counts mul invocations only (not inv, not identity tests).
"""

from __future__ import annotations

import json
import math
import operator
import random
import re
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    BackendMismatch,
    EnumerationCapExceeded,
    InvalidBackendSpec,
    VerificationFailed,
    excerpt,
)
from .gf import FieldSpec

DEFAULT_ENUM_CAP = 50_000
# Largest permutation degree or matrix dimension an oracle accepts, checked
# before anything is allocated; 2^16 + 1 is the moebius action over the
# largest field gf builds.
MAX_DEGREE = 65_537


class Element(NamedTuple):
    """Opaque handle to a group element of one specific backend."""

    backend_id: str
    payload: tuple


_new_element = tuple.__new__


class MultCounter:
    """Running count of multiplication-oracle invocations.

    Single-owner, like a sampling cell: an oracle and its counter belong to
    one thread, so GroupOracle.mul bumps total in place.
    """

    __slots__ = ("total",)

    def __init__(self) -> None:
        self.total = 0


class GroupOracle:
    """Base class: generator list, exponent bound, canonical-payload algebra.

    Subclasses provide _mul_payload / _inv_payload plus element parsing and
    formatting; everything group-theoretic lives here.
    """

    def __init__(
        self,
        backend_id: str,
        identity_payload: tuple,
        generator_payloads: Sequence[tuple],
        exponent: int | None = None,
        enum_cap: int = DEFAULT_ENUM_CAP,
    ):
        if not generator_payloads:
            raise InvalidBackendSpec("generator list must be nonempty")
        self.backend_id = backend_id
        self._identity = Element(backend_id, identity_payload)
        self.generators = [Element(backend_id, p) for p in generator_payloads]
        self.mult_counter = MultCounter()
        self._elements: list[Element] | None = None
        self._payload_set: frozenset | None = None
        self._exp_data = None
        if exponent is None:
            exponent = self._exact_exponent(enum_cap)
        if not isinstance(exponent, int) or exponent < 1:
            raise InvalidBackendSpec(f"exponent bound must be a positive integer, got {excerpt(exponent)}")
        self.exponent_bound = exponent
        self._validate_contract()

    # --- the oracle proper ------------------------------------------------

    def identity(self) -> Element:
        return self._identity

    # mul and inv run for every step of every algorithm: each reads
    # backend_id once and builds its Element with tuple.__new__, which skips
    # the NamedTuple constructor's argument handling.

    def mul(self, a: Element, b: Element) -> Element:
        """Product a*b ("apply a, then b"); counts one oracle invocation."""
        bid = self.backend_id
        if a.backend_id != bid or b.backend_id != bid:
            raise BackendMismatch(
                f"cannot combine elements of {a.backend_id!r} / {b.backend_id!r} in {bid!r}"
            )
        self.mult_counter.total += 1
        return _new_element(Element, (bid, self._mul_payload(a.payload, b.payload)))

    def inv(self, a: Element) -> Element:
        bid = self.backend_id
        if a.backend_id != bid:
            raise BackendMismatch(f"element of {a.backend_id!r} in {bid!r}")
        return _new_element(Element, (bid, self._inv_payload(a.payload)))

    def is_identity(self, a: Element) -> bool:
        if a.backend_id != self.backend_id:
            raise BackendMismatch(f"element of {a.backend_id!r} in {self.backend_id!r}")
        return a.payload == self._identity.payload

    # --- derived conveniences ----------------------------------------------

    def conjugate(self, x: Element, g: Element) -> Element:
        """x^g = g^-1 * x * g."""
        return self.mul(self.mul(self.inv(g), x), g)

    def commutes(self, a: Element, b: Element) -> bool:
        return self.mul(a, b) == self.mul(b, a)

    @property
    def exponent_data(self):
        """Cached 2-adic split of the exponent bound (see powertools)."""
        if self._exp_data is None:
            from .powertools import split_exponent

            self._exp_data = split_exponent(self.exponent_bound)
        return self._exp_data

    # --- brute-force enumeration -------------------------------------------

    def enumerate(self, cap: int = DEFAULT_ENUM_CAP) -> list[Element]:
        """Full element list by closure under the generators, sorted by payload."""
        if self._elements is None:
            from .subgroups import closure

            self._elements = closure(self, self.generators, cap)
            self._payload_set = frozenset(a.payload for a in self._elements)
        if len(self._elements) > cap:
            raise EnumerationCapExceeded(
                f"group order {len(self._elements)} exceeds cap {cap}"
            )
        return self._elements

    def order(self, cap: int = DEFAULT_ENUM_CAP) -> int:
        return len(self.enumerate(cap))

    def contains(self, a: Element, cap: int = DEFAULT_ENUM_CAP) -> bool:
        self.enumerate(cap)
        return a.backend_id == self.backend_id and a.payload in self._payload_set

    # --- backend hooks -------------------------------------------------------

    def _mul_payload(self, pa: tuple, pb: tuple) -> tuple:
        raise NotImplementedError

    def _inv_payload(self, pa: tuple) -> tuple:
        raise NotImplementedError

    def element_str(self, a: Element) -> str:
        raise NotImplementedError

    def parse_element(self, text: str) -> Element:
        raise NotImplementedError

    # --- construction-time checks --------------------------------------------

    def _exact_exponent(self, cap: int) -> int:
        """lcm of the element orders; a power of an element already walked
        has an order dividing that element's, so it is skipped."""
        exp, walked = 1, set()
        for x in self.enumerate(cap):
            if x.payload in walked:
                continue
            y, n = x, 1
            while not self.is_identity(y):
                walked.add(y.payload)
                y = self.mul(y, x)
                n += 1
                if n > cap:
                    raise EnumerationCapExceeded(f"element order exceeds cap {cap}")
            exp = math.lcm(exp, n)
        return exp

    def _validate_contract(self) -> None:
        from .powertools import power

        e = self._identity
        for g in self.generators:
            if self.mul(e, g) != g or self.mul(g, e) != g:
                raise VerificationFailed("identity is not a two-sided unit")
            if self.mul(self.inv(g), g) != e:
                raise VerificationFailed("inverse law fails on a generator")
            if power(self, g, self.exponent_bound) != e:
                raise InvalidBackendSpec(
                    f"exponent bound {self.exponent_bound} violated by a generator"
                )
        rng = random.Random(0x5EED)
        pool = list(self.generators)
        for _ in range(4):
            a, b = rng.choice(pool), rng.choice(pool)
            pool.append(self.mul(a, b))
        for _ in range(8):
            a, b, c = (rng.choice(pool) for _ in range(3))
            if self.mul(self.mul(a, b), c) != self.mul(a, self.mul(b, c)):
                raise VerificationFailed("associativity spot-check failed")


# --- permutation backend ------------------------------------------------------

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str) -> list[list[int]]:
    """Parse "(1 2)(3 4)" (commas or spaces) into a list of cycles."""
    text = text.strip()
    if text in ("", "()", "e", "id"):
        return []
    stripped = re.sub(r"\s+", " ", text)
    consumed = 0
    cycles = []
    for m in _CYCLE_RE.finditer(stripped):
        if stripped[consumed : m.start()].strip():
            raise InvalidBackendSpec(f"could not parse permutation {excerpt(text)}")
        consumed = m.end()
        body = m.group(1).strip()
        if body:
            try:
                cycles.append([int(tok) for tok in re.split(r"[,\s]+", body)])
            except ValueError as e:
                raise InvalidBackendSpec(f"could not parse permutation {excerpt(text)}") from e
    if stripped[consumed:].strip():
        raise InvalidBackendSpec(f"could not parse permutation {excerpt(text)}")
    return cycles


def cycles_to_images(degree: int, cycles: Iterable[Iterable[int]]) -> tuple[int, ...]:
    """Compose cycles (1-based points, applied left to right) into an image tuple."""
    try:
        point_lists = [[_to_int(x) for x in cyc] for cyc in cycles]
    except TypeError as e:
        raise InvalidBackendSpec(f"cycles must be lists of integer points, got {excerpt(cycles)}") from e
    images = list(range(degree))
    for pts in point_lists:
        if len(set(pts)) != len(pts):
            raise InvalidBackendSpec(f"repeated point in cycle {excerpt(pts)}")
        for x in pts:
            if not 1 <= x <= degree:
                raise InvalidBackendSpec(f"point {excerpt(x)} outside 1..{degree}")
        step = list(range(degree))
        for pos, x in enumerate(pts):
            step[x - 1] = pts[(pos + 1) % len(pts)] - 1
        images = [step[i] for i in images]
    return tuple(images)


def images_to_cycles(images: Sequence[int]) -> list[list[int]]:
    seen = set()
    cycles = []
    for start in range(len(images)):
        if start in seen or images[start] == start:
            continue
        cyc = [start]
        seen.add(start)
        nxt = images[start]
        while nxt != start:
            cyc.append(nxt)
            seen.add(nxt)
            nxt = images[nxt]
        cycles.append([x + 1 for x in cyc])
    return cycles


def format_cycles(images: Sequence[int]) -> str:
    cycles = images_to_cycles(images)
    if not cycles:
        return "()"
    return "".join("(" + " ".join(map(str, c)) + ")" for c in cycles)


class PermOracle(GroupOracle):
    """Permutation group of fixed degree; payloads are 0-based image tuples."""

    def __init__(
        self,
        degree: int,
        generators: Sequence[Iterable[Iterable[int]]],
        exponent: int | None = None,
        enum_cap: int = DEFAULT_ENUM_CAP,
    ):
        if not 1 <= degree <= MAX_DEGREE:
            raise InvalidBackendSpec(f"degree must be in 1..{MAX_DEGREE}, got {degree}")
        self.degree = degree
        payloads = [cycles_to_images(degree, cycs) for cycs in generators]
        super().__init__(
            f"perm:{degree}", tuple(range(degree)), payloads, exponent, enum_cap
        )

    @classmethod
    def from_images(
        cls,
        degree: int,
        image_tuples: Sequence[Sequence[int]],
        exponent: int | None = None,
        enum_cap: int = DEFAULT_ENUM_CAP,
    ) -> "PermOracle":
        if not 1 <= degree <= MAX_DEGREE:
            raise InvalidBackendSpec(f"degree must be in 1..{MAX_DEGREE}, got {degree}")
        self = cls.__new__(cls)
        self.degree = degree
        payloads = []
        for img in image_tuples:
            try:
                img = tuple(_to_int(x) for x in img)
            except TypeError as e:
                raise InvalidBackendSpec(f"image tuples must hold integers, got {excerpt(img)}") from e
            if sorted(img) != list(range(degree)):
                raise InvalidBackendSpec(f"not a permutation of 0..{degree - 1}: {excerpt(img)}")
            payloads.append(img)
        GroupOracle.__init__(
            self, f"perm:{degree}", tuple(range(degree)), payloads, exponent, enum_cap
        )
        return self

    def _mul_payload(self, pa: tuple, pb: tuple) -> tuple:
        if len(pa) < 2:  # itemgetter of one index returns a scalar, of none it raises
            return pb
        return operator.itemgetter(*pa)(pb)

    def _inv_payload(self, pa: tuple) -> tuple:
        out = [0] * len(pa)
        for i, j in enumerate(pa):
            out[j] = i
        return tuple(out)

    def element_str(self, a: Element) -> str:
        return format_cycles(a.payload)

    def parse_element(self, text: str) -> Element:
        return Element(
            self.backend_id, cycles_to_images(self.degree, parse_cycles(text))
        )


# --- matrix backend ------------------------------------------------------------


class MatrixOracle(GroupOracle):
    """Matrix group over GF(p^k); payloads are row-major field-index tuples."""

    def __init__(
        self,
        field: FieldSpec,
        dim: int,
        generators: Sequence[Sequence[Sequence[int]] | Sequence[int]],
        exponent: int | None = None,
        enum_cap: int = DEFAULT_ENUM_CAP,
    ):
        if not 1 <= dim <= MAX_DEGREE:
            raise InvalidBackendSpec(f"dimension must be in 1..{MAX_DEGREE}, got {dim}")
        self.field = field
        self.dim = dim
        # 2x2 over a field with full tables (q <= 256) multiplies and inverts
        # by table lookup; every other oracle takes the generic loops.
        self._tables = (
            (field._mul_table, field._add_table)
            if dim == 2 and field._mul_table is not None
            else None
        )
        payloads = [self._coerce_matrix(m) for m in generators]
        ident = tuple(
            1 if i == j else 0 for i in range(dim) for j in range(dim)
        )
        for p in payloads:
            self._inv_payload(p)  # raises InvalidBackendSpec on a singular generator
        super().__init__(
            f"matrix:{field.label}:{dim}", ident, payloads, exponent, enum_cap
        )

    def _coerce_matrix(self, m) -> tuple:
        d, q = self.dim, self.field.q
        try:
            rows = list(m)
            if len(rows) == d * d and all(isinstance(x, int) for x in rows):
                flat = rows
            else:
                if len(rows) != d:
                    raise InvalidBackendSpec(f"expected {d}x{d} matrix, got {excerpt(m)}")
                flat = [x for row in rows for x in row]
                if len(flat) != d * d:
                    raise InvalidBackendSpec(f"expected {d}x{d} matrix, got {excerpt(m)}")
            flat = [_to_int(x) for x in flat]
        except TypeError as e:
            raise InvalidBackendSpec(f"expected {d}x{d} matrix of integers, got {excerpt(m)}") from e
        for x in flat:
            if not 0 <= x < q:
                raise InvalidBackendSpec(f"entry {excerpt(x)} outside field of order {q}")
        return tuple(flat)

    def _mul_payload(self, pa: tuple, pb: tuple) -> tuple:
        if self._tables is not None:
            M, A = self._tables
            a, b, c, d = pa
            w, x, y, z = pb
            return (
                A[M[a][w]][M[b][y]], A[M[a][x]][M[b][z]],
                A[M[c][w]][M[d][y]], A[M[c][x]][M[d][z]],
            )
        F, d = self.field, self.dim
        fmul, fadd = F.mul, F.add
        out = []
        for i in range(d):
            ro = i * d
            for j in range(d):
                acc = 0
                for m in range(d):
                    acc = fadd(acc, fmul(pa[ro + m], pb[m * d + j]))
                out.append(acc)
        return tuple(out)

    def _inv_payload(self, pa: tuple) -> tuple:
        if self._tables is not None:  # adjugate: det^-1 * [[d, -b], [-c, a]]
            M, A = self._tables
            neg = M[self.field.p - 1]  # multiplication by -1, index p - 1 in every GF(p^k)
            a, b, c, d = pa
            det = A[M[a][d]][neg[M[b][c]]]
            if det == 0:
                raise InvalidBackendSpec("matrix is singular")
            s = M[self.field.inv(det)]
            return (s[d], neg[s[b]], neg[s[c]], s[a])
        F, d = self.field, self.dim
        a = [list(pa[i * d : (i + 1) * d]) for i in range(d)]
        b = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
        for col in range(d):
            piv = next((r for r in range(col, d) if a[r][col] != 0), None)
            if piv is None:
                raise InvalidBackendSpec("matrix is singular")
            a[col], a[piv] = a[piv], a[col]
            b[col], b[piv] = b[piv], b[col]
            s = F.inv(a[col][col])
            a[col] = [F.mul(s, x) for x in a[col]]
            b[col] = [F.mul(s, x) for x in b[col]]
            for r in range(d):
                if r != col and a[r][col] != 0:
                    f = a[r][col]
                    a[r] = [F.sub(x, F.mul(f, y)) for x, y in zip(a[r], a[col])]
                    b[r] = [F.sub(x, F.mul(f, y)) for x, y in zip(b[r], b[col])]
        return tuple(x for row in b for x in row)

    def rows(self, a: Element) -> list[list[int]]:
        d = self.dim
        return [list(a.payload[i * d : (i + 1) * d]) for i in range(d)]

    def element_str(self, a: Element) -> str:
        return json.dumps(self.rows(a))

    def parse_element(self, text: str) -> Element:
        try:  # bad JSON, an over-long integer, too deep a nesting
            data = json.loads(text)
        except (ValueError, RecursionError) as e:
            raise InvalidBackendSpec(f"could not parse matrix {excerpt(text)}: {e}") from e
        payload = self._coerce_matrix(data)
        self._inv_payload(payload)  # raises InvalidBackendSpec on a singular matrix
        return Element(self.backend_id, payload)


# --- moebius backend -------------------------------------------------------------


def moebius_oracle(
    n: int,
    poly: Sequence[int] | None = None,
    exponent: int | None = None,
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> PermOracle:
    """Fractional-linear action of SL2(2^n) on the 2^n + 1 projective points.

    Points are ordered [infinity, 0, w, w^2, ..., w^(2^n - 1)] for the
    field's primitive element w; the generators are z -> z + 1, z -> w*z
    and z -> 1/z, which generate the full group of maps
    z -> (a*z + b)/(c*z + d) with nonzero determinant.
    """
    if n < 2:
        raise InvalidBackendSpec("moebius backend needs n >= 2")
    field = FieldSpec(2, n, poly)
    q = field.q
    inf = q  # sentinel for the point at infinity
    points = [inf, 0] + [field.primitive_power(m) for m in range(1, q)]
    pos = {pt: idx for idx, pt in enumerate(points)}

    def apply(a: int, b: int, c: int, d: int, z: int) -> int:
        if z == inf:
            return inf if c == 0 else field.mul(a, field.inv(c))
        num = field.add(field.mul(a, z), b)
        den = field.add(field.mul(c, z), d)
        if den == 0:
            return inf
        return field.mul(num, field.inv(den))

    w = field.primitive
    maps = [(1, 1, 0, 1), (w, 0, 0, 1), (0, 1, 1, 0)]
    images = [
        tuple(pos[apply(a, b, c, d, pt)] for pt in points) for (a, b, c, d) in maps
    ]
    oracle = PermOracle.from_images(q + 1, images, exponent=exponent, enum_cap=enum_cap)
    oracle.moebius_n = n
    oracle.field = field
    return oracle


# --- backend specs / files ----------------------------------------------------------


def build_backend(spec: dict, enum_cap: int = DEFAULT_ENUM_CAP) -> GroupOracle:
    """Build an oracle from a parsed group-specification object.

    Schema: {"backend": "perm"|"matrix"|"moebius",
             "degree"|"dim"|"n": int,
             "field": {"p": int, "k": int, "poly": [ints]}?,
             "generators": [...],
             "exponent": int?}
    """
    if not isinstance(spec, dict):
        raise InvalidBackendSpec("group specification must be a JSON object")
    kind = spec.get("backend")
    exponent = spec.get("exponent")
    if exponent is not None and (not _is_int(exponent) or exponent < 1):
        raise InvalidBackendSpec(f"exponent must be a positive integer, got {excerpt(exponent)}")
    if kind == "perm":
        degree = spec.get("degree")
        if not _is_int(degree):
            raise InvalidBackendSpec("perm backend needs an integer 'degree'")
        gens = spec.get("generators")
        if not isinstance(gens, list):
            raise InvalidBackendSpec("perm backend needs a 'generators' array of cycle lists")
        return PermOracle(degree, gens, exponent, enum_cap)
    if kind == "matrix":
        dim = spec.get("dim")
        if not _is_int(dim):
            raise InvalidBackendSpec("matrix backend needs an integer 'dim'")
        fld = spec.get("field")
        if not isinstance(fld, dict) or "p" not in fld:
            raise InvalidBackendSpec("matrix backend needs a 'field' object with p (and k, poly)")
        if not (_is_int(fld["p"]) and _is_int(fld.get("k", 1))):
            raise InvalidBackendSpec("matrix backend needs integer field p and k")
        field = FieldSpec(fld["p"], fld.get("k", 1), _field_poly(fld))
        gens = spec.get("generators")
        if not isinstance(gens, list):
            raise InvalidBackendSpec("matrix backend needs a 'generators' array of matrices")
        return MatrixOracle(field, dim, gens, exponent, enum_cap)
    if kind == "moebius":
        n = spec.get("n")
        if not _is_int(n):
            raise InvalidBackendSpec("moebius backend needs an integer 'n'")
        fld = spec.get("field") or {}
        if not isinstance(fld, dict):
            raise InvalidBackendSpec("moebius 'field' must be an object with poly")
        return moebius_oracle(n, _field_poly(fld), exponent, enum_cap)
    raise InvalidBackendSpec(f"unknown backend {excerpt(kind)}")


def _is_int(value) -> bool:
    """A JSON integer: bool is an int subclass in Python, but not a number here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _to_int(value) -> int:
    """An integer entry as int, never coerced: floats, strings and bool raise TypeError."""
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is not an integer")
    return operator.index(value)


def _field_poly(fld: dict) -> list[int] | None:
    """The field object's optional poly, checked to be a list of integers."""
    poly = fld.get("poly")
    if poly is not None and not (isinstance(poly, list) and all(_is_int(c) for c in poly)):
        raise InvalidBackendSpec(f"field poly must be a list of integers, got {excerpt(poly)}")
    return poly


def load_group_spec(path: str, enum_cap: int = DEFAULT_ENUM_CAP) -> GroupOracle:
    """Read a group-specification JSON file and build its oracle."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    except OSError as e:
        raise InvalidBackendSpec(f"cannot read {path}: {e}") from e
    except (ValueError, RecursionError) as e:  # bad JSON, UTF-8 or nesting, an over-long integer
        raise InvalidBackendSpec(f"invalid JSON in {path}: {e}") from e
    return build_backend(spec, enum_cap)
