"""The matrix backend's products and inverses against schoolbook arithmetic.

2x2 matrices over a field with full tables (q <= 256) multiply and invert by
table lookup; every other dimension or field takes the generic loops.  Both
are checked here against a test-local product written with F.mul / F.add,
and GF(2^10) also against one written with the table-free F._raw_mul and
coefficient-wise sums.
"""

import random

import pytest

from bbgroups import Element, FieldSpec, MatrixOracle, conjugate_by_sqrt, double_conjugation
from bbgroups.errors import EvenOrderInput, InvalidBackendSpec

from conftest import make_sl2_3, make_sl2_8

GF256_POLY = [1, 0, 1, 1, 1, 0, 0, 0, 1]  # x^8 + x^4 + x^3 + x^2 + 1
GF9_POLY = [1, 0, 1]  # x^2 + 1
GF1024_POLY = [1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1]  # x^10 + x^3 + 1


def schoolbook(F, d, pa, pb):
    """Row-major d x d product over F, one F.mul and F.add per term."""
    out = []
    for i in range(d):
        for j in range(d):
            acc = 0
            for m in range(d):
                acc = F.add(acc, F.mul(pa[i * d + m], pb[m * d + j]))
            out.append(acc)
    return tuple(out)


def schoolbook_det2(F, p):
    return F.sub(F.mul(p[0], p[3]), F.mul(p[1], p[2]))


def identity(d):
    return tuple(1 if i == j else 0 for i in range(d) for j in range(d))


def make_sl2_4():
    F = FieldSpec(2, 2)
    w = F.primitive
    return MatrixOracle(F, 2, [[[1, 1], [0, 1]], [[w, 0], [0, F.inv(w)]], [[0, 1], [1, 0]]])


def make_gl3_2():
    F = FieldSpec(2)
    return MatrixOracle(F, 3, [[[1, 1, 0], [0, 1, 0], [0, 0, 1]], [[0, 0, 1], [1, 0, 0], [0, 1, 0]]])


@pytest.mark.parametrize("make, order", [(make_sl2_3, 24), (make_sl2_4, 60)])
def test_product_matches_schoolbook_on_every_pair(make, order):
    oracle = make()
    payloads = [x.payload for x in oracle.enumerate()]
    assert len(payloads) == order
    for pa in payloads:
        for pb in payloads:
            assert oracle._mul_payload(pa, pb) == schoolbook(oracle.field, 2, pa, pb)


@pytest.mark.parametrize(
    "field",
    [FieldSpec(2, 8, GF256_POLY), FieldSpec(3, 2, GF9_POLY)],
    ids=["GL2(256)", "GL2(9)"],
)
def test_product_and_inverse_match_schoolbook_on_random_pairs(field):
    q = field.q
    oracle = MatrixOracle(field, 2, [[[1, 1], [0, 1]]], exponent=field.p)
    rng = random.Random(20_000 + q)

    def invertible():
        while True:
            p = tuple(rng.randrange(q) for _ in range(4))
            if schoolbook_det2(field, p) != 0:
                return p

    for _ in range(2000):
        pa, pb = invertible(), invertible()
        assert oracle._mul_payload(pa, pb) == schoolbook(field, 2, pa, pb)
        inv = oracle._inv_payload(pa)
        assert schoolbook(field, 2, pa, inv) == identity(2)


def test_inverse_on_every_element_of_sl2_8():
    oracle = make_sl2_8()
    F, e = oracle.field, oracle.identity()
    elements = oracle.enumerate()
    assert len(elements) == 504
    for a in elements:
        ai = oracle.inv(a)
        assert oracle.mul(a, ai) == e and oracle.mul(ai, a) == e
        assert schoolbook(F, 2, a.payload, ai.payload) == identity(2)
        assert schoolbook(F, 2, ai.payload, a.payload) == identity(2)


def test_singular_2x2_over_gf8_is_refused():
    F = FieldSpec(2, 3)
    w = F.primitive
    singular = [[w, F.mul(w, w)], [1, w]]  # second row is w^-1 times the first
    assert schoolbook_det2(F, [x for row in singular for x in row]) == 0
    with pytest.raises(InvalidBackendSpec, match="matrix is singular"):
        MatrixOracle(F, 2, [[[1, 1], [0, 1]], singular])
    oracle = make_sl2_8()
    with pytest.raises(InvalidBackendSpec, match="matrix is singular"):
        oracle.parse_element(str(singular))
    with pytest.raises(InvalidBackendSpec, match="matrix is singular"):
        oracle.parse_element("[[0, 0], [0, 0]]")


def test_dim_1_group_takes_the_generic_path():
    F = FieldSpec(7)
    oracle = MatrixOracle(F, 1, [[[3]]])  # 3 generates GF(7)*
    assert oracle.order() == 6 and oracle.exponent_bound == 6
    elements = oracle.enumerate()
    assert sorted(x.payload for x in elements) == [(a,) for a in range(1, 7)]
    for a in elements:
        assert oracle.inv(a).payload == (F.inv(a.payload[0]),)
        for b in elements:
            assert oracle.mul(a, b).payload == (F.mul(a.payload[0], b.payload[0]),)
    with pytest.raises(InvalidBackendSpec, match="matrix is singular"):
        MatrixOracle(F, 1, [[[0]]])


def test_dim_3_group_takes_the_generic_path():
    oracle = make_gl3_2()
    F, e = oracle.field, oracle.identity()
    elements = oracle.enumerate()
    assert len(elements) == 168 and oracle.exponent_bound == 84
    for a in elements:
        ai = oracle.inv(a)
        assert oracle.mul(a, ai) == e
        assert schoolbook(F, 3, a.payload, ai.payload) == identity(3)
    rng = random.Random(168)
    for _ in range(2000):
        a, b = rng.choice(elements), rng.choice(elements)
        assert oracle.mul(a, b).payload == schoolbook(F, 3, a.payload, b.payload)
    with pytest.raises(InvalidBackendSpec, match="matrix is singular"):
        oracle.parse_element("[[1, 1, 0], [1, 1, 0], [0, 0, 1]]")


def make_sl2_1024():
    F = FieldSpec(2, 10, GF1024_POLY)
    w = F.primitive
    gens = [[[1, 1], [0, 1]], [[1, 0], [1, 1]], [[w, 0], [0, F.inv(w)]]]
    return MatrixOracle(F, 2, gens, exponent=2 * (1024**2 - 1))


def raw_add(F, x, y):
    return F.from_coeffs([u + v for u, v in zip(F.coeffs(x), F.coeffs(y))])


def raw_schoolbook2(F, pa, pb):
    """2x2 product from F._raw_mul and coefficient-wise sums: no table, no F.add."""
    m = F._raw_mul
    a, b, c, d = pa
    w, x, y, z = pb
    return (
        raw_add(F, m(a, w), m(b, y)), raw_add(F, m(a, x), m(b, z)),
        raw_add(F, m(c, w), m(d, y)), raw_add(F, m(c, x), m(d, z)),
    )


def test_gf1024_products_and_inverses_match_raw_arithmetic():
    oracle = make_sl2_1024()
    F, bid = oracle.field, oracle.backend_id
    assert F._mul_table is None and F._add_table is None
    rng = random.Random(1024)

    def invertible():
        while True:
            p = tuple(rng.randrange(F.q) for _ in range(4))
            if raw_add(F, F._raw_mul(p[0], p[3]), F._raw_mul(p[1], p[2])):  # det, as -1 = 1
                return Element(bid, p)

    before = oracle.mult_counter.total
    for _ in range(400):
        a, b = invertible(), invertible()
        assert oracle.mul(a, b).payload == raw_schoolbook2(F, a.payload, b.payload)
        ai = oracle.inv(a).payload
        assert raw_schoolbook2(F, a.payload, ai) == identity(2)
        assert raw_schoolbook2(F, ai, a.payload) == identity(2)
    assert oracle.mult_counter.total - before == 400  # one per product, none per inverse


def test_gf1024_tricks_mult_count_is_pinned():
    """Square-root conjugation and double conjugation of transvection
    conjugates in SL2(1024), on fixed inputs: the same answers cost exactly
    the same muls whatever the field addition does inside a product."""
    oracle = make_sl2_1024()
    rng = random.Random(1024)
    t0 = Element(oracle.backend_id, (1, 1, 0, 1))

    def conjugator():
        x = oracle.identity()
        for _ in range(6):
            x = oracle.mul(x, rng.choice(oracle.generators))
        return x

    before = oracle.mult_counter.total
    answers, even = 0, 0
    for _ in range(20):
        i, j, r, s = (oracle.conjugate(t0, conjugator()) for _ in range(4))
        for op, args in ((conjugate_by_sqrt, (i, j)), (double_conjugation, (i, r, s))):
            try:
                op(oracle, *args)  # verifies i^y == j, or t^b == s, itself
                answers += 1
            except EvenOrderInput:
                even += 1
    assert (answers, even) == (36, 4)
    assert oracle.mult_counter.total - before == 2091
