import random

import pytest
from hypothesis import given, strategies as st

from bbgroups.errors import InvalidField
from bbgroups.gf import DEFAULT_POLYS, FieldSpec, is_irreducible, is_prime


def test_prime_checks():
    assert [is_prime(n) for n in (2, 3, 5, 7, 11)] == [True] * 5
    assert [is_prime(n) for n in (0, 1, 4, 9, 91)] == [False] * 5


def test_default_polys_are_irreducible():
    for (p, k), poly in DEFAULT_POLYS.items():
        assert is_irreducible(poly, p)
        FieldSpec(p, k)  # constructs without complaint


def test_reducible_poly_rejected():
    with pytest.raises(InvalidField):
        FieldSpec(2, 2, [1, 0, 1])  # x^2 + 1 == (x + 1)^2 over GF(2)
    with pytest.raises(InvalidField):
        FieldSpec(3, 2, [2, 0, 1])  # x^2 + 2 == (x+1)(x+2) over GF(3)


def test_non_prime_characteristic_rejected():
    with pytest.raises(InvalidField):
        FieldSpec(4)
    with pytest.raises(InvalidField):
        FieldSpec(6, 1)


def test_non_monic_rejected():
    with pytest.raises(InvalidField):
        FieldSpec(2, 3, [1, 1, 0, 0])


def test_table_limit():
    with pytest.raises(InvalidField):
        FieldSpec(2, 17)
    with pytest.raises(InvalidField):
        FieldSpec(2, 10**6)  # refused before p**k is built
    with pytest.raises(InvalidField):
        FieldSpec(2**61 - 1, 1)  # refused before trial division


@pytest.mark.parametrize(
    "p,k,poly",
    [
        (2, 1, None),
        (5, 1, None),
        (2, 4, None),
        (3, 2, [1, 0, 1]),
        (2, 7, [1, 1, 0, 0, 0, 0, 0, 1]),
        (2, 2, None),
        (2, 3, None),
        (2, 8, [1, 0, 1, 1, 1, 0, 0, 0, 1]),  # x^8 + x^4 + x^3 + x^2 + 1
    ],
)
def test_full_tables_match_polynomial_arithmetic(p, k, poly):
    f = FieldSpec(p, k, poly)
    q = f.q
    assert f._mul_table == [[f._raw_mul(a, b) for b in range(q)] for a in range(q)]
    assert f._add_table == [
        [f.from_coeffs([x + y for x, y in zip(f.coeffs(a), f.coeffs(b))]) for b in range(q)]
        for a in range(q)
    ]
    assert [[f.add(a, b) for b in range(q)] for a in range(q)] == f._add_table


@pytest.mark.parametrize(
    "p,k,poly",
    [
        (2, 9, [1, 0, 0, 0, 1, 0, 0, 0, 0, 1]),  # x^9 + x^4 + 1
        (2, 10, [1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1]),  # x^10 + x^3 + 1
        (3, 6, [2, 1, 0, 0, 0, 0, 1]),  # x^6 + x + 2
        (17, 2, [3, 0, 1]),  # x^2 + 3
    ],
)
def test_add_sub_neg_past_the_tables_match_coefficient_sums(p, k, poly):
    f = FieldSpec(p, k, poly)
    q = f.q
    assert f._add_table is None
    rng = random.Random(q)
    pairs = [(0, 0), (0, q - 1), (q - 1, 1), (q - 1, q - 1)]
    pairs += [(rng.randrange(q), rng.randrange(q)) for _ in range(3000)]
    for a, b in pairs:
        ca, cb = f.coeffs(a), f.coeffs(b)
        assert f.add(a, b) == f.from_coeffs([x + y for x, y in zip(ca, cb)])
        assert f.sub(a, b) == f.from_coeffs([x - y for x, y in zip(ca, cb)])
        assert f.neg(a) == f.from_coeffs([-x for x in ca])


@pytest.mark.parametrize(
    "p,k,poly",
    [(2, 1, None), (3, 1, None), (2, 2, None), (2, 3, None), (5, 1, None), (3, 2, [1, 0, 1])],
)
def test_field_axioms_exhaustive(p, k, poly):
    f = FieldSpec(p, k, poly)
    q = f.q
    for a in range(q):
        for b in range(q):
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in range(q):
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    for a in range(1, q):
        assert f.mul(a, f.inv(a)) == 1
    for a in range(q):
        assert f.add(a, f.neg(a)) == 0
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a


def test_inverses_all_elements_gf256():
    f = FieldSpec(2, 8, [1, 0, 1, 1, 1, 0, 0, 0, 1])
    for a in range(1, f.q):
        assert f.mul(a, f.inv(a)) == 1


def test_primitive_element_generates():
    f = FieldSpec(2, 4)
    seen = set()
    x = 1
    for _ in range(f.q - 1):
        seen.add(x)
        x = f.mul(x, f.primitive)
    assert seen == set(range(1, f.q))


def test_coeff_packing_roundtrip():
    f = FieldSpec(3, 2, [1, 0, 1])
    for a in range(f.q):
        assert f.from_coeffs(f.coeffs(a)) == a
    assert f.coeffs(0) == (0, 0)
    assert f.coeffs(1) == (1, 0)


def test_gf2_edge_case():
    f = FieldSpec(2)
    assert f.mul(1, 1) == 1
    assert f.add(1, 1) == 0
    assert f.inv(1) == 1


def test_zero_inverse_raises():
    f = FieldSpec(2, 3)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


_GF16 = FieldSpec(2, 4)


@given(st.integers(0, 15), st.integers(0, 15), st.integers(0, 15))
def test_gf16_ring_laws_property(a, b, c):
    assert _GF16.mul(_GF16.mul(a, b), c) == _GF16.mul(a, _GF16.mul(b, c))
    assert _GF16.mul(a, _GF16.add(b, c)) == _GF16.add(_GF16.mul(a, b), _GF16.mul(a, c))


def test_pow_matches_repeated_mul():
    f = FieldSpec(2, 3)
    for a in range(1, f.q):
        acc = 1
        for e in range(10):
            assert f.pow(a, e) == acc
            acc = f.mul(acc, a)
