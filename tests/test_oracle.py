import json

import pytest
from hypothesis import given, settings, strategies as st

from bbgroups import (
    Element,
    FieldSpec,
    MatrixOracle,
    PermOracle,
    build_backend,
    load_group_spec,
    moebius_oracle,
    power,
)
from bbgroups.errors import (
    BackendMismatch,
    EnumerationCapExceeded,
    InvalidBackendSpec,
    InvalidField,
)
from bbgroups.oracle import MAX_DEGREE, cycles_to_images, format_cycles, parse_cycles
from bbgroups.subgroups import all_sylow2, is_three_transitive

from conftest import make_s3, make_s4


def compose_cycles(degree, *cycle_strs):
    """Independent oracle: apply cycle products left to right on a dict."""
    mapping = {x: x for x in range(1, degree + 1)}
    for text in cycle_strs:
        step = {x: x for x in range(1, degree + 1)}
        for cyc in parse_cycles(text):
            for pos, x in enumerate(cyc):
                step[x] = cyc[(pos + 1) % len(cyc)]
        mapping = {x: step[mapping[x]] for x in mapping}
    return mapping


def as_mapping(oracle, a):
    return {x + 1: a.payload[x] + 1 for x in range(len(a.payload))}


def test_mul_matches_direct_cycle_composition(s3):
    a = s3.parse_element("(1 2)")
    b = s3.parse_element("(2 3)")
    prod = s3.mul(a, b)
    assert as_mapping(s3, prod) == compose_cycles(3, "(1 2)", "(2 3)")
    assert s3.element_str(prod) == "(1 3 2)"


def test_identity_laws(s3):
    e = s3.identity()
    for a in s3.enumerate():
        assert s3.mul(e, a) == a
        assert s3.mul(a, e) == a


def test_inverse_examples(s3, sl2_3):
    assert s3.element_str(s3.inv(s3.parse_element("(1 2 3)"))) == "(1 3 2)"
    assert s3.inv(s3.identity()) == s3.identity()
    u = sl2_3.parse_element("[[1, 1], [0, 1]]")
    assert sl2_3.element_str(sl2_3.inv(u)) == "[[1, 2], [0, 1]]"
    for a in sl2_3.enumerate():
        assert sl2_3.mul(sl2_3.inv(a), a) == sl2_3.identity()


def test_unipotent_matrix_square(sl2_3):
    u = sl2_3.parse_element("[[1, 1], [0, 1]]")
    assert sl2_3.element_str(sl2_3.mul(u, u)) == "[[1, 2], [0, 1]]"


def test_is_identity(s3):
    assert s3.is_identity(s3.identity())
    assert not s3.is_identity(s3.parse_element("(1 2)"))
    f8 = FieldSpec(2, 3)
    m = MatrixOracle(f8, 2, [[[1, 1], [0, 1]]])
    assert m.is_identity(m.parse_element("[[1, 0], [0, 1]]"))


def test_backend_mismatch_rejected(s3, s4):
    with pytest.raises(BackendMismatch):
        s3.mul(s3.identity(), s4.identity())


def test_enumerate_counts(s3, sl2_3, moebius2, moebius3):
    assert len(s3.enumerate()) == 6
    assert len(sl2_3.enumerate()) == 24
    assert len(moebius2.enumerate()) == 60
    assert len(moebius3.enumerate(1000)) == 504


def test_enumerate_cap_exceeded():
    s3 = make_s3()
    with pytest.raises(EnumerationCapExceeded):
        s3.enumerate(4)
    s3.enumerate(100)  # cache fills
    with pytest.raises(EnumerationCapExceeded):
        s3.enumerate(4)  # still errors once cached


def test_enumeration_sorted_and_distinct(s4):
    elems = s4.enumerate()
    payloads = [a.payload for a in elems]
    assert payloads == sorted(payloads)
    assert len(set(payloads)) == len(payloads)


def test_canonical_soundness(s4, sl2_3):
    # permutations: payload equality iff identical action on points
    for a in s4.enumerate():
        for b in s4.enumerate():
            same_action = all(a.payload[i] == b.payload[i] for i in range(4))
            assert (a.payload == b.payload) == same_action
    # matrices: distinct payloads are entrywise distinct by construction
    assert len({a.payload for a in sl2_3.enumerate()}) == 24


def test_exponent_contract_all_elements(s3, s4, d8, sl2_3, moebius2):
    for oracle in (s3, s4, d8, sl2_3, moebius2):
        e = oracle.identity()
        for x in oracle.enumerate():
            assert power(oracle, x, oracle.exponent_bound) == e


def test_exponent_multiple_accepted():
    oracle = PermOracle(3, [[[1, 2]], [[1, 2, 3]]], exponent=12)
    assert oracle.exponent_bound == 12
    assert oracle.order() == 6


def test_bad_exponent_rejected():
    with pytest.raises(InvalidBackendSpec):
        PermOracle(3, [[[1, 2]], [[1, 2, 3]]], exponent=4)  # (1 2 3)^4 != e


def test_moebius_point_count_and_transitivity(moebius2, moebius3):
    assert moebius2.degree == 5
    assert moebius3.degree == 9
    for oracle in (moebius2, moebius3):
        images = [g.payload for g in oracle.generators]
        assert is_three_transitive(images, oracle.degree)


def test_moebius_sylow_ti(moebius2, moebius3):
    for oracle, n in ((moebius2, 2), (moebius3, 3)):
        sylows = all_sylow2(oracle)
        assert len(sylows) == 2**n + 1
        ident = oracle.identity().payload
        for i in range(len(sylows)):
            for j in range(i + 1, len(sylows)):
                assert sylows[i] & sylows[j] == {ident}


def test_moebius_requires_n_at_least_2():
    with pytest.raises(InvalidBackendSpec):
        moebius_oracle(1)


def test_cycle_parsing_roundtrip():
    for text in ("()", "(1 2)", "(1 2)(3 4)", "(1 3 2 4)", "(1 2 3)"):
        img = cycles_to_images(4, parse_cycles(text))
        assert format_cycles(img) == text
    assert parse_cycles("(1, 2) (3, 4)") == [[1, 2], [3, 4]]
    with pytest.raises(InvalidBackendSpec):
        parse_cycles("(1 2")
    with pytest.raises(InvalidBackendSpec):
        cycles_to_images(3, [[1, 5]])
    with pytest.raises(InvalidBackendSpec):
        cycles_to_images(3, [[1, 1]])


def test_build_backend_perm():
    oracle = build_backend(
        {"backend": "perm", "degree": 3, "generators": [[[1, 2]], [[1, 2, 3]]]}
    )
    assert oracle.order() == 6


def test_build_backend_matrix():
    oracle = build_backend(
        {
            "backend": "matrix",
            "dim": 2,
            "field": {"p": 3, "k": 1},
            "generators": [[[1, 1], [0, 1]], [[1, 0], [1, 1]]],
        }
    )
    assert oracle.order() == 24


def test_build_backend_moebius():
    oracle = build_backend({"backend": "moebius", "n": 2})
    assert oracle.order() == 60
    assert oracle.moebius_n == 2


def test_build_backend_errors():
    with pytest.raises(InvalidBackendSpec):
        build_backend({"backend": "nope"})
    with pytest.raises(InvalidBackendSpec):
        build_backend({"backend": "perm", "degree": 3})
    with pytest.raises(InvalidBackendSpec):
        build_backend(
            {
                "backend": "matrix",
                "dim": 2,
                "field": {"p": 3},
                "generators": [[[1, 1], [2, 2]]],  # determinant zero
            }
        )
    with pytest.raises(InvalidField):
        build_backend(
            {
                "backend": "matrix",
                "dim": 2,
                "field": {"p": 2, "k": 2, "poly": [1, 0, 1]},  # reducible
                "generators": [[[1, 0], [0, 1]]],
            }
        )
    with pytest.raises(InvalidBackendSpec):
        build_backend({"backend": "perm", "degree": 3, "generators": []})


@pytest.mark.parametrize(
    "degree, images, message",
    [
        (2, [(1.0, 0)], "integers"),
        (2, [("1", 0)], "integers"),
        (2, [(True, False)], "integers"),
        (0, [()], "degree"),
        (MAX_DEGREE + 1, [()], "degree"),
    ],
)
def test_from_images_rejects_malformed_input(degree, images, message):
    with pytest.raises(InvalidBackendSpec, match=message):
        PermOracle.from_images(degree, images)


def test_load_group_spec(tmp_path):
    path = tmp_path / "s3.json"
    path.write_text(
        json.dumps(
            {"backend": "perm", "degree": 3, "generators": [[[1, 2]], [[1, 2, 3]]]}
        )
    )
    oracle = load_group_spec(str(path))
    assert oracle.order() == 6
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(InvalidBackendSpec):
        load_group_spec(str(bad))


def test_supplied_exponent_skips_enumeration_cost():
    oracle = moebius_oracle(2, exponent=30)
    assert oracle.exponent_bound == 30
    assert oracle.order() == 60


def test_exponent_computation_respects_enum_cap():
    # computing the exact exponent needs the enumeration, which the cap blocks
    with pytest.raises(EnumerationCapExceeded):
        PermOracle(3, [[[1, 2]], [[1, 2, 3]]], enum_cap=4)
    PermOracle(3, [[[1, 2]], [[1, 2, 3]]], exponent=6, enum_cap=4)  # supplied E avoids it


def test_mult_counter_counts_only_mul(s3):
    a = s3.parse_element("(1 2 3)")
    before = s3.mult_counter.total
    s3.inv(a)
    s3.is_identity(a)
    assert s3.mult_counter.total == before
    s3.mul(a, a)
    assert s3.mult_counter.total == before + 1


def test_mul_results_are_elements(s3, sl2_3):
    for oracle in (s3, sl2_3):
        a = oracle.generators[0]
        for b in (oracle.mul(a, a), oracle.inv(a)):
            assert type(b) is Element and b.backend_id == oracle.backend_id
            assert b == Element(oracle.backend_id, b.payload)


@pytest.mark.parametrize(
    "cycles",
    [[[1, 10**5000]], [[1, -(10**5000)]], [[1, 2], [3, 10**4400]]],
    ids=["5001-digits", "negative", "second-cycle"],
)
def test_point_past_the_int_text_limit_is_invalid_spec(cycles):
    # repr of an int of more than 4,300 digits raises ValueError; the
    # message names the integer by its size instead
    with pytest.raises(InvalidBackendSpec, match=r"point <int of \d+ bits> outside 1\.\.4"):
        cycles_to_images(4, cycles)


_S4_SHARED = make_s4()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 23), st.integers(0, 23), st.integers(0, 23))
def test_associativity_property(i, j, k):
    oracle = _S4_SHARED
    elems = oracle.enumerate()
    a, b, c = elems[i], elems[j], elems[k]
    assert oracle.mul(oracle.mul(a, b), c) == oracle.mul(a, oracle.mul(b, c))
