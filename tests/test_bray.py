import pytest

from bbgroups import (
    centralizer_closure_check,
    centralizer_sample,
    element_order,
    seed_cell,
    zeta,
    zeta_distribution_audit,
)
from bbgroups.errors import NotAnInvolution, VerificationFailed
from bbgroups.subgroups import centralizer, involutions

from conftest import make_cyclic


def test_zeta_worked_example_s3(s3):
    i = s3.parse_element("(1 2)")
    x = s3.parse_element("(1 2 3)")
    out = zeta(s3, i, x)
    assert out.branch == "odd"
    assert out.value == s3.identity()
    assert out.value in set(centralizer(s3, i))


def test_zeta_at_the_involution_itself(s3):
    i = s3.parse_element("(1 2)")
    out = zeta(s3, i, i)
    assert out.branch == "odd"
    assert out.value == i  # z = i*i^i = e, zeta1 = e * i^-1 = i


def test_zeta_even_branch_d8(d8):
    i = d8.parse_element("(2 4)")
    g = d8.parse_element("(1 2 3 4)")
    out = zeta(d8, i, g)
    assert out.branch == "even"
    assert out.value == d8.parse_element("(1 3)(2 4)")  # the central involution g^2


def test_zeta_rejects_non_involutions(s3):
    with pytest.raises(NotAnInvolution):
        zeta(s3, s3.identity(), s3.identity())
    with pytest.raises(NotAnInvolution):
        zeta(s3, s3.parse_element("(1 2 3)"), s3.identity())


def test_zeta_branch_matches_witness_parity(s4):
    exp = s4.exponent_data
    i = s4.parse_element("(1 2)(3 4)")
    for x in s4.enumerate():
        out = zeta(s4, i, x, exp)
        z = s4.mul(i, s4.conjugate(i, x))
        parity = "odd" if element_order(s4, z) % 2 == 1 else "even"
        assert out.branch == parity
        if out.branch == "even":
            assert element_order(s4, out.value) == 2


def test_zeta_membership_exhaustive_small(s3, s4, d8, sl2_3):
    for oracle in (s3, s4, d8, sl2_3):
        exp = oracle.exponent_data
        for i in involutions(oracle):
            cent = set(centralizer(oracle, i))
            for x in oracle.enumerate():
                assert zeta(oracle, i, x, exp).value in cent


def zeta_branches(oracle, i, exp):
    odd, even = [], []
    for x in oracle.enumerate():
        out = zeta(oracle, i, x, exp)
        (odd if out.branch == "odd" else even).append((x, out.value))
    return odd, even


def test_branch_domains_closed_under_centralizer(s4, d8):
    for oracle in (s4, d8):
        exp = oracle.exponent_data
        for i in involutions(oracle):
            cent = centralizer(oracle, i)
            odd, even = zeta_branches(oracle, i, exp)
            odd_dom = {x for x, _ in odd}
            even_dom = {x for x, _ in even}
            for c in cent:
                for x in odd_dom:
                    assert oracle.mul(c, x) in odd_dom
                for x in even_dom:
                    assert oracle.mul(x, c) in even_dom


def test_zeta1_left_equivariance(s4, d8):
    # zeta1(c*x) == zeta1(x) * c^-1 for centralizer members c
    for oracle in (s4, d8):
        exp = oracle.exponent_data
        for i in involutions(oracle):
            cent = centralizer(oracle, i)
            odd, _ = zeta_branches(oracle, i, exp)
            for c in cent:
                cinv = oracle.inv(c)
                for x, val in odd:
                    lhs = zeta(oracle, i, oracle.mul(c, x), exp)
                    assert lhs.branch == "odd"
                    assert lhs.value == oracle.mul(val, cinv)


def test_zeta0_right_equivariance(s4, d8):
    # zeta0(x*c) == zeta0(x)^c for centralizer members c
    for oracle in (s4, d8):
        exp = oracle.exponent_data
        for i in involutions(oracle):
            cent = centralizer(oracle, i)
            _, even = zeta_branches(oracle, i, exp)
            for c in cent:
                for x, val in even:
                    rhs = zeta(oracle, i, oracle.mul(x, c), exp)
                    assert rhs.branch == "even"
                    assert rhs.value == oracle.conjugate(val, c)


def test_distribution_audit_s4(s4):
    i = s4.parse_element("(1 2)(3 4)")
    report = zeta_distribution_audit(s4, i)
    assert report.centralizer_order == 8
    assert report.zeta1_constant
    assert set(report.zeta1_counts.values()) == {report.odd_domain_size // 8}
    assert report.zeta0_class_constant
    assert report.odd_domain_size + report.even_domain_size == 24


def test_distribution_audit_a5(a5):
    i = a5.parse_element("(1 2)(3 4)")
    report = zeta_distribution_audit(a5, i)
    assert report.centralizer_order == 4  # Klein four group
    assert report.zeta1_constant
    assert set(report.zeta1_counts.values()) == {report.odd_domain_size // 4}
    assert report.zeta0_class_constant


def test_distribution_audit_c2():
    c2 = make_cyclic(2)
    i = c2.generators[0]
    report = zeta_distribution_audit(c2, i)
    assert report.odd_domain_size == 2
    assert report.even_domain_size == 0
    assert set(report.zeta1_counts.values()) == {1}
    assert report.zeta1_constant


def test_centralizer_sample_lands_in_known_centralizer(s4):
    i = s4.parse_element("(1 2)(3 4)")
    # brute-force centralizer of (1 2)(3 4) in S4, frozen from first principles
    known = {
        "()",
        "(1 2)",
        "(3 4)",
        "(1 2)(3 4)",
        "(1 3 2 4)",
        "(1 4 2 3)",
        "(1 3)(2 4)",
        "(1 4)(2 3)",
    }
    assert {s4.element_str(a) for a in centralizer(s4, i)} == known
    cell = seed_cell(s4, 10, 50, seed=7)
    samples = centralizer_sample(s4, i, cell, 20)
    assert len(samples) == 20
    assert {s4.element_str(a) for a in samples} <= known


def test_centralizer_sample_zero(s4):
    i = s4.parse_element("(1 2)(3 4)")
    cell = seed_cell(s4, 10, 50, seed=7)
    assert centralizer_sample(s4, i, cell, 0) == []


def test_centralizer_sample_abelian_returns_everything_unchecked():
    c6 = make_cyclic(6)
    i = c6.parse_element("(1 4)(2 5)(3 6)")  # the unique involution
    cell = seed_cell(c6, 10, 50, seed=1)
    for a in centralizer_sample(c6, i, cell, 10):
        assert a in set(c6.enumerate())  # C = G: everything commutes


def test_centralizer_sample_wrong_cell(s3, s4):
    cell = seed_cell(s3, 10, 10, seed=0)
    with pytest.raises(VerificationFailed):
        centralizer_sample(s4, s4.parse_element("(1 2)"), cell, 1)


def test_closure_check_s4(s4):
    i = s4.parse_element("(1 2)(3 4)")
    cell = seed_cell(s4, 10, 50, seed=7)
    samples = centralizer_sample(s4, i, cell, 20)
    report = centralizer_closure_check(s4, i, samples)
    assert report.generated_order == 8 == report.true_order
    assert report.equal


def test_closure_check_a5(a5):
    i = a5.parse_element("(1 2)(3 4)")
    cell = seed_cell(a5, 10, 50, seed=7)
    samples = centralizer_sample(a5, i, cell, 30)
    report = centralizer_closure_check(a5, i, samples)
    assert report.true_order == 4
    assert report.equal


def test_closure_check_identity_samples(s4):
    i = s4.parse_element("(1 2)(3 4)")
    report = centralizer_closure_check(s4, i, [s4.identity()])
    assert report.generated_order == 1
    assert not report.equal
