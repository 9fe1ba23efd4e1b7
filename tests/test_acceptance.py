"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest -s tests/test_acceptance.py` to see one PASS/FAIL line per
criterion.  Where a criterion states a runtime bound, the work is done on
freshly built oracles and timed end to end.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from bbgroups import (
    Element,
    cartan_zeta,
    centralizer_closure_check,
    centralizer_sample,
    conjugate_by_sqrt,
    double_conjugation,
    has_odd_order,
    isolated_zeta,
    moebius_oracle,
    normalizer_map,
    polar_decompose,
    seed_cell,
    sqrt_odd,
    strongly_isolated_check,
    sylow2_normalizer_generators,
    ti_subgroup,
    zeta,
    zeta_distribution_audit,
    burnside_audit,
)
from bbgroups.errors import EvenOrderInput
from bbgroups.subgroups import (
    centralizer,
    closure,
    involution_classes,
    involutions,
    normalizer_of_set,
    sylow2,
)

from conftest import make_d8, make_s3, make_s4

SEED = 7


@contextmanager
def criterion(num, text):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:>2} FAIL - {text}")
        raise
    print(f"ACCEPTANCE {num:>2} PASS - {text}")


@pytest.fixture(scope="module")
def groups(s3, s4, d8, sl2_3, a5, moebius2, moebius3):
    return {
        "S3": s3,
        "S4": s4,
        "D8": d8,
        "SL2(3)": sl2_3,
        "A5": a5,
        "moebius(2)": moebius2,
        "moebius(3)": moebius3,
    }


def test_criterion_01_burnside_order_formula():
    with criterion(1, "moebius order formula: 60 and 504 exactly, under 10 s"):
        start = time.monotonic()
        assert len(moebius_oracle(2).enumerate()) == (2**2 + 1) * 2**2 * (2**2 - 1) == 60
        assert len(moebius_oracle(3).enumerate()) == (2**3 + 1) * 2**3 * (2**3 - 1) == 504
        assert time.monotonic() - start < 10.0


def test_criterion_02_burnside_audit():
    with criterion(2, "full structure audit green on moebius(2) and moebius(3), under 60 s"):
        start = time.monotonic()
        for n in (2, 3):
            report = burnside_audit(moebius_oracle(n), n_hint=n)
            assert report.hypothesis_holds
            assert report.branch == "single_class"
            assert report.involution_class_count == 1
            assert report.involution_count == 2 ** (2 * n) - 1
            assert report.centralizer_elementary_abelian
            assert report.centralizer_orders == [2**n]
            assert report.sylow_ti
            assert report.fusion_controlled
            assert report.normalizer_order == 2**n * (2**n - 1)
            assert report.mu == 2**n - 1
            assert report.order_formula_holds
            assert report.three_transitive
            assert not report.n_hint_mismatch
        assert time.monotonic() - start < 60.0


def test_criterion_03_bray_membership_exhaustive(groups):
    with criterion(3, "zeta value commutes with i for every (i, x) in all seven groups"):
        failures = 0
        for oracle in groups.values():
            exp = oracle.exponent_data
            for i in involutions(oracle):
                for x in oracle.enumerate():
                    out = zeta(oracle, i, x, exp)
                    if not oracle.commutes(out.value, i):
                        failures += 1
        assert failures == 0


def test_criterion_04_bray_equivariances(s4, d8):
    with criterion(4, "zeta1(cx) = zeta1(x)c^-1 and zeta0(xc) = zeta0(x)^c on S4 and D8"):
        failures = 0
        for oracle in (s4, d8):
            exp = oracle.exponent_data
            for i in involutions(oracle):
                cent = centralizer(oracle, i)
                outcomes = {x: zeta(oracle, i, x, exp) for x in oracle.enumerate()}
                for c in cent:
                    cinv = oracle.inv(c)
                    for x, out in outcomes.items():
                        if out.branch == "odd":
                            lhs = outcomes[oracle.mul(c, x)]
                            if lhs.branch != "odd" or lhs.value != oracle.mul(out.value, cinv):
                                failures += 1
                        else:
                            rhs = outcomes[oracle.mul(x, c)]
                            if rhs.branch != "even" or rhs.value != oracle.conjugate(out.value, c):
                                failures += 1
        assert failures == 0


def test_criterion_05_distribution_audit(s4, a5):
    with criterion(5, "zeta1 counts constant on C(i); zeta0 counts constant per class (S4, A5)"):
        for oracle in (s4, a5):
            for i in involutions(oracle):
                report = zeta_distribution_audit(oracle, i)
                assert report.zeta1_constant
                expected = report.odd_domain_size // report.centralizer_order
                assert set(report.zeta1_counts.values()) == {expected}
                assert report.zeta0_class_constant


def test_criterion_06_centralizer_generation(s4, a5, moebius3):
    with criterion(6, "20 pinned-seed zeta samples generate C(i) for every class rep"):
        for oracle in (s4, a5, moebius3):
            for cls in involution_classes(oracle):
                rep = cls[0]
                cell = seed_cell(oracle, seed=SEED)
                samples = centralizer_sample(oracle, rep, cell, 20)
                report = centralizer_closure_check(oracle, rep, samples)
                assert report.equal, (oracle.backend_id, oracle.element_str(rep))


def test_criterion_07_conjugation_tricks(groups):
    with criterion(7, "square-root/double conjugation exhaustive; normalizer closures 12 and 56"):
        for name, oracle in groups.items():
            exp = oracle.exponent_data
            invs = involutions(oracle)
            odd_partners = {}
            roots = {}
            for i in invs:
                partners = []
                for j in invs:
                    if has_odd_order(oracle, oracle.mul(i, j), exp):
                        y = conjugate_by_sqrt(oracle, i, j, exp)  # verifies i^y == j
                        partners.append(j)
                        roots[(i, j)] = y
                odd_partners[i] = partners
            if name == "moebius(3)":
                # exhaustive triple sweep via the cached pair roots (same formula
                # the operation evaluates), plus the operation itself on a pinned
                # deterministic sample of triples
                count = 0
                spot = []
                for t in invs:
                    for r in odd_partners[t]:
                        for s in odd_partners[r]:
                            b = oracle.mul(roots[(t, r)], roots[(r, s)])
                            assert oracle.conjugate(t, b) == s
                            if count % 409 == 0:
                                spot.append((t, r, s, b))
                            count += 1
                assert count > 200_000
                for t, r, s, b in spot[:500]:
                    assert double_conjugation(oracle, t, r, s, exp) == b
            else:
                for t in invs:
                    for r in odd_partners[t]:
                        for s in odd_partners[r]:
                            b = double_conjugation(oracle, t, r, s, exp)
                            assert oracle.conjugate(t, b) == s
        # Sylow-normalizer closures
        a5 = groups["A5"]
        gens = sylow2_normalizer_generators(a5, sylow2(a5))
        assert len(closure(a5, gens)) == 12
        m3 = groups["moebius(3)"]
        gens = sylow2_normalizer_generators(m3, sylow2(m3))
        assert len(closure(m3, gens)) == 56


def test_criterion_08_normalizer_map(s4, sl2_8):
    with criterion(8, "nu lands in N_X(U) on SL2(8), left-equivariant; |U|=2 matches zeta"):
        exp = sl2_8.exponent_data
        unitriangular = [Element(sl2_8.backend_id, (1, c, 0, 1)) for c in range(8)]
        sub = ti_subgroup(sl2_8, unitriangular)
        norm = normalizer_of_set(sl2_8, list(sub.members))
        norm_payloads = {a.payload for a in norm}
        assert len(norm) == 56
        elems = sl2_8.enumerate()
        # exhaustive membership over (u, x, v)
        for v in sub.non_identity:
            for u in sub.non_identity:
                for x in elems:
                    out = normalizer_map(sl2_8, v, u, x, sub, exp)
                    if out is not None:
                        assert out.payload in norm_payloads
        # left equivariance: nu_v(u^(n^-1), n x) == n * nu_v(u, x), identical domains
        v = sub.non_identity[0]
        table = {
            (u, x): normalizer_map(sl2_8, v, u, x, sub, exp)
            for u in sub.non_identity
            for x in elems
        }
        for n in norm:
            ninv = sl2_8.inv(n)
            for u in sub.non_identity:
                u_moved = sl2_8.conjugate(u, ninv)
                for x in elems:
                    rhs = table[(u, x)]
                    lhs = table[(u_moved, sl2_8.mul(n, x))]
                    assert (lhs is None) == (rhs is None)
                    if rhs is not None:
                        assert lhs == sl2_8.mul(n, rhs)
        # |U| = 2 degeneration on S4: same domain as the odd zeta branch and,
        # value for value, the inverse of it (u^x*u == (u*u^x)^-1), hence the
        # same output multiset over the exhaustive sweep
        exp4 = s4.exponent_data
        for u in involutions(s4):
            sub2 = ti_subgroup(s4, [s4.identity(), u])
            nu_vals = []
            zeta_vals = []
            for x in s4.enumerate():
                nu_out = normalizer_map(s4, u, u, x, sub2, exp4)
                z_out = zeta(s4, u, x, exp4)
                assert (nu_out is None) == (z_out.branch == "even")
                if nu_out is not None:
                    assert nu_out == s4.inv(z_out.value)
                    nu_vals.append(nu_out)
                    zeta_vals.append(z_out.value)
            assert sorted(nu_vals) == sorted(zeta_vals)


def test_criterion_09_multiplication_budget(groups):
    with criterion(9, "every zeta call uses at most 8*log2(E) + 16 multiplications"):
        for oracle in groups.values():
            exp = oracle.exponent_data
            budget = 8 * math.log2(oracle.exponent_bound) + 16
            for i in involutions(oracle):
                for x in oracle.enumerate():
                    before = oracle.mult_counter.total
                    zeta(oracle, i, x, exp)
                    assert oracle.mult_counter.total - before <= budget


def test_per_call_budget_one_power_per_parity_test(a5, moebius3, sl2_8):
    """Tighter than criterion 09: with L = floor(log2((r+1)/2)), sqrt_odd uses
    at most 2L + 1 muls and zeta at most 2L + t + 8, so neither recomputes
    a power of the same element."""
    for oracle in (a5, moebius3, sl2_8):
        exp = oracle.exponent_data
        L = ((exp.r + 1) // 2).bit_length() - 1
        i = involutions(oracle)[0]
        for x in oracle.enumerate():
            before = oracle.mult_counter.total
            try:
                sqrt_odd(oracle, x, exp)
            except EvenOrderInput:
                pass
            assert oracle.mult_counter.total - before <= 2 * L + 1
            before = oracle.mult_counter.total
            zeta(oracle, i, x, exp)
            assert oracle.mult_counter.total - before <= 2 * L + exp.t + 8


def test_criterion_10_polar_cartan():
    with criterion(10, "polar residuals 1e-10/1e-9 and equivariance 1e-9 on 100 x 5 matrices, under 5 s"):
        start = time.monotonic()
        rng = np.random.default_rng(SEED)
        for n in range(2, 7):
            eye = np.eye(n)
            for _ in range(100):
                x = rng.standard_normal((n, n))
                z, p = polar_decompose(x)
                assert np.linalg.norm(z.T @ z - eye) <= 1e-10
                assert np.linalg.norm(z @ p - x) <= 1e-9 * np.linalg.norm(x)
                q, _ = np.linalg.qr(rng.standard_normal((n, n)))
                if np.linalg.det(q) < 0:
                    q[:, 0] = -q[:, 0]
                assert np.linalg.norm(cartan_zeta(q @ x) - q @ cartan_zeta(x)) <= 1e-9
        assert time.monotonic() - start < 5.0


def test_criterion_11_strongly_isolated_zeta():
    with criterion(11, "isolated zeta total/equivariant on S3; classifier true/false/true"):
        s3 = make_s3()
        t = s3.parse_element("(1 2)")
        cent = centralizer(s3, t)
        values = {}
        for x in s3.enumerate():
            v = isolated_zeta(s3, t, x)  # defined for all 6 elements
            assert v in set(cent)
            values[x] = v
        for c in cent:
            for x in s3.enumerate():
                assert isolated_zeta(s3, t, s3.mul(c, x)) == s3.mul(c, values[x])
        assert strongly_isolated_check(s3, t).isolated is True
        s4 = make_s4()
        assert strongly_isolated_check(s4, s4.parse_element("(1 2)")).isolated is False
        d8 = make_d8()
        assert strongly_isolated_check(d8, d8.parse_element("(1 3)(2 4)")).isolated is True
