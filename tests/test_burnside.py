"""The exhaustive layer against full-scan references.

Conjugacy classes are orbit walks under the generators, and centralizers
and normalizers are point stabilizers built from Schreier generators.
burnside_audit takes each involution class and its centralizer from one
walk, and N_G(S), normality and the action on the Sylows from one walk of
the Sylow's conjugate orbit; all_sylow2 and ti_subgroup walk the conjugate
orbit too, and the exact exponent walks each cyclic subgroup once.  The
references below scan everything, so the answers must agree exactly; the
mul gates pin the savings.
"""

import dataclasses
import math
import re

import pytest

from bbgroups import (
    DEFAULT_ENUM_CAP,
    BurnsideReport,
    Element,
    PermOracle,
    burnside_audit,
    element_order,
    moebius_oracle,
    ti_subgroup,
)
from bbgroups.errors import EnumerationCapExceeded, HypothesisViolation, VerificationFailed
from bbgroups.subgroups import (
    _element_orbit,
    _stabilizer,
    all_sylow2,
    centralizer,
    closure,
    conjugacy_class,
    conjugate_orbit,
    conjugation_classes,
    involution_classes,
    involutions,
    is_elementary_abelian_2,
    is_three_transitive,
    normalizer_of_set,
    sylow2,
)

from conftest import make_a5, make_cyclic, make_d8, make_s4, make_sl2_3, make_sl2_8

GROUPS = {
    "S4": make_s4,
    "D8": make_d8,
    "A4": lambda: PermOracle(4, [[[1, 2, 3]], [[1, 2], [3, 4]]]),
    "A5": make_a5,
    "S5": lambda: PermOracle(5, [[[1, 2]], [[1, 2, 3, 4, 5]]]),
    "C2": lambda: make_cyclic(2),
    "C3": lambda: make_cyclic(3),
    "SL2(3)": make_sl2_3,
    "moebius(2)": lambda: moebius_oracle(2),
    "moebius(3)": lambda: moebius_oracle(3),
    "SL2(8)": make_sl2_8,
}


@pytest.fixture(scope="module", params=sorted(GROUPS))
def group(request):
    return GROUPS[request.param]()


def conjugates(oracle, members, g):
    return {oracle.conjugate(a, g).payload for a in members}


def reference_normalizer(oracle, members):
    target = {a.payload for a in members}
    return [g for g in oracle.enumerate() if conjugates(oracle, members, g) == target]


def reference_centralizer(oracle, a):
    return [g for g in oracle.enumerate() if oracle.commutes(g, a)]


def reference_class(oracle, a):
    payloads = {oracle.conjugate(a, g).payload for g in oracle.enumerate()}
    return [Element(oracle.backend_id, p) for p in sorted(payloads)]


def reference_classes(oracle, members):
    """members split by full-scan classes, each sorted, ordered by least member."""
    classes = []
    for a in sorted(members):
        if not any(a in cls for cls in classes):
            classes.append(reference_class(oracle, a))
    return classes


def reference_all_sylow2(oracle):
    base = sylow2(oracle)
    return sorted({frozenset(conjugates(oracle, base, g)) for g in oracle.enumerate()}, key=sorted)


def coset_action_images(oracle, subgroup):
    """Right-multiplication action of the generators on right cosets K\\G.

    Returns one image tuple per generator, the number of cosets, and the
    coset representatives in index order, each the least-payload element
    of its coset.
    """
    coset_of = {}
    reps = []
    for g in oracle.enumerate():
        if g.payload in coset_of:
            continue
        idx = len(reps)
        reps.append(g)
        for k in subgroup:
            coset_of[oracle.mul(k, g).payload] = idx
    images = []
    for gen in oracle.generators:
        images.append(tuple(coset_of[oracle.mul(rep, gen).payload] for rep in reps))
    return images, len(reps), reps


def reference_audit(oracle, n_hint=None):
    """The audit with a centralizer per involution and full scans throughout."""
    elems = oracle.enumerate()
    order = len(elems)
    invs = involutions(oracle)
    cents = [reference_centralizer(oracle, t) for t in invs]
    hypothesis = all(is_elementary_abelian_2(oracle, c) for c in cents)
    classes = reference_classes(oracle, invs)
    sylow = sylow2(oracle)
    n = len(sylow).bit_length() - 1
    sylow_payloads = {a.payload for a in sylow}
    normal = all(conjugates(oracle, sylow, g) == sylow_payloads for g in elems)
    report = BurnsideReport(
        group_order=order,
        hypothesis_holds=hypothesis,
        branch="fail",
        involution_count=len(invs),
        involution_class_count=len(classes),
        centralizer_elementary_abelian=hypothesis,
        centralizer_orders=sorted({len(c) for c in cents}),
        n=n,
        sylow_order=len(sylow),
        sylow_normal=normal,
        n_hint_mismatch=n_hint is not None and n_hint != n,
    )
    if not hypothesis:
        return report
    if normal:
        report.branch = "normal_sylow"
        return report
    if len(classes) != 1:
        return report
    report.branch = "single_class"
    sylows = reference_all_sylow2(oracle)
    ident = oracle.identity().payload
    report.sylow_ti = all(
        a == b or a & b == {ident} for a in sylows for b in sylows
    )
    norm = reference_normalizer(oracle, sylow)
    report.normalizer_order = len(norm)
    report.mu = len(norm) // len(sylow) if len(norm) % len(sylow) == 0 else None
    report.fusion_controlled = all(
        {c.payload for c in reference_class(oracle, a)} & sylow_payloads
        == {oracle.conjugate(a, k).payload for k in norm}
        for a in sylow
    )
    report.order_formula_holds = order == (2**n + 1) * 2**n * (2**n - 1)
    if report.order_formula_holds:
        images, npoints, _ = coset_action_images(oracle, norm)
        report.three_transitive = npoints == 2**n + 1 and is_three_transitive(images, npoints)
    return report


def test_audit_matches_full_scan_reference(group):
    assert burnside_audit(group, n_hint=3) == reference_audit(group, n_hint=3)


def test_normalizer_of_set_matches_full_scan(group):
    elems = group.enumerate()
    ident = group.identity()
    invs = involutions(group)
    sets = [
        sylow2(group),
        [ident],
        [],
        list(group.generators),  # not a subgroup
        [ident] + invs[:1],
        invs[:4],
        elems[:6],
    ]
    for members in sets:
        assert normalizer_of_set(group, members) == reference_normalizer(group, members)


def test_all_sylow2_matches_full_scan(group):
    assert all_sylow2(group) == reference_all_sylow2(group)


def test_exact_exponent_is_lcm_of_element_orders(group):
    orders = [element_order(group, x) for x in group.enumerate()]
    assert group.exponent_bound == math.lcm(*orders)


@pytest.mark.parametrize("name", ["A5", "moebius(2)", "moebius(3)", "SL2(8)"])
def test_sylow_orbit_action_is_the_coset_action(name):
    # S^g -> N*g is a bijection that turns each generator's permutation of
    # the Sylows into its permutation of the cosets of N = N_G(S)
    oracle = GROUPS[name]()
    sylow = sylow2(oracle)
    orbit, perms = conjugate_orbit(oracle, sylow)
    coset_images, npoints, reps = coset_action_images(oracle, normalizer_of_set(oracle, sylow))
    index = {s: i for i, s in enumerate(orbit)}
    phi = [index[frozenset(conjugates(oracle, sylow, r))] for r in reps]
    assert sorted(phi) == list(range(npoints)) == list(range(len(orbit)))
    assert len(perms) == len(coset_images) == len(oracle.generators)
    for perm, coset_perm in zip(perms, coset_images):
        assert [perm[phi[j]] for j in range(npoints)] == [phi[coset_perm[j]] for j in range(npoints)]


def reference_ti_failure(oracle, members):
    """The check ti_subgroup fails first, with TI decided by a scan over G."""
    payloads = {a.payload for a in members} | {oracle.identity().payload}
    members = [a for a in oracle.enumerate() if a.payload in payloads]
    if {a.payload for a in closure(oracle, members)} != payloads:
        return "not closed"
    if not is_elementary_abelian_2(oracle, members):
        return "not elementary abelian"
    for g in oracle.enumerate():
        inter = conjugates(oracle, members, g) & payloads
        if len(inter) != 1 and inter != payloads:
            return "TI property fails"
    non_id = [a for a in members if not oracle.is_identity(a)]
    if len(conjugation_classes(oracle, non_id, reference_normalizer(oracle, members))) > 1:
        return "not transitive"
    return None


def ti_candidates(oracle):
    """<t>, <t, u> for the first involution u commuting with t, and a Sylow."""
    invs = involutions(oracle)
    out = [sylow2(oracle)]
    for t in invs[:3]:
        out.append([oracle.identity(), t])
        u = next((u for u in invs if u != t and oracle.commutes(t, u)), None)
        if u is not None:
            out.append(closure(oracle, [t, u]))
    return out


@pytest.mark.parametrize("name", ["S4", "A5", "S5", "SL2(3)", "moebius(3)", "SL2(8)", "C2 x S3"])
def test_ti_subgroup_matches_full_scan(name):
    oracle = PermOracle(5, [[[1, 2]], [[3, 4]], [[3, 5]]]) if name == "C2 x S3" else GROUPS[name]()
    for members in ti_candidates(oracle):
        failure = reference_ti_failure(oracle, members)
        if failure is None:
            sub = ti_subgroup(oracle, members)
            assert {a.payload for a in sub.members} == {a.payload for a in members}
        else:
            with pytest.raises(HypothesisViolation, match=failure):
                ti_subgroup(oracle, members)


def test_ti_subgroup_mul_budget_sl2_8():
    oracle = make_sl2_8()
    sylow = sylow2(oracle)
    before = oracle.mult_counter.total
    ti_subgroup(oracle, sylow)
    # a conjugation by each g in G: 9,929; a scan of G for N(U): 2,243
    assert oracle.mult_counter.total - before <= 1_200


def test_audit_mul_budget_moebius3():
    oracle = moebius_oracle(3, exponent=126)
    oracle.enumerate()
    before = oracle.mult_counter.total
    report = burnside_audit(oracle, n_hint=3)
    assert report.branch == "single_class" and report.three_transitive
    # a scan per involution: 96,718; the coset action and a fusion loop:
    # 6,275; a scan of G per centralizer, class and normalizer: 4,823
    assert oracle.mult_counter.total - before <= 2_000


def test_exact_exponent_mul_budget_moebius3():
    oracle = moebius_oracle(3)
    assert oracle.exponent_bound == 126
    assert oracle.mult_counter.total <= 1_700  # an order walk per element: 3,439


def test_audit_moebius4():
    oracle = moebius_oracle(4, exponent=510)
    oracle.enumerate()
    before = oracle.mult_counter.total
    report = burnside_audit(oracle, n_hint=4)
    # the coset action and a fusion loop: 49,449; scans of G: 37,772
    assert oracle.mult_counter.total - before <= 10_000
    assert dataclasses.asdict(report) == dict(
        group_order=4080,
        hypothesis_holds=True,
        branch="single_class",
        involution_count=255,
        involution_class_count=1,
        centralizer_elementary_abelian=True,
        centralizer_orders=[16],
        n=4,
        sylow_order=16,
        sylow_normal=False,
        n_hint_mismatch=False,
        sylow_ti=True,
        fusion_controlled=True,
        normalizer_order=240,
        mu=15,
        order_formula_holds=True,
        three_transitive=True,
    )


# --- orbit walks and Schreier stabilizers against full scans -----------------

ORBIT_GROUPS = ["S4", "D8", "A5", "SL2(3)", "moebius(3)", "SL2(8)"]


@pytest.mark.parametrize("name", ORBIT_GROUPS)
def test_classes_and_centralizers_match_full_scan(name):
    oracle = GROUPS[name]()
    classes = reference_classes(oracle, oracle.enumerate())
    for cls in classes:
        for a in (cls[0], cls[-1]):
            assert conjugacy_class(oracle, a) == cls
            cent = centralizer(oracle, a)
            assert cent == reference_centralizer(oracle, a)
            assert len(cent) * len(cls) == oracle.order()
    assert involution_classes(oracle) == reference_classes(oracle, involutions(oracle))


@pytest.mark.parametrize("name", ORBIT_GROUPS)
def test_normalizers_match_full_scan(name):
    oracle = GROUPS[name]()
    elems = oracle.enumerate()
    ident = oracle.identity()
    invs = involutions(oracle)
    sets = [
        sylow2(oracle),
        closure(oracle, invs[:1]),
        list(oracle.generators),  # not a subgroup
        invs[1:4],  # not a subgroup, no identity
        [ident] + elems[-5:],
        [ident],
        [],
    ]
    for members in sets:
        assert normalizer_of_set(oracle, members) == reference_normalizer(oracle, members)


def test_elements_outside_the_group():
    # GL2(3) matrices of determinant 2, acted on by conjugation with SL2(3)
    oracle = make_sl2_3()
    outside = [oracle.parse_element(m) for m in ("[[2, 0], [0, 1]]", "[[0, 1], [1, 0]]", "[[1, 1], [0, 2]]")]
    for a in outside:
        assert a not in oracle.enumerate()
        assert conjugacy_class(oracle, a) == reference_class(oracle, a)
        assert centralizer(oracle, a) == reference_centralizer(oracle, a)
    members = outside + oracle.enumerate()[:3]
    assert normalizer_of_set(oracle, members) == reference_normalizer(oracle, members)


def test_stabilizers_respect_the_enumeration_cap():
    oracle = moebius_oracle(4, exponent=510)  # order 4080, not yet enumerated
    a = oracle.generators[0]
    with pytest.raises(EnumerationCapExceeded):
        centralizer(oracle, a, cap=1_000)
    with pytest.raises(EnumerationCapExceeded):
        normalizer_of_set(oracle, [a], cap=1_000)
    with pytest.raises(EnumerationCapExceeded):
        conjugacy_class(oracle, a, cap=1_000)


def test_closure_stops_at_known_order():
    # the Sylow 2-subgroup of SL2(8) is elementary abelian of order 8
    oracle = make_sl2_8()
    sylow = sylow2(oracle)
    basis = []
    for a in sylow:
        if a not in closure(oracle, basis):
            basis.append(a)
    assert len(basis) == 3

    def generators():
        yield from basis
        raise AssertionError("drawn past the known order")

    assert closure(oracle, generators(), order=8) == sylow


def test_stabilizer_short_of_its_order_is_refused():
    # without Schreier generators the closure stops at the identity, short of
    # |G| / |orbit|: that must raise, never come back as a smaller subgroup
    oracle = make_sl2_8()
    oracle.enumerate()
    walk = _element_orbit(oracle, involutions(oracle)[0])
    assert len(_stabilizer(oracle, walk, DEFAULT_ENUM_CAP)) == 8
    with pytest.raises(VerificationFailed, match=re.escape("not |G| / |orbit| = 8")):
        _stabilizer(oracle, walk._replace(edges=[]), DEFAULT_ENUM_CAP)


def test_centralizer_mul_budget_sl2_8():
    oracle = make_sl2_8()
    i = involutions(oracle)[0]
    before = oracle.mult_counter.total
    assert len(centralizer(oracle, i)) == 8
    assert oracle.mult_counter.total - before <= 500  # a commuting test per g in G: 1,008
