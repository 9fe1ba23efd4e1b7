"""Square-root conjugation tricks, the TI-subgroup normalizer map, and the
structure audit for groups whose involution centralizers are elementary
abelian 2-groups.

The engine behind everything: two involutions generate a dihedral group, so
when their product has odd order they are conjugate by an explicit square
root, i^sqrt(ij) = j.  Chaining two such roots ("double conjugation") moves
involutions around inside a Sylow 2-subgroup and fills its normalizer with
elements; generalized to an elementary abelian TI 2-subgroup U it yields a
partial map (u, x) -> x*sqrt(u^x * v) landing in N_X(U).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    EvenOrderInput,
    HypothesisViolation,
    NotAnInvolution,
    VerificationFailed,
)
from .oracle import DEFAULT_ENUM_CAP, Element, GroupOracle
from .powertools import ExponentData, odd_root
from .subgroups import (
    _class_walks,
    _conjugated,
    _set_orbit,
    _stabilizer,
    centralizer,
    closure,
    conjugation_classes,
    involutions,
    is_elementary_abelian_2,
    is_three_transitive,
    is_ti_orbit,
    require_involution,
    sylow2,
)


def conjugate_by_sqrt(
    oracle: GroupOracle,
    i: Element,
    j: Element,
    exp: ExponentData | None = None,
) -> Element:
    """The element y = sqrt(i*j) of <ij> with i^y == j, for odd o(ij).

    When o(ij) is even the involutions are not conjugate this way; they both
    centralize the involution of <ij> instead, and an error is raised.
    """
    require_involution(oracle, i, "first involution")
    if i != j:
        require_involution(oracle, j, "second involution")
    z = oracle.mul(i, j)
    y, y2 = odd_root(oracle, z, exp)
    if y2 != z:
        raise EvenOrderInput(
            "even-order dihedral case: i and j centralize i(ij) instead"
        )
    if oracle.conjugate(i, y) != j:
        raise VerificationFailed("i^sqrt(ij) != j: oracle or exponent bound is wrong")
    return y


def double_conjugation(
    oracle: GroupOracle,
    t: Element,
    r: Element,
    s: Element,
    exp: ExponentData | None = None,
) -> Element:
    """b = sqrt(t*r) * sqrt(r*s) with t^b == s, for odd o(tr) and o(rs)."""
    for name, a in (("t", t), ("r", r), ("s", s)):
        require_involution(oracle, a, name)
    tr = oracle.mul(t, r)
    y_tr, y2 = odd_root(oracle, tr, exp)
    if y2 != tr:
        raise EvenOrderInput("t*r has even order")
    rs = oracle.mul(r, s)
    y_rs, y2 = odd_root(oracle, rs, exp)
    if y2 != rs:
        raise EvenOrderInput("r*s has even order")
    b = oracle.mul(y_tr, y_rs)
    if oracle.conjugate(t, b) != s:
        raise VerificationFailed("t^b != s: oracle or exponent bound is wrong")
    return b


# --- TI subgroups and the normalizer map --------------------------------------


@dataclass(frozen=True)
class TISubgroup:
    """Elementary abelian TI 2-subgroup, validated at construction."""

    backend_id: str
    members: tuple[Element, ...]

    @property
    def non_identity(self) -> tuple[Element, ...]:
        return self.members[1:]

    def __contains__(self, a: Element) -> bool:
        return a in self.members


def ti_subgroup(
    oracle: GroupOracle,
    members: list[Element],
    cap: int = DEFAULT_ENUM_CAP,
) -> TISubgroup:
    """Validate and wrap the member list of an elementary abelian TI 2-subgroup.

    Checked once here, not per normalizer_map call: U is a subgroup, every
    non-identity member is an involution and members commute pairwise, U
    intersects each of its conjugates in U or the identity, and N_X(U) acts
    transitively on the non-identity members.
    """
    payloads = {a.payload for a in members}
    if oracle.identity().payload not in payloads:
        members = [oracle.identity()] + list(members)
        payloads.add(oracle.identity().payload)
    if {a.payload for a in closure(oracle, members, cap)} != payloads:
        raise HypothesisViolation("member list is not closed under multiplication")
    if not is_elementary_abelian_2(oracle, members):
        raise HypothesisViolation("subgroup is not elementary abelian of exponent 2")
    # one walk of U's conjugate orbit serves the TI test and N_X(U)
    walk = _set_orbit(oracle, members)
    if not is_ti_orbit(walk.keys):
        raise HypothesisViolation("TI property fails: U meets a conjugate properly")
    norm = _stabilizer(oracle, walk, cap)
    non_id = [a for a in members if not oracle.is_identity(a)]
    if len(conjugation_classes(oracle, non_id, norm)) > 1:
        raise HypothesisViolation(
            "N_X(U) is not transitive on the non-identity members of U"
        )
    ordered = [Element(oracle.backend_id, p) for p in sorted(payloads)]
    return TISubgroup(oracle.backend_id, tuple(ordered))


def normalizer_map(
    oracle: GroupOracle,
    v: Element,
    u: Element,
    x: Element,
    subgroup: TISubgroup,
    exp: ExponentData | None = None,
) -> Element | None:
    """Partial map (u, x) -> x * sqrt(u^x * v) into the normalizer of U.

    Defined exactly when u^x * v has odd order; returns None otherwise.
    With |U| = 2 (so v = u) this degenerates to the inverse of the odd
    branch of the centralizer zeta map.
    """
    for name, a in (("v", v), ("u", u)):
        if a not in subgroup.non_identity:
            raise NotAnInvolution(f"{name} must be a non-identity member of U")
    w = oracle.mul(oracle.conjugate(u, x), v)
    y, y2 = odd_root(oracle, w, exp)
    if y2 != w:
        return None
    return oracle.mul(x, y)


# --- Sylow-normalizer generation ---------------------------------------------------


def sylow2_normalizer_generators(
    oracle: GroupOracle,
    sylow_members: list[Element],
    exp: ExponentData | None = None,
    cap: int = DEFAULT_ENUM_CAP,
) -> list[Element]:
    """Fill N_G(T) with elements: T plus double-conjugation products.

    Requires the hypothesis C_G(t) = T for every non-identity t of T (then
    every b with t^b in T automatically normalizes T).  For each ordered
    pair t, s of non-identity members, the least outside involution r with
    both o(tr) and o(rs) odd supplies b = sqrt(tr)*sqrt(rs); at desk scale
    the closure of the output is the whole normalizer.
    """
    t_payloads = {a.payload for a in sylow_members}
    for t in sylow_members:
        if oracle.is_identity(t):
            continue
        require_involution(oracle, t, "Sylow member")
        if {c.payload for c in centralizer(oracle, t, cap)} != t_payloads:
            raise HypothesisViolation(
                f"C_G({oracle.element_str(t)}) != T: Burnside hypothesis fails"
            )
    outside = [r for r in involutions(oracle, cap) if r.payload not in t_payloads]
    non_id = [t for t in sylow_members if not oracle.is_identity(t)]
    out = list(sylow_members)
    seen = set(t_payloads)
    for t in non_id:
        for s in non_id:
            for r in outside:
                try:
                    b = double_conjugation(oracle, t, r, s, exp)
                except EvenOrderInput:
                    continue
                # conjugation is injective, so into T means onto T
                images = _conjugated(oracle, sylow_members, b, oracle.inv(b))
                if not all(c.payload in t_payloads for c in images):
                    raise VerificationFailed(
                        "double-conjugation element does not normalize T"
                    )
                if b.payload not in seen:
                    seen.add(b.payload)
                    out.append(b)
                break
    return out


# --- Burnside structure audit ----------------------------------------------------------


@dataclass
class BurnsideReport:
    """Executable audit of the structure forced by elementary abelian
    involution centralizers."""

    group_order: int
    hypothesis_holds: bool
    branch: str  # "normal_sylow" | "single_class" | "fail"
    involution_count: int
    involution_class_count: int
    centralizer_elementary_abelian: bool
    centralizer_orders: list[int]
    n: int
    sylow_order: int
    sylow_normal: bool
    n_hint_mismatch: bool
    sylow_ti: bool | None = None
    fusion_controlled: bool | None = None
    normalizer_order: int | None = None
    mu: int | None = None
    order_formula_holds: bool | None = None
    three_transitive: bool | None = None


def burnside_audit(
    oracle: GroupOracle,
    n_hint: int | None = None,
    cap: int = DEFAULT_ENUM_CAP,
) -> BurnsideReport:
    """Check the dichotomy: normal Sylow 2-subgroup, or a single class of
    involutions with TI Sylows, controlled fusion, normalizer of order
    2^n * (2^n - 1), group order (2^n + 1) * 2^n * (2^n - 1), and a
    3-transitive action on the 2^n + 1 Sylow 2-subgroups.

    n is derived from the Sylow order; a mismatching n_hint is reported but
    ignored.
    """
    order = len(oracle.enumerate(cap))
    # C(t^g) = C(t)^g: one centralizer per class decides the hypothesis, and
    # each class's walk gives the class, |C(t)| = |G| / |class|, and C(t).
    walks = _class_walks(oracle, involutions(oracle, cap))
    classes = [sorted(w.points) for w in walks]
    cent_orders = [order // len(w.points) for w in walks]
    hypothesis = all(is_elementary_abelian_2(oracle, _stabilizer(oracle, w, cap)) for w in walks)
    sylow = sylow2(oracle, cap=cap)
    sylow_order = len(sylow)
    n = sylow_order.bit_length() - 1
    n_hint_mismatch = n_hint is not None and n_hint != n
    sylow_payloads = {a.payload for a in sylow}
    # The walk of the Sylow's conjugate orbit gives N = N_G(S) as the point
    # stabilizer, normality as a one-point orbit, and G's action on the orbit.
    sylow_walk = _set_orbit(oracle, sylow)
    report = BurnsideReport(
        group_order=order,
        hypothesis_holds=hypothesis,
        branch="fail",
        involution_count=sum(len(cls) for cls in classes),
        involution_class_count=len(classes),
        centralizer_elementary_abelian=hypothesis,
        centralizer_orders=sorted(set(cent_orders)),
        n=n,
        sylow_order=sylow_order,
        sylow_normal=len(sylow_walk.points) == 1,
        n_hint_mismatch=n_hint_mismatch,
    )
    if not hypothesis:
        return report
    if report.sylow_normal:
        report.branch = "normal_sylow"
        return report
    if len(classes) != 1:
        # impossible under the hypothesis: multiple classes force a normal Sylow
        return report
    report.branch = "single_class"
    sylows = sylow_walk.keys
    report.sylow_ti = is_ti_orbit(sylows)
    norm = _stabilizer(oracle, sylow_walk, cap)
    report.normalizer_order = len(norm)
    report.mu = len(norm) // sylow_order if len(norm) % sylow_order == 0 else None
    # S lies in the elementary abelian C(t) of a central involution t, so its
    # non-identity members are involutions: fusion is controlled exactly when
    # N splits them as the involution classes of G do.
    in_g = ({c.payload for c in cls} & sylow_payloads for cls in classes)
    non_id = [a for a in sylow if not oracle.is_identity(a)]
    in_n = conjugation_classes(oracle, non_id, norm)
    report.fusion_controlled = {frozenset(p) for p in in_g if p} == {
        frozenset(a.payload for a in cls) for cls in in_n
    }
    report.order_formula_holds = order == (2**n + 1) * 2**n * (2**n - 1)
    if report.order_formula_holds:
        # S^g -> N*g is a G-equivariant bijection onto the cosets N\G
        npoints = len(sylows)
        report.three_transitive = npoints == 2**n + 1 and is_three_transitive(sylow_walk.images, npoints)
    return report
