"""Brute-force subgroup machinery over enumerable oracles.

Ground-truth utilities shared by the audits and the test suite: subgroup
closure, centralizers, conjugacy classes, Sylow 2-subgroups, normalizers,
and orbit counting on ordered triples.  Everything here is exhaustive and
only meant for desk-scale groups.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import EnumerationCapExceeded, NotAnInvolution
from .oracle import DEFAULT_ENUM_CAP, Element, GroupOracle
from .powertools import power


def is_involution(oracle: GroupOracle, a: Element) -> bool:
    """Order exactly 2: a != identity and a*a == identity."""
    return not oracle.is_identity(a) and oracle.is_identity(oracle.mul(a, a))


def require_involution(oracle: GroupOracle, a: Element, name: str = "element") -> None:
    if not is_involution(oracle, a):
        raise NotAnInvolution(f"{name} {oracle.element_str(a)} is not an involution")


def closure(
    oracle: GroupOracle,
    elements: Iterable[Element],
    cap: int = DEFAULT_ENUM_CAP,
) -> list[Element]:
    """Subgroup generated by the elements (identity included), sorted by payload.

    Dimino's coset-by-coset closure: with H = <g_1..g_{i-1}>, a generator g_i
    already in H costs nothing; otherwise <H, g_i> is the union of the right
    cosets H*x for x reached from g_i by right multiplication with g_1..g_i.
    The members are always a union of cosets of H, so a coset whose
    representative is not a member is new as a whole, and is added for
    |H| - 1 muls plus one per generator used.  Raises EnumerationCapExceeded
    exactly when the subgroup has more than cap elements.
    """
    members = [oracle.identity()]
    seen = set(members)
    used: list[Element] = []
    for g in elements:
        if g in seen:
            continue
        used.append(g)
        rest = members[1:]  # H without the identity, whose product with x is x
        reps = [g]
        for x in reps:
            if x in seen:
                continue
            if len(seen) + len(rest) + 1 > cap:
                raise EnumerationCapExceeded(f"subgroup closure exceeds cap {cap}")
            coset = [x] + [oracle.mul(h, x) for h in rest]
            members.extend(coset)
            seen.update(coset)
            reps.extend(oracle.mul(x, s) for s in used)
    return sorted(seen)


def centralizer(
    oracle: GroupOracle, a: Element, cap: int = DEFAULT_ENUM_CAP
) -> list[Element]:
    """All elements commuting with a, by exhaustive scan."""
    return [g for g in oracle.enumerate(cap) if oracle.commutes(g, a)]


def conjugacy_class(
    oracle: GroupOracle, a: Element, cap: int = DEFAULT_ENUM_CAP
) -> list[Element]:
    """The class {a^g : g in G}, sorted by payload."""
    seen = {oracle.conjugate(a, g).payload for g in oracle.enumerate(cap)}
    return [Element(oracle.backend_id, p) for p in sorted(seen)]


def involutions(oracle: GroupOracle, cap: int = DEFAULT_ENUM_CAP) -> list[Element]:
    return [a for a in oracle.enumerate(cap) if is_involution(oracle, a)]


def involution_classes(
    oracle: GroupOracle, cap: int = DEFAULT_ENUM_CAP
) -> list[list[Element]]:
    """Conjugacy classes of involutions, each sorted, ordered by least member."""
    return conjugation_classes(oracle, involutions(oracle, cap), oracle.enumerate(cap))


def conjugation_classes(
    oracle: GroupOracle, members: Sequence[Element], by: Sequence[Element]
) -> list[list[Element]]:
    """Split members into classes under conjugation by the elements of by.

    by must be a group and members closed under conjugation by it, so each
    representative, the least member left, is the least of its class: each
    class is sorted, and the classes come out ordered by least member.
    """
    rest = {a.payload for a in members}
    classes = []
    while rest:
        rep = Element(oracle.backend_id, min(rest))
        cls = {oracle.conjugate(rep, g).payload for g in by}
        classes.append([Element(oracle.backend_id, p) for p in sorted(cls)])
        rest -= cls
    return classes


def is_elementary_abelian_2(oracle: GroupOracle, members: Sequence[Element]) -> bool:
    """Every non-identity member an involution and all members commuting."""
    ms = list(members)
    for a in ms:
        if not oracle.is_identity(a) and not is_involution(oracle, a):
            return False
    for i, a in enumerate(ms):
        for b in ms[i + 1 :]:
            if not oracle.commutes(a, b):
                return False
    return True


def two_part(n: int) -> int:
    """Largest power of 2 dividing n."""
    return n & -n


def is_two_element(oracle: GroupOracle, x: Element) -> bool:
    """Order a power of 2, tested via x**(2^t) == identity."""
    return oracle.is_identity(power(oracle, x, 1 << oracle.exponent_data.t))


def sylow2(
    oracle: GroupOracle,
    containing: Iterable[Element] | None = None,
    cap: int = DEFAULT_ENUM_CAP,
) -> list[Element]:
    """A Sylow 2-subgroup, grown deterministically from the seed elements.

    While the current 2-subgroup S is below full Sylow order, some 2-element
    outside S normalizes S (normalizers grow in 2-groups), and the scan picks
    the least such in payload order, so the result is reproducible.
    """
    elems = oracle.enumerate(cap)
    target = two_part(len(elems))
    seed = list(containing) if containing is not None else []
    for s in seed:
        if not is_two_element(oracle, s):
            raise NotAnInvolution(f"seed element {oracle.element_str(s)} is not a 2-element")
    group = closure(oracle, seed, cap)
    while len(group) < target:
        member_payloads = {a.payload for a in group}
        grown = False
        for g in elems:
            if g.payload in member_payloads or not is_two_element(oracle, g):
                continue
            if all(
                oracle.conjugate(a, g).payload in member_payloads for a in group
            ):
                group = closure(oracle, group + [g], cap)
                grown = True
                break
        if not grown:  # cannot happen for a true 2-subgroup below Sylow order
            raise EnumerationCapExceeded("sylow growth stalled")
    return group


def all_sylow2(
    oracle: GroupOracle, cap: int = DEFAULT_ENUM_CAP
) -> list[frozenset[tuple]]:
    """All Sylow 2-subgroups as payload-sets: the orbit of one of them under
    conjugation by the generators, which is its orbit under the whole group."""
    base = frozenset(a.payload for a in sylow2(oracle, cap=cap))
    orbit = [base]
    seen = {base}
    for s in orbit:
        members = [Element(oracle.backend_id, p) for p in s]
        for g in oracle.generators:
            image = frozenset(oracle.conjugate(a, g).payload for a in members)
            if image not in seen:
                seen.add(image)
                orbit.append(image)
    return sorted(seen, key=sorted)


def normalizer_of_set(
    oracle: GroupOracle, members: Sequence[Element], cap: int = DEFAULT_ENUM_CAP
) -> list[Element]:
    """All g with {m^g} equal to the member set.  Conjugation is injective, so
    each g is dropped at the first member it moves outside the set; the
    identity, fixed by every g, is not conjugated."""
    target = {a.payload for a in members}
    moved = [a for a in members if not oracle.is_identity(a)]
    out = []
    for g in oracle.enumerate(cap):
        g_inv = oracle.inv(g)
        if all(oracle.mul(oracle.mul(g_inv, a), g).payload in target for a in moved):
            out.append(g)
    return out


def triple_orbit_size(images: Sequence[Sequence[int]], npoints: int) -> int:
    """Orbit size of (0, 1, 2) under the permutations given as image tuples."""
    if npoints < 3:
        return 0
    start = (0, 1, 2)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for tri in frontier:
            for img in images:
                moved = (img[tri[0]], img[tri[1]], img[tri[2]])
                if moved not in seen:
                    seen.add(moved)
                    nxt.append(moved)
        frontier = nxt
    return len(seen)


def is_three_transitive(images: Sequence[Sequence[int]], npoints: int) -> bool:
    """True iff the generated action is transitive on ordered distinct triples."""
    return triple_orbit_size(images, npoints) == npoints * (npoints - 1) * (npoints - 2)


def coset_action_images(
    oracle: GroupOracle, subgroup: Sequence[Element], cap: int = DEFAULT_ENUM_CAP
) -> tuple[list[tuple[int, ...]], int]:
    """Right-multiplication action of the generators on right cosets K\\G.

    Returns one image tuple per generator plus the number of cosets; cosets
    are indexed by their minimal-payload representative.
    """
    elems = oracle.enumerate(cap)
    coset_of: dict[tuple, int] = {}
    reps: list[Element] = []
    for g in elems:
        if g.payload in coset_of:
            continue
        idx = len(reps)
        reps.append(g)
        for k in subgroup:
            coset_of[oracle.mul(k, g).payload] = idx
    images = []
    for gen in oracle.generators:
        images.append(tuple(coset_of[oracle.mul(rep, gen).payload] for rep in reps))
    return images, len(reps)
