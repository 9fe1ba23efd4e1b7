"""Brute-force subgroup machinery over enumerable oracles.

Ground-truth utilities shared by the audits and the test suite: subgroup
closure, centralizers, conjugacy classes, Sylow 2-subgroups, normalizers,
conjugate orbits of a set, and orbit counting on ordered triples.
Everything here is exhaustive and only meant for desk-scale groups.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

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
    return conjugation_classes(oracle, [a], oracle.enumerate(cap))[0]


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
    the least such in payload order, so the result is reproducible.  A
    candidate is dropped at the first member it conjugates out of S.
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
            if all(c.payload in member_payloads for c in _conjugated(oracle, group, g)):
                group = closure(oracle, group + [g], cap)
                grown = True
                break
        if not grown:  # cannot happen for a true 2-subgroup below Sylow order
            raise EnumerationCapExceeded("sylow growth stalled")
    return group


def all_sylow2(
    oracle: GroupOracle, cap: int = DEFAULT_ENUM_CAP
) -> list[frozenset[tuple]]:
    """All Sylow 2-subgroups as payload-sets, sorted: the conjugate orbit of
    one of them."""
    return sorted(conjugate_orbit(oracle, sylow2(oracle, cap=cap))[0], key=sorted)


def _conjugated(oracle: GroupOracle, members: Iterable[Element], g: Element) -> Iterator[Element]:
    """m^g for each member m, lazily, so a caller can stop at the first image
    it rejects: g is inverted once, and the identity, fixed by every g, costs
    no muls."""
    g_inv = oracle.inv(g)
    ident = oracle.identity().payload
    for a in members:
        yield a if a.payload == ident else oracle.mul(oracle.mul(g_inv, a), g)


def conjugate_orbit(
    oracle: GroupOracle, members: Sequence[Element]
) -> tuple[list[frozenset[tuple]], list[tuple[int, ...]]]:
    """The conjugates of the member set, as payload-sets in discovery order
    (the set itself first), and each generator's permutation of them as an
    image tuple.  The orbit under the generators is the orbit under G."""
    first = frozenset(a.payload for a in members)
    index = {first: 0}
    orbit = [first]
    images: list[list[int]] = [[] for _ in oracle.generators]
    for s in orbit:
        elems = [Element(oracle.backend_id, p) for p in s]
        for img, g in zip(images, oracle.generators):
            image = frozenset(c.payload for c in _conjugated(oracle, elems, g))
            if image not in index:
                index[image] = len(orbit)
                orbit.append(image)
            img.append(index[image])
    return orbit, [tuple(img) for img in images]


def is_ti_orbit(orbit: Sequence[frozenset[tuple]]) -> bool:
    """Distinct sets of a conjugate orbit of a subgroup meet only in the
    identity.  (S^a, S^b) is conjugate to (S, S^(b a^-1)), so comparing the
    first set with each other one decides every pair."""
    return all(len(orbit[0] & s) == 1 for s in orbit[1:])


def normalizer_of_set(
    oracle: GroupOracle, members: Sequence[Element], cap: int = DEFAULT_ENUM_CAP
) -> list[Element]:
    """All g with {m^g} equal to the member set.  Conjugation is injective, so
    each g is dropped at the first member it moves outside the set."""
    target = {a.payload for a in members}
    return [
        g for g in oracle.enumerate(cap)
        if all(c.payload in target for c in _conjugated(oracle, members, g))
    ]


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

