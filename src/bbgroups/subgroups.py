"""Brute-force subgroup machinery over enumerable oracles.

Ground-truth utilities shared by the audits and the test suite: subgroup
closure, centralizers, conjugacy classes, Sylow 2-subgroups, normalizers,
conjugate orbits of a set, and orbit counting on ordered triples.
Everything here is exhaustive and only meant for desk-scale groups.

Centralizers and normalizers are point stabilizers of the conjugation
action, so none of them scans G: one breadth-first orbit walk under the
generators gives the orbit, and Schreier's lemma gives the stabilizer, whose
order |G|/|orbit| tells the closure when to stop.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Iterator, NamedTuple, Sequence

from .errors import EnumerationCapExceeded, NotAnInvolution, VerificationFailed
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
    order: int | None = None,
) -> list[Element]:
    """Subgroup generated by the elements (identity included), sorted by payload.

    Dimino's coset-by-coset closure: with H = <g_1..g_{i-1}>, a generator g_i
    already in H costs nothing; otherwise <H, g_i> is the union of the right
    cosets H*x for x reached from g_i by right multiplication with g_1..g_i.
    The members are always a union of cosets of H, so a coset whose
    representative is not a member is new as a whole, and is added for
    |H| - 1 muls plus one per generator used.  Raises EnumerationCapExceeded
    exactly when the subgroup has more than cap elements.

    order is the subgroup's order when the library already knows it (a
    stabilizer's, by orbit-stabilizer): the closure stops as soon as it
    holds that many members, and draws no further element from a lazy
    iterable.
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
            if len(seen) == order:
                return sorted(seen)
            reps.extend(oracle.mul(x, s) for s in used)
    return sorted(seen)


# --- orbits and stabilizers ---------------------------------------------------


class _Orbit(NamedTuple):
    """A breadth-first orbit walk under the oracle's generators.

    points and keys are in discovery order, start first.  tree[j] = (k, gi)
    says point j was found as point k moved by generator gi, so the
    transversal is reps[j] = reps[k] * g_gi with reps[0] the identity.
    images[gi][k] is the index of point k moved by generator gi, and edges
    lists the non-tree steps (k, gi, j) in walk order.
    """

    points: list
    keys: list
    tree: list[tuple[int, int]]
    images: list[list[int]]
    edges: list[tuple[int, int, int]]


def _orbit(
    oracle: GroupOracle,
    start,
    act: Callable[[object, Element, Element], object],
    key: Callable[[object], Hashable],
) -> _Orbit:
    """The orbit of start under act(point, g, g^-1), a right action, with
    points told apart by key.  The orbit under the generators is the orbit
    under G, and the only muls are act's."""
    gens = [(g, oracle.inv(g)) for g in oracle.generators]
    points, keys = [start], [key(start)]
    index = {keys[0]: 0}
    tree = [(0, 0)]
    images: list[list[int]] = [[] for _ in gens]
    edges = []
    for k, p in enumerate(points):
        for gi, (g, g_inv) in enumerate(gens):
            q = act(p, g, g_inv)
            kq = key(q)
            j = index.get(kq)
            if j is None:
                j = index[kq] = len(points)
                points.append(q)
                keys.append(kq)
                tree.append((k, gi))
            else:
                edges.append((k, gi, j))
            images[gi].append(j)
    return _Orbit(points, keys, tree, images, edges)


def _schreier_generators(oracle: GroupOracle, walk: _Orbit) -> Iterator[Element]:
    """reps[k] * g * reps[j]^-1 for each non-tree step (k, g, j), lazily
    (Schreier's lemma: together they generate the stabilizer of point 0).
    A transversal element is made only when a generator needs it; the step
    from point 0 is free."""
    gens = oracle.generators
    reps: list[Element | None] = [oracle.identity()] + [
        gens[gi] if k == 0 else None for k, gi in walk.tree[1:]
    ]

    def rep(j: int) -> Element:
        path = []
        while reps[j] is None:
            path.append(j)
            j = walk.tree[j][0]
        r = reps[j]
        for m in reversed(path):
            r = reps[m] = oracle.mul(r, gens[walk.tree[m][1]])
        return r

    for k, gi, j in walk.edges:
        x = gens[gi] if k == 0 else oracle.mul(rep(k), gens[gi])
        yield x if j == 0 else oracle.mul(x, oracle.inv(rep(j)))


def _stabilizer(oracle: GroupOracle, walk: _Orbit, cap: int) -> list[Element]:
    """The stabilizer of the walk's start point, sorted by payload: the
    closure of the Schreier generators, stopped at |G| / |orbit| members."""
    elems = oracle.enumerate(cap)
    order = len(elems) // len(walk.points)
    if order == len(elems):
        return list(elems)
    if order == 1:
        return [oracle.identity()]
    stab = closure(oracle, _schreier_generators(oracle, walk), cap, order)
    if len(stab) != order:  # Schreier's lemma, under a true group action
        raise VerificationFailed(f"stabilizer of order {len(stab)}, not |G| / |orbit| = {order}")
    return stab


def _element_orbit(oracle: GroupOracle, a: Element) -> _Orbit:
    """The conjugation orbit of a, keyed by payload."""
    mul = oracle.mul
    return _orbit(oracle, a, lambda x, g, g_inv: mul(mul(g_inv, x), g), lambda x: x.payload)


def _set_orbit(oracle: GroupOracle, members: Iterable[Element]) -> _Orbit:
    """The conjugation orbit of the member set, keyed by payload-set."""
    return _orbit(
        oracle,
        tuple(members),
        lambda s, g, g_inv: tuple(_conjugated(oracle, s, g, g_inv)),
        lambda s: frozenset(a.payload for a in s),
    )


def _class_walks(oracle: GroupOracle, members: Sequence[Element]) -> list[_Orbit]:
    """The conjugation orbits that split members, a set closed under
    conjugation by G, into classes.  Each walk starts at the least member
    left, so the classes come out ordered by least member."""
    rest = {a.payload for a in members}
    walks = []
    while rest:
        walk = _element_orbit(oracle, Element(oracle.backend_id, min(rest)))
        rest.difference_update(walk.keys)
        walks.append(walk)
    return walks


def centralizer(
    oracle: GroupOracle, a: Element, cap: int = DEFAULT_ENUM_CAP
) -> list[Element]:
    """All elements of G commuting with a (which may lie outside G), sorted:
    the stabilizer of a's conjugation orbit."""
    oracle.enumerate(cap)
    return _stabilizer(oracle, _element_orbit(oracle, a), cap)


def conjugacy_class(
    oracle: GroupOracle, a: Element, cap: int = DEFAULT_ENUM_CAP
) -> list[Element]:
    """The class {a^g : g in G}, sorted by payload."""
    oracle.enumerate(cap)
    return sorted(_element_orbit(oracle, a).points)


def involutions(oracle: GroupOracle, cap: int = DEFAULT_ENUM_CAP) -> list[Element]:
    return [a for a in oracle.enumerate(cap) if is_involution(oracle, a)]


def involution_classes(
    oracle: GroupOracle, cap: int = DEFAULT_ENUM_CAP
) -> list[list[Element]]:
    """Conjugacy classes of involutions, each sorted, ordered by least member."""
    return [sorted(w.points) for w in _class_walks(oracle, involutions(oracle, cap))]


def conjugation_classes(
    oracle: GroupOracle, members: Sequence[Element], by: Sequence[Element]
) -> list[list[Element]]:
    """Split members into classes under conjugation by the elements of by,
    an explicit subgroup list (a centralizer, a normalizer), not G.

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
            if all(c.payload in member_payloads for c in _conjugated(oracle, group, g, oracle.inv(g))):
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


def _conjugated(
    oracle: GroupOracle, members: Iterable[Element], g: Element, g_inv: Element
) -> Iterator[Element]:
    """m^g for each member m, lazily, so a caller can stop at the first image
    it rejects; the identity, fixed by every g, costs no muls."""
    ident = oracle.identity().payload
    for a in members:
        yield a if a.payload == ident else oracle.mul(oracle.mul(g_inv, a), g)


def conjugate_orbit(
    oracle: GroupOracle, members: Sequence[Element]
) -> tuple[list[frozenset[tuple]], list[tuple[int, ...]]]:
    """The conjugates of the member set, as payload-sets in discovery order
    (the set itself first), and each generator's permutation of them as an
    image tuple."""
    walk = _set_orbit(oracle, members)
    return walk.keys, [tuple(img) for img in walk.images]


def is_ti_orbit(orbit: Sequence[frozenset[tuple]]) -> bool:
    """Distinct sets of a conjugate orbit of a subgroup meet only in the
    identity.  (S^a, S^b) is conjugate to (S, S^(b a^-1)), so comparing the
    first set with each other one decides every pair."""
    return all(len(orbit[0] & s) == 1 for s in orbit[1:])


def normalizer_of_set(
    oracle: GroupOracle, members: Sequence[Element], cap: int = DEFAULT_ENUM_CAP
) -> list[Element]:
    """All g with {m^g} equal to the member set, sorted: the stabilizer of
    the set's conjugation orbit."""
    oracle.enumerate(cap)
    return _stabilizer(oracle, _set_orbit(oracle, members), cap)


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

