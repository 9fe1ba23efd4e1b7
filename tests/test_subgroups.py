import math

import pytest
from hypothesis import given, settings, strategies as st

from bbgroups import draw, moebius_oracle, seed_cell, zeta
from bbgroups.errors import BackendMismatch, EnumerationCapExceeded
from bbgroups.subgroups import closure

from conftest import make_a5, make_s4, make_sl2_3

GROUPS = {
    "s4": make_s4(),
    "a5": make_a5(),
    "sl2_3": make_sl2_3(),
    "moebius3": moebius_oracle(3),
}
POLY8 = [1, 0, 1, 1, 1, 0, 0, 0, 1]  # x^8 + x^4 + x^3 + x^2 + 1


def reference_closure(oracle, gens):
    """Breadth-first closure: every member times every generator."""
    seen = {oracle.identity().payload}
    frontier = [oracle.identity()]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = oracle.mul(a, g)
                if b.payload not in seen:
                    seen.add(b.payload)
                    nxt.append(b)
        frontier = nxt
    return sorted(seen)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_closure_matches_reference_bfs(data):
    oracle = GROUPS[data.draw(st.sampled_from(sorted(GROUPS)))]
    elems = oracle.enumerate()
    gens = data.draw(st.lists(st.sampled_from(elems), max_size=4))
    before = oracle.mult_counter.total
    sub = closure(oracle, gens)
    muls = oracle.mult_counter.total - before
    assert [a.payload for a in sub] == reference_closure(oracle, gens)
    assert muls <= len(sub) * len(gens)


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_closure_cap_is_exact(name):
    oracle = GROUPS[name]
    order = oracle.order()
    with pytest.raises(EnumerationCapExceeded, match=f"exceeds cap {order - 1}"):
        closure(oracle, oracle.generators, order - 1)
    assert len(closure(oracle, oracle.generators, order)) == order


def test_centralizer_closure_mul_budget():
    # Burnside's SL2(256) on 257 points: ten zeta values of the translation
    # z -> z + 1 generate its centralizer, elementary abelian of order 256.
    oracle = moebius_oracle(8, POLY8, exponent=math.lcm(2, 255, 257))
    i = oracle.generators[0]
    cell = seed_cell(oracle, seed=1)
    values = [zeta(oracle, i, draw(cell)).value for _ in range(10)]
    before = oracle.mult_counter.total
    group = closure(oracle, values)
    muls = oracle.mult_counter.total - before
    assert len(group) == 256
    assert muls <= 512  # a breadth-first closure pays 256 * 10
    before = oracle.mult_counter.total
    assert closure(oracle, values + values) == group
    assert oracle.mult_counter.total - before == muls  # members cost nothing


def test_enumerate_mul_budget():
    oracle = moebius_oracle(3, exponent=math.lcm(2, 7, 9))
    before = oracle.mult_counter.total
    assert oracle.order() == 504
    assert oracle.mult_counter.total - before <= 1008  # breadth-first: 504 * 3


def test_closure_rejects_foreign_elements():
    a5, s4 = GROUPS["a5"], GROUPS["s4"]
    for gens in ([s4.generators[0]], [a5.generators[0], s4.identity()]):
        with pytest.raises(BackendMismatch):
            closure(a5, gens)
