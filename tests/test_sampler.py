from collections import Counter

import pytest
from scipy.stats import chi2

from bbgroups import PermOracle, draw, seed_cell
from bbgroups.errors import InvalidBackendSpec

from conftest import make_cyclic, make_d8, make_s3


def draws(oracle, n, seed, cell_size=10, burn_in=50):
    cell = seed_cell(oracle, cell_size, burn_in, seed)
    return [draw(cell) for _ in range(n)]


def test_determinism():
    s3 = make_s3()
    assert draws(s3, 200, seed=7) == draws(s3, 200, seed=7)
    assert draws(s3, 200, seed=7) != draws(s3, 200, seed=8)


def test_fill_rule(s3):
    cell = seed_cell(s3, 10, 0, seed=1)
    g1, g2 = s3.generators
    assert cell.slots == [g1, g2] * 5


def test_cell_size_padded_to_minimum(s3):
    cell = seed_cell(s3, 2, 0, seed=1)
    assert len(cell.slots) == 5  # max(gens + 2, 5)


def test_cell_size_below_generator_count_rejected(sl2_8):
    with pytest.raises(InvalidBackendSpec):
        seed_cell(sl2_8, 2, 0, seed=1)
    with pytest.raises(InvalidBackendSpec):
        seed_cell(sl2_8, 10, -1, seed=1)


def test_closure_every_draw_is_a_member(s4):
    members = set(s4.enumerate())
    for x in draws(s4, 500, seed=3):
        assert x in members


def test_steps_taken_tracks(s3):
    cell = seed_cell(s3, 10, 50, seed=0)
    assert cell.steps_taken == 50
    draw(cell)
    assert cell.steps_taken == 51


def chi_square_statistic(counts, elems, n):
    expected = n / len(elems)
    return sum((counts.get(a, 0) - expected) ** 2 / expected for a in elems)


@pytest.mark.parametrize(
    "factory,seed",
    [(make_s3, 3), (lambda: make_cyclic(5), 7), (make_d8, 5), (lambda: make_cyclic(2), 2)],
)
def test_chi_square_uniformity(factory, seed):
    oracle = factory()
    elems = oracle.enumerate()
    n = 10_000
    counts = Counter(draws(oracle, n, seed=seed))
    stat = chi_square_statistic(counts, elems, n)
    critical = chi2.ppf(0.99, df=len(elems) - 1)
    assert stat < critical, f"chi2 {stat:.1f} >= {critical:.1f}"


def test_c5_within_five_percent():
    c5 = make_cyclic(5)
    counts = Counter(draws(c5, 10_000, seed=7))
    for a in c5.enumerate():
        assert abs(counts[a] - 2000) <= 100


def test_s3_within_five_percent():
    s3 = make_s3()
    counts = Counter(draws(s3, 10_000, seed=3))
    for a in s3.enumerate():
        assert abs(counts[a] - 10_000 / 6) <= 10_000 / 6 * 0.05


def test_moebius2_identity_frequency(moebius2):
    counts = Counter(draws(moebius2, 10_000, seed=11))
    target = 10_000 / 60
    assert abs(counts[moebius2.identity()] - target) <= target * 0.5


def test_trivial_group_draws_identity():
    triv = PermOracle(1, [[]])
    cell = seed_cell(triv, 10, 20, seed=0)
    for _ in range(50):
        assert draw(cell) == triv.identity()
