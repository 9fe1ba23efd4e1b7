import numpy as np
import pytest

from bbgroups import (
    cartan_zeta,
    connectedness_path,
    is_orthogonal,
    is_spd,
    is_symmetric,
    isolated_zeta,
    polar_decompose,
    spd_sqrt,
    strongly_isolated_check,
)
from bbgroups.errors import (
    EvenOrderInput,
    IllConditioned,
    NotAnInvolution,
    NotSPD,
    WrongComponent,
)
from bbgroups.subgroups import centralizer

from conftest import make_sl2_3


# --- finite side -------------------------------------------------------------


def test_isolation_s3(s3):
    cert = strongly_isolated_check(s3, s3.parse_element("(1 2)"))
    assert cert.isolated
    assert len(cert.sylow_members) == 2
    assert cert.conjugates_in_sylow == (s3.parse_element("(1 2)"),)


def test_isolation_s4_transposition(s4):
    t = s4.parse_element("(1 2)")
    cert = strongly_isolated_check(s4, t)
    assert not cert.isolated
    assert len(cert.sylow_members) == 8  # dihedral Sylow
    assert len(cert.conjugates_in_sylow) > 1


def test_isolation_d8_center(d8):
    cert = strongly_isolated_check(d8, d8.parse_element("(1 3)(2 4)"))
    assert cert.isolated


def test_isolation_rejects_non_involution(s3):
    with pytest.raises(NotAnInvolution):
        strongly_isolated_check(s3, s3.parse_element("(1 2 3)"))


def test_isolated_zeta_worked_example(s3):
    t = s3.parse_element("(1 2)")
    x = s3.parse_element("(1 2 3)")
    w = s3.mul(s3.inv(x), s3.conjugate(x, t))
    assert s3.element_str(w) == "(1 2 3)"
    assert isolated_zeta(s3, t, x) == s3.identity()


def test_isolated_zeta_at_t(s3):
    t = s3.parse_element("(1 2)")
    assert isolated_zeta(s3, t, t) == t


def test_isolated_zeta_total_and_equivariant_s3(s3):
    t = s3.parse_element("(1 2)")
    cent = centralizer(s3, t)
    values = {}
    for x in s3.enumerate():
        v = isolated_zeta(s3, t, x)
        assert v in set(cent)
        values[x] = v
    for c in cent:
        for x in s3.enumerate():
            assert isolated_zeta(s3, t, s3.mul(c, x)) == s3.mul(c, values[x])


def test_isolated_zeta_total_d8_center(d8):
    t = d8.parse_element("(1 3)(2 4)")
    for x in d8.enumerate():
        isolated_zeta(d8, t, x)  # defined everywhere, never raises


def test_isolated_zeta_central_degenerates_to_identity_map():
    sl2_3 = make_sl2_3()
    t = sl2_3.parse_element("[[2, 0], [0, 2]]")  # -I, the unique involution
    assert strongly_isolated_check(sl2_3, t).isolated
    for x in sl2_3.enumerate():
        assert isolated_zeta(sl2_3, t, x) == x


def test_isolated_zeta_raises_when_not_isolated(s4):
    t = s4.parse_element("(1 2)")
    x = s4.parse_element("(1 3)(2 4)")  # t^x = (3 4) commutes with t
    with pytest.raises(EvenOrderInput):
        isolated_zeta(s4, t, x)


# --- predicates ------------------------------------------------------------


def test_predicates():
    assert is_symmetric(np.eye(3))
    assert not is_symmetric(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert is_spd(np.diag([2.0, 0.5]))
    assert not is_spd(np.diag([1.0, -1.0]))
    assert not is_spd(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert is_orthogonal(np.eye(4))
    r = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert is_orthogonal(r)
    assert not is_orthogonal(2 * np.eye(2))


# --- spd square root -----------------------------------------------------------


def test_spd_sqrt_identity():
    assert np.allclose(spd_sqrt(np.eye(4)), np.eye(4), atol=1e-14)


def test_spd_sqrt_diagonal():
    b = spd_sqrt(np.diag([4.0, 0.25]))
    assert np.allclose(b, np.diag([2.0, 0.5]), atol=1e-13)


def test_spd_sqrt_random_residuals():
    rng = np.random.default_rng(5)
    for _ in range(25):
        m = rng.standard_normal((5, 5))
        a = m.T @ m + np.eye(5)
        b = spd_sqrt(a)
        assert np.linalg.norm(b @ b - a) <= 1e-12 * np.linalg.norm(a)
        assert is_symmetric(b, 1e-12)
        assert np.all(np.linalg.eigvalsh(b) > 0)


def test_spd_sqrt_rejects_non_spd():
    with pytest.raises(NotSPD):
        spd_sqrt(np.diag([1.0, -2.0]))
    with pytest.raises(NotSPD):
        spd_sqrt(np.array([[1.0, 0.5], [0.0, 1.0]]))


# --- polar decomposition ----------------------------------------------------------


def test_polar_orthogonal_input():
    theta = 0.7
    q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    z, p = polar_decompose(q)
    assert np.allclose(z, q, atol=1e-12)
    assert np.allclose(p, np.eye(2), atol=1e-12)


def test_polar_spd_input():
    x = np.diag([2.0, 0.5])
    z, p = polar_decompose(x)
    assert np.allclose(z, np.eye(2), atol=1e-12)
    assert np.allclose(p, x, atol=1e-12)


def test_polar_random_residuals():
    rng = np.random.default_rng(17)
    for n in range(2, 7):
        for _ in range(20):
            x = rng.standard_normal((n, n))
            z, p = polar_decompose(x)
            assert np.linalg.norm(z.T @ z - np.eye(n)) <= 1e-10
            assert np.linalg.norm(z @ p - x) <= 1e-9 * np.linalg.norm(x)
            assert is_spd(p, 1e-10)


# cond 3.0e4: once converged, the Newton step's delta settles at 3-8e-13,
# above the 1e-13 the iteration used to wait for.
STALLED = [
    [1.3025430725670177, 0.7753699348235243, 0.8801494878626452],
    [0.9006805365032178, 1.4071105762896232, -0.7123348485098042],
    [0.8593754105315994, -0.8806556047532497, 2.69287530093989],
]


def test_polar_converges_where_delta_stalls_above_1e_13():
    x = np.array(STALLED)
    z, p = polar_decompose(x)
    assert np.linalg.norm(z.T @ z - np.eye(3)) <= 1e-15
    assert np.linalg.norm(z @ p - x) <= 2e-11 * np.linalg.norm(x)
    assert is_spd(p, 1e-10)


def delta_below_1e_13_sqrt(m):
    """spd_sqrt with the stopping rule delta < 1e-13 only, corrections as in
    the library: where that rule converges, spd_sqrt must agree bit for bit."""
    n = m.shape[0]
    y, z = m.copy(), np.eye(n)
    for _ in range(100):
        g = float(np.exp(-(np.linalg.slogdet(y)[1] + np.linalg.slogdet(z)[1]) / (2 * n)))
        y_next = 0.5 * (g * y + np.linalg.inv(g * z))
        z = 0.5 * (g * z + np.linalg.inv(g * y))
        delta = float(np.linalg.norm(y_next - y)) / max(1.0, float(np.linalg.norm(y_next)))
        y = y_next
        if delta < 1e-13:
            break
    y = 0.5 * (y + y.T)
    best, best_res = y, float(np.linalg.norm(y @ y - m))
    for _ in range(4):
        if best_res <= 1e-12 * float(np.linalg.norm(m)):
            break
        y = 0.5 * (y + np.linalg.solve(y, m))
        y = 0.5 * (y + y.T)
        res = float(np.linalg.norm(y @ y - m))
        if res >= best_res:
            break
        best, best_res = y, res
    return best


def test_spd_sqrt_unchanged_where_delta_reaches_1e_13():
    # the polar inputs of the cli_audit benchmark: uniform(-1, 1) + 2I, 3x3
    rng = np.random.default_rng(9)
    for _ in range(300):
        x = rng.uniform(-1.0, 1.0, (3, 3)) + 2.0 * np.eye(3)
        a = x.T @ x
        assert spd_sqrt(a).tobytes() == delta_below_1e_13_sqrt(a).tobytes()


def test_polar_rejects_singular():
    with pytest.raises(IllConditioned):
        polar_decompose(np.array([[1.0, 1.0], [1.0, 1.0]]))


# --- cartan zeta -------------------------------------------------------------------


def test_cartan_zeta_orthogonal_fixed_point():
    q = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert np.allclose(cartan_zeta(q), q, atol=1e-12)


def test_cartan_zeta_spd_maps_to_identity():
    x = np.diag([3.0, 0.25, 1.5])
    assert np.allclose(cartan_zeta(x), np.eye(3), atol=1e-11)


def test_cartan_zeta_agrees_with_polar():
    rng = np.random.default_rng(23)
    for n in range(2, 7):
        x = rng.standard_normal((n, n))
        z, _ = polar_decompose(x)
        assert np.linalg.norm(cartan_zeta(x) - z) <= 1e-9


def test_cartan_zeta_equivariance():
    rng = np.random.default_rng(29)
    for n in range(2, 7):
        x = rng.standard_normal((n, n))
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        assert np.linalg.norm(cartan_zeta(q @ x) - q @ cartan_zeta(x)) <= 1e-9


# --- connectedness path ------------------------------------------------------------


def test_path_identity_constant():
    path = connectedness_path(np.eye(3), 6)
    assert len(path) == 7
    for m in path:
        assert np.allclose(m, np.eye(3), atol=1e-12)


def test_path_rotation_by_pi():
    x = np.array([[-1.0, 0.0], [0.0, -1.0]])
    steps = 8
    path = connectedness_path(x, steps)
    assert len(path) == steps + 1
    assert np.allclose(path[0], np.eye(2), atol=1e-10)
    assert np.allclose(path[-1], x, atol=1e-10)
    bound = 2 * np.pi * 2 / steps
    for k in range(steps):
        assert np.linalg.norm(path[k + 1] - path[k]) <= bound
        assert is_orthogonal(path[k], 1e-9)


def test_path_wrong_component():
    with pytest.raises(WrongComponent):
        connectedness_path(np.diag([1.0, -1.0]), 8)


def test_path_requires_orthogonal():
    with pytest.raises(WrongComponent):
        connectedness_path(np.diag([2.0, 0.5]), 8)


def test_path_random_rotation():
    rng = np.random.default_rng(31)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    steps = 12
    path = connectedness_path(q, steps)
    assert len(path) == steps + 1
    assert np.allclose(path[-1], q, atol=1e-9)
    bound = 2 * np.pi * 4 / steps
    for k in range(steps):
        assert np.linalg.norm(path[k + 1] - path[k]) <= bound
