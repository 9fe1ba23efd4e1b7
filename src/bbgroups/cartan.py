"""Two faces of the same square-root map.

Finite side: for a strongly isolated involution t (conjugate to no other
involution inside a Sylow 2-subgroup containing it), x^-1 * x^t has odd
order for every x, so x -> x * sqrt(x^-1 * x^t) is everywhere defined and
lands in C_X(t), left-equivariantly.

Real-matrix side: with the inverse-transpose map tau the same formula
x -> x * sqrt(x^-1 * (x^-1)^T) produces the orthogonal factor of the
classic polar decomposition x = z * sqrt(x^T x), and its equivariance
z(sx) = s z(x) under orthogonal s yields a connectedness witness: a
discrete path of orthogonal matrices obtained by polar-projecting a
nonsingular interpolation.

The two sides deliberately stay separate operations: exact group arithmetic
and binary64 need different error contracts.  Only the real-matrix side
uses numpy, so each of its functions imports it on call: importing
bbgroups does not load numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import (
    ConvergenceFailure,
    EvenOrderInput,
    IllConditioned,
    NotSPD,
    PathConstructionFailed,
    VerificationFailed,
    WrongComponent,
)
from .oracle import DEFAULT_ENUM_CAP, Element, GroupOracle
from .powertools import ExponentData, odd_root
from .subgroups import conjugacy_class, require_involution, sylow2

if TYPE_CHECKING:
    import numpy as np

SQRT_TOL = 1e-12
ORTH_TOL = 1e-10
COND_LIMIT = 1e12


# --- finite-group side -----------------------------------------------------


@dataclass(frozen=True)
class IsolationCertificate:
    """Witness data for the strong-isolation predicate."""

    involution: Element
    sylow_members: tuple[Element, ...]
    conjugates_in_sylow: tuple[Element, ...]
    isolated: bool


def strongly_isolated_check(
    oracle: GroupOracle, t: Element, cap: int = DEFAULT_ENUM_CAP
) -> IsolationCertificate:
    """Is t conjugate to no other involution of a Sylow 2-subgroup containing it?"""
    require_involution(oracle, t, "candidate involution")
    sylow = sylow2(oracle, containing=[t], cap=cap)
    sylow_payloads = {a.payload for a in sylow}
    cls = conjugacy_class(oracle, t, cap)
    inside = [a for a in cls if a.payload in sylow_payloads]
    return IsolationCertificate(
        involution=t,
        sylow_members=tuple(sylow),
        conjugates_in_sylow=tuple(inside),
        isolated=inside == [t],
    )


def isolated_zeta(
    oracle: GroupOracle,
    t: Element,
    x: Element,
    exp: ExponentData | None = None,
) -> Element:
    """x * sqrt(x^-1 * x^t), an element of C_X(t); total when t is strongly isolated."""
    require_involution(oracle, t, "base involution")
    w = oracle.mul(oracle.inv(x), oracle.conjugate(x, t))
    y, y2 = odd_root(oracle, w, exp)
    if y2 != w:
        raise EvenOrderInput(
            "x^-1 * x^t has even order: t is not strongly isolated"
        )
    value = oracle.mul(x, y)
    if not oracle.commutes(value, t):
        raise VerificationFailed("isolated zeta value does not centralize t")
    return value


# --- real-matrix side ---------------------------------------------------------


def _as_square(a) -> np.ndarray:
    import numpy as np
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise IllConditioned(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise IllConditioned("matrix has non-finite entries")
    return m


def is_symmetric(a, tol: float = SQRT_TOL) -> bool:
    import numpy as np
    m = _as_square(a)
    scale = max(1.0, float(np.linalg.norm(m)))
    return float(np.linalg.norm(m - m.T)) <= tol * scale


def is_spd(a, tol: float = SQRT_TOL) -> bool:
    """Symmetric within tol and all eigenvalue estimates strictly positive."""
    import numpy as np
    m = _as_square(a)
    if not is_symmetric(m, tol):
        return False
    eigs = np.linalg.eigvalsh(0.5 * (m + m.T))
    return bool(np.all(eigs > 0.0))

def is_orthogonal(a, tol: float = ORTH_TOL) -> bool:
    import numpy as np
    m = _as_square(a)
    return float(np.linalg.norm(m.T @ m - np.eye(m.shape[0]))) <= tol


def spd_sqrt(a, tol: float = SQRT_TOL, max_iter: int = 100) -> np.ndarray:
    """Unique SPD square root, by a coupled Newton iteration with
    determinant scaling (Y -> sqrt(A), Z -> 1/sqrt(A)); quadratically
    convergent, finished with one correction step against the original A.
    """
    import numpy as np
    m = _as_square(a)
    n = m.shape[0]
    if not is_spd(m, max(tol, SQRT_TOL)):
        raise NotSPD("spd_sqrt needs a symmetric positive definite input")
    norm_a = max(float(np.linalg.norm(m)), 1e-300)
    y = m.copy()
    z = np.eye(n)
    prev = math.inf
    for _ in range(max_iter):
        sy, ldy = np.linalg.slogdet(y)
        sz, ldz = np.linalg.slogdet(z)
        if sy <= 0 or sz == 0:
            raise ConvergenceFailure("iteration left the positive definite cone")
        g = float(np.exp(-(ldy + ldz) / (2 * n)))
        y_next = 0.5 * (g * y + np.linalg.inv(g * z))
        z_next = 0.5 * (g * z + np.linalg.inv(g * y))
        delta = float(np.linalg.norm(y_next - y)) / max(1.0, float(np.linalg.norm(y_next)))
        y, z = y_next, z_next
        # Converged steps shrink delta quadratically.  Once they stop, delta
        # sits at the rounding floor, which for cond ~1e4 lies above 1e-13:
        # a delta under 1e-8 that no longer halves is that floor.
        if delta < 1e-13 or (delta < 1e-8 and delta > prev / 2):
            break
        prev = delta
    else:
        raise ConvergenceFailure(f"square root did not converge in {max_iter} iterations")
    # Newton corrections against the original input until the residual settles
    y = 0.5 * (y + y.T)
    best = y
    best_res = float(np.linalg.norm(best @ best - m))
    for _ in range(4):
        if best_res <= tol * norm_a:
            break
        y = 0.5 * (y + np.linalg.solve(y, m))
        y = 0.5 * (y + y.T)
        res = float(np.linalg.norm(y @ y - m))
        if res >= best_res:
            break
        best, best_res = y, res
    if best_res > tol * norm_a:
        raise ConvergenceFailure("square-root residual above tolerance")
    return best


def polar_decompose(x, tol: float = ORTH_TOL) -> tuple[np.ndarray, np.ndarray]:
    """x = z * p with z orthogonal and p = spd_sqrt(x^T x)."""
    import numpy as np
    m = _as_square(x)
    cond = float(np.linalg.cond(m))
    if not np.isfinite(cond) or cond >= COND_LIMIT:
        raise IllConditioned(f"condition estimate {cond:.3g} at or above {COND_LIMIT:.0e}")
    p = spd_sqrt(m.T @ m, tol=max(SQRT_TOL, tol))
    z = np.linalg.solve(p, m.T).T  # x * p^-1, using p = p^T
    eye = np.eye(m.shape[0])
    for _ in range(3):  # Newton polish toward the orthogonal factor; no-op when tight
        if float(np.linalg.norm(z.T @ z - eye)) <= tol / 16:
            break
        z = 0.5 * (z + np.linalg.inv(z).T)
    if max(polar_residuals(m, z, p)) > tol:
        raise ConvergenceFailure("polar residuals above tolerance")
    return z, p


def polar_residuals(x: np.ndarray, z: np.ndarray, p: np.ndarray) -> tuple[float, float]:
    """Orthogonality residual |z^T z - I| and reconstruction residual
    |z p - x| / |x| (Frobenius norms) of a polar pair of the square array x."""
    import numpy as np
    orthogonality = float(np.linalg.norm(z.T @ z - np.eye(x.shape[0])))
    return orthogonality, float(np.linalg.norm(z @ p - x) / max(np.linalg.norm(x), 1e-300))


def cartan_zeta(x, tol: float = ORTH_TOL) -> np.ndarray:
    """The orthogonal factor via z = x * sqrt(x^-1 * (x^-1)^T)."""
    import numpy as np
    m = _as_square(x)
    cond = float(np.linalg.cond(m))
    if not np.isfinite(cond) or cond >= COND_LIMIT:
        raise IllConditioned(f"condition estimate {cond:.3g} at or above {COND_LIMIT:.0e}")
    minv = np.linalg.inv(m)
    z = m @ spd_sqrt(minv @ minv.T, tol=max(SQRT_TOL, tol))
    for _ in range(3):  # same Newton polish as the polar route
        if is_orthogonal(z, tol / 16):
            break
        z = 0.5 * (z + np.linalg.inv(z).T)
    if not is_orthogonal(z, tol):
        raise ConvergenceFailure("zeta output not orthogonal within tolerance")
    return z


def _pinned_skew(n: int, index: int) -> np.ndarray:
    import numpy as np
    rng = np.random.default_rng(0xC0DEC + index)
    k = rng.standard_normal((n, n))
    w = k - k.T
    norm = float(np.linalg.norm(w))
    if norm == 0.0:
        return np.zeros((n, n))
    return w * (np.sqrt(2.0 * n) / norm)


def connectedness_path(x, steps: int, tol: float = ORTH_TOL) -> list[np.ndarray]:
    """Discrete orthogonal path from the identity to x inside SO(n).

    Projects a straight-line interpolation from I to x through the polar
    map; when the straight line hits a (near-)singular matrix, retries with
    pinned skew perturbations scaled by s*(1-s) so the endpoints stay exact.
    Consecutive path entries differ by at most 2*pi*n/steps in Frobenius
    norm.
    """
    import numpy as np
    m = _as_square(x)
    n = m.shape[0]
    if steps < 1:
        raise PathConstructionFailed("steps must be >= 1")
    if not is_orthogonal(m, tol):
        raise WrongComponent("path endpoint must be orthogonal")
    if float(np.linalg.det(m)) < 0.0:
        raise WrongComponent("determinant -1: endpoint is not in the identity component")
    eye = np.eye(n)
    step_bound = 2.0 * np.pi * n / steps
    attempts: list[tuple[np.ndarray | None, float]] = [(None, 0.0)]
    attempts += [(_pinned_skew(n, idx), scale) for idx in (0, 1, 2) for scale in (1.0, 0.5, 2.0)]
    for skew, scale in attempts:
        path = []
        ok = True
        for k in range(steps + 1):
            s = k / steps
            a = (1.0 - s) * eye + s * m
            if skew is not None:
                a = a + (scale * s * (1.0 - s)) * skew
            if abs(float(np.linalg.det(a))) < 1e-8 or float(np.linalg.cond(a)) >= 1e10:
                ok = False
                break
            path.append(cartan_zeta(a, tol))
        if not ok:
            continue
        if any(
            float(np.linalg.norm(path[k + 1] - path[k])) > step_bound
            for k in range(steps)
        ):
            continue
        return path
    raise PathConstructionFailed(
        "no nonsingular interpolation found within the retry budget"
    )
