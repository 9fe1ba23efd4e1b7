"""Centralizer construction from square roots of products of conjugate involutions.

For a fixed involution i, the zeta map sends an arbitrary element x to a
member of C_X(i): with z = i * i^x,

  * odd branch:  o(z) odd  ->  z**((r+1)/2) * x^-1,
  * even branch: o(z) even ->  the involution from the squaring chain of z
    (the center of the dihedral group generated by i and i^x).

Membership in the centralizer is checked on every call; under a correct
oracle and exponent bound it is a theorem, so a failure is raised as a hard
error, never treated as bad luck.  The map is exactly left/right
equivariant, which makes its value distribution over an exhaustive sweep
uniform on C_X(i) (odd branch) and conjugation-invariant (even branch);
zeta_distribution_audit verifies those counts literally.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import VerificationFailed
from .oracle import DEFAULT_ENUM_CAP, Element, GroupOracle
from .powertools import ExponentData, odd_root, squaring_chain
from .sampler import ReplacementCell, draw
from .subgroups import centralizer, closure, conjugation_classes, is_involution, require_involution

SAMPLE_COUNT_DEFAULT = 20


@dataclass(frozen=True)
class ZetaOutcome:
    """Tagged zeta value; the branch records the parity of o(i * i^x)."""

    branch: str  # "odd" | "even"
    value: Element


def zeta(
    oracle: GroupOracle,
    i: Element,
    x: Element,
    exp: ExponentData | None = None,
) -> ZetaOutcome:
    """Map x into the centralizer of the involution i."""
    exp = exp or oracle.exponent_data
    require_involution(oracle, i, "zeta base point")
    x_inv = oracle.inv(x)  # once, for i^x and for the odd branch
    z = oracle.mul(i, oracle.mul(oracle.mul(x_inv, i), x))
    y, y2 = odd_root(oracle, z, exp)
    if y2 == z:
        value = oracle.mul(y, x_inv)
        branch = "odd"
    else:
        value = squaring_chain(oracle, oracle.mul(y2, oracle.inv(z)), exp)
        branch = "even"
    if not oracle.commutes(value, i):
        raise VerificationFailed(
            "zeta value does not centralize the involution: oracle or exponent bound is wrong"
        )
    return ZetaOutcome(branch, value)


def centralizer_sample(
    oracle: GroupOracle,
    i: Element,
    cell: ReplacementCell,
    m: int = SAMPLE_COUNT_DEFAULT,
    exp: ExponentData | None = None,
) -> list[Element]:
    """m zeta values over random draws, each verified to commute with i."""
    if cell.oracle is not oracle:
        raise VerificationFailed("sampling cell belongs to a different oracle")
    return [zeta(oracle, i, draw(cell), exp).value for _ in range(m)]


@dataclass(frozen=True)
class ClosureReport:
    generated_order: int
    true_order: int
    equal: bool


def centralizer_closure_check(
    oracle: GroupOracle,
    i: Element,
    samples: list[Element],
    cap: int = DEFAULT_ENUM_CAP,
) -> ClosureReport:
    """Compare the closure of sampled values with the brute-force centralizer."""
    generated = closure(oracle, samples, cap)
    true = centralizer(oracle, i, cap)
    return ClosureReport(len(generated), len(true), len(generated) == len(true))


@dataclass
class ZetaDistributionReport:
    """Exhaustive value counts of both zeta branches over the whole group."""

    involution: Element
    group_order: int
    centralizer_order: int
    odd_domain_size: int
    even_domain_size: int
    zeta1_counts: dict[Element, int]
    zeta1_constant: bool
    zeta0_counts: dict[Element, int]
    zeta0_class_constant: bool
    involution_classes: list[list[Element]]


def zeta_distribution_audit(
    oracle: GroupOracle,
    i: Element,
    exp: ExponentData | None = None,
    cap: int = DEFAULT_ENUM_CAP,
) -> ZetaDistributionReport:
    """Sweep every group element through zeta and tally the branch counts.

    The odd-branch count function must be constant on all of C_G(i) (forced
    by the left equivariance), and the even-branch count function must be
    constant on each C_G(i)-conjugacy class of involutions in C_G(i) (forced
    by the right equivariance).
    """
    elems = oracle.enumerate(cap)
    cent = centralizer(oracle, i, cap)
    cent_payloads = {c.payload for c in cent}
    zeta1_counts = {c: 0 for c in cent}
    cent_invs = [c for c in cent if is_involution(oracle, c)]
    zeta0_counts = {c: 0 for c in cent_invs}
    odd = even = 0
    for x in elems:
        out = zeta(oracle, i, x, exp)
        if out.value.payload not in cent_payloads:
            raise VerificationFailed("zeta value escaped the centralizer")
        if out.branch == "odd":
            odd += 1
            zeta1_counts[out.value] += 1
        else:
            even += 1
            zeta0_counts[out.value] += 1
    classes = conjugation_classes(oracle, cent_invs, cent)
    zeta1_constant = len(set(zeta1_counts.values())) == 1
    zeta0_class_constant = all(
        len({zeta0_counts[a] for a in cls}) == 1 for cls in classes
    )
    return ZetaDistributionReport(
        involution=i,
        group_order=len(elems),
        centralizer_order=len(cent),
        odd_domain_size=odd,
        even_domain_size=even,
        zeta1_counts=zeta1_counts,
        zeta1_constant=zeta1_constant,
        zeta0_counts=zeta0_counts,
        zeta0_class_constant=zeta0_class_constant,
        involution_classes=classes,
    )
