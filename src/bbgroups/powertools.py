"""Exponent arithmetic and the square-root / involution primitives.

Everything below is phrased against the multiplication oracle alone; the
actual order of an element is never needed.  element_order is brute force:
ground truth for tests and reports.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    EnumerationCapExceeded,
    EvenOrderInput,
    OddOrderInput,
    VerificationFailed,
)
from .oracle import Element, GroupOracle


@dataclass(frozen=True)
class ExponentData:
    """The split e = 2**t * r with r odd."""

    e: int
    t: int
    r: int


def split_exponent(e: int) -> ExponentData:
    """Split a positive exponent bound into its 2-part and odd part."""
    if not isinstance(e, int) or e < 1:
        raise ValueError(f"exponent bound must be a positive integer, got {e!r}")
    t = (e & -e).bit_length() - 1
    return ExponentData(e, t, e >> t)


def power(oracle: GroupOracle, x: Element, k: int) -> Element:
    """x**k by left-to-right binary powering: at most 2*floor(log2 k) + 1 muls."""
    if k < 0:
        raise ValueError("negative exponent; invert first")
    if k == 0:
        return oracle.identity()
    result = x
    for bit in bin(k)[3:]:
        result = oracle.mul(result, result)
        if bit == "1":
            result = oracle.mul(result, x)
    return result


def odd_root(oracle: GroupOracle, x: Element, exp: ExponentData | None = None) -> tuple[Element, Element]:
    """(y, y*y) with y = x**((r+1)/2), in at most 2*floor(log2((r+1)/2)) + 1 muls.

    y*y == x**(r+1) for any r, so x has odd order exactly when y*y == x, and
    then y is the square root of x inside <x>.  Otherwise y*y * x^-1 == x**r,
    the start of the squaring chain to the involution of <x>.
    """
    exp = exp or oracle.exponent_data
    y = power(oracle, x, (exp.r + 1) // 2)
    return y, oracle.mul(y, y)


def has_odd_order(oracle: GroupOracle, x: Element, exp: ExponentData | None = None) -> bool:
    """True iff x**r == identity, which holds iff the order of x is odd."""
    return odd_root(oracle, x, exp)[1] == x


def sqrt_odd(oracle: GroupOracle, x: Element, exp: ExponentData | None = None) -> Element:
    """Square root x**((r+1)/2) of an odd-order element; validates the order."""
    y, y2 = odd_root(oracle, x, exp)
    if y2 != x:
        raise EvenOrderInput("square root requires an element of odd order")
    return y


def extract_involution(oracle: GroupOracle, x: Element, exp: ExponentData | None = None) -> Element:
    """The unique involution in <x> for even-order x, by squaring x**r."""
    exp = exp or oracle.exponent_data
    return squaring_chain(oracle, power(oracle, x, exp.r), exp)


def squaring_chain(oracle: GroupOracle, y: Element, exp: ExponentData) -> Element:
    """The last non-identity term of y, y^2, y^4, ... for y = x**r.

    y == identity means x has odd order.  The chain is capped at t steps;
    running past the cap means the exponent bound does not actually hold
    for this element.
    """
    if oracle.is_identity(y):
        raise OddOrderInput("no involution in <x>: element has odd order")
    for _ in range(exp.t):
        y2 = oracle.mul(y, y)
        if oracle.is_identity(y2):
            return y
        y = y2
    raise VerificationFailed(
        "squaring chain exceeded t steps: exponent contract violated"
    )


def element_order(oracle: GroupOracle, x: Element, cap: int | None = None) -> int:
    """Least n >= 1 with x**n == identity, by iterated multiplication.

    Ground truth for tests and reports; the main algorithms never call this.
    The cap defaults to the oracle's exponent bound, which the order divides.
    """
    cap = cap if cap is not None else oracle.exponent_bound
    y, n = x, 1
    while not oracle.is_identity(y):
        y = oracle.mul(y, x)
        n += 1
        if n > cap:
            raise EnumerationCapExceeded(f"element order exceeds cap {cap}")
    return n
