"""Length-twisted deformations of group rings.

The deformed product of basis elements is
    d_g * d_h = lambda**(len(g) + len(h) - len(gh)) * d_{gh},
with the exponent nonnegative by the triangle inequality and the convention
0**0 = 1, so lambda = 0 degenerates to the length-graded ("crystal") product
and invertible lambda untwists to the plain group ring via d_g -> lambda**len(g) g.

Elements are immutable finitely supported coefficient maps over normal
forms, pinned to a word-metric ball that must know the lengths of every
support (and of every product the caller asks for).  Coefficients are plain
ints: over GF(p) for a prime p < 2**16, reduced to 0..p-1, or over Z when
p is None; p is checked with scalars.check_prime when an element is built.
"""

from __future__ import annotations

import random

from .errors import ContractError, OutOfRangeError
from .groups import GroupOracle, WordMetricBall, ball
from .scalars import check_prime


def _reduce(c, p: int | None) -> int:
    return int(c) if p is None else int(c) % p


class HeckeElement:
    """Finitely supported map normal form -> coefficient, with deformation lambda."""

    __slots__ = ("group", "ball", "p", "lam", "coeffs")

    def __init__(self, group: GroupOracle, b: WordMetricBall, p: int | None, lam,
                 coeffs: dict):
        if p is not None:
            check_prime(p)
        clean = {}
        for g, c in coeffs.items():
            c = _reduce(c, p)
            if c == 0:
                continue
            if g not in b:
                raise OutOfRangeError("support element outside the attached ball")
            clean[g] = c
        self.group = group
        self.ball = b
        self.p = p
        self.lam = _reduce(lam, p)
        self.coeffs = clean

    def __eq__(self, other):
        return (isinstance(other, HeckeElement)
                and self.group is other.group and self.p == other.p
                and self.lam == other.lam and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((id(self.group), self.lam, tuple(sorted(self.coeffs.items(), key=repr))))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other):
        return _combine(self, other, 1)

    def __sub__(self, other):
        return _combine(self, other, -1)

    def __mul__(self, other):
        return hecke_mul(self, other)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = [f"{c}*d[{g!r}]" for g, c in sorted(self.coeffs.items(), key=repr)]
        return " + ".join(parts)


def _combine(a: HeckeElement, b: HeckeElement, sign: int) -> HeckeElement:
    """a + sign * b."""
    _check_compatible(a, b)
    out = dict(a.coeffs)
    for g, c in b.coeffs.items():
        out[g] = out.get(g, 0) + sign * c
    return HeckeElement(a.group, _wider(a.ball, b.ball), a.p, a.lam, out)


def _check_compatible(a: HeckeElement, b: HeckeElement):
    if a.group is not b.group:
        raise ContractError("elements live over different groups")
    if a.p != b.p:
        raise ContractError("elements live over different coefficient rings")
    if a.lam != b.lam:
        raise ContractError("elements carry different deformation parameters")


def _wider(a: WordMetricBall, b: WordMetricBall) -> WordMetricBall:
    return a if a.radius >= b.radius else b


def delta(group: GroupOracle, b: WordMetricBall, p: int | None, lam, g,
          coeff=1) -> HeckeElement:
    """Single-term element coeff * d_g; g must already be a normal form."""
    return HeckeElement(group, b, p, lam, {g: coeff})


def delta_mul(group: GroupOracle, b: WordMetricBall, p: int | None, lam, g,
              h) -> HeckeElement:
    """d_g * d_h as a single-term element (or zero at lambda = 0)."""
    return hecke_mul(delta(group, b, p, lam, g), delta(group, b, p, lam, h))


def hecke_mul(a: HeckeElement, b: HeckeElement) -> HeckeElement:
    """Bilinear extension of the twisted basis product, zero terms pruned."""
    _check_compatible(a, b)
    wide = _wider(a.ball, b.ball)
    out: dict = {}
    for g, cg in a.coeffs.items():
        for h, ch in b.coeffs.items():
            gh = a.group.mul(g, h)
            c = cg * ch * pow(a.lam, wide.excess(g, h, gh), a.p)
            out[gh] = out.get(gh, 0) + c
    return HeckeElement(a.group, wide, a.p, a.lam, out)


def unit(group: GroupOracle, b: WordMetricBall, p: int | None, lam) -> HeckeElement:
    return HeckeElement(group, b, p, lam, {group.identity: 1})


def untwist(a: HeckeElement) -> HeckeElement:
    """Apply d_g -> lambda**len(g) g; needs lambda invertible.  The image is
    a plain group-ring element, represented at deformation parameter 1
    (where the twisted product IS the group-ring product)."""
    invertible = a.lam in (1, -1) if a.p is None else a.lam != 0
    if not invertible:
        raise ContractError("untwisting needs an invertible deformation parameter")
    out = {g: c * pow(a.lam, a.ball.word_length(g), a.p) for g, c in a.coeffs.items()}
    return HeckeElement(a.group, a.ball, a.p, 1, out)


def crystal_monomial_check(group: GroupOracle, radius: int, p: int | None,
                           sample_size: int | None = None, seed: int = 0) -> bool:
    """At lambda = 0, products of basis elements must be 0 or again basis
    elements (coefficient exactly 1).  Checks all pairs from the radius ball
    (or a seeded sample), evaluating inside the radius-2r ball."""
    if p is not None:
        check_prime(p)
    if sample_size is not None and sample_size < 1:
        raise ContractError(f"sample size must be at least 1, got {sample_size}")
    wide = ball(group, 2 * radius)
    small = [g for g in wide.elements if wide.lengths[g] <= radius]
    pairs = [(g, h) for g in small for h in small]
    if sample_size is not None and sample_size < len(pairs):
        rng = random.Random(seed)
        pairs = rng.sample(pairs, sample_size)
    for g, h in pairs:
        prod = delta_mul(group, wide, p, 0, g, h)
        if prod.is_zero():
            continue
        if len(prod.coeffs) != 1 or set(prod.coeffs.values()) != {1}:
            return False
    return True
