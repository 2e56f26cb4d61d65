"""Exact coefficient rings for deformation arithmetic: GF(p), Z, Q.

Scalars are plain Python values (ints for GF(p) and Z, Fraction for Q);
the ring object supplies the operations.  The convention 0**0 = 1 is applied
uniformly in ``pow`` so the crystal product at lambda = 0 keeps unit
coefficients on length-additive products.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ContractError

# Odd-p elimination adds up to (p-1)**2 per entry per step without reducing,
# so int64 has room for 2**30 steps below this bound.
PRIME_BOUND = 1 << 16


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def check_prime(p: int) -> int:
    """p itself, if it is a prime below PRIME_BOUND; ContractError otherwise."""
    if not (p < PRIME_BOUND and is_prime(p)):
        raise ContractError(f"coefficient field needs a prime p < 2**16, got {p}")
    return p


class PrimeField:
    """GF(p) for p < 2**16, scalars canonicalized to 0..p-1."""

    def __init__(self, p: int):
        self.p = check_prime(p)
        self.zero = 0
        self.one = 1 % p

    def coerce(self, x) -> int:
        return int(x) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def is_invertible(self, a) -> bool:
        return a % self.p != 0

    def inv(self, a):
        if self.is_zero(a):
            raise ContractError("0 is not invertible in GF(p)")
        return pow(int(a), -1, self.p)

    def pow(self, a, e: int):
        if e < 0:
            raise ContractError("negative exponent")
        if e == 0:
            return self.one
        return pow(int(a) % self.p, e, self.p)

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


class IntegerRing:
    zero = 0
    one = 1

    def coerce(self, x) -> int:
        return int(x)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def is_zero(self, a) -> bool:
        return a == 0

    def is_invertible(self, a) -> bool:
        return a in (1, -1)

    def inv(self, a):
        if not self.is_invertible(a):
            raise ContractError(f"{a} is not invertible in Z")
        return a

    def pow(self, a, e: int):
        if e < 0:
            raise ContractError("negative exponent")
        return 1 if e == 0 else a**e

    def __repr__(self):
        return "Z"

    def __eq__(self, other):
        return isinstance(other, IntegerRing)

    def __hash__(self):
        return hash("Z")


class RationalField:
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, x) -> Fraction:
        return Fraction(x)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def is_zero(self, a) -> bool:
        return a == 0

    def is_invertible(self, a) -> bool:
        return a != 0

    def inv(self, a):
        if a == 0:
            raise ContractError("0 is not invertible in Q")
        return 1 / Fraction(a)

    def pow(self, a, e: int):
        if e < 0:
            raise ContractError("negative exponent")
        return Fraction(1) if e == 0 else Fraction(a) ** e

    def __repr__(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")


ZZ = IntegerRing()
QQ = RationalField()


def GF(p: int) -> PrimeField:
    return PrimeField(p)
