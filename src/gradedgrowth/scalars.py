"""The one prime bound of the package: GF(p) is a bare prime p < 2**16.

Every module that computes over GF(p) takes p as an int and checks it with
``check_prime``; scalars are plain Python ints reduced to 0..p-1.
"""

from __future__ import annotations

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
