"""Memory-budget knobs.

The environment variable GRADEDGROWTH_BUDGET_MB, when set to a positive
integer, replaces the default caps of exactly two operations: the ball BFS
(`ball_cap`) and the chain of tiling quotients (`quotient_cap`), each at
20,000 elements per megabyte.  The cap on finite group algebras (2,048
elements, checked by `check_algebra_order`) does not read it; only an
explicit override such as `growth --max-order` changes that cap.  Any other
value of the variable raises ContractError.

The augmentation ladder of a finite group algebra of order n is read off
Jennings' basis with no climb.  It allocates at most LADDER_BLOCKS (6) int64
blocks of n^2 entries at once: the flag, which it keeps, the Jennings
monomials, their images in k[G/N] and one elimination's working copies (a
peak of 3.2 blocks at p = 2 and 5.0 at odd p, by tracemalloc on cyclic
p-groups of order 2,048 to 4,096).  A ladder over LADDER_BYTES (1 GiB,
fixed) is refused before its Jennings series is computed; the cap admits
orders up to 4,729.
"""

from __future__ import annotations

import os

from .errors import ContractError, ResourceBudgetError

DEFAULT_BALL_CAP = 10_000_000
DEFAULT_ALGEBRA_CAP = 2048
DEFAULT_QUOTIENT_CAP = 2_000_000
LADDER_BYTES = 1 << 30
LADDER_BLOCKS = 6

# rough elements-per-megabyte figure used to translate the env budget
_ELEMS_PER_MB = 20_000


def _elements_cap(default: int) -> int:
    """The env budget in elements when it is set, else the default."""
    raw = os.environ.get("GRADEDGROWTH_BUDGET_MB")
    if not raw:
        return default
    try:
        mb = int(raw)
    except ValueError:
        mb = 0
    if mb < 1:
        raise ContractError(f"GRADEDGROWTH_BUDGET_MB must be a positive integer, got {raw!r}")
    return mb * _ELEMS_PER_MB


def ball_cap() -> int:
    return _elements_cap(DEFAULT_BALL_CAP)


def check_algebra_order(order: int, max_order: int | None = None) -> None:
    """ResourceBudgetError when a finite group algebra of this order would
    pass the algebra cap: max_order, or DEFAULT_ALGEBRA_CAP when it is None."""
    cap = DEFAULT_ALGEBRA_CAP if max_order is None else max_order
    if order > cap:
        raise ResourceBudgetError(f"group order {order} exceeds algebra cap {cap}")


def quotient_cap() -> int:
    return _elements_cap(DEFAULT_QUOTIENT_CAP)
