"""Memory-budget knobs.

The environment variable GRADEDGROWTH_BUDGET_MB, when set to a positive
integer, replaces the default caps of exactly two operations: the ball BFS
(`ball_cap`) and the chain of tiling quotients (`quotient_cap`), each at
20,000 elements per megabyte.  The cap on finite group algebras
(`algebra_cap`, 2,048 elements) does not read it; only an explicit override
such as `growth --max-order` changes that cap.  Any other value of the
variable raises ContractError.
"""

from __future__ import annotations

import os

from .errors import ContractError

DEFAULT_BALL_CAP = 10_000_000
DEFAULT_ALGEBRA_CAP = 2048
DEFAULT_QUOTIENT_CAP = 2_000_000

# rough elements-per-megabyte figures used to translate the env budget
_BALL_ELEMS_PER_MB = 20_000
_QUOTIENT_ELEMS_PER_MB = 20_000


def _env_mb() -> int | None:
    raw = os.environ.get("GRADEDGROWTH_BUDGET_MB")
    if not raw:
        return None
    try:
        mb = int(raw)
    except ValueError:
        mb = 0
    if mb < 1:
        raise ContractError(f"GRADEDGROWTH_BUDGET_MB must be a positive integer, got {raw!r}")
    return mb


def ball_cap(override: int | None = None) -> int:
    if override is not None:
        return override
    mb = _env_mb()
    if mb is not None:
        return mb * _BALL_ELEMS_PER_MB
    return DEFAULT_BALL_CAP


def algebra_cap(override: int | None = None) -> int:
    if override is not None:
        return override
    return DEFAULT_ALGEBRA_CAP


def quotient_cap(override: int | None = None) -> int:
    if override is not None:
        return override
    mb = _env_mb()
    if mb is not None:
        return mb * _QUOTIENT_ELEMS_PER_MB
    return DEFAULT_QUOTIENT_CAP
