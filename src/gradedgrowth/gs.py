"""Golod-Shafarevich certificate evaluation.

Given a presentation's generator count d and the multiset of relator degrees
(valuations of the relators in the mod-p filtration of the free group), the
series value 1 - d t + sum t**deg is evaluated in exact rational arithmetic
on a grid in (0, 1), refined twice around the minimum.  A negative value is
a sound witness; failure to find one is only "no witness found on this
grid", never a proof of the opposite.

The certificate is the JSON object that `gs` prints: gs_certificate
returns it, and verify_json reads its presentation back through
GSPresentation and recomputes the value at its witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ContractError
from .filtration import MAGNUS_DEFAULT_TRUNCATION, magnus_deg
from .scalars import check_prime
from .serialize import frac_from_json, frac_json, reading


@dataclass(frozen=True)
class GSPresentation:
    d: int
    degrees: tuple[int, ...]  # sorted multiset
    p: int | None = None  # metadata only
    tail_note: str | None = None  # user-asserted bound on omitted relators

    def __post_init__(self):
        if type(self.d) is not int or self.d < 1:
            raise ContractError("generator count must be an integer >= 1")
        if any(Deg is None for Deg in self.degrees):
            raise ContractError(
                "truncated ('greater than D') degrees cannot be certified; "
                "recompute with a larger truncation or assume a minimum degree"
            )
        if any(type(deg) is not int or deg < 1 for deg in self.degrees):
            raise ContractError("relator degrees must be integers >= 1")
        object.__setattr__(self, "degrees", tuple(sorted(self.degrees)))


def verify_json(payload: dict, registry=None) -> dict:
    """The result `verify` prints for a Golod-Shafarevich certificate: the
    series recomputed at the witness t.  The certificate holds iff the value
    matches and is_GS says whether it is negative.  The generator count and
    the degrees are read through GSPresentation, which checks their types.
    It names no group, so the registry is not read."""
    with reading("Golod-Shafarevich certificate"):
        pres = GSPresentation(payload["d"], tuple(payload["degrees"]), p=payload.get("p"),
                              tail_note=payload.get("tail_note"))
        is_gs = payload["is_GS"]
        t, value = frac_from_json(payload["t"]), frac_from_json(payload["value"])
    recomputed = gs_value(pres, t)
    return {"recomputed_value": frac_json(recomputed),
            "matches": recomputed == value and is_gs == (value < 0)}


def gs_value(pres: GSPresentation, t: Fraction) -> Fraction:
    """1 - d t + sum over relators of t**degree, exactly."""
    t = Fraction(t)
    if not 0 < t < 1:
        raise ContractError("t must lie strictly between 0 and 1")
    return 1 - pres.d * t + sum(t**deg for deg in pres.degrees)


def gs_certificate(pres: GSPresentation, grid: int = 100) -> dict:
    """Scan {i/grid}, then twice halve the spacing around the minimum, and
    return the certificate as the JSON object that `gs` prints (which adds
    its "config" and, for assumed degrees, assumed_min_degree).

    is_GS is true iff some evaluated point came out negative; the witness t,
    or the best grid point found, is re-checkable bit-exactly through
    gs_value.
    """
    if grid < 100:
        raise ContractError("grid must be >= 100")
    best_t, best_v = _grid_min(pres, [Fraction(i, grid) for i in range(1, grid)])
    spacing = Fraction(1, grid)
    for _ in range(2):
        spacing = spacing / 2
        candidates = []
        for step in range(-2, 3):
            t = best_t + step * spacing
            if 0 < t < 1:
                candidates.append(t)
        t2, v2 = _grid_min(pres, candidates)
        if v2 < best_v:
            best_t, best_v = t2, v2
    return {
        "certificate_type": "gs",
        "is_GS": best_v < 0,
        "t": frac_json(best_t),
        "value": frac_json(best_v),
        "grid": grid,
        "d": pres.d,
        "degrees": list(pres.degrees),
        "p": pres.p,
        "tail_note": pres.tail_note,
        "assumed_min_degree": None,
    }


def _grid_min(pres: GSPresentation, points) -> tuple[Fraction, Fraction]:
    best_t = None
    best_v = None
    for t in points:
        v = gs_value(pres, t)
        if best_v is None or v < best_v:
            best_t, best_v = t, v
    if best_t is None:
        raise ContractError("empty evaluation grid")
    return best_t, best_v


def relator_degrees(relators, p: int, trunc: int = MAGNUS_DEFAULT_TRUNCATION,
                    assume_min_degree: bool = False):
    """Per-relator mod-p valuations via the truncated Magnus expansion.

    Degrees beyond the truncation come back as None; with assume_min_degree
    they are replaced by trunc + 1 (a lower bound on the true degree, which
    only weakens the certificate's sum, keeping one-sided soundness).
    """
    check_prime(p)
    out = []
    for rel in relators:
        deg = magnus_deg(rel, p, trunc)
        if deg is None and assume_min_degree:
            deg = trunc + 1
        out.append(deg)
    return out
