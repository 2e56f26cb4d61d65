"""Golod-Shafarevich certificate evaluation.

Given a presentation's generator count d and the multiset of relator degrees
(valuations of the relators in the mod-p filtration of the free group), the
series value 1 - d t + sum t**deg is evaluated in exact rational arithmetic
on a grid in (0, 1), refined twice around the minimum.  A negative value is
a sound witness; failure to find one is only "no witness found on this
grid", never a proof of the opposite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ContractError
from .filtration import MAGNUS_DEFAULT_TRUNCATION, magnus_deg
from .serialize import frac_from_json, frac_json, reading


@dataclass(frozen=True)
class GSPresentation:
    d: int
    degrees: tuple[int, ...]  # sorted multiset
    p: int | None = None  # metadata only
    tail_note: str | None = None  # user-asserted bound on omitted relators

    def __post_init__(self):
        if self.d < 1:
            raise ContractError("generator count must be >= 1")
        if any(Deg is None for Deg in self.degrees):
            raise ContractError(
                "truncated ('greater than D') degrees cannot be certified; "
                "recompute with a larger truncation or assume a minimum degree"
            )
        if any(deg < 1 for deg in self.degrees):
            raise ContractError("relator degrees must be >= 1")
        object.__setattr__(self, "degrees", tuple(sorted(self.degrees)))


@dataclass(frozen=True)
class GSCertificate:
    presentation: GSPresentation
    is_gs: bool
    t: Fraction  # the negative witness, or the best grid point found
    value: Fraction
    grid: int
    assumed_min_degree: int | None = None

    def to_json(self) -> dict:
        return {
            "certificate_type": "gs",
            "is_GS": self.is_gs,
            "t": frac_json(self.t),
            "value": frac_json(self.value),
            "grid": self.grid,
            "d": self.presentation.d,
            "degrees": list(self.presentation.degrees),
            "p": self.presentation.p,
            "tail_note": self.presentation.tail_note,
            "assumed_min_degree": self.assumed_min_degree,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "GSCertificate":
        with reading("Golod-Shafarevich certificate"):
            pres = GSPresentation(payload["d"], tuple(payload["degrees"]), p=payload.get("p"),
                                  tail_note=payload.get("tail_note"))
            return cls(pres, payload["is_GS"], frac_from_json(payload["t"]),
                       frac_from_json(payload["value"]), payload.get("grid"),
                       payload.get("assumed_min_degree"))

    def verify(self) -> tuple[bool, Fraction]:
        """Recompute the series at the witness t; the certificate holds iff
        the value matches and is_gs says whether it is negative.  Returns
        the verdict and the recomputed value."""
        recomputed = gs_value(self.presentation, self.t)
        return recomputed == self.value and self.is_gs == (self.value < 0), recomputed


def gs_value(pres: GSPresentation, t: Fraction) -> Fraction:
    """1 - d t + sum over relators of t**degree, exactly."""
    t = Fraction(t)
    if not 0 < t < 1:
        raise ContractError("t must lie strictly between 0 and 1")
    return 1 - pres.d * t + sum(t**deg for deg in pres.degrees)


def gs_certificate(pres: GSPresentation, grid: int = 100) -> GSCertificate:
    """Scan {i/grid}, then twice halve the spacing around the minimum.

    is_gs is true iff some evaluated point came out negative; the witness is
    re-checkable bit-exactly through gs_value.
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
    return GSCertificate(pres, best_v < 0, best_t, best_v, grid)


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
    out = []
    for rel in relators:
        deg = magnus_deg(rel, p, trunc)
        if deg is None and assume_min_degree:
            deg = trunc + 1
        out.append(deg)
    return out
