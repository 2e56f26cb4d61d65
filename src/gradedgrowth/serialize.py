"""JSON helpers shared by the CLI and the certificate verifiers."""

from __future__ import annotations

import json
from contextlib import contextmanager
from fractions import Fraction

from .errors import ContractError


def frac_json(x) -> dict:
    f = Fraction(x)
    return {"num": f.numerator, "den": f.denominator}


def frac_from_json(d) -> Fraction:
    return Fraction(d["num"], d["den"])


def element_json(g):
    if isinstance(g, tuple):
        return [element_json(x) for x in g]
    return g


def element_from_json(v):
    if isinstance(v, list):
        return tuple(element_from_json(x) for x in v)
    return v


@contextmanager
def reading(what: str):
    """Turn an unreadable file, or a missing or ill-typed field of outside
    JSON, into a ContractError."""
    try:
        yield
    except OSError as exc:
        raise ContractError(f"cannot read {what}: {exc}") from exc
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ContractError(f"malformed {what}: {exc!r}") from exc


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ContractError(f"cannot parse {text!r} as a rational") from exc


def parse_int_list(text: str) -> list[int]:
    """Comma-separated integers, as in '5,6,7'; empty items are skipped."""
    try:
        return [int(t) for t in text.split(",") if t.strip()]
    except ValueError as exc:
        raise ContractError(f"cannot parse {text!r} as comma-separated integers") from exc
