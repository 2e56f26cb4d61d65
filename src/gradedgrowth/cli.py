"""Command-line surface: growth tables, dead-end scans, Folner searches,
transversal certificates, crystal arithmetic, ideal-generator checks and
Golod-Shafarevich certificates.

Outputs are byte-deterministic for a fixed configuration: JSON is emitted
with sorted keys, exact fractions are serialized as {num, den}, and every
report embeds its fully resolved configuration.  Exit codes: 0 success,
2 usage error, 3 resource budget exceeded, 4 contract violation,
5 explicit search failure.
"""

from __future__ import annotations

import argparse
import sys

from .algebra_probe import monomial_probe_json, verify_probe_json
from .errors import (ContractError, GradedGrowthError, ResourceBudgetError,
                     SearchFailedError)
from .filtration import (aug_ladder, build_group_algebra, growth_report,
                         quotient_agreement_dims, right_ideal_closure,
                         rs_generators, rs_step_bound)
from .groups import ball, find_dead_ends
from .gs import GSCertificate, GSPresentation, gs_certificate, relator_degrees
from .hecke import crystal_monomial_check, delta, hecke_mul, untwist
from .registry import get_group, load_registry
from .scalars import GF, ZZ
from .serialize import dumps, element_json, frac_json, parse_fraction, reading
from .subspace import set_defect
from .tiling import (TilingCertificate, build_transversal, congruence_quotient,
                     folner_search, verify_certificate)

import dataclasses
import json
import random

import numpy as np


def _write(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _ring_for(p: int | None):
    if p is None:
        return ZZ, "Z"
    return GF(p), f"GF({p})"


def _parse_element(oracle, text: str):
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        parts = [t for t in text[1:-1].split(",") if t.strip()]
        tup = tuple(int(t) for t in parts)
        if oracle.kind in ("finite_cyclic",):
            return oracle.mul(oracle.identity, tup[0] % oracle.order)
        return tup
    if text.lstrip("-").isdigit():
        n = int(text)
        if oracle.kind == "free_abelian" and oracle.d == 1:
            return (n,)
        if oracle.order is not None:
            return n % oracle.order
        raise ContractError(f"bare integer literal unsupported for {oracle.name}")
    return oracle.normalize(text)


def _parse_hecke_literal(oracle, b, ring, lam, text: str):
    """Element literal: 'coeff*g + coeff*h - ...' with g a tuple or word."""
    out = None
    term = ""
    depth = 0
    terms = []
    for c in text:
        if c in "([":
            depth += 1
        elif c in ")]":
            depth -= 1
        if c in "+-" and depth == 0 and term.strip():
            terms.append(term)
            term = c if c == "-" else ""
            continue
        term += c
    if term.strip():
        terms.append(term)
    result = delta(oracle, b, ring, lam, oracle.identity, 0)
    for t in terms:
        t = t.strip()
        sign = 1
        if t.startswith("-"):
            sign = -1
            t = t[1:].strip()
        if "*" in t:
            coeff_text, elem_text = t.split("*", 1)
            coeff = int(coeff_text.strip())
        else:
            coeff, elem_text = 1, t
        g = _parse_element(oracle, elem_text.strip())
        result = result + delta(oracle, b, ring, lam, g, sign * coeff)
    return result


# ---------------------------------------------------------------------------
# subcommands


def _cmd_growth(args) -> int:
    config = {
        "command": "growth", "group": args.group, "p": args.p,
        "quotient_base": args.quotient_base, "quotient_level": args.quotient_level,
        "format": args.format,
    }
    oracle = get_group(args.group, args.registry)
    if oracle.order is not None:
        alg = build_group_algebra(oracle, args.p)
        lad = aug_ladder(alg)
        dims = lad.graded_dims
        power_dims = [s.rank for s in lad.powers]
        note = "finite group algebra"
    else:
        base = args.quotient_base
        level = args.quotient_level
        ladders = []
        for lvl in (level, level + 1):
            finite = congruence_quotient(oracle, base**lvl).finite
            alg = build_group_algebra(finite, args.p, max_order=args.max_order)
            ladders.append(aug_ladder(alg).graded_dims)
        dims = quotient_agreement_dims(ladders)
        power_dims = None
        note = (f"agreement prefix of quotient levels {level} and {level + 1} "
                f"(base {base})")
    report = growth_report(dims)
    if args.format == "json":
        payload = {
            "config": config, "note": note, "graded_dims": dims,
            "power_dims": power_dims,
            "nth_roots": [round(r, 12) for r in report.nth_roots],
            "fekete_estimate": round(report.fekete_estimate, 12),
            "fekete_argmin": report.fekete_argmin,
            "poly_degree_fit": None if report.poly_degree_fit is None
                               else round(report.poly_degree_fit, 12),
            "submultiplicativity_violations": report.submultiplicativity_violations,
        }
        _write(dumps(payload), args.out)
    else:
        lines = ["# config: " + json.dumps(config, sort_keys=True),
                 "# " + note,
                 "n\tdim_power\tr_n\troot"]
        for n, r in enumerate(dims):
            power = "" if power_dims is None else str(power_dims[n])
            root = "" if n == 0 else f"{report.nth_roots[n - 1]:.6f}"
            lines.append(f"{n}\t{power}\t{r}\t{root}")
        _write("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_deadends(args) -> int:
    oracle = get_group(args.group, args.registry)
    found = find_dead_ends(oracle, args.radius)
    payload = {
        "config": {"command": "deadends", "group": args.group, "radius": args.radius},
        "count": len(found),
        "dead_ends": [element_json(g) for g in found],
    }
    _write(dumps(payload), args.out)
    return 0


def _cmd_folner(args) -> int:
    oracle = get_group(args.group, args.registry)
    kball = ball(oracle, args.k_radius)
    k = kball.elements
    bound = parse_fraction(args.bound)
    f = folner_search(oracle, k, bound, args.max_radius)
    defect = set_defect(f, k, oracle)
    payload = {
        "config": {"command": "folner", "group": args.group,
                   "k_radius": args.k_radius, "bound": frac_json(bound),
                   "max_radius": args.max_radius},
        "set_size": len(f),
        "defect": frac_json(defect),
        "defect_decimal": round(float(defect), 12),
        "set": [element_json(g) for g in f],
    }
    _write(dumps(payload), args.out)
    return 0


def _cmd_tile(args) -> int:
    oracle = get_group(args.group, args.registry)
    epsilon = parse_fraction(args.epsilon)
    if args.k_radius is not None:
        k = ball(oracle, args.k_radius).elements
    else:
        k = ball(oracle, 1).elements
    cert = build_transversal(oracle, k, epsilon, chain_base=args.chain_base,
                             max_quotients=args.max_quotients)
    payload = cert.to_json()
    payload["config"] = {"command": "tile", "group": args.group,
                         "epsilon": frac_json(epsilon),
                         "k_radius": args.k_radius if args.k_radius is not None else 1,
                         "chain_base": args.chain_base}
    _write(dumps(payload), args.out)
    return 0


def _cmd_tile_algebra_probe(args) -> int:
    exponents = [int(t) for t in args.k_exponents.split(",") if t.strip()]
    payload = monomial_probe_json(args.p, exponents, parse_fraction(args.epsilon),
                                  chain_base=args.chain_base)
    _write(dumps(payload), args.out)
    return 0


def _cmd_crystal(args) -> int:
    oracle = get_group(args.group, args.registry)
    ring, ring_name = _ring_for(args.p)
    lam = ring.coerce(args.lam)
    config = {"command": "crystal", "group": args.group, "p": args.p,
              "lam": args.lam, "radius": args.radius, "seed": args.seed}
    payload = {"config": config, "ring": ring_name}
    if args.mul:
        b = ball(oracle, args.radius)
        a_elt = _parse_hecke_literal(oracle, b, ring, lam, args.mul[0])
        b_elt = _parse_hecke_literal(oracle, b, ring, lam, args.mul[1])
        prod = hecke_mul(a_elt, b_elt)
        payload["product"] = sorted(
            ([element_json(g), int(c) if isinstance(c, int) else str(c)]
             for g, c in prod.coeffs.items()), key=repr)
        if args.untwist:
            u = untwist(prod)
            payload["untwisted"] = sorted(
                ([element_json(g), int(c) if isinstance(c, int) else str(c)]
                 for g, c in u.coeffs.items()), key=repr)
    if args.check_monomial:
        if args.p is None:
            raise ContractError("--check-monomial needs --p")
        ok = crystal_monomial_check(oracle, args.radius, ring,
                                    sample_size=args.sample_size, seed=args.seed)
        payload["monomial_check"] = ok
    _write(dumps(payload), args.out)
    return 0


def _cmd_rs_check(args) -> int:
    oracle = get_group(args.group, args.registry)
    alg = build_group_algebra(oracle, args.p)
    rng = random.Random(args.seed)
    gens = alg.generator_elements()
    results = []
    produced = 0
    attempts = 0
    while produced < args.ideals and attempts < 200 * args.ideals:
        attempts += 1
        vec = np.array([rng.randrange(args.p) for _ in range(alg.dim)], dtype=np.int64)
        ideal = right_ideal_closure(alg, [vec])
        if not 0 < ideal.rank < alg.dim:
            continue
        evec = np.zeros(alg.dim, dtype=np.int64)
        evec[0] = 1
        if ideal.contains_vector(evec):
            continue
        produced += 1
        ideal_gens = rs_generators(alg, ideal, gens)
        regenerated = right_ideal_closure(alg, ideal_gens) if ideal_gens else None
        regen_ok = regenerated == ideal if regenerated is not None else ideal.rank == 0
        bound_ok, lhs, rhs = rs_step_bound(alg, ideal, gens)
        results.append({
            "rank": ideal.rank,
            "generators": len(ideal_gens),
            "regenerates": bool(regen_ok),
            "step_bound_holds": bool(bound_ok),
            "dim_I_mod_Iw": lhs,
            "dim_complement_intersection": rhs,
        })
    payload = {
        "config": {"command": "rs-check", "group": args.group, "p": args.p,
                   "ideals": args.ideals, "seed": args.seed},
        "ideals_tested": produced,
        "all_regenerate": all(r["regenerates"] for r in results),
        "all_bounds_hold": all(r["step_bound_holds"] for r in results),
        "results": results,
    }
    _write(dumps(payload), args.out)
    return 0


def _cmd_gs(args) -> int:
    config = {"command": "gs", "d": args.d, "degrees": args.degrees,
              "presentation": args.presentation, "p": args.p,
              "max_deg": args.max_deg, "grid": args.grid,
              "assume_min_degree": args.assume_min_degree,
              "tail_note": args.tail_note}
    assumed = None
    if args.presentation:
        with reading("presentation"), open(args.presentation, "r", encoding="utf-8") as fh:
            pres = json.load(fh)
            relators = pres["relators"]
            d = len(pres["generators"])
        if args.p is None:
            raise ContractError("--p is required with --presentation")
        degrees = relator_degrees(relators, args.p, args.max_deg,
                                  assume_min_degree=args.assume_min_degree)
        if args.assume_min_degree and any(d == args.max_deg + 1 for d in degrees):
            assumed = args.max_deg + 1
    else:
        if args.d is None:
            raise ContractError("need either --presentation or --d")
        d = args.d
        degrees = [int(t) for t in args.degrees.split(",") if t.strip()]
    presentation = GSPresentation(d, tuple(degrees), p=args.p,
                                  tail_note=args.tail_note)
    cert = gs_certificate(presentation, grid=args.grid)
    if assumed is not None:
        cert = dataclasses.replace(cert, assumed_min_degree=assumed)
    payload = cert.to_json()
    payload["config"] = config
    _write(dumps(payload), args.out)
    return 0


def _cmd_groups(args) -> int:
    registry = load_registry(args.registry)
    listing = []
    for name in sorted(registry):
        spec = registry[name]
        oracle = get_group(name, args.registry)
        listing.append({
            "name": name,
            "kind": spec.get("kind"),
            "params": spec.get("params", {}),
            "generators": list(oracle.generator_symbols),
            "order": oracle.order,
        })
    _write(dumps({"config": {"command": "groups"}, "groups": listing}), args.out)
    return 0


def _cmd_verify(args) -> int:
    with reading("certificate"), open(args.certificate, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
        kind = payload["certificate_type"]
    if kind == "gs":
        ok, recomputed = GSCertificate.from_json(payload).verify()
        result = {"recomputed_value": frac_json(recomputed), "matches": ok}
    elif kind == "tiling":
        cert = TilingCertificate.from_json(payload)
        oracle = get_group(cert.group, args.registry)
        checks, recount = verify_certificate(cert, oracle,
                                             congruence_quotient(oracle, cert.modulus))
        result = {key: ok for key, ok in checks.items()
                  if key not in ("defect_recount_matches", "defect_below_epsilon")}
        result.update(defect_recount=frac_json(recount), matches=all(checks.values()))
    elif kind == "algebra_tiling_probe":
        result = verify_probe_json(payload)
    else:
        raise ContractError(f"unknown certificate type {kind!r}")
    out = {"config": {"command": "verify", "certificate": args.certificate},
           "certificate_type": kind, "result": result}
    _write(dumps(out), args.out)
    return 0 if result["matches"] else 4


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradedgrowth",
        description="word metrics, crystal products, filtration growth, "
                    "Folner tilings and Golod-Shafarevich certificates",
    )
    parser.add_argument("--registry", help="path to a JSON group registry")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("growth", help="augmentation-filtration growth table")
    p.add_argument("--group", required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--quotient-base", type=int, default=2)
    p.add_argument("--quotient-level", type=int, default=2)
    p.add_argument("--max-order", type=int, default=None)
    p.add_argument("--format", choices=["tsv", "json"], default="tsv")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_growth)

    p = sub.add_parser("deadends", help="scan a ball for dead-end elements")
    p.add_argument("--group", required=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_deadends)

    p = sub.add_parser("folner", help="search for an almost-invariant set")
    p.add_argument("--group", required=True)
    p.add_argument("--k-radius", type=int, default=1)
    p.add_argument("--bound", required=True, help="rational like 1/10")
    p.add_argument("--max-radius", type=int, default=40)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_folner)

    p = sub.add_parser("tile", help="build an almost-invariant transversal")
    p.add_argument("--group", required=True)
    p.add_argument("--epsilon", required=True)
    p.add_argument("--k-radius", type=int, default=None)
    p.add_argument("--chain-base", type=int, default=2)
    p.add_argument("--max-quotients", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_tile)

    p = sub.add_parser("tile-algebra-probe",
                       help="experimental subspace-tiling probe over GF(p)[Z]")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--k-exponents", default="0,1",
                   help="comma-separated monomial exponents spanning K")
    p.add_argument("--epsilon", required=True)
    p.add_argument("--chain-base", type=int, default=2)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_tile_algebra_probe)

    p = sub.add_parser("crystal", help="deformed group-ring arithmetic")
    p.add_argument("--group", required=True)
    p.add_argument("--p", type=int, default=None, help="prime field (default: Z)")
    p.add_argument("--lam", type=int, default=0)
    p.add_argument("--radius", type=int, default=6)
    p.add_argument("--mul", nargs=2, metavar=("A", "B"),
                   help="element literals like '1*(1) + 2*(-1)'")
    p.add_argument("--untwist", action="store_true")
    p.add_argument("--check-monomial", action="store_true")
    p.add_argument("--sample-size", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_crystal)

    p = sub.add_parser("rs-check", help="ideal-generator checks on random right ideals")
    p.add_argument("--group", required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--ideals", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_rs_check)

    p = sub.add_parser("gs", help="Golod-Shafarevich certificate")
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--degrees", default="")
    p.add_argument("--presentation", help="presentation JSON file")
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--max-deg", type=int, default=12)
    p.add_argument("--grid", type=int, default=100)
    p.add_argument("--assume-min-degree", action="store_true",
                   help="treat 'greater than D' degrees as D+1 (annotated)")
    p.add_argument("--tail-note", default=None,
                   help="user-asserted note about omitted relators")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gs)

    p = sub.add_parser("groups", help="list the group registry")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_groups)

    p = sub.add_parser("verify", help="re-verify an emitted certificate")
    p.add_argument("--certificate", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceBudgetError as exc:
        print(f"resource budget exceeded: {exc}", file=sys.stderr)
        return 3
    except ContractError as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return 4
    except SearchFailedError as exc:
        print(f"search failed: {exc}", file=sys.stderr)
        return 5
    except GradedGrowthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
