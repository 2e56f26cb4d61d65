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
import re
import sys

from . import algebra_probe, gs, tiling
from .algebra_probe import monomial_probe_json
from .errors import (ContractError, GradedGrowthError, ResourceBudgetError,
                     SearchFailedError)
from .filtration import (aug_ladder, build_group_algebra, group_graded_dims,
                         growth_report, is_augmentation_unit, right_ideal_closure,
                         rs_generators, rs_step_bound)
from .groups import Cyclic, FreeAbelian, ball, find_dead_ends
from .gs import GSPresentation, gs_certificate, relator_degrees
from .hecke import crystal_monomial_check, delta, hecke_mul, untwist
from .registry import get_group, load_registry, make_group
from .scalars import check_prime
from .serialize import (dumps, element_json, frac_json, parse_fraction, parse_int_list,
                        reading)
from .subspace import set_defect
from .tiling import build_transversal, folner_search

import json
import random


def _write(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_element(oracle, text: str):
    """A tuple literal, on a cyclic group or a group of integer tuples and
    as wide as its elements (1 for a cyclic group), a bare integer, on z or
    a group of integers, or a word in the generator symbols."""
    if text.startswith("(") and text.endswith(")"):
        tup = tuple(int(t) for t in text[1:-1].split(",") if t.strip())
        e = oracle.identity
        if not (isinstance(oracle, Cyclic)
                or isinstance(e, tuple) and all(type(x) is int for x in e)):
            raise ContractError(f"element literal {text} names no element: "
                                f"{oracle.name} elements are not integer tuples")
        width = 1 if isinstance(oracle, Cyclic) else len(e)
        if len(tup) != width:
            raise ContractError(f"element literal {text} has width {len(tup)}; "
                                f"{oracle.name} elements have width {width}")
        return tup[0] % oracle.order if isinstance(oracle, Cyclic) else tup
    if text.lstrip("-").isdigit():
        if isinstance(oracle, FreeAbelian) and oracle.d == 1:
            return (int(text),)
        if type(oracle.identity) is not int:
            raise ContractError(f"element literal {text} names no element: "
                                f"{oracle.name} elements are not integers")
        return int(text) % oracle.order
    return oracle.normalize(text)


# a literal's term: [sign +, - or + -] [coefficient n*] then a tuple, integer or word
_TERM = re.compile(r"\s*(\+\s*-|[+-]?)\s*(?:(\d+)\s*\*\s*)?(\([^()]*\)|-?\d+|[^\s()*+-]+)\s*")


def _parse_hecke_literal(oracle, b, p, lam, text: str):
    """The sum of the literal's terms, read from its start by _TERM; every
    term after the first needs its sign.  '1*-1' is 1 times the element -1."""
    result = delta(oracle, b, p, lam, oracle.identity, 0)
    pos = 0
    while text[pos:].strip():
        m = _TERM.match(text, pos)
        if m is None or pos and not m[1]:
            raise ContractError(f"element literal {text!r}: cannot read {text[pos:].strip()!r}")
        sign, coeff, elem = m.groups()
        coeff = int(coeff or 1) * (-1 if "-" in sign else 1)
        result = result + delta(oracle, b, p, lam, _parse_element(oracle, elem), coeff)
        pos = m.end()
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
        alg = build_group_algebra(oracle, args.p, args.max_order)
        lad = aug_ladder(alg)
        dims = lad.graded_dims
        power_dims = lad.power_dims
        note = "finite group algebra"
    else:
        base = args.quotient_base
        level = args.quotient_level
        if base < 2:  # base**level must be a modulus at every level
            raise ContractError(f"--quotient-base must be at least 2, got {base}")
        # the degrees below m_p, where the level-L quotient's dims are the
        # group's, are the prefix on which levels L and L+1 agree
        dims = group_graded_dims(oracle, base**level, args.p, args.max_order)
        power_dims = None
        note = (f"agreement prefix of quotient levels {level} and {level + 1} "
                f"(base {base})")
    report = growth_report(dims)
    if args.format == "json":
        payload = {"config": config, "note": note, "graded_dims": dims,
                   "power_dims": power_dims, **report}
        _write(dumps(payload), args.out)
    else:
        lines = ["# config: " + json.dumps(config, sort_keys=True),
                 "# " + note,
                 "n\tdim_power\tr_n\troot"]
        for n, r in enumerate(dims):
            power = "" if power_dims is None else str(power_dims[n])
            root = "" if n == 0 else f"{report['nth_roots'][n - 1]:.6f}"
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
    k = ball(oracle, args.k_radius).elements
    payload = build_transversal(oracle, k, epsilon, chain_base=args.chain_base,
                                max_quotients=args.max_quotients)
    payload["config"].update(command="tile", group=args.group,
                             epsilon=frac_json(epsilon), k_radius=args.k_radius)
    _write(dumps(payload), args.out)
    return 0


def _cmd_tile_algebra_probe(args) -> int:
    exponents = parse_int_list(args.k_exponents)
    payload = monomial_probe_json(args.p, exponents, parse_fraction(args.epsilon),
                                  chain_base=args.chain_base)
    _write(dumps(payload), args.out)
    return 0


def _cmd_crystal(args) -> int:
    oracle = get_group(args.group, args.registry)
    if args.p is not None:
        check_prime(args.p)
    config = {"command": "crystal", "group": args.group, "p": args.p,
              "lam": args.lam, "radius": args.radius, "seed": args.seed}
    payload = {"config": config, "ring": "Z" if args.p is None else f"GF({args.p})"}
    if args.mul:
        b = ball(oracle, args.radius)
        with reading("element literal"):
            a_elt = _parse_hecke_literal(oracle, b, args.p, args.lam, args.mul[0])
            b_elt = _parse_hecke_literal(oracle, b, args.p, args.lam, args.mul[1])
        prod = hecke_mul(a_elt, b_elt)
        payload["product"] = _hecke_terms(prod)
        if args.untwist:
            payload["untwisted"] = _hecke_terms(untwist(prod))
    if args.check_monomial:
        if args.p is None:
            raise ContractError("--check-monomial needs --p")
        ok = crystal_monomial_check(oracle, args.radius, args.p,
                                    sample_size=args.sample_size, seed=args.seed)
        payload["monomial_check"] = ok
    _write(dumps(payload), args.out)
    return 0


def _hecke_terms(elt) -> list:
    return sorted(([element_json(g), c] for g, c in elt.coeffs.items()), key=repr)


def _cmd_rs_check(args) -> int:
    if args.ideals < 1:
        raise ContractError(f"--ideals must be at least 1, got {args.ideals}")
    oracle = get_group(args.group, args.registry)
    alg = build_group_algebra(oracle, args.p)
    rng = random.Random(args.seed)
    gens = oracle.generators.values()
    results = []
    produced = 0
    attempts = 0
    while produced < args.ideals and attempts < 200 * args.ideals:
        attempts += 1
        vec = [rng.randrange(args.p) for _ in range(alg.dim)]
        # a unit of a p-group algebra, known by its augmentation, spans no
        # proper ideal: it is rejected without its closure, but still counts
        if is_augmentation_unit(alg, vec):
            continue
        ideal = right_ideal_closure(alg, [vec])
        if not 0 < ideal.rank < alg.dim:  # a proper right ideal holds no 1
            continue
        produced += 1
        ideal_gens = rs_generators(alg, ideal, gens)
        regenerates = right_ideal_closure(alg, ideal_gens) == ideal
        bound_ok, lhs, rhs = rs_step_bound(alg, ideal, gens)
        results.append({
            "rank": ideal.rank,
            "generators": len(ideal_gens),
            "regenerates": regenerates,
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
            declared = pres["generators"]
            d = len(declared)
            stray = [c for r in relators for c in r if c.lower() not in declared]
        if not (isinstance(declared, list) and all(isinstance(x, str) for x in declared)):
            raise ContractError(f"generators must be a list of names, got {declared!r}")
        lowered = [x.lower() for x in declared]
        repeated = [x for i, x in enumerate(declared) if lowered[i] in lowered[:i]]
        if repeated:  # a relator's uppercase letter is the inverse
            raise ContractError(f"generator {repeated[0]!r} is declared twice, once "
                                f"lowercased: {declared}")
        if stray:
            raise ContractError(f"relator letter {stray[0]!r} is not a declared "
                                f"generator {declared}")
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
        degrees = parse_int_list(args.degrees)
    presentation = GSPresentation(d, tuple(degrees), p=args.p,
                                  tail_note=args.tail_note)
    payload = gs_certificate(presentation, grid=args.grid)
    payload.update(assumed_min_degree=assumed, config=config)
    _write(dumps(payload), args.out)
    return 0


def _cmd_groups(args) -> int:
    registry = load_registry(args.registry)
    listing = []
    for name in sorted(registry):
        spec = registry[name]
        oracle = make_group(spec)
        listing.append({
            "name": name,
            "kind": spec.get("kind"),
            "params": spec.get("params", {}),
            "generators": list(oracle.generator_symbols),
            "order": oracle.order,
        })
    _write(dumps({"config": {"command": "groups"}, "groups": listing}), args.out)
    return 0


# certificate_type -> the module whose verify_json checks that certificate
VERIFIERS = {"gs": gs, "tiling": tiling, "algebra_tiling_probe": algebra_probe}


def _cmd_verify(args) -> int:
    with reading("certificate"), open(args.certificate, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
        kind = payload["certificate_type"]
    if not (isinstance(kind, str) and kind in VERIFIERS):
        raise ContractError(f"unknown certificate type {kind!r}")
    result = VERIFIERS[kind].verify_json(payload, args.registry)
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
    p.add_argument("--max-order", type=int, default=None,
                   help="order cap on the group algebra of a finite group, or on "
                        "the congruence quotient of an infinite group (default 2048)")
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
    p.add_argument("--k-radius", type=int, default=1)
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
    p.add_argument("--mul", nargs=2, metavar=("A", "B"), type=str.strip,
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
    argv = sys.argv[1:] if argv is None else argv
    # argparse reads a --mul value such as '-(1)' as an option but ' -(1)' as
    # a value, which --mul's type strips; -h and --x stay options.  In
    # crystal, whose only option starting --m it is, --m and --mu are --mul
    mul = {"--m", "--mu", "--mul"} if "crystal" in argv else {"--mul"}
    args = parser.parse_args([" " + t if mul.intersection(argv[max(i - 2, 0):i])
                              and re.match(r"-(?![-h])", t) else t for i, t in enumerate(argv)])
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
