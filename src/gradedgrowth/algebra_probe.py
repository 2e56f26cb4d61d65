"""Experimental subspace-tiling probe (dimension counting in place of
cardinality counting).

The vector-space analogue of the transversal pipeline rests on a covering
argument that is not known to be sound, so this probe only RUNS the
construction on small cases (the integer group ring over GF(p), ideal chain
from the congruence quotients) and REPORTS whether each step-level
assertion happened to hold.  The report never contains any field claiming a
general theorem; outcomes are data, not ground truth.

The covering steps are the transversal pipeline's own, with ranks in
place of cardinalities: tiling.covering_recipe fixes the constants and
tiling.cover runs the greedy_fill passes.  K is spanned by monomials t**e,
so every subspace the probe builds (each interval tile, the covered
subspace B, B K*, the lift of T and T K) is spanned by monomials too, and
its rank is the number of its exponents mod m.  So cover runs on the cosets
of Z/m, with K's exponents as the base set and the intervals t**0, ...,
t**(side-1) as the tower levels, and nothing is eliminated.  The transversal
T is B plus a complement of B, which is always the whole quotient algebra;
so the reported defect is that of the lifted interval t**0, ..., t**(m-1)
against K (a set defect in Z) and does not depend on the covering steps,
which are reported as data.  The report is built as plain JSON, every
fraction as {num, den}, with one step per greedy_fill pass read off the
GreedyFillResult that cover returns.
"""

from __future__ import annotations

from fractions import Fraction

from . import budgets
from .errors import ContractError, SearchFailedError
from .groups import Cyclic, FreeAbelian
from .scalars import check_prime
from .serialize import frac_from_json, frac_json, reading
from .subspace import set_defect
from .tiling import boundary_bound_ok, congruence_quotient, cover, covering_recipe

# chain levels scanned before the probe gives up
MAX_LEVEL = 7


def _is_invertible_element(terms: dict) -> bool:
    # units of the integer-group ring over a field are the single monomials
    nonzero = [g for g, c in terms.items() if c]
    return len(nonzero) == 1


def algebra_tiling_probe(p: int, k_basis: list[dict], epsilon,
                         chain_base: int = 2) -> dict:
    """Run the subspace pipeline for GF(p)[Z] with the congruence ideal chain.

    k_basis: basis of the test subspace K as {exponent: coefficient} maps;
    every basis element must be invertible (a single monomial), and the
    unit is adjoined when no basis element is a multiple of it.  The probe
    scans chain levels 1..MAX_LEVEL until the lifted quotient algebra has
    defect < epsilon, and returns that level's report as JSON.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ContractError("epsilon must be positive")
    if not k_basis:
        raise ContractError("K needs a basis")
    for terms in k_basis:
        if not _is_invertible_element(terms):
            raise ContractError("K must have a basis of invertible elements")
    if 0 not in {g for terms in k_basis for g, c in terms.items() if c}:
        k_basis = [{0: 1}] + list(k_basis)  # adjoin the unit

    k_dim = len(k_basis)
    params, t_cap, target = covering_recipe(k_dim, epsilon)

    last_exc = None
    for level in range(1, MAX_LEVEL + 1):
        _check_level(p, k_basis, chain_base**level)
        try:
            report = _attempt_level(p, k_basis, epsilon, params, t_cap, target,
                                    chain_base, level, k_dim)
        except SearchFailedError as exc:
            last_exc = exc
            continue
        if report is not None:
            return report
    raise SearchFailedError(f"probe exhausted its chain levels: {last_exc}")


def _check_level(p: int, k_basis: list[dict], m: int) -> None:
    """The guards of the chain level GF(p)[Z/m], in exit-code order: Z/m
    needs m >= 2, then the algebra cap, then the prime; and then every basis
    element of K must stay a single monomial mod p."""
    Cyclic(m)  # rejects m < 2
    budgets.check_algebra_order(m)
    check_prime(p)
    if not all(_is_invertible_element({g: c % p for g, c in t.items()}) for t in k_basis):
        raise ContractError(f"K must have a basis of invertible elements: "
                            f"a basis coefficient is 0 mod {p}")


def _attempt_level(p, k_basis, epsilon, params, t_cap, target, base, level, k_dim):
    m = base**level
    # each basis element of K is one monomial: its exponent mod m labels it
    if len({g % m for t in k_basis for g, c in t.items() if c % p}) != k_dim:
        raise SearchFailedError("K does not embed into this quotient")
    # K K* must meet the ideal trivially: differences of exponents stay
    # distinct mod m, i.e. the span of K K* keeps full dimension
    diffs = sorted({a - b for ta in k_basis for a in ta for tb in k_basis for b in tb})
    if len({d % m for d in diffs}) != len(diffs):
        raise SearchFailedError("K K* meets the ideal: quotient too small")
    k = [(e,) for e in sorted({g for terms in k_basis for g, c in terms.items() if c})]

    # every subspace is spanned by monomials, so the covering runs on their
    # exponents: the cosets of Z/m, with the interval levels as tiles
    tower, fills = cover(congruence_quotient(FreeAbelian(1), m), k, params, t_cap, target,
                         lambda built: _next_level(base, m, k, epsilon, params, built))
    # T, B plus a complement of B, is the whole quotient algebra; its defect
    # is measured on the lift t**0, ..., t**(m-1), with honest (unwrapped)
    # products against K
    defect = set_defect([(j,) for j in range(m)], k, FreeAbelian(1))
    if defect >= epsilon:
        return None
    steps = [{"step": u, "level_dim": len(interval), "s": res.s, "mu": frac_json(res.mu),
              "nu": frac_json(res.nu_out), "alpha": frac_json(res.alpha_out),
              "mu_at_least_delta": res.mu_at_least_delta,
              "coverage_identity_ok": res.coverage_identity_ok,
              "boundary_bound_ok": res.boundary_bound_ok}
             for u, (interval, res) in enumerate(zip(tower, fills), 1)]
    return {
        "certificate_type": "algebra_tiling_probe",
        "experimental": True,
        "prime": p,
        "epsilon": frac_json(epsilon),
        "delta": frac_json(params.delta),
        "zeta": frac_json(params.zeta),
        "height_cap": t_cap,
        "quotient_level": level,
        "omega_dim": m,
        "k_dim": k_dim,
        "steps": steps,
        "complement_found": True,
        "complement_dim": m,
        "defect": frac_json(defect),
        "defect_below_epsilon": True,
        "all_step_assertions_held": all(
            res.mu_at_least_delta and res.coverage_identity_ok and res.boundary_bound_ok
            for res in fills),
    }


def _next_level(base, m, k, epsilon, params, tower):
    """The next interval level t**0, ..., t**(side-1), aligned with the
    chain: the first unused side among base, base**2, ... up to m whose
    span meets the dimension version of the boundary bound against K in
    the integer group ring, where it is the count of the monomials
    t**(i + e)."""
    used = {len(interval) for interval in tower}
    side = base
    while side <= m:
        interval = [(j,) for j in range(side)]
        if side not in used and boundary_bound_ok(FreeAbelian(1), interval, k, epsilon, params):
            return interval
        side *= base
    raise SearchFailedError("no interval level satisfies the boundary bound")


def monomial_probe_json(p: int, exponents: list[int], epsilon,
                        chain_base: int = 2) -> dict:
    """The probe for K spanned by the monomials t**e, e in exponents, as
    JSON that embeds its configuration, so that it can be re-run."""
    epsilon = Fraction(epsilon)
    payload = algebra_tiling_probe(p, [{e: 1} for e in exponents], epsilon,
                                   chain_base=chain_base)
    payload["config"] = {"command": "tile-algebra-probe", "p": p,
                         "k_exponents": list(exponents),
                         "epsilon": frac_json(epsilon),
                         "chain_base": chain_base}
    return payload


def verify_json(payload: dict, registry=None) -> dict:
    """The result `verify` prints for a probe report: the probe re-run from
    the report's embedded config, compared as a whole, with the top-level
    fields that differ.  The probe runs on Z, so the registry is not read."""
    with reading("probe report config"):
        config = payload["config"]
        p, exponents, base = config["p"], config["k_exponents"], config["chain_base"]
        epsilon = frac_from_json(config["epsilon"])
    if not (type(exponents) is list and all(type(x) is int for x in (p, base, *exponents))):
        raise ContractError("probe report config: p and chain_base must be integers, "
                            "and k_exponents a list of integers")
    rerun = monomial_probe_json(p, exponents, epsilon, base)
    mismatched = sorted(key for key in set(payload) | set(rerun)
                        if payload.get(key) != rerun.get(key))
    return {"mismatched_fields": mismatched, "matches": not mismatched}
