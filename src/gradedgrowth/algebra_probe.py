"""Experimental subspace-tiling probe (dimension counting in place of
cardinality counting).

The vector-space analogue of the transversal pipeline rests on a covering
argument that is not known to be sound, so this probe only RUNS the
construction on small cases (the integer group ring over GF(p), ideal chain
from the congruence quotients) and REPORTS whether each step-level
assertion happened to hold.  The report never contains any field claiming a
general theorem; outcomes are data, not ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ContractError, SearchFailedError
from .groups import Cyclic, FreeAbelian, ball
from .subspace import (BallAmbient, Subspace, full_subspace, intersect, span,
                       sum_subspaces, zero_subspace)
from .filtration import FiniteGroupAlgebra
from .tiling import ThetaParams, pick_delta, pick_zeta, worst_case_height


def _is_invertible_element(terms: dict) -> bool:
    # units of the integer-group ring over a field are the single monomials
    nonzero = [g for g, c in terms.items() if c]
    return len(nonzero) == 1


@dataclass
class ProbeStep:
    step: int
    level_dim: int
    s: int
    mu: Fraction
    nu: Fraction
    alpha: Fraction
    mu_at_least_delta: bool
    coverage_identity_ok: bool
    boundary_bound_ok: bool


@dataclass
class ProbeReport:
    prime: int
    epsilon: Fraction
    delta: Fraction
    zeta: Fraction
    height_cap: int
    quotient_level: int
    omega_dim: int
    k_dim: int
    steps: list[ProbeStep] = field(default_factory=list)
    complement_found: bool = False
    complement_dim: int = 0
    defect: Fraction | None = None
    defect_below_epsilon: bool | None = None
    all_step_assertions_held: bool | None = None


def algebra_tiling_probe(p: int, k_basis: list[dict], epsilon,
                         chain_base: int = 2, max_level: int = 7) -> ProbeReport:
    """Run the subspace pipeline for GF(p)[Z] with the congruence ideal chain.

    k_basis: basis of the test subspace K as {exponent: coefficient} maps;
    every basis element must be invertible (a single monomial).  The probe
    scans chain levels until the carved complement achieves defect < epsilon
    or the level budget runs out.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ContractError("epsilon must be positive")
    if not k_basis:
        raise ContractError("K needs a basis")
    for terms in k_basis:
        if not _is_invertible_element(terms):
            raise ContractError("K must have a basis of invertible elements")
    exponents = sorted({g for terms in k_basis for g, c in terms.items() if c})
    if {0} != {min(exponents + [0])} and 0 not in exponents:
        k_basis = [{0: 1}] + list(k_basis)  # adjoin the unit
        exponents = sorted(set(exponents) | {0})

    k_dim = len(k_basis)
    delta = pick_delta(k_dim, epsilon)
    zeta = pick_zeta(delta, k_dim, epsilon)
    params = ThetaParams(delta, zeta)
    t_cap = worst_case_height(params, k_dim, epsilon)
    target = 1 - epsilon / (2 * k_dim)

    last_exc = None
    for level in range(1, max_level + 1):
        try:
            report = _attempt_level(p, k_basis, epsilon, params, t_cap, target,
                                    chain_base, level, k_dim)
        except SearchFailedError as exc:
            last_exc = exc
            continue
        if report is not None:
            return report
    raise SearchFailedError(f"probe exhausted its chain levels: {last_exc}")


def _attempt_level(p, k_basis, epsilon, params, t_cap, target, base, level, k_dim):
    m = base**level
    quotient = FiniteGroupAlgebra(Cyclic(m), p, max_order=max(m, 2048))
    # enumeration of Cyclic(m) is 0, 1, m-1, 2, m-2, ... (BFS); build an
    # exponent -> index map for projecting integer exponents
    idx = {g: i for i, g in enumerate(quotient.labels)}

    def project(terms: dict) -> np.ndarray:
        v = np.zeros(quotient.dim, dtype=np.int64)
        for g, c in terms.items():
            v[idx[g % m]] = (v[idx[g % m]] + c) % p
        return v

    k_vecs = [project(t) for t in k_basis]
    k_sub = span(quotient, k_vecs)
    if k_sub.rank != k_dim:
        raise SearchFailedError("K does not embed into this quotient")
    # K K* must meet the ideal trivially: differences of exponents stay
    # distinct mod m, i.e. the span of K K* keeps full dimension
    diffs = sorted({a - b for ta in k_basis for a in ta for tb in k_basis for b in tb})
    if len({d % m for d in diffs}) != len(diffs):
        raise SearchFailedError("K K* meets the ideal: quotient too small")

    # spanning set of invertible images: the group-element basis, in order
    spanning = list(range(quotient.dim))

    report = ProbeReport(prime=p, epsilon=epsilon, delta=params.delta,
                         zeta=params.zeta, height_cap=t_cap,
                         quotient_level=level, omega_dim=quotient.dim,
                         k_dim=k_dim)
    n = quotient.dim
    b = zero_subspace(quotient)
    nu, alpha = Fraction(0), Fraction(0)
    pieces: list[Subspace] = []
    tower_level_dims = []
    for u in range(1, t_cap + 1):
        if alpha >= 1 or nu > target:
            break
        level_sub, level_terms = _next_level_subspace(p, quotient, idx, m, k_basis,
                                                      epsilon, params, tower_level_dims)
        tower_level_dims.append(level_sub.rank)
        threshold = params.delta * level_sub.rank
        s = 0
        before = b
        for x in spanning:
            tile = _translate(quotient, level_sub, x)
            if intersect(tile, b).rank <= threshold:
                s += 1
                carved = _echelon_complement_in(tile, b)
                pieces.append(carved)
                b = sum_subspaces(b, tile)
        mu = (Fraction(b.rank, n) - nu) / (1 - alpha)
        gain = mu * (1 - alpha)
        nu_out = nu + gain
        alpha_out = alpha + gain * params.zeta / (1 - params.delta)
        # boundary growth measured against K itself
        bl = right_mul_subspace(quotient, b, [_inv_terms(t, m) for t in k_basis], p)
        step = ProbeStep(
            step=u, level_dim=level_sub.rank, s=s, mu=mu,
            nu=nu_out, alpha=alpha_out,
            mu_at_least_delta=mu >= params.delta,
            coverage_identity_ok=Fraction(b.rank, n) == nu_out,
            boundary_bound_ok=Fraction(bl.rank, n) <= alpha_out,
        )
        report.steps.append(step)
        nu, alpha = nu_out, alpha_out
        if mu >= 1:
            break

    complement = _echelon_complement_in(full_subspace(quotient), b)
    t_sub = b if complement.rank == 0 else sum_subspaces(b, complement)
    report.complement_found = t_sub.rank == n
    report.complement_dim = t_sub.rank
    if report.complement_found:
        # lift T to the integer group ring and measure the defect there,
        # with honest (unwrapped) products against K
        report.defect = _lifted_defect(p, quotient, t_sub, k_basis, m)
        report.defect_below_epsilon = report.defect < epsilon
    report.all_step_assertions_held = all(
        st.mu_at_least_delta and st.coverage_identity_ok and st.boundary_bound_ok
        for st in report.steps
    )
    if not report.complement_found or not report.defect_below_epsilon:
        return None
    return report


def _next_level_subspace(p, quotient, idx, m, k_basis, epsilon, params, prev_dims):
    """Interval spans aligned with the chain; each level must satisfy the
    dimension version of the boundary bound against K, measured in the
    integer group ring (monomial bases make dimensions support counts)."""
    k_exps = sorted({g for terms in k_basis for g, c in terms.items() if c})
    side = 2
    while side <= m:
        # dim(level * K) in the full ring: union of shifted intervals
        support = {i + e for i in range(side) for e in set(k_exps) | {0}}
        if Fraction(len(support)) <= (1 + epsilon / 2) * (1 - params.delta) * side:
            terms = [{j: 1} for j in range(side)]
            vecs = [np.eye(quotient.dim, dtype=np.int64)[idx[j % m]] for j in range(side)]
            sub = span(quotient, vecs)
            if sub.rank == side and side not in prev_dims:
                return sub, terms
        side *= 2
    raise SearchFailedError("no interval level satisfies the boundary bound")


def _translate(quotient, sub: Subspace, x: int) -> Subspace:
    return Subspace(quotient, quotient.translate_rows(sub.rows, quotient.labels[x]))


def right_mul_subspace(quotient, sub: Subspace, elements: list[dict], p: int) -> Subspace:
    m = quotient.group.order
    blocks = [sum((c * quotient.translate_rows(sub.rows, g % m) for g, c in terms.items()),
                  np.zeros_like(sub.rows)) % p
              for terms in elements]
    return Subspace(quotient, np.vstack(blocks)) if blocks else zero_subspace(quotient)


def _inv_terms(terms: dict, m: int) -> dict:
    ((g, c),) = [(g, c) for g, c in terms.items() if c]
    return {(-g) % m: c}


def _lifted_defect(p: int, quotient, t_sub: Subspace, k_basis: list[dict],
                   m: int) -> Fraction:
    exps = [g for terms in k_basis for g in terms]
    radius = m + max(abs(g) for g in exps) + 1
    z = FreeAbelian(1)
    ambient = BallAmbient(z, ball(z, radius), p, lam=1)
    lifted_rows = []
    for row in t_sub.rows:
        terms = {}
        for i, c in enumerate(row):
            if c:
                terms[(quotient.labels[i],)] = int(c)
        lifted_rows.append(ambient.vector(terms))
    t_lift = span(ambient, lifted_rows)
    k_elements = [{(g,): c for g, c in terms.items()} for terms in k_basis]
    rows = [ambient.apply_right(r, el) for r in t_lift.rows for el in k_elements]
    grown = sum_subspaces(t_lift, span(ambient, rows))
    return Fraction(grown.rank - t_lift.rank, t_lift.rank)


def _echelon_complement_in(ambient_sub: Subspace, b: Subspace) -> Subspace:
    """Echelon complement of (ambient_sub n B) inside ambient_sub."""
    inter = intersect(ambient_sub, b)
    if inter.rank == 0:
        return ambient_sub
    pivots = set(inter.pivots())
    keep = [row for row, c in zip(ambient_sub.rows, ambient_sub.pivots()) if c not in pivots]
    cand = span(ambient_sub.ambient, keep) if keep else zero_subspace(ambient_sub.ambient)
    # fall back to column-greedy completion if the pivot heuristic fell short
    if cand.rank + inter.rank != ambient_sub.rank or intersect(cand, b).rank != 0:
        cand = zero_subspace(ambient_sub.ambient)
        for row in ambient_sub.rows:
            trial = sum_subspaces(cand, span(ambient_sub.ambient, [row]))
            if trial.rank == cand.rank + 1 and intersect(trial, b).rank == 0:
                cand = trial
            if cand.rank + inter.rank == ambient_sub.rank:
                break
    return cand


def probe_report_jsonable(report: ProbeReport) -> dict:
    def frac(x):
        return None if x is None else {"num": x.numerator, "den": x.denominator}

    return {
        "certificate_type": "algebra_tiling_probe",
        "experimental": True,
        "prime": report.prime,
        "epsilon": frac(report.epsilon),
        "delta": frac(report.delta),
        "zeta": frac(report.zeta),
        "height_cap": report.height_cap,
        "quotient_level": report.quotient_level,
        "omega_dim": report.omega_dim,
        "k_dim": report.k_dim,
        "steps": [
            {
                "step": st.step,
                "level_dim": st.level_dim,
                "s": st.s,
                "mu": frac(st.mu),
                "nu": frac(st.nu),
                "alpha": frac(st.alpha),
                "mu_at_least_delta": st.mu_at_least_delta,
                "coverage_identity_ok": st.coverage_identity_ok,
                "boundary_bound_ok": st.boundary_bound_ok,
            }
            for st in report.steps
        ],
        "complement_found": report.complement_found,
        "complement_dim": report.complement_dim,
        "defect": frac(report.defect),
        "defect_below_epsilon": report.defect_below_epsilon,
        "all_step_assertions_held": report.all_step_assertions_held,
    }
