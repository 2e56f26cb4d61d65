"""Almost-invariant transversals of finite-index normal subgroups.

The pipeline covers a finite quotient Omega = G/N by translates of a tower
of Folner sets (largest first), greedily and with a small allowed overlap,
carves the overlaps away, lifts the pieces and the uncovered remainder back
to the group, and returns a certificate: an exact transversal T whose
boundary defect #(T u TK) - #T over #T is measured by direct count.

Greedy covering step.  The region is one bool mask over the quotient's
coset listing.  Scanning in that order, a center x is adjoined whenever its
tile xK meets the region in at most delta * #K cosets; maximality of the
scan forces every coset to be delta-densely covered, which yields the
coverage gain mu >= delta and the boundary growth bound that the
certificate records per step as exact rationals (the coverage identity
holds by construction of mu).  Every count is taken on coset indices.

Tower and height.  The textbook recipe fixes the allowed overlap delta, the
relative boundary constant zeta, and a worst-case tower height t from the
target invariance epsilon, and demands a tower K_1, ..., K_t in which every
set is almost invariant against all earlier ones.  Executed literally the
tower sizes blow up geometrically in t (hundreds of levels for modest
epsilon), far beyond desk scale; but the actual trajectory stops after very
few levels because real coverage gains are far above delta.  So the tower
here is built lazily, largest level first, preferring candidates aligned
with the quotient chain (they pack the quotient perfectly); the recipe's
delta, zeta and height cap are kept, every per-step hypothesis and bound is
checked exactly at runtime and recorded, and the final defect is verified
by direct count, never assumed from the recipe.

covering_recipe fixes the recipe's constants, theta_step is its
bookkeeping map, and cover is its one covering loop: greedy_fill passes,
each over the tower level that the caller's level rule picks.  The
transversal pipeline's rule scans its tower candidates; the subspace probe
(algebra_probe) runs the same loop on the cosets of Z/m with interval
levels, whose counts are its ranks.

The certificate is the JSON object that `tile` prints: build_transversal
returns it, with exact fractions as {num, den} and group elements as
lists, and verify_certificate reads it back, taking the quotient's modulus
from config.chain_base ** quotient_level.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import budgets
from .errors import ContractError, ResourceBudgetError, SearchFailedError
from .groups import FreeAbelian, GroupOracle, Heisenberg, HeisenbergMod, ZdMod, ball
from .registry import get_group
from .serialize import element_from_json, element_json, frac_from_json, frac_json, reading
from .subspace import set_defect


@dataclass(frozen=True)
class ThetaParams:
    delta: Fraction
    zeta: Fraction

    def __post_init__(self):
        if not 0 < self.delta < 1:
            raise ContractError("delta must lie in (0, 1)")
        if self.zeta < 1:
            raise ContractError("zeta must be >= 1")


def theta_step(params: ThetaParams, mu: Fraction, nu: Fraction,
               alpha: Fraction) -> tuple[Fraction, Fraction]:
    """One step of the coverage/boundary bookkeeping map:
    (nu, alpha) -> (nu + mu (1 - alpha), alpha + mu (1 - alpha) zeta / (1 - delta)).
    Both coordinates are monotone nondecreasing in mu while alpha <= 1.
    Any mu is taken, so that a covering pass whose gain fell short of delta
    can record the shortfall."""
    gain = mu * (1 - alpha)
    return nu + gain, alpha + gain * params.zeta / (1 - params.delta)


def theta(params: ThetaParams, mu: Fraction, nu: Fraction,
          alpha: Fraction) -> tuple[Fraction, Fraction]:
    """theta_step under the recipe's hypothesis mu >= delta."""
    mu, nu, alpha = Fraction(mu), Fraction(nu), Fraction(alpha)
    if mu < params.delta:
        raise ContractError("theta needs mu >= delta")
    return theta_step(params, mu, nu, alpha)


# ---------------------------------------------------------------------------
# Folner search


def _zd_box(d: int, side: int) -> list:
    return [tuple(p) for p in itertools.product(range(side), repeat=d)]


def folner_search(oracle: GroupOracle, k: Sequence, bound: Fraction,
                  max_radius: int = 40) -> list:
    """First ball (or box, for the free abelian groups) whose counting defect
    against K comes in under the bound.  A box is held to the ball's element
    cap.  Failure is explicit and never a non-amenability claim."""
    bound = Fraction(bound)
    if bound <= 0:
        raise ContractError("bound must be positive")
    if max_radius < 1:
        raise ContractError(f"max radius must be at least 1, got {max_radius}")
    k = list(k)
    cap = budgets.ball_cap()
    for r in range(1, max_radius + 1):
        candidates = [ball(oracle, r).elements]
        if isinstance(oracle, FreeAbelian):
            if r**oracle.d > cap:
                raise ResourceBudgetError(f"box of {oracle.name} exceeded cap of {cap} elements")
            candidates.append(_zd_box(oracle.d, r))
        for f in candidates:
            if set_defect(f, k, oracle) < bound:
                return f
    raise SearchFailedError(
        f"no set with defect < {bound} found in {oracle.name} up to radius {max_radius}"
    )


# ---------------------------------------------------------------------------
# finite quotients


class QuotientSet:
    """A congruence quotient G/N of an infinite group, held as the finite
    oracle `finite` on the reduced coordinates: full coset listing (in the
    finite oracle's order), projection, a section lifting cosets back to
    the group, and the right action of the group on coset indices
    (`act_indices`), which is `finite.mul` on numpy arrays: the finite laws
    are integer polynomials reduced mod m in every coordinate.  `act`, the
    same action on one coset tuple, is the tests' reference for it and the
    binding that the benchmark's tracer counts; no covering step calls it.

    Cosets are numbered 0..n-1 in `elements` order, which for both
    families is mixed radix in m over the coordinates, the first one most
    significant."""

    def __init__(self, oracle: GroupOracle, finite: GroupOracle):
        self.oracle = oracle
        self.finite = finite
        self.m = finite.m
        self.name = f"{oracle.name} mod {self.m}"

    @cached_property
    def elements(self) -> list:
        return list(self.finite.elements())

    @cached_property
    def _radix(self) -> np.ndarray:
        """Place values of the mixed radix; built on first use, which comes
        only on quotients under the quotient cap, where they fit in int64."""
        width = len(self.finite.identity)
        return self.m ** np.arange(width - 1, -1, -1, dtype=np.int64)

    def index(self, cosets) -> np.ndarray:
        """Positions in `elements` of cosets whose coordinates run along the
        last axis."""
        return np.asarray(cosets, dtype=np.int64) @ self._radix

    def project(self, g):
        return tuple(a % self.m for a in g)

    def section(self, coset):
        return tuple(coset)

    def size(self) -> int:
        return self.finite.order

    def act(self, coset, g):
        """Right action: coset of x goes to the coset of x g."""
        return self.finite.mul(coset, g)

    def act_indices(self, indices: np.ndarray, k: np.ndarray) -> np.ndarray:
        """Indices of x k for the cosets x at `indices` and the rows k of an
        array of projected elements, as one row per x."""
        cosets = np.asarray(indices, dtype=np.int64)[:, None] // self._radix % self.m
        columns = self.finite.mul(tuple(cosets.T[..., None]), tuple(k.T))
        return sum(column * r for column, r in zip(columns, self._radix))


# The subclasses exist only to give each family its own `act` binding: the
# benchmark's tracer (perfbench/tracer.py) counts quotient actions by
# wrapping ZdQuotient.act and HeisenbergQuotient.act by name.


class ZdQuotient(QuotientSet):
    """Z^d / (mZ)^d."""

    act = QuotientSet.act


class HeisenbergQuotient(QuotientSet):
    """Heisenberg group modulo the kernel of reduction mod m (a normal,
    finite-index congruence subgroup; the chain over m = base**k has
    trivial intersection)."""

    act = QuotientSet.act


def congruence_quotient(oracle: GroupOracle, m: int) -> QuotientSet:
    """The quotient of a built-in infinite group by its congruence subgroup
    of level m: Z^d -> (Z/m)^d, Heisenberg -> Heisenberg over Z/m."""
    if isinstance(oracle, FreeAbelian):
        return ZdQuotient(oracle, ZdMod(oracle.d, m))
    if isinstance(oracle, Heisenberg):
        return HeisenbergQuotient(oracle, HeisenbergMod(m))
    raise ContractError(f"no congruence quotients built in for {oracle.name}")


def quotient_chain(oracle: GroupOracle, base: int = 2):
    """Built-in nested chains with trivial intersection; yields (level, quotient)."""
    cap = budgets.quotient_cap()
    level = 1
    while (omega := congruence_quotient(oracle, base**level)).size() <= cap:
        yield level, omega
        level += 1


# ---------------------------------------------------------------------------
# the greedy covering step


# cosets times elements acted on at once: 128 KB of int64 per array, which the
# allocator reuses (4 times that took a third longer per pass on H mod 32)
_TILE_BLOCK_ENTRIES = 1 << 14


@dataclass(frozen=True)
class GreedyFillResult:
    centers: list  # cosets, as omega.elements lists them
    covered: np.ndarray  # B_s, as a mask over omega.elements
    mu: Fraction
    s: int
    nu_in: Fraction
    alpha_in: Fraction
    nu_out: Fraction
    alpha_out: Fraction
    tiles: list  # per centre, the mask of the level's elements its carved tile keeps
    hypotheses_ok: bool
    hypothesis_failures: list[str]
    mu_at_least_delta: bool
    coverage_identity_ok: bool
    boundary_bound_ok: bool
    maximality_ok: bool


def _acted_blocks(omega: QuotientSet, indices: np.ndarray, rows: np.ndarray):
    """omega.act_indices of the cosets at `indices` by `rows`, a block at a time."""
    block = max(1, _TILE_BLOCK_ENTRIES // max(1, len(rows)))
    for start in range(0, len(indices), block):
        yield omega.act_indices(indices[start:start + block], rows)


def _product_size(omega: QuotientSet, indices: np.ndarray, rows: np.ndarray) -> int:
    """#{x g : x a coset at `indices`, g a row of `rows`}, counted on a mask."""
    hit = np.zeros(omega.size(), dtype=bool)
    for acted in _acted_blocks(omega, indices, rows):
        hit[acted] = True
    return int(np.count_nonzero(hit))


def greedy_fill(omega: QuotientSet, region: np.ndarray, k: Sequence, l: Sequence,
                params: ThetaParams, alpha: Fraction) -> GreedyFillResult:
    """One covering pass with tiles xK over the quotient, from the region
    B, a bool mask over `omega.elements` that is not all True (checked), so
    nu = #B/#Omega < 1; alpha must lie in [0, 1), and the projection must
    be injective on K (checked; by cancellation this is equivalent to
    injectivity of k -> xk for every x).  mu >= delta and the boundary
    bound through one theta step are checked exactly; the coverage identity
    holds by construction of mu = (#B_s/#Omega - nu)/(1 - alpha).  When the
    covering step's hypotheses fail the violations are recorded instead of
    asserted.  Every set is counted on coset indices by omega.act_indices.
    """
    k = list(k)
    if not k:
        raise ContractError("K must be nonempty")
    n = omega.size()
    pk = [omega.project(x) for x in k]
    if len(set(pk)) != len(k):
        raise ContractError("projection is not injective on K")
    if not (isinstance(region, np.ndarray) and region.dtype == bool and region.shape == (n,)):
        raise ContractError("B must be a bool mask over the cosets of the quotient")
    if region.all():
        raise ContractError("need nu in [0, 1): B may not exhaust the quotient")
    nu = Fraction(int(np.count_nonzero(region)), n)
    alpha = Fraction(alpha)
    if not 0 <= alpha < 1:
        raise ContractError("need alpha in [0, 1)")

    width = len(omega.finite.identity)
    inv_k, inv_l = (np.array([omega.project(omega.oracle.inv(x)) for x in xs],
                             dtype=np.int64).reshape(-1, width) for xs in (k, l))
    b = np.flatnonzero(region)
    bk_star = _product_size(omega, b, inv_k)
    bl_star = _product_size(omega, b, inv_l)
    failures = []
    kl_star = _product_size(omega, omega.index(pk), inv_l)
    if kl_star > params.zeta * len(k):
        failures.append(f"#(KL*) = {kl_star} exceeds zeta * #K = {params.zeta * len(k)}")
    if bk_star > alpha * n:
        failures.append(f"#(BK*) = {bk_star} exceeds alpha * #Omega = {alpha * n}")
    if bl_star > alpha * n:
        failures.append(f"#(BL*) = {bl_star} exceeds alpha * #Omega = {alpha * n}")

    # The scan runs on coset indices: the tile xK is a row of indices
    # (distinct, since the projection is injective on K), and a centre is
    # taken when the tile meets the region in at most floor(delta #K) cosets.
    threshold = math.floor(params.delta * len(k))
    k_rows = np.array(pk, dtype=np.int64)
    covered = region.copy()
    centers = []
    tiles = []
    scan = itertools.chain.from_iterable(_acted_blocks(omega, np.arange(n), k_rows))
    for x, tile in zip(omega.elements, scan):
        overlap = covered[tile]
        if np.count_nonzero(overlap) <= threshold:
            centers.append(x)
            tiles.append(~overlap)
            covered[tile] = True
    covered_count = int(np.count_nonzero(covered))

    mu = (Fraction(covered_count, n) - nu) / (1 - alpha)
    nu_out, alpha_out = theta_step(params, mu, nu, alpha)
    bsl_star = _product_size(omega, np.flatnonzero(covered), inv_l)
    # recounted against the final cover, not inferred from the scan
    maximality_ok = all(
        np.all(np.count_nonzero(covered[rows], axis=1) > threshold)
        for rows in _acted_blocks(omega, np.arange(n), k_rows)
    )
    return GreedyFillResult(
        centers=centers, covered=covered, mu=mu, s=len(centers),
        nu_in=nu, alpha_in=alpha, nu_out=nu_out, alpha_out=alpha_out,
        tiles=tiles,
        hypotheses_ok=not failures, hypothesis_failures=failures,
        mu_at_least_delta=mu >= params.delta,
        coverage_identity_ok=Fraction(covered_count, n) == nu_out,
        boundary_bound_ok=Fraction(bsl_star, n) <= alpha_out,
        maximality_ok=maximality_ok,
    )


# ---------------------------------------------------------------------------
# recipe constants


def pick_delta(k_size: int, epsilon: Fraction) -> Fraction:
    """Largest 1/2**j with delta * #K < eps/2 and (1 + eps/2)(1 - delta) > 1."""
    for j in range(1, 64):
        delta = Fraction(1, 2**j)
        if delta * k_size < epsilon / 2 and (1 + epsilon / 2) * (1 - delta) > 1:
            return delta
    raise SearchFailedError("no dyadic overlap constant fits the target invariance")


def pick_zeta(delta: Fraction, k_size: int, epsilon: Fraction) -> Fraction:
    """First (largest) 1 + 1/2**j with (1 - delta)/zeta > 1 - eps/(2 #K);
    the constraint is an upper bound on zeta, so the first qualifying dyadic
    step is the loosest admissible constant."""
    target = 1 - epsilon / (2 * k_size)
    if target <= 0:
        return Fraction(2)
    for j in range(1, 64):
        zeta = 1 + Fraction(1, 2**j)
        if (1 - delta) / zeta > target:
            return zeta
    raise SearchFailedError("no dyadic boundary constant fits the target invariance")


def worst_case_height(params: ThetaParams, k_size: int, epsilon: Fraction) -> int:
    """Iterations of theta at mu = delta from (0,0) until coverage clears
    target = 1 - eps/(2 #K) or alpha reaches 1, at most 10,000.  In closed
    form, with c = delta zeta/(1 - delta): 1 - alpha_t = (1 - c)**t and
    nu_t = (1 - delta)(1 - (1 - c)**t)/zeta, so past t = 1 the height is the
    least t with (1 - c)**t < q = 1 - target zeta/(1 - delta)."""
    delta, zeta = params.delta, params.zeta
    target = 1 - epsilon / (2 * k_size)
    c = delta * zeta / (1 - delta)
    if c >= 1 or delta > target:
        return 1
    q = 1 - target * zeta / (1 - delta)
    estimate = math.log(q) / math.log1p(-float(c)) if q > 0 else math.inf
    if estimate <= 10_001:
        t = max(1, math.floor(estimate) - 1)  # at most the answer; settled exactly
        while (1 - c) ** t >= q:
            t += 1
        if t <= 10_000:
            return t
    raise SearchFailedError("coverage bookkeeping did not reach the target")


def covering_recipe(k_size: int, epsilon: Fraction) -> tuple[ThetaParams, int, Fraction]:
    """The recipe's constants for a base of k_size elements (a tile) or
    dimensions (a subspace): the theta parameters, the tower height cap,
    and the coverage target 1 - eps/(2 #K) that ends the covering."""
    delta = pick_delta(k_size, epsilon)
    params = ThetaParams(delta, pick_zeta(delta, k_size, epsilon))
    return params, worst_case_height(params, k_size, epsilon), 1 - epsilon / (2 * k_size)


# ---------------------------------------------------------------------------
# tower construction (lazy, chain-aligned candidates first)


def _tower_candidates(oracle: GroupOracle, omega: QuotientSet, base: int):
    """Deterministic candidate stream for tower levels: chain-aligned boxes
    (they pack the quotient exactly), then word-metric balls of radius up
    to 12."""
    side = base
    while side <= omega.m:
        yield _zd_box(len(omega.finite.identity), side)
        side *= base
    for r in range(1, 13):
        yield ball(oracle, r).elements


def boundary_bound_ok(oracle: GroupOracle, level: Sequence, k: Sequence,
                      epsilon: Fraction, params: ThetaParams) -> bool:
    """The tower's boundary bound against the base set K, counted in the
    group: #(K_i K) <= (1 + eps/2)(1 - delta) #K_i.  K holds the identity
    in both callers, so K_i K covers K_i and #(K_i K) / #K_i is exactly
    1 + set_defect(K_i, K)."""
    return 1 + set_defect(level, k, oracle) <= (1 + epsilon / 2) * (1 - params.delta)


def _level_ok(oracle: GroupOracle, omega: QuotientSet, candidate: list,
              k: list, epsilon: Fraction, params: ThetaParams,
              previous: list[list]) -> bool:
    if not boundary_bound_ok(oracle, candidate, k, epsilon, params):
        return False
    # injectivity in the quotient (equivalently: differences avoid N - {1})
    if len({omega.project(g) for g in candidate}) != len(candidate):
        return False
    # almost-invariance of every earlier (larger) level against this one:
    # #(P u {x : xK_i meets P}) < zeta #P, where {x : xK_i meets P} = P K_i^-1
    inverses = [oracle.inv(g) for g in candidate]
    return all(1 + set_defect(prev, inverses, oracle) < params.zeta for prev in previous)


def cover(omega: QuotientSet, k: Sequence, params: ThetaParams, t_cap: int,
          target: Fraction, next_level) -> tuple[list, list[GreedyFillResult]]:
    """The recipe's covering loop: up to t_cap greedy_fill passes from an
    empty region, each with the tower level next_level(tower so far), the
    base set K as the boundary set and (B, nu, alpha) carried from the
    pass before.  It stops once nu clears the target, alpha reaches 1 or a
    pass has mu >= 1.  Returns the tower and the passes, one per level."""
    tower, fills = [], []
    region, nu, alpha = np.zeros(omega.size(), dtype=bool), Fraction(0), Fraction(0)
    while len(fills) < t_cap and alpha < 1 and nu <= target:
        tower.append(next_level(tower))
        fills.append(greedy_fill(omega, region, tower[-1], k, params, alpha))
        if fills[-1].mu >= 1:
            break
        region, nu, alpha = fills[-1].covered, fills[-1].nu_out, fills[-1].alpha_out
    return tower, fills


# ---------------------------------------------------------------------------
# certificates


def _elements_json(elements) -> list:
    return [element_json(g) for g in elements]


def _elements_from_json(values) -> list:
    return [element_from_json(v) for v in values]


def build_transversal(oracle: GroupOracle, k: Sequence, epsilon,
                      chain_base: int = 2, max_quotients: int | None = None) -> dict:
    """Run the covering pipeline until some chain quotient yields a
    transversal with defect < epsilon, and return its certificate as the
    JSON object that `tile` prints (which adds its own keys to "config").
    Every certificate is re-verifiable from its own data."""
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ContractError("epsilon must be positive")
    k = list(dict.fromkeys(k))
    if oracle.identity not in k:
        raise ContractError("K must contain the identity")
    if max_quotients is not None and max_quotients < 1:
        raise ContractError(f"max_quotients must be at least 1, got {max_quotients}")
    params, t_cap, target = covering_recipe(len(k), epsilon)

    failures = []
    for level, omega in itertools.islice(quotient_chain(oracle, chain_base), max_quotients):
        try:
            cert = _attempt_quotient(oracle, omega, level, k, epsilon,
                                     params, t_cap, target, chain_base)
        except SearchFailedError as exc:
            failures.append(f"level {level}: {exc}")
            continue
        if cert is not None:
            return cert
        failures.append(f"level {level}: defect not below epsilon")
    raise SearchFailedError(
        "no chain quotient admitted a qualifying transversal: " + "; ".join(failures)
    )


def _attempt_quotient(oracle, omega, level, k, epsilon, params,
                      t_cap, target, base):
    n = omega.size()

    def next_level(tower):
        for cand in _tower_candidates(oracle, omega, base):
            if len(cand) <= n and _level_ok(oracle, omega, cand, k, epsilon, params, tower):
                return cand
        raise SearchFailedError(
            "tower construction exhausted its candidates (boundary, "
            "injectivity or almost-invariance constraint unmet)"
        )

    tower, fills = cover(omega, k, params, t_cap, target, next_level)
    trace = [{
        "step": u,
        "level_size": len(level_set),
        "s": res.s,
        "mu": frac_json(res.mu),
        "nu": frac_json(res.nu_out),
        "alpha": frac_json(res.alpha_out),
        "hypotheses_ok": res.hypotheses_ok,
        "hypothesis_failures": res.hypothesis_failures,
        "mu_at_least_delta": res.mu_at_least_delta,
        "coverage_identity_ok": res.coverage_identity_ok,
        "boundary_bound_ok": res.boundary_bound_ok,
        "maximality_ok": res.maximality_ok,
    } for u, (level_set, res) in enumerate(zip(tower, fills), 1)]
    placements = []
    transversal = []
    for u, (level_set, res) in enumerate(zip(tower, fills), 1):
        for center, kept in zip(res.centers, res.tiles):
            x = omega.section(center)
            piece = [oracle.mul(x, g) for g in itertools.compress(level_set, kept)]
            placements.append({
                "level": u,
                "center": element_json(x),
                "tile": _elements_json(piece),
            })
            transversal.extend(piece)
    covered = fills[-1].covered if fills else np.zeros(n, dtype=bool)
    remainder = [omega.section(c) for c in itertools.compress(omega.elements, ~covered)]
    transversal.extend(remainder)

    # independent sanity of the construction before measuring the defect
    projected = [omega.project(g) for g in transversal]
    if len(set(projected)) != len(transversal) or len(transversal) != n:
        raise SearchFailedError("lift failed to be a bijective transversal")
    defect = set_defect(transversal, k, oracle)
    if defect >= epsilon:
        return None
    # the quotient's modulus is chain_base ** quotient_level
    return {
        "certificate_type": "tiling",
        "config": {"chain_base": base},
        "group": oracle.name,
        "quotient_name": omega.name,
        "quotient_level": level,
        "omega_size": n,
        "epsilon": frac_json(epsilon),
        "delta": frac_json(params.delta),
        "zeta": frac_json(params.zeta),
        "height_cap": t_cap,
        "k": _elements_json(k),
        "tower_sizes": [len(level_set) for level_set in tower],
        "tower": [_elements_json(level_set) for level_set in tower],
        "trace": trace,
        "placements": placements,
        "remainder": _elements_json(remainder),
        "transversal": _elements_json(transversal),
        "defect": frac_json(defect),
        "defect_decimal": round(float(defect), 12),
    }


def verify_certificate(payload: dict, oracle: GroupOracle) -> tuple[dict, Fraction]:
    """Re-verify a tiling certificate, given as the JSON object that `tile`
    prints, from its own data: every element it lists is a vector of the
    group's width of integers (else ContractError), the decomposition is
    disjoint, the projection to the quotient of modulus
    config.chain_base ** quotient_level (chain_base 2 when config does not
    give one) restricted to the transversal is a bijection, and the defect
    recounts to the recorded value.  Every field it reads must be there,
    also those that the checks do not use (else ContractError).  Returns
    the checks and the recounted defect."""
    with reading("tiling certificate"):
        level, config = payload["quotient_level"], payload.get("config", {})
        base = config.get("chain_base", 2) if type(config) is dict else None
        if not (type(level) is int and type(base) is int):
            raise ContractError("tiling certificate: config must be an object, and "
                                "quotient_level and config.chain_base integers")
        # the fields that the checks do not use are read all the same
        for key in ("group", "quotient_name", "omega_size", "height_cap"):
            payload[key]
        for value in (payload["delta"], payload["zeta"],
                      *(row[key] for row in payload["trace"] for key in ("mu", "nu", "alpha"))):
            frac_from_json(value)
        epsilon = frac_from_json(payload["epsilon"])
        defect = frac_from_json(payload["defect"])
        k = _elements_from_json(payload["k"])
        tower = [_elements_from_json(level_set) for level_set in payload["tower"]]
        placements = [(pl["level"], element_from_json(pl["center"]),
                       _elements_from_json(pl["tile"]))
                      for pl in payload["placements"]]
        remainder = _elements_from_json(payload["remainder"])
        transversal = _elements_from_json(payload["transversal"])
    omega = congruence_quotient(oracle, base**level)  # ContractError on other groups
    width = len(oracle.identity)
    for g in itertools.chain(k, remainder, transversal, *tower,
                             *([x, *piece] for _, x, piece in placements)):
        if not (isinstance(g, tuple) and len(g) == width and all(type(a) is int for a in g)):
            raise ContractError(f"certificate element {g!r} is not a list of {width} integers")
    flat = [g for _, _, piece in placements for g in piece] + remainder
    disjoint = len(set(flat)) == len(flat)
    matches = sorted(map(repr, flat)) == sorted(map(repr, transversal))
    projected = {omega.project(g) for g in transversal}
    bijective = (len(projected) == len(transversal) == omega.size())
    recount = set_defect(transversal, k, oracle)
    return {
        "disjoint_decomposition": disjoint,
        "decomposition_matches_transversal": matches,
        "projection_bijective": bijective,
        "defect_recount_matches": recount == defect,
        "defect_below_epsilon": recount < epsilon,
    }, recount


def verify_json(payload: dict, registry=None) -> dict:
    """The result `verify` prints for a tiling certificate: the checks of
    verify_certificate, with the recounted defect in place of its two defect
    checks.  matches also needs K to hold the identity and, when the config
    records k_radius, to be the ball of that radius."""
    with reading("tiling certificate"):
        oracle = get_group(payload["group"], registry)
    checks, recount = verify_certificate(payload, oracle)
    k = _elements_from_json(payload["k"])
    config = payload.get("config", {})
    radius = config.get("k_radius")
    if "k_radius" in config and type(radius) is not int:
        raise ContractError("tiling certificate: config.k_radius must be an integer")
    k_ok = oracle.identity in k and (
        radius is None or set(k) == set(ball(oracle, radius).elements))
    result = {key: ok for key, ok in checks.items()
              if key not in ("defect_recount_matches", "defect_below_epsilon")}
    result.update(defect_recount=frac_json(recount), matches=all(checks.values()) and k_ok)
    return result
