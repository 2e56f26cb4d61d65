"""Almost-invariant transversals of finite-index normal subgroups.

The pipeline covers a finite quotient Omega = G/N by translates of a tower
of Folner sets (largest first), greedily and with a small allowed overlap,
carves the overlaps away, lifts the pieces and the uncovered remainder back
to the group, and returns a certificate: an exact transversal T whose
boundary defect #(T u TK) - #T over #T is measured by direct count.

Greedy covering step.  Scanning the quotient in enumeration order, a center
x is adjoined whenever its tile xK meets the region built so far in at most
delta * #K points; maximality of the scan forces every point of the quotient
to be delta-densely covered, which yields the coverage gain mu >= delta and
the two bookkeeping bounds (coverage identity and boundary growth) that the
certificate records per step as exact rationals.

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
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from . import budgets
from .errors import ContractError, SearchFailedError
from .groups import FreeAbelian, GroupOracle, Heisenberg, HeisenbergMod, ZdMod, ball
from .serialize import element_from_json, element_json, frac_from_json, frac_json, reading
from .subspace import set_defect


def inverse_envelope(a: Iterable, k: Iterable, oracle: GroupOracle) -> set:
    """{x : xK meets A} = A * {k^-1 : k in K}."""
    k_inv = [oracle.inv(x) for x in k]
    return {oracle.mul(g, x) for g in a for x in k_inv}


@dataclass(frozen=True)
class ThetaParams:
    delta: Fraction
    zeta: Fraction

    def __post_init__(self):
        if not 0 < self.delta < 1:
            raise ContractError("delta must lie in (0, 1)")
        if self.zeta < 1:
            raise ContractError("zeta must be >= 1")


def theta(params: ThetaParams, mu: Fraction, nu: Fraction,
          alpha: Fraction) -> tuple[Fraction, Fraction]:
    """One step of the coverage/boundary bookkeeping map:
    (nu, alpha) -> (nu + mu (1 - alpha), alpha + mu (1 - alpha) zeta / (1 - delta)).
    Both coordinates are monotone nondecreasing in mu while alpha <= 1."""
    mu, nu, alpha = Fraction(mu), Fraction(nu), Fraction(alpha)
    if mu < params.delta:
        raise ContractError("theta needs mu >= delta")
    gain = mu * (1 - alpha)
    return nu + gain, alpha + gain * params.zeta / (1 - params.delta)


# ---------------------------------------------------------------------------
# Folner search


def _zd_box(d: int, side: int) -> list:
    return [tuple(p) for p in itertools.product(range(side), repeat=d)]


def folner_search(oracle: GroupOracle, k: Sequence, bound: Fraction,
                  max_radius: int = 40) -> list:
    """First ball (or box, for the free abelian groups) whose counting defect
    against K comes in under the bound.  Failure is explicit and never a
    non-amenability claim."""
    bound = Fraction(bound)
    if bound <= 0:
        raise ContractError("bound must be positive")
    k = list(k)
    for r in range(1, max_radius + 1):
        candidates = [ball(oracle, r).elements]
        if isinstance(oracle, FreeAbelian):
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
    finite oracle's order), projection, and a section lifting cosets back
    to the group.  Subclasses supply the exact right action, on one coset
    (`act`) and on arrays of cosets, as coset indices (`act_indices`).

    Cosets are numbered 0..n-1 in `elements` order, which for both
    families is mixed radix in m over the coordinates, the first one most
    significant."""

    def __init__(self, oracle: GroupOracle, finite: GroupOracle):
        self.oracle = oracle
        self.finite = finite
        self.m = finite.m
        self.name = f"{oracle.name} mod {self.m}"
        width = len(finite.identity)
        self._radix = self.m ** np.arange(width - 1, -1, -1, dtype=np.int64)

    @cached_property
    def elements(self) -> list:
        return list(self.finite.elements())

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


# Each subclass defines its own `act`, although both could share one through
# `finite.mul`, because the benchmark's tracer (perfbench/tracer.py) counts
# quotient actions by wrapping ZdQuotient.act and HeisenbergQuotient.act by
# name.


class ZdQuotient(QuotientSet):
    """Z^d / (mZ)^d."""

    def act(self, coset, g):
        """Right action: coset of x goes to the coset of x g."""
        return tuple((a + b) % self.m for a, b in zip(coset, g))

    def act_indices(self, cosets: np.ndarray, k: np.ndarray) -> np.ndarray:
        """Indices of x k for the rows x of `cosets` and the rows k of an
        array of projected elements, as one row per x."""
        return sum((cosets[:, i, None] + k[:, i]) % self.m * r
                   for i, r in enumerate(self._radix))


class HeisenbergQuotient(QuotientSet):
    """Heisenberg group modulo the kernel of reduction mod m (a normal,
    finite-index congruence subgroup; the chain over m = base**k has
    trivial intersection)."""

    def act(self, coset, g):
        return self.finite.mul(coset, self.project(g))

    def act_indices(self, cosets: np.ndarray, k: np.ndarray) -> np.ndarray:
        """Indices of x k for the rows x of `cosets` and the rows k of an
        array of projected elements, as one row per x:
        (a, b, c)(d, e, f) = (a + d, b + e, c + f + ae)."""
        a, b, c = (cosets[:, i, None] for i in range(3))
        d, e, f = k.T
        m = self.m
        return ((a + d) % m * m + (b + e) % m) * m + (c + f + a * e) % m


def congruence_quotient(oracle: GroupOracle, m: int) -> QuotientSet:
    """The quotient of a built-in infinite group by its congruence subgroup
    of level m: Z^d -> (Z/m)^d, Heisenberg -> Heisenberg over Z/m."""
    if isinstance(oracle, FreeAbelian):
        return ZdQuotient(oracle, ZdMod(oracle.d, m))
    if isinstance(oracle, Heisenberg):
        return HeisenbergQuotient(oracle, HeisenbergMod(m))
    raise ContractError(f"no congruence quotients built in for {oracle.name}")


def quotient_chain(oracle: GroupOracle, base: int = 2,
                   max_size: int | None = None):
    """Built-in nested chains with trivial intersection; yields (level, quotient)."""
    cap = budgets.quotient_cap(max_size)
    level = 1
    while (omega := congruence_quotient(oracle, base**level)).size() <= cap:
        yield level, omega
        level += 1


# ---------------------------------------------------------------------------
# the greedy covering step


# tile indices computed at once by greedy_fill (a few MB of int64 at most)
_TILE_BLOCK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class GreedyFillResult:
    centers: list
    covered: set  # B_s
    mu: Fraction
    s: int
    nu_in: Fraction
    alpha_in: Fraction
    nu_out: Fraction
    alpha_out: Fraction
    tiles: list  # carved coset sets, parallel to centers
    hypotheses_ok: bool
    hypothesis_failures: list[str]
    mu_at_least_delta: bool
    coverage_identity_ok: bool
    boundary_bound_ok: bool
    maximality_ok: bool


def greedy_fill(omega: QuotientSet, b: set, k: Sequence, l: Sequence,
                params: ThetaParams, nu: Fraction | None = None,
                alpha: Fraction | None = None) -> GreedyFillResult:
    """One covering pass with tiles xK over the quotient.

    Preconditions: the projection must be injective on K (checked; by
    cancellation this is equivalent to injectivity of k -> xk for every x),
    B must consist of cosets as `omega.elements` lists them (checked), and
    the bookkeeping inputs nu = #B/#Omega, alpha must lie in [0, 1).
    The conclusions (mu >= delta, the coverage identity and the boundary
    bound through one theta step) are checked exactly; when the covering
    step's hypotheses fail the violations are recorded instead of asserted.
    """
    k = list(k)
    l = list(l)
    if not k:
        raise ContractError("K must be nonempty")
    n = omega.size()
    pk = [omega.project(x) for x in k]
    if len(set(pk)) != len(k):
        raise ContractError("projection is not injective on K")
    if not set(b).issubset(omega.elements):
        raise ContractError("B must be a set of cosets of the quotient")
    nu = Fraction(len(b), n) if nu is None else Fraction(nu)
    if not 0 <= nu < 1:
        raise ContractError("need nu in [0, 1): B may not exhaust the quotient")

    inv_k = [omega.oracle.inv(x) for x in k]
    inv_l = [omega.oracle.inv(x) for x in l]
    bk_star = {omega.act(c, x) for c in b for x in inv_k}
    bl_star = {omega.act(c, x) for c in b for x in inv_l}
    if alpha is None:
        alpha = Fraction(max(len(bk_star), len(bl_star)), n)
    else:
        alpha = Fraction(alpha)
    if not 0 <= alpha < 1:
        raise ContractError("need alpha in [0, 1)")

    failures = []
    if Fraction(len(b), n) != nu:
        failures.append(f"#B = {len(b)} is not nu * #Omega = {nu * n}")
    k_cosets = set(pk)
    kl_star = {omega.act(c, x) for c in k_cosets for x in inv_l}
    if len(kl_star) > params.zeta * len(k):
        failures.append(f"#(KL*) = {len(kl_star)} exceeds zeta * #K = {params.zeta * len(k)}")
    if len(bk_star) > alpha * n:
        failures.append(f"#(BK*) = {len(bk_star)} exceeds alpha * #Omega = {alpha * n}")
    if len(bl_star) > alpha * n:
        failures.append(f"#(BL*) = {len(bl_star)} exceeds alpha * #Omega = {alpha * n}")

    # The scan runs on coset indices: the region built so far is a mask over
    # the quotient, and the tile xK is a row of indices (distinct, since the
    # projection is injective on K).  Tiles are computed a block of centres
    # at a time; overlaps are integers, so floor(delta #K) is the threshold.
    threshold = math.floor(params.delta * len(k))
    elements = omega.elements
    k_rows = np.array(pk, dtype=np.int64)
    block = max(1, _TILE_BLOCK_ENTRIES // len(k))

    def tile_blocks():
        for start in range(0, n, block):
            centres = np.array(elements[start:start + block], dtype=np.int64)
            yield omega.act_indices(centres, k_rows)

    in_region = np.zeros(n, dtype=bool)
    if b:
        in_region[omega.index(list(b))] = True
    centers = []
    tiles = []
    for x, tile in zip(elements, itertools.chain.from_iterable(tile_blocks())):
        fresh = tile[~in_region[tile]]
        if len(tile) - len(fresh) <= threshold:
            centers.append(x)
            tiles.append({elements[i] for i in fresh})
            in_region[fresh] = True
    covered = {elements[i] for i in np.flatnonzero(in_region)}
    s = len(centers)

    mu = (Fraction(len(covered), n) - nu) / (1 - alpha)
    # same map as theta(), but tolerating mu < delta so the violation can be
    # recorded instead of raised
    gain = mu * (1 - alpha)
    nu_out = nu + gain
    alpha_out = alpha + gain * params.zeta / (1 - params.delta)

    coverage_ok = Fraction(len(covered), n) == nu_out
    bsl_star = {omega.act(c, x) for c in covered for x in inv_l}
    boundary_ok = Fraction(len(bsl_star), n) <= alpha_out
    # recounted against the final cover, not inferred from the scan
    maximality_ok = all(
        np.all(np.count_nonzero(in_region[rows], axis=1) > threshold)
        for rows in tile_blocks()
    )
    return GreedyFillResult(
        centers=centers, covered=covered, mu=mu, s=s,
        nu_in=nu, alpha_in=alpha, nu_out=nu_out, alpha_out=alpha_out,
        tiles=tiles,
        hypotheses_ok=not failures, hypothesis_failures=failures,
        mu_at_least_delta=mu >= params.delta,
        coverage_identity_ok=coverage_ok,
        boundary_bound_ok=boundary_ok,
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


def worst_case_height(params: ThetaParams, k_size: int, epsilon: Fraction,
                      cap: int = 10_000) -> int:
    """Iterations of theta at mu = delta from (0,0) until coverage clears
    1 - eps/(2 #K)."""
    target = 1 - epsilon / (2 * k_size)
    nu, alpha = Fraction(0), Fraction(0)
    for t in range(1, cap + 1):
        nu, alpha = theta(params, params.delta, nu, min(alpha, Fraction(1)))
        if nu > target:
            return t
        if alpha >= 1:
            return t
    raise SearchFailedError("coverage bookkeeping did not reach the target")


# ---------------------------------------------------------------------------
# tower construction (lazy, chain-aligned candidates first)


def _tower_candidates(oracle: GroupOracle, omega: QuotientSet, base: int,
                      max_ball_radius: int = 12):
    """Deterministic candidate stream for tower levels: chain-aligned boxes
    (they pack the quotient exactly), then word-metric balls."""
    side = base
    while side <= omega.m:
        yield _zd_box(len(omega.finite.identity), side)
        side *= base
    for r in range(1, max_ball_radius + 1):
        yield ball(oracle, r).elements


def _level_ok(oracle: GroupOracle, omega: QuotientSet, candidate: list,
              k: list, epsilon: Fraction, params: ThetaParams,
              previous: list[list]) -> bool:
    # boundary bound against the base set K (identity in K, so K_i K covers K_i)
    grown = {oracle.mul(g, x) for g in candidate for x in k}
    if Fraction(len(grown)) > (1 + epsilon / 2) * (1 - params.delta) * len(candidate):
        return False
    # injectivity in the quotient (equivalently: differences avoid N - {1})
    if len({omega.project(g) for g in candidate}) != len(candidate):
        return False
    # almost-invariance of every earlier (larger) level against this one
    for prev in previous:
        envelope = inverse_envelope(prev, candidate, oracle)
        if Fraction(len(set(prev) | envelope)) >= params.zeta * len(prev):
            return False
    return True


# ---------------------------------------------------------------------------
# certificates


_TRACE_FRACTIONS = ("mu", "nu", "alpha")


def _elements_json(elements) -> list:
    return [element_json(g) for g in elements]


def _elements_from_json(values) -> list:
    return [element_from_json(v) for v in values]


@dataclass(frozen=True)
class TilingCertificate:
    group: str
    quotient_name: str
    quotient_level: int
    modulus: int  # the quotient is congruence_quotient(group, modulus)
    omega_size: int
    epsilon: Fraction
    delta: Fraction
    zeta: Fraction
    height_cap: int
    k: list
    tower: list  # levels actually built, in usage order (largest first)
    trace: list  # per-step dicts with exact rationals
    placements: list  # (level index, lifted center, lifted tile elements)
    remainder: list
    transversal: list
    defect: Fraction

    def to_json(self) -> dict:
        """The certificate's JSON form.  The modulus is not a field of it:
        it is chain_base ** quotient_level, with chain_base taken from the
        "config" the CLI adds."""
        return {
            "certificate_type": "tiling",
            "group": self.group,
            "quotient_name": self.quotient_name,
            "quotient_level": self.quotient_level,
            "omega_size": self.omega_size,
            "epsilon": frac_json(self.epsilon),
            "delta": frac_json(self.delta),
            "zeta": frac_json(self.zeta),
            "height_cap": self.height_cap,
            "k": _elements_json(self.k),
            "tower_sizes": [len(level) for level in self.tower],
            "tower": [_elements_json(level) for level in self.tower],
            "trace": [{**row, **{key: frac_json(row[key]) for key in _TRACE_FRACTIONS}}
                      for row in self.trace],
            "placements": [
                {"level": u, "center": element_json(x), "tile": _elements_json(piece)}
                for u, x, piece in self.placements
            ],
            "remainder": _elements_json(self.remainder),
            "transversal": _elements_json(self.transversal),
            "defect": frac_json(self.defect),
            "defect_decimal": round(float(self.defect), 12),
        }

    @classmethod
    def from_json(cls, payload: dict) -> "TilingCertificate":
        with reading("tiling certificate"):
            level = payload["quotient_level"]
            return cls(
                group=payload["group"],
                quotient_name=payload["quotient_name"],
                quotient_level=level,
                modulus=payload.get("config", {}).get("chain_base", 2) ** level,
                omega_size=payload["omega_size"],
                epsilon=frac_from_json(payload["epsilon"]),
                delta=frac_from_json(payload["delta"]),
                zeta=frac_from_json(payload["zeta"]),
                height_cap=payload["height_cap"],
                k=_elements_from_json(payload["k"]),
                tower=[_elements_from_json(members) for members in payload["tower"]],
                trace=[{**row, **{key: frac_from_json(row[key]) for key in _TRACE_FRACTIONS}}
                       for row in payload["trace"]],
                placements=[(pl["level"], element_from_json(pl["center"]),
                             _elements_from_json(pl["tile"]))
                            for pl in payload["placements"]],
                remainder=_elements_from_json(payload["remainder"]),
                transversal=_elements_from_json(payload["transversal"]),
                defect=frac_from_json(payload["defect"]),
            )


def build_transversal(oracle: GroupOracle, k: Sequence, epsilon,
                      chain=None, params: ThetaParams | None = None,
                      chain_base: int = 2, max_quotients: int | None = None) -> TilingCertificate:
    """Run the covering pipeline until some chain quotient yields a
    transversal with defect < epsilon; every certificate is re-verifiable
    from its own data."""
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ContractError("epsilon must be positive")
    k = list(dict.fromkeys(k))
    if oracle.identity not in k:
        raise ContractError("K must contain the identity")
    if params is None:
        delta = pick_delta(len(k), epsilon)
        zeta = pick_zeta(delta, len(k), epsilon)
        params = ThetaParams(delta, zeta)
    t_cap = worst_case_height(params, len(k), epsilon)
    target = 1 - epsilon / (2 * len(k))

    if chain is None:
        chain = quotient_chain(oracle, chain_base)
    failures = []
    count = 0
    for level, omega in chain:
        count += 1
        if max_quotients is not None and count > max_quotients:
            break
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
    tower: list[list] = []
    b: set = set()
    nu, alpha = Fraction(0), Fraction(0)
    trace = []
    placements = []  # (usage index, center coset, carved coset set)
    for u in range(1, t_cap + 1):
        if alpha >= 1 or nu > target:
            break
        level_set = None
        for cand in _tower_candidates(oracle, omega, base):
            if len(cand) > n:
                continue
            if _level_ok(oracle, omega, cand, k, epsilon, params, tower):
                level_set = cand
                break
        if level_set is None:
            raise SearchFailedError(
                "tower construction exhausted its candidates (boundary, "
                "injectivity or almost-invariance constraint unmet)"
            )
        tower.append(level_set)
        res = greedy_fill(omega, b, level_set, k, params, nu, alpha)
        trace.append({
            "step": u,
            "level_size": len(level_set),
            "s": res.s,
            "mu": res.mu,
            "nu": res.nu_out,
            "alpha": res.alpha_out,
            "hypotheses_ok": res.hypotheses_ok,
            "hypothesis_failures": res.hypothesis_failures,
            "mu_at_least_delta": res.mu_at_least_delta,
            "coverage_identity_ok": res.coverage_identity_ok,
            "boundary_bound_ok": res.boundary_bound_ok,
            "maximality_ok": res.maximality_ok,
        })
        for center, tile in zip(res.centers, res.tiles):
            placements.append((u, center, tile))
        b = res.covered
        nu, alpha = res.nu_out, res.alpha_out
        if res.mu >= 1:
            break

    remainder_cosets = [c for c in omega.elements if c not in b]
    lifted_placements = []
    transversal = []
    for u, center, tile_cosets in placements:
        x = omega.section(center)
        piece = []
        for g in tower[u - 1]:
            elt = oracle.mul(x, g)
            if omega.act(center, g) in tile_cosets:
                piece.append(elt)
        lifted_placements.append((u, x, piece))
        transversal.extend(piece)
    remainder = [omega.section(c) for c in remainder_cosets]
    transversal.extend(remainder)

    # independent sanity of the construction before measuring the defect
    projected = [omega.project(g) for g in transversal]
    if len(set(projected)) != len(transversal) or len(transversal) != n:
        raise SearchFailedError("lift failed to be a bijective transversal")
    defect = set_defect(transversal, k, oracle)
    if defect >= epsilon:
        return None
    return TilingCertificate(
        group=oracle.name, quotient_name=omega.name, quotient_level=level,
        modulus=omega.m, omega_size=n, epsilon=epsilon, delta=params.delta, zeta=params.zeta,
        height_cap=t_cap, k=list(k), tower=tower, trace=trace,
        placements=lifted_placements, remainder=remainder,
        transversal=transversal, defect=defect,
    )


def verify_certificate(cert: TilingCertificate, oracle: GroupOracle,
                       omega: QuotientSet) -> tuple[dict, Fraction]:
    """Re-verify a certificate from its own data: the decomposition is
    disjoint, the projection restricted to the transversal is a bijection,
    and the defect recounts to the recorded value.  Returns the checks and
    the recounted defect."""
    pieces = [tuple(piece) for _, _, piece in cert.placements]
    flat = [g for piece in pieces for g in piece] + list(cert.remainder)
    disjoint = len(set(flat)) == len(flat)
    matches = sorted(map(repr, flat)) == sorted(map(repr, cert.transversal))
    projected = {omega.project(g) for g in cert.transversal}
    bijective = (len(projected) == len(cert.transversal) == omega.size())
    recount = set_defect(cert.transversal, cert.k, oracle)
    return {
        "disjoint_decomposition": disjoint,
        "decomposition_matches_transversal": matches,
        "projection_bijective": bijective,
        "defect_recount_matches": recount == cert.defect,
        "defect_below_epsilon": recount < cert.epsilon,
    }, recount
