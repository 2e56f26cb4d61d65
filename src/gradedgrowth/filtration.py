"""Augmentation-ideal filtrations and their cross-checks.

Pieces: finite group algebras over GF(p) with exact structure tables; the
descending ladder of augmentation-ideal powers and its graded dimensions;
the fastest-descending p-central (Jennings) series of a finite p-group, each
term one normal closure, with the product-formula Hilbert coefficients that
reproduce the ladder dimensions, also on the p-parts of congruence quotients
of infinite groups;
truncated Magnus valuations over GF(p) for free-group words;
graded dimensions of the free group algebra; Witt necklace ranks; ideal
generators in the style of Reidemeister-Schreier together with the
single-step growth bound; and growth reports with Fekete-style estimates.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import budgets
from .errors import ContractError, ResourceBudgetError
from .groups import GroupOracle, ball
from .scalars import check_prime
from .subspace import (Ambient, Subspace, full_subspace, intersect, pivot_columns,
                       rank_mod_p, rref, span)
from .tiling import congruence_quotient

MAGNUS_DEFAULT_TRUNCATION = 12
MAGNUS_MAX_GENERATORS = 3


class FiniteGroupAlgebra(Ambient):
    """GF(p)-group algebra of a finite group, with exact right translations.

    Basis enumeration is BFS order from the identity over the generator
    symbols, so the identity has index 0 and enumerations are reproducible.
    """

    def __init__(self, group: GroupOracle, prime: int, max_order: int | None = None):
        if group.order is None:
            raise ContractError(f"{group.name} has no finite enumeration")
        _check_algebra_order(group.order, max_order)
        labels = ball(group, group.order).elements
        if len(labels) != group.order:
            raise ContractError(
                f"generators of {group.name} do not generate: reached "
                f"{len(labels)} of {group.order} elements"
            )
        super().__init__(labels, prime)
        self.group = group

    def translation(self, h):
        """Right multiplication by h permutes the basis with unit
        coefficients: src[j] is the index of label_j * h^-1."""
        h_inv = self.group.inv(h)
        src = np.array([self.index[self.group.mul(g, h_inv)] for g in self.labels],
                       dtype=np.int64)
        return src, None, src[:0]

    def generator_elements(self) -> list:
        return list(self.group.generators.values())


def build_group_algebra(group: GroupOracle, p: int,
                        max_order: int | None = None) -> FiniteGroupAlgebra:
    return FiniteGroupAlgebra(group, p, max_order)


def _check_algebra_order(order: int, max_order: int | None) -> None:
    cap = budgets.algebra_cap(max_order)
    if order > cap:
        raise ResourceBudgetError(f"group order {order} exceeds algebra cap {cap}")


# ---------------------------------------------------------------------------
# the augmentation ladder


@dataclass(frozen=True)
class AugmentationLadder:
    algebra: FiniteGroupAlgebra
    powers: list  # [R, w, w^2, ...] ending at the first stabilized power
    graded_dims: list[int]
    stabilized_dim: int  # 0 for p-groups; the stable ideal dimension otherwise

    @property
    def terminates_at_zero(self) -> bool:
        return self.stabilized_dim == 0


def aug_ladder(alg: FiniteGroupAlgebra) -> AugmentationLadder:
    """Powers of the augmentation ideal until the first repeat.

    w = span{g - 1}; each next power is spanned by the previous one
    right-multiplied by the generators' (s - 1), which generate w as a
    right ideal over a monoid-generating set.
    """
    n = alg.dim
    p = alg.prime
    full = full_subspace(alg)
    aug_rows = np.zeros((n - 1, n), dtype=np.int64)
    for i in range(1, n):
        aug_rows[i - 1, i] = 1
        aug_rows[i - 1, 0] = p - 1
    power = Subspace(alg, aug_rows)
    powers = [full, power]
    gens = alg.generator_elements()
    while True:
        prev = powers[-1]
        nxt = Subspace(alg, _times_generators_minus_one(alg, prev.rows, gens))
        if nxt.rank == prev.rank:
            break
        powers.append(nxt)
    dims = [s.rank for s in powers]
    graded = [dims[i] - dims[i + 1] for i in range(len(dims) - 1)]
    return AugmentationLadder(alg, powers, graded, dims[-1])


def _times_generators_minus_one(alg: FiniteGroupAlgebra, rows: np.ndarray,
                                gens: list) -> np.ndarray:
    """The blocks rows * (s - 1) over the generators s, stacked; for a right
    ideal they span its product with the augmentation ideal."""
    blocks = [(alg.translate_rows(rows, s) - rows) % alg.prime for s in gens]
    return np.vstack(blocks) if blocks else rows[:0]


# ---------------------------------------------------------------------------
# Jennings series of a finite p-group


@dataclass(frozen=True)
class JenningsSeries:
    group: GroupOracle
    prime: int
    subgroups: list[frozenset]
    dims: list[int]  # dims[i] is the i+1-st graded dimension; inner zeros kept


def _normal_subgroup(group: GroupOracle, seeds) -> frozenset:
    """The normal closure of the seeds in a finite group.

    The subgroup is grown one generator at a time, by right multiplication
    (in a finite group the positive words in the generators are the whole
    subgroup).  Each generator's conjugates by the group generators are
    queued as seeds, so when the queue empties the subgroup is normal."""
    conj = list(group.generators.values())
    members = {group.identity}
    gens = []
    pending = list(seeds)
    while pending:
        t = pending.pop()
        if t in members:
            continue
        gens.append(t)
        frontier = list(members)
        while frontier:
            nxt = []
            for g in frontier:
                for u in gens:
                    h = group.mul(g, u)
                    if h not in members:
                        members.add(h)
                        nxt.append(h)
            frontier = nxt
        pending.extend(group.mul(group.inv(c), group.mul(t, c)) for c in conj)
    return frozenset(members)


def jennings_series(group: GroupOracle, p: int) -> JenningsSeries:
    """Fastest descending series with G_n = [G_{n-1}, G] * (G_{ceil(n/p)})^p.

    Each G_n is the normal closure of the commutators [a, c], a in G_{n-1}
    and c a generator, together with the p-th powers of G_{ceil(n/p)}.
    Each quotient is elementary abelian; the series reaches the trivial
    subgroup because the group is a finite p-group.
    """
    if group.order is None:
        raise ContractError("need a finite group")
    order = group.order
    k = 0
    while order % p == 0:
        order //= p
        k += 1
    if order != 1:
        raise ContractError(f"{group.name} order is not a power of {p}")

    conj = list(group.generators.values())
    series = [frozenset(group.elements())]
    while len(series[-1]) > 1:
        n = len(series) + 1  # constructing G_n
        comms = [group.mul(group.inv(a), group.mul(group.inv(c), group.mul(a, c)))
                 for a in series[-1] for c in conj]
        pth = [_pow(group, g, p) for g in series[(n + p - 1) // p - 1]]
        series.append(_normal_subgroup(group, comms + pth))
    dims = []
    for i in range(len(series) - 1):
        ratio = len(series[i]) // len(series[i + 1])
        d = round(math.log(ratio, p))
        if p**d != ratio:
            raise ContractError("quotient is not elementary abelian of p-power size")
        dims.append(d)
    while dims and dims[-1] == 0:
        dims.pop()
    return JenningsSeries(group, p, series, dims)


def _pow(group: GroupOracle, g, e: int):
    out = group.identity
    for _ in range(e):
        out = group.mul(out, g)
    return out


def jennings_hilbert_coeffs(dims: list[int], p: int,
                            max_deg: int | None = None) -> list[int]:
    """Coefficients of prod_n ((1 - t^{pn}) / (1 - t^n))^{d_n}.

    Each factor is the finite geometric sum 1 + t^n + ... + t^{(p-1)n}, so
    the product is an honest polynomial with integer coefficients.
    """
    top = sum((p - 1) * (i + 1) * d for i, d in enumerate(dims))
    if max_deg is None:
        max_deg = top
    poly = [1]
    for i, d in enumerate(dims):
        n = i + 1
        factor = [0] * ((p - 1) * n + 1)
        for j in range(p):
            factor[j * n] = 1
        for _ in range(d):
            poly = _poly_mul(poly, factor, max_deg)
    return poly


def _poly_mul(a: list[int], b: list[int], max_deg: int) -> list[int]:
    out = [0] * (min(len(a) + len(b) - 1, max_deg + 1))
    for i, ai in enumerate(a):
        if ai == 0 or i > max_deg:
            continue
        for j, bj in enumerate(b):
            if bj and i + j <= max_deg:
                out[i + j] += ai * bj
    return out


def graded_dims_via_jennings(group: GroupOracle, p: int) -> list[int]:
    """Ladder dimensions of GF(p)G for a p-group G, by the Jennings series.

    The product formula reproduces aug_ladder exactly on every small built-in
    p-group (tested); with no dense algebra, it is how growth on infinite
    groups gets its dims (congruence_graded_dims)."""
    series = jennings_series(group, p)
    return jennings_hilbert_coeffs(series.dims, p)


def congruence_graded_dims(oracle: GroupOracle, m: int, p: int,
                           max_order: int | None = None) -> list[int]:
    """Graded dims of GF(p)Q for the level-m congruence quotient Q, (Z/m)^d or
    Heisenberg over Z/m, checked like build_group_algebra: modulus, cap, prime.
    Q = P x R with P the same group over Z/m_p and #R prime to p; the
    augmentation ideal of GF(p)R is idempotent, so only P counts."""
    _check_algebra_order(congruence_quotient(oracle, m).size(), max_order)
    check_prime(p)
    m_p = math.gcd(m, p ** m.bit_length())  # the largest power of p dividing m
    return ([1] if m_p == 1 else
            graded_dims_via_jennings(congruence_quotient(oracle, m_p).finite, p))


# ---------------------------------------------------------------------------
# truncated Magnus expansion over GF(p)


def _magnus_letter(i: int, sign: int, p: int, trunc: int) -> dict:
    """Series of x_i (sign +1) or x_i^{-1} (sign -1) under x_i -> 1 + x_i."""
    if sign > 0:
        return {(): 1, (i,): 1}
    out = {}
    c = 1
    for d in range(trunc + 1):
        out[(i,) * d] = c % p
        c = -c
    return out


def _series_mul(a: dict, b: dict, p: int, trunc: int) -> dict:
    out: dict = {}
    for ma, ca in a.items():
        if ca == 0:
            continue
        room = trunc - len(ma)
        for mb, cb in b.items():
            if len(mb) > room or cb == 0:
                continue
            m = ma + mb
            v = (out.get(m, 0) + ca * cb) % p
            if v:
                out[m] = v
            elif m in out:
                del out[m]
    return out


def parse_free_word(word: str) -> list[tuple[int, int]]:
    """Word over letters x, y, z (uppercase = inverse) as (index, sign) pairs."""
    letters = {"x": 1, "y": 2, "z": 3}
    out = []
    for c in word:
        low = c.lower()
        if low not in letters:
            raise ContractError(f"free words use letters x, y, z only; got {c!r}")
        out.append((letters[low], 1 if c.islower() else -1))
    return out


def magnus_series(word: str, p: int, trunc: int = MAGNUS_DEFAULT_TRUNCATION) -> dict:
    pairs = parse_free_word(word)
    ks = {i for i, _ in pairs}
    if any(i > MAGNUS_MAX_GENERATORS for i in ks):
        raise ContractError("at most 3 free generators supported")
    est = (max(ks, default=1)) ** (trunc + 1)
    if est > 80_000_000:
        raise ResourceBudgetError("Magnus truncation too large for this rank")
    out = {(): 1}
    for i, sign in pairs:
        out = _series_mul(out, _magnus_letter(i, sign, p, trunc), p, trunc)
    return out


def magnus_deg(word: str, p: int, trunc: int = MAGNUS_DEFAULT_TRUNCATION) -> int | None:
    """Least degree >= 1 with a nonzero coefficient in (image - 1), or None
    when every coefficient vanishes up to the truncation ("greater than D")."""
    series = magnus_series(word, p, trunc)
    degs = [len(m) for m in series if m and series[m] % p]
    return min(degs) if degs else None


def free_graded_dims(k: int, n_max: int, p: int,
                     trunc: int | None = None) -> list[int]:
    """Graded dimensions of the free group algebra's filtration, by ranking
    homogeneous parts of Magnus images of the k^n spanning products."""
    if k < 1:
        raise ContractError("need k >= 1")
    if trunc is None:
        trunc = n_max + 1
    if trunc < n_max:
        raise ContractError("truncation must be at least n_max")
    if k**max(n_max, 1) > 2_000_000:
        raise ResourceBudgetError("rank computation too large")
    letters = [_magnus_letter(i + 1, 1, p, trunc) for i in range(k)]
    deltas = []
    for series in letters:
        d = dict(series)
        d[()] = (d.get((), 0) - 1) % p
        if d[()] == 0:
            del d[()]
        deltas.append(d)

    dims = [1]
    products = [{(): 1}]
    for n in range(1, n_max + 1):
        products = [_series_mul(prod, d, p, trunc)
                    for prod in products for d in deltas]
        monomials = sorted({m for prod in products for m in prod if len(m) == n})
        col = {m: j for j, m in enumerate(monomials)}
        mat = np.zeros((len(products), len(monomials)), dtype=np.int64)
        for i, prod in enumerate(products):
            for m, c in prod.items():
                if len(m) == n:
                    mat[i, col[m]] = c % p
        dims.append(rank_mod_p(mat, p))
    return dims


# ---------------------------------------------------------------------------
# Witt necklace ranks


def witt_ranks(k: int, n_max: int) -> list[int]:
    """(1/n) sum_{d | n} mu(d) k^{n/d} for n = 1..n_max."""
    if k < 2:
        raise ContractError("need k >= 2")
    out = []
    for n in range(1, n_max + 1):
        total = sum(_mobius(d) * k ** (n // d) for d in range(1, n + 1) if n % d == 0)
        if total % n:
            raise ContractError("necklace count failed to divide evenly")
        out.append(total // n)
    return out


def _mobius(n: int) -> int:
    """Moebius function by trial division: 0 unless n is squarefree, else
    (-1) to the number of its prime factors."""
    mu = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            mu = -mu
        d += 1
    return -mu if n > 1 else mu


# ---------------------------------------------------------------------------
# ideal generators from a complement (Reidemeister-Schreier style)


def _identity_last_echelon(i_sub: Subspace):
    """Echelon data for I with the identity coordinate ordered last, so the
    echelon complement automatically contains 1 (unless 1 lies in I)."""
    amb = i_sub.ambient
    n = amb.dim
    perm = list(range(1, n)) + [0]
    inv_perm = np.argsort(perm)
    rows = rref(i_sub.rows[:, perm], amb.prime)
    return perm, inv_perm, rows, pivot_columns(rows)


def _project_to_complement(vecs, perm, inv_perm, rows, pivots, p):
    """Remainders of the vectors (one per row) after elimination against the
    identity-last echelon rows, in one product as in Subspace.reduce_vector."""
    w = vecs[:, perm] % p
    return ((w - w[:, pivots] @ rows) % p)[:, inv_perm]


def is_right_ideal(alg: FiniteGroupAlgebra, i_sub: Subspace) -> bool:
    return all(i_sub.contains_vector(alg.translate_rows(i_sub.rows, s))
               for s in alg.generator_elements())


@functools.lru_cache(maxsize=1)
def _unital_complement(alg: FiniteGroupAlgebra, i_sub: Subspace):
    """Checks that I is a right ideal of alg without 1; returns its identity-
    last echelon data and the unit rows spanning its echelon complement F.
    The last answer is kept: rs-check asks twice about each ideal."""
    if i_sub.ambient is not alg:
        raise ContractError("ideal must live in the given group algebra")
    if not is_right_ideal(alg, i_sub):
        raise ContractError("subspace is not a right ideal")
    perm, inv_perm, rows, pivots = _identity_last_echelon(i_sub)
    pivot_set = set(pivots.tolist())
    if alg.dim - 1 in pivot_set:  # the identity coordinate is a pivot row
        raise ContractError("1 lies in the ideal: no unital complement")
    complement = [perm[j] for j in range(alg.dim) if j not in pivot_set]
    return perm, inv_perm, rows, pivots, np.eye(alg.dim, dtype=np.int64)[complement]


def rs_generators(alg: FiniteGroupAlgebra, i_sub: Subspace, s_elements: list) -> list[np.ndarray]:
    """Generators {f s - proj_F(f s)} of the right ideal I, where F is the
    echelon complement of I containing 1 and proj_F projects along I."""
    perm, inv_perm, rows, pivots, units = _unital_complement(alg, i_sub)
    moved = [alg.translate_rows(units, s) for s in s_elements]
    # coordinate-major: f s for each s in turn, then the next f
    vecs = np.stack(moved, axis=1).reshape(-1, alg.dim) if moved else units[:0]
    p = alg.prime
    gens = (vecs - _project_to_complement(vecs, perm, inv_perm, rows, pivots, p)) % p
    return [gen for gen in gens if np.any(gen)]


def right_ideal_closure(alg: FiniteGroupAlgebra, vectors) -> Subspace:
    """Smallest right ideal containing the given vectors."""
    current = span(alg, list(vectors))
    gens = alg.generator_elements()
    while True:
        grown = _plus_translates(alg, current.rows, gens)
        if grown.rank == current.rank:
            return grown
        current = grown


def _plus_translates(alg: FiniteGroupAlgebra, rows: np.ndarray, elements: list) -> Subspace:
    """Span of the rows together with every row times each element."""
    return Subspace(alg, np.vstack([rows] + [alg.translate_rows(rows, s) for s in elements]))


def rs_step_bound(alg: FiniteGroupAlgebra, i_sub: Subspace,
                  s_elements: list) -> tuple[bool, int, int]:
    """Check dim(I / I w) <= dim((F + FS) cap I); returns (holds, lhs, rhs)."""
    f_rows = _unital_complement(alg, i_sub)[-1]
    # I*w is spanned by I*(s-1) over the generators
    i_w = Subspace(alg, _times_generators_minus_one(alg, i_sub.rows, alg.generator_elements()))
    lhs = i_sub.rank - i_w.rank
    grown = _plus_translates(alg, f_rows, s_elements)
    rhs = intersect(grown, i_sub).rank
    return lhs <= rhs, lhs, rhs


# ---------------------------------------------------------------------------
# growth reporting


@dataclass(frozen=True)
class GrowthReport:
    dims: list[int]
    nth_roots: list[float]  # r_n^(1/n) for n >= 1
    fekete_estimate: float  # min of the roots over the computed range
    fekete_argmin: int  # largest n attaining the minimum
    poly_degree_fit: float | None
    submultiplicativity_violations: list[tuple[int, int]]

    def rows(self) -> list[tuple[int, int, float]]:
        return [(n, self.dims[n], self.nth_roots[n - 1])
                for n in range(1, len(self.dims))]


def growth_report(dims: list[int]) -> GrowthReport:
    """Summarize a graded-dimension sequence: n-th roots, the Fekete-style
    upper estimate min_n r_n^(1/n), a crude polynomial-degree fit, and all
    submultiplicativity violations r_m r_n < r_{m+n} (none are expected for
    graded dimensions of a group-algebra filtration)."""
    if not dims or dims[0] <= 0:
        raise ContractError("dims must start with a positive value")
    roots = []
    best = None
    argmin = 0
    for n in range(1, len(dims)):
        if dims[n] <= 0:
            break
        root = dims[n] ** (1.0 / n)
        roots.append(root)
        if best is None or root <= best:
            best = root
            argmin = n
    violations = []
    top = len(dims) - 1
    for m in range(1, top + 1):
        for n in range(m, top + 1 - m):
            if dims[m] * dims[n] < dims[m + n]:
                violations.append((m, n))
    fit = None
    pts = [(math.log(n), math.log(dims[n]))
           for n in range(2, len(dims)) if dims[n] > 0]
    if len(pts) >= 2:
        xs = [x for x, _ in pts]
        ys = [y for _, y in pts]
        xbar = sum(xs) / len(xs)
        ybar = sum(ys) / len(ys)
        den = sum((x - xbar) ** 2 for x in xs)
        fit = sum((x - xbar) * (y - ybar) for x, y in pts) / den if den else None
    return GrowthReport(list(dims), roots, best if best is not None else 1.0,
                        argmin, fit, violations)


def quotient_agreement_dims(ladders: list[list[int]]) -> list[int]:
    """Common prefix of graded dims across consecutive quotient levels; the
    stabilization horizon below which the finite quotients already tell the
    truth about the infinite group."""
    if not ladders:
        return []
    prefix = []
    for vals in zip(*ladders):
        if all(v == vals[0] for v in vals):
            prefix.append(vals[0])
        else:
            break
    return prefix
