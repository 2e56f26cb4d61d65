"""Augmentation-ideal filtrations and their cross-checks.

Pieces: finite group algebras over GF(p), each the whole group's ball at
lambda = 1; the Jennings series of any finite group, its dimension
subgroups mod p down to O^p(G), each term one semi-naive normal closure
of p-th powers and of commutators with the normal generators of the term
above, with the product-formula Hilbert coefficients that give the
ladder dimensions; the graded dims of groups with free abelian lower
central layers, such as Z^d and Heisenberg, as the Euler product of their
ranks; the descending ladder of augmentation-ideal powers and
its graded dimensions, read off that series as one flag basis: the
ideal of O^p(G), then the lifted Jennings monomials by descending
weight, checked independent by one elimination, from which any power is
built on demand; truncated Magnus valuations over GF(p) for free-group words;
graded dimensions of the free group algebra; Witt necklace ranks; ideal
generators in the style of Reidemeister-Schreier together with the
single-step growth bound, both read off one identity-last echelon form of
the ideal, as the complement F and its translates FS are spanned by group
elements, and the augmentation test that spots the units of a p-group
algebra, which generate no proper ideal; and growth reports with
Fekete-style estimates, as the JSON fields that `growth` prints.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import budgets
from .errors import ContractError, ResourceBudgetError
from .groups import GroupOracle, ball
from .scalars import check_prime
from .subspace import (BallAmbient, Subspace, echelon_insert, full_subspace,
                       pivot_columns, rank_mod_p, rref, span)

MAGNUS_DEFAULT_TRUNCATION = 12
MAGNUS_MAX_GENERATORS = 3


class FiniteGroupAlgebra(BallAmbient):
    """GF(p)-group algebra of a finite group: the ball of the whole group at
    lambda = 1, its basis in BFS order from the identity over the generator
    symbols, so the identity has index 0 and enumerations are reproducible."""

    def __init__(self, group: GroupOracle, prime: int, max_order: int | None = None):
        if group.order is None:
            raise ContractError(f"{group.name} has no finite enumeration")
        budgets.check_algebra_order(group.order, max_order)
        whole = ball(group, group.order)
        if len(whole) != group.order:
            raise ContractError(
                f"generators of {group.name} do not generate: reached "
                f"{len(whole)} of {group.order} elements"
            )
        super().__init__(group, whole, prime, lam=1)


def build_group_algebra(group: GroupOracle, p: int,
                        max_order: int | None = None) -> FiniteGroupAlgebra:
    return FiniteGroupAlgebra(group, p, max_order)


# ---------------------------------------------------------------------------
# the augmentation ladder


class LadderPowers(Sequence):
    """w^0, w^1, ... of a ladder as a read-only sequence, each power built
    when it is asked for: w^0 is the whole algebra, and w^n, n >= 1, is the
    span of the first dim w^n rows of the ladder's flag basis, put in its
    canonical echelon form.  A slice is the sequence of the chosen powers."""

    def __init__(self, alg: FiniteGroupAlgebra, flag: np.ndarray, dims: tuple):
        self._alg, self._flag, self._dims = alg, flag, dims

    def __len__(self) -> int:
        return len(self._dims)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return LadderPowers(self._alg, self._flag, self._dims[k])
        d = self._dims[k]
        if d == self._alg.dim:
            return full_subspace(self._alg)
        return Subspace(self._alg, self._flag[:d])


@dataclass(frozen=True)
class AugmentationLadder:
    algebra: FiniteGroupAlgebra
    power_dims: list[int]  # dim w^n for n = 0, 1, ..., ending at the first repeat
    powers: LadderPowers  # [R, w, w^2, ...], built on demand

    @property
    def graded_dims(self) -> list[int]:
        d = self.power_dims
        return [a - b for a, b in zip(d, d[1:])]


def aug_ladder(alg: FiniteGroupAlgebra) -> AugmentationLadder:
    """Powers of the augmentation ideal w until the first repeat, kept as
    one flag basis read off Jennings' basis.

    Let N = O^p(G) and I_N = w(kN) kG.  For n >= 1, w^n is I_N plus the span
    of the lifted Jennings monomials prod_j (g_j - 1)^(a_j), 0 <= a_j < p,
    of weight sum_j a_j wt(g_j) >= n, where the g_j lift bases of the layers
    of the p-central series of G down to N (Jennings 1941, Quillen 1968).
    So the flag is I_N's canonical rows, read off its cosets, then the
    monomials of weight >= 1 by descending weight: w^n is spanned by its
    first dim w^n rows, and a power's canonical rows are built only when
    `powers` is indexed.  One rank checks that the monomials are independent
    modulo I_N, the kernel of kG -> k[G/N], on their images in k[G/N] (else
    ContractError).  A ladder that could allocate more than
    budgets.LADDER_BYTES, counted from the order alone, raises
    ResourceBudgetError before the series is computed.
    """
    group, p, n = alg.oracle, alg.prime, alg.dim
    need = budgets.LADDER_BLOCKS * n * n * 8
    if need > budgets.LADDER_BYTES:
        raise ResourceBudgetError(
            f"augmentation ladder of {group.name} at p = {p} allocates up to {need} "
            f"bytes, over the ladder cap of {budgets.LADDER_BYTES}")
    series = jennings_series(group, p)
    bottom = series.subgroups[-1]
    coeffs = jennings_hilbert_coeffs(series.dims, p)
    stable = n - n // len(bottom)  # dim I_N
    # dim w^n is dim I_N plus the number of monomials of weight >= n, and
    # the ladder ends at the first repeat, I_N itself
    dims = [stable + t for t in np.cumsum(coeffs[::-1])[::-1].tolist()] + [stable]
    monomials, weights = _jennings_monomials(alg, _layer_lifts(alg, series.subgroups))
    flag = np.zeros((dims[1], n), dtype=np.int64)
    coset = _coset_differences(alg, bottom, flag[:stable])
    # the identity, the one monomial of weight 0, sorts last and is left out
    top_down = np.argsort(-weights, kind="stable")[:-1]
    flag[stable:] = monomials[top_down]
    del monomials  # freed before the check allocates its own blocks
    images = np.zeros((top_down.size, n - stable), dtype=np.int64)
    np.add.at(images.T, coset, flag[stable:].T)
    if rank_mod_p(images, p) != top_down.size:
        raise ContractError(f"lifted Jennings monomials of {group.name} at p = {p} "
                            "are dependent modulo the ideal of O^p(G)")
    flag.setflags(write=False)
    return AugmentationLadder(alg, dims, LadderPowers(alg, flag, tuple(dims)))


def _coset_differences(alg: FiniteGroupAlgebra, sub: frozenset,
                       rows: np.ndarray) -> np.ndarray:
    """Canonical echelon rows of w(kN) kG for a normal subgroup N: for each
    coset with basis indices i_1 < ... < i_m, the rows e_(i_j) - e_(i_m),
    j < m, all in pivot order.  They are written into `rows`, a zero array
    of dim w(kN) kG rows.  Returns each basis element's coset, numbered
    0, 1, ... by the last basis index in it."""
    n = alg.dim
    last = np.full(n, -1)  # the last basis index of each element's coset
    for i, g in enumerate(alg.labels):
        if last[i] < 0:
            coset = [alg.index[alg.oracle.mul(h, g)] for h in sub]
            last[coset] = max(coset)
    pivots = np.flatnonzero(last != np.arange(n))
    rows[np.arange(pivots.size), pivots] = 1
    rows[np.arange(pivots.size), last[pivots]] = alg.prime - 1
    return np.unique(last, return_inverse=True)[1]


def _layer_lifts(alg: FiniteGroupAlgebra, series: list[frozenset]) -> list[tuple]:
    """(g, i) for elements g of H_i lifting a basis of each layer H_i/H_(i+1)
    of a p-central series, the first such elements in basis order."""
    p = alg.prime
    lifts = []
    for i, (layer, below) in enumerate(zip(series, series[1:])):
        covered = set(below)
        for g in alg.labels:
            if len(covered) == len(layer):
                break
            if g in layer and g not in covered:
                lifts.append((g, i + 1))
                step = covered
                for _ in range(p - 1):  # covered <- covered <g>, as g^p lies below
                    step = {alg.oracle.mul(x, g) for x in step}
                    covered |= step
    return lifts


def _jennings_monomials(alg: FiniteGroupAlgebra, lifts: list[tuple]):
    """Rows of the products prod_j (g_j - 1)^(a_j), 0 <= a_j < p, in the
    order of the lifts, and their weights sum_j a_j wt(g_j); each block of
    them is one translate_rows step from the block before."""
    p = alg.prime
    rows = np.zeros((1, alg.dim), dtype=np.int64)
    rows[0, 0] = 1  # the identity
    weights = np.zeros(1, dtype=np.int64)
    for g, w in lifts:
        blocks = [rows]
        for _ in range(p - 1):
            blocks.append((alg.translate_rows(blocks[-1], g) - blocks[-1]) % p)
        rows = np.vstack(blocks)
        weights = np.concatenate([weights + a * w for a in range(p)])
    return rows, weights


# ---------------------------------------------------------------------------
# Jennings series of a finite group, down to O^p(G)


@dataclass(frozen=True)
class JenningsSeries:
    group: GroupOracle
    prime: int
    subgroups: list[frozenset]
    dims: list[int]  # dims[i] is the i+1-st graded dimension; inner zeros kept


def _normal_closure(group: GroupOracle, seeds) -> tuple[frozenset, list]:
    """The normal closure of the seeds in a finite group, and generators of
    it as a subgroup, each a seed or a conjugate of one, so they are also
    its normal generators.

    The subgroup is grown one generator at a time, by right multiplication
    (in a finite group the positive words in the generators are the whole
    subgroup), semi-naively: the old members are closed under the old
    generators, so a new generator multiplies each of them once, and only
    the elements that this adds meet every generator.  Each generator's
    conjugates by the group generators are queued as seeds, so when the
    queue empties the subgroup is normal."""
    conj = list(group.generators.values())
    members = {group.identity}
    gens = []
    pending = list(seeds)
    while pending:
        t = pending.pop()
        if t in members:
            continue
        gens.append(t)
        frontier = [h for h in (group.mul(g, t) for g in members) if h not in members]
        while frontier:
            members.update(frontier)
            nxt = []
            for g in frontier:
                for u in gens:
                    h = group.mul(g, u)
                    if h not in members:
                        members.add(h)
                        nxt.append(h)
            frontier = nxt
        pending.extend(group.mul(group.inv(c), group.mul(t, c)) for c in conj)
    return frozenset(members), gens


def p_residual(group: GroupOracle, p: int) -> frozenset:
    """O^p(G), the smallest normal subgroup of a finite group with a p-group
    quotient: the normal closure of the powers g^(p^a), p^a the p-part of
    |G|, which are exactly the elements of order prime to p.  A p-group
    has none but the identity."""
    check_prime(p)
    q = 1
    while group.order % (q * p) == 0:
        q *= p
    if q == group.order:
        return frozenset([group.identity])
    return _normal_closure(group, dict.fromkeys(_pow(group, g, q) for g in group.elements()))[0]


def _p_central_series(group: GroupOracle, p: int, bottom: frozenset) -> list[frozenset]:
    """H_1 = G > H_2 > ... down to `bottom`, a normal subgroup with a p-group
    quotient: H_n is the normal closure of the commutators [a, c], a in
    H_(n-1) and c a generator, the p-th powers of H_(ceil(n/p)) and the
    elements of `bottom`, so the series lifts the Jennings series of
    G/bottom.

    Only the normal generators of H_(n-1) enter the commutators (for G its
    generators, else those that _normal_closure returned), which gives the
    same H_n: modulo the normal closure N of their commutators with the
    generators, each normal generator is central, so the subgroup that they
    normally generate, H_(n-1), is central mod N, and N holds every [a, c],
    a in H_(n-1).  The p-th powers are still taken of every element of
    H_(ceil(n/p)).

    H_n repeats H_(n-1) without a closure when both of its inputs repeat.
    Once a term repeats and its p-th-power input is that same subgroup,
    every later term is that subgroup too; if it is still above `bottom`,
    the series never reaches it and ContractError is raised."""
    conj = list(group.generators.values())
    series = [frozenset(group.elements())]
    spans = conj  # normal generators of the last term
    while len(series[-1]) > len(bottom):
        n = len(series) + 1  # constructing H_n
        powered = series[(n + p - 1) // p - 1]
        if n > 2 and series[-1] is series[-2] and powered is series[(n + p - 2) // p - 1]:
            series.append(series[-1])
            continue
        comms = [group.mul(group.inv(a), group.mul(group.inv(c), group.mul(a, c)))
                 for a in spans for c in conj]
        pth = [_pow(group, g, p) for g in powered]
        nxt, spans = _normal_closure(group, comms + pth + list(bottom))
        if nxt == series[-1]:
            if powered is series[-1]:
                raise ContractError(
                    f"p-central series of {group.name} at p = {p} stops above its bottom")
            nxt = series[-1]
        series.append(nxt)
    return series


def _layer_dims(series: list[frozenset], p: int) -> list[int]:
    """log_p of each layer's order, trailing zeros dropped; every layer of a
    p-central series is elementary abelian."""
    dims = []
    for i in range(len(series) - 1):
        ratio = len(series[i]) // len(series[i + 1])
        d = round(math.log(ratio, p))
        if p**d != ratio:
            raise ContractError("quotient is not elementary abelian of p-power size")
        dims.append(d)
    while dims and dims[-1] == 0:
        dims.pop()
    return dims


def jennings_series(group: GroupOracle, p: int) -> JenningsSeries:
    """Fastest descending series with G_n = [G_{n-1}, G] (G_{ceil(n/p)})^p
    O^p(G), the dimension subgroups mod p of a finite group.

    Each G_n is the normal closure of the commutators [a, c], a a normal
    generator of G_{n-1} (which suffices: _p_central_series) and c a
    generator, the p-th powers of G_{ceil(n/p)} and O^p(G).  Each quotient
    is elementary abelian; the series ends at O^p(G), which is G itself
    (dims []) when p does not divide |G|.
    """
    if group.order is None:
        raise ContractError("need a finite group")
    check_prime(p)
    series = _p_central_series(group, p, p_residual(group, p))
    return JenningsSeries(group, p, series, _layer_dims(series, p))


def _pow(group: GroupOracle, g, e: int):
    """g^e by repeated squaring."""
    out = group.identity
    while e:
        if e & 1:
            out = group.mul(out, g)
        e >>= 1
        if e:
            g = group.mul(g, g)
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
    b_terms = [(j, bj) for j, bj in enumerate(b) if bj]
    for i, ai in enumerate(a):
        if ai == 0 or i > max_deg:
            continue
        for j, bj in b_terms:
            if i + j <= max_deg:
                out[i + j] += ai * bj
    return out


def graded_dims_via_jennings(group: GroupOracle, p: int) -> list[int]:
    """Ladder dimensions of GF(p)G for a finite group G, by the Jennings
    series: those of GF(p)[G/O^p(G)].

    The product formula reproduces aug_ladder exactly (tested) with no
    dense algebra, so it reaches orders past the ladder's byte cap."""
    series = jennings_series(group, p)
    return jennings_hilbert_coeffs(series.dims, p)


def group_graded_dims(oracle: GroupOracle, m: int, p: int,
                      max_order: int | None = None) -> list[int]:
    """Graded dims of GF(p)G below degree m_p, the largest power of p dividing
    m, for G with free abelian lower central layers of ranks r_i: prod_i
    (1 - t^i)^(-r_i), to which the Jennings-Quillen product over Lazard's D_n
    telescopes (Lazard 1954, Quillen 1968).  Checked in the order modulus,
    ranks, cap on m^(sum r_i) (the level-m quotient's order), prime."""
    if m < 2:
        raise ContractError(f"modulus must be >= 2, got {m}")
    ranks = oracle.lower_central_ranks
    if ranks is None:
        raise ContractError(f"no lower central ranks built in for {oracle.name}")
    budgets.check_algebra_order(m ** sum(ranks), max_order)
    check_prime(p)
    dims = [1] + [0] * (math.gcd(m, p ** m.bit_length()) - 1)  # below degree m_p
    for i, r in enumerate(ranks, 1):
        for _ in range(r):  # times 1 / (1 - t^i)
            for n in range(i, len(dims)):
                dims[n] += dims[n - i]
    return dims


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
    check_prime(p)
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
    """Echelon rows of I, computed with the identity coordinate ordered
    last, so the echelon complement automatically contains 1 (unless 1 lies
    in I); returns their pivots and the rows, both in the basis order."""
    n = i_sub.ambient.dim
    perm = np.array(list(range(1, n)) + [0])
    rows = rref(i_sub.rows[:, perm], i_sub.ambient.prime)
    return perm[pivot_columns(rows)], rows[:, np.argsort(perm)]


def is_right_ideal(alg: FiniteGroupAlgebra, i_sub: Subspace) -> bool:
    return all(i_sub.contains_vector(alg.translate_rows(i_sub.rows, s))
               for s in alg.oracle.generators.values())


@functools.lru_cache(maxsize=1)
def _unital_complement(alg: FiniteGroupAlgebra, i_sub: Subspace):
    """Checks that I is a right ideal of alg without 1; returns the basis
    indices of its echelon complement F, in identity-last order, and the
    identity-last echelon row of I at each pivot index.  The last answer is
    kept: rs-check asks twice about each ideal."""
    if i_sub.ambient is not alg:
        raise ContractError("ideal must live in the given group algebra")
    if not is_right_ideal(alg, i_sub):
        raise ContractError("subspace is not a right ideal")
    pivots, rows = _identity_last_echelon(i_sub)
    rows.setflags(write=False)  # kept in the cache and handed to every caller
    row_at = dict(zip(pivots.tolist(), rows))
    if 0 in row_at:  # the identity coordinate is a pivot
        raise ContractError("1 lies in the ideal: no unital complement")
    return [j for j in range(1, alg.dim) if j not in row_at] + [0], row_at


def _products(alg: FiniteGroupAlgebra, complement: list, s_elements: list) -> list[int]:
    """Basis index of f s for each f in F and each s in turn, f-major."""
    mul, labels, index = alg.oracle.mul, alg.labels, alg.index
    return [index[mul(labels[f], s)] for f in complement for s in s_elements]


def rs_generators(alg: FiniteGroupAlgebra, i_sub: Subspace, s_elements: list) -> list[np.ndarray]:
    """Generators {f s - proj_F(f s)} of the right ideal I, where F is the
    echelon complement of I containing 1 and proj_F projects along I.

    F is spanned by basis elements, so each f s is a basis element: either
    it lies in F and gives 0, or it is the pivot of exactly one
    identity-last echelon row of I, which is f s - proj_F(f s)."""
    complement, row_at = _unital_complement(alg, i_sub)
    return [row_at[j] for j in _products(alg, complement, s_elements) if j in row_at]


def is_augmentation_unit(alg: FiniteGroupAlgebra, vector) -> bool:
    """Whether v * kG = kG follows from v's augmentation alone, with no
    elimination: when |G| is a power of p, kG is local with maximal ideal
    the augmentation ideal, so v is a unit iff eps(v), the sum of its
    coefficients, is nonzero mod p (Passman 1977).  Always False for other
    groups: there, and for the other vectors, right_ideal_closure decides."""
    p, n = alg.prime, alg.dim
    while n % p == 0:
        n //= p
    return n == 1 and sum(vector) % p != 0


def right_ideal_closure(alg: FiniteGroupAlgebra, vectors) -> Subspace:
    """Smallest right ideal containing the given vectors, semi-naively: each
    round translates by the generators only the rows E_k that the last round
    added, S_(k+1) = S_k + E_k * gens, until a round adds none.  A single
    vector that is_augmentation_unit accepts gives the whole algebra, which
    rs-check skips without calling this."""
    rows = fresh = span(alg, list(vectors)).rows
    gens = alg.oracle.generators.values()
    while fresh.shape[0]:
        moved = np.vstack([fresh[:0]] + [alg.translate_rows(fresh, s) for s in gens])
        rows, fresh = echelon_insert(rows, moved, alg.prime)
    return Subspace(alg, rows, _canonical=True)


def rs_step_bound(alg: FiniteGroupAlgebra, i_sub: Subspace,
                  s_elements: list) -> tuple[bool, int, int]:
    """Check dim(I / I w) <= dim((F + FS) cap I); returns (holds, lhs, rhs).

    F + FS is spanned by the basis elements C = F u FS, so its meet with I
    is the kernel of I's projection onto the other coordinates, of
    dimension rank I - rank(I's rows outside C)."""
    p = alg.prime
    complement = _unital_complement(alg, i_sub)[0]
    # I*w is spanned by I*(s-1) over the generators
    i_w = Subspace(alg, np.vstack([i_sub.rows[:0]] + [
        (alg.translate_rows(i_sub.rows, s) - i_sub.rows) % p
        for s in alg.oracle.generators.values()]))
    lhs = i_sub.rank - i_w.rank
    covered = set(complement).union(_products(alg, complement, s_elements))
    outside = [j for j in range(alg.dim) if j not in covered]
    rhs = i_sub.rank - rank_mod_p(i_sub.rows[:, outside], p)
    return lhs <= rhs, lhs, rhs


# ---------------------------------------------------------------------------
# growth reporting


def growth_report(dims: list[int]) -> dict:
    """Summarize a graded-dimension sequence as the fields `growth --format
    json` prints, floats rounded to 12 places: n-th roots, the Fekete-style
    upper estimate min_n r_n^(1/n) and the largest n attaining it, a crude
    polynomial-degree fit, and all submultiplicativity violations
    r_m r_n < r_{m+n} (none are expected for graded dimensions of a
    group-algebra filtration)."""
    if not dims or dims[0] <= 0:
        raise ContractError("dims must start with a positive value")
    roots = []
    for n in range(1, len(dims)):
        if dims[n] <= 0:
            break
        roots.append(dims[n] ** (1.0 / n))
    best = min(roots, default=1.0)
    argmin = max((n for n, r in enumerate(roots, 1) if r == best), default=0)
    top = len(dims) - 1
    violations = [(m, n) for m in range(1, top + 1) for n in range(m, top + 1 - m)
                  if dims[m] * dims[n] < dims[m + n]]
    fit = None
    pts = [(math.log(n), math.log(dims[n]))
           for n in range(2, len(dims)) if dims[n] > 0]
    if len(pts) >= 2:
        xbar = sum(x for x, _ in pts) / len(pts)
        ybar = sum(y for _, y in pts) / len(pts)
        den = sum((x - xbar) ** 2 for x, _ in pts)
        fit = sum((x - xbar) * (y - ybar) for x, y in pts) / den if den else None
    return {"nth_roots": [round(r, 12) for r in roots],
            "fekete_estimate": round(best, 12),
            "fekete_argmin": argmin,
            "poly_degree_fit": None if fit is None else round(fit, 12),
            "submultiplicativity_violations": violations}
