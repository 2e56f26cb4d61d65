"""Exact subspace arithmetic over GF(p) inside a slice of a group algebra.

A Subspace is stored as a canonical reduced row-echelon basis (pivots 1,
columns cleared above and below, pivot columns strictly increasing) over a
fixed ambient enumeration, so two equal subspaces have identical rows.  The
one ambient, ``BallAmbient``, is a word-metric ball as a basis, carrying the
deformed (lambda-twisted) product, plus one right-multiplication table per
basis element h, built once by one builder; a finite group algebra is the
whole group's ball at lambda = 1.  One kernel, ``BallAmbient.translate_rows``,
moves a block of rows by such a table; every product (``apply_right``,
``right_multiply``, the Jennings monomials and ideal steps of
``filtration``) is built on it.

Echelon forms come from one engine, ``rref``, with two inner loops that
return the same canonical int64 matrix:

- p = 2: rows are packed 64 columns to a uint64 word; each step finds the
  next pivot column with one OR over the remaining rows and clears it with
  one XOR over the rows that hold it (after M4RI, Albrecht-Bard-Hart 2010);
- odd p: each step reduces only the pivot column and the pivot row mod p
  and subtracts the unreduced update from the other rows; the whole matrix
  is reduced at the end (delayed reduction, after FFLAS-FFPACK); columns
  that are 0 mod p in every row are never visited.

Every "span plus a block of rows" step (``sum_subspaces``, each round of
``filtration.right_ideal_closure``) is one insertion kernel,
``echelon_insert``: the block is reduced against the canonical rows by
their pivots in one product, only the remainder goes through ``rref``, and
the new pivots are cleared from the old rows and merged in by pivot, so
the result is the canonical form of the sum without re-eliminating the
rows already there.

Every entry point (``rref``, ``BallAmbient``, ``hecke.HeckeElement``) applies
the one prime bound p < 2**16 of ``scalars.check_prime``.  The odd-p loop
rests on it: (p-1)**2 < 2**32 per step leaves int64 room for 2**30 steps
before a reduction is due.

Also houses the two invariance defects: the rank defect
(rank(F + FS) - rank F)/rank F for subspaces, and the counting defect
(#(F u FS) - #F)/#F for finite subsets of a group.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import ContractError, OutOfRangeError
from .groups import GroupOracle, WordMetricBall
from .scalars import check_prime


# Delayed reduction lets odd-p entries drift below zero until the tracked
# bound on their magnitude reaches this; int64 holds twice as much.
_HEADROOM = 1 << 62


def rref(mat: np.ndarray, p: int) -> np.ndarray:
    """Canonical reduced row echelon form over GF(p); zero rows trimmed."""
    check_prime(p)
    A = np.asarray(mat, dtype=np.int64)
    if A.ndim != 2:
        raise ContractError("need a 2-d matrix")
    if p == 2:
        return _rref_gf2(A)
    return _rref_odd(A % p, p)


def _rref_gf2(A: np.ndarray) -> np.ndarray:
    """GF(2) elimination on rows packed 64 columns to a uint64 word.

    Each step jumps straight to the next pivot column (the lowest bit set in
    any remaining row) and clears it from every other row with one XOR of
    the words from the pivot's word on; the words to its left are zero in
    the pivot row.
    """
    rows, cols = A.shape
    nwords = -(-cols // 64)
    packed = np.zeros((rows, 8 * nwords), dtype=np.uint8)
    packed[:, : -(-cols // 8)] = np.packbits(A & 1, axis=1, bitorder="little")
    B = packed.view("<u8")
    r = w = 0
    while r < rows:
        live = np.bitwise_or.reduce(B[r:, w:], axis=0)
        nz = np.flatnonzero(live)
        if not nz.size:
            break
        w += int(nz[0])
        low = int(live[nz[0]])
        bit = np.uint64(low & -low)
        hits = (B[:, w] & bit).nonzero()[0]
        piv = hits[hits.searchsorted(r)]
        if piv != r:
            B[[r, piv]] = B[[piv, r]]
        others = hits[hits != piv]
        if others.size:
            B[others, w:] ^= B[r, w:]
        r += 1
    bits = np.unpackbits(B[:r].view(np.uint8), axis=1, count=cols, bitorder="little")
    return bits.astype(np.int64)


def _rref_odd(A: np.ndarray, p: int) -> np.ndarray:
    """Odd-p elimination with delayed reduction: only the pivot column and
    the pivot row are brought into 0..p-1 at each step; the other rows take
    the update unreduced and the whole matrix is reduced once at the end, or
    sooner if the tracked bound on |entries| would leave int64.  A arrives
    reduced, and the loop visits only the columns with an entry nonzero mod
    p: row operations keep a column that is 0 mod p in every row so."""
    rows = A.shape[0]
    step = (p - 1) * (p - 1)
    bound = p - 1
    r = 0
    for c in np.flatnonzero(A.any(axis=0)).tolist():
        A[:, c] %= p
        hits = A[:, c].nonzero()[0]
        k = hits.searchsorted(r)
        if k == hits.size:
            continue
        piv = hits[k]
        if piv != r:
            A[[r, piv]] = A[[piv, r]]
        pivot_row = A[r, c:] % p
        A[r, c:] = pivot_row * pow(int(pivot_row[0]), -1, p) % p
        others = hits[hits != piv]
        if others.size:
            if bound > _HEADROOM - step:
                A %= p
                bound = p - 1
            A[others, c:] -= A[others, c, None] * A[r, c:]
            bound += step
        r += 1
        if r == rows:
            break
    return A[:r] % p


def rank_mod_p(mat: np.ndarray, p: int) -> int:
    return rref(mat, p).shape[0]


def pivot_columns(rows: np.ndarray) -> np.ndarray:
    """Column of the leading entry of each (nonzero) echelon row."""
    if not rows.shape[0]:
        return np.zeros(0, dtype=np.intp)
    return np.argmax(rows != 0, axis=1)


def echelon_insert(rows: np.ndarray, block: np.ndarray,
                   p: int) -> tuple[np.ndarray, np.ndarray]:
    """Canonical echelon rows of span(rows) + span(block), where rows are
    already canonical over GF(p); returns them with the new rows alone.

    The block is reduced against the rows by their pivots in one product
    (as in Subspace.reduce_vector) and only the remainder goes through
    rref.  The new pivot columns are then cleared from the old rows that
    hold them, and the two sets are interleaved by pivot into one output,
    which is the canonical form of the sum."""
    pivots = pivot_columns(rows)
    block = np.asarray(block, dtype=np.int64) % p
    new = rref((block - block[:, pivots] @ rows) % p, p)
    k = new.shape[0]
    if not k:
        return rows, new
    new_pivots = pivot_columns(new)
    out = np.empty((rows.shape[0] + k, new.shape[1]), dtype=np.int64)
    at_old = np.arange(rows.shape[0]) + new_pivots.searchsorted(pivots)
    out[pivots.searchsorted(new_pivots) + np.arange(k)] = new
    out[at_old] = rows
    hit = np.flatnonzero(rows[:, new_pivots].any(axis=1))
    if hit.size:
        out[at_old[hit]] = (rows[hit] - rows[hit][:, new_pivots] @ new) % p
    return out, new


class BallAmbient:
    """Slice of the deformed group algebra spanned by a word-metric ball,
    with one right-multiplication table per basis element, built on first
    use.  The product of basis elements g, h carries the twist
    lambda**(len(g) + len(h) - len(gh)); lambda = 1 recovers the plain group
    algebra and lambda = 0 the length-graded degeneration.
    """

    def __init__(self, oracle: GroupOracle, ball: WordMetricBall, prime: int, lam: int):
        check_prime(prime)
        self.oracle = oracle
        self.ball = ball
        self.labels = tuple(ball.elements)
        self.index = {g: i for i, g in enumerate(self.labels)}
        self.prime = prime
        self.lam = lam % prime
        self._tables: dict = {}

    @property
    def dim(self) -> int:
        return len(self.labels)

    def translation(self, h) -> tuple:
        """h's right-multiplication table (src, scale, escaping):
        basis[src[j]] * h = scale[j] * basis[j], with scale None when every
        coefficient is 1, and escaping the indices of the basis elements
        whose product with h leaves the enumeration.  A basis element with
        no preimage in the ball gets scale 0; translate_rows keeps the
        table in _tables."""
        self.ball.word_length(h)  # raises if h itself is outside
        src = np.zeros(self.dim, dtype=np.int64)
        scale = np.zeros(self.dim, dtype=np.int64)
        escaping = []
        for i, g in enumerate(self.labels):
            gh = self.oracle.mul(g, h)
            j = self.index.get(gh)
            if j is None:
                escaping.append(i)
                continue
            src[j] = i
            scale[j] = pow(self.lam, self.ball.excess(g, h, gh), self.prime)
        return src, scale if (scale != 1).any() else None, np.array(escaping, dtype=np.intp)

    def translate_rows(self, rows: np.ndarray, h) -> np.ndarray:
        """Every row of the block times h, as one gather by h's table (and
        a scaling only when the table has one)."""
        table = self._tables.get(h)
        if table is None:
            table = self._tables[h] = self.translation(h)
        src, scale, escaping = table
        if escaping.size:
            hit = rows[:, escaping] % self.prime != 0
            if hit.any():
                first = hit[hit.any(axis=1).argmax()].argmax()
                g = self.labels[int(escaping[first])]
                raise OutOfRangeError(
                    f"product {g!r} * {h!r} escapes the ambient enumeration"
                )
        out = rows[:, src]
        return out if scale is None else out * scale % self.prime

    def vector(self, terms: dict) -> np.ndarray:
        """Dense vector from a {label: coefficient} mapping."""
        v = np.zeros(self.dim, dtype=np.int64)
        for g, c in terms.items():
            i = self.index.get(g)
            if i is None:
                raise OutOfRangeError(f"label {g!r} outside the ambient enumeration")
            v[i] = c % self.prime
        return v

    def apply_right(self, v: np.ndarray, element: dict) -> np.ndarray:
        """v * element, where v is a vector or a block with one vector per
        row and element a {label: coefficient} mapping."""
        v = np.asarray(v, dtype=np.int64)
        rows = v.reshape(-1, self.dim) % self.prime
        out = np.zeros_like(rows)
        for h, c in element.items():
            c %= self.prime
            if c:
                out += self.translate_rows(rows, h) * c
        return (out % self.prime).reshape(v.shape)


class Subspace:
    """Immutable canonical-echelon subspace of an ambient enumeration."""

    __slots__ = ("ambient", "rows", "_pivots")

    def __init__(self, ambient: BallAmbient, rows: np.ndarray, *, _canonical=False):
        if rows.size and rows.shape[1] != ambient.dim:
            raise ContractError("vector length does not match the ambient enumeration")
        if not _canonical:
            rows = rref(rows, ambient.prime)
        rows = np.asarray(rows, dtype=np.int64)
        rows.setflags(write=False)
        self.ambient = ambient
        self.rows = rows
        self._pivots = pivot_columns(rows)

    @property
    def rank(self) -> int:
        return self.rows.shape[0]

    def contains_vector(self, v: np.ndarray) -> bool:
        """Whether v, or every row of a block v, lies in the subspace."""
        return not np.any(self.reduce_vector(v))

    def reduce_vector(self, v: np.ndarray) -> np.ndarray:
        """Remainder of v after elimination against the echelon rows; v may
        also be a block with one vector per row.

        Each echelon row is 0 at every other row's pivot, so the sequential
        elimination subtracts exactly v[pivot] times each row, in one product.
        """
        p = self.ambient.prime
        w = np.asarray(v, dtype=np.int64) % p
        if w.shape[-1:] != (self.ambient.dim,):
            raise ContractError("vector length does not match the ambient enumeration")
        return (w - w[..., self._pivots] @ self.rows) % p

    def __le__(self, other: "Subspace") -> bool:
        _check_same_ambient(self, other)
        return other.contains_vector(self.rows)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace) and self.ambient is other.ambient
                and self.rows.shape == other.rows.shape
                and bool(np.array_equal(self.rows, other.rows)))

    def __hash__(self):
        return hash((id(self.ambient), self.rows.tobytes()))

    def __repr__(self):
        return f"<Subspace rank {self.rank} of dim-{self.ambient.dim} ambient>"


def _check_same_ambient(a: Subspace, b: Subspace):
    if a.ambient is not b.ambient:
        raise ContractError("subspaces live in different ambient enumerations")


def span(ambient: BallAmbient, vectors) -> Subspace:
    """Canonical subspace spanned by vectors ({label: coeff} dicts or arrays)."""
    rows = []
    for v in vectors:
        if isinstance(v, dict):
            rows.append(ambient.vector(v))
        else:
            a = np.asarray(v, dtype=np.int64)
            if a.shape != (ambient.dim,):
                raise ContractError("vector length does not match the ambient enumeration")
            rows.append(a)
    if not rows:
        return Subspace(ambient, np.zeros((0, ambient.dim), dtype=np.int64), _canonical=True)
    return Subspace(ambient, np.array(rows))


def zero_subspace(ambient: BallAmbient) -> Subspace:
    return span(ambient, [])


def full_subspace(ambient: BallAmbient) -> Subspace:
    return Subspace(ambient, np.eye(ambient.dim, dtype=np.int64), _canonical=True)


def sum_subspaces(a: Subspace, b: Subspace) -> Subspace:
    _check_same_ambient(a, b)
    rows = echelon_insert(a.rows, b.rows, a.ambient.prime)[0]
    return Subspace(a.ambient, rows, _canonical=True)


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Zassenhaus: echelonize [[A|A],[B|0]]; rows with zero left block carry
    the intersection in the right block."""
    _check_same_ambient(a, b)
    n = a.ambient.dim
    if a.rank == 0 or b.rank == 0:
        return zero_subspace(a.ambient)
    top = np.hstack([a.rows, a.rows])
    bot = np.hstack([b.rows, np.zeros_like(b.rows)])
    ech = rref(np.vstack([top, bot]), a.ambient.prime)
    keep = [row[n:] for row in ech if not np.any(row[:n])]
    if not keep:
        return zero_subspace(a.ambient)
    return Subspace(a.ambient, np.array(keep))


def right_multiply(f: Subspace, elements: list[dict]) -> Subspace:
    """Span of {row * s : row in basis of F, s in elements}."""
    blocks = [f.ambient.apply_right(f.rows, s) for s in elements]
    return Subspace(f.ambient, np.vstack([f.rows[:0]] + blocks))


def invariance_defect(f: Subspace, elements: list[dict]) -> Fraction:
    """(rank(F + FS) - rank F) / rank F, exactly."""
    if f.rank == 0:
        raise ContractError("invariance defect needs rank F >= 1")
    fs = right_multiply(f, elements)
    grown = sum_subspaces(f, fs)
    return Fraction(grown.rank - f.rank, f.rank)


def set_defect(f, s, oracle: GroupOracle) -> Fraction:
    """(#(F u FS) - #F) / #F for finite subsets F, S of the group."""
    fset = set(f)
    if not fset:
        raise ContractError("set defect needs a nonempty F")
    grown = set(fset)
    for g in fset:
        for t in s:
            grown.add(oracle.mul(g, t))
    return Fraction(len(grown) - len(fset), len(fset))
