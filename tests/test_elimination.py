"""Differential tests that lock the GF(p) elimination engine to a slow reference.

`reference_rref` is the column-by-column elimination the engine replaced,
kept here verbatim: every entry is reduced mod p after every step, and the
pivot is found by scanning rows in Python.  The engine's two inner loops
(bit-packed rows for p = 2, delayed reduction for odd p) must return the
same canonical int64 matrix, byte for byte.  The one-shot remainder is
compared with its sequential form too, the one insertion kernel
(`echelon_insert`) with `rref` of the stacked rows, and the one
row-translation kernel (`BallAmbient.translate_rows`, under `apply_right`) with
`reference_apply_right`, the per-vector `np.add.at` loop it replaced, on a
table built straight from the group law.  The ideal generators and the
single-step bound, which read off one identity-last echelon form of I,
are compared with `reference_rs_generators` (each f s minus its sequential
remainder against I) and `reference_rs_step_bound` (a Zassenhaus
intersection of I with span(F u FS)), the formulas they replaced.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gradedgrowth import subspace
from gradedgrowth.errors import ContractError, OutOfRangeError
from gradedgrowth.filtration import (FiniteGroupAlgebra, aug_ladder, build_group_algebra,
                                     right_ideal_closure, rs_generators, rs_step_bound)
from gradedgrowth.groups import ZdMod, ball
from gradedgrowth.hecke import HeckeElement, crystal_monomial_check, delta
from gradedgrowth.registry import get_group
from gradedgrowth.scalars import check_prime
from gradedgrowth.subspace import (BallAmbient, Subspace, intersect, pivot_columns,
                                   rank_mod_p, rref, span)

PRIMES = [2, 3, 5, 65521]


def reference_rref(mat: np.ndarray, p: int) -> np.ndarray:
    """Canonical reduced row echelon form over GF(p); zero rows trimmed."""
    A = (np.asarray(mat, dtype=np.int64) % p).copy()
    if A.ndim != 2:
        raise ContractError("need a 2-d matrix")
    rows, cols = A.shape
    r = 0
    for c in range(cols):
        piv = -1
        for i in range(r, rows):
            if A[i, c]:
                piv = i
                break
        if piv < 0:
            continue
        if piv != r:
            A[[r, piv]] = A[[piv, r]]
        inv = pow(int(A[r, c]), -1, p)
        A[r] = (A[r] * inv) % p
        col = A[:, c].copy()
        col[r] = 0
        nz = np.nonzero(col)[0]
        if nz.size:
            A[nz] = (A[nz] - np.outer(col[nz], A[r])) % p
        r += 1
        if r == rows:
            break
    return A[:r]


def sequential_remainder(rows: np.ndarray, v: np.ndarray, p: int) -> np.ndarray:
    """Remainder of v by eliminating against the echelon rows one at a time."""
    w = (np.asarray(v, dtype=np.int64) % p).copy()
    for row in rows:
        c = int(np.nonzero(row)[0][0])
        if w[c]:
            w = (w - w[c] * row) % p
    return w


def reference_right_translation(amb: BallAmbient, h) -> tuple[np.ndarray, np.ndarray]:
    """Arrays (perm, coef): basis g_i maps to coef[i] * basis[perm[i]];
    perm[i] = -1 marks a product escaping the enumeration.  Built from the
    group law and the word lengths, not from the ambient's own table."""
    finite = isinstance(amb, FiniteGroupAlgebra)
    group = amb.oracle
    perm = np.full(amb.dim, -1, dtype=np.int64)
    coef = np.zeros(amb.dim, dtype=np.int64)
    for i, g in enumerate(amb.labels):
        gh = group.mul(g, h)
        j = amb.index.get(gh)
        if j is None:
            continue
        perm[i] = j
        if finite:
            coef[i] = 1
        else:
            lengths = amb.ball.lengths
            coef[i] = pow(amb.lam, lengths[g] + lengths[h] - lengths[gh], amb.prime)
    return perm, coef


def reference_apply_right(amb: BallAmbient, v: np.ndarray, element: dict) -> np.ndarray:
    """v * element, where element is a {label: coefficient} mapping."""
    out = np.zeros(amb.dim, dtype=np.int64)
    for h, c in element.items():
        c %= amb.prime
        if c == 0:
            continue
        perm, coef = reference_right_translation(amb, h)
        bad = np.nonzero((perm < 0) & ((v % amb.prime) != 0))[0]
        if bad.size:
            g = amb.labels[int(bad[0])]
            raise OutOfRangeError(
                f"product {g!r} * {h!r} escapes the ambient enumeration"
            )
        moved = (v * coef) % amb.prime
        ok = perm >= 0
        np.add.at(out, perm[ok], moved[ok] * c)
    return out % amb.prime


def assert_same_rref(m: np.ndarray, p: int):
    got = rref(m, p)
    want = reference_rref(m, p)
    assert got.dtype == want.dtype == np.int64
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def rank_deficient(rng, rows: int, cols: int, p: int, base: int) -> np.ndarray:
    """`base` random rows, then rows that are combinations of earlier rows
    (multiples and sums), shuffled so dependent rows sit above their sources."""
    m = np.zeros((rows, cols), dtype=np.int64)
    m[:base] = rng.integers(0, p, (base, cols))
    for i in range(base, rows):
        a, b = rng.integers(0, i, 2)
        m[i] = (rng.integers(0, p) * m[a] + rng.integers(0, p) * m[b]) % p
    return m[rng.permutation(rows)]


class TestEngineMatchesReference:
    @given(st.integers(0, 40), st.integers(0, 140), st.sampled_from(PRIMES),
           st.integers(0, 2**32 - 1))
    def test_random(self, rows, cols, p, seed):
        rng = np.random.default_rng(seed)
        assert_same_rref(rng.integers(0, p, (rows, cols)), p)

    @given(st.integers(1, 40), st.sampled_from([63, 64, 65, 128]),
           st.sampled_from(PRIMES), st.integers(0, 2**32 - 1))
    def test_word_boundaries(self, rows, cols, p, seed):
        rng = np.random.default_rng(seed)
        m = rng.integers(0, p, (rows, cols))
        m[:, rng.random(cols) < 0.5] = 0  # empty columns on both sides of a word edge
        assert_same_rref(m, p)

    @given(st.integers(1, 40), st.integers(1, 140), st.sampled_from(PRIMES),
           st.integers(0, 2**32 - 1), st.data())
    def test_rank_deficient(self, rows, cols, p, seed, data):
        base = data.draw(st.integers(1, rows))
        m = rank_deficient(np.random.default_rng(seed), rows, cols, p, base)
        assert_same_rref(m, p)
        assert rank_mod_p(m, p) <= base

    @given(st.integers(0, 40), st.integers(0, 70), st.sampled_from(PRIMES),
           st.integers(0, 2**32 - 1))
    def test_unreduced_input(self, rows, cols, p, seed):
        rng = np.random.default_rng(seed)
        assert_same_rref(rng.integers(-5 * p, 5 * p, (rows, cols)), p)

    @given(st.integers(1, 40), st.integers(1, 140), st.sampled_from(PRIMES),
           st.integers(0, 2**32 - 1), st.data())
    def test_dead_column_runs(self, rows, cols, p, seed, data):
        # runs of columns that are zero or nonzero multiples of p, which the
        # odd-p loop jumps over in one scan, between live columns
        rng = np.random.default_rng(seed)
        m = rank_deficient(rng, rows, cols, p, data.draw(st.integers(1, rows)))
        for _ in range(data.draw(st.integers(1, 4))):
            start = data.draw(st.integers(0, cols - 1))
            run = slice(start, start + data.draw(st.integers(1, 20)))
            width = m[:, run].shape[1]
            m[:, run] = p * rng.integers(-3, 4, (rows, width)) * data.draw(st.sampled_from([0, 1]))
        assert_same_rref(m, p)

    @pytest.mark.parametrize("p", PRIMES)
    def test_live_column_after_a_dead_run(self, p):
        # dead below the first pivot row, live only in the last column
        m = np.zeros((3, 9), dtype=np.int64)
        m[0] = [1, 2, 0, 3, 0, 0, 0, 0, 1]
        m[1, 4:8] = p
        m[2, 8] = -1
        assert_same_rref(m, p)
        assert_same_rref(m[1:], p)

    @pytest.mark.parametrize("p", [3, 5, 65521])
    def test_delayed_reduction_at_low_headroom(self, p, monkeypatch):
        # a full reduction after every step or two, instead of after 2**30
        monkeypatch.setattr(subspace, "_HEADROOM", 2 * (p - 1) ** 2 + p)
        rng = np.random.default_rng(p)
        for rows, cols in [(30, 40), (40, 30), (25, 65)]:
            assert_same_rref(rank_deficient(rng, rows, cols, p, rows // 2), p)

    @pytest.mark.parametrize("p", [2, 3])
    def test_large_block(self, p):
        rng = np.random.default_rng(7)
        assert_same_rref(rank_deficient(rng, 300, 257, p, 200), p)

    def test_identity_and_zero(self):
        for p in PRIMES:
            assert_same_rref(np.eye(70, dtype=np.int64), p)
            assert_same_rref(np.zeros((5, 70), dtype=np.int64), p)

    def test_one_dimensional_input_rejected(self):
        with pytest.raises(ContractError):
            rref(np.array([1, 0, 1]), 2)


def random_echelon(rng, rows: int, cols: int, p: int) -> np.ndarray:
    """Canonical rows of a random sparse span (possibly of lower rank)."""
    m = rng.integers(0, p, (rows, cols))
    m[rng.random(m.shape) < 0.6] = 0
    return rref(m, p)


class TestEchelonInsert:
    """The one insertion kernel against rref of the stacked rows."""

    @settings(max_examples=100)
    @given(st.sampled_from(PRIMES), st.integers(0, 70), st.integers(0, 12),
           st.integers(0, 12), st.integers(0, 2**32 - 1),
           st.sampled_from(["random", "inside", "duplicates", "empty"]))
    def test_matches_rref_of_stack(self, p, cols, a, b, seed, kind):
        rng = np.random.default_rng(seed)
        rows = random_echelon(rng, a, cols, p)
        if kind == "random":  # unreduced, negative and sparse
            block = rng.integers(-3 * p, 3 * p, (b, cols))
            block[rng.random(block.shape) < 0.6] = 0
        elif kind == "inside":  # combinations of the rows, plus multiples of p
            block = rng.integers(-2, 3, (b, rows.shape[0])) @ rows
            block += p * rng.integers(-2, 3, block.shape)
        elif kind == "duplicates":  # repeated block rows and copies of the rows
            fresh = rng.integers(0, p, (max(1, b // 2), cols))
            block = np.vstack([fresh, fresh, rows, -rows])
        else:
            block = np.zeros((0, cols), dtype=np.int64)
        got, new = subspace.echelon_insert(rows, block, p)
        want = rref(np.vstack([rows, block]), p)
        assert got.dtype == want.dtype == new.dtype == np.int64
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        # the new rows are those of the sum at the new pivots, and no more
        assert new.shape[0] == got.shape[0] - rows.shape[0]
        at_new = np.isin(subspace.pivot_columns(got), subspace.pivot_columns(new))
        assert got[at_new].tobytes() == new.tobytes()
        if kind == "inside":
            assert new.shape[0] == 0

    @pytest.mark.parametrize("p", PRIMES)
    def test_old_rows_cleared_at_new_pivots(self, p):
        rows = np.array([[1, 1, 0, 1], [0, 0, 1, 1]], dtype=np.int64)
        got, new = subspace.echelon_insert(rows, np.array([[0, -1, 0, 0]]), p)
        assert got.tolist() == [[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 1]]
        assert new.tolist() == [[0, 1, 0, 0]]

    def test_empty_rows_and_block(self):
        empty = np.zeros((0, 5), dtype=np.int64)
        got, new = subspace.echelon_insert(empty, empty, 3)
        assert got.shape == new.shape == (0, 5)
        got, new = subspace.echelon_insert(empty, np.array([[0, 3, 6, -1, 2]]), 3)
        assert got.tolist() == new.tolist() == [[0, 0, 0, 1, 1]]


class TestPrimeBound:
    # 2**61 - 1 is prime: the bound is checked before trial division, which
    # would take 2**29 steps
    @pytest.mark.parametrize("p", [0, 1, 4, 65537, 2**16 + 1, 4294967311, 2**61 - 1])
    def test_rejected_everywhere(self, p, z1):
        b = ball(z1, 1)
        with pytest.raises(ContractError):
            check_prime(p)
        with pytest.raises(ContractError):
            HeckeElement(z1, b, p, 1, {(0,): 1})
        with pytest.raises(ContractError):
            delta(z1, b, p, 1, (0,))
        with pytest.raises(ContractError):
            crystal_monomial_check(z1, 1, p)
        with pytest.raises(ContractError):
            BallAmbient(z1, b, p, 1)
        with pytest.raises(ContractError):
            rref(np.eye(2, dtype=np.int64), p)
        with pytest.raises(ContractError):
            rank_mod_p(np.eye(2, dtype=np.int64), p)

    def test_largest_accepted_prime(self, z1):
        b = ball(z1, 1)
        assert check_prime(65521) == 65521
        assert HeckeElement(z1, b, 65521, 1, {(0,): 65522}).coeffs == {(0,): 1}
        assert delta(z1, b, 65521, 1, (1,), -1).coeffs == {(1,): 65520}
        assert crystal_monomial_check(z1, 1, 65521)


@pytest.fixture(scope="module", params=[("heisenberg_mod_3", 3), ("q8", 2)],
                ids=["heisenberg_mod_3", "q8"])
def algebra(request):
    name, p = request.param
    return build_group_algebra(get_group(name), p)


def random_subspace(alg, rng, count):
    return span(alg, list(rng.integers(0, alg.prime, (count, alg.dim))))


class TestBlockKernels:
    @given(st.integers(0, 2**32 - 1), st.integers(0, 12))
    def test_remainder_matches_sequential(self, algebra, seed, count):
        rng = np.random.default_rng(seed)
        sub = random_subspace(algebra, rng, count)
        vecs = rng.integers(-3, 3 * algebra.prime, (5, algebra.dim))
        block = sub.reduce_vector(vecs)
        for v, got in zip(vecs, block):
            want = sequential_remainder(sub.rows, v, algebra.prime)
            assert np.array_equal(sub.reduce_vector(v), want)
            assert np.array_equal(got, want)

    @given(st.integers(0, 2**32 - 1), st.integers(0, 12))
    def test_translate_rows_matches_apply_right(self, algebra, seed, count):
        rng = np.random.default_rng(seed)
        rows = random_subspace(algebra, rng, count).rows
        for h in list(algebra.labels[:: max(1, algebra.dim // 6)]) + list(algebra.oracle.generators.values()):
            moved = algebra.translate_rows(rows, h)
            assert moved.shape == rows.shape
            for row, got in zip(rows, moved):
                assert np.array_equal(got, reference_apply_right(algebra, row, {h: 1}))


def reference_unital_complement(alg: FiniteGroupAlgebra, ideal: Subspace):
    """I's echelon rows with the identity coordinate ordered last, and the
    unit rows spanning their echelon complement F."""
    n = alg.dim
    perm = list(range(1, n)) + [0]
    inv_perm = np.argsort(perm)
    rows = rref(ideal.rows[:, perm], alg.prime)
    pivot_set = set(pivot_columns(rows).tolist())
    complement = [perm[j] for j in range(n) if j not in pivot_set]
    return perm, inv_perm, rows, np.eye(n, dtype=np.int64)[complement]


def reference_rs_generators(alg: FiniteGroupAlgebra, ideal: Subspace, s_elements: list) -> list:
    """{f s - proj_F(f s)}, nonzero ones only, with proj_F the sequential
    remainder against I's identity-last echelon rows."""
    perm, inv_perm, rows, units = reference_unital_complement(alg, ideal)
    moved = [alg.translate_rows(units, s) for s in s_elements]
    # coordinate-major: f s for each s in turn, then the next f
    vecs = np.stack(moved, axis=1).reshape(-1, alg.dim) if moved else units[:0]
    p = alg.prime
    gens = [(v - sequential_remainder(rows, v[perm], p)[inv_perm]) % p for v in vecs]
    return [gen for gen in gens if np.any(gen)]


def reference_rs_step_bound(alg: FiniteGroupAlgebra, ideal: Subspace,
                            s_elements: list) -> tuple[bool, int, int]:
    """(dim(I / I w) <= dim((F + FS) cap I), both sides), the meet by
    Zassenhaus."""
    p = alg.prime
    units = reference_unital_complement(alg, ideal)[-1]
    i_w = Subspace(alg, np.vstack([ideal.rows[:0]] + [
        (alg.translate_rows(ideal.rows, s) - ideal.rows) % p
        for s in alg.oracle.generators.values()]))
    lhs = ideal.rank - i_w.rank
    grown = span(alg, list(units) + [v for s in s_elements for v in alg.translate_rows(units, s)])
    rhs = intersect(grown, ideal).rank
    return lhs <= rhs, lhs, rhs


@pytest.fixture(scope="module", params=[("c2xc2", 2), ("q8", 2), ("d4", 2),
                                        ("heisenberg_mod_3", 3), ("c9", 3)],
                ids=["c2xc2", "q8", "d4", "heisenberg_mod_3", "c9"])
def rs_algebra(request):
    """A p-group algebra and its ladder powers w, w^2, ..., which hold every
    proper right ideal's generators."""
    name, p = request.param
    alg = build_group_algebra(get_group(name), p)
    return alg, aug_ladder(alg).powers[1:]


class TestIdealGeneratorsMatchReference:
    @given(st.integers(0, 2**32 - 1), st.integers(0, 4), st.booleans())
    def test_generators_and_bound(self, rs_algebra, seed, count, every_element):
        alg, powers = rs_algebra
        rng = np.random.default_rng(seed)
        power = powers[rng.integers(len(powers))]
        vecs = rng.integers(0, alg.prime, (count, power.rank)) @ power.rows % alg.prime
        ideal = right_ideal_closure(alg, list(vecs))
        s_elements = list(alg.labels) if every_element else alg.oracle.generators.values()
        got = rs_generators(alg, ideal, s_elements)
        want = reference_rs_generators(alg, ideal, s_elements)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
        assert all(g.dtype == np.int64 and g.shape == (alg.dim,) for g in got)
        assert rs_step_bound(alg, ideal, s_elements) == reference_rs_step_bound(
            alg, ideal, s_elements)


# (kind, group, radius of the ball ambient); the finite ones ignore lambda
KERNEL_CASES = [("finite", "q8", None), ("finite", "heisenberg_mod_3", None),
                ("finite", "c243", None), ("ball", "z2", 4), ("ball", "heisenberg", 3),
                ("ball", "lamplighter", 4), ("ball", "t334", 4)]
_KERNEL_AMBIENTS: dict = {}


def kernel_ambient(case, p: int, lam: int) -> BallAmbient:
    kind, name, radius = case
    key = (case, p, lam if kind == "ball" else None)
    if key not in _KERNEL_AMBIENTS:
        group = ZdMod(1, 243) if name == "c243" else get_group(name)
        _KERNEL_AMBIENTS[key] = (build_group_algebra(group, p) if kind == "finite"
                                 else BallAmbient(group, ball(group, radius), p, lam))
    return _KERNEL_AMBIENTS[key]


class TestTranslationKernel:
    """apply_right on vectors and blocks against the per-vector reference."""

    @settings(max_examples=100)
    @given(st.sampled_from(KERNEL_CASES), st.sampled_from([2, 3, 5]),
           st.sampled_from([0, 1, 2]), st.integers(0, 2**32 - 1), st.data())
    def test_apply_right_matches_reference(self, case, p, lam, seed, data):
        amb = kernel_ambient(case, p, lam)
        rng = np.random.default_rng(seed)
        radius = amb.ball.radius if case[0] == "ball" else None
        # rows inside the radius-(r-2) ball times terms of length <= 2 never
        # escape; rows over the whole ball usually do
        inner = data.draw(st.booleans())
        columns = [i for i, g in enumerate(amb.labels)
                   if radius is None or not inner or amb.ball.lengths[g] <= radius - 2]
        count = data.draw(st.sampled_from([0, 1, 5]))
        rows = np.zeros((count, amb.dim), dtype=np.int64)
        rows[:, columns] = rng.integers(-2 * p, 3 * p, (count, len(columns)))  # unreduced
        rows[rng.random(rows.shape) < data.draw(st.sampled_from([0, 0.9]))] = 0  # sparse
        near = [g for g in amb.labels if radius is None or amb.ball.lengths[g] <= 2]
        hs = data.draw(st.lists(st.sampled_from(near), min_size=1, max_size=4, unique=True))
        coeffs = data.draw(st.lists(st.sampled_from([1, 2, -1, 0, p, p + 1]),
                                    min_size=len(hs), max_size=len(hs)))
        element = dict(zip(hs, coeffs))
        # a block raises at the first term, and within it the first row, that escapes
        expected_error = None
        for h, c in element.items():
            for row in rows:
                try:
                    reference_apply_right(amb, row, {h: c})
                except OutOfRangeError as exc:
                    expected_error = str(exc)
                    break
            if expected_error:
                break
        if expected_error:
            with pytest.raises(OutOfRangeError) as info:
                amb.apply_right(rows, element)
            assert str(info.value) == expected_error
            return
        got = amb.apply_right(rows, element)
        assert got.shape == rows.shape and got.dtype == np.int64
        for row, g in zip(rows, got):
            want = reference_apply_right(amb, row, element)
            assert np.array_equal(g, want)
            assert np.array_equal(amb.apply_right(row, element), want)
