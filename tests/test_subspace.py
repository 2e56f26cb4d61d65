import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, strategies as st

from gradedgrowth.errors import ContractError, OutOfRangeError
from gradedgrowth.filtration import build_group_algebra
from gradedgrowth.groups import ball, find_dead_ends
from gradedgrowth.registry import get_group
from gradedgrowth.subspace import (BallAmbient, intersect,
                                   invariance_defect, rank_mod_p, right_multiply,
                                   rref, set_defect, span, sum_subspaces,
                                   zero_subspace)


@pytest.fixture(scope="module")
def f2c2():
    return build_group_algebra(get_group("c2"), 2)


@pytest.fixture(scope="module")
def f2c4():
    return build_group_algebra(get_group("c4"), 2)


def random_matrix(rng, rows, cols, p):
    flat = [rng.randrange(p) for _ in range(rows * cols)]
    return np.array(flat, dtype=np.int64).reshape(rows, cols)


class TestRref:
    @given(st.integers(0, 4), st.integers(1, 5), st.sampled_from([2, 3, 5]),
           st.randoms(use_true_random=False))
    def test_rref_idempotent_and_rank(self, rows, cols, p, rng):
        m = random_matrix(rng, rows, cols, p)
        r = rref(m, p)
        assert np.array_equal(rref(r, p), r)
        assert rank_mod_p(m, p) == r.shape[0]

    @given(st.integers(1, 4), st.integers(1, 5), st.sampled_from([2, 3, 5]),
           st.randoms(use_true_random=False))
    def test_canonical_under_row_shuffle_and_scale(self, rows, cols, p, rng):
        m = random_matrix(rng, rows, cols, p)
        rows_list = [r.copy() for r in m]
        rng.shuffle(rows_list)
        scaled = [(r * rng.randrange(1, p)) % p for r in rows_list]
        assert np.array_equal(rref(m, p), rref(np.array(scaled), p))

    def test_pivots_strictly_increasing(self):
        m = np.array([[1, 1, 0], [1, 0, 1], [0, 1, 1]])
        r = rref(m, 2)
        pivots = [int(np.nonzero(row)[0][0]) for row in r]
        assert pivots == sorted(pivots) and len(set(pivots)) == len(pivots)


class TestSpanSumIntersect:
    def test_empty_span(self, f2c2):
        assert span(f2c2, []).rank == 0

    def test_duplicates_collapse(self, f2c2):
        e, g = f2c2.labels
        s = span(f2c2, [{e: 1, g: 1}, {e: 1, g: 1}])
        assert s.rank == 1

    def test_full_rank(self, f2c2):
        e, g = f2c2.labels
        s = span(f2c2, [{e: 1}, {g: 1}, {e: 1, g: 1}])
        assert s.rank == 2

    def test_sum_with_zero(self, f2c4):
        rng = np.random.RandomState(1)
        a = span(f2c4, [rng.randint(0, 2, 4) for _ in range(2)])
        assert sum_subspaces(a, zero_subspace(f2c4)) == a

    def test_containment_intersection(self):
        alg = build_group_algebra(get_group("c2xc2"), 2)
        e = alg.labels[0]
        a_lbl, b_lbl = alg.labels[1], alg.labels[2]
        big = span(alg, [{a_lbl: 1, e: 1}, {b_lbl: 1, e: 1}])
        small = span(alg, [{a_lbl: 1, e: 1}])
        assert intersect(big, small) == small

    @given(st.randoms(use_true_random=False))
    def test_grassmann_rank_identity(self, rng):
        alg = build_group_algebra(get_group("c4"), 2)
        a = span(alg, [random_matrix(rng, 1, 4, 2)[0] for _ in range(rng.randrange(3))])
        b = span(alg, [random_matrix(rng, 1, 4, 2)[0] for _ in range(rng.randrange(3))])
        lhs = sum_subspaces(a, b).rank + intersect(a, b).rank
        assert lhs == a.rank + b.rank

    def test_ambient_mismatch(self, f2c2, f2c4):
        with pytest.raises(ContractError):
            sum_subspaces(span(f2c2, []), span(f2c4, []))

    @pytest.mark.parametrize("rank", [0, 2])
    @pytest.mark.parametrize("length", [0, 1, 3, 5])
    def test_reduce_vector_length_mismatch(self, f2c4, rank, length):
        sub = span(f2c4, [{f2c4.labels[i]: 1} for i in range(rank)])
        for v in (np.ones(length, dtype=np.int64), np.ones((2, length), dtype=np.int64)):
            with pytest.raises(ContractError):
                sub.reduce_vector(v)
            with pytest.raises(ContractError):
                sub.contains_vector(v)


class TestRightMultiply:
    def test_crystal_shift(self, z1):
        b = ball(z1, 4)
        amb = BallAmbient(z1, b, 2, lam=0)
        f = span(amb, [{(0,): 1}])
        fs = right_multiply(f, [{(1,): 1}])
        assert fs == span(amb, [{(1,): 1}])

    def test_involution_fixes_diagonal(self, f2c2):
        e, g = f2c2.labels
        f = span(f2c2, [{e: 1, g: 1}])
        assert right_multiply(f, [{g: 1}]) == f

    def test_dead_end_span_is_invariant_at_lambda_zero(self, lamplighter):
        b = ball(lamplighter, 8)
        amb = BallAmbient(lamplighter, b, 2, lam=0)
        d = find_dead_ends(lamplighter, 8)[0]
        f = span(amb, [{d: 1}])
        gens = [{lamplighter.multiply(lamplighter.identity, s): 1}
                for s in lamplighter.generator_symbols]
        grown = sum_subspaces(f, right_multiply(f, gens))
        assert grown.rank == f.rank == 1
        assert invariance_defect(f, gens) == 0

    def test_escape_raises(self, z1):
        b = ball(z1, 2)
        amb = BallAmbient(z1, b, 2, lam=1)
        f = span(amb, [{(2,): 1}])
        with pytest.raises(OutOfRangeError):
            right_multiply(f, [{(1,): 1}])


class TestDefects:
    def test_box_defect_two_fifths(self, z2):
        box = [(i, j) for i in range(10) for j in range(10)]
        s = [(1, 0), (-1, 0), (0, 1), (0, -1)]
        assert set_defect(box, s, z2) == Fraction(2, 5)

    def test_box_rank_defect_matches_set_defect(self, z2):
        b = ball(z2, 21)
        amb = BallAmbient(z2, b, 2, lam=1)
        box = [(i, j) for i in range(10) for j in range(10)]
        s = [(1, 0), (-1, 0), (0, 1), (0, -1)]
        f = span(amb, [{g: 1} for g in box])
        assert invariance_defect(f, [{g: 1} for g in s]) == Fraction(2, 5)

    def test_interval_defect(self, z1):
        f = [(i,) for i in range(10)]
        assert set_defect(f, [(1,)], z1) == Fraction(1, 10)

    def test_whole_finite_group_defect_zero(self):
        g = get_group("c4")
        alg = build_group_algebra(g, 2)
        full = span(alg, [{lbl: 1} for lbl in alg.labels])
        assert invariance_defect(full, [{alg.labels[1]: 1}]) == 0
        assert set_defect(list(g.elements()), list(g.elements()), g) == 0

    def test_rank_zero_rejected(self, f2c2):
        with pytest.raises(ContractError):
            invariance_defect(zero_subspace(f2c2), [])

    def test_empty_set_rejected(self, z1):
        with pytest.raises(ContractError):
            set_defect([], [(1,)], z1)

    def test_defect_enumeration_independent(self, z2):
        # same subspace expressed over a permuted enumeration gives the
        # same rank defect
        b = ball(z2, 3)
        amb = BallAmbient(z2, b, 3, lam=1)
        elems = b.elements
        perm_amb = BallAmbient(z2, b, 3, lam=1)
        perm_amb.labels = tuple(reversed(elems))
        perm_amb.index = {g: i for i, g in enumerate(perm_amb.labels)}
        perm_amb._tables = {}
        f_elems = [(0, 0), (1, 0), (0, 1)]
        s_elems = [{(1, 0): 1}, {(0, 1): 1}]
        d1 = invariance_defect(span(amb, [{g: 1} for g in f_elems]), s_elems)
        d2 = invariance_defect(span(perm_amb, [{g: 1} for g in f_elems]), s_elems)
        assert d1 == d2


class TestRankVsSetComparison:
    @pytest.mark.parametrize("lam", [0, 1])
    def test_rank_defect_bounded_by_set_defect(self, z2, lam):
        import random
        rng = random.Random(7)
        b = ball(z2, 6)
        amb = BallAmbient(z2, b, 2, lam=lam)
        sphere5 = [g for g in b.elements if b.lengths[g] <= 5]
        s_set = [z2.multiply(z2.identity, s) for s in z2.generator_symbols]
        s_elems = [{g: 1} for g in s_set]
        for _ in range(10):
            f_set = rng.sample(sphere5, rng.randrange(1, 12))
            f = span(amb, [{g: 1} for g in f_set])
            assert invariance_defect(f, s_elems) <= set_defect(f_set, s_set, z2)
