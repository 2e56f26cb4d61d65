import random

import pytest

from gradedgrowth.errors import ContractError, OutOfRangeError
from gradedgrowth.groups import ball
from gradedgrowth.hecke import (crystal_monomial_check, delta, delta_mul,
                                hecke_mul, unit, untwist)


@pytest.fixture(scope="module")
def zball(z1):
    return ball(z1, 8)


class TestDeltaMul:
    def test_lengths_add(self, z1, zball):
        prod = delta_mul(z1, zball, None, 7, (1,), (1,))
        assert prod.coeffs == {(2,): 1}

    def test_cancellation_carries_lambda_squared(self, z1, zball):
        prod = delta_mul(z1, zball, None, 3, (1,), (-1,))
        assert prod.coeffs == {(0,): 9}

    def test_crystal_kills_cancellation(self, z1, zball):
        prod = delta_mul(z1, zball, None, 0, (1,), (-1,))
        assert prod.is_zero()

    def test_crystal_keeps_additive_products(self, z1, zball):
        prod = delta_mul(z1, zball, None, 0, (2,), (3,))
        assert prod.coeffs == {(5,): 1}

    def test_out_of_ball(self, z1):
        small = ball(z1, 1)
        with pytest.raises(OutOfRangeError):
            delta_mul(z1, small, None, 1, (1,), (1,))


class TestHeckeMul:
    def test_unit_is_two_sided(self, z1, zball):
        e = unit(z1, zball, 5, 2)
        a = delta(z1, zball, 5, 2, (1,)) + delta(z1, zball, 5, 2, (0,), 3)
        assert hecke_mul(e, a).coeffs == a.coeffs
        assert hecke_mul(a, e).coeffs == a.coeffs

    def test_crystal_square_drops_cross_terms(self, z1, zball):
        a = delta(z1, zball, 2, 0, (1,)) + delta(z1, zball, 2, 0, (-1,))
        assert hecke_mul(a, a).coeffs == {(2,): 1, (-2,): 1}

    def test_group_ring_square(self, z1, zball):
        a = delta(z1, zball, None, 1, (1,)) + delta(z1, zball, None, 1, (-1,))
        assert hecke_mul(a, a).coeffs == {(2,): 1, (0,): 2, (-2,): 1}

    def test_incompatible_lambda(self, z1, zball):
        a = delta(z1, zball, None, 0, (1,))
        b = delta(z1, zball, None, 1, (1,))
        with pytest.raises(ContractError):
            hecke_mul(a, b)

    def test_incompatible_ring(self, z1, zball):
        a = delta(z1, zball, None, 1, (1,))
        b = delta(z1, zball, 2, 1, (1,))
        with pytest.raises(ContractError):
            hecke_mul(a, b)

    @pytest.mark.parametrize("lam", [0, 1, 2])
    def test_associativity_sample(self, z2, lam):
        b = ball(z2, 9)
        p = 5
        rng = random.Random(3)
        small = [g for g in b.elements if b.lengths[g] <= 3]
        for _ in range(100):
            g, h, k = (rng.choice(small) for _ in range(3))
            dg = delta(z2, b, p, lam, g)
            dh = delta(z2, b, p, lam, h)
            dk = delta(z2, b, p, lam, k)
            assert hecke_mul(hecke_mul(dg, dh), dk) == hecke_mul(dg, hecke_mul(dh, dk))

    def test_crystal_grading(self, lamplighter):
        b = ball(lamplighter, 8)
        p = 3
        small = [g for g in b.elements if b.lengths[g] <= 4]
        rng = random.Random(5)
        for _ in range(60):
            g, h = rng.choice(small), rng.choice(small)
            prod = delta_mul(lamplighter, b, p, 0, g, h)
            if not prod.is_zero():
                ((gh, _),) = prod.coeffs.items()
                assert b.lengths[gh] == b.lengths[g] + b.lengths[h]


class TestUntwist:
    def test_identity_element(self, z1, zball):
        e = unit(z1, zball, 5, 2)
        assert untwist(e).coeffs == {(0,): 1}

    def test_single_term_scaling(self, z1, zball):
        a = delta(z1, zball, 5, 2, (1,))
        assert untwist(a).coeffs == {(1,): 2}

    def test_untwist_is_multiplicative_on_product(self, z1, zball):
        p = 5
        a = delta(z1, zball, p, 2, (1,))
        b = delta(z1, zball, p, 2, (-1,))
        lhs = untwist(hecke_mul(a, b))
        rhs = hecke_mul(untwist(a), untwist(b))
        assert lhs.coeffs == rhs.coeffs == {(0,): 4}

    def test_untwist_homomorphism_random(self, z2):
        b = ball(z2, 8)
        p = 7
        rng = random.Random(11)
        small = [g for g in b.elements if b.lengths[g] <= 3]
        for _ in range(50):
            terms_a = {rng.choice(small): rng.randrange(1, 7) for _ in range(2)}
            terms_b = {rng.choice(small): rng.randrange(1, 7) for _ in range(2)}
            from gradedgrowth.hecke import HeckeElement
            a = HeckeElement(z2, b, p, 3, terms_a)
            c = HeckeElement(z2, b, p, 3, terms_b)
            assert untwist(hecke_mul(a, c)) == hecke_mul(untwist(a), untwist(c))

    def test_non_invertible_lambda_rejected(self, z1, zball):
        a = delta(z1, zball, 5, 0, (1,))
        with pytest.raises(ContractError):
            untwist(a)
        b = delta(z1, zball, None, 2, (1,))
        with pytest.raises(ContractError):
            untwist(b)


class TestCrystalMonomial:
    def test_z_radius_6(self, z1):
        assert crystal_monomial_check(z1, 6, 2)

    def test_lamplighter_radius_5(self, lamplighter):
        assert crystal_monomial_check(lamplighter, 5, 2)

    def test_t334_radius_5(self, t334):
        assert crystal_monomial_check(t334, 5, 3)

    def test_sampled(self, z2):
        assert crystal_monomial_check(z2, 4, 2, sample_size=500, seed=1)
