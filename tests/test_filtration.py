import random

import numpy as np
import pytest

from gradedgrowth import filtration
from gradedgrowth.cli import main
from gradedgrowth.errors import ContractError, ResourceBudgetError
from gradedgrowth.filtration import (aug_ladder, build_group_algebra,
                                     congruence_graded_dims, free_graded_dims,
                                     graded_dims_via_jennings, growth_report,
                                     jennings_hilbert_coeffs, jennings_series,
                                     magnus_deg, quotient_agreement_dims,
                                     right_ideal_closure, rs_generators,
                                     rs_step_bound, witt_ranks)
from gradedgrowth.groups import HeisenbergMod, ZdMod
from gradedgrowth.registry import P_GROUP_NAMES, get_group
from gradedgrowth.subspace import span
from gradedgrowth.tiling import congruence_quotient


def aperiodic_word_count(k: int, n: int) -> int:
    """Brute-force oracle: aperiodic length-n words over k letters, / n."""
    count = 0
    for code in range(k**n):
        word = []
        c = code
        for _ in range(n):
            word.append(c % k)
            c //= k
        if all(word != word[d:] + word[:d] for d in range(1, n)):
            count += 1
    assert count % n == 0
    return count // n


class TestGroupAlgebra:
    @pytest.mark.parametrize("name,dim", [("c2", 2), ("c2xc2", 4), ("q8", 8)])
    def test_dimensions(self, name, dim):
        alg = build_group_algebra(get_group(name), 2)
        assert alg.dim == dim
        assert alg.labels[0] == alg.group.identity

    def test_order_cap(self):
        with pytest.raises(ResourceBudgetError):
            build_group_algebra(HeisenbergMod(16), 2)  # order 4096 > default cap

    def test_infinite_group_rejected(self, z1):
        with pytest.raises(ContractError):
            build_group_algebra(z1, 2)


class TestAugLadder:
    def test_f2c2(self):
        lad = aug_ladder(build_group_algebra(get_group("c2"), 2))
        assert lad.graded_dims == [1, 1]
        assert lad.terminates_at_zero

    def test_f2c4(self):
        lad = aug_ladder(build_group_algebra(get_group("c4"), 2))
        assert [s.rank for s in lad.powers] == [4, 3, 2, 1, 0]
        assert lad.graded_dims == [1, 1, 1, 1]

    def test_f2_klein(self):
        lad = aug_ladder(build_group_algebra(get_group("c2xc2"), 2))
        assert lad.graded_dims == [1, 2, 1]

    def test_non_p_group_stabilizes_nonzero(self):
        lad = aug_ladder(build_group_algebra(get_group("c3"), 2))
        assert not lad.terminates_at_zero
        assert lad.stabilized_dim == 2  # |G| invertible: w is idempotent

    def test_power_products_contained(self):
        alg = build_group_algebra(get_group("q8"), 2)
        lad = aug_ladder(alg)
        w1, w2, w3 = lad.powers[1], lad.powers[2], lad.powers[3]
        # spot check w^1 * w^2 <= w^3 on basis products
        for u in w1.rows:
            for v in w2.rows:
                terms = {alg.labels[i]: int(c) for i, c in enumerate(v) if c}
                prod = alg.apply_right(u, terms)
                assert w3.contains_vector(prod)

    def test_graded_dims_sum_to_order_for_p_groups(self):
        for p, names in P_GROUP_NAMES.items():
            for name in names:
                g = get_group(name)
                lad = aug_ladder(build_group_algebra(g, p))
                assert sum(lad.graded_dims) == g.order


class TestJennings:
    def test_c2(self):
        assert jennings_series(get_group("c2"), 2).dims == [1]

    def test_c4(self):
        js = jennings_series(get_group("c4"), 2)
        assert js.dims == [1, 1]
        assert len(js.subgroups[1]) == 2  # <g^2>
        assert len(js.subgroups[2]) == 1

    def test_q8(self):
        assert jennings_series(get_group("q8"), 2).dims == [2, 1]

    def test_non_p_group_rejected(self):
        with pytest.raises(ContractError):
            jennings_series(get_group("c3"), 2)

    def test_quotients_elementary_abelian(self):
        js = jennings_series(get_group("d4"), 2)
        for a, b in zip(js.subgroups, js.subgroups[1:]):
            assert len(a) % len(b) == 0

    @pytest.mark.parametrize("p", [2, 3])
    def test_ladder_agreement_all_builtins(self, p):
        for name in P_GROUP_NAMES[p]:
            g = get_group(name)
            lad = aug_ladder(build_group_algebra(g, p))
            coeffs = jennings_hilbert_coeffs(jennings_series(g, p).dims, p)
            assert lad.graded_dims == coeffs, name

    def test_commutator_subgroup_matches_brute_force(self):
        # [G, G] as the normal closure of the commutators with the generators,
        # against the subgroup generated by every commutator [a, b]
        for name in ("d4", "q8", "heisenberg_mod_3"):
            g = get_group(name)
            elems = list(g.elements())
            brute = {g.mul(g.mul(g.inv(a), g.inv(b)), g.mul(a, b))
                     for a in elems for b in elems}
            while True:
                grown = brute | {g.mul(x, y) for x in brute for y in brute}
                if grown == brute:
                    break
                brute = grown
            gens = [g.multiply(g.identity, s) for s in g.generator_symbols]
            seeds = [g.mul(g.mul(g.inv(a), g.inv(c)), g.mul(a, c))
                     for a in elems for c in gens]
            assert filtration._normal_subgroup(g, seeds) == brute

    def test_normal_subgroup_is_the_normal_closure(self):
        # in D4 the normal closure of one reflection is {1, r^2, f, r^2 f}
        g = get_group("d4")
        closure = filtration._normal_subgroup(g, [(0, 1)])
        assert closure == {(0, 0), (2, 0), (0, 1), (2, 1)}
        assert filtration._normal_subgroup(g, []) == {g.identity}


class TestHilbertCoeffs:
    def test_single_factor(self):
        assert jennings_hilbert_coeffs([1], 2) == [1, 1]

    def test_q8_profile(self):
        assert jennings_hilbert_coeffs([2, 1], 2) == [1, 2, 2, 2, 1]

    def test_c4_profile(self):
        assert jennings_hilbert_coeffs([1, 1], 2) == [1, 1, 1, 1]

    def test_p3(self):
        # (1 + t + t^2)^2
        assert jennings_hilbert_coeffs([2], 3) == [1, 2, 3, 2, 1]

    def test_truncation(self):
        assert jennings_hilbert_coeffs([2, 1], 2, max_deg=2) == [1, 2, 2]


class TestMagnus:
    def test_single_letter(self):
        assert magnus_deg("x", 5) == 1

    def test_square_char_two(self):
        assert magnus_deg("xx", 2) == 2

    def test_commutator(self):
        assert magnus_deg("xyXY", 2) == 2

    def test_cube_char_three(self):
        assert magnus_deg("xxx", 3, trunc=6) == 3

    def test_trivial_word_exceeds_truncation(self):
        assert magnus_deg("xX", 2) is None

    def test_invariant_under_free_reduction(self):
        rng = random.Random(2)
        for _ in range(20):
            w = "".join(rng.choice("xyXY") for _ in range(6))
            padded = w[:3] + "yY" + w[3:]
            assert magnus_deg(w, 2, trunc=8) == magnus_deg(padded, 2, trunc=8)

    def test_invariant_under_conjugation(self):
        for w in ("xx", "xyXY", "xxyy"):
            conj = "y" + w + "Y"
            assert magnus_deg(w, 2, trunc=8) == magnus_deg(conj, 2, trunc=8)

    def test_rejects_unknown_letters(self):
        with pytest.raises(ContractError):
            magnus_deg("ab", 2)


class TestFreeGradedDims:
    def test_rank_one(self):
        assert free_graded_dims(1, 4, 2) == [1, 1, 1, 1, 1]

    def test_rank_two_char_two(self):
        assert free_graded_dims(2, 6, 2, trunc=7) == [1, 2, 4, 8, 16, 32, 64]

    def test_rank_three_char_three(self):
        assert free_graded_dims(3, 4, 3) == [1, 3, 9, 27, 81]


class TestWitt:
    def test_k2_first_eight(self):
        assert witt_ranks(2, 8) == [2, 1, 2, 3, 6, 9, 18, 30]

    def test_k3_degree_two(self):
        assert witt_ranks(3, 2) == [3, 3]

    @pytest.mark.parametrize("k", [2, 3])
    def test_matches_brute_force(self, k):
        assert witt_ranks(k, 8) == [aperiodic_word_count(k, n) for n in range(1, 9)]

    def test_needs_k_at_least_two(self):
        with pytest.raises(ContractError):
            witt_ranks(1, 3)


class TestRSGenerators:
    def test_f2c3_augmentation(self):
        alg = build_group_algebra(get_group("c3"), 2)
        aug = aug_ladder(alg).powers[1]
        s = alg.group.multiply(alg.group.identity, "s")
        gens = rs_generators(alg, aug, [s])
        assert right_ideal_closure(alg, gens) == aug

    def test_f3c3_squared_ideal(self):
        alg = build_group_algebra(get_group("c3"), 3)
        w2 = aug_ladder(alg).powers[2]
        s = alg.group.multiply(alg.group.identity, "s")
        gens = rs_generators(alg, w2, [s])
        assert right_ideal_closure(alg, gens) == w2

    def test_random_right_ideals_regenerate(self):
        rng = random.Random(0)
        alg = build_group_algebra(get_group("c2xc2"), 2)
        gens = alg.generator_elements()
        done = 0
        while done < 10:
            vec = np.array([rng.randrange(2) for _ in range(alg.dim)], dtype=np.int64)
            ideal = right_ideal_closure(alg, [vec])
            e = np.zeros(alg.dim, dtype=np.int64)
            e[0] = 1
            if not 0 < ideal.rank < alg.dim or ideal.contains_vector(e):
                continue
            done += 1
            out = rs_generators(alg, ideal, gens)
            assert right_ideal_closure(alg, out) == ideal

    def test_rejects_non_ideal(self):
        alg = build_group_algebra(get_group("c4"), 2)
        not_ideal = span(alg, [{alg.labels[1]: 1}])
        with pytest.raises(ContractError):
            rs_generators(alg, not_ideal, alg.generator_elements())

    def test_rejects_unit_in_ideal(self):
        alg = build_group_algebra(get_group("c4"), 2)
        whole = right_ideal_closure(alg, [np.eye(alg.dim, dtype=np.int64)[0]])
        with pytest.raises(ContractError):
            rs_generators(alg, whole, alg.generator_elements())

    @pytest.mark.parametrize("name", ["c2", "c4", "q8"])
    def test_step_bound_on_augmentation(self, name):
        alg = build_group_algebra(get_group(name), 2)
        aug = aug_ladder(alg).powers[1]
        ok, lhs, rhs = rs_step_bound(alg, aug, alg.generator_elements())
        assert ok and lhs <= rhs

    @pytest.fixture
    def calls(self, monkeypatch):
        """Counts of the right-ideal check and the identity-last echelon."""
        calls = {"is_right_ideal": 0, "_identity_last_echelon": 0}
        for name in calls:
            def counted(*args, _fn=getattr(filtration, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(filtration, name, counted)
        return calls

    def test_generators_and_bound_share_one_echelon(self, calls):
        alg = build_group_algebra(get_group("q8"), 2)
        ideal = aug_ladder(alg).powers[2]
        gens = alg.generator_elements()
        rs_generators(alg, ideal, gens)
        rs_step_bound(alg, ideal, gens)
        assert calls == {"is_right_ideal": 1, "_identity_last_echelon": 1}

    def test_rs_check_echelonizes_each_ideal_at_most_once(self, calls, tmp_path):
        # consecutive equal ideals share one echelon too
        assert main(["rs-check", "--group", "q8", "--p", "2", "--ideals", "6",
                     "--out", str(tmp_path / "rs.json")]) == 0
        assert 1 <= calls["is_right_ideal"] == calls["_identity_last_echelon"] <= 6

    def test_step_bound_equality_at_c2(self):
        alg = build_group_algebra(get_group("c2"), 2)
        aug = aug_ladder(alg).powers[1]
        ok, lhs, rhs = rs_step_bound(alg, aug, alg.generator_elements())
        assert ok and lhs == rhs == 1


class TestGrowthReport:
    def test_geometric(self):
        rep = growth_report([1, 2, 4, 8, 16])
        assert rep.fekete_estimate == 2.0
        assert rep.submultiplicativity_violations == []

    def test_flat(self):
        rep = growth_report([1, 1, 1, 1])
        assert rep.fekete_estimate == 1.0

    def test_argmin_is_last_among_ties(self):
        rep = growth_report([1, 2, 4])
        assert rep.fekete_argmin == 2

    def test_violations_detected(self):
        rep = growth_report([1, 1, 5])
        assert (1, 1) in rep.submultiplicativity_violations

    def test_heisenberg_quotient_profile(self):
        dims = graded_dims_via_jennings(HeisenbergMod(8), 2)
        rep = growth_report(dims)
        assert rep.submultiplicativity_violations == []
        assert rep.fekete_estimate <= 1.35
        assert rep.fekete_argmin == len(dims) - 1

    def test_rejects_empty(self):
        with pytest.raises(ContractError):
            growth_report([])


class TestQuotientAgreement:
    def test_z_mod_levels(self):
        ladders = []
        for m in (4, 8):
            alg = build_group_algebra(ZdMod(1, m), 2)
            ladders.append(aug_ladder(alg).graded_dims)
        prefix = quotient_agreement_dims(ladders)
        assert prefix == [1] * 4
        # the infinite group's filtration has all graded dims 1
        assert set(prefix) == {1}

    def test_heisenberg_levels_agree_on_prefix(self):
        l1 = graded_dims_via_jennings(HeisenbergMod(4), 2)
        l2 = graded_dims_via_jennings(HeisenbergMod(8), 2)
        prefix = quotient_agreement_dims([l1, l2])
        assert len(prefix) >= 3
        assert prefix[:3] == l2[:3]


class TestJenningsAtScale:
    def test_heisenberg_mod_32_profile(self):
        js = jennings_series(HeisenbergMod(32), 2)
        compact = {n + 1: d for n, d in enumerate(js.dims) if d}
        assert compact == {1: 2, 2: 3, 4: 3, 8: 3, 16: 3, 32: 1}

    def test_heisenberg_mod_32_dims_sum(self):
        dims = graded_dims_via_jennings(HeisenbergMod(32), 2)
        assert sum(dims) == 32**3
        assert len(dims) == 125


def congruence_cases(max_order: int):
    """(family, m, p) for every congruence quotient of Z, Z^2, Z^3 and the
    Heisenberg group of order at most max_order, at levels of the bases 2,
    3, 4, 6, 10 and 12, and for p = 2, 3, 5."""
    cases = set()
    for name in ("z", "z2", "z3", "heisenberg"):
        oracle = get_group(name)
        for base in (2, 3, 4, 6, 10, 12):
            m = base
            while congruence_quotient(oracle, m).size() <= max_order:
                cases.update((name, m, p) for p in (2, 3, 5))
                m *= base
    return sorted(cases)


class TestCongruenceGradedDims:
    """Jennings' formula on the p-part of each congruence quotient against
    the dense ladder on the whole quotient: every case up to order 256, and
    the two non-cyclic 2-groups of order 512.  Larger quotients take seconds
    to minutes on the ladder, and Z/1024 at p = 2 holds gigabytes of powers."""

    @pytest.mark.parametrize("name,m,p", congruence_cases(256)
                             + [("heisenberg", 8, 2), ("z3", 8, 2)])
    def test_matches_ladder(self, name, m, p):
        oracle = get_group(name)
        finite = congruence_quotient(oracle, m).finite
        ladder = aug_ladder(build_group_algebra(finite, p)).graded_dims
        assert congruence_graded_dims(oracle, m, p) == ladder

    def test_checks_run_modulus_cap_prime(self):
        z = get_group("z")
        with pytest.raises(ContractError):  # modulus before cap
            congruence_graded_dims(z, 1, 2, max_order=0)
        with pytest.raises(ResourceBudgetError):  # cap before prime
            congruence_graded_dims(z, 4, 4, max_order=3)
        with pytest.raises(ContractError):
            congruence_graded_dims(z, 4, 4)
