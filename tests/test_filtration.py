import itertools
import json
import math
import random
import signal
from contextlib import contextmanager

import numpy as np
import pytest

from gradedgrowth import filtration, tiling
from gradedgrowth.cli import main
from gradedgrowth.errors import ContractError, ResourceBudgetError
from gradedgrowth.filtration import (aug_ladder, build_group_algebra, free_graded_dims,
                                     graded_dims_via_jennings, group_graded_dims,
                                     growth_report, jennings_hilbert_coeffs,
                                     jennings_series, is_augmentation_unit, magnus_deg,
                                     magnus_series, right_ideal_closure,
                                     rs_generators, rs_step_bound, witt_ranks)
from gradedgrowth.groups import Cyclic, GroupOracle, HeisenbergMod, ZdMod
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


@contextmanager
def within_one_second():
    """Fail the block, instead of hanging, if it runs for a second."""
    def expire(signum, frame):
        raise AssertionError("still running after 1 s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestGroupAlgebra:
    @pytest.mark.parametrize("name,dim", [("c2", 2), ("c2xc2", 4), ("q8", 8)])
    def test_dimensions(self, name, dim):
        alg = build_group_algebra(get_group(name), 2)
        assert alg.dim == dim
        assert alg.labels[0] == alg.oracle.identity

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
        assert lad.power_dims[-1] == 0

    def test_f2c4(self):
        lad = aug_ladder(build_group_algebra(get_group("c4"), 2))
        assert [s.rank for s in lad.powers] == [4, 3, 2, 1, 0]
        assert lad.graded_dims == [1, 1, 1, 1]

    def test_f2_klein(self):
        lad = aug_ladder(build_group_algebra(get_group("c2xc2"), 2))
        assert lad.graded_dims == [1, 2, 1]

    def test_non_p_group_stabilizes_nonzero(self):
        lad = aug_ladder(build_group_algebra(get_group("c3"), 2))
        assert lad.power_dims[-1] == 2  # |G| invertible: w is idempotent

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

    def test_non_p_group_descends_to_p_residual(self):
        # 2 does not divide |C3|, so O^2(C3) = C3 and the series stops there
        c3 = get_group("c3")
        js = jennings_series(c3, 2)
        assert js.subgroups == [frozenset(c3.elements())]
        assert js.dims == []

    @pytest.mark.parametrize("p", [0, 1, 4])
    def test_non_prime_rejected(self, p):
        # p = 1 used to loop for ever in the search for the p-part of |G|
        with pytest.raises(ContractError):
            jennings_series(get_group("c4"), p)

    @pytest.mark.parametrize("p", [0, 1, 4])
    def test_p_residual_rejects_non_prime(self, p):
        # p = 1 looped for ever in the search for the p-part of |G|; p = 0
        # divided by zero
        with within_one_second(), pytest.raises(ContractError):
            filtration.p_residual(get_group("c4"), p)

    @pytest.mark.parametrize("n,p", [(12, 2), (12, 3), (3, 2)])
    def test_series_stuck_above_its_bottom_rejected(self, n, p):
        # O^p(C_n) is C3, C4 and C3 here, so the p-central series stops
        # there and never reaches the trivial group; it used to loop for ever
        g = Cyclic(n)
        with within_one_second(), pytest.raises(ContractError):
            filtration._p_central_series(g, p, frozenset([g.identity]))

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
            assert filtration._normal_closure(g, seeds)[0] == brute

    def test_normal_subgroup_is_the_normal_closure(self):
        # in D4 the normal closure of one reflection is {1, r^2, f, r^2 f}
        g = get_group("d4")
        closure = filtration._normal_closure(g, [(0, 1)])[0]
        assert closure == {(0, 0), (2, 0), (0, 1), (2, 1)}
        assert filtration._normal_closure(g, [])[0] == {g.identity}


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

    @pytest.mark.parametrize("p", [0, 4, -3, 65537])
    def test_non_prime_rejected(self, p):
        with pytest.raises(ContractError, match="p < 2"):
            magnus_series("xyXY", p)


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
        s = alg.oracle.multiply(alg.oracle.identity, "s")
        gens = rs_generators(alg, aug, [s])
        assert right_ideal_closure(alg, gens) == aug

    def test_f3c3_squared_ideal(self):
        alg = build_group_algebra(get_group("c3"), 3)
        w2 = aug_ladder(alg).powers[2]
        s = alg.oracle.multiply(alg.oracle.identity, "s")
        gens = rs_generators(alg, w2, [s])
        assert right_ideal_closure(alg, gens) == w2

    def test_random_right_ideals_regenerate(self):
        rng = random.Random(0)
        alg = build_group_algebra(get_group("c2xc2"), 2)
        gens = alg.oracle.generators.values()
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
            rs_generators(alg, not_ideal, alg.oracle.generators.values())

    def test_rejects_unit_in_ideal(self):
        alg = build_group_algebra(get_group("c4"), 2)
        whole = right_ideal_closure(alg, [np.eye(alg.dim, dtype=np.int64)[0]])
        with pytest.raises(ContractError):
            rs_generators(alg, whole, alg.oracle.generators.values())

    @pytest.mark.parametrize("name", ["c2", "c4", "q8"])
    def test_step_bound_on_augmentation(self, name):
        alg = build_group_algebra(get_group(name), 2)
        aug = aug_ladder(alg).powers[1]
        ok, lhs, rhs = rs_step_bound(alg, aug, alg.oracle.generators.values())
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
        gens = alg.oracle.generators.values()
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
        ok, lhs, rhs = rs_step_bound(alg, aug, alg.oracle.generators.values())
        assert ok and lhs == rhs == 1


def reference_rs_check(group: str, p: int, ideals: int, seed: int) -> dict:
    """rs-check's payload as its loop computed it before the augmentation
    test: one right-ideal closure for every draw."""
    alg = build_group_algebra(get_group(group), p)
    rng = random.Random(seed)
    gens = alg.oracle.generators.values()
    results = []
    produced = 0
    attempts = 0
    while produced < ideals and attempts < 200 * ideals:
        attempts += 1
        vec = [rng.randrange(p) for _ in range(alg.dim)]
        ideal = right_ideal_closure(alg, [vec])
        if not 0 < ideal.rank < alg.dim:
            continue
        produced += 1
        ideal_gens = rs_generators(alg, ideal, gens)
        bound_ok, lhs, rhs = rs_step_bound(alg, ideal, gens)
        results.append({
            "rank": ideal.rank,
            "generators": len(ideal_gens),
            "regenerates": right_ideal_closure(alg, ideal_gens) == ideal,
            "step_bound_holds": bool(bound_ok),
            "dim_I_mod_Iw": lhs,
            "dim_complement_intersection": rhs,
        })
    return {
        "config": {"command": "rs-check", "group": group, "p": p,
                   "ideals": ideals, "seed": seed},
        "ideals_tested": produced,
        "all_regenerate": all(r["regenerates"] for r in results),
        "all_bounds_hold": all(r["step_bound_holds"] for r in results),
        "results": results,
    }


class TestAugmentationUnit:
    """is_augmentation_unit fires exactly when the closure of one vector is
    the whole algebra, on p-groups, and never on other groups."""

    @pytest.mark.parametrize("group,p", [
        (get_group("c2"), 2), (get_group("c4"), 2), (get_group("q8"), 2),
        (get_group("c2xc2"), 2), (get_group("d4"), 2), (get_group("c3"), 3),
        (get_group("c9"), 3), (get_group("c3xc3"), 3),
        (get_group("heisenberg_mod_3"), 3), (Cyclic(5), 5),
    ], ids=lambda x: getattr(x, "name", str(x)))
    def test_fires_iff_closure_is_whole(self, group, p):
        alg = build_group_algebra(group, p)
        rng = random.Random(p * 1000 + alg.dim)
        fired = 0
        for _ in range(50):
            vec = [rng.randrange(p) for _ in range(alg.dim)]
            whole = right_ideal_closure(alg, [vec]).rank == alg.dim
            assert is_augmentation_unit(alg, vec) is whole
            fired += whole
        assert 0 < fired < 50

    @pytest.mark.parametrize("name,p", [("c2xc2", 3), ("c3", 2), ("c3", 5)])
    def test_never_fires_off_p_groups(self, name, p):
        alg = build_group_algebra(get_group(name), p)
        rng = random.Random(7)
        for _ in range(50):
            vec = [rng.randrange(p) for _ in range(alg.dim)]
            assert not is_augmentation_unit(alg, vec)
        assert not is_augmentation_unit(alg, [1] + [0] * (alg.dim - 1))

    @pytest.mark.parametrize("name,p", [("q8", 2), ("heisenberg_mod_3", 3),
                                        ("c2xc2", 3), ("c3", 2)])
    @pytest.mark.parametrize("seed", range(5))
    def test_rs_check_matches_reference(self, name, p, seed, tmp_path):
        out = tmp_path / "rs.json"
        assert main(["rs-check", "--group", name, "--p", str(p), "--ideals", "5",
                     "--seed", str(seed), "--out", str(out)]) == 0
        assert json.loads(out.read_text()) == reference_rs_check(name, p, 5, seed)


class TestGrowthReport:
    def test_geometric(self):
        rep = growth_report([1, 2, 4, 8, 16])
        assert rep["fekete_estimate"] == 2.0
        assert rep["submultiplicativity_violations"] == []

    def test_flat(self):
        rep = growth_report([1, 1, 1, 1])
        assert rep["fekete_estimate"] == 1.0

    def test_argmin_is_last_among_ties(self):
        rep = growth_report([1, 2, 4])
        assert rep["fekete_argmin"] == 2

    def test_violations_detected(self):
        rep = growth_report([1, 1, 5])
        assert (1, 1) in rep["submultiplicativity_violations"]

    def test_heisenberg_quotient_profile(self):
        dims = graded_dims_via_jennings(HeisenbergMod(8), 2)
        rep = growth_report(dims)
        assert rep["submultiplicativity_violations"] == []
        assert rep["fekete_estimate"] <= 1.35
        assert rep["fekete_argmin"] == len(dims) - 1

    def test_rejects_empty(self):
        with pytest.raises(ContractError):
            growth_report([])

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_the_record_it_replaced(self, seed):
        # dims with ties, zeros and violations, against the loop that filled
        # the GrowthReport record, rounded as growth printed that record
        rng = random.Random(seed)
        for _ in range(100):
            dims = [1] + [rng.choice([0, 1, 2, 3, 4, 8, 9]) for _ in range(rng.randrange(9))]
            assert growth_report(dims) == reference_growth_report(dims)


def reference_growth_report(dims):
    roots, best, argmin = [], None, 0
    for n in range(1, len(dims)):
        if dims[n] <= 0:
            break
        root = dims[n] ** (1.0 / n)
        roots.append(root)
        if best is None or root <= best:
            best, argmin = root, n
    violations = [(m, n) for m in range(1, len(dims)) for n in range(m, len(dims) - m)
                  if dims[m] * dims[n] < dims[m + n]]
    fit = None
    pts = [(math.log(n), math.log(dims[n])) for n in range(2, len(dims)) if dims[n] > 0]
    if len(pts) >= 2:
        xs, ys = [x for x, _ in pts], [y for _, y in pts]
        xbar, ybar = sum(xs) / len(xs), sum(ys) / len(ys)
        den = sum((x - xbar) ** 2 for x in xs)
        fit = sum((x - xbar) * (y - ybar) for x, y in pts) / den if den else None
    return {"nth_roots": [round(r, 12) for r in roots],
            "fekete_estimate": round(best if best is not None else 1.0, 12),
            "fekete_argmin": argmin,
            "poly_degree_fit": None if fit is None else round(fit, 12),
            "submultiplicativity_violations": violations}


def quotient_agreement_dims(ladders: list[list[int]]) -> list[int]:
    """Reference: the common prefix of graded dims across quotient levels,
    which growth printed before it read one quotient below degree m_p."""
    if not ladders:
        return []
    prefix = []
    for vals in zip(*ladders):
        if all(v == vals[0] for v in vals):
            prefix.append(vals[0])
        else:
            break
    return prefix


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


def p_part(m: int, p: int) -> int:
    """The largest power of p dividing m."""
    q = 1
    while m % (q * p) == 0:
        q *= p
    return q


def congruence_graded_dims(oracle, m: int, p: int) -> list[int]:
    """Reference: graded dims of GF(p)Q for the level-m congruence quotient
    Q, (Z/m)^d or Heisenberg over Z/m, by Jennings' formula on its p-part,
    the same group over Z/m_p: Q = P x R with #R prime to p, and the
    augmentation ideal of GF(p)R is idempotent, so only P counts.  growth
    read these below degree m_p before it read the Euler product of the
    lower central ranks."""
    m_p = p_part(m, p)
    return ([1] if m_p == 1 else
            graded_dims_via_jennings(congruence_quotient(oracle, m_p).finite, p))


def agreement_cases(max_order: int):
    """(family, base, level, p) for levels 1-3 of Z, Z^2, Z^3 and the
    Heisenberg group in the bases 2, 3, 4, 6 and 10, at p = 2, 3, 5, where
    the next level's quotient has order at most max_order."""
    cases = []
    for name in ("z", "z2", "z3", "heisenberg"):
        oracle = get_group(name)
        for base in (2, 3, 4, 6, 10):
            for level in (1, 2, 3):
                if congruence_quotient(oracle, base ** (level + 1)).size() <= max_order:
                    cases.extend((name, base, level, p) for p in (2, 3, 5))
    return cases


class TestAgreementPrefixIsExact:
    """The agreement prefix of levels m and m * base, which growth once
    printed, is the level-m dims cut at degree m_p, the largest power of p
    dividing m: the degree bound below which a congruence quotient's dims
    are the group's, and what group_graded_dims returns."""

    @pytest.mark.parametrize("name,base,level,p", agreement_cases(5000))
    def test_prefix_is_the_lower_level_below_m_p(self, name, base, level, p):
        oracle = get_group(name)
        m = base**level
        lo = congruence_graded_dims(oracle, m, p)
        hi = congruence_graded_dims(oracle, m * base, p)
        prefix = quotient_agreement_dims([lo, hi])
        assert prefix == lo[:p_part(m, p)]
        assert group_graded_dims(oracle, m, p, max_order=5000) == prefix


class TestGrowthReadsNoQuotient:
    def test_growth_computes_no_jennings_series(self, monkeypatch, tmp_path):
        """growth on Z^d and Heisenberg builds no congruence quotient and no
        Jennings series: with both routes raising, it prints the dims."""
        def unreachable(*args):
            raise AssertionError("growth on Z^d or Heisenberg left the product")
        monkeypatch.setattr(filtration, "graded_dims_via_jennings", unreachable)
        monkeypatch.setattr(tiling, "congruence_quotient", unreachable)
        for group, args, dims in [
                ("heisenberg", [], [(n + 2) ** 2 // 4 for n in range(4)]),
                ("heisenberg", ["--quotient-level", "4", "--max-order", "4096"],
                 [(n + 2) ** 2 // 4 for n in range(16)]),
                ("z2", ["--quotient-level", "3"], [n + 1 for n in range(8)])]:
            out = tmp_path / "g.json"
            assert main(["growth", "--group", group, "--p", "2", "--format", "json",
                         "--out", str(out)] + args) == 0
            assert json.loads(out.read_text())["graded_dims"] == dims


class Unitriangular4(GroupOracle):
    """UT_4 over Z/m, or over Z when m is None, as the entries (a12, a23,
    a34, a13, a24, a14) above the diagonal; generated by the elementary
    matrices of a12, a23 and a34.  Over Z its lower central layers are free
    abelian of ranks 3, 2 and 1."""

    lower_central_ranks = (3, 2, 1)

    def __init__(self, m=None):
        self.m = m
        self.order = None if m is None else m**6
        self.name = "ut4" if m is None else f"ut4_mod_{m}"
        self.generators = {}
        for i, s in enumerate("abc"):
            e = tuple(int(j == i) for j in range(6))
            self.generators.update({s: e, s.upper(): self.inv(e)})

    @property
    def identity(self):
        return (0,) * 6

    def _reduce(self, g):
        return g if self.m is None else tuple(x % self.m for x in g)

    def mul(self, g, h):
        a12, a23, a34, a13, a24, a14 = g
        b12, b23, b34, b13, b24, b14 = h
        return self._reduce((a12 + b12, a23 + b23, a34 + b34, a13 + b13 + a12 * b23,
                             a24 + b24 + a23 * b34, a14 + b14 + a12 * b24 + a13 * b34))

    def inv(self, g):
        a12, a23, a34, a13, a24, a14 = g
        c24 = a23 * a34 - a24
        return self._reduce((-a12, -a23, -a34, a12 * a23 - a13, c24,
                             a13 * a34 - a12 * c24 - a14))

    def elements(self):
        return itertools.product(range(self.m), repeat=6)


class TestEulerProduct:
    """group_graded_dims, the Euler product of the lower central ranks,
    against Jennings' series of a congruence quotient below degree m."""

    def test_unitriangular_group_below_degree_8(self):
        # UT_4(Z/8), of order 8^6 = 262,144: its Jennings series takes about
        # a second; the congruence kernel is generated by 8th powers
        finite = Unitriangular4(8)
        g = finite.normalize("abcBa")
        assert finite.mul(g, finite.inv(g)) == finite.mul(finite.inv(g), g) == finite.identity
        dims = group_graded_dims(Unitriangular4(), 8, 2, max_order=finite.order)
        assert dims == graded_dims_via_jennings(finite, 2)[:8]
        assert dims == [1, 3, 8, 17, 33, 58, 97, 153]


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
    to minutes on the ladder, and Z/1024 at p = 2 is over the ladder's byte cap."""

    @pytest.mark.parametrize("name,m,p", congruence_cases(256)
                             + [("heisenberg", 8, 2), ("z3", 8, 2)])
    def test_matches_ladder(self, name, m, p):
        oracle = get_group(name)
        finite = congruence_quotient(oracle, m).finite
        ladder = aug_ladder(build_group_algebra(finite, p)).graded_dims
        assert congruence_graded_dims(oracle, m, p) == ladder
        assert group_graded_dims(oracle, m, p) == ladder[:p_part(m, p)]

    def test_checks_run_modulus_cap_prime(self):
        z = get_group("z")
        with pytest.raises(ContractError, match="modulus"):  # modulus before ranks
            group_graded_dims(get_group("free2"), 1, 2, max_order=0)
        with pytest.raises(ContractError, match="ranks"):  # ranks before cap
            group_graded_dims(get_group("free2"), 4, 4, max_order=0)
        with pytest.raises(ResourceBudgetError):  # cap, on m^h, before prime
            group_graded_dims(get_group("heisenberg"), 4, 4, max_order=63)
        with pytest.raises(ContractError):
            group_graded_dims(z, 4, 4)
