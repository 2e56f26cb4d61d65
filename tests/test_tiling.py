import dataclasses
import hashlib
import itertools
import json
from fractions import Fraction
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gradedgrowth.cli import main
from gradedgrowth.errors import ContractError, SearchFailedError
from gradedgrowth.groups import FreeAbelian, FreeGroup, Heisenberg, HeisenbergMod, ZdMod, ball
from gradedgrowth.subspace import set_defect
from gradedgrowth.tiling import (GreedyFillResult, HeisenbergQuotient, QuotientSet,
                                 ThetaParams, ZdQuotient, _level_ok, boundary_bound_ok,
                                 build_transversal, congruence_quotient, cover,
                                 folner_search, covering_recipe, greedy_fill,
                                 pick_delta, pick_zeta, quotient_chain, theta,
                                 verify_certificate, verify_json, worst_case_height)
from gradedgrowth.serialize import frac_from_json, frac_json

K2 = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]


class TestTheta:
    def test_worked_example(self):
        p = ThetaParams(Fraction(1, 10), Fraction(6, 5))
        assert theta(p, Fraction(1, 10), 0, 0) == (Fraction(1, 10), Fraction(2, 15))

    def test_alpha_one_is_fixed(self):
        p = ThetaParams(Fraction(1, 10), Fraction(6, 5))
        nu, alpha = theta(p, Fraction(1, 2), Fraction(1, 3), 1)
        assert (nu, alpha) == (Fraction(1, 3), 1)

    def test_mu_below_delta_rejected(self):
        p = ThetaParams(Fraction(1, 4), Fraction(3, 2))
        with pytest.raises(ContractError):
            theta(p, Fraction(1, 8), 0, 0)

    @given(st.integers(1, 20), st.integers(0, 10), st.integers(0, 10))
    def test_monotone_in_mu(self, mu_num, nu_num, al_num):
        p = ThetaParams(Fraction(1, 32), Fraction(65, 64))
        mu1 = Fraction(1, 32) + Fraction(mu_num, 40)
        mu2 = mu1 + Fraction(1, 40)
        nu = Fraction(nu_num, 20)
        alpha = Fraction(al_num, 10)
        if alpha > 1:
            alpha = Fraction(1)
        a1 = theta(p, mu1, nu, alpha)
        a2 = theta(p, mu2, nu, alpha)
        assert a2[0] >= a1[0] and a2[1] >= a1[1]

    def test_fixed_ratio_along_worst_case_orbit(self):
        p = ThetaParams(Fraction(1, 32), Fraction(65, 64))
        nu, alpha = Fraction(0), Fraction(0)
        for _ in range(12):
            nu, alpha = theta(p, p.delta, nu, alpha)
            assert nu / alpha == (1 - p.delta) / p.zeta


class TestFolnerSearch:
    def test_z_interval(self, z1):
        k = [(1,), (-1,)]
        f = folner_search(z1, k, Fraction(1, 10))
        assert len(f) >= 20
        assert set_defect(f, k, z1) < Fraction(1, 10)

    def test_z2_bound_half(self, z2):
        f = folner_search(z2, K2, Fraction(1, 2))
        assert set_defect(f, K2, z2) < Fraction(1, 2)

    def test_box_ten_qualifies(self, z2):
        box = [(i, j) for i in range(10) for j in range(10)]
        assert set_defect(box, K2, z2) == Fraction(2, 5) < Fraction(1, 2)

    def test_free_group_fails_explicitly(self):
        f2 = FreeGroup(2)
        k = [f2.normalize(s) for s in "aAbB"]
        with pytest.raises(SearchFailedError):
            folner_search(f2, k, Fraction(1, 2), max_radius=8)

    def test_bad_bound(self, z1):
        with pytest.raises(ContractError):
            folner_search(z1, [(1,)], Fraction(0))


def mask_of(omega: QuotientSet, cosets) -> np.ndarray:
    """The region of a set of cosets, as the bool mask greedy_fill takes."""
    position = {c: i for i, c in enumerate(omega.elements)}
    region = np.zeros(omega.size(), dtype=bool)
    region[[position[c] for c in cosets]] = True
    return region


def cosets_of(omega: QuotientSet, region: np.ndarray) -> set:
    return {omega.elements[i] for i in np.flatnonzero(region)}


def assert_same_fill(omega: QuotientSet, level: Sequence, fast: GreedyFillResult,
                     ref: GreedyFillResult):
    """Every field of the mask-based pass against the set-based reference,
    the region and the carved tiles read as sets of cosets."""
    assert cosets_of(omega, fast.covered) == ref.covered
    carved = [{omega.act(x, g) for g in itertools.compress(level, kept)}
              for x, kept in zip(fast.centers, fast.tiles)]
    assert carved == ref.tiles
    for field in dataclasses.fields(GreedyFillResult):
        if field.name not in ("covered", "tiles"):
            assert getattr(fast, field.name) == getattr(ref, field.name), field.name


class TestGreedyFill:
    def test_z8_hand_run(self, z1):
        # threshold delta * #K = 1.2 admits the 1-point overlap at center 3
        omega = congruence_quotient(z1, 8)
        k = [(0,), (1,), (2,), (3,)]
        res = greedy_fill(omega, np.zeros(8, dtype=bool), k, k,
                          ThetaParams(Fraction(3, 10), Fraction(2)), Fraction(0))
        assert res.centers == [(0,), (3,)]
        assert res.s == 2
        assert np.count_nonzero(res.covered) == 7
        assert res.mu == Fraction(7, 8)
        assert res.maximality_ok
        # centre 3's tile {3, 4, 5, 6} keeps all but the coset 3
        assert [list(kept) for kept in res.tiles] == [[True] * 4, [False, True, True, True]]

    def test_full_b_rejected(self, z1):
        omega = congruence_quotient(z1, 8)
        with pytest.raises(ContractError, match="B may not exhaust"):
            greedy_fill(omega, np.ones(8, dtype=bool), [(0,), (1,)], [(0,)],
                        ThetaParams(Fraction(1, 4), Fraction(3, 2)), Fraction(0))

    def test_perfect_box_packing(self, z2):
        omega = congruence_quotient(z2, 16)
        box = [(a, b) for a in range(4) for b in range(4)]
        res = greedy_fill(omega, np.zeros(256, dtype=bool), box, box,
                          ThetaParams(Fraction(1, 10), Fraction(2)), Fraction(0))
        assert res.s == 16
        assert res.mu == 1
        assert res.covered.all()
        assert res.mu_at_least_delta and res.coverage_identity_ok

    def test_b_outside_the_listing_rejected(self, z1):
        # B is a bool mask over the 8 listed cosets and nothing else: not a
        # set of cosets ((-1,) is the coset (7,) written another way), not a
        # mask of another length, not a 0/1 array of integers
        omega = congruence_quotient(z1, 8)
        for region in ({(-1,)}, [False] * 8, np.zeros(7, dtype=bool),
                       np.zeros(9, dtype=bool), np.zeros((8, 1), dtype=bool),
                       np.zeros(8, dtype=np.int64)):
            with pytest.raises(ContractError, match="bool mask"):
                greedy_fill(omega, region, [(0,), (1,)], [(0,)],
                            ThetaParams(Fraction(1, 4), Fraction(3, 2)), Fraction(0))

    def test_injectivity_precondition(self, z1):
        omega = congruence_quotient(z1, 4)
        with pytest.raises(ContractError):
            greedy_fill(omega, np.zeros(4, dtype=bool), [(0,), (4,)], [(0,)],
                        ThetaParams(Fraction(1, 4), Fraction(3, 2)), Fraction(0))

    def test_tiles_partition_covered_growth(self, z1):
        omega = congruence_quotient(z1, 8)
        k = [(0,), (1,), (2,), (3,)]
        region = mask_of(omega, [(6,)])
        res = greedy_fill(omega, region, k, k, ThetaParams(Fraction(3, 10), Fraction(2)),
                          Fraction(1, 2))
        assert not region[7]  # the input region is left as it was
        carved = [{omega.act(x, g) for g in itertools.compress(k, kept)}
                  for x, kept in zip(res.centers, res.tiles)]
        union = set().union(*carved)
        assert union == cosets_of(omega, res.covered & ~region)
        assert sum(map(len, carved)) == np.count_nonzero(res.covered) - 1


# The set-based covering pass that greedy_fill replaced, kept verbatim as the
# reference the indexed scan is compared against.
def reference_greedy_fill(omega: QuotientSet, b: set, k: Sequence, l: Sequence,
                          params: ThetaParams, nu: Fraction | None = None,
                          alpha: Fraction | None = None) -> GreedyFillResult:
    """One covering pass with tiles xK over the quotient.

    Preconditions: the projection must be injective on K (checked; by
    cancellation this is equivalent to injectivity of k -> xk for every x),
    and the bookkeeping inputs nu = #B/#Omega, alpha must lie in [0, 1).
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

    threshold = params.delta * len(k)
    covered = set(b)
    centers = []
    tiles = []
    for x in omega.elements:
        tile = {omega.act(x, g) for g in k}
        if len(tile & covered) <= threshold:
            centers.append(x)
            tiles.append(tile - covered)
            covered |= tile
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
    maximality_ok = all(
        len({omega.act(x, g) for g in k} & covered) > threshold
        for x in omega.elements
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


DIFFERENTIAL_QUOTIENTS = [congruence_quotient(FreeAbelian(1), 16),
                          congruence_quotient(FreeAbelian(2), 8),
                          congruence_quotient(Heisenberg(), 2),
                          congruence_quotient(Heisenberg(), 4)]


def _lift(omega, coset, data):
    """A group element over the coset: each coordinate moved by a multiple of m."""
    return tuple(a + omega.m * data.draw(st.integers(-2, 2)) for a in coset)


def _outcome(fill, *args):
    try:
        return fill(*args)
    except ContractError as exc:
        return ("ContractError", str(exc))


class TestGreedyFillDifferential:
    @given(st.data())
    def test_matches_set_based_reference(self, data):
        omega = data.draw(st.sampled_from(DIFFERENTIAL_QUOTIENTS))
        n = omega.size()
        cosets = st.sampled_from(omega.elements)
        k_cosets = data.draw(st.lists(cosets, min_size=1, max_size=max(1, n // 3),
                                      unique=True))
        k = [_lift(omega, c, data) for c in k_cosets]
        l = [_lift(omega, c, data) for c in data.draw(st.lists(cosets, max_size=6))]
        b = set(data.draw(st.lists(cosets, max_size=n, unique=True)))
        # delta * #K is a multiple of 1/4, so overlaps hit the threshold exactly
        delta = Fraction(data.draw(st.integers(1, 4 * len(k) - 1)), 4 * len(k))
        zeta = data.draw(st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(4)]))
        params = ThetaParams(delta, zeta)
        if data.draw(st.booleans()):
            alpha = Fraction(data.draw(st.integers(0, n - 1)), n)
        else:  # max(#(BK*), #(BL*)) / #Omega, which may reach 1
            alpha = Fraction(max(len({omega.act(c, omega.oracle.inv(x)) for c in b for x in xs})
                                 for xs in (k, l)), n)
        fast = _outcome(greedy_fill, omega, mask_of(omega, b), k, l, params, alpha)
        ref = _outcome(reference_greedy_fill, omega, b, k, l, params, Fraction(len(b), n), alpha)
        if isinstance(ref, tuple):
            assert fast == ref
            return
        assert_same_fill(omega, k, fast, ref)

    @pytest.mark.parametrize("omega", DIFFERENTIAL_QUOTIENTS, ids=lambda q: q.name)
    def test_indices_follow_the_listing(self, omega):
        assert list(omega.index(omega.elements)) == list(range(omega.size()))
        g = tuple(range(3, 3 + len(omega.elements[0])))
        acted = omega.act_indices(np.arange(omega.size()), np.array([omega.project(g)]))
        assert list(acted[:, 0]) == list(omega.index([omega.act(x, g) for x in omega.elements]))


# The covering loop that `cover` replaced in the transversal pipeline, kept
# verbatim from `_attempt_quotient` with its candidate scan as `next_level`;
# it runs the set-based reference pass.
def reference_cover(omega, k, params, t_cap, target, next_level):
    tower: list[list] = []
    b: set = set()
    nu, alpha = Fraction(0), Fraction(0)
    fills = []
    for u in range(1, t_cap + 1):
        if alpha >= 1 or nu > target:
            break
        level_set = next_level(tower)
        tower.append(level_set)
        res = reference_greedy_fill(omega, b, level_set, k, params, nu, alpha)
        fills.append(res)
        b = res.covered
        nu, alpha = res.nu_out, res.alpha_out
        if res.mu >= 1:
            break
    return tower, fills


class TestCoverLevels:
    """`cover` through more than one tower level: on Z^2/8Z^2 the 13-point
    diamonds leave 12 cosets that no radius-1 diamond fits into without
    overlap, so the identity level finishes the cover."""

    @pytest.mark.parametrize("epsilon", [Fraction(1, 2), Fraction(1)], ids=str)
    def test_three_levels_match_the_reference(self, z2, epsilon):
        k = ball(z2, 1).elements
        levels = [ball(z2, 2).elements, k, [z2.identity]]
        omega = congruence_quotient(z2, 8)
        args = (omega, k, *covering_recipe(len(k), epsilon), lambda tower: levels[len(tower)])
        tower, fills = cover(*args)
        ref_tower, ref_fills = reference_cover(*args)
        assert tower == ref_tower == levels
        assert [res.s for res in fills] == [4, 0, 12]
        assert [res.nu_out for res in fills] == [Fraction(13, 16), Fraction(13, 16), 1]
        assert len(fills) == len(ref_fills)
        for level, got, want in zip(levels, fills, ref_fills):
            assert_same_fill(omega, level, got, want)


def reference_worst_case_height(params: ThetaParams, k_size: int, epsilon: Fraction) -> int:
    """The step-by-step loop that the closed form replaced, kept verbatim."""
    target = 1 - epsilon / (2 * k_size)
    nu, alpha = Fraction(0), Fraction(0)
    for t in range(1, 10_001):
        nu, alpha = theta(params, params.delta, nu, min(alpha, Fraction(1)))
        if nu > target:
            return t
        if alpha >= 1:
            return t
    raise SearchFailedError("coverage bookkeeping did not reach the target")


# (#K, epsilon) with the recipe's delta >= 1/128, where the loop takes under
# a second, and one pair at delta = 1/256
HEIGHT_CASES = [(k, eps) for k in (1, 2, 3, 5, 8)
                for eps in map(Fraction, ["4", "2", "1", "3/4", "1/2", "1/3", "1/4",
                                          "1/8", "1/16"])
                if pick_delta(k, eps) >= Fraction(1, 128)] + [(5, Fraction(1, 16))]


class TestRecipeConstants:
    def test_delta_for_acceptance_case(self):
        assert pick_delta(5, Fraction(1, 2)) == Fraction(1, 32)

    def test_zeta_for_acceptance_case(self):
        assert pick_zeta(Fraction(1, 32), 5, Fraction(1, 2)) == Fraction(65, 64)

    def test_height_cap(self):
        params = ThetaParams(Fraction(1, 32), Fraction(65, 64))
        assert worst_case_height(params, 5, Fraction(1, 2)) == 166

    @pytest.mark.parametrize("k_size,epsilon", HEIGHT_CASES, ids=str)
    def test_height_matches_the_loop(self, k_size, epsilon):
        params = covering_recipe(k_size, epsilon)[0]
        assert (worst_case_height(params, k_size, epsilon)
                == reference_worst_case_height(params, k_size, epsilon))

    @pytest.mark.parametrize("epsilon,height", [(Fraction(1, 32), 4347),
                                                (Fraction(1, 64), 9429)])
    def test_tall_heights(self, epsilon, height):
        # the loop takes about 42 s and over 250 s for these two
        assert covering_recipe(5, epsilon)[1] == height

    def test_height_one_and_unreachable_targets(self):
        # c = delta zeta/(1 - delta) = 2: alpha reaches 1 at once
        assert worst_case_height(ThetaParams(Fraction(1, 2), Fraction(2)), 1,
                                 Fraction(1, 2)) == 1
        # nu_t stays below (1 - delta)/zeta = 3/8 < target = 3/4
        with pytest.raises(SearchFailedError):
            worst_case_height(ThetaParams(Fraction(1, 4), Fraction(2)), 1, Fraction(1, 2))
        # c = 2**-40: the target is reached only after about 2**40 steps
        with pytest.raises(SearchFailedError):
            worst_case_height(ThetaParams(Fraction(1, 2**40), Fraction(1)), 1,
                              Fraction(1, 2))


class TestCoveringCountsOnIndices:
    @pytest.mark.parametrize("argv,sha1", [
        (["tile", "--group", "z2", "--epsilon", "1/2"], "f0f9d23b0d38c83bb26180202866ccbdf633b016"),
        (["tile", "--group", "z", "--epsilon", "1/2"], "3383a083ccbf337df573544c6d314cb2b0f28e41"),
        (["tile-algebra-probe", "--p", "2", "--epsilon", "1/2"],
         "f51fc2211f1916d5e36ca0e6aee8c5d41e534de6"),
    ], ids=["tile-z2", "tile-z", "probe"])
    def test_no_command_calls_the_tuple_action(self, monkeypatch, capsys, argv, sha1):
        """greedy_fill and the lift count on coset indices: with every `act`
        binding raising, tile and the probe print the bytes recorded while
        they still called it."""
        def unreachable(self, coset, g):
            raise AssertionError("QuotientSet.act called")
        for cls in (QuotientSet, ZdQuotient, HeisenbergQuotient):
            monkeypatch.setattr(cls, "act", unreachable)
        assert main(argv) == 0
        assert hashlib.sha1(capsys.readouterr().out.encode()).hexdigest() == sha1


class TestQuotients:
    def test_zd_quotient_action(self, z2):
        q = congruence_quotient(z2, 4)
        assert q.act((3, 3), (1, 1)) == (0, 0)
        assert q.project((5, -1)) == (1, 3)
        assert q.section((2, 1)) == (2, 1)

    def test_heisenberg_quotient_action_well_defined(self):
        h = Heisenberg()
        q = congruence_quotient(h, 4)
        g = (1, 2, 3)
        n_rep = (4, 0, 0)  # lies in the kernel
        x = (0, 1, 0)
        assert q.act(q.project(x), g) == q.act(q.project(h.mul(n_rep, x)), g)

    def test_chain_generation(self, z1):
        levels = list(itertools.islice(quotient_chain(z1), 3))
        assert [q.size() for _, q in levels] == [2, 4, 8]

    def test_chain_unsupported_group(self):
        with pytest.raises(ContractError):
            list(quotient_chain(FreeGroup(2)))

    def test_congruence_quotient_families(self, z2):
        q = congruence_quotient(z2, 4)
        assert type(q) is ZdQuotient and q.name == "z2 mod 4"
        assert q.elements == list(ZdMod(2, 4).elements()) and q.size() == 16
        h = congruence_quotient(Heisenberg(), 4)
        assert type(h) is HeisenbergQuotient and h.name == "heisenberg mod 4"
        assert h.elements == list(HeisenbergMod(4).elements()) and h.size() == 64

    def test_congruence_quotient_unsupported_group(self):
        with pytest.raises(ContractError):
            congruence_quotient(FreeGroup(2), 4)


class TestTowerLevel:
    def test_level_checked_against_a_previous_level(self, z1):
        # a 16-interval passes the boundary bound against K = {0, +-1}; the
        # larger level [0, 64) then grows to the 79 points [-15, 64) under
        # the inverse envelope, within zeta = 2 but not zeta = 65/64
        omega = congruence_quotient(z1, 64)
        k = [(0,), (1,), (-1,)]
        candidate = [(i,) for i in range(16)]
        previous = [[(i,) for i in range(64)]]
        loose = ThetaParams(Fraction(1, 32), Fraction(2))
        tight = ThetaParams(Fraction(1, 32), Fraction(65, 64))
        assert _level_ok(z1, omega, candidate, k, Fraction(1, 2), loose, previous)
        assert not _level_ok(z1, omega, candidate, k, Fraction(1, 2), tight, previous)



def inverse_envelope(a, k, oracle) -> set:
    """{x : xK meets A} = A * {k^-1 : k in K}."""
    k_inv = [oracle.inv(x) for x in k]
    return {oracle.mul(g, x) for g in a for x in k_inv}


def reference_level_ok(oracle, omega, candidate, k, epsilon, params, previous) -> bool:
    """The tower-level test as it was written before it counted with
    set_defect: the boundary bound as the size of the product set K_i K,
    and almost-invariance through the inverse envelope of each earlier
    level."""
    grown = {oracle.mul(g, x) for g in candidate for x in k}
    if len(grown) > (1 + epsilon / 2) * (1 - params.delta) * len(candidate):
        return False
    if len({omega.project(g) for g in candidate}) != len(candidate):
        return False
    for prev in previous:
        envelope = inverse_envelope(prev, candidate, oracle)
        if Fraction(len(set(prev) | envelope)) >= params.zeta * len(prev):
            return False
    return True


def _draw_level_case(data, group):
    """A random tower-level test in Z^2 mod 8 or the Heisenberg group mod
    4: a candidate, K with the identity, up to two earlier levels and
    constants that make each branch of the test reachable."""
    d = 2 if isinstance(group, FreeAbelian) else 3
    point = st.tuples(*[st.integers(-4, 4)] * d)
    candidate = sorted(data.draw(st.sets(point, min_size=1, max_size=12)))
    k = sorted({group.identity} | data.draw(st.sets(point, max_size=3)))
    previous = [sorted(level) for level in
                data.draw(st.lists(st.sets(point, min_size=1, max_size=20), max_size=2))]
    epsilon = Fraction(data.draw(st.integers(1, 16)), 2)
    params = ThetaParams(Fraction(1, data.draw(st.integers(2, 32))),
                         Fraction(data.draw(st.integers(4, 24)), 4))
    return candidate, k, epsilon, params, previous


class TestLevelOkMatchesReference:
    """_level_ok and boundary_bound_ok count with set_defect; the old
    product-set and inverse-envelope counts stay here as the reference.
    The Heisenberg group is not commutative, so there K_i^-1 on the right
    and on the left differ."""

    @pytest.mark.parametrize("group,m", [(FreeAbelian(2), 8), (Heisenberg(), 4)],
                             ids=["z2", "heisenberg"])
    @settings(max_examples=150)
    @given(data=st.data())
    def test_random_sets(self, group, m, data):
        omega = congruence_quotient(group, m)
        candidate, k, epsilon, params, previous = _draw_level_case(data, group)
        want = reference_level_ok(group, omega, candidate, k, epsilon, params, previous)
        assert _level_ok(group, omega, candidate, k, epsilon, params, previous) == want
        grown = {group.mul(g, x) for g in candidate for x in k}
        assert (boundary_bound_ok(group, candidate, k, epsilon, params)
                == (len(grown) <= (1 + epsilon / 2) * (1 - params.delta) * len(candidate)))

    def test_fixed_cases_on_either_side(self):
        # one level on each side of the almost-invariance branch, in the
        # non-commutative group, so neither side of the lock is left undrawn
        h = Heisenberg()
        omega = congruence_quotient(h, 4)
        k = [h.identity, (1, 0, 0)]
        candidate = [(0, 0, 0), (1, 0, 0)]
        previous = [[(i, 0, 0) for i in range(4)]]
        loose = ThetaParams(Fraction(1, 32), Fraction(2))
        tight = ThetaParams(Fraction(1, 32), Fraction(5, 4))
        for params, ok in ((loose, True), (tight, False)):
            for level_ok in (_level_ok, reference_level_ok):
                assert level_ok(h, omega, candidate, k, Fraction(8), params, previous) is ok


class TestBuildTransversal:
    def test_z_line(self, z1):
        cert = build_transversal(z1, [(0,), (1,), (-1,)], Fraction(1, 2))
        assert len(cert["transversal"]) == 2**cert["quotient_level"]
        assert frac_from_json(cert["defect"]) < Fraction(1, 2)
        checks, recount = verify_certificate(cert, z1)
        assert all(checks.values())
        assert recount == frac_from_json(cert["defect"])

    def test_z2_acceptance_shape(self, z2):
        cert = build_transversal(z2, K2, Fraction(1, 2))
        assert len(cert["transversal"]) == 4**cert["quotient_level"]
        assert frac_from_json(cert["defect"]) < Fraction(1, 2)
        for row in cert["trace"]:
            assert row["hypotheses_ok"]
            assert row["mu_at_least_delta"]
            assert row["coverage_identity_ok"]
            assert row["boundary_bound_ok"]

    def test_k_singleton_trivial(self, z1):
        cert = build_transversal(z1, [(0,)], Fraction(1, 2))
        assert frac_from_json(cert["defect"]) == 0

    def test_requires_identity(self, z1):
        with pytest.raises(ContractError):
            build_transversal(z1, [(1,), (-1,)], Fraction(1, 2))

    def test_chain_budget_failure(self, z2):
        with pytest.raises(SearchFailedError):
            build_transversal(z2, K2, Fraction(1, 2), max_quotients=2)

    def test_verification_catches_tampering(self, z1):
        cert = build_transversal(z1, [(0,), (1,), (-1,)], Fraction(1, 2))
        report, _ = verify_certificate(cert, z1)
        assert report["projection_bijective"]
        tampered = {**cert, "transversal": cert["transversal"][:-1]}
        bad, _ = verify_certificate(tampered, z1)
        assert not bad["projection_bijective"]

    def test_verify_json_checks_k(self, z1):
        cert = build_transversal(z1, [(0,), (1,), (-1,)], Fraction(1, 2))
        payload = json.loads(json.dumps({**cert, "config": {"k_radius": 1}}))
        assert verify_json(payload)["matches"]
        payload["config"]["k_radius"] = 2  # K is not the radius-2 ball
        assert not verify_json(payload)["matches"]
        for radius in (1.0, None, "1"):
            payload["config"]["k_radius"] = radius
            with pytest.raises(ContractError, match="k_radius"):
                verify_json(payload)
        del payload["config"]["k_radius"]  # then K need only hold the identity
        payload.update(k=[[0]], defect=frac_json(0))
        assert verify_json(payload)["matches"]
        shifted = [(1,)]
        transversal = [tuple(g) for g in cert["transversal"]]
        payload.update(k=[[1]], defect=frac_json(set_defect(transversal, shifted, z1)))
        result = verify_json(payload)
        assert result.pop("matches") is False
        assert result.pop("defect_recount") == payload["defect"]
        assert all(ok is True for ok in result.values()), result

    def test_json_round_trip(self, z1):
        # the certificate is plain JSON, and names the chain base that fixes
        # its quotient's modulus, chain_base ** quotient_level
        cert = build_transversal(z1, [(0,), (1,), (-1,)], Fraction(1, 2), chain_base=3)
        assert json.loads(json.dumps(cert)) == cert
        assert cert["config"] == {"chain_base": 3}
        assert cert["omega_size"] == 3**cert["quotient_level"]
        assert cert["k"] == [[0], [1], [-1]]
        assert verify_certificate(cert, z1)[0]["projection_bijective"]
        del cert["config"]  # chain base 2 is not this certificate's
        assert not verify_certificate(cert, z1)[0]["projection_bijective"]
