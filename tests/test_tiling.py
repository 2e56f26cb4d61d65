import dataclasses
import itertools
import json
from fractions import Fraction
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gradedgrowth.errors import ContractError, SearchFailedError
from gradedgrowth.groups import FreeAbelian, FreeGroup, Heisenberg, HeisenbergMod, ZdMod
from gradedgrowth.subspace import set_defect
from gradedgrowth.tiling import (GreedyFillResult, HeisenbergQuotient, QuotientSet,
                                 ThetaParams, TilingCertificate, ZdQuotient, _level_ok,
                                 build_transversal, congruence_quotient, folner_search,
                                 greedy_fill, inverse_envelope, pick_delta, pick_zeta,
                                 quotient_chain, theta, verify_certificate,
                                 worst_case_height)

K2 = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]


class TestInverseEnvelope:
    def test_interval(self, z1):
        assert inverse_envelope([(0,), (1,)], [(1,)], z1) == {(-1,), (0,)}

    def test_empty(self, z1):
        assert inverse_envelope([], [(1,)], z1) == set()

    def test_box_shift(self, z2):
        box = [(i, j) for i in range(3) for j in range(3)]
        shifted = inverse_envelope(box, [(1, 0)], z2)
        assert shifted == {(i - 1, j) for i in range(3) for j in range(3)}

    def test_union_distributivity(self, z2):
        a = [(0, 0), (2, 1)]
        b = [(1, 1)]
        k = [(1, 0), (0, 1)]
        l = [(0, -1)]
        lhs = inverse_envelope(a, k + l, z2)
        assert lhs == inverse_envelope(a, k, z2) | inverse_envelope(a, l, z2)
        lhs2 = inverse_envelope(a + b, k, z2)
        assert lhs2 == inverse_envelope(a, k, z2) | inverse_envelope(b, k, z2)

    def test_noncommutative_direction(self):
        h = Heisenberg()
        a = [(0, 0, 0)]
        k = [(1, 0, 0)]
        assert inverse_envelope(a, k, h) == {h.mul((0, 0, 0), h.inv((1, 0, 0)))}


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


class TestGreedyFill:
    def test_z8_hand_run(self, z1):
        # threshold delta * #K = 1.2 admits the 1-point overlap at center 3
        omega = congruence_quotient(z1, 8)
        k = [(0,), (1,), (2,), (3,)]
        res = greedy_fill(omega, set(), k, k, ThetaParams(Fraction(3, 10), Fraction(2)))
        assert res.centers == [(0,), (3,)]
        assert res.s == 2
        assert len(res.covered) == 7
        assert res.mu == Fraction(7, 8)
        assert res.maximality_ok

    def test_full_b_rejected(self, z1):
        omega = congruence_quotient(z1, 8)
        full = set(omega.elements)
        with pytest.raises(ContractError):
            greedy_fill(omega, full, [(0,), (1,)], [(0,)],
                        ThetaParams(Fraction(1, 4), Fraction(3, 2)))

    def test_perfect_box_packing(self, z2):
        omega = congruence_quotient(z2, 16)
        box = [(a, b) for a in range(4) for b in range(4)]
        res = greedy_fill(omega, set(), box, box,
                          ThetaParams(Fraction(1, 10), Fraction(2)))
        assert res.s == 16
        assert res.mu == 1
        assert len(res.covered) == 256
        assert res.mu_at_least_delta and res.coverage_identity_ok

    def test_b_outside_the_listing_rejected(self, z1):
        # (-1,) is the coset (7,) written another way; its index would be -1
        omega = congruence_quotient(z1, 8)
        with pytest.raises(ContractError):
            greedy_fill(omega, {(-1,)}, [(0,), (1,)], [(0,)],
                        ThetaParams(Fraction(1, 4), Fraction(3, 2)))

    def test_injectivity_precondition(self, z1):
        omega = congruence_quotient(z1, 4)
        with pytest.raises(ContractError):
            greedy_fill(omega, set(), [(0,), (4,)], [(0,)],
                        ThetaParams(Fraction(1, 4), Fraction(3, 2)))

    def test_tiles_partition_covered_growth(self, z1):
        omega = congruence_quotient(z1, 8)
        k = [(0,), (1,), (2,), (3,)]
        res = greedy_fill(omega, set(), k, k, ThetaParams(Fraction(3, 10), Fraction(2)))
        union = set()
        total = 0
        for t in res.tiles:
            union |= t
            total += len(t)
        assert union == res.covered
        assert total == len(res.covered)


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
        b = set(data.draw(st.lists(cosets, max_size=n - 1, unique=True)))
        # delta * #K is a multiple of 1/4, so overlaps hit the threshold exactly
        delta = Fraction(data.draw(st.integers(1, 4 * len(k) - 1)), 4 * len(k))
        zeta = data.draw(st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(4)]))
        params = ThetaParams(delta, zeta)
        nu = alpha = None
        if data.draw(st.booleans()):
            nu = Fraction(data.draw(st.sampled_from([len(b), n - 1])), n)
            alpha = Fraction(data.draw(st.integers(0, n - 1)), n)
        args = (omega, b, k, l, params, nu, alpha)
        fast, ref = _outcome(greedy_fill, *args), _outcome(reference_greedy_fill, *args)
        if isinstance(ref, tuple):
            assert fast == ref
            return
        for field in dataclasses.fields(GreedyFillResult):
            assert getattr(fast, field.name) == getattr(ref, field.name), field.name

    @pytest.mark.parametrize("omega", DIFFERENTIAL_QUOTIENTS, ids=lambda q: q.name)
    def test_indices_follow_the_listing(self, omega):
        assert list(omega.index(omega.elements)) == list(range(omega.size()))
        g = tuple(range(3, 3 + len(omega.elements[0])))
        acted = omega.act_indices(np.array(omega.elements), np.array([omega.project(g)]))
        assert list(acted[:, 0]) == list(omega.index([omega.act(x, g) for x in omega.elements]))


class TestRecipeConstants:
    def test_delta_for_acceptance_case(self):
        assert pick_delta(5, Fraction(1, 2)) == Fraction(1, 32)

    def test_zeta_for_acceptance_case(self):
        assert pick_zeta(Fraction(1, 32), 5, Fraction(1, 2)) == Fraction(65, 64)

    def test_height_cap(self):
        params = ThetaParams(Fraction(1, 32), Fraction(65, 64))
        assert worst_case_height(params, 5, Fraction(1, 2)) == 166


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


class TestBuildTransversal:
    def test_z_line(self, z1):
        cert = build_transversal(z1, [(0,), (1,), (-1,)], Fraction(1, 2))
        assert len(cert.transversal) == 2**cert.quotient_level
        assert cert.defect < Fraction(1, 2)
        omega = congruence_quotient(z1, 2**cert.quotient_level)
        checks, recount = verify_certificate(cert, z1, omega)
        assert all(checks.values())
        assert recount == cert.defect

    def test_z2_acceptance_shape(self, z2):
        cert = build_transversal(z2, K2, Fraction(1, 2))
        assert len(cert.transversal) == 4**cert.quotient_level
        assert cert.defect < Fraction(1, 2)
        for row in cert.trace:
            assert row["hypotheses_ok"]
            assert row["mu_at_least_delta"]
            assert row["coverage_identity_ok"]
            assert row["boundary_bound_ok"]

    def test_k_singleton_trivial(self, z1):
        cert = build_transversal(z1, [(0,)], Fraction(1, 2))
        assert cert.defect == 0

    def test_requires_identity(self, z1):
        with pytest.raises(ContractError):
            build_transversal(z1, [(1,), (-1,)], Fraction(1, 2))

    def test_chain_budget_failure(self, z2):
        with pytest.raises(SearchFailedError):
            build_transversal(z2, K2, Fraction(1, 2), max_quotients=2)

    def test_verification_catches_tampering(self, z1):
        cert = build_transversal(z1, [(0,), (1,), (-1,)], Fraction(1, 2))
        omega = congruence_quotient(z1, 2**cert.quotient_level)
        report, _ = verify_certificate(cert, z1, omega)
        assert report["projection_bijective"]
        tampered = cert.__class__(**{**cert.__dict__,
                                     "transversal": cert.transversal[:-1]})
        bad, _ = verify_certificate(tampered, z1, omega)
        assert not bad["projection_bijective"]

    def test_json_round_trip(self, z1):
        cert = build_transversal(z1, [(0,), (1,), (-1,)], Fraction(1, 2))
        assert cert.modulus == 2**cert.quotient_level
        payload = json.loads(json.dumps(cert.to_json()))
        assert TilingCertificate.from_json(payload) == cert
