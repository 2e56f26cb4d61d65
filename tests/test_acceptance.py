"""Acceptance suite: one test per criterion, each at its stated tolerance
and runtime bound.  Run with `pytest tests/test_acceptance.py -v` to get one
pass/fail line per criterion."""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from gradedgrowth.algebra_probe import algebra_tiling_probe
from gradedgrowth.filtration import (aug_ladder, build_group_algebra,
                                     free_graded_dims, graded_dims_via_jennings,
                                     growth_report, jennings_hilbert_coeffs,
                                     jennings_series, right_ideal_closure,
                                     rs_generators, rs_step_bound)
from gradedgrowth.groups import HeisenbergMod, ball, find_dead_ends, is_dead_end, \
    triangle_dead_end_family
from gradedgrowth.gs import GSPresentation, gs_certificate, gs_value, relator_degrees
from gradedgrowth.hecke import HeckeElement, crystal_monomial_check, delta, \
    hecke_mul, untwist
from gradedgrowth.registry import P_GROUP_NAMES, get_group, load_registry
from gradedgrowth.serialize import frac_from_json
from gradedgrowth.subspace import BallAmbient, invariance_defect, set_defect, span
from gradedgrowth.tiling import build_transversal, verify_certificate

import numpy as np

DATA = Path(__file__).parent / "data"


def test_criterion_01_jennings_cross_check():
    """Ladder dims equal the p-central-series product formula on all ten
    built-in p-groups, exactly; total runtime < 10 s."""
    start = time.monotonic()
    for p, names in P_GROUP_NAMES.items():
        for name in names:
            group = get_group(name)
            lad = aug_ladder(build_group_algebra(group, p))
            coeffs = jennings_hilbert_coeffs(jennings_series(group, p).dims, p)
            assert lad.graded_dims == coeffs, (name, p)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_02_free_group_gradedness():
    """free_graded_dims(k=2, n <= 6, p=2) is exactly [1,2,4,8,16,32,64],
    computed inside the degree-7 truncation; runtime < 30 s."""
    start = time.monotonic()
    dims = free_graded_dims(2, 6, 2, trunc=7)
    elapsed = time.monotonic() - start
    assert dims == [1, 2, 4, 8, 16, 32, 64]
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


@pytest.fixture(scope="module")
def hecke_groups():
    groups = {
        "z": get_group("z"),
        "z2": get_group("z2"),
        "lamplighter": get_group("lamplighter"),
        "t334": get_group("t334"),
    }
    balls = {name: ball(g, 18) for name, g in groups.items()}
    return groups, balls


def test_criterion_03_crystal_hecke_algebra(hecke_groups):
    """Exact associativity on 1000 random triples per group for
    lambda in {0, 1, 2} over GF(5); monomial property on full radius-5
    balls; untwist homomorphism on 500 random pairs."""
    groups, balls18 = hecke_groups
    p = 5
    rng = random.Random(0)
    for name, group in groups.items():
        b = balls18[name]
        supports = [g for g in b.elements if b.lengths[g] <= 6]
        for lam in (0, 1, 2):
            for _ in range(1000):
                g, h, k = (rng.choice(supports) for _ in range(3))
                dg = delta(group, b, p, lam, g)
                dh = delta(group, b, p, lam, h)
                dk = delta(group, b, p, lam, k)
                left = hecke_mul(hecke_mul(dg, dh), dk)
                right = hecke_mul(dg, hecke_mul(dh, dk))
                assert left == right, (name, lam, g, h, k)
    for name, group in groups.items():
        assert crystal_monomial_check(group, 5, p), name
    # untwist is multiplicative wherever lambda is invertible
    for name in ("z2", "lamplighter"):
        group = groups[name]
        b = balls18[name]
        supports = [g for g in b.elements if b.lengths[g] <= 6]
        for _ in range(250):
            terms_a = {rng.choice(supports): rng.randrange(1, 5) for _ in range(2)}
            terms_b = {rng.choice(supports): rng.randrange(1, 5) for _ in range(2)}
            a = HeckeElement(group, b, p, 2, terms_a)
            c = HeckeElement(group, b, p, 2, terms_b)
            assert untwist(hecke_mul(a, c)) == hecke_mul(untwist(a), untwist(c))


def test_criterion_04_dead_ends():
    """No dead ends in Z, Z^2, F2 up to radius 6; the lamplighter has them
    by radius 8; the triangle-group family members pass the dead-end check
    under the completed rewriting oracles; runtime < 60 s."""
    start = time.monotonic()
    for name in ("z", "z2", "free2"):
        assert find_dead_ends(get_group(name), 6) == [], name
    lamp_found = find_dead_ends(get_group("lamplighter"), 8)
    assert lamp_found
    t334 = get_group("t334")
    b334 = ball(t334, 9)
    for n in (1, 2):
        g = t334.normalize(triangle_dead_end_family(4, n))
        assert is_dead_end(t334, b334, g), n
    t335 = get_group("t335")
    b335 = ball(t335, 7)
    g5 = t335.normalize(triangle_dead_end_family(5, 1))
    assert is_dead_end(t335, b335, g5)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_05_tiling_certificate():
    """Transversal for Z^2, K = {0, +-e1, +-e2}, eps = 1/2, chain (2^m Z)^2:
    exact bijective lift verified independently, defect < 1/2, and every
    covering step satisfies mu >= delta plus the exact coverage/boundary
    bounds; runtime < 5 min."""
    start = time.monotonic()
    z2 = get_group("z2")
    k = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]
    cert = build_transversal(z2, k, Fraction(1, 2))
    assert frac_from_json(cert["defect"]) < Fraction(1, 2)
    for row in cert["trace"]:
        assert row["hypotheses_ok"], row
        assert row["mu_at_least_delta"]
        assert row["coverage_identity_ok"]
        assert row["boundary_bound_ok"]
        assert row["maximality_ok"]
    verdict, recount = verify_certificate(cert, z2)
    assert all(verdict.values()), verdict
    assert recount == frac_from_json(cert["defect"])
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"took {elapsed:.1f}s"


def test_criterion_06_ideal_generators():
    """For every built-in finite group algebra over GF(2) and GF(3) and 20
    seeded random right ideals each: the generators rebuild the ideal by
    exact rank comparison, and the single-step growth bound holds."""
    registry = load_registry()
    finite_names = [name for name in sorted(registry)
                    if get_group(name).order is not None]
    assert len(finite_names) >= 10
    for name in finite_names:
        for p in (2, 3):
            group = get_group(name)
            alg = build_group_algebra(group, p)
            gens = alg.oracle.generators.values()
            rng = random.Random(f"{name}:{p}")  # str seeding is process-stable
            produced = 0
            attempts = 0
            while produced < 20 and attempts < 4000:
                attempts += 1
                vec = np.array([rng.randrange(p) for _ in range(alg.dim)],
                               dtype=np.int64)
                ideal = right_ideal_closure(alg, [vec])
                e = np.zeros(alg.dim, dtype=np.int64)
                e[0] = 1
                if not 0 < ideal.rank < alg.dim or ideal.contains_vector(e):
                    continue
                produced += 1
                out = rs_generators(alg, ideal, gens)
                assert right_ideal_closure(alg, out) == ideal, (name, p)
                ok, lhs, rhs = rs_step_bound(alg, ideal, gens)
                assert ok, (name, p, lhs, rhs)
            assert produced > 0, (name, p)


def test_criterion_07_subexponentiality_probe():
    """Graded dims of the mod-2^5 Heisenberg quotient are exactly
    submultiplicative over the computed range, the Fekete estimate is
    <= 1.35 and is attained at the largest computed degree; the free-group
    dims sit at estimate >= 1.9 for contrast."""
    dims = graded_dims_via_jennings(HeisenbergMod(32), 2)
    report = growth_report(dims)
    assert report["submultiplicativity_violations"] == []
    assert report["fekete_estimate"] <= 1.35
    assert report["fekete_argmin"] == len(dims) - 1
    free_report = growth_report(free_graded_dims(2, 6, 2, trunc=7))
    assert free_report["fekete_estimate"] >= 1.9


def test_criterion_08_gs_certificates():
    """The four certificate cases at their exact values, plus the two
    relator-degree computations; runtime < 5 s."""
    start = time.monotonic()
    cert = gs_certificate(GSPresentation(2, ()))
    assert cert["is_GS"] and frac_from_json(cert["value"]) < 0
    assert gs_value(GSPresentation(cert["d"], tuple(cert["degrees"])),
                    frac_from_json(cert["t"])) == frac_from_json(cert["value"])

    cert = gs_certificate(GSPresentation(1, ()))
    assert not cert["is_GS"]

    cert = gs_certificate(GSPresentation(3, (2, 2, 2)))
    assert not cert["is_GS"]
    assert (frac_from_json(cert["t"]) == Fraction(1, 2)
            and frac_from_json(cert["value"]) == Fraction(1, 4))

    pres = GSPresentation(2, tuple(range(5, 101)))
    cert = gs_certificate(pres)
    assert cert["is_GS"]
    assert gs_value(pres, Fraction(3, 5)) < 0

    assert relator_degrees(["xxx"], 3, trunc=6) == [3]
    assert relator_degrees(["xyXY"], 2, trunc=6) == [2]
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"took {elapsed:.1f}s"


def test_criterion_09_defect_comparison():
    """On 50 seeded random finite subsets of the radius-5 balls of Z^2 and
    the lamplighter, the rank defect of the spanned subspace never exceeds
    the counting defect, exactly."""
    rng = random.Random(42)
    for name in ("z2", "lamplighter"):
        group = get_group(name)
        b6 = ball(group, 6)
        pool = [g for g in b6.elements if b6.lengths[g] <= 5]
        s_set = [group.multiply(group.identity, s)
                 for s in group.generator_symbols]
        s_elems = [{g: 1} for g in s_set]
        for lam in (0, 1):
            amb = BallAmbient(group, b6, 2, lam=lam)
            for _ in range(25):
                f_set = rng.sample(pool, rng.randrange(1, 16))
                f = span(amb, [{g: 1} for g in f_set])
                assert invariance_defect(f, s_elems) <= set_defect(f_set, s_set, group)


def test_criterion_10_probe_honesty():
    """The experimental subspace-tiling probe emits per-assertion outcomes,
    never any field claiming the underlying theorem, and its report matches
    the frozen schema byte for byte."""
    payload = algebra_tiling_probe(2, [{0: 1}, {1: 1}], Fraction(1, 2))
    for step in payload["steps"]:
        assert isinstance(step["mu_at_least_delta"], bool)
        assert isinstance(step["coverage_identity_ok"], bool)
        assert isinstance(step["boundary_bound_ok"], bool)
    assert not [key for key in payload if "theorem" in key.lower()]
    payload["config"] = {"chain_base": 2, "command": "tile-algebra-probe",
                         "epsilon": {"den": 2, "num": 1},
                         "k_exponents": [0, 1], "p": 2}
    golden = json.loads((DATA / "algebra_probe_golden.json").read_text())
    assert payload == golden
