"""The subspace-tiling probe, a differential test that locks its covering
to the rank-based level it replaced, one sha1 over a 900-configuration grid
of probe outputs, and the stdout bytes of two probe runs.

Each chain level of the probe runs `tiling.cover` over `greedy_fill` on the
cosets of Z/m, with interval tiles, and returns its report as JSON.
`reference_attempt_level` is the level before both the exponent-set
counting and that covering loop, its covering kept here verbatim with its
helpers: every tile, B and B K* is a `Subspace` of the finite group algebra
GF(p)[Z/m], scanned in the ball's BFS order, every overlap an `intersect`,
and the defect an `invariance_defect` on a ball of Z.  It builds the same
JSON report as the probe.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from gradedgrowth import algebra_probe
from gradedgrowth.algebra_probe import algebra_tiling_probe, monomial_probe_json, verify_json
from gradedgrowth.cli import main
from gradedgrowth.errors import (ContractError, GradedGrowthError, ResourceBudgetError,
                                 SearchFailedError)
from gradedgrowth.filtration import FiniteGroupAlgebra
from gradedgrowth.groups import Cyclic, FreeAbelian, ball
from gradedgrowth.serialize import frac_from_json, frac_json
from gradedgrowth.subspace import (BallAmbient, Subspace, intersect, invariance_defect,
                                   right_multiply, set_defect, span, sum_subspaces,
                                   zero_subspace)
from gradedgrowth.tiling import theta_step


def reference_attempt_level(p, k_basis, epsilon, params, t_cap, target, base, level, k_dim):
    m = base**level
    quotient = FiniteGroupAlgebra(Cyclic(m), p)
    # each basis element of K is one monomial: its exponent mod m labels it
    k_sub = span(quotient, [{g % m: c for g, c in t.items() if c} for t in k_basis])
    if k_sub.rank != k_dim:
        raise SearchFailedError("K does not embed into this quotient")
    # K K* must meet the ideal trivially: differences of exponents stay
    # distinct mod m, i.e. the span of K K* keeps full dimension
    diffs = sorted({a - b for ta in k_basis for a in ta for tb in k_basis for b in tb})
    if len({d % m for d in diffs}) != len(diffs):
        raise SearchFailedError("K K* meets the ideal: quotient too small")

    # spanning set of invertible images: the group-element basis, in order
    spanning = quotient.labels

    steps = []
    n = quotient.dim
    b = zero_subspace(quotient)
    nu, alpha = Fraction(0), Fraction(0)
    tower_level_dims = []
    for u in range(1, t_cap + 1):
        if alpha >= 1 or nu > target:
            break
        level_sub = reference_next_level_subspace(quotient, base, m, k_basis, epsilon,
                                         params, tower_level_dims)
        tower_level_dims.append(level_sub.rank)
        threshold = params.delta * level_sub.rank
        s = 0
        for h in spanning:
            tile = Subspace(quotient, quotient.translate_rows(level_sub.rows, h))
            if intersect(tile, b).rank <= threshold:
                s += 1
                b = sum_subspaces(b, tile)
        mu = (Fraction(b.rank, n) - nu) / (1 - alpha)
        nu_out, alpha_out = theta_step(params, mu, nu, alpha)
        # boundary growth measured against K itself
        bl = right_multiply(b, [reference_inv_terms(t, m) for t in k_basis])
        step = {
            "step": u, "level_dim": level_sub.rank, "s": s, "mu": frac_json(mu),
            "nu": frac_json(nu_out), "alpha": frac_json(alpha_out),
            "mu_at_least_delta": mu >= params.delta,
            "coverage_identity_ok": Fraction(b.rank, n) == nu_out,
            "boundary_bound_ok": Fraction(bl.rank, n) <= alpha_out,
        }
        steps.append(step)
        nu, alpha = nu_out, alpha_out
        if mu >= 1:
            break

    # T, B plus a complement of B, is the whole quotient algebra; its defect
    # is measured on the lift, with honest (unwrapped) products against K
    defect = reference_lifted_defect(p, m, k_basis)
    report = {
        "certificate_type": "algebra_tiling_probe", "experimental": True, "prime": p,
        "epsilon": frac_json(epsilon), "delta": frac_json(params.delta),
        "zeta": frac_json(params.zeta), "height_cap": t_cap, "quotient_level": level,
        "omega_dim": n, "k_dim": k_dim, "steps": steps,
        "complement_found": True, "complement_dim": n, "defect": frac_json(defect),
        "defect_below_epsilon": defect < epsilon,
        "all_step_assertions_held": all(
            st["mu_at_least_delta"] and st["coverage_identity_ok"] and st["boundary_bound_ok"]
            for st in steps
        ),
    }
    return report if report["defect_below_epsilon"] else None


def reference_next_level_subspace(quotient, base, m, k_basis, epsilon, params, prev_dims):
    """Interval spans aligned with the chain, of side base, base**2, ...; each
    level must satisfy the dimension version of the boundary bound against K,
    measured in the integer group ring (monomial bases make dimensions support
    counts)."""
    k_exps = sorted({g for terms in k_basis for g, c in terms.items() if c})
    side = base
    while side <= m:
        # dim(level * K) in the full ring: union of shifted intervals
        support = {i + e for i in range(side) for e in set(k_exps) | {0}}
        if Fraction(len(support)) <= (1 + epsilon / 2) * (1 - params.delta) * side:
            sub = span(quotient, [{j % m: 1} for j in range(side)])
            if sub.rank == side and side not in prev_dims:
                return sub
        side *= base
    raise SearchFailedError("no interval level satisfies the boundary bound")


def reference_inv_terms(terms: dict, m: int) -> dict:
    ((g, c),) = [(g, c) for g, c in terms.items() if c]
    return {(-g) % m: c}


def reference_lifted_defect(p: int, m: int, k_basis: list[dict]) -> Fraction:
    """Invariance defect against K, in the integer group ring over GF(p), of
    the lift of the whole quotient algebra: the span of t**j, 0 <= j < m."""
    radius = m + max(abs(g) for terms in k_basis for g in terms) + 1
    z = FreeAbelian(1)
    ambient = BallAmbient(z, ball(z, radius), p, lam=1)
    t_lift = span(ambient, [ambient.vector({(j,): 1}) for j in range(m)])
    return invariance_defect(t_lift, [{(g,): c for g, c in terms.items()}
                                      for terms in k_basis])


def probe_outcome(p, exponents, epsilon, base):
    """The probe's JSON, or the class of the error that ended it."""
    try:
        return monomial_probe_json(p, exponents, Fraction(epsilon), chain_base=base)
    except (SearchFailedError, ResourceBudgetError) as exc:
        return type(exc)


def library_outcome(p, k_basis):
    try:
        return algebra_tiling_probe(p, k_basis, Fraction(1, 2))
    except (ContractError, SearchFailedError, ResourceBudgetError) as exc:
        return type(exc)


# (exponents, epsilon, chain base) beyond the grid: a search that fails at
# every level, and one that meets the algebra cap at chain base 3, level 7
ENDINGS = [([0, 7], "1/8", 2, SearchFailedError), ([0, 1, 1], "1/2", 3, ResourceBudgetError)]


class TestCountingMatchesRanks:
    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("base", [2, 3])
    @pytest.mark.parametrize("exponents", [[0, 1], [1], [0, 1, 1], [-1, 1], [0, -3],
                                           [0, 1, 3]],
                             ids=["unit-t", "t", "repeated", "t-inverse", "negative",
                                  "gap"])
    @pytest.mark.parametrize("epsilon", ["1/2", "2", "8"])
    def test_same_report_or_error(self, monkeypatch, p, base, exponents, epsilon):
        got = probe_outcome(p, exponents, epsilon, base)
        monkeypatch.setattr(algebra_probe, "_attempt_level", reference_attempt_level)
        assert got == probe_outcome(p, exponents, epsilon, base)

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("k_basis", [
        [{0: 1}, {1: 2}],  # 0 mod 2: a contract error at p = 2, before any level
        [{0: 1, 8: 0}, {2: -1}],  # its zero term still counts in K K*: level 4 -> 5
    ], ids=["coefficient-2", "zero-term"])
    def test_coefficients_count_mod_p(self, monkeypatch, p, k_basis):
        got = library_outcome(p, k_basis)
        monkeypatch.setattr(algebra_probe, "_attempt_level", reference_attempt_level)
        assert got == library_outcome(p, k_basis)

    @pytest.mark.parametrize("exponents,epsilon,base,error", ENDINGS,
                             ids=["search-failed", "over-the-cap"])
    def test_same_error(self, monkeypatch, exponents, epsilon, base, error):
        assert probe_outcome(2, exponents, epsilon, base) is error
        monkeypatch.setattr(algebra_probe, "_attempt_level", reference_attempt_level)
        assert probe_outcome(2, exponents, epsilon, base) is error


GRID_EXPONENTS = [[0, 1], [1], [0, 1, 1], [-1, 1], [0, -3], [0, 1, 3], [0, 7], [-2, 0, 2],
                  [0, 4, 8], [0, 2], [0, 3], [1, 2], [0, 1, 2], [-1, 0, 1], [0, 5], [2],
                  [0, -1], [0, 2, 5], [0, 1, 2, 3], [3]]


def test_recorded_grid():
    # 900 configurations: each report's JSON, or the class and message of
    # the error that ended it, hashed together in a fixed order
    digest = hashlib.sha1()
    for p in (2, 3, 5):
        for base in (2, 3, 4):
            for epsilon in ("1/4", "1/2", "1", "2", "8"):
                for exponents in GRID_EXPONENTS:
                    try:
                        out = json.dumps(monomial_probe_json(p, exponents, Fraction(epsilon),
                                                             chain_base=base), sort_keys=True)
                    except GradedGrowthError as exc:
                        out = f"{type(exc).__name__}: {exc}"
                    digest.update(out.encode() + b"\n")
    assert digest.hexdigest() == "eea270793facf6a6715919a04b1236ced7a9d14f"


@pytest.mark.parametrize("args,sha1", [
    (["--p", "3"], "ecc2011e67bac7b57a2b79c7c8dc1118222888f5"),
    (["--p", "2", "--chain-base", "3"], "c22d4dbbccb69c304f72a1c39061bb0bad83bc98"),
], ids=["p-3", "chain-base-3"])
def test_recorded_stdout(capsys, args, sha1):
    # recorded before the probe ran on tiling.cover
    assert main(["tile-algebra-probe", "--epsilon", "1/2", *args]) == 0
    assert hashlib.sha1(capsys.readouterr().out.encode()).hexdigest() == sha1


ZERO_MOD_2 = [{0: 1}, {1: 2}]


class TestProbe:
    def test_two_monomial_basis(self):
        rep = algebra_tiling_probe(2, [{0: 1}, {1: 1}], Fraction(1, 2))
        assert rep["complement_found"]
        assert frac_from_json(rep["defect"]) < Fraction(1, 2)
        assert rep["steps"]  # at least one covering step ran

    def test_unit_span_trivial(self):
        rep = algebra_tiling_probe(2, [{0: 1}], Fraction(1, 2))
        assert frac_from_json(rep["defect"]) == 0

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("exponents", [[0, 1], [1], [0, 2], [0, 1, 3], [-1, 1]])
    def test_defect_is_that_of_the_lifted_interval(self, p, exponents):
        # T is always the whole quotient algebra, lifted to t**0 .. t**(m-1)
        rep = algebra_tiling_probe(p, [{e: 1} for e in exponents], Fraction(1, 2))
        assert rep["complement_found"] and rep["complement_dim"] == rep["omega_dim"]
        interval = [(j,) for j in range(2**rep["quotient_level"])]
        k = [(e,) for e in {0, *exponents}]
        assert frac_from_json(rep["defect"]) == set_defect(interval, k, FreeAbelian(1))

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("exponents", [[0, 1], [1], [0, 2], [-1, 1]])
    def test_levels_follow_the_chain_base(self, p, exponents):
        rep = algebra_tiling_probe(p, [{e: 1} for e in exponents], Fraction(1, 2),
                                   chain_base=3)
        assert rep["omega_dim"] == 3**rep["quotient_level"]
        assert rep["steps"]
        for st in rep["steps"]:
            assert st["level_dim"] in {3**k for k in range(1, rep["quotient_level"] + 1)}

    def test_non_invertible_basis_rejected(self):
        with pytest.raises(ContractError):
            algebra_tiling_probe(2, [{0: 1, 1: 1}], Fraction(1, 2))

    def test_coefficient_zero_mod_p_rejected(self):
        # t**1 with coefficient 2 is the zero vector over GF(2), not a unit
        with pytest.raises(ContractError, match="0 mod 2"):
            algebra_tiling_probe(2, ZERO_MOD_2, Fraction(1, 2))
        assert algebra_tiling_probe(3, ZERO_MOD_2, Fraction(1, 2))["k_dim"] == 2

    def test_step_assertions_recorded_not_assumed(self):
        rep = algebra_tiling_probe(2, [{0: 1}, {1: 1}], Fraction(1, 2))
        for st in rep["steps"]:
            assert isinstance(st["mu_at_least_delta"], bool)
            assert isinstance(st["coverage_identity_ok"], bool)
            assert isinstance(st["boundary_bound_ok"], bool)

    def test_report_never_claims_the_theorem(self):
        payload = algebra_tiling_probe(3, [{0: 1}, {1: 1}], Fraction(1, 2))
        assert payload["experimental"] is True
        assert not [key for key in payload if "theorem" in key.lower()]
        flat = str(payload).lower()
        assert "proved" not in flat and "theorem" not in flat

    def test_json_shape(self):
        payload = algebra_tiling_probe(2, [{0: 1}, {1: 1}], Fraction(1, 2))
        # the report is plain JSON, the same as the CLI's without its config
        assert json.loads(json.dumps(payload)) == payload
        cli_payload = monomial_probe_json(2, [0, 1], Fraction(1, 2))
        del cli_payload["config"]
        assert payload == cli_payload
        for key in ("certificate_type", "steps", "complement_found", "defect",
                    "all_step_assertions_held", "delta", "zeta", "epsilon"):
            assert key in payload
        assert payload["certificate_type"] == "algebra_tiling_probe"
        for step in payload["steps"]:
            assert {"step", "level_dim", "s", "mu", "nu", "alpha",
                    "mu_at_least_delta", "coverage_identity_ok",
                    "boundary_bound_ok"} <= set(step)

    def test_unit_adjoined_for_nonnegative_exponents(self):
        without_unit = monomial_probe_json(2, [1, 2], Fraction(1, 2))
        with_unit = monomial_probe_json(2, [0, 1, 2], Fraction(1, 2))
        assert without_unit.pop("config") != with_unit.pop("config")
        assert without_unit == with_unit
        assert with_unit["k_dim"] == 3

    def test_verify_reruns_the_whole_report(self):
        payload = monomial_probe_json(2, [0, 1], Fraction(1, 2))
        assert verify_json(payload) == {"mismatched_fields": [], "matches": True}
        payload["complement_dim"] += 1
        assert verify_json(payload) == {"mismatched_fields": ["complement_dim"],
                                        "matches": False}
        del payload["config"]
        with pytest.raises(ContractError):
            verify_json(payload)


class TestGuardOrder:
    """Each level's guards run in exit-code order, each before every later
    one: Z/m needs m >= 2 (exit 4), then the algebra cap (exit 3), then the
    prime (exit 4), and only then the coefficients mod p (exit 4)."""

    def test_order_below_two_first(self):
        with pytest.raises(ContractError, match="cyclic order"):
            algebra_tiling_probe(4, ZERO_MOD_2, Fraction(1, 2), chain_base=1)

    def test_cap_before_the_prime(self):
        with pytest.raises(ResourceBudgetError):
            algebra_tiling_probe(4, ZERO_MOD_2, Fraction(1, 2), chain_base=4096)

    def test_prime_before_the_coefficients(self):
        with pytest.raises(ContractError, match="prime"):
            algebra_tiling_probe(4, ZERO_MOD_2, Fraction(1, 2))
