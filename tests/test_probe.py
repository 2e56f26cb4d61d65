from fractions import Fraction

import pytest

from gradedgrowth.algebra_probe import (algebra_tiling_probe, monomial_probe_json,
                                        probe_report_jsonable, verify_probe_json)
from gradedgrowth.errors import ContractError
from gradedgrowth.groups import FreeAbelian
from gradedgrowth.subspace import set_defect


class TestProbe:
    def test_two_monomial_basis(self):
        rep = algebra_tiling_probe(2, [{0: 1}, {1: 1}], Fraction(1, 2))
        assert rep.complement_found
        assert rep.defect is not None and rep.defect < Fraction(1, 2)
        assert rep.steps  # at least one covering step ran

    def test_unit_span_trivial(self):
        rep = algebra_tiling_probe(2, [{0: 1}], Fraction(1, 2))
        assert rep.defect == 0

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("exponents", [[0, 1], [1], [0, 2], [0, 1, 3], [-1, 1]])
    def test_defect_is_that_of_the_lifted_interval(self, p, exponents):
        # T is always the whole quotient algebra, lifted to t**0 .. t**(m-1)
        rep = algebra_tiling_probe(p, [{e: 1} for e in exponents], Fraction(1, 2))
        assert rep.complement_found and rep.complement_dim == rep.omega_dim
        interval = [(j,) for j in range(2**rep.quotient_level)]
        k = [(e,) for e in {0, *exponents}]
        assert rep.defect == set_defect(interval, k, FreeAbelian(1))

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("exponents", [[0, 1], [1], [0, 2], [-1, 1]])
    def test_levels_follow_the_chain_base(self, p, exponents):
        rep = algebra_tiling_probe(p, [{e: 1} for e in exponents], Fraction(1, 2),
                                   chain_base=3)
        assert rep.omega_dim == 3**rep.quotient_level
        assert rep.steps
        for st in rep.steps:
            assert st.level_dim in {3**k for k in range(1, rep.quotient_level + 1)}

    def test_non_invertible_basis_rejected(self):
        with pytest.raises(ContractError):
            algebra_tiling_probe(2, [{0: 1, 1: 1}], Fraction(1, 2))

    def test_step_assertions_recorded_not_assumed(self):
        rep = algebra_tiling_probe(2, [{0: 1}, {1: 1}], Fraction(1, 2))
        for st in rep.steps:
            assert isinstance(st.mu_at_least_delta, bool)
            assert isinstance(st.coverage_identity_ok, bool)
            assert isinstance(st.boundary_bound_ok, bool)

    def test_report_never_claims_the_theorem(self):
        rep = algebra_tiling_probe(3, [{0: 1}, {1: 1}], Fraction(1, 2))
        payload = probe_report_jsonable(rep)
        assert payload["experimental"] is True
        assert not [key for key in payload if "theorem" in key.lower()]
        flat = str(payload).lower()
        assert "proved" not in flat and "theorem" not in flat

    def test_json_shape(self):
        rep = algebra_tiling_probe(2, [{0: 1}, {1: 1}], Fraction(1, 2))
        payload = probe_report_jsonable(rep)
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
        assert verify_probe_json(payload) == {"mismatched_fields": [], "matches": True}
        payload["complement_dim"] += 1
        assert verify_probe_json(payload) == {"mismatched_fields": ["complement_dim"],
                                              "matches": False}
        del payload["config"]
        with pytest.raises(ContractError):
            verify_probe_json(payload)
