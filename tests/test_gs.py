import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gradedgrowth.errors import ContractError
from gradedgrowth.gs import (GSCertificate, GSPresentation, gs_certificate, gs_value,
                             relator_degrees)


class TestGSValue:
    def test_two_generators_half(self):
        assert gs_value(GSPresentation(2, ()), Fraction(1, 2)) == 0

    def test_two_generators_nine_tenths(self):
        assert gs_value(GSPresentation(2, ()), Fraction(9, 10)) == Fraction(-4, 5)

    def test_three_gens_three_quadratic_relators(self):
        pres = GSPresentation(3, (2, 2, 2))
        assert gs_value(pres, Fraction(1, 2)) == Fraction(1, 4)

    def test_t_out_of_range(self):
        with pytest.raises(ContractError):
            gs_value(GSPresentation(2, ()), Fraction(1))
        with pytest.raises(ContractError):
            gs_value(GSPresentation(2, ()), Fraction(0))

    @given(st.integers(1, 5), st.lists(st.integers(1, 9), max_size=5),
           st.integers(1, 99), st.integers(2, 12))
    def test_adding_degrees_never_decreases(self, d, degs, num, extra):
        t = Fraction(num, 100)
        base = gs_value(GSPresentation(d, tuple(degs)), t)
        more = gs_value(GSPresentation(d, tuple(degs) + (extra,)), t)
        assert more >= base


class TestCertificates:
    def test_free_two_generators_is_gs(self):
        cert = gs_certificate(GSPresentation(2, ()))
        assert cert.is_gs and cert.value < 0
        # witness re-checkable exactly
        assert gs_value(cert.presentation, cert.t) == cert.value

    def test_single_generator_not_found(self):
        cert = gs_certificate(GSPresentation(1, ()))
        assert not cert.is_gs
        assert cert.value > 0

    def test_three_quadratic_minimum_quarter(self):
        cert = gs_certificate(GSPresentation(3, (2, 2, 2)))
        assert not cert.is_gs
        assert cert.t == Fraction(1, 2)
        assert cert.value == Fraction(1, 4)

    def test_degrees_five_to_hundred(self):
        pres = GSPresentation(2, tuple(range(5, 101)))
        cert = gs_certificate(pres)
        assert cert.is_gs
        v = gs_value(pres, Fraction(3, 5))
        assert v < 0
        # the partial geometric sum at t = 3/5, exactly
        t = Fraction(3, 5)
        assert v == 1 - 2 * t + (t**5 - t**101) / (1 - t)

    def test_grid_too_small(self):
        with pytest.raises(ContractError):
            gs_certificate(GSPresentation(2, ()), grid=10)

    def test_truncated_degree_rejected(self):
        with pytest.raises(ContractError):
            GSPresentation(2, (3, None))

    def test_tail_note_carried(self):
        pres = GSPresentation(2, (5,), tail_note="degrees beyond 100 omitted")
        cert = gs_certificate(pres)
        assert cert.presentation.tail_note == "degrees beyond 100 omitted"


class TestRelatorDegrees:
    def test_cube_char_three(self):
        assert relator_degrees(["xxx"], 3, trunc=6) == [3]

    def test_commutator_char_two(self):
        assert relator_degrees(["xyXY"], 2, trunc=6) == [2]

    def test_single_letter(self):
        assert relator_degrees(["x"], 5) == [1]

    def test_truncated_comes_back_none(self):
        assert relator_degrees(["xX"], 2, trunc=4) == [None]

    def test_assume_min_degree(self):
        assert relator_degrees(["xX"], 2, trunc=4, assume_min_degree=True) == [5]


class TestCertificateJson:
    def test_round_trip_and_verify(self):
        cert = gs_certificate(GSPresentation(2, (5, 6, 7), p=2, tail_note="none"))
        payload = json.loads(json.dumps(cert.to_json()))
        assert GSCertificate.from_json(payload) == cert
        assert cert.verify() == (True, cert.value)

    def test_tampered_value_fails(self):
        cert = gs_certificate(GSPresentation(2, ()))
        payload = cert.to_json()
        payload["value"]["num"] += 1
        assert GSCertificate.from_json(payload).verify() == (False, cert.value)
