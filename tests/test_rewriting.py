import pytest
from hypothesis import given, strategies as st

from gradedgrowth.errors import ContractError
from gradedgrowth.groups import ball
from gradedgrowth.rewriting import (RewritingGroup, RewritingSystem,
                                    confluence_check, knuth_bendix,
                                    reduce_word, triangle_group)


@pytest.fixture(scope="module")
def c3_system():
    return knuth_bendix("s", ["sss"])


@pytest.fixture(scope="module")
def dihedral_system():
    return knuth_bendix("ab", ["aa", "bb", "ababab"])


class TestCompletion:
    def test_c3_three_normal_forms(self, c3_system):
        assert c3_system.complete
        assert c3_system.count_normal_forms() == 3
        forms = [w for sphere in c3_system.normal_forms_by_length(2) for w in sphere]
        assert set(forms) == {"", "s", "S"}

    def test_dihedral_order_six(self, dihedral_system):
        assert dihedral_system.complete
        assert dihedral_system.count_normal_forms() == 6

    def test_quaternion_order_eight(self):
        sys = knuth_bendix("ab", ["aaaa", "aaBB", "Baba"])
        assert sys.complete
        assert sys.count_normal_forms() == 8

    def test_t334_completes_in_default_budget(self, t334):
        assert t334.system.complete
        assert len(t334.system.rules) <= 5000
        assert max(len(l) for l, _ in t334.system.rules) <= 20

    def test_t334_infinite_positive_spheres(self, t334):
        spheres = t334.system.normal_forms_by_length(10)
        assert all(len(s) > 0 for s in spheres[:11])

    def test_rules_strictly_decrease_shortlex(self, dihedral_system):
        prec = {c: i for i, c in enumerate(dihedral_system.alphabet)}
        for l, r in dihedral_system.rules:
            assert (len(l), [prec[c] for c in l]) > (len(r), [prec[c] for c in r])

    def test_budget_exhaustion_is_status(self):
        sys = knuth_bendix("ab", ["aaaa", "aaBB", "Baba"], max_rules=3)
        assert not sys.complete
        assert "budget" in sys.status

    def test_bad_relator_symbol(self):
        with pytest.raises(ContractError):
            knuth_bendix("a", ["abc"])

    def test_monoid_mode_needs_torsion(self):
        with pytest.raises(ContractError):
            knuth_bendix("ab", ["abab"], inverse_letters=False)


class TestReduce:
    def test_relator_collapses(self, c3_system):
        assert c3_system.reduce("sss") == ""

    def test_empty_word(self, c3_system):
        assert c3_system.reduce("") == ""

    def test_dihedral_abab(self, dihedral_system):
        # (ab)^3 = 1 forces (ab)^2 = (ab)^-1 = ba
        assert dihedral_system.reduce("abab") == dihedral_system.reduce("ba")

    def test_reduce_word_validates_alphabet(self, c3_system):
        with pytest.raises(ContractError):
            reduce_word(c3_system, "x")

    @given(st.text(alphabet="abAB", max_size=12))
    def test_idempotent_on_complete_system(self, w):
        sys = knuth_bendix("ab", ["aa", "bb", "ababab"])
        once = sys.reduce(w)
        assert sys.reduce(once) == once

    @given(st.text(alphabet="xy", max_size=14))
    def test_t334_reduce_idempotent(self, w):
        t = triangle_group(4)
        once = t.system.reduce(w)
        assert t.system.reduce(once) == once


class TestConfluence:
    def test_completed_c3_true(self, c3_system):
        ok, pairs = confluence_check(c3_system)
        assert ok and pairs == []

    def test_flagged_incomplete_torsion_only_rule(self):
        # a single rule s^3 -> empty over {s, S} joins all its own critical
        # pairs, but cannot decide s s^-1 = 1
        broken = RewritingSystem._build(("s", "S"), [("sss", "")], True,
                                        "complete", ("s",), ("sss",))
        ok, pairs = confluence_check(broken)
        assert not ok
        assert ("sS", "") in pairs

    def test_completed_t334_true(self, t334):
        ok, _ = confluence_check(t334.system)
        assert ok


class TestRewritingGroup:
    def test_identity_and_normalize(self, t334):
        assert t334.identity == ""
        assert t334.normalize("xX") == ""
        assert t334.normalize("xxx") == ""

    def test_uppercase_symbols_act_as_inverses(self, t334):
        g = t334.normalize("xyx")
        assert t334.multiply(t334.multiply(g, "X"), "x") == g
        assert t334.mul(g, t334.inv(g)) == ""

    @given(st.text(alphabet="xyXY", max_size=10))
    def test_normalize_matches_stepwise_multiplication(self, w):
        t = triangle_group(4)
        stepwise = t.identity
        for c in w:
            stepwise = t.multiply(stepwise, c)
        assert stepwise == t.normalize(w)

    def test_incomplete_presentation_rejected(self):
        with pytest.raises(ContractError):
            RewritingGroup("ab", ["aaaa", "aaBB", "Baba"], max_rules=3)

    def test_triangle_factory_validates_k(self):
        with pytest.raises(ContractError):
            triangle_group(1)

    def test_presentation_file_shape(self, t335):
        # registry uses {"generators": [...], "relators": [...]} presentations
        assert t335.system.generators == ("x", "y")
        assert "xyxyxyxyxy" in t335.system.relators


def reduce_from_scratch(group, g, s):
    """g s reduced by shifting every letter of g again: the reference for
    the incremental multiply."""
    word = s if s in group.system.alphabet else group._inverse_word[s.lower()]
    return group.system.reduce(g + word)


@pytest.fixture(scope="module")
def presented_balls(t334, t335):
    dihedral = RewritingGroup("ab", ["aa", "bb", "ababab"], name="d3")
    return [(group, ball(group, radius).elements)
            for group, radius in ((t334, 9), (t335, 9), (dihedral, 3))]


class TestIncrementalMultiply:
    @given(st.data())
    def test_multiply_matches_reduce_from_scratch(self, presented_balls, data):
        group, elements = data.draw(st.sampled_from(presented_balls))
        g = data.draw(st.sampled_from(elements))
        for s in group.generator_symbols:
            assert group.multiply(g, s) == reduce_from_scratch(group, g, s)
        word = data.draw(st.text(alphabet=group.system.alphabet, max_size=10))
        assert group.system.reduce(word, g) == group.system.reduce(g + word)

    def test_ball_spheres_match_from_scratch_bfs(self, t334):
        spheres = [[""]]
        seen = {""}
        for _ in range(12):
            nxt = []
            for g in spheres[-1]:
                for s in t334.generator_symbols:
                    h = reduce_from_scratch(t334, g, s)
                    if h not in seen:
                        seen.add(h)
                        nxt.append(h)
            spheres.append(nxt)
        assert ball(t334, 12).by_sphere == spheres
