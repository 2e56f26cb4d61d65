import pytest
from hypothesis import given, strategies as st

from gradedgrowth.errors import ContractError
from gradedgrowth.groups import ball
from gradedgrowth.registry import make_group
from gradedgrowth.rewriting import (RewritingGroup, RewritingSystem,
                                    confluence_check, knuth_bendix,
                                    reduce_word, triangle_group)


@pytest.fixture(scope="module")
def c3_system():
    return knuth_bendix("s", ["sss"])


@pytest.fixture(scope="module")
def dihedral_system():
    return knuth_bendix("ab", ["aa", "bb", "ababab"])


def _order(group: RewritingGroup, radius: int = 8) -> int:
    """The order of a finite group, read off a ball whose last sphere is empty."""
    spheres = ball(group, radius).by_sphere
    assert spheres[-1] == []
    return sum(map(len, spheres))


class TestCompletion:
    def test_c3_three_normal_forms(self, c3_system):
        assert c3_system.complete
        assert ball(RewritingGroup("s", ["sss"]), 2).by_sphere == [[""], ["s", "S"], []]

    def test_dihedral_order_six(self, dihedral_system):
        assert dihedral_system.complete
        assert _order(RewritingGroup("ab", ["aa", "bb", "ababab"])) == 6

    def test_quaternion_order_eight(self):
        q8 = RewritingGroup("ab", ["aaaa", "aaBB", "Baba"])
        assert q8.system.complete
        assert _order(q8) == 8

    def test_t334_completes_in_default_budget(self, t334):
        assert t334.system.complete
        assert len(t334.system.rules) <= 5000
        assert max(len(l) for l, _ in t334.system.rules) <= 20

    def test_t334_infinite_positive_spheres(self, t334):
        spheres = ball(t334, 10).by_sphere
        assert len(spheres) == 11
        assert all(len(s) > 0 for s in spheres)

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
    the incremental multiply.  The word for s comes from the presentation
    alone: s itself, or, for an uppercase symbol outside a monoid alphabet,
    its letter to the power order - 1, the order found by reducing powers."""
    system = group.system
    word = s
    if s not in system.alphabet:
        letter = s.lower()
        order = next(n for n in range(1, 100) if system.reduce(letter * n) == "")
        word = letter * (order - 1)
    return system.reduce(g + word)


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


@pytest.fixture(scope="module")
def presented_groups(t334, t335):
    """The two triangle groups over the monoid alphabet and Z^2 as a
    `rewriting_backed` spec over the formal-inverse alphabet."""
    z2 = make_group({"kind": "rewriting_backed", "name": "z2_presented",
                     "params": {"generators": ["a", "b"], "relators": ["abAB"]}})
    return [t334, t335, z2]


class TestMulMatchesReduceOfTheConcatenation:
    """`mul` shifts h through g's normal form as the reduction stack; the
    reference reduces the concatenation g + h from an empty stack."""

    @given(st.data())
    def test_random_normal_form_pairs(self, presented_groups, data):
        group = data.draw(st.sampled_from(presented_groups))
        words = st.text(alphabet=group.system.alphabet, max_size=14)
        g, h = (group.system.reduce(data.draw(words)) for _ in range(2))
        assert group.mul(g, h) == group.system.reduce(g + h)
