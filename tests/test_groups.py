import itertools

import pytest
from hypothesis import given, strategies as st

from gradedgrowth.errors import ContractError, OutOfRangeError, ResourceBudgetError
from gradedgrowth.groups import (AbelianProduct, CayleyTable, Cyclic, FreeAbelian, FreeGroup,
                                 Heisenberg, HeisenbergMod, Lamplighter, ZdMod, ball,
                                 find_dead_ends, is_dead_end, triangle_dead_end_family)
from gradedgrowth.registry import BUILTIN_SPECS, get_group, make_group
from gradedgrowth.rewriting import RewritingGroup


def inverse_symbol(oracle, s):
    """A generator symbol t with normalize(t) == inv(normalize(s)), or None."""
    target = oracle.inv(oracle.normalize([s]))
    return next((t for t in oracle.generator_symbols if oracle.normalize([t]) == target),
                None)


def assert_generators_invert(oracle, radius):
    b = ball(oracle, radius)
    for s in oracle.generator_symbols:
        t = inverse_symbol(oracle, s)
        assert t is not None, (oracle.name, s)
        for g in b.elements:
            assert oracle.multiply(oracle.multiply(g, s), t) == g


def l1_ball_size(d, r):
    # closed-form oracle: lattice points of L1 norm <= r, by direct count
    from itertools import product
    return sum(1 for p in product(range(-r, r + 1), repeat=d)
               if sum(abs(x) for x in p) <= r)


class TestBall:
    def test_z_sphere_sizes(self, z1):
        b = ball(z1, 3)
        assert b.sphere_sizes() == [1, 2, 2, 2]

    def test_free2_sphere_sizes(self):
        b = ball(FreeGroup(2), 3)
        assert b.sphere_sizes() == [1, 4, 12, 36]

    def test_z2_ball_13(self, z2):
        b = ball(z2, 2)
        assert len(b) == 13 == l1_ball_size(2, 2)

    def test_z3_ball_matches_lattice_count(self):
        b = ball(FreeAbelian(3), 4)
        assert len(b) == l1_ball_size(3, 4)

    def test_monotone_restriction(self, z2):
        b3, b4 = ball(z2, 3), ball(z2, 4)
        for g, n in b3.lengths.items():
            assert b4.lengths[g] == n

    def test_memory_cap(self, z2, monkeypatch):
        # 1 MB caps a ball at 20,000 elements; the radius-100 ball has 20,201
        monkeypatch.setenv("GRADEDGROWTH_BUDGET_MB", "1")
        with pytest.raises(ResourceBudgetError):
            ball(z2, 100)

    def test_radius_zero(self, z1):
        b = ball(z1, 0)
        assert b.elements == [(0,)]

    def test_negative_radius(self, z1):
        with pytest.raises(ContractError):
            ball(z1, -1)

    @pytest.mark.parametrize("name,radius", [("free2", 4), ("lamplighter", 8), ("t334", 8)])
    def test_elements_are_the_spheres_concatenated(self, name, radius):
        b = ball(get_group(name), radius)
        assert b.elements == sum(b.by_sphere, [])
        assert len(b.by_sphere) == radius + 1
        assert all(b.lengths[g] == n for n, sphere in enumerate(b.by_sphere) for g in sphere)


class TestWordLength:
    def test_z2_manhattan(self, z2):
        b = ball(z2, 6)
        assert b.word_length((2, 3)) == 5

    def test_identity(self, z2):
        assert ball(z2, 0).word_length((0, 0)) == 0

    def test_free_reduced_length(self):
        f = FreeGroup(2)
        b = ball(f, 4)
        assert b.word_length(f.normalize("abA")) == 3

    def test_outside_ball_raises(self, z1):
        b = ball(z1, 2)
        with pytest.raises(OutOfRangeError):
            b.word_length((5,))

    def test_length_symmetric_under_inversion(self, lamplighter, lamplighter_ball8):
        b = lamplighter_ball8
        for g, n in b.lengths.items():
            assert b.lengths[lamplighter.inv(g)] == n

    def test_neighbor_lengths_differ_by_at_most_one(self, z2):
        b = ball(z2, 4)
        for g, n in b.lengths.items():
            for s in z2.generator_symbols:
                h = z2.multiply(g, s)
                if h in b:
                    assert abs(b.lengths[h] - n) <= 1


class TestOracleAxioms:
    oracles = [FreeAbelian(2), FreeGroup(2), Heisenberg(), Lamplighter()]

    @pytest.mark.parametrize("oracle", oracles, ids=lambda o: o.name)
    def test_generator_inverse_cancels(self, oracle):
        assert_generators_invert(oracle, 3)

    @pytest.mark.parametrize("oracle", oracles, ids=lambda o: o.name)
    def test_identity_is_empty_word(self, oracle):
        assert oracle.normalize("") == oracle.identity

    @given(st.data())
    def test_normalize_respects_concatenation(self, data):
        oracle = data.draw(st.sampled_from(self.oracles))
        syms = st.sampled_from(oracle.generator_symbols)
        u = data.draw(st.lists(syms, max_size=6))
        v = data.draw(st.lists(syms, max_size=6))
        assert oracle.mul(oracle.normalize(u), oracle.normalize(v)) == \
            oracle.normalize(list(u) + list(v))

    @given(st.data())
    def test_inverse_word(self, data):
        oracle = data.draw(st.sampled_from(self.oracles))
        syms = st.sampled_from(oracle.generator_symbols)
        w = data.draw(st.lists(syms, max_size=8))
        g = oracle.normalize(w)
        assert oracle.mul(g, oracle.inv(g)) == oracle.identity
        assert oracle.mul(oracle.inv(g), g) == oracle.identity

    def test_heisenberg_relation(self):
        h = Heisenberg()
        x = h.normalize("x")
        y = h.normalize("y")
        comm = h.mul(h.mul(h.inv(x), h.inv(y)), h.mul(x, y))
        assert comm == (0, 0, 1)


class TestFiniteOracles:
    @pytest.mark.parametrize("name", ["c2", "c3", "c4", "c8", "c9", "c2xc2",
                                      "c3xc3", "d4", "q8", "heisenberg_mod_3"])
    def test_group_axioms_exhaustive(self, name):
        g = get_group(name)
        elems = list(g.elements())
        assert len(elems) == g.order
        e = g.identity
        for a in elems:
            assert g.mul(a, g.inv(a)) == e
            assert g.mul(a, e) == a == g.mul(e, a)
        # associativity on a deterministic sample
        sample = elems[: min(len(elems), 6)]
        for a in sample:
            for b in sample:
                for c in sample:
                    assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))

    def test_q8_is_hamiltons_unit_group(self):
        # element 2u + s stands for (-1)**s times the u-th of 1, i, j, k,
        # checked on 4-tuples against Hamilton's product
        def quaternion(g):
            u, s = divmod(g, 2)
            return tuple((-1) ** s if k == u else 0 for k in range(4))

        def hamilton(a, b):
            a1, a2, a3, a4 = a
            b1, b2, b3, b4 = b
            return (a1 * b1 - a2 * b2 - a3 * b3 - a4 * b4,
                    a1 * b2 + a2 * b1 + a3 * b4 - a4 * b3,
                    a1 * b3 - a2 * b4 + a3 * b1 + a4 * b2,
                    a1 * b4 + a2 * b3 - a3 * b2 + a4 * b1)

        q = get_group("q8")
        assert (q.name, q.order, q.identity) == ("q8", 8, 0)
        assert q.generators == {"i": 2, "I": 3, "j": 4, "J": 5}
        for g, h in itertools.product(range(8), repeat=2):
            assert quaternion(q.mul(g, h)) == hamilton(quaternion(g), quaternion(h))
        for g in range(8):
            assert hamilton(quaternion(g), quaternion(q.inv(g))) == (1, 0, 0, 0)

    def test_q8_structure(self):
        q = get_group("q8")
        i = q.normalize("i")
        j = q.normalize("j")
        assert q.mul(i, i) == q.mul(j, j)  # i^2 = j^2 = -1
        assert q.mul(q.mul(i, i), q.mul(i, i)) == q.identity

    @pytest.mark.parametrize("d,m", [(1, 2), (1, 5), (2, 2), (2, 3), (3, 4)])
    def test_zd_mod_is_the_abelian_product(self, d, m):
        z, a = ZdMod(d, m), AbelianProduct((m,) * d)
        assert (z.name, z.d, z.m, z.order) == (f"z{d}_mod_{m}", d, m, m**d)
        assert z.generator_symbols == a.generator_symbols
        assert [inverse_symbol(z, s) for s in z.generator_symbols] == \
            [inverse_symbol(a, s) for s in a.generator_symbols]
        elems = list(z.elements())
        assert elems == list(a.elements())
        for x in elems:
            assert z.inv(x) == a.inv(x) == tuple((-c) % m for c in x)
            for y in elems:
                assert z.mul(x, y) == a.mul(x, y) == tuple((b + c) % m for b, c in zip(x, y))

    def test_generators_closed_under_inversion(self):
        for name in BUILTIN_SPECS:
            assert_generators_invert(get_group(name), 2)


def s3_cayley_table():
    """S3 as an explicit table over its permutations in sorted order
    (the identity first), generated by a transposition and a 3-cycle."""
    perms = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[i]] for i in range(3))] for q in perms] for p in perms]
    return CayleyTable(table, {"a": index[(1, 0, 2)], "b": index[(1, 2, 0)],
                               "B": index[(2, 0, 1)]}, name="s3")


# every registry group, plus one oracle of each family the registry leaves
# out and a presentation over each alphabet mode
LAW_ORACLES = {name: lambda name=name: get_group(name) for name in BUILTIN_SPECS}
LAW_ORACLES.update({
    "z2_mod_6": lambda: ZdMod(2, 6),
    "heisenberg_mod_5": lambda: HeisenbergMod(5),
    "cayley_s3": s3_cayley_table,
    "presented_d3": lambda: RewritingGroup("ab", ["aa", "bb", "ababab"]),
    "presented_s3_monoid": lambda: RewritingGroup("ab", ["aaa", "bb", "abab"],
                                                  inverse_letters=False),
})


class TestGroupLaw:
    """Right multiplication by a symbol is `mul` by the table's element."""

    @pytest.mark.parametrize("name", LAW_ORACLES)
    def test_multiply_is_mul_by_the_generator(self, name):
        oracle = LAW_ORACLES[name]()
        assert oracle.generator_symbols == tuple(oracle.generators)
        for h in oracle.generators.values():
            assert oracle.mul(oracle.identity, h) == h  # the table holds normal forms
        for g in ball(oracle, 3).elements:
            for s, h in oracle.generators.items():
                assert oracle.multiply(g, s) == oracle.mul(g, h), (g, s)

    @pytest.mark.parametrize("name", LAW_ORACLES)
    def test_unknown_symbol_is_a_contract_error(self, name):
        oracle = LAW_ORACLES[name]()
        # swapped case catches the involutions, which have no partner symbol
        unknown = {"#", "q"} | {s.swapcase() for s in oracle.generators}
        for s in unknown - set(oracle.generators):
            with pytest.raises(ContractError):
                oracle.multiply(oracle.identity, s)


def reference_lamplighter_mul(g, h):
    """The lamplighter law as the sorted symmetric difference of g's lamps
    and h's lamps shifted by g's cursor."""
    (lamps1, p), (lamps2, q) = g, h
    return (tuple(sorted(set(lamps1) ^ {x + p for x in lamps2})), p + q)


class TestLamplighterMul:
    """`mul` toggles h's lamps one at a time; the reference takes the
    symmetric difference of the lamp sets."""

    elements = st.tuples(st.frozensets(st.integers(-9, 9), max_size=8).map(sorted).map(tuple),
                         st.integers(-9, 9))

    @given(elements, elements)
    def test_random_pairs(self, lamplighter, g, h):
        assert lamplighter.mul(g, h) == reference_lamplighter_mul(g, h)


class TestDeadEnds:
    def test_z_no_dead_end_at_5(self, z1):
        b = ball(z1, 7)
        assert not is_dead_end(z1, b, (5,))

    def test_z2_empty_radius_6(self, z2):
        assert find_dead_ends(z2, 6) == []

    def test_z_empty(self, z1):
        assert find_dead_ends(z1, 6) == []

    def test_free2_empty(self):
        assert find_dead_ends(FreeGroup(2), 6) == []

    def test_lamplighter_nonempty_radius_8(self, lamplighter, lamplighter_ball8):
        found = find_dead_ends(lamplighter, 8)
        assert found
        for g in found:
            assert is_dead_end(lamplighter, lamplighter_ball8, g)

    def test_lamplighter_known_dead_end(self, lamplighter, lamplighter_ball8):
        # lamps on the full visited interval, cursor back home
        g = ((-1, 0, 1), 0)
        assert lamplighter_ball8.word_length(g) == 7
        assert is_dead_end(lamplighter, lamplighter_ball8, g)

    def test_ball_too_small_raises(self, z1):
        b = ball(z1, 3)
        with pytest.raises(OutOfRangeError):
            is_dead_end(z1, b, (3,))

    def test_sorted_by_length_then_enumeration(self, lamplighter):
        found = find_dead_ends(lamplighter, 9)
        b = ball(lamplighter, 9)
        lengths = [b.word_length(g) for g in found]
        assert lengths == sorted(lengths)


def reference_find_dead_ends(oracle, radius):
    """`find_dead_ends` as an `is_dead_end` scan of the ball's lengths."""
    if radius < 1:
        raise ContractError("radius must be >= 1")
    b = ball(oracle, radius)
    return [g for g, n in b.lengths.items() if n < radius and is_dead_end(oracle, b, g)]


class TestDeadEndsFromBFS:
    """The dead ends the BFS records equal the `is_dead_end` scan."""

    @pytest.mark.parametrize("name,radii", [
        ("z", range(1, 9)), ("z2", range(1, 7)), ("free2", range(1, 6)),
        ("heisenberg", range(1, 7)), ("lamplighter", range(1, 11)),
        ("t334", range(1, 13)), ("t335", range(1, 11)),
    ])
    def test_infinite_groups(self, name, radii):
        oracle = get_group(name)
        for r in radii:
            assert list(ball(oracle, r).dead_ends) == reference_find_dead_ends(oracle, r), r

    @pytest.mark.parametrize("oracle", [Cyclic(12), get_group("d4"), get_group("q8"),
                                        get_group("heisenberg_mod_3")], ids=str)
    def test_finite_groups_past_their_diameter(self, oracle):
        # the BFS stops early once a round finds nothing new
        diameter = max(ball(oracle, oracle.order).lengths.values())
        for r in (diameter, diameter + 1, diameter + 3):
            found = list(ball(oracle, r).dead_ends)
            assert found == reference_find_dead_ends(oracle, r), r
        assert found  # every element of maximal length is a dead end

    @pytest.mark.parametrize("name,radius", [("lamplighter", 8), ("t334", 7),
                                             ("heisenberg_mod_3", 9)])
    def test_each_product_computed_once(self, name, radius):
        # exactly |S| products per element of length < radius, none beyond the BFS
        oracle = get_group(name)
        interior = sum(1 for n in ball(oracle, radius).lengths.values() if n < radius)
        calls = []
        mul = oracle.mul

        def counted(g, h):
            calls.append(h)
            return mul(g, h)

        oracle.mul = counted
        found = find_dead_ends(oracle, radius)
        assert found
        assert len(calls) == len(oracle.generators) * interior


class TestTriangleFamily:
    def test_even_k_first_members(self):
        assert triangle_dead_end_family(4, 1) == "xyxy"
        assert triangle_dead_end_family(4, 2) == "xyxyyxyx"

    def test_odd_k(self):
        assert triangle_dead_end_family(5, 1) == "xyxyx"
        assert triangle_dead_end_family(5, 2) == "xyxyxxyxyx"

    def test_negative_index_inverts(self):
        assert triangle_dead_end_family(5, -1) == "XYXYX"
        assert triangle_dead_end_family(4, -2) == "XYXYYXYX"

    def test_invalid_arguments(self):
        with pytest.raises(ContractError):
            triangle_dead_end_family(2, 1)
        with pytest.raises(ContractError):
            triangle_dead_end_family(4, 0)

    @pytest.mark.parametrize("k,n", [(4, 1), (4, 2), (4, -1), (4, -2),
                                     (5, 1), (5, 2), (5, -1), (5, -2)])
    def test_family_members_are_dead_ends(self, k, n, t334, t335):
        oracle = t334 if k == 4 else t335
        g = oracle.normalize(triangle_dead_end_family(k, n))
        b = ball(oracle, 11)
        assert is_dead_end(oracle, b, g)


class TestRegistry:
    def test_unknown_group(self):
        with pytest.raises(ContractError):
            get_group("nope")

    def test_unknown_kind(self):
        with pytest.raises(ContractError):
            make_group({"kind": "mystery"})

    def test_registry_file(self, tmp_path):
        path = tmp_path / "reg.json"
        path.write_text('{"myz": {"kind": "free_abelian", "params": {"d": 1}}}')
        g = get_group("myz", str(path))
        assert isinstance(g, FreeAbelian) and g.d == 1

    def test_cayley_table_kind(self):
        # C2 as an explicit table
        g = make_group({"kind": "finite_cayley_table",
                        "params": {"table": [[0, 1], [1, 0]],
                                   "generators": {"s": 1}}})
        assert g.mul(1, 1) == 0
        assert g.inv(1) == 1

    @pytest.mark.parametrize("params", [
        {"table": [[0, 1], [1, 0]], "generators": {"s": 5}},
        {"table": [[0, 1], [1, 0]], "generators": {"s": 1}, "identity": 2},
        {"table": [[0, 1], [1, 2]], "generators": {"s": 1}},
    ], ids=["generator", "identity", "entry"])
    def test_cayley_table_index_out_of_range(self, params):
        with pytest.raises(ContractError):
            make_group({"kind": "finite_cayley_table", "params": params})

    @pytest.mark.parametrize("spec", ["cyclic", {"kind": "cyclic"},
                                      {"kind": "cyclic", "params": {"n": "x"}},
                                      {"kind": "abelian", "params": {"orders": 5}}])
    def test_malformed_spec(self, spec):
        with pytest.raises(ContractError):
            make_group(spec)
