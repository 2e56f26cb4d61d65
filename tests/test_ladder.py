"""The bottom-up augmentation ladder against the top-down one it replaced.

`reference_aug_ladder` is the dense loop that `aug_ladder` used to be, kept
here verbatim: w is echelonized from the rows g - 1, and each next power
from the previous one times every generator's (s - 1), until the rank
repeats.  It knows nothing of Jennings' basis or of O^p(G), so it keeps the
ladder independent of the product formula that the Jennings cross-checks
compare it with.  Every power must have the same canonical rows, byte for
byte.  `p_residual` is locked to the subgroup generated by the elements of
order prime to p, and the ladder's byte cap to the CLI's exit code 3.  The
ladder keeps one flag basis, not every power, and makes one elimination;
its memory is bounded here: in-process by `tracemalloc`, and for a whole
`growth` process by its own peak RSS.
"""

import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gradedgrowth import budgets, filtration, subspace
from gradedgrowth.errors import ContractError, ResourceBudgetError
from gradedgrowth.filtration import (_pow, aug_ladder, build_group_algebra,
                                     graded_dims_via_jennings, jennings_series, p_residual)
from gradedgrowth.groups import (AbelianProduct, CayleyTable, Cyclic, Dihedral,
                                 HeisenbergMod, ZdMod)
from gradedgrowth.registry import BUILTIN_SPECS, get_group
from gradedgrowth.subspace import Subspace, full_subspace
from gradedgrowth.tiling import congruence_quotient

ROOT = Path(__file__).resolve().parents[1]


def reference_aug_ladder(alg):
    """Powers of the augmentation ideal until the first repeat, as
    (powers, graded dims, stabilized dim)."""
    n = alg.dim
    p = alg.prime
    full = full_subspace(alg)
    aug_rows = np.zeros((n - 1, n), dtype=np.int64)
    for i in range(1, n):
        aug_rows[i - 1, i] = 1
        aug_rows[i - 1, 0] = p - 1
    power = Subspace(alg, aug_rows)
    powers = [full, power]
    gens = alg.oracle.generators.values()
    while True:
        prev = powers[-1]
        nxt = Subspace(alg, _times_generators_minus_one(alg, prev.rows, gens))
        if nxt.rank == prev.rank:
            break
        powers.append(nxt)
    dims = [s.rank for s in powers]
    graded = [dims[i] - dims[i + 1] for i in range(len(dims) - 1)]
    return powers, graded, dims[-1]


def _times_generators_minus_one(alg, rows, gens):
    """The blocks rows * (s - 1) over the generators s, stacked; for a right
    ideal they span its product with the augmentation ideal."""
    blocks = [(alg.translate_rows(rows, s) - rows) % alg.prime for s in gens]
    return np.vstack(blocks) if blocks else rows[:0]


def permutation_group(perms, generators: dict, name: str) -> CayleyTable:
    """The group of the given permutations (tuples), as a Cayley table."""
    index = {g: i for i, g in enumerate(perms)}
    table = [[index[tuple(g[h[k]] for k in range(len(h)))] for h in perms] for g in perms]
    ident = index[tuple(range(len(perms[0])))]
    return CayleyTable(table, {s: index[g] for s, g in generators.items()},
                       name=name, identity=ident)


def _even(perm) -> bool:
    inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
    return inversions % 2 == 0


S4 = permutation_group(sorted(itertools.permutations(range(4))),
                       {"a": (1, 0, 2, 3), "b": (1, 2, 3, 0)}, "s4")
A4 = permutation_group(sorted(g for g in itertools.permutations(range(4)) if _even(g)),
                       {"a": (1, 2, 0, 3), "b": (0, 2, 3, 1)}, "a4")

REGISTRY_FINITE = sorted(name for name in BUILTIN_SPECS
                         if get_group(name).order is not None)
EXTRA = {"d3": Dihedral(3), "d6": Dihedral(6), "c12": Cyclic(12),
         "c6xc4": AbelianProduct((6, 4)), "c3": Cyclic(3), "a4": A4, "s4": S4}


def assert_same_ladder(group, p):
    alg = build_group_algebra(group, p)
    lad = aug_ladder(alg)
    powers, graded, stable = reference_aug_ladder(alg)
    assert len(lad.powers) == len(powers), (group.name, p)
    for k, (got, want) in enumerate(zip(lad.powers, powers)):
        assert got.rows.dtype == want.rows.dtype == np.int64
        assert got.rows.shape == want.rows.shape, (group.name, p, k)
        assert got.rows.tobytes() == want.rows.tobytes(), (group.name, p, k)
    assert (lad.graded_dims, lad.power_dims[-1]) == (graded, stable)


class TestLadderMatchesReference:
    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("name", REGISTRY_FINITE)
    def test_registry_groups(self, name, p):
        assert_same_ladder(get_group(name), p)

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("name", sorted(EXTRA))
    def test_groups_with_a_p_residual(self, name, p):
        assert_same_ladder(EXTRA[name], p)

    @settings(max_examples=25)
    @given(st.sampled_from([2, 3, 5]), st.data())
    def test_random_specs(self, p, data):
        kind = data.draw(st.sampled_from(["zd_mod", "heisenberg_mod", "abelian"]))
        if kind == "zd_mod":
            d = data.draw(st.integers(1, 3))
            group = ZdMod(d, data.draw(st.integers(2, int(60 ** (1 / d)))))
        elif kind == "heisenberg_mod":
            group = HeisenbergMod(data.draw(st.integers(2, 4)))
        else:
            orders = data.draw(st.lists(st.integers(2, 12), min_size=1, max_size=3)
                               .filter(lambda o: math.prod(o) <= 72))
            group = AbelianProduct(tuple(orders))
        assert_same_ladder(group, p)


def brute_p_residual(group, p) -> frozenset:
    """The subgroup generated by the elements of order prime to p."""
    def order(g):
        k, h = 1, g
        while h != group.identity:
            h, k = group.mul(h, g), k + 1
        return k

    members = {g for g in group.elements() if order(g) % p}
    while True:
        grown = members | {group.mul(a, b) for a in members for b in members}
        if grown == members:
            return frozenset(members)
        members = grown


class TestPResidual:
    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("name", ["c3", "c12", "c6xc4", "d3", "d6", "a4", "s4"])
    def test_matches_brute_force(self, name, p):
        group = EXTRA[name]
        assert p_residual(group, p) == brute_p_residual(group, p)

    @pytest.mark.parametrize("p", [2, 3])
    def test_trivial_on_p_groups(self, p):
        for name in ("c4", "q8", "d4") if p == 2 else ("c9", "heisenberg_mod_3"):
            group = get_group(name)
            assert p_residual(group, p) == {group.identity}

    def test_a4_at_three_is_the_klein_group(self):
        assert len(p_residual(A4, 3)) == 4

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("name", sorted(EXTRA))
    def test_jennings_series_of_any_finite_group(self, name, p):
        # the series ends at O^p(G), and its product formula gives the dims
        # of G/O^p(G), which are the ladder's
        group = EXTRA[name]
        assert jennings_series(group, p).subgroups[-1] == p_residual(group, p)
        assert (graded_dims_via_jennings(group, p)
                == aug_ladder(build_group_algebra(group, p)).graded_dims)

    def test_jennings_series_unchanged_on_a_long_cyclic_series(self):
        js = jennings_series(Cyclic(64), 2)
        assert js.dims == [1, 1, 0, 1] + [0] * 3 + [1] + [0] * 7 + [1] + [0] * 15 + [1]
        assert [len(h) for h in js.subgroups[:3]] == [64, 32, 16]


def reference_normal_subgroup(group, seeds) -> frozenset:
    """The normal closure of the seeds in a finite group.

    The subgroup is grown one generator at a time, by right multiplication
    (in a finite group the positive words in the generators are the whole
    subgroup).  Each generator's conjugates by the group generators are
    queued as seeds, so when the queue empties the subgroup is normal."""
    conj = list(group.generators.values())
    members = {group.identity}
    gens = []
    pending = list(seeds)
    while pending:
        t = pending.pop()
        if t in members:
            continue
        gens.append(t)
        frontier = list(members)
        while frontier:
            nxt = []
            for g in frontier:
                for u in gens:
                    h = group.mul(g, u)
                    if h not in members:
                        members.add(h)
                        nxt.append(h)
            frontier = nxt
        pending.extend(group.mul(group.inv(c), group.mul(t, c)) for c in conj)
    return frozenset(members)


def reference_p_central_series(group, p: int, bottom: frozenset) -> list[frozenset]:
    """H_1 = G > H_2 > ... down to `bottom`, a normal subgroup with a p-group
    quotient: H_n is the normal closure of the commutators [a, c], a in
    H_(n-1) and c a generator, the p-th powers of H_(ceil(n/p)) and the
    elements of `bottom`, so the series lifts the Jennings series of
    G/bottom.  H_n repeats H_(n-1) without a closure when both of its
    inputs repeat.  Once a term repeats and its p-th-power input is that
    same subgroup, every later term is that subgroup too; if it is still
    above `bottom`, the series never reaches it and ContractError is
    raised."""
    conj = list(group.generators.values())
    series = [frozenset(group.elements())]
    while len(series[-1]) > len(bottom):
        n = len(series) + 1  # constructing H_n
        powered = series[(n + p - 1) // p - 1]
        if n > 2 and series[-1] is series[-2] and powered is series[(n + p - 2) // p - 1]:
            series.append(series[-1])
            continue
        comms = [group.mul(group.inv(a), group.mul(group.inv(c), group.mul(a, c)))
                 for a in series[-1] for c in conj]
        pth = [_pow(group, g, p) for g in powered]
        nxt = reference_normal_subgroup(group, comms + pth + list(bottom))
        if nxt == series[-1]:
            if powered is series[-1]:
                raise ContractError(
                    f"p-central series of {group.name} at p = {p} stops above its bottom")
            nxt = series[-1]
        series.append(nxt)
    return series


def c2_wreath_c4() -> CayleyTable:
    """C_2 wr C_4, of order 64 and class 4, on 8 points: a flips point 0, b
    turns the 4 pairs.  Its H_3 needs commutators with H_2, which no other
    group here does."""
    a, b = (1, 0, 2, 3, 4, 5, 6, 7), (2, 3, 4, 5, 6, 7, 0, 1)
    members, frontier = {tuple(range(8))}, [tuple(range(8))]
    while frontier:
        frontier = [h for h in {tuple(g[s[k]] for k in range(8)) for g in frontier
                                for s in (a, b)} if h not in members]
        members.update(frontier)
    return permutation_group(sorted(members), {"a": a, "b": b}, "c2wrc4")


SERIES_GROUPS = {**{name: get_group(name) for name in (
    "c2xc2", "c4", "c8", "c9", "c3xc3", "d4", "q8",
    "heisenberg_mod_2", "heisenberg_mod_3", "heisenberg_mod_4")},
    "z2m9": ZdMod(2, 9), "c243": ZdMod(1, 243), "z5m3": ZdMod(5, 3), "z3m5": ZdMod(3, 5),
    "a4": A4, "c2wrc4": c2_wreath_c4()}


def counted_muls(group) -> list:
    """Wraps the group's `mul` to count its calls; returns the counter."""
    count = [0]
    mul = group.mul

    def counting(g, h):
        count[0] += 1
        return mul(g, h)

    group.mul = counting
    return count


class TestJenningsSeriesMatchesReference:
    """The series takes commutators only on each term's normal generators,
    from semi-naive closures; `reference_p_central_series` is the loop it
    replaced, which takes them on every element of the term.  Both rest
    on O^p(G), taken by brute force, and must agree subgroup for
    subgroup, on p-groups and on groups with a p-residual alike."""

    @staticmethod
    def assert_same_series(group, p):
        want = reference_p_central_series(group, p, brute_p_residual(group, p))
        assert jennings_series(group, p).subgroups == want, (group.name, p)

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("name", sorted(SERIES_GROUPS))
    def test_named_groups(self, name, p):
        self.assert_same_series(SERIES_GROUPS[name], p)

    @pytest.mark.parametrize("p", [2, 3])
    def test_dihedral_three(self, p):
        self.assert_same_series(Dihedral(3), p)

    @pytest.mark.parametrize("name,m", [("heisenberg", 4), ("heisenberg", 8),
                                        ("z2", 8), ("z2", 16)])
    def test_congruence_quotients(self, name, m):
        self.assert_same_series(congruence_quotient(get_group(name), m).finite, 2)

    # The counts are deterministic: 2,872 and 1,029.  With commutators on
    # every element of the term they were 11,318 and 8,019; with closures
    # that remultiply every old member by every generator, 3,446 on H mod 8.
    @pytest.mark.parametrize("group,p,bound", [(HeisenbergMod(8), 2, 3_100),
                                               (ZdMod(5, 3), 3, 1_200)],
                             ids=["heisenberg_mod_8", "z5m3"])
    def test_mul_calls_bounded(self, group, p, bound):
        count = counted_muls(group)
        jennings_series(group, p)
        assert count[0] <= bound, count[0]


def _growth(tmp_path, m: int, p: int, *extra: str) -> subprocess.CompletedProcess:
    registry = tmp_path / "registry.json"
    registry.write_text(json.dumps({"c_big": {"kind": "zd_mod", "params": {"d": 1, "m": m}}}))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "gradedgrowth.cli", "--registry",
                           str(registry), "growth", "--group", "c_big", "--p", str(p),
                           "--format", "json", *extra], env=env, capture_output=True, text=True)


class SeriesReached(Exception):
    pass


class TestLadderBudget:
    def test_cap_is_one_gib(self):
        assert budgets.LADDER_BYTES == 1 << 30

    def test_large_cyclic_two_group_refused(self, monkeypatch):
        # 6 blocks of 16384^2 int64 entries are 12 GiB
        with pytest.raises(ResourceBudgetError, match="ladder"):
            self.ladder_up_to_the_series(monkeypatch, 16384)

    @pytest.mark.parametrize("m,stop", [(4729, SeriesReached), (4730, ResourceBudgetError)])
    def test_order_alone_decides_before_the_series(self, monkeypatch, m, stop):
        # 6 blocks of m^2 int64 entries fit in 1 GiB up to m = 4729
        with pytest.raises(stop):
            self.ladder_up_to_the_series(monkeypatch, m)

    @staticmethod
    def ladder_up_to_the_series(monkeypatch, m):
        """aug_ladder on Z/m at p = 2, stopped where it asks for the
        Jennings series."""
        def stop(group, p):
            raise SeriesReached

        monkeypatch.setattr(filtration, "jennings_series", stop)
        aug_ladder(build_group_algebra(ZdMod(1, m), 2, max_order=m))

    def test_under_the_cap_builds(self):
        lad = aug_ladder(build_group_algebra(ZdMod(1, 256), 2))
        assert [s.rank for s in lad.powers] == list(range(256, -1, -1))

    def test_cli_exits_three_at_p_two(self, tmp_path):
        proc = _growth(tmp_path, 16384, 2, "--max-order", "16384")
        assert proc.returncode == 3, proc.stderr
        assert "ladder" in proc.stderr and proc.stdout == ""

    @pytest.mark.parametrize("m", [1024, 2048])
    def test_cli_cyclic_two_groups_at_p_two(self, tmp_path, m):
        # the graded algebra of a cyclic p-group at p has dimension 1 in
        # each degree below its order; the climb's byte count refused both
        code, stdout, peak_kb, wall_s = _growth_usage(tmp_path, m, 2)
        assert code == 0
        out = json.loads(stdout)
        assert out["graded_dims"] == [1] * m
        assert out["power_dims"] == list(range(m, -1, -1))
        assert wall_s < 2.0
        assert peak_kb < 256 * 1024

    def test_cli_order_prime_to_p_answers_from_the_trivial_group(self, tmp_path):
        code, stdout, peak_kb, _ = _growth_usage(tmp_path, 2048, 3)
        assert code == 0
        out = json.loads(stdout)
        assert out["graded_dims"] == [1]
        assert out["power_dims"] == [2048, 2047]
        # I_N's rows are written straight into the 33.5 MB flag, not copied
        # into it: holding both peaked at 94 MB
        assert peak_kb < 80 * 1024


class TestOneElimination:
    """The ladder's only elimination is the check that the Jennings
    monomials are independent modulo I_N; the climb it replaced made one
    per weight (242 on c243)."""

    @pytest.mark.parametrize("group,p", [(ZdMod(1, 243), 3), (HeisenbergMod(4), 2)],
                             ids=["c243", "heisenberg_mod_4"])
    def test_one_rref_call(self, monkeypatch, group, p):
        alg = build_group_algebra(group, p)
        calls = []
        rref = subspace.rref

        def counting(mat, prime):
            calls.append(np.shape(mat))
            return rref(mat, prime)

        monkeypatch.setattr(subspace, "rref", counting)
        monkeypatch.setattr(filtration, "rref", counting)
        aug_ladder(alg)
        assert len(calls) == 1, calls

    def test_dependent_monomials_raise(self, monkeypatch):
        # the first layer lift in place of the second makes them dependent
        lifts = filtration._layer_lifts

        def repeated(alg, series):
            out = lifts(alg, series)
            return out[:1] + out[:1] + out[2:]

        monkeypatch.setattr(filtration, "_layer_lifts", repeated)
        with pytest.raises(ContractError, match="dependent"):
            aug_ladder(build_group_algebra(get_group("c2xc2"), 2))


class TestPowersSequence:
    """`powers` is a read-only sequence that builds each power on demand."""

    @pytest.mark.parametrize("group,p", [(ZdMod(1, 243), 3), (get_group("q8"), 2)],
                             ids=["c243", "q8"])
    def test_indexing_and_slicing_match_the_reference(self, group, p):
        alg = build_group_algebra(group, p)
        lad = aug_ladder(alg)
        powers = reference_aug_ladder(alg)[0]
        assert len(lad.powers) == len(powers) == len(lad.power_dims)
        assert lad.power_dims == [s.rank for s in powers]
        assert lad.powers[0] == full_subspace(alg)
        assert lad.powers[-1] == powers[-1]
        for got, want in ((lad.powers[1:], powers[1:]), (lad.powers[::2], powers[::2])):
            assert len(got) == len(want)
            assert list(got) == want
        with pytest.raises(IndexError):
            lad.powers[len(powers)]
        with pytest.raises(TypeError):
            lad.powers[0] = powers[0]


# Runs a command as a grandchild and prints its exit code, its peak RSS,
# read with wait4 on its pid, and its wall time.  A process started
# straight from the test process would report at least the test process's
# own peak RSS: the exec that starts it records the high-water mark of the
# address space it replaces, which fork copies from the parent (and vfork
# shares with it).
_LAUNCH = """import os, subprocess, sys, time
start = time.perf_counter()
with open(sys.argv[1], "wb") as sink:
    proc = subprocess.Popen(sys.argv[2:], stdout=sink, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, time.perf_counter() - start)
"""


def _growth_usage(tmp_path, m: int, p: int):
    """Exit code, stdout bytes, peak RSS (kilobytes on Linux) and wall
    seconds of `growth` on a cyclic group of order m, given by a registry
    spec named c<m>.  The peak is the growth process's own, read with wait4
    on its pid by a small launcher process: RUSAGE_CHILDREN would fold in
    every earlier child of this process."""
    registry = tmp_path / "registry.json"
    registry.write_text(json.dumps({f"c{m}": {"kind": "zd_mod", "params": {"d": 1, "m": m}}}))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH", "")]))
    out = tmp_path / "out.json"
    launched = subprocess.run([sys.executable, "-c", _LAUNCH, str(out),
                               sys.executable, "-m", "gradedgrowth.cli", "--registry",
                               str(registry), "growth", "--group", f"c{m}", "--p", str(p),
                               "--format", "json"],
                              env=env, capture_output=True, text=True, check=True)
    code, peak_kb, wall_s = launched.stdout.split()
    return int(code), out.read_bytes(), int(peak_kb), float(wall_s)


class TestLadderMemory:
    """The ladder holds one flag basis, about n^2 int64 entries for a group
    of order n, and a few times that while it climbs; the dense ladder held
    64 to 129 times n^2 entries on these groups."""

    @pytest.mark.parametrize("m,p", [(243, 3), (256, 2), (125, 5)])
    def test_bytes_held_and_peak(self, m, p):
        alg = build_group_algebra(ZdMod(1, m), p)
        tracemalloc.start()
        try:
            lad = aug_ladder(alg)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        square = m * m * 8
        assert held <= 2 * square, held / square
        assert peak <= 10 * square, peak / square
        assert lad.power_dims == list(range(m, -1, -1))

    def test_growth_on_order_1728_peaks_under_256_mb(self, tmp_path):
        # 28 powers of rank at least 1,700 over 1,728 columns: the dense
        # ladder peaked at 671 MB
        code, stdout, peak_kb, _ = _growth_usage(tmp_path, 1728, 3)
        assert code == 0
        assert (hashlib.sha1(stdout).hexdigest()
                == "3e524d1513615fb27e69286529166c6448e9475c")
        assert peak_kb < 256 * 1024
