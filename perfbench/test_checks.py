"""Tests of the benchmark's own helpers: `python3 -m pytest perfbench`."""

import json
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import checks
import run

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _lamplighter_bfs(radius: int) -> dict:
    """Word lengths by breadth-first search over (lit lamps, cursor)."""
    start = (frozenset(), 0)
    lengths = {start: 0}
    frontier = [start]
    for r in range(1, radius + 1):
        nxt = []
        for lamps, pos in frontier:
            for g in ((lamps, pos + 1), (lamps, pos - 1), (lamps ^ {pos}, pos)):
                if g not in lengths:
                    lengths[g] = r
                    nxt.append(g)
        frontier = nxt
    return lengths


def test_zd_mod_ladder_small_cases():
    assert checks.zd_mod_ladder(1, 3) == [1, 1, 1]
    assert checks.zd_mod_ladder(2, 2) == [1, 2, 1]
    assert checks.zd_mod_ladder(2, 3) == [1, 2, 3, 2, 1]
    assert sum(checks.zd_mod_ladder(5, 3)) == 3 ** 5


def test_lamplighter_length_matches_bfs():
    for (lamps, pos), n in _lamplighter_bfs(9).items():
        assert checks.lamplighter_length(tuple(sorted(lamps)), pos) == n


def test_lamplighter_dead_ends_match_bfs():
    radius = 9
    lengths = _lamplighter_bfs(radius)
    expected = set()
    for (lamps, pos), n in lengths.items():
        neighbours = ((lamps, pos + 1), (lamps, pos - 1), (lamps ^ {pos}, pos))
        if n < radius and all(lengths.get(g, radius + 1) <= n for g in neighbours):
            expected.add((tuple(sorted(lamps)), pos))
    assert checks.lamplighter_dead_ends(radius) == expected
    assert ((-1, 0, 1), 0) in expected


def test_triangle_normal_forms_match_program():
    import random

    from gradedgrowth.groups import triangle_dead_end_family
    from gradedgrowth.registry import get_group

    rng = random.Random(0)
    for k in (4, 5):
        oracle = get_group(f"t33{k}")
        rules = checks.triangle_rules(k)
        assert sorted(rules.items()) == sorted(oracle.system.rules)
        for n in (1, 2, 3, -1, -2, -3):
            assert (checks.triangle_normal_form(rules, checks.triangle_family_word(k, n))
                    == oracle.normalize(triangle_dead_end_family(k, n)))
        for _ in range(500):
            word = "".join(rng.choice("xXyY") for _ in range(rng.randrange(25)))
            assert checks.triangle_normal_form(rules, word) == oracle.normalize(word)
    assert checks.triangle_family_word(4, -1) == "XYXY"


def test_z2_set_defect():
    box = [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert checks.z2_set_defect(box, checks.Z2_K) == Fraction(8, 4)


def test_checks_reject_wrong_outputs():
    out = {"graded_dims": [1, 1, 1], "power_dims": [3, 2, 1, 0]}
    assert all(ok for _, ok in checks.check_growth_finite(out, [1, 1, 1]))
    out["graded_dims"] = [1, 2]
    assert not all(ok for _, ok in checks.check_growth_finite(out, [1, 1, 1]))
    rs = {"ideals_tested": 19, "results": [{}] * 19,
          "all_regenerate": True, "all_bounds_hold": True}
    assert not all(ok for _, ok in checks.check_rs(rs, 20))


def _one_command(tmp_path, cmd):
    work = tmp_path / "work"
    work.mkdir()
    bench = run.Run([cmd], work, time.monotonic() + 60)
    bench.command(cmd, traced=False)
    return bench


def test_failing_command_makes_run_incorrect(tmp_path):
    # an unknown group is a contract error: the CLI exits 4
    cmd = run.Command("bad-group", ["growth", "--group", "no_such_group", "--p", "2"],
                      lambda out: [("never_reached", True)])
    bench = _one_command(tmp_path, cmd)
    assert (bench.correct, bench.attempted, bench.failed) == (False, 1, 1)
    assert bench.wall["bad-group"] == [] and bench.setup == []


def test_failing_check_makes_run_incorrect(tmp_path):
    cmd = run.Command("growth-c2", ["growth", "--group", "c2", "--p", "2", "--format", "json"],
                      lambda out: checks.check_growth_finite(out, [2]))
    bench = _one_command(tmp_path, cmd)
    assert (bench.correct, bench.attempted, bench.failed) == (False, 4, 1)
    assert len(bench.setup) == 1 and 0 < bench.setup[0] < bench.wall["growth-c2"][0]


def test_passing_command_stays_correct(tmp_path):
    cmd = run.Command("growth-c2", ["growth", "--group", "c2", "--p", "2", "--format", "json"],
                      lambda out: checks.check_growth_finite(out, [1, 1]))
    bench = _one_command(tmp_path, cmd)
    assert (bench.correct, bench.attempted, bench.failed) == (True, 4, 0)


def test_tracer_replaces_every_binding(tmp_path):
    timing, trace, out = tmp_path / "t.json", tmp_path / "s.json", tmp_path / "o.json"
    code = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), str(timing),
         "--trace", str(trace), "growth", "--group", "c2xc2", "--p", "2", "--out", str(out)],
        env=run.child_env(), cwd=ROOT).returncode
    assert code == 0
    recorded = json.loads(trace.read_text())
    assert recorded["bindings"]["gradedgrowth.subspace.rref"] == 2  # subspace, filtration
    assert recorded["bindings"]["gradedgrowth.groups.ball"] >= 3  # groups, cli, tiling
    values = run.layer_values(recorded)
    assert values["subspace.rref.calls"] >= 1
    assert values["filtration.aug_ladder.calls"] == 1
    assert values["filtration.aug_ladder.powers"] == 4  # [1, 2, 1] ends at 0
