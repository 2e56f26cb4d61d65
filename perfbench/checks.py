"""Output checks computed apart from the program.

Each check function takes a command's parsed JSON output plus the expected
values and returns a list of (check name, passed) pairs; every pair counts
as one operation of the benchmark.  The expected values come from closed
forms written here (zd_mod Hilbert series, the lamplighter word length,
integer defect recounts) and, for the Heisenberg and z2 quotients, from the
Jennings product formula, which shares no elimination code with the ladder.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from itertools import combinations

# the radius-1 ball of Z^2 under the generators (+-1, 0), (0, +-1)
Z2_K = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]


def zd_mod_ladder(d: int, m: int) -> list[int]:
    """Coefficients of ((1 - t^m)/(1 - t))^d = (1 + t + ... + t^(m-1))^d,
    the graded dimensions of GF(p)[(Z/m)^d] when m is a power of p."""
    coeffs = [1]
    for _ in range(d):
        out = [0] * (len(coeffs) + m - 1)
        for i, c in enumerate(coeffs):
            for j in range(m):
                out[i + j] += c
        coeffs = out
    return coeffs


def agreement_prefix(a: list[int], b: list[int]) -> list[int]:
    out = []
    for x, y in zip(a, b):
        if x != y:
            break
        out.append(x)
    return out


def lamplighter_length(lamps, pos: int) -> int:
    """Word length in Z2 wr Z over {t, t^-1, a}: light every lamp (|L|) and
    walk from 0 past both ends of the lit interval to the cursor."""
    m = min(0, min(lamps, default=0))
    big = max(0, max(lamps, default=0))
    return len(lamps) + min(2 * -m + big + abs(big - pos),
                            2 * big - m + abs(pos - m))


def lamplighter_dead_ends(radius: int) -> set:
    """Dead ends of length <= radius - 1, as (sorted lamp tuple, cursor)."""
    top = radius - 1
    out = set()
    for m in range(-top, 1):
        for big in range(0, top + 1):
            required = [x for x in (m, big) if x != 0]
            free = [x for x in range(m, big + 1) if x not in required]
            for k in range(len(free) + 1):
                # the walk reaches both ends; a cursor outside [m, big]
                # costs one more step per position beyond the end
                slack = top - (len(required) + k + big - m + min(-m, big))
                if slack < 0:
                    break
                for extra in combinations(free, k):
                    lamps = tuple(sorted(required + list(extra)))
                    for pos in range(m - slack, big + slack + 1):
                        n = lamplighter_length(lamps, pos)
                        if n <= top and _lamplighter_dead_end(lamps, pos, n):
                            out.add((lamps, pos))
    return out


def _lamplighter_dead_end(lamps: tuple, pos: int, n: int) -> bool:
    toggled = tuple(sorted(set(lamps) ^ {pos}))
    return (lamplighter_length(lamps, pos + 1) <= n
            and lamplighter_length(lamps, pos - 1) <= n
            and lamplighter_length(toggled, pos) <= n)


def triangle_family_word(k: int, n: int) -> str:
    """n-th member of the dead-end family of T(3,3,k) over {x, X, y, Y},
    freely reduced: for even k, index 2j is ((xy)^(k/2) (yx)^(k/2))^j and
    index 2j+1 appends (xy)^(k/2); for odd k, index n is ((xy)^((k-1)/2) x)^n.
    Negative powers spell the inverse word."""
    def power(w: str, e: int) -> str:
        return w * e if e >= 0 else w[::-1].swapcase() * -e

    if k % 2 == 0:
        half = "xy" * (k // 2)
        j, rem = divmod(n, 2)
        word = power(half + "yx" * (k // 2), j) + half * rem
    else:
        word = power("xy" * ((k - 1) // 2) + "x", n)
    out = []
    for c in word:
        if out and out[-1] == c.swapcase():
            out.pop()
        else:
            out.append(c)
    return "".join(out)


def triangle_rules(k: int) -> dict:
    """A confluent shortlex rewriting system (x < y) for the monoid
    presentation <x, y | xxx, yyy, (xy)^k> of T(3,3,k), completed here by
    Knuth-Bendix: equations are taken first in, first out, and each new
    rule's overlaps with every rule go back in as equations."""
    rules: dict = {}
    pending = deque([("xxx", ""), ("yyy", ""), ("xy" * k, "")])
    while pending:
        if len(rules) > 1000:
            raise RuntimeError(f"T(3,3,{k}) completion did not end")
        u, v = (_rewrite(w, rules) for w in pending.popleft())
        if u == v:
            continue
        if (len(u), u) < (len(v), v):
            u, v = v, u
        for lhs in [lhs for lhs in rules if u in lhs]:
            pending.append((lhs, rules.pop(lhs)))
        rules[u] = v
        for lhs in rules:
            rules[lhs] = _rewrite(rules[lhs], rules)
        for lhs, rhs in list(rules.items()):
            for a, ra, b, rb in ((u, v, lhs, rhs), (lhs, rhs, u, v)):
                # a = p q and b = q s with p, q, s nonempty: p q s has two rewrites
                for i in range(1, len(a)):
                    if len(b) > len(a) - i and b.startswith(a[i:]):
                        pending.append((ra + b[len(a) - i:], a[:i] + rb))
    return rules


def triangle_normal_form(rules: dict, word: str) -> str:
    """Normal form of a word over {x, X, y, Y}, with X = xx and Y = yy."""
    return _rewrite(word.replace("X", "xx").replace("Y", "yy"), rules)


def _rewrite(word: str, rules: dict) -> str:
    changed = True
    while changed:
        changed = False
        for lhs, rhs in rules.items():
            i = word.find(lhs)
            if i >= 0:
                word = word[:i] + rhs + word[i + len(lhs):]
                changed = True
                break
    return word


def z2_set_defect(f, k) -> Fraction:
    """(#(F u FK) - #F) / #F in Z^2, by integer addition."""
    fset = set(f)
    grown = fset | {(a + x, b + y) for a, b in fset for x, y in k}
    return Fraction(len(grown) - len(fset), len(fset))


def _frac(d) -> Fraction:
    return Fraction(d["num"], d["den"])


def _points(items) -> list[tuple]:
    return [tuple(p) for p in items]


# ---------------------------------------------------------------------------
# per-command checks


def check_growth_finite(out: dict, expected: list[int]) -> list:
    power = out["power_dims"] or [None]
    return [
        ("graded_dims_closed_form", out["graded_dims"] == expected),
        ("power_dims_start_at_order", power[0] == sum(expected)),
        ("power_dims_end_at_zero", power[-1] == 0),
    ]


def check_growth_prefix(out: dict, expected: list[int]) -> list:
    return [("agreement_prefix_jennings", out["graded_dims"] == expected)]


def check_rs(out: dict, ideals: int) -> list:
    return [
        ("ideals_tested", out["ideals_tested"] == ideals == len(out["results"])),
        ("all_regenerate", out["all_regenerate"] is True),
        ("all_bounds_hold", out["all_bounds_hold"] is True),
    ]


def check_lamplighter_dead_ends(out: dict, expected: set) -> list:
    found = [(tuple(lamps), pos) for lamps, pos in out["dead_ends"]]
    lengths = [lamplighter_length(*g) for g in found]
    return [
        ("dead_ends_closed_form", set(found) == expected
         and len(found) == out["count"] == len(expected)),
        ("dead_ends_length_order", lengths == sorted(lengths)),
    ]


def check_triangle_dead_ends(out: dict, members: list[str]) -> list:
    listed = set(out["dead_ends"])
    return [("family_members_listed", bool(members)
             and all(g in listed for g in members)),
            ("count_matches_list", out["count"] == len(out["dead_ends"]))]


def check_tile(out: dict, k) -> list:
    transversal = _points(out["transversal"])
    m = 2 ** out["quotient_level"]
    recount = z2_set_defect(transversal, k)
    pieces = [p for pl in out["placements"] for p in _points(pl["tile"])]
    pieces += _points(out["remainder"])
    return [
        ("k_is_unit_ball", sorted(_points(out["k"])) == sorted(k)),
        ("defect_recount", recount == _frac(out["defect"]) == Fraction(1, 8)),
        ("defect_below_epsilon", recount < _frac(out["epsilon"])),
        ("projection_one_to_one",
         len({(a % m, b % m) for a, b in transversal}) == len(transversal)
         == m * m == out["omega_size"]),
        ("placements_partition_transversal", sorted(pieces) == sorted(transversal)),
    ]


def check_verify(out: dict) -> list:
    res = out["result"]
    return [("verify_matches", out["certificate_type"] == "tiling"
             and res["matches"] is True
             and _frac(res["defect_recount"]) == Fraction(1, 8))]


def check_folner(out: dict, k, bound: Fraction) -> list:
    f = _points(out["set"])
    recount = z2_set_defect(f, k)
    return [
        ("folner_defect_recount", recount == _frac(out["defect"])
         and len(f) == out["set_size"]),
        ("folner_below_bound", recount < bound),
    ]
