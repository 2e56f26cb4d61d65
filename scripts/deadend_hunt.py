#!/usr/bin/env python3
"""Scan Cayley balls for dead-end elements and check the triangle-group
family against the completed rewriting oracles."""

import argparse
import sys

from gradedgrowth.groups import ball, find_dead_ends, is_dead_end, \
    triangle_dead_end_family
from gradedgrowth.registry import get_group


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--radius", type=int, default=8)
    parser.add_argument("--triangle-k", type=int, nargs="*", default=[4, 5])
    parser.add_argument("--family-indices", type=int, nargs="*", default=[1, 2])
    args = parser.parse_args(argv)

    for name in ("z", "z2", "free2", "lamplighter"):
        group = get_group(name)
        found = find_dead_ends(group, args.radius)
        print(f"{name}: {len(found)} dead ends within radius {args.radius - 1}")
        for g in found[:5]:
            print(f"   {g}")

    for k in args.triangle_k:
        group = get_group(f"t33{k}")
        for n in args.family_indices:
            word = triangle_dead_end_family(k, n)
            g = group.normalize(word)
            b = ball_below_radius(group, g)
            verdict = is_dead_end(group, b, g)
            print(f"T(3,3,{k}) family index {n}: word={word} normal_form={g!r} "
                  f"length={b.word_length(g)} dead_end={verdict}")
    return 0


def ball_below_radius(group, g):
    """The first ball, grown one radius at a time, that holds g below its
    radius, so that every neighbour of g is in it too."""
    r = 1
    while True:
        b = ball(group, r)
        if b.lengths.get(g, r) < r:
            return b
        r += 1


if __name__ == "__main__":
    sys.exit(main())
