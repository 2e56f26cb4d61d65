#!/usr/bin/env python3
"""Survey augmentation-filtration growth across the built-in groups.

For each finite p-group: the ladder dims, the p-central-series product
formula, and whether they agree.  For Z^d: the graded dims below degree
m_p at level m, the Euler product of the lower central ranks, which is the
prefix on which level m and the next agree, with the Fekete-style root
estimates.
Writes TSV to stdout or --out.
"""

import argparse
import sys

from gradedgrowth.filtration import (aug_ladder, build_group_algebra,
                                     graded_dims_via_jennings, group_graded_dims,
                                     growth_report, jennings_hilbert_coeffs,
                                     jennings_series)
from gradedgrowth.groups import FreeAbelian, HeisenbergMod
from gradedgrowth.registry import P_GROUP_NAMES, get_group


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=None)
    parser.add_argument("--heisenberg-max-level", type=int, default=5)
    args = parser.parse_args(argv)
    lines = []

    lines.append("== finite p-groups: ladder vs p-central product formula ==")
    lines.append("group\tp\tladder\tformula\tagree")
    for p, names in P_GROUP_NAMES.items():
        for name in names:
            group = get_group(name)
            lad = aug_ladder(build_group_algebra(group, p)).graded_dims
            formula = jennings_hilbert_coeffs(jennings_series(group, p).dims, p)
            lines.append(f"{name}\t{p}\t{lad}\t{formula}\t{lad == formula}")

    lines.append("")
    lines.append("== Z^d via quotient agreement (base 2, levels 2 and 3) ==")
    for d in (1, 2):
        # the dims below degree 4, where levels 2 and 3 agree
        prefix = group_graded_dims(FreeAbelian(d), 2**2, 2)
        rep = growth_report(prefix)
        lines.append(f"Z^{d}\tprefix={prefix}\tfekete={rep['fekete_estimate']:.4f}")

    lines.append("")
    lines.append("== Heisenberg quotients: graded dims and root estimates ==")
    lines.append("level\torder\ttop_degree\tfekete\targmin")
    for m in range(1, args.heisenberg_max_level + 1):
        group = HeisenbergMod(2**m)
        dims = graded_dims_via_jennings(group, 2)
        rep = growth_report(dims)
        lines.append(f"2^{m}\t{group.order}\t{len(dims) - 1}"
                     f"\t{rep['fekete_estimate']:.6f}\t{rep['fekete_argmin']}")

    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
