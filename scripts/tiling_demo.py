#!/usr/bin/env python3
"""Build and re-verify almost-invariant transversals for Z and Z^2, and run
the experimental subspace probe, printing a compact summary of each
certificate."""

import argparse
import sys
from fractions import Fraction

from gradedgrowth.algebra_probe import algebra_tiling_probe
from gradedgrowth.registry import get_group
from gradedgrowth.tiling import build_transversal, congruence_quotient, verify_certificate


def summarize(cert, oracle):
    omega = congruence_quotient(oracle, cert.modulus)
    verdict, _ = verify_certificate(cert, oracle, omega)
    print(f"group={cert.group} quotient={cert.quotient_name} "
          f"|T|={len(cert.transversal)} defect={cert.defect} "
          f"delta={cert.delta} zeta={cert.zeta} height_cap={cert.height_cap}")
    for row in cert.trace:
        print(f"  step {row['step']}: level_size={row['level_size']} "
              f"s={row['s']} mu={row['mu']} nu={row['nu']} alpha={row['alpha']} "
              f"checks_ok={row['hypotheses_ok'] and row['mu_at_least_delta']}")
    print(f"  re-verification: {verdict}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epsilon", default="1/2")
    args = parser.parse_args(argv)
    eps = Fraction(args.epsilon)

    z = get_group("z")
    summarize(build_transversal(z, [(0,), (1,), (-1,)], eps), z)

    z2 = get_group("z2")
    k2 = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]
    summarize(build_transversal(z2, k2, eps), z2)

    print("\nexperimental subspace probe over GF(2)[Z], K = span{1, t}:")
    report = algebra_tiling_probe(2, [{0: 1}, {1: 1}], eps)
    print(f"  quotient level={report.quotient_level} omega_dim={report.omega_dim} "
          f"defect={report.defect}")
    for st in report.steps:
        print(f"  step {st.step}: level_dim={st.level_dim} s={st.s} mu={st.mu} "
              f"mu>=delta={st.mu_at_least_delta} "
              f"coverage_ok={st.coverage_identity_ok} "
              f"boundary_ok={st.boundary_bound_ok}")
    print(f"  all step assertions held: {report.all_step_assertions_held}"
          "  (recorded outcomes, not a theorem claim)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
