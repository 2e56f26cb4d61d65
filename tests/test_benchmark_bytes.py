"""Commands of the gf2_ladder, odd_ideals and cayley benchmark workloads
give recorded bytes.

The benchmark's own checks read only counts and verdicts, so a changed
complement in `rs_generators` or a changed ladder power would still pass
them, and so would an extra or a missing dead end on t334 or t335 (the
triangle check asks only that the family members be listed); the gf2_ladder
growth checks take their expected prefixes from the Jennings code that the
growth commands run themselves, so they cannot catch a wrong answer at all
(its Heisenberg table is locked by the README's sha1s).  Each command here runs in its own interpreter under
PYTHONHASHSEED=0 with the benchmark's registry, and its stdout sha1 must
equal the value recorded below (and in CHANGES.md): the odd_ideals ones
before the row-translation kernel was unified, the deadends ones before dead
ends were read off the ball BFS, the gf2_ladder ones (the z2 growth table
and the Q8 rs-check) before rs-check read its generators and its step bound
off one echelon form.  Two rs-check lines on groups that are not p-groups,
where the augmentation test for units never fires and every draw goes
through the right-ideal closure, were recorded before that test was added.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
REGISTRY = ROOT / "perfbench" / "registry.json"
RECORDED = {
    "growth --group c243 --p 3 --format json": "096a404f0c1f416fb36ace3011bf6bd71d0435e0",
    "growth --group z5m3 --p 3 --format json": "f4ef1ffe961212ff333122215e39a31c0d49dc0b",
    "growth --group z3m5 --p 5 --format json": "90fecccba8a683483ac66c522847628e3a802e90",
    "rs-check --group heisenberg_mod_3 --p 3 --ideals 20 --seed 1":
        "c8a85d73fe10fef620bb91cf934c986d5dd94d88",
    "rs-check --group z2m9 --p 3 --ideals 10 --seed 1":
        "7910dfeb19f0f8df4202b949d103e2f9b07e6e31",
    "deadends --group t334 --radius 15": "4b5478bd9314ecb9f79ea53dc177c82ddb089f3d",
    "deadends --group t335 --radius 12": "572271da6dbb529cfd2f553c2f8dff60cb0dfa1e",
    "deadends --group lamplighter --radius 19": "1328702b69a1e6da47112b3d291d0829a9e6f1a6",
    "growth --group z2 --p 2 --quotient-level 3 --format json":
        "09cbc939078439ec2da5f49f602631a1d23accb0",
    "rs-check --group q8 --p 2 --ideals 20 --seed 1": "9b607a45a0f5df9da2208dfaf92b8663396046f7",
}


# not benchmark commands: rs-check on groups whose draws all get a closure
OFF_P_GROUPS = {
    "rs-check --group c2xc2 --p 3 --ideals 5 --seed 1":
        "c0796445326f542c3b5ed48d9e2123fbc13ad9f3",
    "rs-check --group c3 --p 2 --ideals 5 --seed 1": "ef19e1dae2fd19ef55cac867afe64538df3a1e1d",
}


def stdout_sha1(line: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    env.pop("GRADEDGROWTH_BUDGET_MB", None)
    proc = subprocess.run([sys.executable, "-m", "gradedgrowth.cli", "--registry",
                           str(REGISTRY)] + line.split(),
                          env=env, capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    return hashlib.sha1(proc.stdout).hexdigest()


@pytest.mark.parametrize("line", sorted(RECORDED))
def test_stdout_sha1(line):
    assert stdout_sha1(line) == RECORDED[line]


@pytest.mark.parametrize("line", sorted(OFF_P_GROUPS))
def test_rs_check_off_p_groups_sha1(line):
    assert stdout_sha1(line) == OFF_P_GROUPS[line]
