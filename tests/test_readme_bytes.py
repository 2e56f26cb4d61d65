"""Every README command and every script under scripts/ gives the bytes
recorded in data/readme_sha1.json.

The keys of that file are the command lines as the README writes them.
They run in order in one scratch directory (so `verify` reads the
certificate `tile` wrote), each in its own interpreter.  A command with
`--out` is hashed by its output file, every other one by its stdout.  All
of them run under PYTHONHASHSEED=1; the sub-second ones run again under
PYTHONHASHSEED=2.
"""

import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDED = json.loads((Path(__file__).parent / "data" / "readme_sha1.json").read_text())
PRESENTATION = {"generators": ["x", "y"], "relators": ["xxx", "yyy", "xyxyxyxy"]}
SLOW = {
    "gradedgrowth growth --group heisenberg --p 2 --format json",
    "gradedgrowth tile --group z2 --epsilon 1/2 --out cert.json",
    "python scripts/growth_survey.py",
    "python scripts/tiling_demo.py",
}


def _sha1(line: str, cwd: Path, seed: str) -> str:
    argv = shlex.split(line)
    if argv[0] == "gradedgrowth":
        argv = [sys.executable, "-m", "gradedgrowth.cli"] + argv[1:]
    else:
        argv = [sys.executable, str(ROOT / argv[1])]
    env = dict(os.environ, PYTHONHASHSEED=seed,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True)
    assert proc.returncode == 0, (line, proc.stderr.decode())
    out = argv[argv.index("--out") + 1] if "--out" in argv else None
    data = (cwd / out).read_bytes() if out else proc.stdout
    return hashlib.sha1(data).hexdigest()


@pytest.fixture(scope="module")
def hashes(tmp_path_factory):
    cwd = tmp_path_factory.mktemp("readme")
    (cwd / "pres.json").write_text(json.dumps(PRESENTATION))
    seed1 = {line: _sha1(line, cwd, "1") for line in RECORDED}
    seed2 = {line: _sha1(line, cwd, "2") for line in RECORDED if line not in SLOW}
    return seed1, seed2


def test_recorded_lines_are_the_readme_commands():
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = [re.sub(r"\s+#.*$", "", l).strip() for l in block.splitlines() if l.strip()]
    assert commands == [l for l in RECORDED if l.startswith("gradedgrowth ")]


def test_bytes_match_under_hash_seed_1(hashes):
    assert hashes[0] == RECORDED


def test_fast_commands_match_under_hash_seed_2(hashes):
    assert hashes[1] == {l: h for l, h in RECORDED.items() if l not in SLOW}
