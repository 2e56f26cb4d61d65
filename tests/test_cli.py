import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from gradedgrowth.cli import main

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).parent / "data"
PROBE = ["tile-algebra-probe", "--p", "2", "--epsilon", "1/2"]
TILE_Z2 = ["tile", "--group", "z2", "--epsilon", "1/2"]
GS = ["gs", "--d", "2", "--degrees", "5,6,7"]
TILE_Z = ["tile", "--group", "z", "--epsilon", "1/2"]
# verify's exit code with one top-level field of a certificate deleted, as
# measured when the certificates still had JSON codecs: a field that the
# verifier reads is required (4), any other may go missing (0)
TILING_MISSING_FIELD_CODES = {
    "certificate_type": 4,
    "config": 0,
    "defect": 4,
    "defect_decimal": 0,
    "delta": 4,
    "epsilon": 4,
    "group": 4,
    "height_cap": 4,
    "k": 4,
    "omega_size": 4,
    "placements": 4,
    "quotient_level": 4,
    "quotient_name": 4,
    "remainder": 4,
    "tower": 4,
    "tower_sizes": 0,
    "trace": 4,
    "transversal": 4,
    "zeta": 4,
}
GS_MISSING_FIELD_CODES = {
    "assumed_min_degree": 0,
    "certificate_type": 4,
    "config": 0,
    "d": 4,
    "degrees": 4,
    "grid": 0,
    "is_GS": 4,
    "p": 0,
    "t": 4,
    "tail_note": 0,
    "value": 4,
}
README_PRESENTATION = {"generators": ["x", "y"], "relators": ["xxx", "yyy", "xyxyxyxy"]}
# Output sha1s of certificate commands that the README does not run, recorded
# before the tiling and GS certificates were built as plain dicts.  A group
# runs in order in one directory, so that verify reads what tile wrote.
CERTIFICATE_SHA1 = {
    # the one path that sets assumed_min_degree (here 4)
    "gs-assumed-degree": {
        "gs --presentation pres.json --p 2 --max-deg 3 --assume-min-degree":
            "c67d81288b92eb0e9960603a2c994c398a18842c",
    },
    "gs-p-and-tail-note": {
        "gs --d 3 --degrees 2,2,2 --p 3 --tail-note none":
            "d77a7cbf05fadbeee7c98b03d2239c508dd37b03",
    },
    # verify takes the modulus 3**quotient_level from config.chain_base
    "tile-chain-base-3": {
        "tile --group z --epsilon 1/2 --chain-base 3 --out cert.json":
            "1d723bb59f26441da193ff19aae9fc6fdcbfbdb1",
        "verify --certificate cert.json": "ce3c4574f4dec7b6527028baf7af5e94a0449746",
    },
    "tile-z2-epsilon-1": {
        "tile --group z2 --epsilon 1": "013a65ac82ca7fa299dc921eafa98c9df2e77ff4",
    },
}


def run_cli(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(list(args) + ["--out", str(out)])
    return code, out.read_text() if out.exists() else None


class TestBasicCommands:
    def test_groups_listing(self, tmp_path):
        code, text = run_cli(["groups"], tmp_path)
        assert code == 0
        payload = json.loads(text)
        names = {g["name"] for g in payload["groups"]}
        assert {"z", "z2", "lamplighter", "t334", "q8"} <= names

    def test_growth_tsv_rows(self, tmp_path):
        code, text = run_cli(["growth", "--group", "c2xc2", "--p", "2"],
                             tmp_path, "growth.tsv")
        assert code == 0
        rows = [l.split("\t") for l in text.strip().splitlines()
                if l and not l.startswith("#") and not l.startswith("n\t")]
        assert [int(r[2]) for r in rows] == [1, 2, 1]

    def test_growth_infinite_group_uses_quotients(self, tmp_path):
        code, text = run_cli(["growth", "--group", "z", "--p", "2",
                              "--quotient-level", "2", "--format", "json"],
                             tmp_path)
        assert code == 0
        payload = json.loads(text)
        assert payload["graded_dims"] == [1, 1, 1, 1]
        assert "agreement" in payload["note"]

    def test_growth_heisenberg_beyond_the_algebra_cap(self):
        # one quotient, of order 4,096; gr F_2 H has Hilbert series
        # (1-t)^-2 (1-t^2)^-1, whose coefficients are floor((n+2)^2/4)
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "gradedgrowth.cli", "growth",
                               "--group", "heisenberg", "--p", "2",
                               "--quotient-level", "4", "--max-order", "40000",
                               "--format", "json"], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert time.perf_counter() - start < 5
        dims = json.loads(proc.stdout)["graded_dims"]
        assert dims == [(n + 2) ** 2 // 4 for n in range(16)]

    def test_growth_heisenberg_reads_one_quotient_under_the_cap(self, tmp_path):
        # Heisenberg over Z/8 has order 512; the level-4 quotient, of order
        # 4,096, is not built, so the default cap does not stop the run
        code, text = run_cli(["growth", "--group", "heisenberg", "--p", "2",
                              "--quotient-level", "3", "--format", "json"], tmp_path)
        assert code == 0
        dims = json.loads(text)["graded_dims"]
        assert dims == [(n + 2) ** 2 // 4 for n in range(8)]

    @pytest.mark.parametrize("group,d,p,args,length", [
        ("z", 1, 2, ["--quotient-level", "5"], 32),
        ("z2", 2, 2, ["--quotient-level", "3"], 8),
        ("z2", 2, 3, ["--quotient-base", "3"], 9),
        ("z3", 3, 2, ["--quotient-level", "3", "--max-order", "4096"], 8),
    ])
    def test_growth_free_abelian_hilbert_series(self, tmp_path, group, d, p, args, length):
        # gr F_p Z^d is a polynomial ring in d variables: C(n+d-1, d-1)
        argv = ["growth", "--group", group, "--p", str(p), "--format", "json"] + args
        code, text = run_cli(argv, tmp_path)
        assert code == 0
        dims = json.loads(text)["graded_dims"]
        assert dims == [math.comb(n + d - 1, d - 1) for n in range(length)]

    @pytest.mark.parametrize("group", ["z", "z2", "z3", "heisenberg"])
    def test_growth_corpus_exit_codes_and_closed_forms(self, tmp_path, group):
        # level m = base**level: exit 4 below level 1, 3 when the level-m
        # quotient, of order m^d or m^3, is over the cap, else the closed
        # form of gr F_p G below degree m_p, the largest power of p dividing m
        if group == "heisenberg":
            h, closed = 3, lambda n: (n + 2) ** 2 // 4
        else:
            h = 1 if group == "z" else int(group[1:])
            closed = lambda n: math.comb(n + h - 1, h - 1)
        for base, level, p, cap in itertools.product((2, 3, 4, 6, 10), range(-1, 5),
                                                     (2, 3, 5), (None, 5000)):
            argv = ["growth", "--group", group, "--p", str(p), "--format", "json",
                    "--quotient-base", str(base), "--quotient-level", str(level)]
            argv += [] if cap is None else ["--max-order", str(cap)]
            code, text = run_cli(argv, tmp_path, f"{base}-{level}-{p}-{cap}.json")
            m = base**level
            assert code == (4 if level < 1 else 3 if m**h > (cap or 2048) else 0), argv
            if code == 0:
                m_p = 1
                while m % (m_p * p) == 0:
                    m_p *= p
                assert json.loads(text)["graded_dims"] == [closed(n) for n in range(m_p)]

    def test_deadends_empty_z2(self, tmp_path):
        code, text = run_cli(["deadends", "--group", "z2", "--radius", "6"], tmp_path)
        assert code == 0
        assert json.loads(text)["count"] == 0

    def test_deadends_lamplighter(self, tmp_path):
        code, text = run_cli(["deadends", "--group", "lamplighter", "--radius", "8"],
                             tmp_path)
        assert code == 0
        assert json.loads(text)["count"] >= 1

    def test_folner(self, tmp_path):
        code, text = run_cli(["folner", "--group", "z2", "--bound", "1/2"], tmp_path)
        assert code == 0
        payload = json.loads(text)
        assert payload["defect"]["num"] * 2 < payload["defect"]["den"]

    def test_gs_free_pair(self, tmp_path):
        code, text = run_cli(["gs", "--d", "2", "--degrees", ""], tmp_path)
        assert code == 0
        assert json.loads(text)["is_GS"] is True

    def test_gs_presentation_file(self, tmp_path):
        pres = tmp_path / "pres.json"
        pres.write_text(json.dumps({"generators": ["x", "y"],
                                    "relators": ["xyXY"]}))
        code, text = run_cli(["gs", "--presentation", str(pres), "--p", "2"],
                             tmp_path)
        assert code == 0
        payload = json.loads(text)
        assert payload["degrees"] == [2]

    @pytest.mark.parametrize("relators,letter", [
        (["xxx", "yy"], "'y'"), (["xxx", "xZ"], "'Z'")])
    def test_gs_presentation_letters_are_declared(self, tmp_path, capsys,
                                                   relators, letter):
        # an undeclared letter once counted as a relator of a 1-generator group
        pres = tmp_path / "pres.json"
        pres.write_text(json.dumps({"generators": ["x"], "relators": relators}))
        code, text = run_cli(["gs", "--presentation", str(pres), "--p", "2"],
                             tmp_path)
        assert (code, text) == (4, None)
        assert f"relator letter {letter} is not a declared generator" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("generators,name", [
        (["x", "x"], "'x' is declared twice"), (["x", "X"], "'X' is declared twice"),
        ("xx", "a list of names, got 'xx'")])
    def test_gs_presentation_generators_are_distinct(self, tmp_path, capsys,
                                                     generators, name):
        # each once counted d = 2 and certified Z/3 as Golod-Shafarevich
        pres = tmp_path / "pres.json"
        pres.write_text(json.dumps({"generators": generators, "relators": ["xxx"]}))
        code, text = run_cli(["gs", "--presentation", str(pres), "--p", "3"], tmp_path)
        assert (code, text) == (4, None)
        assert name in capsys.readouterr().err

    def test_crystal_mul_and_untwist(self, tmp_path):
        code, text = run_cli(["crystal", "--group", "z", "--p", "5", "--lam", "2",
                              "--mul", "1*(1)", "1*(-1)", "--untwist"], tmp_path)
        assert code == 0
        payload = json.loads(text)
        assert payload["product"] == [[[0], 4]]
        assert payload["untwisted"] == [[[0], 4]]

    def test_crystal_monomial_check(self, tmp_path):
        code, text = run_cli(["crystal", "--group", "z", "--p", "2",
                              "--lam", "0", "--radius", "4", "--check-monomial"],
                             tmp_path)
        assert code == 0
        assert json.loads(text)["monomial_check"] is True

    def test_rs_check(self, tmp_path):
        code, text = run_cli(["rs-check", "--group", "c4", "--p", "2",
                              "--ideals", "5", "--seed", "0"], tmp_path)
        assert code == 0
        payload = json.loads(text)
        assert payload["ideals_tested"] == 5
        assert payload["all_regenerate"] and payload["all_bounds_hold"]

    def test_tile_z(self, tmp_path):
        code, text = run_cli(["tile", "--group", "z", "--epsilon", "1/2"], tmp_path)
        assert code == 0
        payload = json.loads(text)
        assert payload["defect"]["num"] * 2 < payload["defect"]["den"]


class TestDeterminism:
    @pytest.mark.parametrize("args", [
        ["growth", "--group", "q8", "--p", "2"],
        ["gs", "--d", "3", "--degrees", "2,2,2"],
        ["deadends", "--group", "lamplighter", "--radius", "7"],
        ["tile", "--group", "z", "--epsilon", "1/2"],
        ["rs-check", "--group", "c2xc2", "--p", "3", "--ideals", "3"],
    ])
    def test_identical_bytes(self, args, tmp_path):
        _, first = run_cli(args, tmp_path, "a.out")
        _, second = run_cli(args, tmp_path, "b.out")
        assert first == second

    @pytest.mark.parametrize("lines", CERTIFICATE_SHA1.values(), ids=CERTIFICATE_SHA1.keys())
    def test_certificate_bytes(self, lines, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "pres.json").write_text(json.dumps(README_PRESENTATION))
        for line, sha1 in lines.items():
            argv = line.split()
            if "--out" not in argv:
                argv += ["--out", "out.json"]
            assert main(argv) == 0
            data = (tmp_path / argv[argv.index("--out") + 1]).read_bytes()
            assert hashlib.sha1(data).hexdigest() == sha1, line

    def test_probe_golden_file(self, tmp_path):
        code, text = run_cli(["tile-algebra-probe", "--p", "2",
                              "--epsilon", "1/2"], tmp_path)
        assert code == 0
        golden = (DATA / "algebra_probe_golden.json").read_text()
        assert text == golden


class TestVerifyRoundTrip:
    def test_tiling_certificate(self, tmp_path):
        cert = tmp_path / "cert.json"
        assert main(["tile", "--group", "z2", "--epsilon", "1/2",
                     "--out", str(cert)]) == 0
        out = tmp_path / "verify.json"
        assert main(["verify", "--certificate", str(cert),
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["result"]["matches"] is True

    def test_gs_certificate(self, tmp_path):
        cert = tmp_path / "gs.json"
        assert main(["gs", "--d", "2", "--degrees", "5,6,7",
                     "--out", str(cert)]) == 0
        assert main(["verify", "--certificate", str(cert),
                     "--out", str(tmp_path / "v.json")]) == 0

    def test_tampered_certificate_fails(self, tmp_path):
        cert = tmp_path / "gs.json"
        main(["gs", "--d", "2", "--degrees", "", "--out", str(cert)])
        payload = json.loads(cert.read_text())
        payload["value"]["num"] += 1
        cert.write_text(json.dumps(payload))
        assert main(["verify", "--certificate", str(cert),
                     "--out", str(tmp_path / "v.json")]) == 4

    def test_probe_schema_verify(self, tmp_path):
        cert = tmp_path / "probe.json"
        main(["tile-algebra-probe", "--p", "2", "--epsilon", "1/2",
              "--out", str(cert)])
        assert main(["verify", "--certificate", str(cert),
                     "--out", str(tmp_path / "v.json")]) == 0

    def test_tampered_probe_report_fails(self, tmp_path):
        cert = tmp_path / "probe.json"
        main(["tile-algebra-probe", "--p", "2", "--epsilon", "1/2",
              "--out", str(cert)])
        payload = json.loads(cert.read_text())
        payload["steps"][0]["s"] += 1
        cert.write_text(json.dumps(payload))
        out = tmp_path / "v.json"
        assert main(["verify", "--certificate", str(cert), "--out", str(out)]) == 4
        assert json.loads(out.read_text())["result"]["mismatched_fields"] == ["steps"]

    @pytest.mark.parametrize("command,field,code", [
        *(pytest.param(TILE_Z, field, code, id=f"tiling-{field}")
          for field, code in TILING_MISSING_FIELD_CODES.items()),
        *(pytest.param(GS, field, code, id=f"gs-{field}")
          for field, code in GS_MISSING_FIELD_CODES.items()),
        pytest.param(PROBE, "config", 4, id="probe-config"),
    ])
    def test_missing_field_is_4(self, tmp_path, command, field, code):
        cert = tmp_path / "cert.json"
        assert main(command + ["--out", str(cert)]) == 0
        payload = json.loads(cert.read_text())
        del payload[field]
        cert.write_text(json.dumps(payload))
        assert main(["verify", "--certificate", str(cert),
                     "--out", str(tmp_path / "v.json")]) == code

    @pytest.mark.parametrize("command,codes", [
        (TILE_Z, TILING_MISSING_FIELD_CODES),
        (GS, GS_MISSING_FIELD_CODES),
    ], ids=["tiling", "gs"])
    def test_missing_field_tables_name_every_field(self, tmp_path, command, codes):
        cert = tmp_path / "cert.json"
        assert main(command + ["--out", str(cert)]) == 0
        assert sorted(json.loads(cert.read_text())) == sorted(codes)

    @pytest.mark.parametrize("text", [
        "[]", "not json",
        pytest.param('{"certificate_type": "other"}', id="type-unknown"),
        pytest.param('{"certificate_type": []}', id="type-list"),
    ])
    def test_not_a_certificate_is_4(self, tmp_path, text):
        cert = tmp_path / "cert.json"
        cert.write_text(text)
        assert main(["verify", "--certificate", str(cert),
                     "--out", str(tmp_path / "v.json")]) == 4

    def test_tampered_tiling_certificate_fails(self, tmp_path):
        cert = tmp_path / "cert.json"
        assert main(["tile", "--group", "z", "--epsilon", "1/2",
                     "--out", str(cert)]) == 0
        payload = json.loads(cert.read_text())
        payload["defect"]["num"] += 1
        cert.write_text(json.dumps(payload))
        out = tmp_path / "v.json"
        assert main(["verify", "--certificate", str(cert), "--out", str(out)]) == 4
        result = json.loads(out.read_text())["result"]
        assert result["matches"] is False and result["projection_bijective"] is True

    def test_swapped_k_fails(self, tmp_path):
        # K = {0} with defect 0 recounts, but it is not the radius-1 ball
        # that config.k_radius records
        cert = tmp_path / "cert.json"
        assert main(TILE_Z2 + ["--out", str(cert)]) == 0
        payload = json.loads(cert.read_text())
        payload.update(k=[[0, 0]], defect={"num": 0, "den": 1})
        cert.write_text(json.dumps(payload))
        out = tmp_path / "v.json"
        assert main(["verify", "--certificate", str(cert), "--out", str(out)]) == 4
        result = json.loads(out.read_text())["result"]
        assert result.pop("matches") is False
        assert result.pop("defect_recount") == {"num": 0, "den": 1}
        assert all(ok is True for ok in result.values()), result

    def test_traced_verify_calls_verify_certificate_once(self, tmp_path, monkeypatch):
        # the layer tracer rebinds tiling's module global; verify must reach
        # verify_certificate through it
        cert = tmp_path / "cert.json"
        assert main(TILE_Z2 + ["--out", str(cert)]) == 0
        timing, trace = tmp_path / "timing.json", tmp_path / "trace.json"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                                           os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "child.py"),
                               str(timing), "--trace", str(trace), "verify",
                               "--certificate", str(cert), "--out", str(tmp_path / "v.json")],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        import run
        values = run.layer_values(json.loads(trace.read_text()))
        assert values["tiling.verify_certificate.calls"] == 1

    @pytest.mark.parametrize("field,index,value", [
        ("transversal", (0, 1), "x"),  # a coordinate that is not an integer
        ("k", (0,), [0, 0, 0]),  # an element of the wrong width
    ], ids=["non-integer-coordinate", "wrong-width"])
    def test_malformed_tiling_element_is_4(self, tmp_path, field, index, value):
        cert = tmp_path / "cert.json"
        assert main(["tile", "--group", "z2", "--epsilon", "1/2",
                     "--out", str(cert)]) == 0
        payload = json.loads(cert.read_text())
        target = payload[field]
        for i in index[:-1]:
            target = target[i]
        target[index[-1]] = value
        cert.write_text(json.dumps(payload))
        assert main(["verify", "--certificate", str(cert),
                     "--out", str(tmp_path / "v.json")]) == 4

    @pytest.mark.parametrize("group", ["c4", "q8"])
    def test_tiling_certificate_of_a_finite_group_is_4(self, tmp_path, group):
        # their elements are ints, not vectors: verify must say that the
        # group has no congruence quotients before it reads an element's width
        cert = tmp_path / "cert.json"
        assert main(TILE_Z + ["--out", str(cert)]) == 0
        payload = json.loads(cert.read_text())
        payload["group"] = group
        cert.write_text(json.dumps(payload))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                                           os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-m", "gradedgrowth.cli", "verify",
                               "--certificate", str(cert)],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 4, proc.stderr
        assert proc.stdout == ""
        assert f"no congruence quotients built in for {group}" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command,key,value", [
        (PROBE, ("config", "p"), "2"),
        (PROBE, ("config", "p"), 2.0),
        (PROBE, ("config", "k_exponents"), "0,1"),
        (PROBE, ("config", "chain_base"), "2"),
        (TILE_Z2, ("group",), ["z2"]),
        (TILE_Z2, ("group",), {}),
        (TILE_Z2, ("config",), []),
        (TILE_Z2, ("config", "chain_base"), 2.0),
        (TILE_Z2, ("quotient_level",), 5.0),
        (TILE_Z2, ("config", "k_radius"), 1.0),
        (GS, ("degrees",), [2.5]),
        (GS, ("d",), 2.5),
        (GS, ("degrees",), [True, True]),
    ], ids=["p-string", "p-float", "exponents-string", "base-string", "group-list",
            "group-object", "config-list", "tiling-base-float", "level-float",
            "k-radius-float", "gs-degree-float", "gs-d-float", "gs-degrees-bool"])
    def test_ill_typed_field_is_4(self, tmp_path, command, key, value):
        cert = tmp_path / "cert.json"
        assert main(command + ["--out", str(cert)]) == 0
        payload = json.loads(cert.read_text())
        target = payload
        for part in key[:-1]:
            target = target[part]
        target[key[-1]] = value
        if payload["certificate_type"] == "gs":
            # value and is_GS as the series gives them on the edited fields,
            # so that a verifier blind to the field types would accept
            t = Fraction(payload["t"]["num"], payload["t"]["den"])
            forged = Fraction(1 - payload["d"] * t + sum(t**deg for deg in payload["degrees"]))
            payload.update(value={"num": forged.numerator, "den": forged.denominator},
                           is_GS=forged < 0)
        cert.write_text(json.dumps(payload))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                                           os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-m", "gradedgrowth.cli", "verify",
                               "--certificate", str(cert)],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 4, proc.stderr
        assert "contract violation" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestElementLiteralWidth:
    """A tuple literal has the width of the group's elements: 1 for a
    cyclic group, which once read (1,2) as 1."""

    @pytest.mark.parametrize("group,literal,width", [
        ("c4", "(1,2)", 2), ("c4", "()", 0), ("z2", "(1)", 1), ("z2", "(1,0,0)", 3),
        ("heisenberg", "(1,0)", 2),
    ])
    def test_wrong_width_is_4(self, tmp_path, capsys, group, literal, width):
        code, text = run_cli(["crystal", "--group", group, "--p", "5",
                              "--mul", literal, "1"], tmp_path)
        assert (code, text) == (4, None)
        assert f"has width {width};" in capsys.readouterr().err

    @pytest.mark.parametrize("group,literal", [
        ("q8", "(2)"), ("lamplighter", "(1,2)"), ("free2", "(1)"), ("t334", "(1)"),
    ])
    def test_literal_on_non_tuple_group_is_4(self, tmp_path, capsys, group, literal):
        # once read as a tuple and reported only as outside the ball
        code, text = run_cli(["crystal", "--group", group, "--p", "5", "--lam", "1",
                              "--mul", literal, "1"], tmp_path)
        assert (code, text) == (4, None)
        assert (f"element literal {literal} names no element: {group} elements "
                "are not integer tuples") in capsys.readouterr().err

    # sha1s of the output recorded before the width check
    @pytest.mark.parametrize("group,literals,sha1", [
        ("c4", ["(1)", "(2)"], "4788b7533cb67813ff24602bb3342c06db4d93f6"),
        ("z2", ["(1,0)", "(0,-1)"], "c78ab8c00cfcae7248401c09050f267d2bd06e9d"),
    ])
    def test_right_width_keeps_its_bytes(self, tmp_path, group, literals, sha1):
        code, text = run_cli(["crystal", "--group", group, "--p", "5", "--lam", "1",
                              "--mul"] + literals, tmp_path)
        assert code == 0
        assert hashlib.sha1(text.encode()).hexdigest() == sha1


# element spellings for the crystal literal corpus: group -> (a literal of
# the identity, [(element text, the element as crystal prints it)]), with
# tuples, bare integers and words where the group has them
LITERAL_ELEMENTS = {
    "z": ("0", [("(1)", [1]), ("( -2 )", [-2]), ("3", [3]), ("0", [0]),
                ("a", [1]), ("AA", [-2]), ("aA", [0])]),
    "z2": ("(0,0)", [("(1,0)", [1, 0]), ("( 0 , -1 )", [0, -1]), ("ab", [1, 1]),
                     ("B", [0, -1])]),
    "c4": ("0", [("(1)", 1), ("(6)", 2), ("3", 3), ("7", 3), ("s", 1), ("SS", 2)]),
    "q8": ("0", [("1", 1), ("2", 2), ("9", 1), ("i", 2), ("ij", 6), ("J", 5)]),
    "free2": ("aA", [("a", "a"), ("ab", "ab"), ("Ba", "Ba"), ("aA", "")]),
    "lamplighter": ("tT", [("t", [[], 1]), ("a", [[0], 0]), ("ta", [[1], 1]),
                           ("TaT", [[-1], -2])]),
}


def random_literal(rng, elements):
    """A literal of one to three (sign, coefficient, element) terms, with
    and without spaces, and the map element -> coefficient it denotes.  A
    coefficient is left out or written "n*"; a negative term after the first
    is written "- t" or "+ -t"."""
    text, terms = "", {}
    for i in range(rng.randint(1, 3)):
        sign, coeff = rng.choice([1, -1]), rng.choice([None, 0, 1, 2, 7])
        elem, value = rng.choice(elements)
        space = rng.choice(["", " "])
        if i == 0:
            text += "-" * (sign < 0)
        else:
            text += space + (rng.choice(["-", "+ -"]) if sign < 0 else "+") + space
        text += ("" if coeff is None else f"{coeff}{space}*{space}") + elem
        key = json.dumps(value)
        terms[key] = terms.get(key, 0) + sign * (1 if coeff is None else coeff)
    return text, {k: c for k, c in terms.items() if c}


class TestCrystalLiteralGrammar:
    """A literal is a sum of terms: a sign (required after the first term),
    an optional coefficient "n*", then a tuple, an integer or a word."""

    @staticmethod
    def read(tmp_path, group, literal, *args):
        """crystal's reading of a literal over Z, as its product with the
        identity (d_g * d_e = d_g at every lambda)."""
        code, text = run_cli(["crystal", "--group", group, *args, "--mul",
                              literal, LITERAL_ELEMENTS[group][0]], tmp_path)
        if code:
            return code, None
        return code, {json.dumps(g): c for g, c in json.loads(text)["product"]}

    @pytest.mark.parametrize("group", LITERAL_ELEMENTS)
    def test_corpus_reads_its_terms(self, tmp_path, group):
        rng = random.Random(group)
        corpus = [random_literal(rng, LITERAL_ELEMENTS[group][1]) for _ in range(25)]
        if group == "z":
            corpus.append(("3*(1) + -2*(0)", {"[1]": 3, "[0]": -2}))
        for literal, terms in corpus:
            assert self.read(tmp_path, group, literal) == (0, terms), literal

    def test_coefficient_times_negative_integer(self, tmp_path):
        # once read as d_0 + 4 d_1: "1*" as 1 times the empty word, then "-1"
        assert self.read(tmp_path, "z", "1*-1", "--p", "5", "--lam", "1") == \
            (0, {"[-1]": 1})

    def test_leading_plus(self, tmp_path):
        assert self.read(tmp_path, "z", "+1") == (0, {"[1]": 1})

    @pytest.mark.parametrize("group,literal,terms", [
        ("z", "-(1)", {"[1]": 4}), ("z", "-2*a", {"[1]": 3}), ("free2", "-a", {'"a"': 4})])
    def test_leading_minus_is_a_value(self, tmp_path, group, literal, terms):
        # argparse once read "-(1)" after --mul as an option (exit 2)
        assert self.read(tmp_path, group, literal, "--p", "5") == (0, terms)

    @pytest.mark.parametrize("mul", [["-(1)"], ["--1", "0"], ["-h", "0"], ["0", "--p", "5"]])
    def test_options_after_mul_stay_usage_errors(self, capsys, mul):
        with pytest.raises(SystemExit) as exc:
            main(["crystal", "--group", "z", "--mul", *mul])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            "error: argument --mul: expected 2 arguments\n")

    @pytest.mark.parametrize("literal,rest", [
        ("2*", "*"), ("2 * -(1)", "* -(1)"), ("1 2", "2"), ("(1)(2)", "(2)")])
    def test_unread_text_is_4(self, tmp_path, capsys, literal, rest):
        # "2*" was once 2 d_e, and "2 * -(1)" 2 d_0 + 4 d_1
        assert self.read(tmp_path, "z", literal, "--p", "5") == (4, None)
        assert f"cannot read {rest!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("group", ["c2xc2", "d4", "heisenberg_mod_3", "z2"])
    def test_bare_integer_on_a_group_of_tuples_is_4(self, tmp_path, capsys, group):
        # on the finite groups, once reported only as outside the ball
        code, text = run_cli(["crystal", "--group", group, "--p", "5", "--lam", "1",
                              "--mul", "1", "1"], tmp_path)
        assert (code, text) == (4, None)
        assert (f"element literal 1 names no element: {group} elements are not "
                "integers") in capsys.readouterr().err


class TestExitCodes:
    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["growth"])  # missing required flags
        assert exc.value.code == 2

    def test_contract_error_is_4(self, tmp_path):
        assert main(["growth", "--group", "nope", "--p", "2",
                     "--out", str(tmp_path / "x")]) == 4

    @pytest.mark.parametrize("args", [
        ["--p", "4"],
        ["--p", "65537"],
        ["--p", "4", "--mul", "1*(1)", "1*(1)"],
        ["--lam", "2", "--mul", "1*(1)", "1*(-1)", "--untwist"],
        ["--check-monomial"],
        ["--p", "5", "--check-monomial", "--sample-size", "-1"],
        ["--p", "5", "--check-monomial", "--radius", "3", "--sample-size", "0"],
    ], ids=["p-4", "p-65537", "p-4-mul", "untwist-over-z", "monomial-without-p",
            "negative-sample-size", "empty-sample"])
    def test_crystal_contract_errors_are_4(self, tmp_path, args):
        assert main(["crystal", "--group", "z"] + args
                    + ["--out", str(tmp_path / "x")]) == 4

    @pytest.mark.parametrize("args", [
        ["rs-check", "--group", "q8", "--p", "2", "--ideals", "0"],
        ["rs-check", "--group", "q8", "--p", "2", "--ideals", "-3"],
        ["tile", "--group", "z2", "--epsilon", "1/2", "--max-quotients", "0"],
        ["folner", "--group", "z2", "--bound", "1/2", "--max-radius", "0"],
        ["folner", "--group", "z2", "--bound", "1/2", "--max-radius", "-3"],
    ], ids=["no-ideals", "negative-ideals", "no-quotients", "no-radius", "negative-radius"])
    def test_empty_searches_are_4(self, tmp_path, args):
        # a search over nothing would report a vacuous pass or a failure
        assert main(args + ["--out", str(tmp_path / "x")]) == 4

    @pytest.mark.parametrize("fmt", [[], ["--format", "json"]], ids=["tsv", "json"])
    def test_prime_above_bound_is_4(self, fmt):
        # int64 elimination would overflow past 2**32; the bound is 2**16
        proc = subprocess.run([sys.executable, "-m", "gradedgrowth.cli", "growth",
                               "--group", "c4", "--p", "4294967311"] + fmt,
                              capture_output=True, text=True)
        assert proc.returncode == 4
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert "p < 2**16" in proc.stderr

    @pytest.mark.parametrize("args,code", [
        (["--p", "4", "--quotient-level", "4"], 3),  # over the cap: before the prime
        (["--p", "4"], 4),
        (["--p", "2", "--quotient-base", "1"], 4),
        (["--p", "2", "--quotient-base", "-2"], 4),  # (-2)**2 is no chain's level
    ])
    def test_growth_infinite_group_exit_codes(self, tmp_path, args, code):
        assert main(["growth", "--group", "heisenberg"] + args
                    + ["--out", str(tmp_path / "x")]) == code

    @pytest.mark.parametrize("args", [
        ["--quotient-level", "63"],  # 2**63 and 2**64 overflow int64
        ["--quotient-base", "3", "--quotient-level", "40"],
    ], ids=["2**63", "3**40"])
    def test_quotient_modulus_past_int64_is_3(self, tmp_path, args):
        assert main(["growth", "--group", "z2", "--p", "2"] + args
                    + ["--out", str(tmp_path / "x")]) == 3

    @pytest.mark.parametrize("level", [63, 100])
    def test_tiling_certificate_past_int64_is_4(self, tmp_path, level):
        cert = tmp_path / "cert.json"
        assert main(["tile", "--group", "z2", "--epsilon", "1/2",
                     "--out", str(cert)]) == 0
        payload = json.loads(cert.read_text())
        payload["quotient_level"] = level
        cert.write_text(json.dumps(payload))
        out = tmp_path / "v.json"
        assert main(["verify", "--certificate", str(cert), "--out", str(out)]) == 4
        assert json.loads(out.read_text())["result"]["matches"] is False

    @pytest.mark.parametrize("p", ["0", "4", "-3", "65537"])
    @pytest.mark.parametrize("relators", [["xyXY"], []], ids=["one-relator", "no-relators"])
    def test_presentation_prime_is_checked(self, tmp_path, relators, p):
        pres = tmp_path / "pres.json"
        pres.write_text(json.dumps({"generators": ["x", "y"], "relators": relators}))
        assert main(["gs", "--presentation", str(pres), "--p", p,
                     "--out", str(tmp_path / "x")]) == 4

    def test_presentation_without_relators_is_4(self, tmp_path):
        pres = tmp_path / "pres.json"
        pres.write_text(json.dumps({"generators": ["x", "y"]}))
        assert main(["gs", "--presentation", str(pres), "--p", "2",
                     "--out", str(tmp_path / "x")]) == 4

    @pytest.mark.parametrize("text", [
        None,  # no file
        "{bad",
        '{"g": "cyclic"}',
        '{"g": {"kind": "cyclic"}}',
        '{"g": {"kind": "cyclic", "params": {"n": "x"}}}',
        '{"g": {"kind": "abelian", "params": {"orders": 5}}}',
        '{"g": {"kind": "finite_cayley_table", '
        '"params": {"table": [[0, 1], [1, 0]], "generators": {"s": 5}}}}',
        # one generator letter a-z per factor: a 27th factor would get none
        '{"g": {"kind": "zd_mod", "params": {"d": 27, "m": 2}}}',
        '{"g": {"kind": "abelian", "params": {"orders": ' + json.dumps([2] * 27) + '}}}',
        # JSON integers only: int() once read n 4.9 as 4 (c4), m "9" as 9 and
        # m 3.5 as 3, and a Cayley table took 0.0 and true as row indices
        '{"g": {"kind": "cyclic", "params": {"n": 4.9}}}',
        '{"g": {"kind": "zd_mod", "params": {"d": 2, "m": "9"}}}',
        '{"g": {"kind": "heisenberg_mod", "params": {"m": 3.5}}}',
        '{"g": {"kind": "cyclic", "params": {"n": true}}}',
        '{"g": {"kind": "abelian", "params": {"orders": [2, true]}}}',
        '{"g": {"kind": "finite_cayley_table", '
        '"params": {"table": [[0, 1], [1, 0]], "generators": {"s": 1}, "identity": 0.0}}}',
        '{"g": {"kind": "finite_cayley_table", '
        '"params": {"table": [[0, 1], [1, 0]], "generators": {"s": true}}}}',
        '{"g": {"kind": "rewriting_backed", '
        '"params": {"generators": ["a"], "relators": ["aa"], "inverse_letters": "false"}}}',
    ], ids=["missing", "json", "string-spec", "no-n", "n-not-int", "orders-not-list",
            "cayley-generator", "zd-mod-27-factors", "abelian-27-factors", "n-float",
            "m-string", "heisenberg-m-float", "n-bool", "orders-bool", "identity-float",
            "cayley-generator-bool", "inverse-letters-string"])
    @pytest.mark.parametrize("command", [["growth", "--group", "g", "--p", "2"], ["groups"]],
                             ids=["growth", "groups"])
    def test_malformed_registry_is_4(self, tmp_path, text, command):
        registry = tmp_path / "reg.json"
        if text is not None:
            registry.write_text(text)
        assert main(["--registry", str(registry)] + command
                    + ["--out", str(tmp_path / "x")]) == 4

    @pytest.mark.parametrize("args", [
        ["gs", "--d", "2", "--degrees", "a,b"],
        ["tile-algebra-probe", "--p", "2", "--epsilon", "1/2", "--k-exponents", "x"],
        ["crystal", "--group", "z", "--p", "5", "--mul", "x*(1)", "1"],
        ["crystal", "--group", "c4", "--p", "5", "--mul", "1*()", "1"],
    ], ids=["gs-degrees", "probe-exponents", "crystal-coefficient", "crystal-empty-tuple"])
    def test_malformed_literal_is_4(self, tmp_path, args):
        assert main(args + ["--out", str(tmp_path / "x")]) == 4

    def test_missing_certificate_file_is_4(self, tmp_path):
        assert main(["verify", "--certificate", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "x")]) == 4

    def test_search_failure_is_5(self, tmp_path):
        assert main(["folner", "--group", "free2", "--bound", "1/2",
                     "--max-radius", "6", "--out", str(tmp_path / "x")]) == 5

    def test_resource_budget_is_3(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GRADEDGROWTH_BUDGET_MB", "1")  # caps balls at 20k elements
        code = main(["deadends", "--group", "z3", "--radius", "30",
                     "--out", str(tmp_path / "x")])
        assert code == 3

    @pytest.mark.parametrize("args,code", [(["--max-order", "1"], 3), ([], 0)])
    def test_growth_max_order_caps_a_finite_group(self, tmp_path, args, code):
        assert main(["growth", "--group", "c2xc2", "--p", "2"] + args
                    + ["--out", str(tmp_path / "x")]) == code

    def test_folner_box_over_the_ball_budget_is_3(self, tmp_path, monkeypatch):
        # under a 20k-element cap the balls of Z^8 up to radius 4 fit, the
        # 4**8 = 65,536-element box does not
        registry = tmp_path / "reg.json"
        registry.write_text(json.dumps({"z8": {"kind": "free_abelian", "params": {"d": 8}}}))
        monkeypatch.setenv("GRADEDGROWTH_BUDGET_MB", "1")
        assert main(["--registry", str(registry), "folner", "--group", "z8",
                     "--bound", "1/100", "--max-radius", "5",
                     "--out", str(tmp_path / "x")]) == 3

    def test_probe_keeps_the_algebra_cap(self, tmp_path):
        # the level-2 quotient over chain base 50 has order 2,500 > 2,048
        assert main(["tile-algebra-probe", "--p", "2", "--epsilon", "1/100",
                     "--chain-base", "50", "--out", str(tmp_path / "x")]) == 3

    @pytest.mark.parametrize("base,code,message", [
        ("1", 4, "cyclic order"),  # m < 2 comes first
        ("4096", 3, "algebra cap"),  # then the cap
        ("2", 4, "prime"),  # then the prime
    ], ids=["order-below-two", "cap", "prime"])
    def test_probe_guard_order(self, tmp_path, capsys, base, code, message):
        assert main(["tile-algebra-probe", "--p", "4", "--epsilon", "1/2",
                     "--chain-base", base, "--out", str(tmp_path / "x")]) == code
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["lots", "0", "-5"])
    def test_invalid_budget_is_4(self, tmp_path, monkeypatch, value):
        monkeypatch.setenv("GRADEDGROWTH_BUDGET_MB", value)
        code = main(["deadends", "--group", "z2", "--radius", "3",
                     "--out", str(tmp_path / "x")])
        assert code == 4

    def test_console_script_installed(self):
        proc = subprocess.run([sys.executable, "-m", "gradedgrowth.cli",
                               "gs", "--d", "1", "--degrees", ""],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["is_GS"] is False
