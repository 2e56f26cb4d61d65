import json
import subprocess
import sys
from pathlib import Path

import pytest

from gradedgrowth.cli import main

DATA = Path(__file__).parent / "data"


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

    @pytest.mark.parametrize("command,field", [
        (["tile", "--group", "z", "--epsilon", "1/2"], "k"),
        (["gs", "--d", "2", "--degrees", "5"], "t"),
        (["tile-algebra-probe", "--p", "2", "--epsilon", "1/2"], "config"),
    ], ids=["tiling", "gs", "probe"])
    def test_missing_field_is_4(self, tmp_path, command, field):
        cert = tmp_path / "cert.json"
        assert main(command + ["--out", str(cert)]) == 0
        payload = json.loads(cert.read_text())
        del payload[field]
        cert.write_text(json.dumps(payload))
        assert main(["verify", "--certificate", str(cert),
                     "--out", str(tmp_path / "v.json")]) == 4

    @pytest.mark.parametrize("text", ["[]", "not json"])
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


class TestExitCodes:
    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["growth"])  # missing required flags
        assert exc.value.code == 2

    def test_contract_error_is_4(self, tmp_path):
        assert main(["growth", "--group", "nope", "--p", "2",
                     "--out", str(tmp_path / "x")]) == 4

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

    def test_presentation_without_relators_is_4(self, tmp_path):
        pres = tmp_path / "pres.json"
        pres.write_text(json.dumps({"generators": ["x", "y"]}))
        assert main(["gs", "--presentation", str(pres), "--p", "2",
                     "--out", str(tmp_path / "x")]) == 4

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
