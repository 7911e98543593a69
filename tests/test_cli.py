import json
import math
import subprocess
import sys

import pytest

from nbperc.cli import main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def c3_file(tmp_path):
    path = tmp_path / "c3.txt"
    path.write_text("#n 3\n0 1\n1 2\n2 0\n")
    return str(path)


class TestGen:
    def test_cycle_file(self, capsys):
        code, out, _ = run_cli(["gen", "cycle", "3"], capsys)
        assert code == 0
        assert out == "#n 3\n0 1\n1 2\n2 0\n"

    def test_regular_file(self, capsys):
        code, out, _ = run_cli(["gen", "regular", "200", "3", "--seed", "7"], capsys)
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert len(lines) == 600

    def test_regular_invalid_exits_2(self, capsys):
        code, _, err = run_cli(["gen", "regular", "5", "3"], capsys)
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("argv, usage", [
        (["cycle", "3", "4"], "cycle needs <n>"),
        (["regular", "10"], "regular needs <n> <d>"),
        (["er", "10"], "er needs <n> <arc_prob>"),
    ])
    def test_wrong_parameter_count_exits_2(self, argv, usage, capsys):
        code, out, err = run_cli(["gen", *argv], capsys)
        assert code == 2
        assert out == ""
        assert err == f"nbperc: error: {usage}\n"

    def test_er_file(self, capsys):
        code, out, _ = run_cli(["gen", "er", "10", "0.3", "--seed", "1"], capsys)
        assert code == 0
        assert out.startswith("#n 10\n")


class TestAnalyze:
    def test_cycle_json(self, c3_file, capsys):
        code, out, _ = run_cli(["analyze", c3_file], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["spectral"]["rho_H"] == pytest.approx(1.0, abs=1e-9)
        assert doc["bounds"]["pc_spectral"] == pytest.approx(1.0, abs=1e-9)
        assert doc["graph"]["olg_strongly_connected"] is True

    def test_undirected_path_nilpotent(self, tmp_path, capsys):
        path = tmp_path / "p3.txt"
        path.write_text("0 1\n1 2\n")
        code, out, _ = run_cli(["analyze", str(path), "--undirected"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["spectral"]["rho_H"] == 0.0
        assert doc["spectral"]["method"] == "nilpotent-detected"
        assert doc["bounds"]["pc_spectral"] == "inf"

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_cli(["analyze", "/nonexistent/file.txt"], capsys)
        assert code == 2

    def test_parse_error_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("0 0\n")
        code, _, err = run_cli(["analyze", str(path)], capsys)
        assert code == 2
        assert "line 1" in err

    def test_cycles_census(self, c3_file, capsys):
        code, out, _ = run_cli(["analyze", c3_file, "--cycles", "3"], capsys)
        doc = json.loads(out)
        assert doc["cycles"]["sac_count_by_length"] == {"3": 1}

    def test_csv_matches_json_values(self, c3_file, capsys):
        _, json_out, _ = run_cli(["analyze", c3_file], capsys)
        _, csv_out, _ = run_cli(["analyze", c3_file, "--format", "csv"], capsys)
        doc = json.loads(json_out)
        rows = {}
        for line in csv_out.splitlines()[1:]:
            section, key, value = line.split(",", 2)
            rows[(section, key)] = value
        assert float(rows[("spectral", "rho_H")]) == doc["spectral"]["rho_H"]
        assert float(rows[("bounds", "pc_spectral")]) == doc["bounds"]["pc_spectral"]
        assert rows[("meta", "input_digest")] == doc["input_digest"]

    def test_json_roundtrip(self, c3_file, capsys):
        _, out, _ = run_cli(["analyze", c3_file], capsys)
        assert json.loads(json.dumps(json.loads(out))) == json.loads(out)


class TestSimulate:
    def test_trivial_row(self, c3_file, capsys):
        code, out, _ = run_cli(
            ["simulate", c3_file, "--p-min", "1", "--p-max", "1",
             "--steps", "1", "--trials", "1"],
            capsys,
        )
        assert code == 0
        first = out.splitlines()[1]
        assert first.endswith(",3,0,3,3,1")

    def test_p_zero_rows(self, capsys, tmp_path):
        path = tmp_path / "k4.txt"
        run_cli(["gen", "complete", "4", "-o", str(path)], capsys)
        code, out, _ = run_cli(
            ["simulate", str(path), "--p-min", "0", "--p-max", "0",
             "--steps", "1", "--trials", "3"],
            capsys,
        )
        for line in out.splitlines()[1:4]:
            assert line.endswith(",0,0,0,0,0")

    def test_seed_reproducibility(self, c3_file, capsys):
        args = ["simulate", c3_file, "--p-min", "0.2", "--p-max", "0.8",
                "--steps", "4", "--trials", "5", "--seed", "11",
                "--roots", "0", "--m-max", "3"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2

    def test_json_mirrors_csv(self, c3_file, capsys):
        args = ["simulate", c3_file, "--p-min", "1", "--p-max", "1",
                "--steps", "1", "--trials", "2", "--seed", "4"]
        _, csv_out, _ = run_cli(args, capsys)
        _, json_out, _ = run_cli(args + ["--format", "json"], capsys)
        doc = json.loads(json_out)
        assert doc["stats"]["largest_scc"] == [[3, 3]]
        assert ",3,0,3,3,1" in csv_out

    def test_bad_flags_exit_2(self, c3_file, capsys):
        code, _, _ = run_cli(
            ["simulate", c3_file, "--p-min", "0", "--p-max", "1", "--steps", "0"],
            capsys,
        )
        assert code == 2


class TestBoundsCheck:
    def test_cycle_table(self, c3_file, capsys):
        code, out, _ = run_cli(
            ["bounds-check", c3_file, "--p", "0.5", "--trials", "2000"], capsys
        )
        assert code == 0
        header, row = out.splitlines()[:2]
        cells = row.split(",")
        assert float(cells[1]) == pytest.approx(2.0)  # (1 - 0.5)^-1
        assert cells[3] == "ok"
        assert cells[7] == "ok"

    def test_void_row(self, c3_file, capsys):
        code, out, _ = run_cli(
            ["bounds-check", c3_file, "--p", "1.0", "--trials", "100"], capsys
        )
        row = out.splitlines()[1]
        assert "void" in row

    def test_root_out_of_range(self, c3_file, capsys):
        code, out, err = run_cli(
            ["bounds-check", c3_file, "--p", "0.3", "--roots", "7"], capsys
        )
        assert code == 2
        assert out == ""
        assert "root 7 outside 0..2" in err


class TestEntryPoint:
    def test_subprocess_invocation(self, c3_file):
        proc = subprocess.run(
            [sys.executable, "-m", "nbperc.cli", "analyze", c3_file],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["graph"]["n"] == 3
