import hashlib
import json
import math
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from nbperc import cli, graph, spectral
from nbperc.cli import build_analysis_document, main
from nbperc.generators import (
    gen_complete_sym,
    gen_erdos_renyi_digraph,
    gen_path_sym,
    gen_random_regular_sym,
    gen_star_sym,
)
from nbperc.graph import MAX_VERTICES, DiGraph, parse_edge_list
from nbperc.hashimoto import HashimotoOperator, build_hashimoto

from conftest import brute_reach_counts, fraction_out_prob, grid_edge_text


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def c3_file(tmp_path):
    path = tmp_path / "c3.txt"
    path.write_text("#n 3\n0 1\n1 2\n2 0\n")
    return str(path)


@pytest.fixture
def regular16_file(tmp_path, capsys):
    # The validate benchmark's bounds-check input: norm_row = 2.
    path = str(tmp_path / "regular16.txt")
    assert run_cli(["gen", "regular", "16", "3", "--seed", "4", "-o", path], capsys)[0] == 0
    return path


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

    def test_allocation_failure_exits_2(self, tmp_path, capsys, monkeypatch):
        # The offset array of 10**15 vertices, far over the vertex budget:
        # numpy refuses the 7 PiB at once, before touching any memory.
        monkeypatch.setattr(graph, "_offsets",
                            lambda keys, size: np.zeros(10**15 + 1, dtype=np.int64))
        path = tmp_path / "huge.txt"
        path.write_text("0 1\n1 0\n")
        code, out, err = run_cli(["analyze", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("nbperc: error: Unable to allocate")

    @pytest.mark.parametrize("command", [["analyze"], ["bounds-check", "--p", "0.1"]])
    def test_transition_budget_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "star.txt"
        assert run_cli(["gen", "star", "10000", "-o", str(path)], capsys)[0] == 0
        code, out, err = run_cli([command[0], str(path), *command[1:]], capsys)
        assert code == 2
        assert out == ""
        assert "100010000 transitions" in err and "MAX_TRANSITIONS" in err

    def test_cycles_census(self, c3_file, capsys):
        code, out, _ = run_cli(["analyze", c3_file, "--cycles", "3"], capsys)
        doc = json.loads(out)
        assert doc["cycles"]["sac_count_by_length"] == {"3": 1}

    def test_cycles_cap_checked_before_the_analysis(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "c17.txt"
        run_cli(["gen", "cycle", "17", "-o", str(path)], capsys)
        monkeypatch.setattr(cli, "build_hashimoto",
                            lambda g: pytest.fail("analysis ran before the cap check"))
        code, out, err = run_cli(["analyze", str(path), "--cycles", "3"], capsys)
        assert code == 2
        assert out == ""
        assert err == "nbperc: error: circuit enumeration needs n <= 16, got 17\n"

    def test_negative_cycles_exits_2(self, capsys):
        # Checked before the input is read: the file does not exist.
        code, out, err = run_cli(["analyze", "/nonexistent/file.txt", "--cycles", "-1"], capsys)
        assert code == 2
        assert out == ""
        assert err == "nbperc: error: --cycles must be >= 0, got -1\n"

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

    # The graph section per input, recorded when the robust flag still came
    # from one whole-graph solve per symmetric arc: n, n_arcs,
    # symmetric_pair_count, scc_count, robustly_strongly_connected and
    # olg_strongly_connected.
    @pytest.mark.parametrize("source, expected", [
        (["regular", "100", "3"], (100, 300, 150, 1, True, True)),
        (["regular", "100", "3", "--seed", "5"], (100, 300, 150, 1, True, True)),
        (["regular", "1666", "3"], (1666, 4998, 2499, 1, True, True)),
        (["tree", "40"], (40, 78, 39, 1, False, False)),
        (["tree", "40", "--seed", "3"], (40, 78, 39, 1, False, False)),
        (["path", "10"], (10, 18, 9, 1, False, False)),
        (["star", "6"], (7, 12, 6, 1, False, False)),
        (["cycle", "5"], (5, 5, 0, 1, True, True)),
        (["complete", "4"], (4, 12, 6, 1, True, True)),
        (["er", "12", "0.3", "--seed", "0"], (12, 35, 4, 2, False, False)),
        (["er", "12", "0.3", "--seed", "1"], (12, 37, 6, 2, False, False)),
        (["er", "12", "0.3", "--seed", "2"], (12, 43, 4, 1, False, False)),
        (["er", "12", "0.3", "--seed", "3"], (12, 35, 4, 1, True, True)),
        (["er", "12", "0.3", "--seed", "4"], (12, 32, 1, 1, True, True)),
        (["er", "12", "0.3", "--seed", "5"], (12, 37, 8, 1, True, True)),
        (["er", "12", "0.3", "--seed", "6"], (12, 36, 6, 1, False, False)),
        (["er", "12", "0.3", "--seed", "7"], (12, 35, 4, 1, False, False)),
        # The skeleton edge 0-1 is a bridge, bypassed by 0->2->1 and 1->3->0.
        ("#n 4\n0 1\n1 0\n0 2\n2 1\n1 3\n3 0\n", (4, 6, 1, 1, True, True)),
        # Bypassed one way only.
        ("#n 3\n0 1\n1 0\n0 2\n2 1\n", (3, 4, 1, 1, False, False)),
    ])
    def test_graph_section(self, source, expected, tmp_path, capsys):
        path = tmp_path / "g.txt"
        if isinstance(source, str):
            path.write_text(source)
        else:
            assert run_cli(["gen", *source, "-o", str(path)], capsys)[0] == 0
        code, out, _ = run_cli(["analyze", str(path), "--format", "json"], capsys)
        assert code == 0
        keys = ("n", "n_arcs", "symmetric_pair_count", "scc_count",
                "robustly_strongly_connected", "olg_strongly_connected")
        assert json.loads(out)["graph"] == dict(zip(keys, expected))


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

    def test_steps_checked_before_loading(self, capsys):
        code, out, err = run_cli(
            ["simulate", "/nonexistent/file.txt", "--p-min", "0", "--p-max", "1",
             "--steps", "0"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err == "nbperc: error: --steps must be >= 1, got 0\n"

    @pytest.mark.parametrize("flag", ["--trials", "--m-max"])
    @pytest.mark.parametrize("roots", [[], ["--roots", "0,1"]], ids=["no-roots", "roots"])
    def test_counts_checked_up_front(self, regular16_file, flag, roots, capsys):
        # Whether or not any out-probability is estimated.
        code, out, err = run_cli(
            ["simulate", regular16_file, "--p-min", "0.1", "--p-max", "0.9", "--steps", "3",
             *roots, flag, "0"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err == f"nbperc: error: {flag} must be >= 1, got 0\n"

    def test_bad_root_list(self, c3_file, capsys):
        code, out, err = run_cli(
            ["simulate", c3_file, "--p-min", "0.5", "--p-max", "0.5", "--steps", "1",
             "--roots", "a"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err == "nbperc: error: bad root list 'a'\n"


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

    def test_unbounded_p_between_bounded_ones(self, regular16_file, capsys):
        # norm_row = 2, so p = 0.6 has no Theorem-1 bound: its row is void,
        # and the rows around it read as when they are checked alone.
        check = ["bounds-check", regular16_file, "--trials", "3000", "--seed", "2"]
        code, out, _ = run_cli([*check, "--p", "0.1,0.6,0.3"], capsys)
        assert code == 0
        header, low, void, high = out.splitlines()
        assert void.split(",")[:4] == ["0.6", "", "0.0", "void"]
        for p, row in (("0.1", low), ("0.3", high)):
            assert run_cli([*check, "--p", p], capsys)[1] == f"{header}\n{row}\n"

    def test_no_roots_is_void(self, tmp_path, capsys):
        # An empty graph has no root to test the bound on.
        path = tmp_path / "empty.txt"
        path.write_text("#n 0\n")
        code, out, _ = run_cli(["bounds-check", str(path), "--p", "0.3"], capsys)
        assert code == 0
        assert out.splitlines()[1] == "0.3,1.0,0.0,void,,,,"

    @pytest.mark.parametrize("flag", ["--trials", "--m-max"])
    @pytest.mark.parametrize("p", ["0.1", "0.9"])
    def test_counts_checked_up_front(self, regular16_file, flag, p, capsys):
        # Whether or not p has a Theorem-1 bound (p = 0.9 has none).
        code, out, err = run_cli(["bounds-check", regular16_file, "--p", p, flag, "0"], capsys)
        assert code == 2
        assert out == ""
        assert err == f"nbperc: error: {flag} must be >= 1, got 0\n"

    def test_root_out_of_range(self, c3_file, capsys):
        code, out, err = run_cli(
            ["bounds-check", c3_file, "--p", "0.3", "--roots", "7"], capsys
        )
        assert code == 2
        assert out == ""
        assert "root 7 outside 0..2" in err

    def test_bad_root_list(self, c3_file, capsys):
        code, out, err = run_cli(
            ["bounds-check", c3_file, "--p", "0.3", "--roots", "1,x"], capsys
        )
        assert code == 2
        assert out == ""
        assert err == "nbperc: error: bad root list '1,x'\n"

    def test_m_max_above_n_prints_the_same(self, tmp_path, monkeypatch, capsys):
        # No root reaches more than n = 20 vertices, so m > n adds only
        # m * P-hat_m = 0: a huge --m-max prints what --m-max 20 prints,
        # and _out_probs is never asked for more than n rows.
        path = str(tmp_path / "regular20.txt")
        assert run_cli(["gen", "regular", "20", "3", "--seed", "1", "-o", path], capsys)[0] == 0
        asked = []
        real = cli._out_probs

        def recorded(g, v, ps, m_max, *rest):
            asked.append(m_max)
            return real(g, v, ps, m_max, *rest)

        monkeypatch.setattr(cli, "_out_probs", recorded)
        check = ["bounds-check", path, "--p", "0.1,0.2,0.3,0.45", "--trials", "2000", "--seed", "3"]
        huge = run_cli([*check, "--m-max", "100000000"], capsys)
        small = run_cli([*check, "--m-max", "20"], capsys)
        assert huge == small
        assert huge[0] == 0 and len(huge[1].splitlines()) == 5
        assert asked and set(asked) == {20}


class TestExactTheorem1:
    """bounds-check on at most VERTEX_CAP vertices: max_m m * P_m and its
    Theorem-1 verdict, exactly, with no draws."""

    @staticmethod
    def at_least(counts):
        # Column m - 1, m = 1..n: the open sets of k open vertices that
        # reach at least m, per k.
        return [[sum(row[m:]) for row in counts] for m in range(1, len(counts))]

    @pytest.mark.parametrize("p", [0.1, 0.45, 0.9])
    @pytest.mark.parametrize("name", ["c3", "p3sym", "k4sym", "star3sym", "chord"])
    def test_polynomial_matches_fraction_sum(self, name, p, request):
        g = request.getfixturevalue(name)
        for v in range(g.n):
            counts = brute_reach_counts(g, v)
            for m, col in enumerate(self.at_least(counts), 1):
                # One root and one column: the maximum is P_m itself.
                worst, _ = cli._theorem1_exact([[col]], p, 0)
                assert worst == fraction_out_prob(counts, p, m)

    @pytest.mark.parametrize("g, v", [
        pytest.param(gen_path_sym(3), 1, id="p3sym-centre"),
        pytest.param(gen_complete_sym(4), 0, id="k4sym"),
        # At the first float p above the bound, max_m m * P_m is
        # 1 + 6.6e-18, which rounds to 1.0: a float comparison calls it ok.
        pytest.param(gen_star_sym(4), 1, id="star4-leaf"),
    ])
    def test_verdict_flips_between_adjacent_floats(self, g, v):
        # With a norm of 0 the bound is 1, which max_m m * P_m crosses as p
        # goes from 0 to 1.  Bisect for the last float p at or below the
        # bound: it is ok, and the next float is a violation.
        counts = brute_reach_counts(g, v)
        at_least = [self.at_least(counts)]

        def worst(p):
            return max(m * fraction_out_prob(counts, p, m) for m in range(1, g.n + 1))

        lo, hi = 0.0, 1.0
        while np.nextafter(lo, 1.0) < hi:
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if worst(mid) <= 1 else (lo, mid)
        assert cli._theorem1_exact(at_least, lo, 0) == (worst(lo), True)
        assert cli._theorem1_exact(at_least, hi, 0) == (worst(hi), False)

    def test_validate_graph(self, regular16_file, capsys):
        code, out, _ = run_cli(["bounds-check", regular16_file, "--p", "0.1,0.3,0.45"], capsys)
        assert code == 0
        rows = [row.split(",") for row in out.splitlines()[1:]]
        assert [round(float(row[2]), 6) for row in rows] == [0.100000, 0.396819, 1.083044]
        assert [row[3] for row in rows] == ["ok"] * 3

    def test_seed_and_trials_unused(self, regular16_file, capsys):
        check = ["bounds-check", regular16_file, "--p", "0.1,0.2,0.3,0.4,0.45"]
        one = run_cli([*check, "--seed", "1", "--trials", "1"], capsys)
        assert one[0] == 0
        assert run_cli([*check, "--seed", "2", "--trials", "100000"], capsys) == one

    @pytest.mark.parametrize("m_max", [1, 2, 3, 20])
    def test_max_over_roots_and_m(self, tmp_path, m_max, capsys):
        # Every root of a 10-vertex digraph with norm_row = 3; max_m_phat
        # is the exact maximum over m <= m_max, rounded once.
        path = str(tmp_path / "er10.txt")
        assert run_cli(["gen", "er", "10", "0.3", "--seed", "4", "-o", path], capsys)[0] == 0
        g = parse_edge_list((tmp_path / "er10.txt").read_text())
        counts = [brute_reach_counts(g, v) for v in range(g.n)]
        ps = (0.1, 0.2, 0.3)
        code, out, _ = run_cli(["bounds-check", path, "--p", ",".join(map(str, ps)),
                                "--m-max", str(m_max),
                                "--roots", ",".join(map(str, range(g.n)))], capsys)
        assert code == 0
        for p, row in zip(ps, out.splitlines()[1:]):
            cells = row.split(",")
            worst = max(m * fraction_out_prob(c, p, m) for c in counts for m in range(1, m_max + 1))
            assert float(cells[2]) == float(worst)
            assert worst <= 1 / (1 - Fraction(p) * 3)
            assert cells[3] == "ok"


class TestGoldenBytes:
    """sha256 of Monte-Carlo and exact outputs, pinned so that a refactor
    of the search, of the draws or of the exact counts cannot change a
    byte unnoticed."""

    @staticmethod
    def digest(tmp_path, gen_args, command, capsys):
        path = str(tmp_path / "g.txt")
        assert run_cli(["gen", *gen_args, "-o", path], capsys)[0] == 0
        code, out, _ = run_cli([command[0], path, *command[1:]], capsys)
        assert code == 0
        return hashlib.sha256(out.encode()).hexdigest()

    def test_bounds_check_digest(self, tmp_path, capsys):
        # 16 vertices: exact out-probabilities, and the trials and seed
        # unused.
        assert self.digest(
            tmp_path, ["regular", "16", "3", "--seed", "4"],
            ["bounds-check", "--p", "0.1,0.3,0.45", "--trials", "30000", "--seed", "2"],
            capsys,
        ) == "a691cc7add721385e2abd8c32eec63ee1237e3e43c2cbd22070db71a4c6bb193"

    def test_bounds_check_directed_digest(self, tmp_path, capsys):
        # A non-symmetric 16-vertex input, every vertex a root: exact
        # out-probabilities whose maximum comes from m >= 2 at the last
        # three p (max_m_phat 0.2, 0.306, 0.56064, 0.739479375).
        assert self.digest(
            tmp_path, ["er", "16", "0.12", "--seed", "6"],
            ["bounds-check", "--p", "0.2,0.3,0.4,0.45",
             "--roots", ",".join(map(str, range(16)))],
            capsys,
        ) == "637476bf56ec437b6ae617388532dcf9e6d6d3b8aa94dc75d9cd3b73d180bb68"

    def test_bounds_check_monte_carlo_digest(self, tmp_path, capsys):
        # 20 vertices are above VERTEX_CAP: the out-probabilities are
        # sampled, by the capped search.
        assert self.digest(
            tmp_path, ["regular", "20", "3", "--seed", "4"],
            ["bounds-check", "--p", "0.1,0.3,0.45", "--trials", "30000", "--seed", "2"],
            capsys,
        ) == "0c4f0a2ff8abcab30f08c50c98b2e02263e75d374730bce279932ac05343d382"

    SIMULATE = ("simulate", "--p-min", "0.3", "--p-max", "0.7", "--steps", "3",
                "--trials", "20", "--roots", "0,1", "--m-max", "20", "--format", "json")

    def test_simulate_digest(self, tmp_path, capsys):
        assert self.digest(
            tmp_path, ["regular", "200", "3", "--seed", "1"], self.SIMULATE, capsys,
        ) == "d780057169066b8b0b4e7d3c3ecf90dbfe0f9193c54709eb474948b0691e1231"

    def test_simulate_independent_digest(self, tmp_path, capsys):
        assert self.digest(
            tmp_path, ["regular", "200", "3", "--seed", "1"], [*self.SIMULATE, "--independent"],
            capsys,
        ) == "a07325cba20cac599b621c65bec178551b323bfa272ab9111be8a2148d6df7a5"

    def test_simulate_roots_small_digest(self, tmp_path, capsys):
        # 16 vertices, 20,000 trials x 3 p: 60,000 rows per root, more
        # than the 2**15 open sets that hold it, all through the search.
        assert self.digest(
            tmp_path, ["regular", "16", "3", "--seed", "4"],
            ["simulate", "--p-min", "0.1", "--p-max", "0.45", "--steps", "3",
             "--trials", "20000", "--roots", "0,1,2", "--m-max", "20", "--seed", "3",
             "--format", "json"],
            capsys,
        ) == "5f214ff5f5d87efcfc7714f688035a5303277e91229cbf584f65812628ea7e45"

    def test_analyze_reducible_digest(self, tmp_path, capsys):
        # A directed input whose H has four nontrivial strong blocks (44,
        # 15, 13 and 3 arcs), so rho_H is solved block by block from H's
        # pairs; its 1,192 arcs are under the trace cap, so sac_trace
        # factorises I - pH.
        args = ["er", "1000", "0.0012", "--seed", "4"]
        assert self.digest(tmp_path, args, ["analyze", "--format", "json"], capsys) == (
            "b54550b28c6829d6a7386caafe8321b8c1833b9e320f0c159f93c142ef4c6975")
        h = build_hashimoto(parse_edge_list((tmp_path / "g.txt").read_text()))
        ncomp, labels = h.strong_labels
        sizes = np.bincount(labels, minlength=ncomp)
        assert sorted(sizes[sizes > 1].tolist()) == [3, 13, 15, 44]

    def test_analyze_grid_digest(self, tmp_path, capsys, monkeypatch):
        # rho_A sums the in-arcs of each vertex in arc-id order.  An
        # interior vertex's four in-arcs are out of tail order here, and
        # summing them by tail moves rho_A in its last digits.  The ARPACK
        # candidate runs for both operators, so its products are pinned too.
        path = tmp_path / "grid.txt"
        path.write_text(grid_edge_text(8))
        shapes = []
        real = spectral.eigs

        def counted(a, **kwargs):
            shapes.append(a.shape)
            return real(a, **kwargs)

        monkeypatch.setattr(spectral, "eigs", counted)
        code, out, _ = run_cli(["analyze", str(path), "--undirected", "--format", "json"], capsys)
        assert code == 0
        assert shapes == [(224, 224), (64, 64)]
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "a2e8973054fd269387eafecacd2b34402c39220245dd89f03a4eedcc900bddb8")


def _old_digest(n, tails, heads):
    """input_digest as the arcs' "%d %d" text formats it, one arc at a time."""
    lines = "\n".join("%d %d" % arc for arc in zip(tails.tolist(), heads.tolist()))
    return hashlib.sha256(f"{n}\n{lines}".encode("ascii")).hexdigest()


class TestInputDigest:
    """The block formatter hashes the bytes of the "%d %d" text."""

    def test_ids_of_every_length(self):
        # A DiGraph of MAX_VERTICES vertices would allocate 256 MiB of
        # offsets; the digest reads only n, tails and heads.
        ids = [0] + [d for k in range(1, 8) for d in (10 ** k - 1, 10 ** k)] + [MAX_VERTICES - 1]
        tails = np.array(ids, dtype=np.int64)
        heads = tails[::-1].copy()
        g = SimpleNamespace(n=MAX_VERTICES, tails=tails, heads=heads)
        assert graph._input_digest(g) == _old_digest(g.n, tails, heads)

    @pytest.mark.parametrize("g", [
        pytest.param(DiGraph(0, []), id="n0"),
        pytest.param(DiGraph(5, []), id="no-arcs"),
        pytest.param(DiGraph(11, [(10, 0)]), id="one-arc"),
        pytest.param(parse_edge_list("0 1\n1 12\n12 105\n105 0\n", undirected=True),
                     id="undirected"),
        pytest.param(gen_erdos_renyi_digraph(300, 0.02, 3), id="er"),
    ])
    def test_graphs(self, g):
        assert graph._input_digest(g) == _old_digest(g.n, g.tails, g.heads)

    @pytest.mark.parametrize("block", [1, 2, 3, graph._FORMAT_BLOCK, 1 << 16])
    @pytest.mark.parametrize("g", [
        pytest.param(DiGraph(0, []), id="n0"),
        pytest.param(DiGraph(5, []), id="no-arcs"),
        pytest.param(DiGraph(11, [(10, 0)]), id="one-arc"),
        pytest.param(gen_erdos_renyi_digraph(30, 0.1, 3), id="er"),
    ])
    def test_streamed_blocks_hash_the_serialized_text(self, g, block, monkeypatch):
        # The serialized text is "#n <n>\n" and the arc lines; the digest
        # drops "#n " and the last arc line's newline.
        header, _, arcs = graph.serialize_edge_list(g).partition("\n")
        expected = hashlib.sha256(f"{header[3:]}\n{arcs[:-1]}".encode("ascii")).hexdigest()
        monkeypatch.setattr(graph, "_FORMAT_BLOCK", block)
        assert graph._input_digest(g) == expected

    def test_document_digest(self, c3_file):
        with open(c3_file) as fh:
            g = parse_edge_list(fh.read())
        doc = build_analysis_document(g, [0.5])
        assert doc["input_digest"] == _old_digest(3, g.tails, g.heads)


_CANONICAL = "0 1\n1 12\n12 105\n105 0\n10 9\n"


class TestDigestFromInputBytes:
    """parse_edge_list(..., digest=True) hashes a canonical listing's own
    bytes and formats the arcs of every other input; both give the digest
    that the arcs' "%d %d" text gives."""

    @staticmethod
    def parse(text, monkeypatch, undirected=False):
        """(text parsed with digest=True, whether the formatter made its
        input_digest); the digest is checked against the "%d %d" text."""
        formatted = []
        real = graph._input_digest
        monkeypatch.setattr(graph, "_input_digest", lambda g: formatted.append(g) or real(g))
        g = parse_edge_list(text, undirected=undirected, digest=True)
        assert g.input_digest == _old_digest(g.n, g.tails, g.heads)
        return g, bool(formatted)

    @pytest.mark.parametrize("text", [
        pytest.param("#n 200\n" + _CANONICAL, id="header"),
        pytest.param("# made by hand, 5 arcs\n" + _CANONICAL, id="other-comment"),
        pytest.param(_CANONICAL, id="no-header"),
        pytest.param("  #n 106\n" + _CANONICAL, id="indented-header"),
        pytest.param("#n 4\n", id="header-only"),
        pytest.param("", id="empty"),
        pytest.param(graph.serialize_edge_list(gen_erdos_renyi_digraph(300, 0.02, 3)), id="er"),
    ])
    def test_canonical_bytes_are_hashed(self, text, monkeypatch):
        assert self.parse(text, monkeypatch)[1] is False

    @pytest.mark.parametrize("text", [
        pytest.param(_CANONICAL.replace(" ", "\t", 1), id="tab"),
        pytest.param(_CANONICAL.replace("\n", "\r", 1), id="cr"),
        pytest.param(_CANONICAL.replace("\n", "\r\n"), id="crlf"),
        pytest.param("#n 200\r\n" + _CANONICAL, id="crlf-header"),
        pytest.param(_CANONICAL.replace("12 105", "12 0105"), id="leading-zero"),
        pytest.param(_CANONICAL.replace("\n", "\n\n", 1), id="blank-line"),
        pytest.param("\n" + _CANONICAL, id="blank-first-line"),
        pytest.param(_CANONICAL.replace("\n", " \n", 1), id="trailing-space"),
        pytest.param(" " + _CANONICAL, id="leading-space"),
        pytest.param(_CANONICAL[:-1], id="no-final-newline"),
        pytest.param(_CANONICAL + "\n", id="two-final-newlines"),
        pytest.param("#n 200\n" + _CANONICAL.replace("\n", "\n# note\n", 1), id="later-comment"),
        pytest.param(_CANONICAL + "#n 200\n", id="last-line-header"),
        pytest.param("#n 200\n" + _CANONICAL + "\x0b", id="trailing-break"),
        pytest.param("#n 4", id="header-without-newline"),
        pytest.param(_CANONICAL.replace("0 1", "+0 1"), id="line-scan"),
    ])
    def test_other_spellings_are_formatted(self, text, monkeypatch):
        g, formatted = self.parse(text, monkeypatch)
        assert formatted
        # The canonical spelling of the same graph is hashed from its bytes.
        canonical, formatted = self.parse(graph.serialize_edge_list(g), monkeypatch)
        assert not formatted and canonical.input_digest == g.input_digest

    def test_undirected_input_is_formatted(self, monkeypatch):
        g, formatted = self.parse(_CANONICAL, monkeypatch, undirected=True)
        assert formatted and g.input_digest != self.parse(_CANONICAL, monkeypatch)[0].input_digest

    def test_analyze_prints_the_same_digest(self, tmp_path, capsys):
        digests = set()
        for name, text in (("canonical", "#n 106\n" + _CANONICAL),
                           ("crlf", "#n 106\r\n" + _CANONICAL.replace("\n", "\r\n"))):
            path = tmp_path / name
            path.write_bytes(text.encode("ascii"))
            code, out, _ = run_cli(["analyze", str(path), "--format", "csv"], capsys)
            assert code == 0
            digests.add(out)
        assert len(digests) == 1


class TestSolveCount:
    """An analyze labels the strong components of g at most once and of H
    at most once, and not at all where the graph's structure settles them:
    a connected 3-regular graph settles both.  The robust check's
    re-solves on its own arc subsets come on top."""

    @staticmethod
    def strong_solves(g, monkeypatch, whole=0):
        """(shape, stored arcs) of each strong-component solve that
        build_analysis_document makes on g, other than the ``whole``
        solves each of g and of H that it must make."""
        calls = []
        real = graph._cc

        def counted(csgraph, *args, **kwargs):
            if kwargs.get("connection") == "strong":
                calls.append((csgraph.shape, csgraph.nnz))
            return real(csgraph, *args, **kwargs)

        monkeypatch.setattr(graph, "_cc", counted)
        build_analysis_document(g, [0.2, 0.5])
        whole_g = ((g.n, g.n), g.n_arcs)
        assert calls.count(whole_g) == whole
        assert [shape for shape, _ in calls].count((g.n_arcs, g.n_arcs)) == whole
        return [c for c in calls if c != whole_g and c[0] != (g.n_arcs, g.n_arcs)]

    def test_over_the_robust_budget(self, monkeypatch):
        g = gen_random_regular_sym(3000, 3, 0)
        assert len(graph.symmetric_arc_pairs(g)) * g.n > cli.ROBUST_CHECK_BUDGET
        assert self.strong_solves(g, monkeypatch) == []

    def test_under_the_robust_budget(self, monkeypatch):
        g = gen_random_regular_sym(100, 3, 0)
        others = self.strong_solves(g, monkeypatch)
        # The bridge pass's solves, each on fewer arcs than g.
        assert others and all(shape == (g.n, g.n) and nnz < g.n_arcs for shape, nnz in others)

    def test_mixed_graph_solves_g_and_h_once(self, monkeypatch):
        g = gen_erdos_renyi_digraph(300, 0.02, 3)
        assert 0 < 2 * g.symmetric_pair_count < g.n_arcs
        self.strong_solves(g, monkeypatch, whole=1)


class TestBoundsCheckSolveCount:
    """bounds-check reads rho(H) and ||H|| only: it solves H once and never
    solves A."""

    @pytest.mark.parametrize("n", [16, 20])  # exact and sampled
    def test_one_solve_of_h(self, n, tmp_path, monkeypatch, capsys):
        path = str(tmp_path / "regular.txt")
        assert run_cli(["gen", "regular", str(n), "3", "--seed", "4", "-o", path], capsys)[0] == 0
        solved = []
        real = spectral._solve

        def recorded(op, *args):
            solved.append(op)
            return real(op, *args)

        monkeypatch.setattr(spectral, "_solve", recorded)
        code, _, _ = run_cli(["bounds-check", path, "--p", "0.1,0.3", "--trials", "200"], capsys)
        assert code == 0
        assert len(solved) == 1 and isinstance(solved[0], HashimotoOperator)


class TestEntryPoint:
    def test_subprocess_invocation(self, c3_file):
        proc = subprocess.run(
            [sys.executable, "-m", "nbperc.cli", "analyze", c3_file],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["graph"]["n"] == 3
