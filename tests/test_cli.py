import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from drawfix import (
    MAX_MODEL_PLAYERS,
    CrParams,
    Draw,
    PlayerTable,
    ProbabilisticTournament,
    count_winning_draws,
    exact_uniform_win_probs,
    generate_cr,
    num_draws,
    read_prob_matrix,
    simulate,
    write_prob_matrix,
)
from drawfix.cli import main

DATA = Path(__file__).parent.parent / "data"


@pytest.fixture
def cr8_path(tmp_path):
    path = tmp_path / "cr8.json"
    write_prob_matrix(path, generate_cr(CrParams(n=8, upset_prob=0.35)))
    return str(path)


@pytest.fixture
def cycle4_path(tmp_path, cycle4):
    path = tmp_path / "cycle4.json"
    write_prob_matrix(path, cycle4.to_probabilistic())
    return str(path)


class TestGenCr:
    def test_json_matrix(self, tmp_path):
        out = tmp_path / "m.json"
        assert main(["gen-cr", "--players", "4", "--upset-prob", "0.2",
                     "--output", str(out)]) == 0
        t = read_prob_matrix(out)
        assert t.n == 4
        assert t.probs[1, 0] == pytest.approx(0.2)

    def test_csv_matrix(self, tmp_path):
        out = tmp_path / "m.csv"
        assert main(["gen-cr", "--players", "8", "--upset-prob", "0.5",
                     "--output", str(out), "--format", "csv"]) == 0
        assert read_prob_matrix(out).n == 8

    def test_bad_params(self, tmp_path):
        out = tmp_path / "m.json"
        assert main(["gen-cr", "--players", "5", "--upset-prob", "0.2",
                     "--output", str(out)]) == 2
        assert main(["gen-cr", "--players", "4", "--upset-prob", "0.7",
                     "--output", str(out)]) == 2

    def test_player_cap_exit_two(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        for players in (2 * MAX_MODEL_PLAYERS, 2**14, 2**40):
            assert main(["gen-cr", "--players", str(players), "--upset-prob", "0.2",
                         "--output", str(out)]) == 2
            assert f"limited to {MAX_MODEL_PLAYERS} players" in capsys.readouterr().err
        assert not out.exists()


class TestCount:
    def test_human_and_json(self, cr8_path, tmp_path, capsys):
        out = tmp_path / "count.json"
        assert main(["count", "--input", cr8_path, "--output", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "draws per bracket: 315" in stdout
        doc = json.loads(out.read_text())
        players = doc["data"]["players"]
        assert [p["rank"] for p in players] == list(range(1, 9))
        assert sum(p["count"] for p in players) == num_draws(8)
        assert doc["data"]["total_draws"] == 315
        assert doc["config"]["stats"] == "first"
        assert "elapsed" not in out.read_text()
        assert "output" not in doc["config"]

    def test_stats_modes(self, cycle4_path, tmp_path):
        out = tmp_path / "c.json"
        assert main(["count", "--input", cycle4_path, "--stats", "all",
                     "--output", str(out)]) == 0
        players = json.loads(out.read_text())["data"]["players"]
        by_name = {p["name"]: p for p in players}
        assert by_name["p3"]["count"] == 0
        assert all(p["nodes_all"] is not None for p in players)
        assert main(["count", "--input", cycle4_path, "--stats", "none",
                     "--output", str(out)]) == 0
        players = json.loads(out.read_text())["data"]["players"]
        assert all(p["nodes_first"] is None for p in players)

    def test_soccer_nodes_first_pinned(self, tmp_path):
        out = tmp_path / "count.json"
        assert main(["count", "--input", str(DATA / "soccer_matches.csv"),
                     "--ranks", str(DATA / "soccer_ranks.csv"),
                     "--output", str(out)]) == 0
        players = json.loads(out.read_text())["data"]["players"]
        assert [p["nodes_first"] for p in players] == [
            23, 21, 16, 31, 36, 22, 34, 42, 19, 23, 38, 18, 18, 19, 0, 0]

    def test_csv_output(self, cr8_path, tmp_path):
        out = tmp_path / "count.csv"
        assert main(["count", "--input", cr8_path, "--format", "csv",
                     "--output", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "rank,name,count,share,nodes_first,nodes_all"
        assert len(lines) == 9


class TestFix:
    def test_finds_verified_draw(self, cycle4_path, tmp_path):
        out = tmp_path / "fix.json"
        assert main(["fix", "--input", cycle4_path, "--target", "p0",
                     "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["data"]["found"] is True
        draw = Draw(leaves=tuple(doc["data"]["draw"]))
        det = read_prob_matrix(cycle4_path).to_deterministic()
        assert simulate(draw, det) == det.players.id_of("p0")

    def test_impossible_target_exit_three(self, cycle4_path, tmp_path, capsys):
        out = tmp_path / "fix.json"
        assert main(["fix", "--input", cycle4_path, "--target", "p3",
                     "--output", str(out)]) == 3
        assert json.loads(out.read_text())["data"]["found"] is False
        assert "no draw makes p3 the champion" in capsys.readouterr().out

    def test_unknown_target_exit_two(self, cycle4_path, capsys):
        assert main(["fix", "--input", cycle4_path, "--target", "zz"]) == 2
        assert "unknown player" in capsys.readouterr().err

    def test_oversized_input_exit_four(self, tmp_path, capsys):
        path = tmp_path / "cr32.json"
        write_prob_matrix(path, generate_cr(CrParams(n=32, upset_prob=0.4)))
        assert main(["fix", "--input", str(path), "--target", "p0"]) == 4


class TestWinprob:
    def test_exact_matches_library(self, cr8_path, tmp_path):
        out = tmp_path / "wp.json"
        assert main(["winprob", "--input", cr8_path, "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        t = read_prob_matrix(cr8_path)
        exact = exact_uniform_win_probs(t)
        for row in doc["data"]["players"]:
            pid = t.players.id_of(row["name"])
            assert row["win_prob"] == pytest.approx(exact.entries[pid])
        assert doc["data"]["method"] == "exact"

    def test_sampled_runs_are_byte_identical(self, cr8_path, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["winprob", "--input", cr8_path, "--mode", "per-draw-exact",
                "--samples", "5000", "--seed", "11", "--workers", "2"]
        assert main(argv + ["--output", str(a)]) == 0
        assert main(argv + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_full_simulation_csv(self, cr8_path, tmp_path):
        out = tmp_path / "wp.csv"
        assert main(["winprob", "--input", cr8_path, "--mode", "full-simulation",
                     "--samples", "2000", "--format", "csv",
                     "--output", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "rank,name,win_prob"
        assert len(lines) == 9


class TestScan:
    def test_accepts_generating_parameter(self, tmp_path, capsys):
        path = tmp_path / "cr16.json"
        write_prob_matrix(path, generate_cr(CrParams(n=16, upset_prob=0.3)))
        out = tmp_path / "scan.json"
        assert main(["scan", "--input", str(path), "--step", "0.05",
                     "--output", str(out)]) == 0
        doc = json.loads(out.read_text())["data"]
        assert doc["avg_upset"] == pytest.approx(0.3)
        assert doc["min_accepted"] <= 0.3 <= doc["max_accepted"]
        accepted = {round(s["upset_prob"], 3): s["accepted"] for s in doc["steps"]}
        assert accepted[0.3]

    def test_csv_grid(self, cr8_path, tmp_path):
        out = tmp_path / "scan.csv"
        assert main(["scan", "--input", cr8_path, "--step", "0.1",
                     "--output", str(out), "--format", "csv"]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "upset_prob,statistic,p_value,accepted"
        assert len(lines) == 6


class TestResourceLimits:
    @pytest.mark.parametrize("argv", [
        ["winprob", "--mode", "per-draw-exact", "--workers", "65"],
        ["winprob", "--mode", "full-simulation", "--samples", "10000001"],
        ["scan", "--step", "1e-9"],
    ])
    def test_out_of_range_exit_two(self, argv, cycle4_path, capsys):
        assert main(argv + ["--input", cycle4_path]) == 2
        assert "error:" in capsys.readouterr().err

    def test_sampler_player_cap_exit_two(self, tmp_path, capsys):
        n = 2 * MAX_MODEL_PLAYERS
        path = tmp_path / "flat.json"
        write_prob_matrix(path, ProbabilisticTournament(
            players=PlayerTable.default(n), probs=np.full((n, n), 0.5)))
        assert main(["winprob", "--input", str(path), "--mode", "per-draw-exact",
                     "--samples", "8"]) == 2
        assert f"limited to {MAX_MODEL_PLAYERS} players" in capsys.readouterr().err


class TestFit:
    def test_json_fields(self, tmp_path):
        path = tmp_path / "cr16.json"
        write_prob_matrix(path, generate_cr(CrParams(n=16, upset_prob=0.45)))
        out = tmp_path / "fit.json"
        assert main(["fit", "--input", str(path), "--output", str(out)]) == 0
        doc = json.loads(out.read_text())["data"]
        assert set(doc) == {"lognormal", "powerlaw", "lrt", "ccdf"}
        assert doc["lrt"]["favored"] in ("log-normal", "power-law", None)
        assert doc["ccdf"]["rows"]
        assert doc["ccdf"]["convention"] == "P(X > x)"

    def test_ccdf_csv(self, tmp_path):
        path = tmp_path / "cr8.json"
        write_prob_matrix(path, generate_cr(CrParams(n=8, upset_prob=0.4)))
        out = tmp_path / "fit.csv"
        assert main(["fit", "--input", str(path), "--scan-xmin",
                     "--format", "csv", "--output", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x,empirical_ccdf,lognormal_ccdf,powerlaw_ccdf"
        assert len(lines) > 2


class TestKings:
    def test_cycle(self, cycle4_path, tmp_path, capsys):
        out = tmp_path / "kings.json"
        assert main(["kings", "--input", cycle4_path, "--output", str(out)]) == 0
        doc = json.loads(out.read_text())["data"]
        assert doc["kings"] == ["p0", "p1", "p2"]
        assert doc["condorcet_winner"] is None
        assert "beats-everyone winner: none" in capsys.readouterr().out


class TestDatasetInputs:
    def write_soccer(self, tmp_path):
        ranks = tmp_path / "ranks.csv"
        ranks.write_text("rank,name\n1,A\n2,B\n3,C\n4,D\n")
        rows = ["season,home,away,home_goals,away_goals"]
        pairs = [("A", "B", 2, 1, 1, 1), ("A", "C", 3, 0, 1, 2),
                 ("A", "D", 2, 0, 0, 1), ("B", "C", 1, 0, 2, 2),
                 ("B", "D", 2, 1, 0, 0), ("C", "D", 1, 1, 0, 3)]
        for h, a, g1, g2, g3, g4 in pairs:
            rows.append(f"2024,{h},{a},{g1},{g2}")
            rows.append(f"2024,{a},{h},{g3},{g4}")
        matches = tmp_path / "matches.csv"
        matches.write_text("\n".join(rows) + "\n")
        return str(matches), str(ranks)

    def test_soccer_count(self, tmp_path, capsys):
        matches, ranks = self.write_soccer(tmp_path)
        assert main(["count", "--input", matches, "--ranks", ranks,
                     "--season", "2024", "--stats", "none"]) == 0
        assert "draws per bracket: 3" in capsys.readouterr().out

    def test_missing_ranks_exit_two(self, tmp_path, capsys):
        matches, _ = self.write_soccer(tmp_path)
        assert main(["count", "--input", matches]) == 2
        assert "--ranks is required" in capsys.readouterr().err

    def test_h2h_input(self, tmp_path, capsys):
        ranks = tmp_path / "ranks.csv"
        ranks.write_text("rank,name\n1,A\n2,B\n")
        h2h = tmp_path / "h2h.csv"
        h2h.write_text("player_a,player_b,a_wins,b_wins\nA,B,3,5\n")
        assert main(["kings", "--input", str(h2h), "--ranks", str(ranks)]) == 0
        assert "kings (1): B" in capsys.readouterr().out

    def test_unrecognized_input(self, tmp_path, capsys):
        weird = tmp_path / "weird.csv"
        weird.write_text("alpha,beta\n1,2\n")
        assert main(["count", "--input", str(weird)]) == 2
        assert "unrecognized input format" in capsys.readouterr().err

    @pytest.mark.parametrize("fields", [
        '"probs": [[0.5, 0.5], [0.5, 0.5]], "ranks": [1, 2]',
        '"probs": [[0.5, 0.5], [0.5, 0.5]], "names": ["a", "b"], "ranks": [1, null]',
        '"probs": [[0.5, 0.5], [0.5, 0.5]], "names": "ab", "ranks": [1, 2]',
        '"probs": [[0.5, {}], [0.5, 0.5]], "names": ["a", "b"], "ranks": [1, 2]',
    ], ids=["missing-names", "null-rank", "names-string", "object-prob"])
    def test_malformed_matrix_exit_two(self, tmp_path, capsys, fields):
        path = tmp_path / "m.json"
        path.write_text('{"format": "drawfix-probmatrix/1", ' + fields + "}\n")
        assert main(["kings", "--input", str(path)]) == 2
        assert "must be a list" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert main(["count", "--input", str(tmp_path / "nope.csv")]) == 2


def test_cli_import_leaves_scipy_unloaded():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import sys, drawfix.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
def test_cli_import_keeps_blas_on_one_thread(preset, expected):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    code = "import os, drawfix.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == expected
