import gc
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
from drawfix import cli
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

    def test_soccer_nodes_all_pinned(self, tmp_path):
        # Exhausting enumerate_winning_draws gives the same choice points
        # for the six players with at most 10**6 winning draws and for
        # ranks 12 and 13 (1.4 and 2.9 million draws, one and two minutes
        # of walking); the walk of all 16 would take hours.
        out = tmp_path / "count.json"
        assert main(["count", "--input", str(DATA / "soccer_matches.csv"),
                     "--ranks", str(DATA / "soccer_ranks.csv"), "--stats", "all",
                     "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert "limit" not in doc["config"]
        assert [p["nodes_all"] for p in doc["data"]["players"]] == [
            136646441, 192581666, 2491136588, 35609632, 964846, 47671820,
            40603970, 154672245, 100360023, 5615000, 1465873, 10186581,
            22363354, 1347822, 0, 0]

    def test_limit_option_is_gone(self, cr8_path, capsys):
        with pytest.raises(SystemExit) as help_exit:
            main(["count", "--help"])
        assert help_exit.value.code == 0
        assert "--limit" not in capsys.readouterr().out
        with pytest.raises(SystemExit) as limit_exit:
            main(["count", "--input", cr8_path, "--stats", "all", "--limit", "5"])
        assert limit_exit.value.code == 2
        assert "unrecognized arguments: --limit 5" in capsys.readouterr().err

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

    def test_target_name_starting_with_dash(self, tmp_path):
        # argparse reads "--target -a" as a missing value; the = form works.
        path, out = tmp_path / "dash.json", tmp_path / "fix.json"
        write_prob_matrix(path, ProbabilisticTournament(
            players=PlayerTable(("-a", "b")), probs=np.array([[0.5, 0.7], [0.3, 0.5]])))
        assert main(["fix", "--input", str(path), "--target=-a",
                     "--output", str(out)]) == 0
        data = json.loads(out.read_text())["data"]
        assert (data["target"], data["found"], data["draw"]) == ("-a", True, [0, 1])


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

    def test_fine_step_keeps_grid_labels(self, capsys):
        assert main(["scan", "--input", str(DATA / "mini_matches.csv"),
                     "--ranks", str(DATA / "mini_ranks.csv"), "--step", "0.001"]) == 0
        lines = capsys.readouterr().out.splitlines()
        header = next(i for i, line in enumerate(lines) if line.lstrip().startswith("upset prob"))
        labels = [row.split()[0] for row in lines[header + 1:]]
        assert len(labels) == 500
        assert len(set(labels)) == 500
        assert labels[0] == "0.001"


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

    # On these leagues the scan picks a tail above the sample minimum (5 of
    # 16 values on soccer, 3 of 8 on mini), which the log-normal fit does
    # not share.  A fix turns these into passes, which strict xfail reports.
    @pytest.mark.xfail(strict=True,
                       reason="exits 2: fits must share the same sample truncation")
    @pytest.mark.parametrize("league", ["soccer", "mini"])
    def test_scan_xmin_on_leagues(self, league, tmp_path, capsys):
        out = tmp_path / "fit.json"
        code = main(["fit", "--input", str(DATA / f"{league}_matches.csv"),
                     "--ranks", str(DATA / f"{league}_ranks.csv"), "--scan-xmin",
                     "--output", str(out)])
        assert "fits must share the same sample truncation" not in capsys.readouterr().err
        assert code == 0


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

    @pytest.mark.parametrize("text, ranked, message", [
        ("x" * 200_000 + ",y\n", False, "line 1: field larger than field limit"),
        ("season,home,away,home_goals,away_goals\n2024," + "A" * 200_000 + ",B,1,1\n",
         True, "line 2: field larger than field limit"),
        ('{"format": "drawfix-probmatrix/1", "probs": ' + "[" * 100_000
         + "]" * 100_000 + "}\n", False, "JSON nested too deeply"),
    ], ids=["wide-first-row", "wide-match-field", "deep-json"])
    def test_unparseable_file_exit_two(self, tmp_path, capsys, text, ranked, message):
        # Each file is under the byte cap but beyond what the parsers take.
        path = tmp_path / "input"
        path.write_text(text)
        ranks = ["--ranks", str(DATA / "mini_ranks.csv")] if ranked else []
        assert main(["kings", "--input", str(path), *ranks]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("fields, message", [
        ('"probs": [[0.5, 0.5], [0.5, 0.5]], "ranks": [1, 2]', "'names' must be a list"),
        ('"probs": [[0.5, 0.5], [0.5, 0.5]], "names": ["a", "b"], "ranks": [1, null]',
         "'ranks' must be a list"),
        ('"probs": [[0.5, 0.5], [0.5, 0.5]], "names": "ab", "ranks": [1, 2]',
         "'names' must be a list"),
        ('"probs": [[0.5, {}], [0.5, 0.5]], "names": ["a", "b"], "ranks": [1, 2]',
         "'probs' must be a list"),
        # Rows are put in rank order only once the whole file is checked.
        ('"probs": [[0.5, 0.5], [0.5, 0.5]], "names": ["a", "b"], "ranks": [1, 1]',
         "'ranks' must be a permutation of 1..2"),
        ('"probs": [[0.5, 0.5], [0.5, 0.5]], "names": ["a", "b"], "ranks": [0, 1]',
         "'ranks' must be a permutation of 1..2"),
        ('"probs": [[0.5, 0.5], [0.5, 0.5]], "names": ["a", "b"], "ranks": [1, 3]',
         "'ranks' must be a permutation of 1..2"),
        ('"probs": [[0.5, 0.5], [0.5, 0.5]], "names": ["a", "b"], "ranks": [2, 1, 3]',
         "'ranks' must be a permutation of 1..2"),
        ('"probs": [[0.5, 0.5, 0.5], [0.5, 0.5, 0.5], [0.5, 0.5, 0.5]], '
         '"names": ["a", "b"], "ranks": [2, 1]', "'probs' must be 2x2"),
        ('"probs": [[0.5, 0.5], [0.5]], "names": ["a", "b"], "ranks": [2, 1]',
         "'probs' must be 2x2"),
    ], ids=["missing-names", "null-rank", "names-string", "object-prob", "repeated-rank",
            "rank-zero", "rank-gap", "extra-rank", "probs-3x3", "ragged-probs"])
    def test_malformed_matrix_exit_two(self, tmp_path, capsys, fields, message):
        path = tmp_path / "m.json"
        path.write_text('{"format": "drawfix-probmatrix/1", ' + fields + "}\n")
        assert main(["kings", "--input", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: {message}")

    def test_repeated_ranked_name_names_file_and_line(self, tmp_path, capsys):
        matches, _ = self.write_soccer(tmp_path)
        ranks = tmp_path / "ranks.csv"
        ranks.write_text("rank,name\n1,A\n2,B\n3,A\n4,D\n")
        assert main(["kings", "--input", matches, "--ranks", str(ranks)]) == 2
        assert capsys.readouterr().err == (
            f"error: {ranks}: line 4: duplicate name 'A'\n")

    @pytest.mark.parametrize("name, text, message", [
        ("m.json", '{"format": "drawfix-probmatrix/1", "names": ["a", "a"], '
                   '"ranks": [1, 2], "probs": [[0.5, 0.5], [0.5, 0.5]]}',
         "duplicate name 'a'"),
        ("m.csv", "name,a,a\na,0.5,0.5\na,0.5,0.5\n", "duplicate name 'a'"),
        ("m.json", '{"format": "drawfix-probmatrix/1", "names": [], "ranks": [], '
                   '"probs": []}', "no players"),
        ("m.csv", "name\n", "no players"),
    ], ids=["json-repeated", "csv-repeated", "json-empty", "csv-empty"])
    def test_matrix_name_errors_name_the_file(self, tmp_path, capsys, name, text, message):
        path = tmp_path / name
        path.write_text(text)
        assert main(["kings", "--input", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    def test_missing_file(self, tmp_path):
        assert main(["count", "--input", str(tmp_path / "nope.csv")]) == 2

    @pytest.mark.parametrize("command", ["count", "kings"])
    def test_oversized_file_exit_two(self, tmp_path, capsys, command):
        # A 4.2 MB CSV matrix of 1,024 players is refused before it is parsed.
        n = 1024
        row = ",".join(["0.5"] * n)
        path = tmp_path / "m1024.csv"
        path.write_text("name," + ",".join(f"p{i}" for i in range(n)) + "\n"
                        + "".join(f"p{i},{row}\n" for i in range(n)))
        assert main([command, "--input", str(path)]) == 2
        assert "limited to 1,048,576 bytes" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, marked", [
        (["count", "--input", "mini_matches.csv", "--ranks", "mini_ranks.csv"],
         "mini_matches.csv"),
        (["count", "--input", "mini_matches.csv", "--ranks", "mini_ranks.csv"],
         "mini_ranks.csv"),
        (["kings", "--input", "tennis_h2h.csv", "--ranks", "tennis_ranks.csv"],
         "tennis_h2h.csv"),
        (["count", "--input", "cr8.csv"], "cr8.csv"),
        (["count", "--input", "cr8.json"], "cr8.json"),
    ], ids=["matches", "ranks", "h2h", "matrix-csv", "matrix-json"])
    def test_byte_order_mark_is_ignored(self, tmp_path, monkeypatch, argv, marked):
        # Spreadsheet exports start a UTF-8 file with U+FEFF.
        monkeypatch.chdir(tmp_path)
        for name in ("mini_matches.csv", "mini_ranks.csv", "tennis_h2h.csv",
                     "tennis_ranks.csv"):
            Path(name).write_bytes((DATA / name).read_bytes())
        matrix = generate_cr(CrParams(n=8, upset_prob=0.35))
        write_prob_matrix("cr8.csv", matrix, fmt="csv")
        write_prob_matrix("cr8.json", matrix)
        assert main(argv + ["--format", "csv", "--output", "plain.csv"]) == 0
        Path(marked).write_bytes(b"\xef\xbb\xbf" + Path(marked).read_bytes())
        assert main(argv + ["--format", "csv", "--output", "bom.csv"]) == 0
        assert Path("bom.csv").read_bytes() == Path("plain.csv").read_bytes()

    @pytest.mark.parametrize("case, message", [
        ("duplicate-fixture", "duplicate fixture"),
        ("negative-goals", "must be a base-10 integer"),
        ("nan", "must lie in [0, 1]"),
        ("inf", "must lie in [0, 1]"),
        ("non-square", "must be 2x2"),
        ("inconsistent", "must equal 1"),
        ("tennis-17", "power of two, got 17 players"),
        ("word-cell", "p.csv: matrix row 2: could not convert string to float: 'x'"),
        ("empty-cell", "p.csv: matrix row 2: could not convert string to float: ''"),
    ])
    def test_rejected_input_exit_two(self, tmp_path, capsys, case, message):
        matches = (DATA / "mini_matches.csv").read_text(encoding="utf-8")
        lines = matches.splitlines(keepends=True)
        mini = ["--ranks", str(DATA / "mini_ranks.csv")]
        inputs = {
            "duplicate-fixture": ("m.csv", matches + lines[1], mini),
            "negative-goals": ("m.csv", matches.replace(",1,1\n", ",-1,1\n", 1), mini),
            "nan": ("p.csv", '"name","a","b"\n"a",0.5,nan\n"b",nan,0.5\n', []),
            "inf": ("p.csv", '"name","a","b"\n"a",0.5,inf\n"b",-inf,0.5\n', []),
            "non-square": ("p.json", '{"format": "drawfix-probmatrix/1", "names": '
                           '["a", "b"], "ranks": [1, 2], "probs": [[0.5, 0.5, 0.5], '
                           '[0.5, 0.5, 0.5]]}\n', []),
            "inconsistent": ("p.csv", '"name","a","b"\n"a",0.5,0.6\n"b",0.6,0.5\n', []),
            "word-cell": ("p.csv", '"name","a","b"\n"a",0.5,0.5\n"b",x,0.5\n', []),
            "empty-cell": ("p.csv", '"name","a","b"\n"a",0.5,0.5\n"b",,0.5\n', []),
        }
        if case == "tennis-17":
            argv = ["--input", str(DATA / "tennis_h2h.csv"),
                    "--ranks", str(DATA / "tennis_ranks.csv")]
        else:
            name, text, extra = inputs[case]
            (tmp_path / name).write_text(text, encoding="utf-8")
            argv = ["--input", str(tmp_path / name), *extra]
        assert main(["count", *argv]) == 2
        assert message in capsys.readouterr().err


def _cli_env():
    src = Path(__file__).resolve().parent.parent / "src"
    return dict(os.environ, PYTHONPATH=str(src))


def test_run_freezes_the_heap_then_returns_mains_code(monkeypatch):
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 3)
    assert cli.run() == 3
    assert calls == ["freeze", "main"]


def test_main_in_process_freezes_nothing(capsys):
    before = gc.get_freeze_count()
    assert main(["kings", "--input", str(DATA / "tennis_h2h.csv"),
                 "--ranks", str(DATA / "tennis_ranks.csv")]) == 0
    assert gc.get_freeze_count() == before


def test_module_entry_prints_the_version():
    out = subprocess.run([sys.executable, "-m", "drawfix", "--version"], env=_cli_env(),
                         capture_output=True, text=True, timeout=60)
    assert (out.returncode, out.stdout, out.stderr) == (0, "drawfix 0.1.0\n", "")


def test_module_entry_output_is_pinned(tmp_path):
    # The JSON metadata records the input paths, so run from the repository
    # root with the paths the pin was written with.
    out = tmp_path / "out.json"
    argv = [sys.executable, "-m", "drawfix", "count", "--input", "data/mini_matches.csv",
            "--ranks", "data/mini_ranks.csv", "--stats", "none", "--format", "json",
            "--output", str(out)]
    proc = subprocess.run(argv, env=_cli_env(), cwd=DATA.parent, capture_output=True,
                          timeout=60)
    assert (proc.returncode, proc.stderr) == (0, b"")
    pin = Path(__file__).parent / "golden" / "mini_count-stats-none.json"
    assert out.read_bytes() == pin.read_bytes()


def test_cli_import_leaves_scipy_unloaded():
    env = _cli_env()
    code = "import sys, drawfix.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "False"


def test_cli_import_leaves_thread_pool_unloaded():
    env = _cli_env()
    code = "import sys, drawfix.cli; print('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "False"


def _default_fit_loads(module):
    """Run a default ``fit`` in a fresh process; report its exit code and
    whether ``module`` was imported."""
    code = ("import sys, drawfix.cli; "
            "rc = drawfix.cli.main(['fit', '--input', 'data/mini_matches.csv', "
            "'--ranks', 'data/mini_ranks.csv']); "
            f"print(rc, {module!r} in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=_cli_env(), check=True,
                         cwd=DATA.parent, capture_output=True, text=True, timeout=60)
    return out.stdout.splitlines()[-1]


def test_default_fit_leaves_scipy_unloaded():
    assert _default_fit_loads("scipy") == "0 False"


def test_default_fit_leaves_numpy_ma_unloaded():
    # np.unique imports numpy.ma on first use, 9-14 ms of a cold process
    assert _default_fit_loads("numpy.ma") == "0 False"


# Run in a fresh process where every scipy import fails: each subcommand
# on the fixtures, then an asymptotic KS test (pooled size 70).
_WITHOUT_SCIPY = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError("scipy is blocked: " + name)

sys.meta_path.insert(0, NoScipy())

import numpy as np
from drawfix import EmpiricalSample, ks_two_sample
from drawfix.cli import main

mini = ["--input", "data/mini_matches.csv", "--ranks", "data/mini_ranks.csv"]
tennis = ["--input", "data/tennis_h2h.csv", "--ranks", "data/tennis_ranks.csv"]
cr8 = sys.argv[1]
runs = [
    ["gen-cr", "--players", "8", "--upset-prob", "0.4", "--output", cr8],
    ["fix", *mini, "--target", "Aldgate Owls"],
    *(["count", *mini, "--stats", s] for s in ("none", "first", "all")),
    *(["winprob", *mini, "--mode", m, "--samples", "2000"]
      for m in ("exact", "per-draw-exact", "full-simulation")),
    ["scan", *mini, "--step", "0.1"],
    ["fit", *mini],
    ["fit", "--input", cr8, "--scan-xmin"],
    ["kings", *tennis],
]
codes = [main(argv) for argv in runs]
rng = np.random.default_rng(3)
res = ks_two_sample(EmpiricalSample.from_values(rng.random(40)),
                    EmpiricalSample.from_values(rng.random(30) + 0.2))
print("exit codes", *codes)
print(res.method, 0.0 <= res.p_value <= 1.0, "scipy" in sys.modules)
"""


def test_runs_without_scipy(tmp_path):
    out = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY, str(tmp_path / "cr8.json")],
        env=_cli_env(), cwd=DATA.parent, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-2:] == [
        "exit codes" + " 0" * 12, "asymptotic True False"], out.stdout


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
def test_cli_import_keeps_blas_on_one_thread(preset, expected):
    env = _cli_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    code = "import os, drawfix.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == expected


def test_tests_load_numpy_after_drawfix():
    import conftest

    assert not conftest.NUMPY_LOADED_BEFORE_DRAWFIX


def test_reader_closing_after_one_line_is_not_bad_input():
    fcntl = pytest.importorskip("fcntl")
    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        pytest.skip("pipe capacity cannot be set here")
    read_fd, write_fd = os.pipe()
    # A one-page pipe holds a small part of the 47 KB matrix, so the writer
    # is still writing when the reader goes away.
    fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, 4096)
    argv = [sys.executable, "-m", "drawfix", "gen-cr", "--players", "64",
            "--upset-prob", "0.3", "--output", "/dev/stdout"]
    with os.fdopen(read_fd, "rb") as reader:
        proc = subprocess.Popen(argv, env=_cli_env(), stdout=write_fd,
                                stderr=subprocess.PIPE)
        os.close(write_fd)
        assert reader.readline() == b"{\n"
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 141
    assert err == b""


def test_reader_gone_before_the_report_is_not_bad_input():
    read_fd, write_fd = os.pipe()
    os.close(read_fd)
    argv = [sys.executable, "-m", "drawfix", "count", "--stats", "first",
            "--input", str(DATA / "soccer_matches.csv"),
            "--ranks", str(DATA / "soccer_ranks.csv")]
    try:
        proc = subprocess.run(argv, env=_cli_env(), stdout=write_fd,
                              stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(write_fd)
    assert proc.returncode == 141
    assert proc.stderr == b""


def test_piped_input_is_read_once(tmp_path):
    # /dev/stdin on a pipe can be read only once, so a second open of
    # --input would see an empty file.
    matrix = tmp_path / "cr8.json"
    write_prob_matrix(matrix, generate_cr(CrParams(n=8, upset_prob=0.35)))
    tennis_ranks = ["--ranks", str(DATA / "tennis_ranks.csv")]
    for path, extra in [(matrix, []), (DATA / "tennis_h2h.csv", tennis_ranks)]:
        argv = [sys.executable, "-m", "drawfix", "kings", *extra, "--input"]
        from_file = subprocess.run([*argv, str(path)], env=_cli_env(),
                                   capture_output=True, timeout=60)
        piped = subprocess.run([*argv, "/dev/stdin"], env=_cli_env(),
                               input=path.read_bytes(), capture_output=True,
                               timeout=60)
        assert (piped.returncode, piped.stderr) == (0, b"")
        assert from_file.returncode == 0
        assert piped.stdout == from_file.stdout
