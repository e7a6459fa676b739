import json
import os
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drawfix import (
    CrParams,
    DeterministicTournament,
    HeadToHeadRecord,
    IncompleteDataError,
    MatchRecord,
    PlayerTable,
    ProbabilisticTournament,
    count_winning_draws,
    drop_player,
    generate_cr,
    read_h2h,
    read_matches,
    read_prob_matrix,
    read_ranks,
    read_tournaments,
    soccer_to_tournaments,
    tennis_to_tournaments,
    write_h2h,
    write_matches,
    write_prob_matrix,
    write_ranks,
)
from drawfix.ingest import MAX_INPUT_BYTES

DATA = Path(__file__).parent.parent / "data"
RANKS = PlayerTable(("A", "B", "C", "D"))


def season_matches():
    """A hand-checked double round-robin over four ranked teams.

    A vs B goes to A on aggregate 3:2; C shuts out A 3:0; A vs D ties
    3:3 but A scored more away; B vs C is goalless twice (rank rule);
    B whitewashes D; C vs D ties with equal away goals (rank rule).
    """
    rows = [
        ("A", "B", 2, 1), ("B", "A", 1, 1),
        ("A", "C", 0, 2), ("C", "A", 1, 0),
        ("A", "D", 1, 1), ("D", "A", 2, 2),
        ("B", "C", 0, 0), ("C", "B", 0, 0),
        ("B", "D", 3, 0), ("D", "B", 0, 1),
        ("C", "D", 2, 1), ("D", "C", 2, 1),
    ]
    return [MatchRecord("2024", h, a, hg, ag) for h, a, hg, ag in rows]


class TestCsvRoundTrips:
    def test_matches(self, tmp_path):
        path = tmp_path / "m.csv"
        write_matches(path, season_matches())
        assert read_matches(path) == season_matches()

    def test_h2h(self, tmp_path):
        records = [HeadToHeadRecord("A", "B", 7, 3),
                   HeadToHeadRecord("C", "A", 2, 6)]
        path = tmp_path / "h.csv"
        write_h2h(path, records)
        assert read_h2h(path) == records

    def test_ranks(self, tmp_path):
        path = tmp_path / "r.csv"
        write_ranks(path, RANKS)
        assert read_ranks(path) == RANKS

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            read_matches(path)

    def test_short_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("season,home,away,home_goals,away_goals\n2024,A,B,1\n")
        with pytest.raises(ValueError, match="line 2"):
            read_matches(path)

    def test_non_integer_goals(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "season,home,away,home_goals,away_goals\n2024,A,B,one,2\n")
        with pytest.raises(ValueError, match="integer"):
            read_matches(path)

    def test_blank_line_skipped(self, tmp_path):
        lines = (DATA / "mini_matches.csv").read_text(encoding="utf-8").splitlines(
            keepends=True)
        path = tmp_path / "m.csv"
        path.write_text("".join(lines[:5] + ["\n"] + lines[5:]), encoding="utf-8")
        assert read_matches(path) == read_matches(DATA / "mini_matches.csv")

    def test_rank_gap_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("rank,name\n1,A\n3,B\n")
        with pytest.raises(ValueError):
            read_ranks(path)


class TestSoccer:
    def test_beats_matrix(self):
        det, _ = soccer_to_tournaments(season_matches(), RANKS)
        want = np.array([
            # A      B      C      D
            [False, True, False, True],   # A: loses only to C
            [False, False, True, True],   # B: goalless pair goes to rank
            [True, False, False, True],   # C
            [False, False, False, False],  # D
        ])
        assert np.array_equal(det.beats, want)

    def test_probabilities_are_goal_shares(self):
        _, prob = soccer_to_tournaments(season_matches(), RANKS)
        assert prob.probs[0, 1] == pytest.approx(3 / 5)   # A 3:2 B
        assert prob.probs[0, 2] == pytest.approx(0.0)     # A 0:3 C
        assert prob.probs[0, 3] == pytest.approx(0.5)     # A 3:3 D
        assert prob.probs[1, 2] == pytest.approx(0.5)     # goalless
        assert prob.probs[1, 3] == pytest.approx(1.0)     # B 4:0 D
        assert prob.probs[3, 1] == pytest.approx(0.0)

    def test_season_filter(self):
        extra = season_matches() + [MatchRecord("2023", "A", "B", 0, 9)]
        with pytest.raises(ValueError, match="season"):
            soccer_to_tournaments(extra, RANKS)
        det, _ = soccer_to_tournaments(extra, RANKS, season="2024")
        assert det.beats[0, 1]

    def test_unknown_season(self):
        with pytest.raises(ValueError, match="no matches"):
            soccer_to_tournaments(season_matches(), RANKS, season="1999")

    def test_duplicate_fixture(self):
        doubled = season_matches() + [MatchRecord("2024", "A", "B", 1, 0)]
        with pytest.raises(ValueError, match="duplicate"):
            soccer_to_tournaments(doubled, RANKS)

    def test_missing_legs_reported_as_pairs(self):
        partial = [m for m in season_matches()
                   if {m.home, m.away} != {"A", "C"} and {m.home, m.away} != {"B", "D"}]
        with pytest.raises(IncompleteDataError) as err:
            soccer_to_tournaments(partial, RANKS)
        assert err.value.pairs == (("A", "C"), ("B", "D"))

    def test_unranked_team_rejected(self):
        rows = season_matches() + [MatchRecord("2024", "A", "Z", 1, 0)]
        with pytest.raises(ValueError, match="unknown player"):
            soccer_to_tournaments(rows, RANKS)


class TestTennis:
    def records(self):
        return [
            HeadToHeadRecord("A", "B", 7, 3),
            HeadToHeadRecord("C", "A", 2, 6),   # reversed orientation
            HeadToHeadRecord("B", "C", 4, 4),   # tie
            HeadToHeadRecord("A", "D", 0, 0),   # zero meetings
            # B-D, C-D never listed
        ]

    def test_matrix(self):
        det, prob = tennis_to_tournaments(self.records(), RANKS)
        assert prob.probs[0, 1] == pytest.approx(0.7)
        assert prob.probs[0, 2] == pytest.approx(0.75)
        assert prob.probs[1, 2] == pytest.approx(0.5)
        assert prob.probs[0, 3] == pytest.approx(0.5)
        assert prob.probs[2, 3] == pytest.approx(0.5)
        # ties and missing pairs go to the better rank
        assert det.beats[0, 1] and det.beats[1, 2] and det.beats[1, 3]
        assert det.beats[0, 3] and det.beats[2, 3]
        # a real record overrides rank order
        assert det.beats[0, 2]

    def test_rank_upset_kept(self):
        det, prob = tennis_to_tournaments(
            [HeadToHeadRecord("D", "A", 9, 1)], RANKS)
        assert det.beats[3, 0]
        assert prob.probs[3, 0] == pytest.approx(0.9)

    def test_duplicate_pair(self):
        records = self.records() + [HeadToHeadRecord("B", "A", 1, 1)]
        with pytest.raises(ValueError, match="duplicate"):
            tennis_to_tournaments(records, RANKS)

    def test_unranked_player_rejected(self):
        with pytest.raises(ValueError, match="unknown player"):
            tennis_to_tournaments([HeadToHeadRecord("A", "Z", 1, 0)], RANKS)


class TestDropPlayer:
    def test_ranks_compact(self):
        det, _ = soccer_to_tournaments(season_matches(), RANKS)
        smaller = drop_player(det, 1)
        assert smaller.players.names == ("A", "C", "D")
        assert smaller.beats[1, 0]  # C still beats A
        assert not smaller.beats[2, 0]

    def test_probabilistic(self):
        _, prob = soccer_to_tournaments(season_matches(), RANKS)
        smaller = drop_player(prob, 2)
        assert smaller.players.names == ("A", "B", "D")
        assert smaller.probs[0, 1] == pytest.approx(3 / 5)
        assert isinstance(smaller, ProbabilisticTournament)

    def test_bad_id(self, cycle4):
        with pytest.raises(ValueError):
            drop_player(cycle4, 9)

    def test_wrong_type(self):
        with pytest.raises(TypeError):
            drop_player("nope", 0)


# Valid fields of a two-player JSON matrix, for the malformed-file cases.
_PROBS = '"probs": [[0.5, 0.5], [0.5, 0.5]], '
_NAMED = '"names": ["a", "b"], "ranks": [1, 2]'


class TestProbMatrixFiles:
    def test_json_round_trip(self, tmp_path):
        t = generate_cr(CrParams(n=8, upset_prob=0.35))
        path = tmp_path / "m.json"
        write_prob_matrix(path, t)
        back = read_prob_matrix(path)
        assert back.players == t.players
        assert np.allclose(back.probs, t.probs)

    def test_csv_round_trip(self, tmp_path):
        _, prob = soccer_to_tournaments(season_matches(), RANKS)
        path = tmp_path / "m.csv"
        write_prob_matrix(path, prob, fmt="csv")
        back = read_prob_matrix(path)
        assert back.players == prob.players
        assert np.allclose(back.probs, prob.probs)

    @pytest.mark.parametrize("name", ["a,b", 'a"b', "a\nb", "a\r\nb", '"a,\nb"'])
    def test_csv_names_round_trip(self, tmp_path, name):
        players = PlayerTable((name, "plain"))
        t = ProbabilisticTournament(players=players, probs=np.array([[0.5, 0.25],
                                                                     [0.75, 0.5]]))
        path = tmp_path / "m.csv"
        write_prob_matrix(path, t, fmt="csv")
        for back in (read_prob_matrix(path), read_tournaments(path)[1]):
            assert back.players == t.players
            assert np.array_equal(back.probs, t.probs)

    def test_json_rows_follow_rank(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"format": "drawfix-probmatrix/1", "names": ["x", "y", "z"], '
                        '"ranks": [3, 1, 2], "probs": [[0.5, 0.25, 0.125], '
                        '[0.75, 0.5, 1.0], [0.875, 0.0, 0.5]]}\n')
        t = read_prob_matrix(path)
        assert t.players.names == ("y", "z", "x")
        assert np.array_equal(t.probs, [[0.5, 1.0, 0.75], [0.0, 0.5, 0.875],
                                        [0.25, 0.125, 0.5]])
        write_prob_matrix(path, t)
        assert json.loads(path.read_text())["ranks"] == [1, 2, 3]

    def test_unknown_format(self, tmp_path):
        t = generate_cr(CrParams(n=4, upset_prob=0.4))
        with pytest.raises(ValueError):
            write_prob_matrix(tmp_path / "m.xml", t, fmt="xml")

    def test_format_field_checked(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"format": "something-else/9"}\n')
        with pytest.raises(ValueError, match="not a"):
            read_prob_matrix(path)

    def test_csv_header_checked(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("team,A,B\nA,0.5,0.6\nB,0.4,0.5\n")
        with pytest.raises(ValueError, match="header"):
            read_prob_matrix(path)

    def test_csv_row_name_mismatch(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text('"name","A","B"\n"A",0.5,0.6\n"X",0.4,0.5\n')
        with pytest.raises(ValueError, match="row"):
            read_prob_matrix(path)

    @pytest.mark.parametrize("fields, key", [
        (_PROBS + '"ranks": [1, 2]', "names"),
        (_PROBS + '"names": ["a", "b"], "ranks": [1, null]', "ranks"),
        (_PROBS + '"names": "ab", "ranks": [1, 2]', "names"),
        ('"probs": [[0.5, {}], [0.5, 0.5]], ' + _NAMED, "probs"),
        ('"probs": [["0.5", "0.5"], ["0.5", "0.5"]], ' + _NAMED, "probs"),
        ('"probs": [[0.5, 1' + "0" * 400 + '], [0.5, 0.5]], ' + _NAMED, "probs"),
    ], ids=["missing-names", "null-rank", "names-string", "object-prob", "string-probs",
            "huge-int"])
    def test_malformed_json_names_the_key(self, tmp_path, fields, key):
        path = tmp_path / "m.json"
        path.write_text('{"format": "drawfix-probmatrix/1", ' + fields + "}\n")
        with pytest.raises(ValueError, match=f"'{key}' must be a list"):
            read_prob_matrix(path)


def _mini_soccer(tmp_path, edit):
    """Tournaments from an edited copy of the mini fixture's match list."""
    lines = (DATA / "mini_matches.csv").read_text(encoding="utf-8").splitlines(
        keepends=True)
    path = tmp_path / "m.csv"
    path.write_text("".join(edit(lines)), encoding="utf-8")
    return soccer_to_tournaments(read_matches(path), read_ranks(DATA / "mini_ranks.csv"))


def _matrix(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return read_prob_matrix(path)


@pytest.mark.parametrize("load, message", [
    (lambda p: _mini_soccer(p, lambda ls: ls + ls[1:2]), "duplicate fixture"),
    (lambda p: _mini_soccer(p, lambda ls: [ls[0], ls[1].replace(",1,1", ",-1,1")] + ls[2:]),
     "must be a base-10 integer"),
    (lambda p: _matrix(p, "m.csv", '"name","a","b"\n"a",0.5,nan\n"b",nan,0.5\n'),
     r"must lie in \[0, 1\]"),
    (lambda p: _matrix(p, "m.csv", '"name","a","b"\n"a",0.5,inf\n"b",-inf,0.5\n'),
     r"must lie in \[0, 1\]"),
    (lambda p: _matrix(p, "m.json", '{"format": "drawfix-probmatrix/1", "names": '
                       '["a", "b"], "ranks": [1, 2], "probs": [[0.5, 0.5, 0.5], '
                       '[0.5, 0.5, 0.5]]}\n'), "must be 2x2"),
    (lambda p: _matrix(p, "m.csv", '"name","a","b"\n"a",0.5,0.6\n"b",0.6,0.5\n'),
     "must equal 1"),
    (lambda p: count_winning_draws(tennis_to_tournaments(
        read_h2h(DATA / "tennis_h2h.csv"), read_ranks(DATA / "tennis_ranks.csv"))[0]),
     "power of two, got 17 players"),
], ids=["duplicate-fixture", "negative-goals", "nan", "inf", "non-square",
        "inconsistent", "tennis-17"])
def test_rejected_input_classes(tmp_path, load, message):
    with pytest.raises(ValueError, match=message):
        load(tmp_path)


class TestReadTournaments:
    @pytest.mark.parametrize("league, n", [("mini", 8), ("soccer", 16)])
    def test_match_list(self, league, n):
        det, prob = read_tournaments(DATA / f"{league}_matches.csv",
                                     DATA / f"{league}_ranks.csv")
        expected = soccer_to_tournaments(read_matches(DATA / f"{league}_matches.csv"),
                                         read_ranks(DATA / f"{league}_ranks.csv"))
        assert det.n == prob.n == n
        assert np.array_equal(det.beats, expected[0].beats)
        assert np.array_equal(prob.probs, expected[1].probs)

    def test_head_to_head_list_of_seventeen(self):
        det, prob = read_tournaments(DATA / "tennis_h2h.csv", DATA / "tennis_ranks.csv")
        assert det.n == prob.n == 17
        assert np.array_equal(det.beats, prob.to_deterministic().beats)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_matrix(self, tmp_path, fmt):
        path = tmp_path / f"m.{fmt}"
        write_prob_matrix(path, generate_cr(CrParams(n=8, upset_prob=0.3)), fmt=fmt)
        det, prob = read_tournaments(path)
        assert np.array_equal(prob.probs, read_prob_matrix(path).probs)
        assert np.array_equal(det.beats, prob.to_deterministic().beats)

    def test_blank_padded_header_is_still_a_match_list(self, tmp_path):
        # Detection strips the cells; the parser then names the exact header.
        path = tmp_path / "m.csv"
        path.write_text("season, home, away, home_goals, away_goals\n")
        with pytest.raises(ValueError, match="unknown header"):
            read_tournaments(path, DATA / "mini_ranks.csv")

    def test_match_list_needs_ranks(self):
        with pytest.raises(ValueError, match="--ranks is required"):
            read_tournaments(DATA / "mini_matches.csv")

    def test_season_is_passed_on(self):
        with pytest.raises(ValueError, match="no matches found for season '1999'"):
            read_tournaments(DATA / "mini_matches.csv", DATA / "mini_ranks.csv",
                             season="1999")


class TestInputByteCap:
    @pytest.mark.parametrize("read", [read_ranks, read_matches, read_h2h,
                                      read_prob_matrix, read_tournaments])
    def test_every_reader_refuses_one_byte_over(self, tmp_path, read):
        path = tmp_path / "big.csv"
        path.write_bytes(b"rank,name\n1,A\n" + b"\n" * (MAX_INPUT_BYTES - 13))
        with pytest.raises(ValueError, match="limited to 1,048,576 bytes"):
            read(path)

    def test_file_at_the_cap_loads(self, tmp_path):
        path = tmp_path / "ranks.csv"
        path.write_bytes(b"rank,name\n1,A\n" + b"\n" * (MAX_INPUT_BYTES - 14))
        assert path.stat().st_size == MAX_INPUT_BYTES
        assert read_ranks(path).names == ("A",)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_is_refused_above_the_cap(self, tmp_path):
        # A pipe reports size 0, so the bounded read must catch it.
        path = tmp_path / "pipe"
        os.mkfifo(path)
        writer = threading.Thread(
            target=path.write_bytes,
            args=(b"rank,name\n1,A\n" + b"\n" * (MAX_INPUT_BYTES - 13),),
            daemon=True)
        writer.start()
        try:
            with pytest.raises(ValueError, match="limited to 1,048,576 bytes"):
                read_ranks(path)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()


# Text that opens like each input format, so that random bodies reach
# every parser and not only the format sniffing.
_OPENINGS = st.sampled_from([
    "", "\ufeff", "season,home,away,home_goals,away_goals\n",
    "player_a,player_b,a_wins,b_wins\n", "name,A,B\n", '"name","A","B"\n',
    "rank,name\n", '{"format": "drawfix-probmatrix/1", ', '{"format": '
    '"drawfix-probmatrix/1", "names": ["A", "B"], "ranks": [1, 2], "probs": ',
])
_BODIES = st.text() | st.text(alphabet='ABCD0159.,"\r\n []{}-e')


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(opening=_OPENINGS, body=_BODIES, ranked=st.booleans())
def test_any_text_is_read_or_refused_with_value_error(opening, body, ranked):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_text(opening + body, encoding="utf-8")
        ranks = None
        if ranked:
            ranks = Path(tmp) / "ranks.csv"
            write_ranks(ranks, RANKS)
        try:
            det, prob = read_tournaments(path, ranks)
        except ValueError:
            return
        assert det.n == prob.n
