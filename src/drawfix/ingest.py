"""Turning league results into pairwise tournaments.

This module decides what an input file is: ``read_tournaments`` tells
the formats apart by their header row and returns both tournament
readings of any of them.  Every reader refuses a file larger than
MAX_INPUT_BYTES before reading it and parses it once; one CSV reader
reads every CSV.  A malformed file of any format raises ValueError,
which the command line turns into exit code 2.

File formats (UTF-8 CSV, a leading byte-order mark is ignored, header
row required, names quoted on output):

  matches.csv   season,home,away,home_goals,away_goals
  h2h.csv       player_a,player_b,a_wins,b_wins
  ranks.csv     rank,name            (rank 1 is the best)

Every reader returns players in rank order, so id i has rank i + 1.
Probability matrices travel as JSON ({"format": "drawfix-probmatrix/1",
"names": [...], "ranks": [...], "probs": [[...]]}), whose rows may come
in any order and are put in rank order as they are read, or as a square
CSV with a leading name column and rows in rank order; its names are
quoted and may hold commas, double quotes and line breaks.  Parsers
reject unknown headers; integer fields must be base-10 digits.

Soccer pairs are decided on aggregate goals over the two legs, away
goals break ties, and any residual tie goes to the better-ranked team;
the win probability is each side's share of the goals (0.5 when no
goals were scored at all).  Tennis pairs are decided by lifetime
head-to-head win fraction, with ties and never-met pairs going to the
better-ranked player (probability 0.5 when never met).
"""
from __future__ import annotations

import csv
import io
import json
import os
import re
from dataclasses import astuple, dataclass, fields
from typing import Iterable, Sequence

import numpy as np

from .core import DeterministicTournament, PlayerTable, ProbabilisticTournament

__all__ = [
    "MatchRecord",
    "HeadToHeadRecord",
    "IncompleteDataError",
    "read_matches",
    "write_matches",
    "read_h2h",
    "write_h2h",
    "read_ranks",
    "write_ranks",
    "read_prob_matrix",
    "write_prob_matrix",
    "read_tournaments",
    "soccer_to_tournaments",
    "tennis_to_tournaments",
    "drop_player",
]

RANKS_HEADER = ["rank", "name"]

PROB_MATRIX_FORMAT = "drawfix-probmatrix/1"

# The largest input file any reader accepts, ten times the largest field
# the model methods take: a 64-player JSON matrix of full-precision
# floats is about 0.1 MB.  Parsing a CSV of short cells holds up to about
# 28 bytes per input byte, so a file at the cap adds about 30 MB to a
# process's peak, where a 4 MB matrix used to add 115 MB.
MAX_INPUT_BYTES = 1 << 20


class IncompleteDataError(ValueError):
    """A ranked pair has no usable results."""

    def __init__(self, pairs: Sequence[tuple[str, str]]):
        self.pairs = tuple(pairs)
        shown = ", ".join(f"{a} vs {b}" for a, b in self.pairs[:8])
        if len(self.pairs) > 8:
            shown += ", ..."
        super().__init__(f"missing results for {len(self.pairs)} pair(s): {shown}")


@dataclass(frozen=True)
class MatchRecord:
    season: str
    home: str
    away: str
    home_goals: int
    away_goals: int


@dataclass(frozen=True)
class HeadToHeadRecord:
    player_a: str
    player_b: str
    a_wins: int
    b_wins: int


# A record list's CSV header is the record's fields in declaration order.
MATCHES_HEADER = [f.name for f in fields(MatchRecord)]
H2H_HEADER = [f.name for f in fields(HeadToHeadRecord)]


def _int_field(value: str, line: int, column: str) -> int:
    if not re.fullmatch(r"\d+", value):
        raise ValueError(
            f"line {line}: column {column!r} must be a base-10 integer, got {value!r}"
        )
    return int(value)


def _read_text(path) -> str:
    """The decoded text of an input file, refused unread above the cap."""
    with open(path, "rb") as fh:
        # A pipe reports size 0; the bounded read covers it.
        too_big = os.fstat(fh.fileno()).st_size > MAX_INPUT_BYTES
        data = b"" if too_big else fh.read(MAX_INPUT_BYTES + 1)
    if too_big or len(data) > MAX_INPUT_BYTES:
        raise ValueError(
            f"{path}: input files are limited to {MAX_INPUT_BYTES:,} bytes (1 MiB)"
        )
    return data.decode("utf-8-sig")


def _csv_rows(text: str, path) -> list[list[str]]:
    """Every row of a CSV text; quoted fields keep their line breaks."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        return list(reader)
    except csv.Error as exc:
        raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None


def _data_rows(
    rows: list[list[str]], path, header: list[str]
) -> list[tuple[int, list[str]]]:
    if not rows:
        raise ValueError(f"{path}: empty file")
    if rows[0] != header:
        raise ValueError(
            f"{path}: unknown header {rows[0]!r}, expected {header!r}"
        )
    out = []
    for line, row in enumerate(rows[1:], start=2):
        if row:
            if len(row) != len(header):
                raise ValueError(f"{path}: line {line}: expected {len(header)} fields")
            out.append((line, row))
    return out


def _parse_records(rows: list[list[str]], path, cls) -> list:
    """``cls`` records from rows headed by its field names; ``int`` fields are checked."""
    columns = fields(cls)
    out = []
    for line, row in _data_rows(rows, path, [f.name for f in columns]):
        out.append(cls(*(_int_field(v, line, f.name) if f.type == "int" else v
                         for f, v in zip(columns, row))))
    return out


def read_matches(path) -> list[MatchRecord]:
    return _parse_records(_csv_rows(_read_text(path), path), path, MatchRecord)


def read_h2h(path) -> list[HeadToHeadRecord]:
    return _parse_records(_csv_rows(_read_text(path), path), path, HeadToHeadRecord)


def read_ranks(path) -> PlayerTable:
    seen, names = {}, set()
    rows = _csv_rows(_read_text(path), path)
    for line, (rank, name) in _data_rows(rows, path, RANKS_HEADER):
        r = _int_field(rank, line, "rank")
        if r in seen:
            raise ValueError(f"{path}: duplicate rank {r}")
        if name in names:
            raise ValueError(f"{path}: line {line}: duplicate name {name!r}")
        seen[r] = name
        names.add(name)
    if sorted(seen) != list(range(1, len(seen) + 1)):
        raise ValueError(f"{path}: ranks must be exactly 1..{len(seen)}")
    return PlayerTable(tuple(seen[r] for r in sorted(seen)))


def write_json(path, doc: dict) -> None:
    """Write indented JSON with sorted keys and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_csv(path, header: list[str], rows: Iterable[tuple]) -> None:
    """Write a bare header line, then rows with every string quoted."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        writer = csv.writer(fh, quoting=csv.QUOTE_NONNUMERIC, lineterminator="\n")
        writer.writerows(rows)


def write_matches(path, records: Iterable[MatchRecord]) -> None:
    write_csv(path, MATCHES_HEADER, map(astuple, records))


def write_h2h(path, records: Iterable[HeadToHeadRecord]) -> None:
    write_csv(path, H2H_HEADER, map(astuple, records))


def write_ranks(path, players: PlayerTable) -> None:
    write_csv(
        path, RANKS_HEADER, ((i + 1, name) for i, name in enumerate(players.names))
    )


def soccer_to_tournaments(
    matches: Sequence[MatchRecord],
    players: PlayerTable,
    season: str | None = None,
) -> tuple[DeterministicTournament, ProbabilisticTournament]:
    """Build both tournament readings from a double round-robin season.

    ``players`` lists the teams best first.  Every ranked pair must have
    exactly one home match each way in the selected season; matches
    naming unranked teams are rejected.  Pass ``season`` when the match
    list spans more than one.
    """
    seasons = sorted({m.season for m in matches})
    if season is None:
        if len(seasons) > 1:
            raise ValueError(f"matches span seasons {seasons}; pass season=")
        selected = list(matches)
    else:
        selected = [m for m in matches if m.season == season]
        if not selected:
            raise ValueError(f"no matches found for season {season!r}")

    legs: dict[tuple[int, int], tuple[int, int]] = {}
    for m in selected:
        hi = players.id_of(m.home)
        ai = players.id_of(m.away)
        if hi == ai:
            raise ValueError(f"{m.home} cannot play itself")
        if (hi, ai) in legs:
            raise ValueError(f"duplicate fixture: {m.home} at home to {m.away}")
        legs[(hi, ai)] = (m.home_goals, m.away_goals)

    n = players.n
    beats = np.zeros((n, n), dtype=bool)
    probs = np.full((n, n), 0.5)
    missing = []
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in legs or (j, i) not in legs:
                missing.append((players.names[i], players.names[j]))
                continue
            hg1, ag1 = legs[(i, j)]  # i at home
            hg2, ag2 = legs[(j, i)]  # j at home
            goals_i = hg1 + ag2
            goals_j = ag1 + hg2
            away_i, away_j = ag2, ag1
            if goals_i != goals_j:
                i_wins = goals_i > goals_j
            elif away_i != away_j:
                i_wins = away_i > away_j
            else:
                i_wins = True  # ids are in rank order: i is ranked better
            beats[i, j] = i_wins
            beats[j, i] = not i_wins
            total = goals_i + goals_j
            p = goals_i / total if total else 0.5
            probs[i, j] = p
            probs[j, i] = 1.0 - p
    if missing:
        raise IncompleteDataError(missing)
    return (
        DeterministicTournament(players=players, beats=beats),
        ProbabilisticTournament(players=players, probs=probs),
    )


def tennis_to_tournaments(
    h2h: Sequence[HeadToHeadRecord],
    players: PlayerTable,
) -> tuple[DeterministicTournament, ProbabilisticTournament]:
    """Build both tournament readings from lifetime head-to-head records.

    ``players`` lists the players best first.  A pair with no record (or
    zero meetings) counts as never met, with probability 0.5.  The
    deterministic reading is the probabilities' ``to_deterministic()``: a
    tie or a pair that never met goes to the better-ranked player.
    Records naming unranked players are rejected.
    """
    record: dict[tuple[int, int], tuple[int, int]] = {}
    for rec in h2h:
        ai = players.id_of(rec.player_a)
        bi = players.id_of(rec.player_b)
        if ai == bi:
            raise ValueError(f"{rec.player_a} cannot play itself")
        key = (min(ai, bi), max(ai, bi))
        if key in record:
            raise ValueError(
                f"duplicate head-to-head pair: {rec.player_a} vs {rec.player_b}"
            )
        record[key] = (rec.a_wins, rec.b_wins) if ai < bi else (rec.b_wins, rec.a_wins)

    n = players.n
    probs = np.full((n, n), 0.5)
    for (i, j), (wins_i, wins_j) in record.items():
        if wins_i + wins_j:
            probs[i, j] = wins_i / (wins_i + wins_j)
            probs[j, i] = 1.0 - probs[i, j]
    prob = ProbabilisticTournament(players=players, probs=probs)
    return prob.to_deterministic(), prob


def drop_player(t, player: int):
    """Remove one player by id; the players below it move up one id and rank.

    Works on either tournament kind and returns the same kind.
    """
    if not isinstance(t, (DeterministicTournament, ProbabilisticTournament)):
        raise TypeError(f"not a tournament: {type(t).__name__}")
    players = t.players
    if not 0 <= player < players.n:
        raise ValueError(f"no player with id {player}")
    keep = [i for i in range(players.n) if i != player]
    table = PlayerTable(tuple(players.names[i] for i in keep))
    idx = np.array(keep)
    if isinstance(t, DeterministicTournament):
        return DeterministicTournament(players=table, beats=t.beats[np.ix_(idx, idx)])
    return ProbabilisticTournament(players=table, probs=t.probs[np.ix_(idx, idx)])


def write_prob_matrix(path, t: ProbabilisticTournament, fmt: str = "json") -> None:
    """Serialise a probability matrix; see the module docstring for formats."""
    if fmt == "json":
        doc = {
            "format": PROB_MATRIX_FORMAT,
            "names": list(t.players.names),
            "ranks": list(range(1, t.n + 1)),
            "probs": [[float(x) for x in row] for row in t.probs],
        }
        write_json(path, doc)
        return
    if fmt != "csv":
        raise ValueError(f"unknown matrix format: {fmt!r}")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, quoting=csv.QUOTE_NONNUMERIC, lineterminator="\n")
        writer.writerow(["name", *t.players.names])
        for name, row in zip(t.players.names, t.probs):
            writer.writerow([name, *[float(x) for x in row]])


def _json_matrix(text: str, path) -> ProbabilisticTournament:
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None
    if doc.get("format") != PROB_MATRIX_FORMAT:
        raise ValueError(f"{path}: not a {PROB_MATRIX_FORMAT} file")
    names, ranks, probs = doc.get("names"), doc.get("ranks"), doc.get("probs")
    if not isinstance(names, list) or not all(isinstance(x, str) for x in names):
        raise ValueError(f"{path}: 'names' must be a list of strings")
    n = len(names)
    if not isinstance(ranks, list) or not all(type(r) is int for r in ranks):
        raise ValueError(f"{path}: 'ranks' must be a list of integers")
    if sorted(ranks) != list(range(1, n + 1)):
        raise ValueError(f"{path}: 'ranks' must be a permutation of 1..{n}")
    if not isinstance(probs, list) or not all(
        isinstance(row, list)
        and all(type(x) in (int, float) and 0 <= x <= 1 for x in row)
        for row in probs
    ):
        raise ValueError(f"{path}: 'probs' must be a list of lists of numbers in [0, 1]")
    if len(probs) != n or any(len(row) != n for row in probs):
        raise ValueError(f"{path}: 'probs' must be {n}x{n}")
    # Rows may come in any order; the player ranked r gets id r - 1.
    order = np.argsort(ranks)
    players = PlayerTable(tuple(names[i] for i in order))
    probs = np.array(probs, dtype=float)[np.ix_(order, order)]
    return ProbabilisticTournament(players=players, probs=probs)


def _csv_matrix(rows: list[list[str]], path) -> ProbabilisticTournament:
    if not rows or not rows[0] or rows[0][0] != "name":
        header = ",".join(rows[0]) if rows else ""
        raise ValueError(f"unrecognized input format in {path!r}: header {header!r} "
                         "is not a probability-matrix header")
    names = tuple(rows[0][1:])
    if len(rows) != len(names) + 1:
        raise ValueError(f"{path}: expected {len(names)} matrix rows")
    probs = np.empty((len(names), len(names)))
    for i, row in enumerate(rows[1:]):
        if len(row) != len(names) + 1 or row[0] != names[i]:
            raise ValueError(f"{path}: matrix row {i + 1} does not match the header")
        try:
            probs[i] = [float(x) for x in row[1:]]
        except ValueError as exc:
            raise ValueError(f"{path}: matrix row {i + 1}: {exc}") from None
    return ProbabilisticTournament(players=PlayerTable(names), probs=probs)


def read_prob_matrix(path) -> ProbabilisticTournament:
    text = _read_text(path)
    if text.lstrip()[:1] == "{":
        return _json_matrix(text, path)
    return _csv_matrix(_csv_rows(text, path), path)


def read_tournaments(
    path, ranks=None, season: str | None = None
) -> tuple[DeterministicTournament, ProbabilisticTournament]:
    """Both tournament readings of an input file in any supported format.

    A file that opens with ``{`` is a JSON probability matrix.  Other
    files are CSV: match lists and head-to-head lists are told apart by
    their header row, compared cell by cell after stripping blanks, and
    need ``ranks``, the path of a ranks file; ``season`` selects one
    season of a match list.  Any other CSV is a probability matrix.  A
    matrix's deterministic reading is ``to_deterministic()``.  The file
    is read and parsed once, so a pipe works as ``path``.
    """
    text = _read_text(path)
    if text.lstrip()[:1] == "{":
        prob = _json_matrix(text, path)
        return prob.to_deterministic(), prob
    rows = _csv_rows(text, path)
    header = [cell.strip() for cell in rows[0]] if rows else []
    if header not in (MATCHES_HEADER, H2H_HEADER):
        prob = _csv_matrix(rows, path)
        return prob.to_deterministic(), prob
    if not ranks:
        raise ValueError("--ranks is required for match or head-to-head input")
    players = read_ranks(ranks)
    if header == MATCHES_HEADER:
        matches = _parse_records(rows, path, MatchRecord)
        return soccer_to_tournaments(matches, players, season=season)
    return tennis_to_tournaments(_parse_records(rows, path, HeadToHeadRecord), players)
