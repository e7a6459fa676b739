"""Regenerate the synthetic datasets in data/ and their expected outputs.

Everything is seeded, so rerunning this script reproduces the committed
files byte for byte.  The fixtures stand in for the kind of proprietary
league and tour data the toolkit is meant to ingest:

* a 16-team double round-robin soccer season (every side scores at
  least once per pairing, so goal-share probabilities stay interior),
* an 8-team mini season small enough to check by brute force,
* a 17-player tennis head-to-head table whose top seed beats everyone,
  with some pairs tied and some that never met.

Expected outputs in data/expected/ come from two routes.  The 8-team
counts are produced by the brute-force bracket enumeration in
tests/oracle.py, which shares no code with the library.  The 16-player
fixtures are far too large to enumerate (638,512,875 draws), so their
expected values are produced by the library itself and serve as
regression pins rather than independent checks; the library's counting
is cross-validated against enumeration at small sizes in the test suite.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from drawfix import (  # noqa: E402
    HeadToHeadRecord,
    MatchRecord,
    PlayerTable,
    condorcet_winner,
    count_winning_draws,
    drop_player,
    exact_uniform_win_probs,
    kings,
    soccer_to_tournaments,
    tennis_to_tournaments,
    write_h2h,
    write_matches,
    write_ranks,
)
from drawfix.crmodel import average_upset_probability  # noqa: E402
from drawfix.ingest import write_json  # noqa: E402
from drawfix.stats import EmpiricalSample, scan_cr  # noqa: E402

import oracle  # noqa: E402

SEED = 20250822
DATA = ROOT / "data"

SOCCER_TEAMS = [
    "Alderton Athletic", "Briarwick FC", "Cindervale United",
    "Dunmore Wanderers", "Eastmarsh Town", "Fernleigh Rovers",
    "Gorsebrook City", "Harrowgate FC", "Ivelford United", "Juniper Vale",
    "Kestrel Heath", "Larkmoor Albion", "Midwinter FC", "Nettlecombe Town",
    "Oakhurst Rangers", "Pellbridge City",
]

MINI_TEAMS = [
    "Aldgate Owls", "Birchfield Foxes", "Cranford Stags",
    "Dovewell Harriers", "Elmsworth Badgers", "Foxglove Terriers",
    "Grangemoor Wolves", "Hollowbrook Hares",
]

TENNIS_PLAYERS = [
    "Axel Brandt", "Benoit Clair", "Casper Lindqvist", "Dario Fontana",
    "Emil Novak", "Florian Weiss", "Gustav Ahlgren", "Henrik Dalgaard",
    "Iker Salaberria", "Jonas Keller", "Kristof Banyai", "Luca Moretti",
    "Marek Zielinski", "Nico Verhoeven", "Oskar Lindt", "Pavel Cermak",
    "Quentin Faure",
]


# --- fixture generation ---


def make_season(rng, teams, season):
    """Double round robin; every side ends with positive aggregate goals."""
    n = len(teams)
    strength = np.linspace(1.6, 0.45, n)
    records = []
    goals = {}
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            edge = strength[i] / (strength[i] + strength[j])
            hg = int(rng.poisson(0.6 + 2.4 * edge))
            ag = int(rng.poisson(0.3 + 1.9 * (1.0 - edge)))
            goals[(i, j)] = [hg, ag]
    for i in range(n):
        for j in range(i + 1, n):
            # aggregate per side must stay positive for goal-share probabilities
            if goals[(i, j)][0] + goals[(j, i)][1] == 0:
                goals[(j, i)][1] = 1
            if goals[(i, j)][1] + goals[(j, i)][0] == 0:
                goals[(i, j)][1] = 1
    for (i, j), (hg, ag) in sorted(goals.items()):
        records.append(MatchRecord(season, teams[i], teams[j], hg, ag))
    return records


def make_tennis(rng, players):
    """Lifetime records; the top seed strictly beats all others."""
    n = len(players)
    records = []
    for j in range(1, n):
        meetings = int(rng.integers(4, 15))
        losses = int(rng.integers(0, (meetings - 1) // 2 + 1))
        records.append(
            HeadToHeadRecord(players[0], players[j], meetings - losses, losses)
        )
    for i in range(1, n):
        for j in range(i + 1, n):
            kind = rng.random()
            if kind < 0.15:
                continue  # never met
            if kind < 0.25:
                w = int(rng.integers(1, 5))
                records.append(HeadToHeadRecord(players[i], players[j], w, w))
                continue
            meetings = int(rng.integers(2, 17))
            wins_i = int(rng.binomial(meetings, 0.62))
            records.append(
                HeadToHeadRecord(players[i], players[j], wins_i, meetings - wins_i)
            )
    return records


def main() -> None:
    rng = np.random.default_rng(SEED)
    DATA.mkdir(exist_ok=True)
    (DATA / "expected").mkdir(exist_ok=True)

    # soccer, 16 teams
    season = make_season(rng, SOCCER_TEAMS, "2031-32")
    write_matches(DATA / "soccer_matches.csv", season)
    write_ranks(DATA / "soccer_ranks.csv", PlayerTable(SOCCER_TEAMS))
    det, prob = soccer_to_tournaments(season, PlayerTable(SOCCER_TEAMS))
    report = count_winning_draws(det)
    write_json(
        DATA / "expected" / "soccer_counts.json",
        {
            "total_draws": report.total_draws,
            "counts": {name: c for name, c in zip(SOCCER_TEAMS, report.counts)},
        },
    )
    vector = exact_uniform_win_probs(prob)
    write_json(
        DATA / "expected" / "soccer_winprobs.json",
        {"win_probs": {name: p for name, p in zip(SOCCER_TEAMS, vector.entries)}},
    )
    reference = EmpiricalSample.from_win_probs(vector)
    scan = scan_cr(reference, 16, step=0.01, threshold=0.05)
    write_json(
        DATA / "expected" / "soccer_scan.json",
        {
            "step": 0.01,
            "threshold": 0.05,
            "avg_upset": average_upset_probability(prob),
            "min_accepted": scan.min_accepted,
            "max_accepted": scan.max_accepted,
        },
    )

    # mini soccer, 8 teams, checked by enumeration
    mini = make_season(rng, MINI_TEAMS, "2031-32")
    write_matches(DATA / "mini_matches.csv", mini)
    write_ranks(DATA / "mini_ranks.csv", PlayerTable(MINI_TEAMS))
    mini_det, _ = soccer_to_tournaments(mini, PlayerTable(MINI_TEAMS))
    counts = oracle.count_by_winner(8, mini_det.beats)
    write_json(
        DATA / "expected" / "mini_counts.json",
        {
            "total_draws": sum(counts),
            "counts": {name: c for name, c in zip(MINI_TEAMS, counts)},
        },
    )

    # tennis, 17 players; the bracket fixtures drop the top seed
    h2h = make_tennis(rng, TENNIS_PLAYERS)
    write_h2h(DATA / "tennis_h2h.csv", h2h)
    write_ranks(DATA / "tennis_ranks.csv", PlayerTable(TENNIS_PLAYERS))
    tdet, _ = tennis_to_tournaments(h2h, PlayerTable(TENNIS_PLAYERS))
    top = condorcet_winner(tdet)
    assert top == 0, "the top seed must beat every other player"
    assert kings(tdet) == (0,)
    trimmed = drop_player(tdet, 0)
    treport = count_winning_draws(trimmed)
    write_json(
        DATA / "expected" / "tennis_counts.json",
        {
            "dropped": TENNIS_PLAYERS[0],
            "total_draws": treport.total_draws,
            "counts": {
                name: c
                for name, c in zip(trimmed.players.names, treport.counts)
            },
        },
    )

    pairs = len(h2h)
    print(f"wrote {len(season)} + {len(mini)} matches, {pairs} h2h records")
    print(f"soccer top share: {report.shares[0]:.4f}")
    print(f"scan range: {scan.min_accepted} .. {scan.max_accepted}")


if __name__ == "__main__":
    main()
