"""Bracket basics: draws, canonical form, playing out, and draw fixing.

A tiny four-player field with a cycle (Ada beats Bo, Bo beats Cy, Cy
beats Ada, everyone beats Dee) is enough to show why the draw matters:
three of the four players can be made champion by picking the right
bracket.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from drawfix import (
    DeterministicTournament,
    PlayerTable,
    canonicalize,
    condorcet_winner,
    count_winning_draws,
    enumerate_winning_draws,
    find_winning_draw,
    kings,
    num_draws,
    random_draw,
    simulate,
)

players = PlayerTable(["Ada", "Bo", "Cy", "Dee"])
beats = np.zeros((4, 4), dtype=bool)
beats[0, 1] = beats[1, 2] = beats[2, 0] = True          # the cycle
beats[0, 3] = beats[1, 3] = beats[2, 3] = True          # Dee loses to all
t = DeterministicTournament(players=players, beats=beats)

print(f"{players.n} players, {num_draws(players.n)} possible draws\n")

print("every draw and its champion:")
for target in range(4):
    for draw in enumerate_winning_draws(t, target):
        name = players.names[simulate(draw, t)]
        print(f"  {draw.bracket_text(players.names):24s} -> {name}")

print("\nthe same leaf sets in any order collapse to one canonical draw:")
for leaves in ([2, 1, 0, 3], [3, 0, 2, 1]):
    print(f"  {leaves} -> {canonicalize(leaves).bracket_text(players.names)}")

report = count_winning_draws(t)
print("\nwinning draws per player:")
for pid, name in enumerate(players.names):
    print(f"  {name:4s} {report.counts[pid]} of {report.total_draws}")

print(f"\nkings: {', '.join(players.names[k] for k in kings(t))}")
winner = condorcet_winner(t)
print(f"beats-everyone winner: {players.names[winner] if winner is not None else 'none'}")

result = find_winning_draw(t, players.id_of("Cy"))
print(f"\na draw that crowns Cy: {result.draw.bracket_text(players.names)}")
print(f"search explored {result.stats.choice_points} choice points")

rng = np.random.default_rng(0)
sample = random_draw(4, rng)
print(f"\na uniformly random draw: {sample.bracket_text(players.names)}"
      f" -> {players.names[simulate(sample, t)]} wins")
