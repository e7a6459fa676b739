"""Which upset probabilities are consistent with a season's results?

The rank-ordered upset model gives every lower-ranked player the same
chance of beating a higher-ranked one.  We compare the synthetic soccer
season's uniform-draw win probabilities against the model's across a
grid of upset probabilities: a KS test keeps every grid point whose
p-value clears the threshold, producing an accepted interval.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from drawfix import (
    EmpiricalSample,
    average_upset_probability,
    exact_uniform_win_probs,
    read_matches,
    read_ranks,
    scan_cr,
    soccer_to_tournaments,
)

DATA = Path(__file__).resolve().parent.parent / "data"

_, prob = soccer_to_tournaments(
    read_matches(DATA / "soccer_matches.csv"),
    read_ranks(DATA / "soccer_ranks.csv"),
)
vector = exact_uniform_win_probs(prob)
reference = EmpiricalSample.from_win_probs(vector)
avg = average_upset_probability(prob)

print("win probability of each team under a uniform draw:")
for pid in sorted(range(16), key=lambda i: -vector.entries[i])[:6]:
    print(f"  {prob.players.names[pid]:20s} {vector.entries[pid] * 100:7.3f}%")
print("  ...\n")

print(f"average upset probability in the season data: {avg:.3f}")

result = scan_cr(reference, 16, step=0.05, threshold=0.05)
print(f"\n{'upset prob':>10s} {'KS stat':>8s} {'p value':>8s}  verdict")
for step in result.steps:
    verdict = "accept" if step.accepted else "reject"
    print(f"{step.upset_prob:>10.2f} {step.ks.statistic:>8.4f} "
          f"{step.ks.p_value:>8.4f}  {verdict}")

print(f"\naccepted interval at threshold 0.05: "
      f"[{result.min_accepted:.2f}, {result.max_accepted:.2f}]")
inside = result.min_accepted <= avg <= result.max_accepted
print(f"the season's own upset rate {avg:.3f} lies "
      f"{'inside' if inside else 'outside'} the interval")
