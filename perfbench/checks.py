"""Answer checks.  Each raises :class:`CheckFailed` on a wrong answer.

The checks run outside the timed regions.  They use ``drawfix.core`` to
replay draws and otherwise recompute what they can with numpy.
"""
from __future__ import annotations

import math

import numpy as np

# A sampled win probability may sit this many standard errors from the
# exact one.  The bound sqrt(p(1-p)/samples) holds for both sampling
# modes, since each sampled value lies in [0, 1]; at 6 the chance of a
# false alarm over 16 players is about 3e-8 per vector.
SAMPLED_SE_MULTIPLE = 6.0
EXACT_TOL = 1e-12
FIT_TOL = 1e-9


class CheckFailed(AssertionError):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def num_draws(n: int) -> int:
    return math.factorial(n) // 2 ** (n - 1)


def counts(values, n: int) -> None:
    """A count vector is integral, nonnegative and sums to num_draws(n)."""
    require(len(values) == n, f"{len(values)} counts for {n} players")
    require(all(isinstance(c, int) and c >= 0 for c in values),
             "counts must be nonnegative integers")
    require(sum(values) == num_draws(n),
             f"counts sum to {sum(values)}, not {num_draws(n)}")


def _crowns(leaves, t, target: int) -> None:
    from drawfix.core import canonicalize, simulate

    require(sorted(leaves) == list(range(t.n)), "draw is not a permutation")
    draw = canonicalize(leaves)
    require(draw.leaves == tuple(leaves), f"draw {tuple(leaves)} is not canonical")
    winner = simulate(draw, t)
    require(winner == target, f"draw crowns {winner}, not {target}")


def found(draw, t, target: int, count: int) -> None:
    """find returns no draw exactly when the target's count is 0, and a
    found draw is canonical and crowns the target."""
    if count == 0:
        require(draw is None, f"found a draw for {target}, whose count is 0")
        return
    require(draw is not None, f"no draw found for {target}, whose count is {count}")
    _crowns(draw.leaves, t, target)


def enumerated(draws, t, target: int, count: int, limit: int) -> None:
    """min(limit, count) distinct canonical draws, each crowning the target."""
    leaves = [d.leaves for d in draws]
    require(len(leaves) == min(limit, count),
             f"{len(leaves)} draws enumerated, expected {min(limit, count)}")
    require(len(set(leaves)) == len(leaves), "enumerated draws repeat")
    for seq in leaves:
        _crowns(seq, t, target)


def exact_matches_counts(entries, count_values) -> None:
    """Exact win probabilities of a 0/1 matrix equal counts / num_draws."""
    total = num_draws(len(count_values))
    want = np.array(count_values, dtype=float) / total
    err = np.abs(np.array(entries) - want).max()
    require(err <= EXACT_TOL, f"exact probabilities differ from counts by {err:.3g}")


def sampled(entries, exact, samples: int) -> None:
    """Every sampled probability lies within SAMPLED_SE_MULTIPLE standard
    errors of the exact one."""
    s = np.array(entries, dtype=float)
    e = np.array(exact, dtype=float)
    require(s.shape == e.shape, "sampled and exact vectors differ in length")
    bound = SAMPLED_SE_MULTIPLE * np.sqrt(e * (1.0 - e) / samples) + EXACT_TOL
    worst = int(np.argmax(np.abs(s - e) - bound))
    require(abs(s[worst] - e[worst]) <= bound[worst],
             f"sampled p[{worst}]={s[worst]:.6f} is off exact {e[worst]:.6f} "
             f"by more than {bound[worst]:.2g}")


def lognormal_fit(mu: float, sigma: float, values) -> None:
    logs = np.log(np.array(values, dtype=float))
    require(abs(mu - logs.mean()) <= FIT_TOL, f"log-normal mu {mu} is not {logs.mean()}")
    require(abs(sigma - logs.std()) <= FIT_TOL, f"log-normal sigma {sigma} is not {logs.std()}")


def power_law_fit(alpha: float, xmin: float, sample_size: int, values) -> None:
    vals = np.array(values, dtype=float)
    tail = vals[vals >= xmin]
    require(sample_size == tail.size, "power-law fit covers the wrong tail")
    want = 1.0 + tail.size / np.log(tail / xmin).sum()
    require(abs(alpha - want) <= FIT_TOL * want, f"power-law alpha {alpha} is not {want}")


def scan_steps(steps, threshold: float, grid_points: int) -> None:
    """A scan has one step per grid point and accepts exactly the steps
    whose p-value reaches the threshold.  ``steps`` holds
    (upset_prob, statistic, p_value, accepted) tuples."""
    require(len(steps) == grid_points, f"{len(steps)} scan steps, expected {grid_points}")
    for u, stat, p, accepted in steps:
        require(0.0 <= stat <= 1.0 and 0.0 <= p <= 1.0, f"KS result out of range at {u}")
        require(accepted == (p >= threshold), f"acceptance at {u} disagrees with p={p}")


# ---------------------------------------------------------------------------
# CLI outputs against the committed expected files


def expected_counts(values, names, expected: dict) -> None:
    """Each player's count is the one in an expected-counts file."""
    got = dict(zip(names, values))
    wrong = sorted(name for name in got.keys() | expected["counts"].keys()
                   if got.get(name) != expected["counts"].get(name))
    require(not wrong, f"counts differ from the expected counts for {', '.join(wrong)}")


def cli_counts(doc: dict, expected: dict) -> None:
    rows = doc["data"]["players"]
    expected_counts([row["count"] for row in rows], [row["name"] for row in rows], expected)
    require(doc["data"]["total_draws"] == expected["total_draws"], "total_draws differs")


def cli_winprobs(doc: dict, expected: dict) -> None:
    got = {row["name"]: row["win_prob"] for row in doc["data"]["players"]}
    want = expected["win_probs"]
    require(got.keys() == want.keys(), "win-probability output names differ")
    for name, p in want.items():
        require(abs(got[name] - p) <= EXACT_TOL, f"win probability of {name} differs")


def cli_scan(doc: dict, expected: dict) -> None:
    data = doc["data"]
    for key in ("min_accepted", "max_accepted", "avg_upset"):
        require(data[key] is not None and abs(data[key] - expected[key]) <= EXACT_TOL,
                 f"scan {key} {data[key]} is not {expected[key]}")
    grid = round(0.5 / expected["step"])
    scan_steps([(s["upset_prob"], s["statistic"], s["p_value"], s["accepted"])
                for s in data["steps"]], expected["threshold"], grid)


def kings_of(beats: np.ndarray) -> list[int]:
    """Players reaching every other player in at most two steps."""
    b = beats.astype(int)
    reach = beats | ((b @ b) > 0)
    np.fill_diagonal(reach, True)
    return [i for i in range(len(beats)) if reach[i].all()]


def cli_kings(doc: dict, names, beats: np.ndarray) -> None:
    want = [names[i] for i in kings_of(beats)]
    require(doc["data"]["kings"] == want, f"kings {doc['data']['kings']} are not {want}")
    wins = beats.sum(axis=1)
    best = int(np.argmax(wins))
    winner = names[best] if wins[best] == len(beats) - 1 else None
    require(doc["data"]["condorcet_winner"] == winner, "beats-everyone winner differs")


def cli_matrix(doc: dict, want: np.ndarray) -> None:
    require(doc.get("format") == "drawfix-probmatrix/1", "not a matrix file")
    require(np.array_equal(np.array(doc["probs"]), want), "generated matrix differs")
