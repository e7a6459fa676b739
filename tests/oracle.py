"""Independent reference implementations used to cross-check the library.

Everything here is written for clarity, not speed: draws are enumerated
recursively as nested tuples, winners are resolved by walking the tree,
probabilities come from exhaustive expectation sums.  None of it shares
code with the dynamic programs in :mod:`drawfix`, which is the point.
"""

from __future__ import annotations

import itertools
import math


def all_draws(players):
    """Every unordered bracket over ``players`` as a nested pair tree.

    A tree is either a bare player id or a pair (left, right).  To avoid
    producing mirrored duplicates the lowest id in scope always goes
    into the left half.
    """
    players = sorted(players)
    if len(players) == 1:
        return [players[0]]
    out = []
    first, rest = players[0], players[1:]
    half = len(players) // 2
    for mates in itertools.combinations(rest, half - 1):
        left = [first, *mates]
        right = [p for p in rest if p not in mates]
        for lt in all_draws(left):
            for rt in all_draws(right):
                out.append((lt, rt))
    return out


def tree_leaves(tree):
    if isinstance(tree, int):
        return [tree]
    left, right = tree
    return tree_leaves(left) + tree_leaves(right)


def leaves_tree(leaves):
    """The nested pair tree whose leaf order is ``leaves``."""
    if len(leaves) == 1:
        return int(leaves[0])
    half = len(leaves) // 2
    return (leaves_tree(leaves[:half]), leaves_tree(leaves[half:]))


def tree_winner(tree, beats):
    """Play out a deterministic bracket; ``beats[i][j]`` is True if i beats j."""
    if isinstance(tree, int):
        return tree
    a = tree_winner(tree[0], beats)
    b = tree_winner(tree[1], beats)
    return a if beats[a][b] else b


def tree_win_probs(tree, probs):
    """Map player id -> probability of winning this bracket."""
    if isinstance(tree, int):
        return {tree: 1.0}
    left = tree_win_probs(tree[0], probs)
    right = tree_win_probs(tree[1], probs)
    out = {}
    for a, pa in left.items():
        out[a] = pa * sum(pb * probs[a][b] for b, pb in right.items())
    for b, pb in right.items():
        out[b] = pb * sum(pa * probs[b][a] for a, pa in left.items())
    return out


def count_by_winner(n, beats):
    """Winning-draw count per player by playing out every bracket."""
    counts = [0] * n
    for tree in all_draws(range(n)):
        counts[tree_winner(tree, beats)] += 1
    return counts


def uniform_win_probs(n, probs):
    """Exact uniform-draw win probabilities by full enumeration."""
    draws = all_draws(range(n))
    totals = [0.0] * n
    for tree in draws:
        for player, p in tree_win_probs(tree, probs).items():
            totals[player] += p
    return [t / len(draws) for t in totals]


def ks_statistic(a, b):
    """Max ECDF gap, brute force over every pooled point."""
    best = 0.0
    for x in sorted(set(a) | set(b)):
        fa = sum(1 for v in a if v <= x) / len(a)
        fb = sum(1 for v in b if v <= x) / len(b)
        best = max(best, abs(fa - fb))
    return best


def ks_permutation_p(a, b):
    """Exact permutation p-value by enumerating every split of the pool."""
    pool = list(a) + list(b)
    na = len(a)
    observed = ks_statistic(a, b)
    hits = total = 0
    for idx in itertools.combinations(range(len(pool)), na):
        left = [pool[i] for i in idx]
        right = [pool[i] for i in range(len(pool)) if i not in idx]
        total += 1
        if ks_statistic(left, right) >= observed - 1e-12:
            hits += 1
    return hits / total


def powerlaw_sample(rng, alpha, xmin, size):
    """Inverse-CDF draws from the continuous power law."""
    u = rng.random(size)
    return [xmin * (1.0 - ui) ** (-1.0 / (alpha - 1.0)) for ui in u]


def lognormal_loglik(values, mu, sigma):
    out = 0.0
    for x in values:
        z = (math.log(x) - mu) / sigma
        out += -math.log(x * sigma * math.sqrt(2 * math.pi)) - 0.5 * z * z
    return out


def powerlaw_loglik(values, alpha, xmin):
    out = 0.0
    for x in values:
        out += math.log((alpha - 1.0) / xmin) - alpha * math.log(x / xmin)
    return out
