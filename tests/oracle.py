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
        return {tree: 1}
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
    """Exact uniform-draw win probabilities by full enumeration.

    With ``fractions.Fraction`` probabilities every step stays exact.
    """
    draws = all_draws(range(n))
    totals = [0] * n
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


# Published conditions on who can win a balanced knockout draw, checked
# straight from the win relation ``beats[i][j]`` (i beats j) of a field of
# n = 2^k players.  The necessary ones bound the possible champions from
# above, the sufficient ones certify some of them.

def out_degree(beats, i):
    return sum(1 for j in range(len(beats)) if j != i and beats[i][j])


def top_cycle(beats):
    """The Smith set: players from whom every player is reachable along a
    chain of wins.  Every champion lies in it (Laslier 1997)."""
    n = len(beats)
    reach = [[i == j or bool(beats[i][j]) for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                reach[i] = [r or rk for r, rk in zip(reach[i], reach[k])]
    return {i for i in range(n) if all(reach[i])}


def wins_enough(beats, i):
    """A champion beats log2(n) distinct players on the way."""
    return out_degree(beats, i) >= len(beats).bit_length() - 1


def is_condorcet_winner(beats, i):
    """Beats everyone, so wins every draw."""
    return out_degree(beats, i) == len(beats) - 1


def is_king(beats, i):
    """Every player is i, beaten by i, or beaten by someone i beats."""
    n = len(beats)
    return all(j == i or beats[i][j] or any(beats[i][k] and beats[k][j] for k in range(n))
               for j in range(n))


def is_superking(beats, i):
    """Every player who beats i loses to at least log2(n) players that i
    beats (Vassilevska Williams, "Fixing a tournament", AAAI 2010)."""
    n = len(beats)
    need = n.bit_length() - 1
    return all(sum(1 for k in range(n) if beats[i][k] and beats[k][j]) >= need
               for j in range(n) if beats[j][i])


def certified_winners(beats):
    """Players that a published sufficient condition proves can win some
    draw: a Condorcet winner, a king beating at least n/2 players, or a
    superking (Vassilevska Williams 2010)."""
    n = len(beats)
    return {i for i in range(n)
            if is_condorcet_winner(beats, i)
            or (is_king(beats, i) and 2 * out_degree(beats, i) >= n)
            or is_superking(beats, i)}
