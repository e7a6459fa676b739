"""Property tests over random relations and probability matrices.

Find and enumerate share one descent, and a single bracket is scored
as a one-row batch of the survival loop; these properties pin the
shared paths to each other, to the independent counting route and to the
oracle's tree walk.  The subset sweep is pinned to the per-block formula
its half products replaced.  The choice-point recurrence is pinned to the
exhausted descent it accounts for, the KS permutation p-value, one
lattice-path count, to full enumeration of the splits (one sample
against many rows at once as well as against one), and the upset
model's rank recurrence to full enumeration of the draws and, in float,
to its own exact rational run within the error bound the scan relies on.
The command line's counts, choice points, draws, kings and exact win
probabilities are pinned to the oracle on JSON matrices with awkward names
and shuffled rows, probability matrices and 0/1 relations alike, on the
same fields as CSV matrices and, where results stand behind a field, as
match lists and head-to-head lists, and its CSV rows to its JSON rows.
Its scan of the upset model is pinned, on the matrices, to the oracle's
KS test against the model's exact win probabilities.
"""
import csv
import json
import tempfile
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import Phase, given, settings, strategies as st

from drawfix import (
    CrParams,
    DeterministicTournament,
    EmpiricalSample,
    HeadToHeadRecord,
    MatchRecord,
    PlayerTable,
    ProbabilisticTournament,
    canonicalize,
    count_winning_draws,
    enumerate_winning_draws,
    enumeration_choice_points,
    find_winning_draw,
    generate_cr,
    ks_two_sample,
    simulate,
    write_h2h,
    write_matches,
    write_prob_matrix,
    write_ranks,
)
from drawfix._subsetdp import sweep
from drawfix.cli import main
from drawfix.core import bracket_survival
from drawfix.stats import (
    _RANK_PROB_TOL,
    MIN_SCAN_STEP,
    _cr_rank_probs,
    _kolmogorov_sf,
    _ks_rows,
)

import oracle
from conftest import (
    check_fixing_conditions,
    random_deterministic,
    reference_sweep,
    write_rows,
)

SIZES = st.sampled_from([1, 2, 4, 8])
# Scoring one bracket is cheap in the oracle, so the solver's properties
# reach the exact-method limit, and the evaluator's go one size past it:
# n = 4 is scored by the pair table alone, and n = 32 is a second table
# size with three dense rounds after it.
BRACKET_SIZES = st.sampled_from([1, 2, 4, 8, 16])
SURVIVAL_SIZES = st.sampled_from([1, 2, 4, 8, 16, 32])
SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)
# A bracket property reports a failing field as drawn: shrinking a
# 32-player field draws its 496 floats again for every candidate, about
# 0.1 s each in Hypothesis itself, so a failure took minutes to report.
SURVIVAL_SETTINGS = settings(SETTINGS, phases=[p for p in Phase if p is not Phase.shrink])


@st.composite
def relations(draw):
    n = draw(SIZES)
    pairs = n * (n - 1) // 2
    upper = np.array(draw(st.lists(st.booleans(), min_size=pairs, max_size=pairs)),
                     dtype=bool)
    beats = np.zeros((n, n), dtype=bool)
    iu = np.triu_indices(n, k=1)
    beats[iu] = upper
    beats.T[iu] = ~upper
    return DeterministicTournament(players=PlayerTable.default(n), beats=beats)


@st.composite
def matrices_and_orders(draw):
    n = draw(SURVIVAL_SIZES)
    pairs = n * (n - 1) // 2
    upper = draw(st.lists(st.floats(0.0, 1.0), min_size=pairs, max_size=pairs))
    probs = np.full((n, n), 0.5)
    iu = np.triu_indices(n, k=1)
    probs[iu] = upper
    probs.T[iu] = 1.0 - np.array(upper)
    t = ProbabilisticTournament(players=PlayerTable.default(n), probs=probs)
    orders = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=6))
    return t, orders


@SETTINGS
@given(relations())
def test_find_is_first_enumerated_draw(t):
    for target in range(t.n):
        found = find_winning_draw(t, target)
        stream = enumerate_winning_draws(t, target, limit=1)
        draws = list(stream)
        assert draws == ([] if found.draw is None else [found.draw])
        assert found.stats == stream.stats


@SETTINGS
@given(relations())
def test_find_succeeds_iff_count_positive(t):
    counts = count_winning_draws(t).counts
    for target in range(t.n):
        assert (find_winning_draw(t, target).draw is not None) == (counts[target] > 0)


@SETTINGS
@given(relations())
def test_enumeration_matches_count(t):
    counts = count_winning_draws(t).counts
    for target in range(t.n):
        draws = list(enumerate_winning_draws(t, target))
        assert len(draws) == len(set(draws)) == counts[target]
        for d in draws:
            assert canonicalize(d.leaves) == d
            assert simulate(d, t) == target


@SETTINGS
@given(relations())
def test_choice_point_recurrence_matches_walk(t):
    points = enumeration_choice_points(t)
    for target in range(t.n):
        stream = enumerate_winning_draws(t, target)
        list(stream)
        assert points[target] == stream.stats.choice_points


@st.composite
def weight_matrices(draw):
    n = draw(st.sampled_from([2, 4, 8]))
    cells = draw(st.lists(st.floats(0.0, 1.0), min_size=n * n, max_size=n * n))
    return np.array(cells).reshape(n, n)


@SETTINGS
@given(weight_matrices())
def test_sweep_equals_per_block_reference(weights):
    n = len(weights)
    assert sweep(n, weights).tobytes() == reference_sweep(n, weights).tobytes()


@SURVIVAL_SETTINGS
@given(matrices_and_orders())
def test_single_draw_is_a_batch_row(case):
    t, orders = case
    draws = [canonicalize(order) for order in orders]
    leaves = np.array([d.leaves for d in draws], dtype=np.intp)
    batch = bracket_survival(t.probs, leaves)
    for d, surv in zip(draws, batch):
        assert np.array_equal(bracket_survival(t.probs, np.array([d.leaves]))[0], surv)


@SURVIVAL_SETTINGS
@given(matrices_and_orders())
def test_bracket_survival_matches_oracle(case):
    t, orders = case
    batch = bracket_survival(t.probs, np.array(orders, dtype=np.intp))
    for order, surv in zip(orders, batch):
        want = oracle.tree_win_probs(oracle.leaves_tree(order), t.probs)
        assert np.abs(surv - [want[i] for i in range(t.n)]).max() <= 1e-12
        assert abs(surv.sum() - 1.0) <= 1e-12


# Values from a set of four, so most samples hold ties within and across.
TIED_SAMPLES = st.lists(st.integers(1, 4).map(float), min_size=1, max_size=6)


@SETTINGS
@given(TIED_SAMPLES, TIED_SAMPLES)
def test_ks_permutation_p_matches_enumeration(a, b):
    res = ks_two_sample(EmpiricalSample.from_values(a), EmpiricalSample.from_values(b))
    assert res.p_value == oracle.ks_permutation_p(a, b)


@st.composite
def ks_row_sets(draw):
    """A sample and 2-4 rows of one other size, tied within and across.

    The pooled size is either small enough to enumerate every split or
    past the permutation limit of 32.
    """
    na = draw(st.integers(1, 6))
    if draw(st.booleans()):
        nb = draw(st.integers(1, 6).filter(lambda k: k != na))
    else:
        nb = draw(st.integers(33 - na, 40))
    value = st.integers(1, 4).map(float)
    a = sorted(draw(st.lists(value, min_size=na, max_size=na)))
    rows = draw(st.lists(st.lists(value, min_size=nb, max_size=nb).map(sorted),
                         min_size=2, max_size=4))
    return a, rows


@SETTINGS
@given(ks_row_sets())
def test_ks_rows_score_each_row_against_enumeration(case):
    a, rows = case
    got = _ks_rows(np.array(a), np.array(rows))
    sample = EmpiricalSample.from_values(a)
    assert got == [ks_two_sample(sample, EmpiricalSample.from_values(b)) for b in rows]
    na, nb = len(a), len(rows[0])
    m = na + nb
    for b, res in zip(rows, got):
        d = oracle.ks_statistic(a, b)
        assert res.statistic == pytest.approx(d, abs=1e-12)
        if m <= 32:
            assert res.method == "permutation"
            assert res.p_value == oracle.ks_permutation_p(a, b)
        else:
            assert res.method == "asymptotic"
            assert res.p_value == pytest.approx(_kolmogorov_sf((na * nb / m) ** 0.5 * d),
                                                abs=1e-12)


@SETTINGS
@given(SIZES, st.floats(0.0, 0.5, exclude_min=True))
def test_cr_rank_recurrence_matches_oracle(n, u):
    got = _cr_rank_probs(n, np.array([u]))[0]
    want = oracle.uniform_win_probs(n, generate_cr(CrParams(n, u)).probs)
    assert np.abs(got - want).max() <= 1e-12


@SETTINGS
@given(st.sampled_from([2, 4, 8, 16]), st.floats(MIN_SCAN_STEP, 0.5))
def test_cr_rank_recurrence_error_within_stated_bound(n, u):
    # The bound holds while nothing underflows, as on the scan's grid.
    got = _cr_rank_probs(n, np.array([u]))[0]
    exact = _cr_rank_probs(n, np.array([Fraction(u)], dtype=object))[0]
    for value, want in zip(got, exact):
        assert abs(Fraction(float(value)) - want) <= _RANK_PROB_TOL * want


@SETTINGS
@given(BRACKET_SIZES, st.sampled_from([0.5, 0.7, 0.85, 1.0]), st.integers(0, 2**32 - 1))
def test_solver_meets_published_fixing_conditions(n, p, seed):
    rng = np.random.default_rng(seed)
    check_fixing_conditions(random_deterministic(n, rng, p, shuffle=True))


# Names with quotes, commas, blanks and non-ASCII letters, and matrix
# entries with exact halves, which go to the better rank.
NAMES = st.text(st.sampled_from("a\"',; é名") | st.characters(), min_size=1, max_size=5)
ENTRIES = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)


# Results of one pair: wins, or aggregate goals, of each side.
RESULTS = st.tuples(st.integers(0, 7), st.integers(0, 7))


@st.composite
def named_fields(draw):
    """Names and a matrix in rank order, the row order of its JSON file,
    and the results behind the matrix, or None.

    A third of the matrices are 0/1 relations with int entries, cycles
    included, and each beaten side has no result; a third are shares of
    the results of each pair, and a third probability matrices with no
    results behind them.  ``wins[i][j]`` is i's result against j.
    """
    n = draw(SIZES)
    names = draw(st.lists(NAMES, min_size=n, max_size=n, unique=True))
    kind = draw(st.sampled_from(["relation", "results", "entries"]))
    probs = [[0 if kind == "relation" else 0.5] * n for _ in range(n)]
    wins = None if kind == "entries" else [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if kind == "relation":
                probs[i][j] = draw(st.sampled_from([0, 1]))
                wins[i][j], wins[j][i] = probs[i][j], 1 - probs[i][j]
            elif kind == "results":
                wins[i][j], wins[j][i] = draw(RESULTS)
                total = wins[i][j] + wins[j][i]
                probs[i][j] = wins[i][j] / total if total else 0.5
            else:
                probs[i][j] = draw(ENTRIES)
            probs[j][i] = 1 - probs[i][j]
    return names, probs, draw(st.permutations(range(n))), wins


def write_result_lists(tmp, names, wins, order):
    """The field as a match list and as a head-to-head list, each with the
    ranks file; pairs are listed in ``order``, and each pair's first-listed
    player is ``player_a``, of either rank.

    A side's goals are split evenly over its home and away legs, so both
    sides score the same away goals when their aggregates tie, and the
    tie goes to the better rank, as the matrix gives it.
    """
    ranks = Path(tmp) / "ranks.csv"
    write_ranks(ranks, PlayerTable(tuple(names)))
    pairs = [(a, b) for x, a in enumerate(order) for b in order[x + 1:]]
    matches = []
    for a, b in pairs:
        a_away, b_away = wins[a][b] // 2, wins[b][a] // 2
        matches.append(MatchRecord("2015", names[a], names[b], wins[a][b] - a_away, b_away))
        matches.append(MatchRecord("2015", names[b], names[a], wins[b][a] - b_away, a_away))
    write_matches(Path(tmp) / "matches.csv", matches)
    write_h2h(Path(tmp) / "h2h.csv", [
        HeadToHeadRecord(names[a], names[b], wins[a][b], wins[b][a]) for a, b in pairs])
    return [[str(Path(tmp) / name), "--ranks", str(ranks)]
            for name in ("matches.csv", "h2h.csv")]


def _cli_data(source, out, *argv):
    """Exit code and JSON ``data`` block of one command on ``source``, the
    input path and the options that go with it."""
    code = main([argv[0], "--input", *source, *argv[1:], "--format", "json",
                 "--output", str(out)])
    return code, json.loads(out.read_text(encoding="utf-8"))["data"]


def _cli_csv(source, out, *argv):
    """Exit code, header and rows of one command's CSV output on ``source``;
    the header is bare, and an unquoted cell reads as a float."""
    code = main([argv[0], "--input", *source, *argv[1:], "--format", "csv",
                 "--output", str(out)])
    with open(out, newline="", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        return code, header, list(csv.reader(fh, quoting=csv.QUOTE_NONNUMERIC))


@lru_cache(maxsize=None)
def _upset_model_sample(n, u):
    """The upset model's exact uniform-draw win probabilities at u, each
    correctly rounded, in ascending order."""
    u = Fraction(u)
    probs = [[Fraction(1, 2) if i == j else 1 - u if i < j else u for j in range(n)]
             for i in range(n)]
    return sorted(float(p) for p in oracle.uniform_win_probs(n, probs))


def _oracle_ks(a, b):
    """The oracle's KS statistic and permutation p-value of a against b.

    Both depend only on how the pooled values order and tie, so the
    p-value is taken on the values' ranks: pools of distinct values then
    share the oracle's statistics of every split."""
    rank = {v: r for r, v in enumerate(sorted(set(a) | set(b)))}
    return oracle.ks_statistic(a, b), oracle.ks_permutation_p([rank[v] for v in a],
                                                              [rank[v] for v in b])


def _csv_cells(row):
    """A JSON row as ``--format csv`` writes it: None as an empty field,
    a bool as 0 or 1."""
    return ["" if v is None else int(v) if isinstance(v, bool) else v for v in row]


@settings(SETTINGS, max_examples=80)
@given(named_fields())
def test_cli_reports_match_oracle(field):
    names, probs, order, wins = field
    n = len(names)
    beats = [[probs[i][j] > 0.5 or (probs[i][j] == 0.5 and i < j) for j in range(n)]
             for i in range(n)]
    counts = oracle.count_by_winner(n, beats)
    nodes_first, nodes_all = oracle.descent_choice_points(beats)
    ranked = [(i + 1, name) for i, name in enumerate(names)]
    with tempfile.TemporaryDirectory() as tmp:
        json_path, csv_path = Path(tmp) / "field.json", Path(tmp) / "field.csv"
        out = Path(tmp) / "out"
        write_rows(json_path, names, probs, order)
        try:
            write_prob_matrix(csv_path, ProbabilisticTournament(PlayerTable(tuple(names)),
                                                                np.array(probs)), fmt="csv")
        except UnicodeEncodeError:
            # Half a surrogate pair has no UTF-8 form, so the JSON reader
            # refuses it before any report.
            assert main(["count", "--input", str(json_path)]) == 2
            return
        sources = [[str(json_path)], [str(csv_path)]]
        if wins is not None:
            sources += write_result_lists(tmp, names, wins, order)
        for path in sources:
            # The CSV reports are held to the JSON ones on the matrix
            # inputs only, which need no ranks file; that keeps the
            # property's run time down.
            csv_out = len(path) == 1
            code, count = _cli_data(path, out, "count", "--stats", "all")
            assert code == 0
            assert count["total_draws"] == len(oracle.all_draws(range(n)))
            assert [(r["rank"], r["name"]) for r in count["players"]] == ranked
            assert [r["count"] for r in count["players"]] == counts
            assert [r["nodes_first"] for r in count["players"]] == nodes_first
            assert [r["nodes_all"] for r in count["players"]] == nodes_all
            columns = ["rank", "name", "count", "share", "nodes_first", "nodes_all"]
            assert not csv_out or _cli_csv(path, out, "count", "--stats", "all") == (
                0, columns, [_csv_cells(r[c] for c in columns) for r in count["players"]])

            for target, name in enumerate(names):
                code, fix = _cli_data(path, out, "fix", f"--target={name}")
                assert fix["target"] == name
                assert fix["found"] == (counts[target] > 0)
                assert code == (0 if fix["found"] else 3)
                assert fix["choice_points"] == nodes_first[target]
                if fix["found"]:
                    tree = oracle.leaves_tree(fix["draw"])
                    assert oracle.tree_winner(tree, beats) == target
                # The only CSV row with a None cell: no bracket without a draw.
                columns = ["target", "found", "bracket", "choice_points"]
                assert not csv_out or _cli_csv(path, out, "fix", f"--target={name}") == (
                    code, columns, [_csv_cells(fix[c] for c in columns)])

            code, kings = _cli_data(path, out, "kings")
            assert code == 0
            assert kings["kings"] == [
                name for i, name in enumerate(names) if oracle.is_king(beats, i)]
            assert not csv_out or _cli_csv(path, out, "kings") == (
                0, ["name", "is_condorcet_winner"],
                [_csv_cells([k, k == kings["condorcet_winner"]]) for k in kings["kings"]])

            code, winprob = _cli_data(path, out, "winprob", "--mode", "exact")
            assert code == 0
            assert [(r["rank"], r["name"]) for r in winprob["players"]] == ranked
            expected = oracle.uniform_win_probs(n, probs)
            for row, want in zip(winprob["players"], expected):
                assert abs(row["win_prob"] - want) <= 1e-12
            columns = ["rank", "name", "win_prob"]
            assert not csv_out or _cli_csv(path, out, "winprob", "--mode", "exact") == (
                0, columns, [_csv_cells(r[c] for c in columns) for r in winprob["players"]])

            # The scan runs on the matrix inputs only, like the CSV reports;
            # its reference sample is the exact vector just checked.
            if not csv_out:
                continue
            reference = sorted(r["win_prob"] for r in winprob["players"])
            scan = ["scan", "--step", "0.1"]
            if n == 1 or reference[0] <= 0.0:
                # One player has no upset rate, and a sample must be positive.
                assert main([scan[0], "--input", *path, *scan[1:]]) == 2
                continue
            code, data = _cli_data(path, out, *scan)
            assert code == 0
            want = []
            for u in (0.1, 0.2, 0.3, 0.4, 0.5):
                d, p = _oracle_ks(reference, _upset_model_sample(n, u))
                want.append({"upset_prob": u, "statistic": d, "p_value": p,
                             "method": "permutation", "accepted": p >= 0.05})
            assert data["steps"] == want
            accepted = [s["upset_prob"] for s in want if s["accepted"]]
            assert (data["min_accepted"], data["max_accepted"]) == (
                min(accepted, default=None), max(accepted, default=None))
            columns = ["upset_prob", "statistic", "p_value", "accepted"]
            assert _cli_csv(path, out, *scan) == (
                0, columns, [_csv_cells(s[c] for c in columns) for s in want])
