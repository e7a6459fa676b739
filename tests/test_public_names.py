"""The package's public names and the objects they stand for.

Each layer module declares its public names in its own ``__all__`` and
the package re-exports them.  The benchmark's timing wrappers replace a
function wherever a loaded module binds that same object, so a package
name must be the very object its module defines.
"""
import drawfix
from drawfix import cli, core, crmodel, ingest, solver, stats, winprob

LAYERS = (core, crmodel, ingest, solver, stats, winprob)

# drawfix.__all__ before read_tournaments joined it, less the two
# functions that only tests called (draw_win_probabilities and
# sample_deterministic).
EARLIER_NAMES = [
    "CrParams", "DeterministicTournament", "Draw", "DrawStream",
    "EmpiricalSample", "FindResult", "FitResult", "HeadToHeadRecord",
    "IncompleteDataError", "KsResult", "LrtResult", "MAX_EXACT_PLAYERS",
    "MAX_MODEL_PLAYERS", "MatchRecord", "PlayerTable",
    "ProbabilisticTournament", "RankingTable", "ResourceLimitError",
    "ScanResult", "ScanStep", "SearchStats", "UndefinedTestError",
    "WinCountReport", "WinProbVector", "__version__",
    "average_upset_probability", "canonicalize", "ccdf_points",
    "condorcet_winner", "count_winning_draws", "drop_player", "ecdf_points", "enumerate_winning_draws",
    "enumeration_choice_points", "exact_uniform_win_probs",
    "find_winning_draw", "fit_lognormal", "fit_power_law", "generate_cr",
    "kings", "ks_two_sample", "likelihood_ratio_test", "num_draws",
    "random_draw", "read_h2h", "read_matches", "read_prob_matrix",
    "read_ranks", "sample_uniform_win_probs",
    "scan_cr", "simulate", "soccer_to_tournaments", "tennis_to_tournaments",
    "write_h2h", "write_matches", "write_prob_matrix", "write_ranks",
]


def test_public_names_are_pinned():
    assert sorted(drawfix.__all__) == sorted(EARLIER_NAMES + ["read_tournaments"])
    assert len(set(drawfix.__all__)) == len(drawfix.__all__)


def test_each_name_is_the_object_its_module_defines():
    for module in LAYERS:
        for name in module.__all__:
            obj = getattr(module, name)
            assert getattr(drawfix, name) is obj, name
            if callable(obj):
                assert obj.__module__ == module.__name__, name


def test_cli_binds_the_package_objects():
    for name in ("count_winning_draws", "find_winning_draw", "kings",
                 "exact_uniform_win_probs", "sample_uniform_win_probs", "scan_cr",
                 "fit_power_law", "read_tournaments"):
        assert getattr(cli, name) is getattr(drawfix, name), name
