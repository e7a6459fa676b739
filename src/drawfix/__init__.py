"""Balanced knockout tournaments: who can be made champion, and how likely.

The library models a field of players with pairwise win relations or
probabilities, finds and counts the bracket draws that crown a chosen
player, computes championship probabilities under a uniformly random
draw, and tests real fields against a one-parameter model of rank
upsets.
"""

import os

# The subset sweep multiplies blocks of a few thousand 16-wide rows by a
# 16 x 16 matrix.  OpenBLAS splits such a product over worker threads
# that gain nothing at this size, and while another process holds a CPU
# the spinning workers make a sweep two to three times slower.  One BLAS
# thread keeps every result bit for bit and the time steady.  The
# setting takes effect only if numpy is not loaded yet, as under the CLI,
# and an explicit OPENBLAS_NUM_THREADS wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .core import (
    MAX_EXACT_PLAYERS,
    MAX_MODEL_PLAYERS,
    DeterministicTournament,
    Draw,
    PlayerTable,
    ProbabilisticTournament,
    ResourceLimitError,
    canonicalize,
    draw_win_probabilities,
    num_draws,
    random_draw,
    simulate,
)
from .crmodel import (
    CrParams,
    average_upset_probability,
    generate_cr,
    sample_deterministic,
)
from .ingest import (
    HeadToHeadRecord,
    IncompleteDataError,
    MatchRecord,
    RankingTable,
    drop_player,
    read_h2h,
    read_matches,
    read_prob_matrix,
    read_ranks,
    soccer_to_tournaments,
    tennis_to_tournaments,
    write_h2h,
    write_matches,
    write_prob_matrix,
    write_ranks,
)
from .solver import (
    DrawStream,
    FindResult,
    SearchStats,
    WinCountReport,
    condorcet_winner,
    count_winning_draws,
    enumerate_winning_draws,
    enumeration_choice_points,
    find_winning_draw,
    kings,
)
from .stats import (
    EmpiricalSample,
    FitResult,
    KsResult,
    LrtResult,
    ScanResult,
    ScanStep,
    UndefinedTestError,
    ccdf_points,
    ecdf_points,
    fit_lognormal,
    fit_power_law,
    ks_two_sample,
    likelihood_ratio_test,
    scan_cr,
)
from .winprob import (
    WinProbVector,
    exact_uniform_win_probs,
    sample_uniform_win_probs,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "MAX_EXACT_PLAYERS",
    "MAX_MODEL_PLAYERS",
    "PlayerTable",
    "DeterministicTournament",
    "ProbabilisticTournament",
    "Draw",
    "ResourceLimitError",
    "num_draws",
    "canonicalize",
    "random_draw",
    "simulate",
    "draw_win_probabilities",
    "SearchStats",
    "WinCountReport",
    "FindResult",
    "DrawStream",
    "count_winning_draws",
    "enumeration_choice_points",
    "find_winning_draw",
    "enumerate_winning_draws",
    "kings",
    "condorcet_winner",
    "CrParams",
    "generate_cr",
    "sample_deterministic",
    "average_upset_probability",
    "WinProbVector",
    "exact_uniform_win_probs",
    "sample_uniform_win_probs",
    "EmpiricalSample",
    "KsResult",
    "FitResult",
    "LrtResult",
    "ScanStep",
    "ScanResult",
    "UndefinedTestError",
    "ecdf_points",
    "ccdf_points",
    "ks_two_sample",
    "fit_power_law",
    "fit_lognormal",
    "likelihood_ratio_test",
    "scan_cr",
    "MatchRecord",
    "HeadToHeadRecord",
    "RankingTable",
    "IncompleteDataError",
    "read_matches",
    "write_matches",
    "read_h2h",
    "write_h2h",
    "read_ranks",
    "write_ranks",
    "read_prob_matrix",
    "write_prob_matrix",
    "soccer_to_tournaments",
    "tennis_to_tournaments",
    "drop_player",
]
