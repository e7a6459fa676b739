"""The classes that check their input: construction, repr, equality,
immutability and every validation message.

These are PlayerTable, the two tournaments, Draw, SearchStats,
WinProbVector, CrParams and EmpiricalSample.  The tests pin what callers
rely on, whatever class machinery builds them: construction by position
and by keyword with defaults, the input conversions, the repr text,
equality and hashing by value (identity for the two tournaments, and no
hash for the mutable SearchStats), refusal to assign or delete a field of
the seven frozen classes, structural pattern matching, and the exact text
of each validation error.
"""
import numpy as np
import pytest

from drawfix import (
    CrParams,
    DeterministicTournament,
    Draw,
    EmpiricalSample,
    PlayerTable,
    ProbabilisticTournament,
    SearchStats,
    WinProbVector,
)

BEATS = np.array([[False, True], [False, False]])
PROBS = np.array([[0.5, 0.75], [0.25, 0.5]])


def players():
    return PlayerTable(("a", "b"))


# One builder per class compared by value; each call builds a new, equal
# object.
BY_VALUE = {
    "PlayerTable": (players, "PlayerTable(names=('a', 'b'))"),
    "Draw": (lambda: Draw((0, 3, 1, 2)), "Draw(leaves=(0, 3, 1, 2))"),
    "WinProbVector": (
        lambda: WinProbVector((0.25, 0.75), "sampled", 8),
        "WinProbVector(entries=(0.25, 0.75), method='sampled', samples=8)",
    ),
    "CrParams": (lambda: CrParams(4, 0.25), "CrParams(n=4, upset_prob=0.25)"),
    "EmpiricalSample": (
        lambda: EmpiricalSample((0.5, 2.0)), "EmpiricalSample(values=(0.5, 2.0))",
    ),
    "SearchStats": (
        lambda: SearchStats(2, 1), "SearchStats(choice_points=2, solutions_found=1)",
    ),
}
HASHABLE = [name for name in BY_VALUE if name != "SearchStats"]


def tournaments():
    return (DeterministicTournament(players(), BEATS),
            ProbabilisticTournament(players(), PROBS))


# Every frozen object with its first field's name.
def frozen():
    det, prob = tournaments()
    return [(BY_VALUE[name][0](), BY_VALUE[name][1].partition("(")[2].partition("=")[0])
            for name in HASHABLE] + [(det, "players"), (prob, "players")]


class TestConstruction:
    def test_keyword_equals_positional(self):
        assert PlayerTable(names=("a", "b")) == PlayerTable(("a", "b"))
        assert Draw(leaves=(0, 1)) == Draw((0, 1))
        assert WinProbVector(entries=(1.0,), method="exact") == WinProbVector((1.0,), "exact")
        assert (WinProbVector(entries=(1.0,), method="sampled", samples=3)
                == WinProbVector((1.0,), "sampled", 3))
        assert CrParams(n=2, upset_prob=0.5) == CrParams(2, 0.5)
        assert EmpiricalSample(values=(1.0,)) == EmpiricalSample((1.0,))
        assert SearchStats(choice_points=4, solutions_found=2) == SearchStats(4, 2)

    def test_tournaments_by_keyword_and_position(self):
        for cls, matrix, name in ((DeterministicTournament, BEATS, "beats"),
                                  (ProbabilisticTournament, PROBS, "probs")):
            by_kw = cls(players=players(), **{name: matrix})
            by_pos = cls(players(), matrix)
            for t in (by_kw, by_pos):
                assert t.players == players()
                assert np.array_equal(getattr(t, name), matrix)
                assert t.n == 2

    def test_defaults(self):
        assert WinProbVector((1.0,), "exact").samples is None
        stats = SearchStats()
        assert (stats.choice_points, stats.solutions_found) == (0, 0)
        assert SearchStats(choice_points=5) == SearchStats(5, 0)

    def test_inputs_are_converted(self):
        table = PlayerTable(["a", "b"])
        assert table.names == ("a", "b") and type(table.names) is tuple
        draw = Draw([0, 1])
        assert draw.leaves == (0, 1) and type(draw.leaves) is tuple
        sample = EmpiricalSample([1, 2])
        assert sample.values == (1.0, 2.0)
        assert all(type(v) is float for v in sample.values)

    def test_tournament_matrices_are_read_only_copies(self):
        beats = [[0, 1], [0, 0]]
        det = DeterministicTournament(players(), beats)
        assert det.beats.dtype == bool and not det.beats.flags.writeable
        probs = PROBS.copy()
        probs[0, 0] = 0.0
        prob = ProbabilisticTournament(players(), probs)
        assert prob.probs.dtype == float and not prob.probs.flags.writeable
        assert prob.probs[0, 0] == 0.5 and probs[0, 0] == 0.0

    def test_methods_and_properties(self):
        det, prob = tournaments()
        assert players().n == 2 and players().by_rank() == (0, 1)
        assert players().id_of("b") == 1
        assert PlayerTable.default(3) == PlayerTable(("p0", "p1", "p2"))
        assert np.array_equal(det.to_probabilistic().probs, PROBS.round(0) + np.eye(2) / 2)
        assert np.array_equal(prob.to_deterministic().beats, BEATS)
        assert Draw((0, 3, 1, 2)).n == 4
        assert Draw((0, 3, 1, 2)).bracket_text("abcd") == "((a,d),(b,c))"
        assert WinProbVector((0.25, 0.75), "exact").n == 2
        assert EmpiricalSample.from_values([2, 1]) == EmpiricalSample((1.0, 2.0))
        assert EmpiricalSample.from_win_probs(
            WinProbVector((0.75, 0.25), "exact")).values == (0.25, 0.75)
        assert EmpiricalSample((1.0, 2.0)).size == 2


@pytest.mark.parametrize("name", BY_VALUE)
def test_repr_text(name):
    build, text = BY_VALUE[name]
    assert repr(build()) == text


def test_tournament_repr_text():
    det, prob = tournaments()
    assert repr(det) == (f"DeterministicTournament(players=PlayerTable(names=('a', 'b')), "
                         f"beats={det.beats!r})")
    assert repr(prob) == (f"ProbabilisticTournament(players=PlayerTable(names=('a', 'b')), "
                          f"probs={prob.probs!r})")


@pytest.mark.parametrize("name", BY_VALUE)
def test_equal_by_value(name):
    build, _ = BY_VALUE[name]
    a, b = build(), build()
    assert a is not b
    assert a == b and not a != b


def test_unequal_values_and_other_types():
    assert PlayerTable(("a",)) != PlayerTable(("b",))
    assert Draw((0, 1)) != Draw((0, 2, 1, 3))
    assert CrParams(4, 0.25) != CrParams(4, 0.5)
    assert SearchStats(1, 0) != SearchStats(0, 1)
    assert WinProbVector((1.0,), "exact") != WinProbVector((1.0,), "sampled", 1)
    # a class never equals a tuple of its field values
    assert PlayerTable(("a",)) != (("a",),)
    assert Draw((0, 1)) != ((0, 1),)
    assert SearchStats(0, 0) != (0, 0)


@pytest.mark.parametrize("name", HASHABLE)
def test_equal_objects_hash_alike(name):
    build, _ = BY_VALUE[name]
    assert hash(build()) == hash(build())
    assert len({build(), build()}) == 1


def test_search_stats_is_mutable_and_unhashable():
    stats = SearchStats()
    stats.choice_points += 3
    stats.solutions_found = 1
    assert stats == SearchStats(3, 1)
    assert vars(stats) == {"choice_points": 3, "solutions_found": 1}
    with pytest.raises(TypeError):
        hash(stats)


def test_tournaments_compare_by_identity():
    for a, b in zip(tournaments(), tournaments()):
        assert a == a and a != b
        assert hash(a) == hash(a)
        assert len({a, b}) == 2


@pytest.mark.parametrize("index", range(7))
def test_frozen_fields_cannot_be_assigned_or_deleted(index):
    obj, first = frozen()[index]
    before = repr(obj)
    with pytest.raises(AttributeError):
        setattr(obj, first, None)
    with pytest.raises(AttributeError):
        setattr(obj, "extra", None)
    with pytest.raises(AttributeError):
        delattr(obj, first)
    assert repr(obj) == before


def test_pattern_matching_by_position():
    match Draw((0, 1)):
        case Draw(leaves):
            assert leaves == (0, 1)
    match WinProbVector((1.0,), "sampled", 4):
        case WinProbVector(entries, method, samples):
            assert (entries, method, samples) == ((1.0,), "sampled", 4)
    match SearchStats(2, 1):
        case SearchStats(points, found):
            assert (points, found) == (2, 1)
    match CrParams(4, 0.25):
        case CrParams(n, u):
            assert (n, u) == (4, 0.25)


def _message(build) -> str:
    with pytest.raises(ValueError) as info:
        build()
    return str(info.value)


@pytest.mark.parametrize("build, message", [
    (lambda: PlayerTable(()), "player table must not be empty"),
    (lambda: PlayerTable(("a", "a")), "player names must be unique"),
    (lambda: DeterministicTournament(players(), np.zeros((3, 3), bool)), "beats must be 2x2"),
    (lambda: DeterministicTournament(players(), np.eye(2, dtype=bool)),
     "a player cannot beat itself"),
    (lambda: DeterministicTournament(players(), np.zeros((2, 2), bool)),
     "every pair needs exactly one winner"),
    (lambda: DeterministicTournament(players(), ~np.eye(2, dtype=bool)),
     "every pair needs exactly one winner"),
    (lambda: ProbabilisticTournament(players(), np.full((1, 1), 0.5)), "probs must be 2x2"),
    (lambda: ProbabilisticTournament(players(), [[0.5, np.nan], [np.nan, 0.5]]),
     "probabilities must lie in [0, 1]"),
    (lambda: ProbabilisticTournament(players(), [[0.5, 1.5], [-0.5, 0.5]]),
     "probabilities must lie in [0, 1]"),
    (lambda: ProbabilisticTournament(players(), [[0.5, 0.75], [0.75, 0.5]]),
     "probs[i, j] + probs[j, i] must equal 1"),
    (lambda: Draw(()), "bracket size must be a power of two, got 0 players"),
    (lambda: Draw((0, 1, 2)), "bracket size must be a power of two, got 3 players"),
    (lambda: Draw((0, 0)), "leaves must be a permutation of 0..n-1"),
    (lambda: Draw((1, 0)), "leaf order is not canonical; build with canonicalize()"),
    (lambda: WinProbVector((1.0,), "guess"), "unknown method tag: guess"),
    (lambda: WinProbVector((1.0,), "exact", 4),
     "sample count goes with the sampled method only"),
    (lambda: WinProbVector((1.0,), "sampled"),
     "sample count goes with the sampled method only"),
    (lambda: WinProbVector((1.5, -0.5), "exact"), "entries must be probabilities"),
    (lambda: WinProbVector((0.25, 0.25), "exact"), "entries must sum to 1"),
    (lambda: WinProbVector((0.5, 0.5 - 2e-6), "sampled", 2), "entries must sum to 1"),
    (lambda: CrParams(3, 0.25), "bracket size must be a power of two, got 3 players"),
    (lambda: CrParams(128, 0.25),
     "the upset model and the sampler are limited to 64 players, got 128"),
    (lambda: CrParams(4, 0.0), "upset_prob must lie in (0.0, 0.5], got 0.0"),
    (lambda: CrParams(4, 0.75), "upset_prob must lie in (0.0, 0.5], got 0.75"),
    (lambda: EmpiricalSample(()), "sample must not be empty"),
    (lambda: EmpiricalSample((0.0,)), "sample values must be positive and finite"),
    (lambda: EmpiricalSample((1.0, np.inf)), "sample values must be positive and finite"),
    (lambda: EmpiricalSample((2.0, 1.0)), "values must be sorted ascending; use from_values()"),
])
def test_validation_message(build, message):
    assert _message(build) == message


def test_tolerances_at_their_edges():
    # exact vectors sum to 1 within 1e-9, sampled ones within 1e-6
    assert WinProbVector((0.5, 0.5 - 5e-10), "exact").n == 2
    assert WinProbVector((0.5, 0.5 - 5e-7), "sampled", 2).n == 2
    with pytest.raises(ValueError, match="sum to 1"):
        WinProbVector((0.5, 0.5 - 5e-7), "exact")
    # 0/1 probabilities and the fair coin are allowed
    assert ProbabilisticTournament(players(), [[0.5, 1.0], [0.0, 0.5]]).n == 2
    assert CrParams(1, 0.5).n == 1
