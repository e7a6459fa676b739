"""The plain result records: construction, repr, equality and immutability.

These records only carry results.  The tests pin what callers rely on,
whatever class machinery builds the records: keyword construction with
defaults, the repr text, equality between equal records, hashing where
every field is hashable, refusal to assign a field, and the CSV headers
of the two record files following the field order.
"""
import numpy as np
import pytest

from drawfix import (
    FindResult,
    FitResult,
    HeadToHeadRecord,
    KsResult,
    LrtResult,
    MatchRecord,
    ScanResult,
    ScanStep,
    SearchStats,
    WinCountReport,
)
from drawfix._subsetdp import Level, Plan
from drawfix.ingest import H2H_HEADER, MATCHES_HEADER


def level():
    return Level(masks=np.array([3]), k=1, a_rows=np.array([0]), b_rows=np.array([1]))


def ks():
    return KsResult(statistic=0.5, p_value=0.25, method="permutation")


def step():
    return ScanStep(upset_prob=0.25, ks=ks(), accepted=True)


# One builder per record with every hashable field; each call builds a
# new, equal record.
RECORDS = {
    "MatchRecord": (
        lambda: MatchRecord(season="2015", home="Ash", away="Elm", home_goals=2,
                            away_goals=1),
        "MatchRecord(season='2015', home='Ash', away='Elm', home_goals=2, away_goals=1)",
    ),
    "HeadToHeadRecord": (
        lambda: HeadToHeadRecord(player_a="Ash", player_b="Elm", a_wins=3, b_wins=0),
        "HeadToHeadRecord(player_a='Ash', player_b='Elm', a_wins=3, b_wins=0)",
    ),
    "KsResult": (
        ks,
        "KsResult(statistic=0.5, p_value=0.25, method='permutation', resamples=None)",
    ),
    "FitResult": (
        lambda: FitResult(family="power-law", log_likelihood=-1.5, sample_size=4,
                          support_min=0.125, alpha=2.5, xmin=0.125),
        "FitResult(family='power-law', log_likelihood=-1.5, sample_size=4, "
        "support_min=0.125, alpha=2.5, xmin=0.125, mu=None, sigma=None)",
    ),
    "LrtResult": (
        lambda: LrtResult(r=-0.5, p_value=0.75, first="lognormal", second="power-law"),
        "LrtResult(r=-0.5, p_value=0.75, first='lognormal', second='power-law')",
    ),
    "ScanStep": (
        step,
        "ScanStep(upset_prob=0.25, ks=KsResult(statistic=0.5, p_value=0.25, "
        "method='permutation', resamples=None), accepted=True)",
    ),
    "ScanResult": (
        lambda: ScanResult(steps=(step(),), threshold=0.05),
        "ScanResult(steps=(ScanStep(upset_prob=0.25, ks=KsResult(statistic=0.5, "
        "p_value=0.25, method='permutation', resamples=None), accepted=True),), "
        "threshold=0.05)",
    ),
}

# Records that hold a SearchStats, which is mutable and so unhashable.
UNHASHABLE = {
    "WinCountReport": (
        lambda: WinCountReport(counts=(1, 0), shares=(1.0, 0.0), total_draws=1,
                               stats=SearchStats(choice_points=2, solutions_found=1)),
        "WinCountReport(counts=(1, 0), shares=(1.0, 0.0), total_draws=1, "
        "stats=SearchStats(choice_points=2, solutions_found=1))",
    ),
    "FindResult": (
        lambda: FindResult(draw=None, stats=SearchStats(choice_points=3)),
        "FindResult(draw=None, stats=SearchStats(choice_points=3, solutions_found=0))",
    ),
}

BY_VALUE = {**RECORDS, **UNHASHABLE}


@pytest.mark.parametrize("name", BY_VALUE)
def test_repr_text(name):
    build, text = BY_VALUE[name]
    assert repr(build()) == text


@pytest.mark.parametrize("name", BY_VALUE)
def test_equal_records_compare_equal(name):
    build, _ = BY_VALUE[name]
    a, b = build(), build()
    assert a is not b
    assert a == b
    assert not a != b


@pytest.mark.parametrize("name", RECORDS)
def test_equal_records_hash_alike(name):
    build, _ = RECORDS[name]
    assert hash(build()) == hash(build())
    assert len({build(), build()}) == 1


@pytest.mark.parametrize("name", BY_VALUE)
def test_fields_cannot_be_assigned(name):
    build, text = BY_VALUE[name]
    record = build()
    first = text.partition("(")[2].partition("=")[0]
    with pytest.raises(AttributeError):
        setattr(record, first, None)


def test_defaults_fill_the_fields_left_out():
    assert ks().resamples is None
    fit = RECORDS["FitResult"][0]()
    assert (fit.mu, fit.sigma) == (None, None)


def test_positional_construction_follows_field_order():
    assert KsResult(0.5, 0.25, "permutation") == ks()
    assert LrtResult(-0.5, 0.75, "lognormal", "power-law") == RECORDS["LrtResult"][0]()
    assert ScanStep(0.25, ks(), True) == step()


def test_methods_and_properties_survive():
    assert RECORDS["LrtResult"][0]().favored == "power-law"
    scan = ScanResult(steps=(ScanStep(0.1, ks(), False), step(),
                             ScanStep(0.4, ks(), True)), threshold=0.05)
    assert (scan.min_accepted, scan.max_accepted) == (0.25, 0.4)
    fit = RECORDS["FitResult"][0]()
    assert fit.survival([0.25]) == pytest.approx([0.5 ** 1.5])
    assert fit.logpdf([0.125]) == pytest.approx([np.log(1.5 / 0.125)])
    assert KsResult.__doc__.startswith("Two-sample KS outcome.")


def test_level_and_plan_hold_their_arrays():
    lv = level()
    assert repr(lv) == "Level(masks=array([3]), k=1, a_rows=array([0]), b_rows=array([1]))"
    assert lv.k == 1
    assert [lv.masks.tolist(), lv.a_rows.tolist(), lv.b_rows.tolist()] == [[3], [0], [1]]
    plan = Plan(levels=(lv,))
    assert repr(plan) == f"Plan(levels=({lv!r},))"
    assert plan.levels[0] is lv
    for record, first in ((lv, "masks"), (plan, "levels")):
        with pytest.raises(AttributeError):
            setattr(record, first, 4)


def test_record_files_have_their_fields_as_header():
    assert MATCHES_HEADER == ["season", "home", "away", "home_goals", "away_goals"]
    assert H2H_HEADER == ["player_a", "player_b", "a_wins", "b_wins"]
    # A record built from its header by position has each name in its field.
    for cls, header in ((MatchRecord, MATCHES_HEADER), (HeadToHeadRecord, H2H_HEADER)):
        record = cls(*header)
        assert [getattr(record, name) for name in header] == header
