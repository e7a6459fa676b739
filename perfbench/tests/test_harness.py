"""Self-tests of the benchmark harness.

Run from the root of the repository:

    python3 -m pytest -q perfbench/tests
"""
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import common  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from tracing import Recorder, Span, self_times  # noqa: E402

common.bootstrap()

import drawfix  # noqa: E402
import drawfix.cli  # noqa: E402
from drawfix import DeterministicTournament, Draw, PlayerTable  # noqa: E402

EXPECTED = common.DATA / "expected"


def cycle4() -> DeterministicTournament:
    """0 beats 1, 1 beats 2, 2 beats 0; everyone beats 3."""
    beats = np.zeros((4, 4), dtype=bool)
    beats[0, 1] = beats[1, 2] = beats[2, 0] = True
    beats[0, 3] = beats[1, 3] = beats[2, 3] = True
    return DeterministicTournament(players=PlayerTable.default(4), beats=beats)


# ---------------------------------------------------------------------------
# self-time arithmetic


def test_self_times_nested():
    spans = [
        Span("root", None, 0.0, 10.0),
        Span("a", 0, 1.0, 4.0),
        Span("a.child", 1, 2.0, 3.0),
        Span("b", 0, 5.0, 9.0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    # Without overlap, self times add up to the root's wall time.
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_self_times_merge_overlapping_and_clip_children():
    spans = [
        Span("root", None, 0.0, 10.0),
        Span("b", 0, 5.0, 9.0),
        Span("c", 0, 8.0, 9.5),     # overlaps b: the union is 5..9.5
        Span("d", 0, 9.8, 11.0),    # runs past the root: clipped to 9.8..10
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 4.5 - 0.2)


def test_layer_metrics_on_synthetic_trace():
    rec = Recorder()
    rec.spans = [
        Span(tracing.SETUP, None, 0.0, 2.0),
        Span(tracing.IMPORT, 0, 0.0, 0.5),
        Span("ingest.read", 0, 0.5, 0.6),
        Span("subsetdp.plan", 0, 0.6, 1.2, {"cold": True}),
        Span(tracing.QUERY, None, 3.0, 4.0, {"kind": "count"}),
        Span("solver.count", 4, 3.1, 3.9),
        Span("subsetdp.sweep", 5, 3.2, 3.8, {"peak_bytes": 2**21}),
        Span(tracing.QUERY, None, 4.0, 5.0, {"kind": "find"}),
        Span("solver.find", 7, 4.0, 4.9, {"none": True, "choice_points": 7}),
        # Untimed: an answer check outside any query span.
        Span("winprob.exact", None, 5.0, 6.0),
    ]
    metrics, detail = tracing.layer_metrics(rec, timed_wall_s=2.0, overhead_share=0.01,
                                            combine_count=10)
    assert metrics["import_ms"] == pytest.approx(500.0)
    assert metrics["ingest.busy_ms"] == pytest.approx(100.0)
    assert metrics["subsetdp.plan.cold_ms"] == pytest.approx(600.0)
    assert metrics["subsetdp.sweep.calls"] == 1
    assert metrics["subsetdp.sweep.p50_ms"] == pytest.approx(600.0)
    assert metrics["subsetdp.sweep.busy_share"] == pytest.approx(0.3)
    assert metrics["subsetdp.sweep.peak_mb"] == pytest.approx(2.0)
    assert metrics["subsetdp.sweep.combines"] == 10
    assert metrics["solver.count.busy_share"] == pytest.approx(0.1)
    assert metrics["solver.find.busy_share"] == pytest.approx(0.45)
    assert metrics["solver.find.none_share"] == 1.0
    assert metrics["solver.find.choice_points"] == 7
    assert metrics["winprob.exact.busy_share"] == 0.0
    assert metrics["harness.self_share"] == pytest.approx(0.15)
    assert detail["solver.find"]["calls"] == 1


def test_sampler_rates_on_synthetic_trace():
    rec = Recorder()
    rec.spans = [
        Span(tracing.QUERY, None, 0.0, 1.0),
        Span("winprob.sample", 0, 0.0, 1.0,
             {"samples": 1000, "mode": "per-draw-exact", "workers": 1}),
        Span(tracing.QUERY, None, 1.0, 1.5),
        Span("winprob.sample", 2, 1.0, 1.5,
             {"samples": 1000, "mode": "per-draw-exact", "workers": 2}),
        Span(tracing.QUERY, None, 1.5, 1.6),
        Span("winprob.sample", 4, 1.5, 1.6,
             {"samples": 1000, "mode": "full-simulation", "workers": 1}),
    ]
    metrics, _ = tracing.layer_metrics(rec, timed_wall_s=1.6, overhead_share=0.0)
    assert metrics["winprob.sample.draws"] == 3000
    assert metrics["winprob.sample.per_draw_exact.draws_per_s"] == pytest.approx(1000.0)
    assert metrics["winprob.sample.full_simulation.draws_per_s"] == pytest.approx(10000.0)
    assert metrics["winprob.sample.workers2_speedup"] == pytest.approx(2.0)


def test_wrappers_nest_spans_and_uninstall():
    rec = Recorder()
    patches = tracing.install(rec)
    try:
        idx = rec.begin(tracing.QUERY)
        report = drawfix.count_winning_draws(cycle4())
        draws = list(drawfix.enumerate_winning_draws(cycle4(), 0))
        rec.end(idx)
        assert hasattr(drawfix.cli.count_winning_draws, "__wrapped__")
    finally:
        tracing.uninstall(patches)
    assert sum(report.counts) == 3
    names = [s.name for s in rec.spans]
    count = names.index("solver.count")
    sweep = names.index("subsetdp.sweep")
    assert rec.spans[count].parent == idx
    assert rec.spans[sweep].parent == count
    steps = [s for s in rec.spans if s.name == "solver.enumerate" and "draws" in s.info]
    assert len(steps) == len(draws) == report.counts[0]
    assert not hasattr(drawfix.count_winning_draws, "__wrapped__")
    assert not hasattr(drawfix.cli.count_winning_draws, "__wrapped__")


# ---------------------------------------------------------------------------
# each checker rejects a corrupted answer


def test_count_off_by_one_rejected():
    report = drawfix.count_winning_draws(cycle4())
    checks.counts(list(report.counts), 4)
    corrupted = list(report.counts)
    corrupted[0] += 1
    with pytest.raises(checks.CheckFailed):
        checks.counts(corrupted, 4)


def test_draw_not_crowning_target_rejected():
    t = cycle4()
    counts = drawfix.count_winning_draws(t).counts
    result = drawfix.find_winning_draw(t, 0)
    checks.found(result.draw, t, 0, counts[0])
    wrong = next(d for d in (Draw((0, 1, 2, 3)), Draw((0, 2, 1, 3)), Draw((0, 3, 1, 2)))
                 if drawfix.simulate(d, t) != 0)
    with pytest.raises(checks.CheckFailed):
        checks.found(wrong, t, 0, counts[0])
    with pytest.raises(checks.CheckFailed):
        checks.enumerated([result.draw, wrong][:2], t, 0, 2, limit=10)
    with pytest.raises(checks.CheckFailed):   # a player who cannot win gets a draw
        checks.found(result.draw, t, 3, 0)


def test_sampled_vector_far_from_exact_rejected():
    exact = np.full(16, 1 / 16)
    rng = np.random.default_rng(0)
    near = exact + rng.normal(0, 0.5 * np.sqrt(exact * (1 - exact) / 100_000))
    checks.sampled(near, exact, 100_000)
    far = exact.copy()
    far[0] += 0.01
    far[1] -= 0.01
    with pytest.raises(checks.CheckFailed):
        checks.sampled(far, exact, 100_000)


def test_fixture_counts_swapped_between_players_rejected():
    expected = json.loads((EXPECTED / "soccer_counts.json").read_text())
    names = list(expected["counts"])
    values = list(expected["counts"].values())
    checks.expected_counts(values, names, expected)
    values[0], values[1] = values[1], values[0]
    checks.counts(values, 16)   # still sums right: only the reference catches it
    with pytest.raises(checks.CheckFailed):
        checks.expected_counts(values, names, expected)


def test_cli_count_output_with_one_count_changed_rejected():
    expected = json.loads((EXPECTED / "soccer_counts.json").read_text())
    doc = {"data": {"total_draws": expected["total_draws"],
                    "players": [{"name": k, "count": v}
                                for k, v in expected["counts"].items()]}}
    checks.cli_counts(doc, expected)
    doc["data"]["players"][3]["count"] += 1
    with pytest.raises(checks.CheckFailed):
        checks.cli_counts(doc, expected)


def test_cli_scan_and_winprob_outputs_checked():
    scan = json.loads((EXPECTED / "soccer_scan.json").read_text())
    steps = [{"upset_prob": round(0.01 * k, 2), "statistic": 0.5, "p_value": 0.5,
              "accepted": True} for k in range(1, 51)]
    doc = {"data": {**{k: scan[k] for k in ("min_accepted", "max_accepted", "avg_upset")},
                    "steps": steps}}
    checks.cli_scan(doc, scan)
    doc["data"]["max_accepted"] = 0.47
    with pytest.raises(checks.CheckFailed):
        checks.cli_scan(doc, scan)
    probs = json.loads((EXPECTED / "soccer_winprobs.json").read_text())
    doc = {"data": {"players": [{"name": k, "win_prob": v}
                                for k, v in probs["win_probs"].items()]}}
    checks.cli_winprobs(doc, probs)
    doc["data"]["players"][0]["win_prob"] += 1e-9
    with pytest.raises(checks.CheckFailed):
        checks.cli_winprobs(doc, probs)


# ---------------------------------------------------------------------------
# inputs and metric names


def test_inputs_depend_only_on_seed():
    a, ua = inputs.relation(7, 3)
    b, ub = inputs.relation(7, 3)
    assert np.array_equal(a, b) and ua == ub
    assert not np.array_equal(inputs.prob_matrix(7, 0), inputs.prob_matrix(8, 0))
    p = inputs.prob_matrix(7, 0)
    assert np.allclose(p + p.T, 1.0)


def test_every_printed_metric_is_declared_with_its_unit():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert run.END_TO_END_UNITS == declared_e2e
    assert tracing.LAYER_METRICS == declared_layer
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_percentile_matches_numpy():
    values = [5.0, 1.0, 3.0, 2.0, 8.0, 13.0]
    for pct in (0, 25, 50, 80, 90, 100):
        assert common.percentile(values, pct) == pytest.approx(np.percentile(values, pct))
