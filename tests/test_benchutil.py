"""The bench tools' shared driver (tools/benchutil.py) on synthetic values.

No child process starts here: every ``measure`` is a stand-in that
returns made-up metrics, so these tests pin each tree's clean copy of
its source, the alternation order, the summaries, the ratio block with
its per-run spread and the document's schema, not any timing.
"""
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent.parent / "tools"))
import benchutil  # noqa: E402


def test_alternation_swaps_the_side_that_goes_first_every_run():
    calls = []

    def measure(label, case):
        calls.append((label, case))
        return len(calls)

    values = benchutil.alternate(["a", "b"], ["x", "y"], 3, measure)
    assert calls == [
        ("a", "x"), ("b", "x"), ("a", "y"), ("b", "y"),
        ("b", "x"), ("a", "x"), ("b", "y"), ("a", "y"),
        ("a", "x"), ("b", "x"), ("a", "y"), ("b", "y"),
    ]
    assert values == {"a": {"x": [1, 6, 9], "y": [3, 8, 11]},
                      "b": {"x": [2, 5, 10], "y": [4, 7, 12]}}


def test_summaries_are_the_median_and_inclusive_quartiles_of_each_metric():
    assert benchutil.summary([5.0, 1.0, 4.0, 2.0, 3.0]) == {"median": 3.0, "q1": 2.0,
                                                             "q3": 4.0}
    assert benchutil.summary([1.0, 2.0]) == {"median": 1.5, "q1": 1.25, "q3": 1.75}
    runs = {"x": [{"t": 1.0, "m": 7.0}, {"t": 3.0, "m": 7.0}, {"t": 2.0, "m": 7.0}],
            "y": [{"t": 9.0, "m": 1.0}, {"t": 9.0, "m": 3.0}, {"t": 9.0, "m": 2.0}]}
    assert benchutil.summarize(runs) == {
        "t": {"x": {"median": 2.0, "q1": 1.5, "q3": 2.5},
              "y": {"median": 9.0, "q1": 9.0, "q3": 9.0}},
        "m": {"x": {"median": 7.0, "q1": 7.0, "q3": 7.0},
              "y": {"median": 2.0, "q1": 1.5, "q3": 2.5}},
    }


def test_ratios_divide_the_current_median_by_the_baseline_median():
    def tree(t, m):
        return {"x": [{"t": t, "m": m}, {"t": 9 * t, "m": m}, {"t": t / 9, "m": m}]}

    assert benchutil.ratios(tree(4.0, 2.0), tree(1.0, 3.0)) == {
        "t": {"x": {"ratio": 0.25, "q1": 0.25, "q3": 0.25}},
        "m": {"x": {"ratio": 1.5, "q1": 1.5, "q3": 1.5}},
    }


def test_ratio_spread_is_the_quartiles_of_the_ratios_of_run_i():
    # The medians, 4 and 2, give the ratio; the runs pair by index, so
    # the per-run ratios are 0.5, 1, 2, 4 and 0.25.
    base = {"x": [{"t": 4.0}, {"t": 2.0}, {"t": 1.0}, {"t": 4.0}, {"t": 8.0}]}
    cur = {"x": [{"t": 2.0}, {"t": 2.0}, {"t": 2.0}, {"t": 16.0}, {"t": 2.0}]}
    assert benchutil.ratios(base, cur) == {"t": {"x": {"ratio": 0.5, "q1": 0.5, "q3": 2.0}}}


def test_compare_prepares_clean_copies_then_writes_one_schema(tmp_path, monkeypatch):
    monkeypatch.delenv("PYTHONPYCACHEPREFIX", raising=False)
    # A baseline checkout whose src/ holds bytecode from an earlier run.
    checkout = tmp_path / "checkout"
    (checkout / "src" / "drawfix" / "__pycache__").mkdir(parents=True)
    (checkout / "src" / "drawfix" / "__init__.py").write_text("")
    planted = checkout / "src" / "drawfix" / "__pycache__" / "__init__.cpython-311.pyc"
    planted.write_bytes(b"stale")
    sides = {checkout: "baseline", benchutil.ROOT: "current"}
    seen = []

    def prepare(tree):
        seen.append(("prepare", sides[tree.checkout]))

    def measure(tree, case):
        side = sides[tree.checkout]
        assert tree.env["PYTHONDONTWRITEBYTECODE"] == "1"
        assert tree.env["PYTHONPATH"] == str(tree.src)
        assert "PYTHONPYCACHEPREFIX" not in tree.env
        assert (tree.src / "drawfix" / "__init__.py").exists()
        assert not list(tree.src.rglob("__pycache__"))
        seen.append(("run", side, case))
        run = sum(1 for s in seen if s == ("run", side, case))
        scale = 2.0 if side == "baseline" else 1.0
        return {"wall_s": scale * run * (1 if case == "x" else 10), "peak_mb": 5.0}

    out = tmp_path / "bench.json"
    argv = ["--baseline", str(checkout), "--runs", "3", "--output", str(out)]
    assert benchutil.compare("Synthetic.\n", {"x": "case x", "y": "case y"}, measure,
                             "made-up values", prepare, argv) == 0
    assert seen[:6] == [("prepare", "baseline"), ("prepare", "current"),
                        ("run", "baseline", "x"), ("run", "current", "x"),
                        ("run", "baseline", "y"), ("run", "current", "y")]
    assert len(seen) == 2 + 3 * 2 * 2
    assert planted.read_bytes() == b"stale"

    doc = json.loads(out.read_text())
    assert list(doc) == ["what", "runs", "cases", "environment", "trees",
                         "current_over_baseline"]
    assert (doc["what"], doc["runs"], doc["cases"]) == ("made-up values", 3,
                                                        {"x": "case x", "y": "case y"})
    assert list(doc["trees"]) == ["baseline", "current"]
    for tree in doc["trees"].values():
        assert list(tree) == ["commit", "src_modified", "sources_sha256", "wall_s", "peak_mb"]
    assert doc["trees"]["current"]["wall_s"] == {
        "x": {"median": 2.0, "q1": 1.5, "q3": 2.5},
        "y": {"median": 20.0, "q1": 15.0, "q3": 25.0},
    }
    assert doc["current_over_baseline"] == {
        "wall_s": {"x": {"ratio": 0.5, "q1": 0.5, "q3": 0.5},
                   "y": {"ratio": 0.5, "q1": 0.5, "q3": 0.5}},
        "peak_mb": {"x": {"ratio": 1.0, "q1": 1.0, "q3": 1.0},
                    "y": {"ratio": 1.0, "q1": 1.0, "q3": 1.0}},
    }


def test_compare_without_a_baseline_writes_no_ratios(tmp_path, capsys):
    benchutil.compare("Synthetic.\n", {"x": "case x"}, lambda tree, case: {"t": 1.0},
                      "made-up values", argv=["--runs", "2"])
    doc = json.loads(capsys.readouterr().out)
    assert list(doc["trees"]) == ["current"]
    assert "current_over_baseline" not in doc


def test_compare_needs_two_runs(capsys):
    with pytest.raises(SystemExit):
        benchutil.compare("Synthetic.\n", {"x": "case x"}, lambda tree, case: {"t": 1.0},
                          "made-up values", argv=["--runs", "1"])
    assert "--runs must be at least 2" in capsys.readouterr().err
