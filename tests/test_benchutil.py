"""The bench tools' shared driver (tools/benchutil.py) on synthetic values.

No child process starts here: every ``measure`` is a stand-in that
returns made-up metrics, so these tests pin the alternation order, the
summaries, the ratio block and the document's schema, not any timing.
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
        return {"t": {"x": {"median": t, "q1": 0.0, "q3": 99.0}},
                "m": {"x": {"median": m, "q1": 0.0, "q3": 99.0}}}

    assert benchutil.ratios(tree(4.0, 2.0), tree(1.0, 3.0)) == {"t": {"x": 0.25},
                                                                "m": {"x": 1.5}}


def test_compare_primes_each_tree_then_writes_one_schema(tmp_path):
    seen = []

    def prepare(tree):
        seen.append(("prepare", tree.work.name))

    def measure(tree, case):
        if "PYTHONDONTWRITEBYTECODE" not in tree.env:
            # the untimed pass: the stand-in "writes" bytecode to the prefix
            for package in ("numpy", "drawfix"):
                (tree.pycache / "lib" / package).mkdir(parents=True, exist_ok=True)
            seen.append(("prime", tree.work.name, case))
            return {"wall_s": 0.0, "peak_mb": 0.0}
        assert tree.env["PYTHONDONTWRITEBYTECODE"] == "1"
        assert tree.env["PYTHONPATH"] == str(tree.checkout / "src")
        assert [p.name for p in (tree.pycache / "lib").iterdir()] == ["numpy"]
        seen.append(("run", tree.work.name, case))
        run = sum(1 for s in seen if s[0] == "run" and s[1:] == (tree.work.name, case))
        scale = 2.0 if tree.work.name == "baseline" else 1.0
        return {"wall_s": scale * run * (1 if case == "x" else 10), "peak_mb": 5.0}

    out = tmp_path / "bench.json"
    argv = ["--baseline", str(benchutil.ROOT), "--runs", "3", "--output", str(out)]
    assert benchutil.compare("Synthetic.\n", {"x": "case x", "y": "case y"}, measure,
                             "made-up values", prepare, argv) == 0
    assert seen[:6] == [("prepare", "baseline"), ("prime", "baseline", "x"),
                        ("prime", "baseline", "y"), ("prepare", "current"),
                        ("prime", "current", "x"), ("prime", "current", "y")]
    assert seen[6:10] == [("run", "baseline", "x"), ("run", "current", "x"),
                          ("run", "baseline", "y"), ("run", "current", "y")]
    assert len(seen) == 6 + 3 * 2 * 2

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
    assert doc["current_over_baseline"] == {"wall_s": {"x": 0.5, "y": 0.5},
                                            "peak_mb": {"x": 1.0, "y": 1.0}}


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
