"""The pairs tool's record summary, fed canned bench output: no benchmark
runs here."""

import json

import benchpair


def _output(wall, failed=0, correct=True):
    """A bench run's stdout: metric lines, then the final JSON line."""
    metrics = {"wall_s": {"value": wall, "unit": "s"},
               "cpu_s": {"value": wall - 0.01, "unit": "s"},
               "setup_s": {"value": 0.1, "unit": "s"},
               "peak_rss_mb": {"value": 18.0 + wall, "unit": "MB"}}
    return (f"wall_s {wall} s\nfailed_ratio 0.0\n\n"
            + json.dumps({"correct": correct, "attempted": 40,
                          "failed": failed, "metrics": metrics}) + "\n")


def _runs(walls, workload="search", seed=1):
    """Runs from (parent, change) wall times, one pair each, the first
    side swapped every pair as the tool runs them."""
    runs = []
    for pair, (a, b) in enumerate(walls):
        sides = [("parent", a), ("change", b)]
        for side, wall in sides[::-1] if pair % 2 else sides:
            runs.append({"pair": pair, "workload": workload, "side": side,
                         "seed": seed, "seconds": 30,
                         "result": benchpair.final_line(_output(wall))})
    return runs


def test_summary_keys_medians_and_wins():
    runs = _runs([(0.60, 0.50), (0.70, 0.70), (0.50, 0.55), (0.80, 0.65),
                  (0.90, 0.60)])
    runs += _runs([(0.40, 0.45)], workload="verify", seed=2)
    summary = benchpair.summarize(runs)
    assert list(summary) == ["search seed 1", "verify seed 2"]
    search = summary["search seed 1"]
    assert list(search) == ["correct", "failed", *benchpair.METRICS]
    assert search["correct"] is True and search["failed"] == 0
    wall = search["wall_s"]
    assert list(wall) == ["parent", "change", "pairs_won"]
    assert wall["parent"] == {"median": 0.7, "q1": 0.6, "q3": 0.8, "n": 5}
    assert wall["change"]["median"] == 0.6 and wall["change"]["n"] == 5
    # the tie in pair 1 counts for neither side
    assert wall["pairs_won"] == {"parent": 1, "change": 3}
    assert search["peak_rss_mb"]["pairs_won"] == {"parent": 1, "change": 3}
    assert search["setup_s"]["pairs_won"] == {"parent": 0, "change": 0}
    verify = summary["verify seed 2"]["wall_s"]
    assert verify["parent"] == {"median": 0.4, "q1": 0.4, "q3": 0.4, "n": 1}
    assert verify["pairs_won"] == {"parent": 1, "change": 0}


def test_summary_counts_failures_and_broken_runs():
    runs = _runs([(0.6, 0.5), (0.6, 0.5)])
    runs[1]["result"] = benchpair.final_line(_output(0.5, failed=2,
                                                     correct=False))
    runs[2]["result"] = {"error": "exit 1: Traceback"}
    summary = benchpair.summarize(runs)["search seed 1"]
    assert summary["correct"] is False and summary["failed"] == 2
    # pair 1 lost its change run, so it is left out of the wins
    assert summary["wall_s"]["pairs_won"] == {"parent": 0, "change": 1}
    assert summary["wall_s"]["change"]["n"] == 1
    assert summary["wall_s"]["parent"]["n"] == 2
