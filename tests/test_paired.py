"""tools/paired.py's summary of paired benchmark runs, on canned result
lines: no benchmark is run."""

import json
import runpy
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "paired.py"
paired = runpy.run_path(str(TOOL), run_name="paired_tool")


def _line(correct=True, **values) -> str:
    return json.dumps({"correct": correct, "attempted": 2, "failed": 0,
                       "metrics": {k: {"value": v, "unit": "s"}
                                   for k, v in values.items()}})


def _runs(parent: list, change: list, metric="wall_s") -> list:
    parse = paired["parse_line"]
    return [(parse(_line(**{metric: p})), parse(_line(**{metric: c})))
            for p, c in zip(parent, change)]


PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


def test_the_result_is_the_last_line_of_the_report():
    out = "workload ladder seed 3: 2 operations x 5 passes\n  qor_area 1\n" \
        + _line(wall_s=0.3, qor_area=1.5) + "\n"
    got = paired["parse_line"](out)
    assert got["correct"] and got["metrics"]["wall_s"]["value"] == 0.3
    with pytest.raises(ValueError):
        paired["parse_line"]("no result here\n")
    with pytest.raises(ValueError):
        paired["parse_line"]("")


def test_a_gain_won_in_every_pair_and_beyond_the_spread_holds():
    change = [p * 0.85 for p in PARENT]
    (row,) = paired["summarize"](_runs(PARENT, change), {})
    assert (row.metric, row.better, row.wins, row.pairs) == \
        ("wall_s", "lower", 10, 10)
    assert row.parent[1] == pytest.approx(1.0)
    assert row.change[1] == pytest.approx(0.85)
    assert row.claim_holds
    assert "holds" in paired["report"]([row])


def test_eight_wins_of_ten_do_not_make_a_gain():
    change = [p * 0.85 for p in PARENT]
    change[0] = change[1] = 1.2
    (row,) = paired["summarize"](_runs(PARENT, change), {})
    assert row.wins == 8 and not row.claim_holds


def test_nine_wins_of_ten_do():
    change = [p * 0.85 for p in PARENT]
    change[0] = 1.2
    (row,) = paired["summarize"](_runs(PARENT, change), {})
    assert row.wins == 9 and row.claim_holds


def test_a_gap_within_the_parents_quartiles_is_no_gain():
    # every pair won, but by less than the parent's interquartile range
    change = [p - 0.005 for p in PARENT]
    (row,) = paired["summarize"](_runs(PARENT, change), {})
    assert row.wins == 10
    assert row.parent[2] - row.parent[0] > 0.005
    assert not row.claim_holds


def test_identical_values_win_no_pair():
    (row,) = paired["summarize"](_runs([1.5] * 10, [1.5] * 10,
                                       "qor_area"), {})
    assert row.wins == 0 and not row.claim_holds


def test_a_higher_is_better_metric_wins_upward():
    change = [p * 1.2 for p in PARENT]
    runs = _runs(PARENT, change, "speed")
    (row,) = paired["summarize"](runs, {"speed": "higher"})
    assert row.wins == 10 and row.claim_holds
    (row,) = paired["summarize"](runs, {})
    assert row.wins == 0 and not row.claim_holds


def test_only_metrics_every_run_reports_are_summarized():
    parse = paired["parse_line"]
    runs = [(parse(_line(wall_s=1.0, peak_rss_mb=50.0)),
             parse(_line(wall_s=0.9)))]
    assert [r.metric for r in paired["summarize"](runs, {})] == ["wall_s"]


def test_directions_come_from_the_benchmark_file():
    got = paired["directions"](TOOL.parents[1])
    assert got["wall_s"] == "lower" and got["peak_rss_mb"] == "lower"
