"""Summary arithmetic of tools/bench_pairs.py on synthetic run records."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "compile_s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.03},
    {"name": "rate", "better": "higher", "bound": 0.1},
]


def _runs(workload, values_by_metric, seeds=(1, 2, 3, 4), failed=0, digests=None):
    runs = [
        {"workload": workload, "seed": seed, "ran_first_in_pair": i % 2 == 0,
         "result": {"failed": failed, "metrics": {name: {"value": vals[i], "unit": "x"}
                                             for name, vals in values_by_metric.items()}}}
        for i, seed in enumerate(seeds)
    ]
    for run, digest in zip(runs, digests or ()):
        if digest is not None:
            run["netlist_digest"] = digest
    return runs


def test_quartiles_interpolate_between_order_statistics():
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0]) == (1.75, 2.5, 3.25)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_summarize_medians_pairs_won_and_bounds():
    first = _runs("w", {"compile_s": [1.0, 2.0, 3.0, 4.0], "peak_rss_mb": [30.0] * 4,
                        "rate": [10.0] * 4})
    second = _runs("w", {"compile_s": [0.9, 2.5, 2.0, 3.0], "peak_rss_mb": [31.0] * 4,
                         "rate": [8.0, 8.0, 10.0, 12.0]})
    # a run without a partner on the other side is left out
    first += _runs("w", {"compile_s": [100.0], "peak_rss_mb": [1.0], "rate": [1.0]}, seeds=(9,))
    rows = {r["metric"]: r for r in bench_pairs.summarize(first, second, METRICS)}
    c = rows["compile_s"]
    assert c["first"] == (1.75, 2.5, 3.25)
    assert c["second"] == pytest.approx((1.725, 2.25, 2.625))
    assert (c["won"], c["tied"], c["pairs"]) == (3, 0, 4)
    assert c["rel"] == pytest.approx(-0.1) and not c["worse"]
    # parent quartile distance 1.5 is 60% of its median, past the 25% bound
    assert c["unresolved"]
    m = rows["peak_rss_mb"]
    assert (m["won"], m["tied"]) == (0, 0)
    assert m["rel"] == pytest.approx(1 / 30) and m["worse"] and not m["unresolved"]
    r = rows["rate"]
    assert (r["won"], r["tied"]) == (1, 1)
    assert r["rel"] == pytest.approx(-0.1) and not r["worse"] and not r["unresolved"]
    second[2]["result"]["metrics"]["rate"]["value"] = 8.0
    rows = {r["metric"]: r for r in bench_pairs.summarize(first, second, METRICS)}
    assert rows["rate"]["rel"] == pytest.approx(-0.2) and rows["rate"]["worse"]


def test_summarize_keeps_workload_order_and_skips_absent_metrics():
    first = _runs("b", {"compile_s": [1.0] * 4}) + _runs("a", {"compile_s": [2.0] * 4})
    second = _runs("a", {"compile_s": [2.0] * 4}) + _runs("b", {"compile_s": [1.0] * 4})
    rows = bench_pairs.summarize(first, second, METRICS)
    assert [(r["workload"], r["metric"]) for r in rows] == [("b", "compile_s"), ("a", "compile_s")]
    assert all(r["tied"] == 4 and r["rel"] == 0 and not r["worse"] for r in rows)


@pytest.mark.parametrize("name, first, second, unresolved", [
    # parent spread (q3 - q1) / median = 0.625 / 1.25 = 50%, past the 25% bound
    ("compile_s", [1.0, 1.0, 1.5, 2.0], [1.1] * 4, True),
    ("compile_s", [1.0, 1.0, 1.5, 2.0], [0.9] * 4, False),  # every run better
    ("compile_s", [1.0, 1.0, 1.5, 2.0], [1.0] * 4, True),  # a tie is not better
    ("compile_s", [1.0, 1.0, 1.1, 1.2], [1.1] * 4, False),  # spread 12% of the median
    # higher is better: spread 6.25 / 12.5 = 50%, past the 10% bound
    ("rate", [10.0, 10.0, 15.0, 20.0], [21.0] * 4, False),
    ("rate", [10.0, 10.0, 15.0, 20.0], [19.0] * 4, True),
])
def test_summarize_marks_parent_spread_wider_than_bound_unresolved(name, first, second, unresolved):
    rows = bench_pairs.summarize(_runs("w", {name: first}), _runs("w", {name: second}), METRICS)
    assert [r["unresolved"] for r in rows] == [unresolved]


def _write(tmp_path, label, runs):
    (tmp_path / f"BENCH_{label}.json").write_text(json.dumps({"label": label, "runs": runs}))


def _report(tmp_path):
    return bench_pairs.main(["unused", "unused", "--labels", "old", "new", "--report",
                             "--out", str(tmp_path)])


def test_report_reads_bench_files_and_flags_a_bound(tmp_path, capsys):
    _write(tmp_path, "old", _runs("w", {"compile_s": [1.0, 1.0, 1.0, 1.0], "peak_rss_mb": [30.0] * 4}))
    _write(tmp_path, "new", _runs("w", {"compile_s": [0.9] * 4, "peak_rss_mb": [31.5] * 4}))
    assert _report(tmp_path) == 1
    out = capsys.readouterr().out
    assert "old: 4 runs, failed 0" in out
    assert "compile_s" in out and "won 4/4" in out and "-10.00%" in out
    assert "peak_rss_mb" in out and "+5.00% (bound 3.0%)  WORSE THAN BOUND" in out


def test_report_exit_status_counts_failures_and_unresolved_metrics(tmp_path, capsys):
    _write(tmp_path, "old", _runs("w", {"compile_s": [1.0] * 4}))
    _write(tmp_path, "new", _runs("w", {"compile_s": [1.0] * 4}))
    assert _report(tmp_path) == 0
    _write(tmp_path, "new", _runs("w", {"compile_s": [1.0] * 4}, failed=1))
    assert _report(tmp_path) == 1
    assert "new has more failed operations than old" in capsys.readouterr().out
    _write(tmp_path, "old", _runs("w", {"compile_s": [1.0] * 4}, failed=2))
    assert _report(tmp_path) == 0
    _write(tmp_path, "old", _runs("w", {"compile_s": [1.0, 1.0, 1.5, 2.0]}))
    _write(tmp_path, "new", _runs("w", {"compile_s": [1.1] * 4}))
    assert _report(tmp_path) == 1
    assert "UNRESOLVED" in capsys.readouterr().out


def test_digest_counts_pairs_equal_different_and_unrecorded():
    first = _runs("w", {}, seeds=(1, 2, 3, 4, 5, 6), digests=["a", "b", None, "d", "", "f"])
    second = _runs("w", {}, seeds=(1, 2, 3, 4, 5, 6), digests=["a", "x", "c", None, "e", "f"])
    # a run without a partner on the other side is no pair
    first += _runs("w", {}, seeds=(9,), digests=["z"])
    second += _runs("v", {}, seeds=(1,), digests=["a"])
    assert bench_pairs.digest_counts(first, second) == {"equal": 2, "different": 1, "unrecorded": 3}


def test_report_counts_digests_and_fails_when_a_pair_differs(tmp_path, capsys):
    values = {"compile_s": [1.0] * 4}
    # files written before digests were kept: every pair unrecorded, no failure
    _write(tmp_path, "old", _runs("w", values))
    _write(tmp_path, "new", _runs("w", values))
    assert _report(tmp_path) == 0
    assert "netlist_digest: 0 pairs equal, 0 different, 4 unrecorded" in capsys.readouterr().out
    _write(tmp_path, "old", _runs("w", values, digests=["a", "b", "c", "d"]))
    _write(tmp_path, "new", _runs("w", values, digests=["a", "b", "c", None]))
    assert _report(tmp_path) == 0
    assert "netlist_digest: 3 pairs equal, 0 different, 1 unrecorded" in capsys.readouterr().out
    _write(tmp_path, "new", _runs("w", values, digests=["a", "b", "x", None]))
    assert _report(tmp_path) == 1
    assert "netlist_digest: 2 pairs equal, 1 different, 1 unrecorded" in capsys.readouterr().out


def test_report_counts_digests_per_workload_after_the_total(tmp_path, capsys):
    values = {"compile_s": [1.0] * 4}
    old = _runs("b", values, digests="pqrs") + _runs("a", values, digests="wxyz")
    new = _runs("a", values, digests="wxy") + _runs("b", values, digests=["p", "Q", "r", "S"])
    _write(tmp_path, "old", old)
    _write(tmp_path, "new", new)
    assert _report(tmp_path) == 1
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("netlist_digest")]
    # workloads in the first side's order, each pair counted under its own workload
    assert lines == [
        "netlist_digest: 5 pairs equal, 2 different, 1 unrecorded",
        "netlist_digest b: 2 pairs equal, 2 different, 0 unrecorded",
        "netlist_digest a: 3 pairs equal, 0 different, 1 unrecorded",
    ]


def _claim(tmp_path, first, second):
    _write(tmp_path, "old", _runs("w", {"compile_s": first}, seeds=range(1, 11)))
    _write(tmp_path, "new", _runs("w", {"compile_s": second}, seeds=range(1, 11)))
    return bench_pairs.main(["unused", "unused", "--labels", "old", "new", "--report",
                             "--out", str(tmp_path), "--claim", "w:compile_s"])


PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01, 0.99]


def test_claim_met_when_nine_of_ten_pairs_win_beyond_the_spread(tmp_path, capsys):
    # the tenth pair is a tie, which counts for neither side
    second = [v - 0.1 for v in PARENT[:9]] + [PARENT[9]]
    assert _claim(tmp_path, PARENT, second) == 0
    out = capsys.readouterr().out
    assert "won 9/10 tied 1" in out and "claim w:compile_s: claim met" in out


def test_claim_fails_with_too_few_wins(tmp_path, capsys):
    # eight wins and two ties: the median still gains 0.1, far past the spread
    second = [v - 0.1 for v in PARENT[:8]] + PARENT[8:]
    assert _claim(tmp_path, PARENT, second) == 1
    out = capsys.readouterr().out
    assert "claim w:compile_s: won 8 of 10 pairs (tied 2), fewer than nine tenths" in out


def test_claim_fails_when_the_gain_is_within_the_parent_spread(tmp_path, capsys):
    # every pair wins by 0.01, less than the parent's quartile distance 0.02
    second = [v - 0.01 for v in PARENT]
    assert _claim(tmp_path, PARENT, second) == 1
    out = capsys.readouterr().out
    assert "won 10/10" in out
    assert ("claim w:compile_s: median gain 0.01 is not above the first side's "
            "quartile distance 0.02") in out
    # the same runs without --claim pass
    assert _report(tmp_path) == 0


def test_claim_of_an_unknown_workload_or_metric_fails(tmp_path, capsys):
    _write(tmp_path, "old", _runs("w", {"compile_s": [1.0] * 4}))
    _write(tmp_path, "new", _runs("w", {"compile_s": [0.5] * 4}))
    assert bench_pairs.main(["unused", "unused", "--labels", "old", "new", "--report",
                             "--out", str(tmp_path), "--claim", "w:verify_s"]) == 1
    assert "claim w:verify_s: no paired runs of that workload and metric" in capsys.readouterr().out


def test_expect_new_netlists_fails_on_equal_digests_instead(tmp_path, capsys):
    def report(*flags):
        return bench_pairs.main(["unused", "unused", "--labels", "old", "new", "--report",
                                 "--out", str(tmp_path), *flags])

    values = {"compile_s": [1.0] * 4}
    _write(tmp_path, "old", _runs("w", values, digests="abcd"))
    _write(tmp_path, "new", _runs("w", values, digests="wxyz"))
    assert report() == 1
    assert report("--expect-new-netlists") == 0
    assert "netlist_digest: 0 pairs equal, 4 different, 0 unrecorded" in capsys.readouterr().out
    # one pair whose netlists did not change fails; an unrecorded pair does not
    _write(tmp_path, "new", _runs("w", values, digests=["w", "x", "c", None]))
    assert report("--expect-new-netlists") == 1
    assert "netlist_digest: 1 pairs equal, 2 different, 1 unrecorded" in capsys.readouterr().out
    _write(tmp_path, "new", _runs("w", values, digests=["w", "x", "y", None]))
    assert report("--expect-new-netlists") == 0
    # the flag does not forgive a metric past its bound
    _write(tmp_path, "new", _runs("w", {"compile_s": [1.5] * 4}, digests="wxyz"))
    assert report("--expect-new-netlists") == 1


def test_a_checkout_git_cannot_describe_needs_commits(tmp_path, monkeypatch, capsys):
    # Both checkouts are plain directories, as `git archive` copies are.
    first, second, out = (tmp_path / d for d in ("first", "second", "out"))
    for d in (first, second, out):
        d.mkdir()
    runs = []

    def run_once(checkout, workload, seed):
        runs.append(checkout)
        return {"failed": 0, "metrics": {"compile_s": {"value": 1.0, "unit": "s"}}}, "d"

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs, "PAIRS", 1)
    monkeypatch.setitem(bench_pairs.BENCHMARK, "workloads", [{"name": "w"}])
    argv = [str(first), str(second), "--labels", "old", "new", "--out", str(out)]
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(argv)
    assert exit_info.value.code == 2
    assert "--commits FIRST SECOND" in capsys.readouterr().err
    assert runs == [] and list(out.iterdir()) == []
    assert bench_pairs.main([*argv, "--commits", "abc1234", "def5678"]) == 0
    assert runs == [first, second]
    written = {label: json.loads((out / f"BENCH_{label}.json").read_text()) for label in ("old", "new")}
    assert (written["old"]["commit"], written["new"]["commit"]) == ("abc1234", "def5678")
