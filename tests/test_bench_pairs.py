"""The pair runner's summariser on canned runs, and its argument errors."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPEC = {
    "end_to_end": [
        {"name": "latency_p50_s", "better": "lower", "bound": 0.25},
        {"name": "throughput_ops_per_s", "better": "higher", "bound": 0.25},
    ]
}


def canned(workload, seed, pair, side, latency, throughput, correct=True, failed=0):
    metrics = {
        "latency_p50_s": {"value": latency, "unit": "s"},
        "throughput_ops_per_s": {"value": throughput, "unit": "1/s"},
    }
    stdout = {"correct": correct, "attempted": 10, "failed": failed, "metrics": metrics}
    return {"workload": workload, "seed": seed, "pair": pair, "side": side, "stdout": stdout}


def test_quartiles_are_inclusive_and_an_even_count_takes_the_middle_mean():
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0]) == [1.75, 2.5, 3.25]
    assert bench_pairs.quartiles([5.0]) == [5.0, 5.0, 5.0]
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == [2.0, 3.0, 4.0]


def test_summary_counts_wins_losses_and_ties_by_the_better_direction():
    parent_latency, change_latency = [4.0, 1.0, 3.0, 2.0], [1.0, 2.0, 3.0, 1.0]
    parent_rate, change_rate = [10.0, 10.0, 10.0, 10.0], [12.0, 8.0, 10.0, 11.0]
    runs = []
    for pair, values in enumerate(zip(parent_latency, change_latency, parent_rate, change_rate), 1):
        a, b, ra, rb = values
        runs.append(canned("w", 0, pair, "parent", a, ra))
        runs.append(canned("w", 0, pair, "change", b, rb))
    summary = bench_pairs.summarise(runs, SPEC)["w"]
    latency = summary["latency_p50_s"]
    assert latency["parent_q1_median_q3"] == [1.75, 2.5, 3.25]
    assert latency["change_q1_median_q3"] == [1.0, 1.5, 2.25]
    assert latency["parent_iqr"] == 1.5
    assert latency["median_change_rel"] == pytest.approx(-0.4)
    # Lower is better: pairs 1 and 4 win, pair 2 loses and pair 3 ties.
    assert (latency["change_wins"], latency["change_losses"]) == (2, 1)
    assert (latency["bound"], latency["better"]) == (0.25, "lower")
    rate = summary["throughput_ops_per_s"]
    assert (rate["change_wins"], rate["change_losses"]) == (2, 1)
    assert rate["parent_iqr"] == 0.0
    assert summary["pairs"] == 4 and summary["correct"] and summary["failed"] == 0


def test_summary_pools_seeds_and_keeps_failures():
    runs = [
        canned("w", 0, 1, "parent", 2.0, 1.0),
        canned("w", 0, 1, "change", 1.0, 1.0),
        canned("w", 3, 1, "change", 1.0, 1.0, correct=False, failed=2),
        canned("w", 3, 1, "parent", 2.0, 1.0),
        canned("v", 0, 1, "parent", 1.0, 1.0),
        canned("v", 0, 1, "change", 1.0, 1.0),
    ]
    summary = bench_pairs.summarise(runs, SPEC)
    assert list(summary) == ["w", "v"]
    assert summary["w"]["pairs"] == 2
    assert summary["w"]["latency_p50_s"]["change_wins"] == 2
    assert (summary["w"]["correct"], summary["w"]["failed"]) == (False, 2)
    with pytest.raises(ValueError, match="one parent and one change"):
        bench_pairs.summarise(runs[:3], SPEC)


def test_cli_summary_gives_medians_and_whether_the_stdouts_matched():
    def run(cli, pair, side, wall, sha):
        return {"cli": cli, "pair": pair, "side": side, "wall_s": wall, "returncode": 0,
                "stdout_sha256": sha}

    runs = [
        run("find-curve --p 5", 1, "parent", 4.0, "s"),
        run("find-curve --p 5", 1, "change", 1.0, "s"),
        run("find-curve --p 5", 2, "change", 3.0, "s"),
        run("find-curve --p 5", 2, "parent", 2.0, "s"),
        run("count-points", 1, "parent", 1.0, "s"),
        run("count-points", 1, "change", 1.0, "t"),
    ]
    summary = bench_pairs.summarise_cli(runs)
    assert list(summary) == ["find-curve --p 5", "count-points"]
    assert summary["find-curve --p 5"] == {
        "parent_median_s": 3.0,
        "change_median_s": 2.0,
        "median_change_rel": pytest.approx(-1 / 3),
        "stdout_match": True,
        "pairs": 2,
    }
    assert not summary["count-points"]["stdout_match"]


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["--pairs", "0"],
        ["--pairs", "two"],
        ["--seeds", "0,x"],
        ["--parent", "no-such-revision-anywhere"],
        ["--cli", ""],
        ["--cli", "  "],
    ],
    ids=["nothing", "no-pairs", "pairs-text", "bad-seed", "revision", "empty-cli", "blank-cli"],
)
def test_bad_arguments_exit_2_before_any_run(argv, tmp_path, monkeypatch):
    runs = []
    monkeypatch.setattr(bench_pairs, "run_side", lambda *a: runs.append(a))
    monkeypatch.setattr(bench_pairs, "run_cli", lambda *a: runs.append(a))
    base = {"--parent": "HEAD", "--label": "x", "--what": "y", "--out": str(tmp_path / "o.json")}
    if argv:
        base.update(zip(argv[::2], argv[1::2]))
        argv = [item for pair in base.items() for item in pair]
    with pytest.raises(SystemExit) as exited:
        bench_pairs.main(argv)
    assert exited.value.code == 2
    assert runs == [] and not (tmp_path / "o.json").exists()

