"""Alternating parent/change runs of the benchmark, written as a BENCH_*.json file.

Run from the repository root:

    python3 scripts/bench_pairs.py --parent HEAD~1 --label pr_name \\
        --what "what the change does" --pairs 10 --seeds 0,7 --out BENCH_pr_name.json

The parent revision is extracted with `git archive` into a temporary
directory, so no worktree is registered and nothing in the repository
changes; the change is the working tree. For every seed, every workload of
BENCHMARK.json and every pair, each side runs `perfbench/run.py --workload W
--seed S --seconds T --trace 0` in its own process, with T the benchmark's
`run_seconds`, the parent first in odd pairs and the change first in even ones.

Each `--cli "ARGS"` (repeatable) adds single runs of a path that no
workload covers: per pair, each side runs `python3 -m agpir.cli ARGS` once,
with its own `src` on PYTHONPATH, in the same alternating order, before the
workloads. A CLI run records its wall seconds, exit code and the sha256 of
its stdout.

The file holds `label`, `what`, `parent`, `protocol`, `environment`,
`summary`, `summary_by_seed`, `cli_summary`, `runs` and `cli_runs`. For
each end-to-end metric of BENCHMARK.json, a summary gives each side's Q1,
median and Q3 (inclusive quartiles), the relative change of the medians,
the pairs the change wins and loses (a tie is neither), the parent's IQR and
the metric's bound, over the pairs in which neither run timed out; it
also counts the timed-out runs. `summary` pools the pairs of every seed and
`summary_by_seed` keeps each seed apart. A benchmark process still running
after ten times `run_seconds` is killed, so a workload whose draws never
end cannot hang the runner: the run is recorded as `{"correct": false,
"timed_out": true, "timeout_s": ...}` and the pairs go on. `cli_summary`
gives, per ARGS, each side's median wall seconds, their relative change and
whether every stdout matched. The file is rewritten after every pair. A run
keeps its JSON result and its environment record, without the per-operation
arrays (`wall_latencies_s`, `calibration_s`).

Exit status: 0 when every run reported `"correct": true` and every CLI
command printed the same stdout on both sides, 1 otherwise (a timed-out run
included), and 2 on a bad argument, before any run.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import shlex
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"
PER_OP = ("wall_latencies_s", "calibration_s")
# A benchmark process may take this many times `run_seconds` (set-up, the
# timed loop and the pinned-prefix replay) before it is stopped as hung.
TIMEOUT_FACTOR = 10


def quartiles(values: list[float]) -> list[float]:
    """[Q1, median, Q3] by the inclusive method; one value is all three."""
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def compare(pairs: list[tuple[float, float]], better: str, bound: float) -> dict:
    """The summary of one metric over (parent, change) pairs."""
    parent = quartiles([a for a, _ in pairs])
    change = quartiles([b for _, b in pairs])
    sign = 1 if better == "higher" else -1
    return {
        "parent_q1_median_q3": parent,
        "change_q1_median_q3": change,
        "median_change_rel": (change[1] - parent[1]) / parent[1] if parent[1] else 0.0,
        "parent_iqr": parent[2] - parent[0],
        "change_wins": sum(sign * (b - a) > 0 for a, b in pairs),
        "change_losses": sum(sign * (b - a) < 0 for a, b in pairs),
        "bound": bound,
        "better": better,
    }


def summarise(runs: list[dict], spec: dict) -> dict:
    """Per workload: each end-to-end metric's `compare`, and whether every run was correct."""
    grouped: dict[str, dict[tuple, dict]] = {}
    for run in runs:
        pair = grouped.setdefault(run["workload"], {}).setdefault((run["seed"], run["pair"]), {})
        pair[run["side"]] = run["stdout"]
    summary = {}
    for workload, pairs in grouped.items():
        if any(set(sides) != {"parent", "change"} for sides in pairs.values()):
            raise ValueError(f"{workload}: a pair needs one parent and one change run")
        results = [(sides["parent"], sides["change"]) for sides in pairs.values()]
        complete = [(a, b) for a, b in results
                    if not (a.get("timed_out") or b.get("timed_out"))]
        entry = {}
        for metric in spec["end_to_end"] if complete else ():
            name = metric["name"]
            values = [(a["metrics"][name]["value"], b["metrics"][name]["value"])
                      for a, b in complete]
            entry[name] = compare(values, metric["better"], metric["bound"])
        entry["correct"] = all(r["correct"] for pair in results for r in pair)
        entry["failed"] = sum(r.get("failed", 0) for pair in results for r in pair)
        entry["timed_out"] = sum(bool(r.get("timed_out")) for pair in results for r in pair)
        entry["pairs"] = len(results)
        summary[workload] = entry
    return summary


def summarise_cli(runs: list[dict]) -> dict:
    """Per CLI command: each side's median wall seconds and whether every stdout matched."""
    grouped: dict[str, list[dict]] = {}
    for run in runs:
        grouped.setdefault(run["cli"], []).append(run)
    summary = {}
    for cli, group in grouped.items():
        parent = statistics.median(r["wall_s"] for r in group if r["side"] == "parent")
        change = statistics.median(r["wall_s"] for r in group if r["side"] == "change")
        summary[cli] = {
            "parent_median_s": parent,
            "change_median_s": change,
            "median_change_rel": (change - parent) / parent if parent else 0.0,
            "stdout_match": len({r["stdout_sha256"] for r in group}) == 1,
            "pairs": max(r["pair"] for r in group),
        }
    return summary


def run_cli(root: Path, cli: list[str]) -> dict:
    """Wall seconds, exit code and stdout sha256 of one `agpir.cli` process on `root`'s src."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "agpir.cli", *cli], cwd=root, env=env,
                          capture_output=True)
    wall = time.perf_counter() - start
    return {"wall_s": wall, "returncode": done.returncode,
            "stdout_sha256": hashlib.sha256(done.stdout).hexdigest()}


def run_side(root: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(JSON result, environment record) of one untraced benchmark process in `root`.

    A process still running after TIMEOUT_FACTOR * `seconds` is killed, and
    its result is `{"correct": false, "timed_out": true, "timeout_s": ...}`.
    """
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    limit = TIMEOUT_FACTOR * seconds
    try:
        done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=limit)
    except subprocess.TimeoutExpired:
        print(f"{root}: {workload} seed {seed} timed out after {limit:g} s",
              file=sys.stderr, flush=True)
        return {"correct": False, "timed_out": True, "timeout_s": limit}, {}
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{root}: {workload} printed no result:\n{done.stderr}")
    env = {}
    for line in done.stderr.splitlines():
        if line.startswith('{"env"'):
            env = {k: v for k, v in json.loads(line)["env"].items() if k not in PER_OP}
    return json.loads(lines[-1]), env


def extract(revision: str, dest: Path) -> None:
    """The tree of `revision`, unpacked from `git archive` into `dest`."""
    archive = subprocess.run(
        ["git", "archive", revision], cwd=ROOT, capture_output=True, check=True
    )
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest, **safe)


def commit_of(revision: str) -> str | None:
    """The commit `revision` names, or None (also with no git or no repository)."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--verify", "--quiet", f"{revision}^{{commit}}"],
            cwd=ROOT, capture_output=True, text=True,
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--label", required=True)
    parser.add_argument("--what", required=True, help="one line: what the change does")
    parser.add_argument("--pairs", type=int, default=10, help="pairs per workload and seed")
    parser.add_argument("--seeds", default="0", help="comma-separated workload seeds")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--cli", action="append", default=[], metavar="ARGS",
                        help="agpir.cli arguments to time once per pair on each side (repeatable)")
    args = parser.parse_args(argv)
    try:
        args.seeds = list(dict.fromkeys(int(s) for s in args.seeds.split(",")))
    except ValueError:
        parser.error(f"--seeds must be comma-separated integers, got {args.seeds!r}")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if not all(shlex.split(cli) for cli in args.cli):
        parser.error("--cli needs at least one argument")
    args.commit = commit_of(args.parent)
    if args.commit is None:
        parser.error(f"--parent {args.parent!r} names no commit")
    return args


def write(args: argparse.Namespace, spec: dict, runs: list[dict], cli_runs: list[dict]) -> None:
    """The BENCH file for the runs so far, each pair complete."""
    seeds = sorted({r["seed"] for r in runs}, key=args.seeds.index)
    result = {
        "label": args.label,
        "what": args.what,
        "parent": args.commit,
        "protocol": (
            f"{args.pairs} alternating parent/change pairs per workload and seed (odd pairs "
            f"run the parent first), python3 perfbench/run.py --workload W --seed S "
            f"--seconds {spec['run_seconds']:g} --trace 0, seeds {args.seeds}, unmodified perfbench/"
            + "".join(f"; python3 -m agpir.cli {cli} once per side per pair" for cli in args.cli)
        ),
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
        },
        "summary": summarise(runs, spec),
        "summary_by_seed": {
            str(seed): summarise([r for r in runs if r["seed"] == seed], spec) for seed in seeds
        },
        "cli_summary": summarise_cli(cli_runs),
        "runs": runs,
        "cli_runs": cli_runs,
    }
    args.out.write_text(json.dumps(result, indent=1) + "\n")


def order_of(pair: int) -> tuple[str, str]:
    """The parent first in odd pairs, the change first in even ones."""
    return ("parent", "change") if pair % 2 else ("change", "parent")


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text())
    args = parse_args(argv)
    # A SIGTERM unwinds like an exception: `subprocess.run` kills the running
    # benchmark process and the parent's temporary tree is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workloads, seconds = [w["name"] for w in spec["workloads"]], spec["run_seconds"]
    runs, cli_runs = [], []
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent_root = Path(tmp)
        extract(args.commit, parent_root)
        roots = {"parent": parent_root, "change": ROOT}
        for cli in args.cli:
            for pair in range(1, args.pairs + 1):
                for side in order_of(pair):
                    run = run_cli(roots[side], shlex.split(cli))
                    cli_runs.append({"cli": cli, "pair": pair, "side": side, **run})
                    print(f"cli {cli!r} pair {pair} {side}: {run['wall_s']:.3f} s",
                          file=sys.stderr, flush=True)
                write(args, spec, runs, cli_runs)
        for seed in args.seeds:
            for workload in workloads:
                for pair in range(1, args.pairs + 1):
                    order = order_of(pair)
                    for side in order:
                        stdout, env = run_side(roots[side], workload, seed, seconds)
                        runs.append({"workload": workload, "seed": seed, "pair": pair,
                                     "side": side, "ran_first": side == order[0],
                                     "stdout": stdout, "env": env})
                        print(f"{workload} seed {seed} pair {pair} {side}: "
                              f"correct={stdout['correct']}", file=sys.stderr, flush=True)
                    # Rewritten after every pair, so a run cut short keeps what it measured.
                    write(args, spec, runs, cli_runs)
    matched = all(entry["stdout_match"] for entry in summarise_cli(cli_runs).values())
    return 0 if matched and all(r["stdout"]["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
