"""Benchmark of the agpir library: closed-loop workloads, output checks, layer tracing.

Run from the repository root:

    python3 perfbench/run.py --workload serve-g0-q257 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one process
    python3 perfbench/run.py --pin-digests           # rewrite perfbench/digests.json

One process, one client thread, closed loop: the next operation starts when
the previous one has finished. With `--trace 0` the run reports the
end-to-end metrics of BENCHMARK.json. Set-up runs SETUPS times and reports
the median. Operations then run for `--seconds` of wall time (at least
MIN_OPS of them, and whole blocks where the workload draws in blocks).
Latency excludes drawing inputs and checking outputs, and throughput is
completed operations per second of operation latency.

Host-speed correction: the shared host's speed for pure-Python work drifts
by up to a third over seconds, which no run length here averages out. Every
set-up and operation is therefore bracketed by a short fixed pure-Python
calibration loop, and its wall time is scaled by REFERENCE_CALIBRATION_S over
the mean of the two calibration times around it. Timed metrics are seconds on
a host where that loop takes REFERENCE_CALIBRATION_S (a 2-vCPU x86_64 VM
with CPython 3.11 when quiet). The raw wall times go to the environment record.

With `--trace 1` the run first measures untraced, then installs wrappers
around the library (see tracer.py), repeats set-up and the first TRACED_OPS
operations, and reports the per-layer metrics of BENCHMARK.json. Counts cover
that fixed traced part, so two traced runs with one seed report the same
counts. `tracing.overhead_s` is the traced median latency minus the untraced
median latency of those same operations. The spans are written to
perfbench/out/.

Every run checks every output and hashes every scheme descriptor and
transcript. The hash of set-up plus the first PIN_OPS operations under the
default seed must equal the one in perfbench/digests.json. Runs with another
seed replay that prefix after measuring. A failed operation, a failed check or
a digest mismatch prints `"correct": false` and exits 1. The last line of
standard output is the JSON result; the environment record goes to standard
error.

Not covered: `find_curve` at large q (here q <= 79), and the `agpir` CLI,
which adds argument parsing and JSON I/O around the same calls.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
OUT = HERE / "out"

SETUPS = 3
MIN_OPS = 6
TRACED_OPS = 6
PIN_OPS = 2
DEFAULT_SEED = 0
REFERENCE_CALIBRATION_S = 0.0045


def calibrate() -> float:
    """Wall time of a fixed pure-Python loop, a probe of the host's current speed."""
    t0 = perf_counter()
    acc = 0
    for i in range(40_000):
        acc = (acc + i * i) % 257
    return perf_counter() - t0


class Run:
    """One workload measured once: set-up, the operation loop, and the digest chain."""

    def __init__(self, cls, seed: int):
        self.cls, self.seed = cls, seed
        self.failed = 0
        self.setup_s: list[float] = []  # host-corrected
        self.latencies: list[float] = []  # host-corrected
        self.wall: list[float] = []  # raw operation wall times
        self.calibrations: list[float] = []
        self.rates: list[tuple[int, int]] = []
        self.op_digests: list[str] = []

    def _corrected(self, wall: float, before: float) -> float:
        after = calibrate()
        self.calibrations.append(after)
        return wall * 2 * REFERENCE_CALIBRATION_S / (before + after)

    def setup(self, times: int, tracer=None, inst=None):
        states = set()
        for _ in range(times):
            w = self.cls(self.seed)
            before = calibrate()
            t0 = perf_counter()
            with tracer.root("bench.setup", "setup") if tracer else nullcontext():
                state = w.setup(inst)
            self.setup_s.append(self._corrected(perf_counter() - t0, before))
            states.add(hashlib.sha256(state).hexdigest())
        if len(states) != 1:
            raise RuntimeError(f"{self.cls.name}: repeated set-up gave different states")
        self.workload, self.setup_digest = w, states.pop()

    def op(self, i: int, tracer=None) -> None:
        w = self.workload
        inputs = w.draw(i)
        error = None
        before = self.calibrations[-1]
        t0 = perf_counter()
        try:
            with tracer.root("bench.op", i) if tracer else nullcontext():
                output = w.run(inputs)
        except Exception:  # a failed operation is counted and reported; the loop goes on
            error = traceback.format_exc()
        wall = perf_counter() - t0
        self.wall.append(wall)
        self.latencies.append(self._corrected(wall, before))
        if error is None:
            try:
                blob = w.check(inputs, output)
            except Exception:
                error = traceback.format_exc()
        if error is not None:
            self.failed += 1
            self.op_digests.append("failed")
            print(f"{w.name} op {i} failed:\n{error}", file=sys.stderr)
            return
        self.rates.append(w.rate(inputs, output))
        self.op_digests.append(hashlib.sha256(blob).hexdigest())

    def loop(self, seconds: float) -> None:
        """Run operations for `seconds`, then up to the end of the workload's block."""
        block = getattr(self.workload, "block_ops", 1)
        start = perf_counter()
        i = 0
        while i < MIN_OPS or i % block or perf_counter() - start < seconds:
            self.op(i)
            i += 1

    def digest(self, ops: int) -> str:
        chain = hashlib.sha256(self.setup_digest.encode())
        for d in self.op_digests[:ops]:
            chain.update(d.encode())
        return chain.hexdigest()


def default_seed_digest(cls, inst=None) -> str | None:
    """Digest of set-up and the first PIN_OPS operations under the default seed.

    The scheme instance does not depend on the seed, so a caller may pass one
    it has built. Returns None if one of those operations failed.
    """
    run = Run(cls, DEFAULT_SEED)
    run.setup(1, inst=inst)
    for i in range(PIN_OPS):
        run.op(i)
    return None if run.failed else run.digest(PIN_OPS)


def end_to_end(run: Run, rss_mb: float) -> dict[str, float]:
    from workloads import rate_of

    lat = run.latencies
    return {
        "setup_s": statistics.median(run.setup_s),
        "latency_p50_s": statistics.median(lat),
        "latency_p90_s": statistics.quantiles(lat, n=10, method="inclusive")[8],
        "throughput_ops_per_s": (len(lat) - run.failed) / sum(lat),
        "peak_rss_mb": rss_mb,
        "rate": float(rate_of(run.rates)) if run.rates else 0.0,
    }


def per_layer(tracer, overhead_s: float, names) -> dict[str, float]:
    from tracer import TARGETS

    labels = {t.label for t in TARGETS}
    summary = tracer.summary()
    out = {}
    for name in names:
        label, kind = name.rsplit(".", 1)
        if name == "tracing.overhead_s":
            out[name] = overhead_s
        elif label in labels:
            value = summary.get(label, {}).get(kind, 0)
            out[name] = value if kind.endswith("_s") else int(value)
        else:
            raise SystemExit(f"per-layer metric {name} names no traced function")
    return out


def measure(cls, seed: int, seconds: float, trace: bool, spec: dict, pins: dict):
    """Measure one workload; returns (metrics, attempted, failed, problems, env)."""
    from tracer import Tracer, installed_wrappers

    problems = []
    leftover = installed_wrappers()
    if leftover:
        raise RuntimeError(f"untraced run found wrappers installed: {leftover}")
    run = Run(cls, seed)
    run.setup(1 if trace else SETUPS)
    run.loop(seconds)

    expected = pins.get(cls.name)
    if seed == DEFAULT_SEED:
        got = run.digest(PIN_OPS)
    else:
        got = default_seed_digest(cls, getattr(run.workload, "inst", None))
    if expected != got:
        problems.append(f"{cls.name}: default-seed digest {got} != pinned {expected}")
    attempted, failed = len(run.latencies), run.failed
    if failed:
        problems.append(f"{cls.name}: {failed} of {attempted} operations failed")

    if trace:
        tracer = Tracer()
        traced = Run(cls, seed)
        tracer.install()
        try:
            traced.setup(1, tracer)
            for i in range(TRACED_OPS):
                traced.op(i, tracer)
        finally:
            tracer.uninstall()
        leftover = installed_wrappers()
        if leftover:
            raise RuntimeError(f"wrappers left installed: {leftover}")
        if traced.op_digests != run.op_digests[:TRACED_OPS]:
            problems.append(f"{cls.name}: traced operations gave different outputs")
        attempted += TRACED_OPS
        failed += traced.failed
        overhead = statistics.median(traced.latencies) - statistics.median(
            run.latencies[:TRACED_OPS]
        )
        metrics = per_layer(tracer, overhead, [m["name"] for m in spec["per_layer"]])
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = end_to_end(run, rss_mb)
        metrics = {m["name"]: values[m["name"]] for m in spec["end_to_end"]}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    ls = [l for l, _ in run.rates] or [0]
    ns = [n for _, n in run.rates] or [0]
    env = {
        "workload": cls.name,
        "seed": seed,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "L": [min(ls), max(ls)],
        "M": getattr(cls, "files", 0),
        "N": [min(ns), max(ns)],
        "ops": len(run.latencies),
        "setup_runs_s": run.setup_s,
        "wall_latency_p50_s": statistics.median(run.wall),
        "wall_latencies_s": run.wall,
        "calibration_s": run.calibrations,
        "digest_all_ops": run.digest(len(run.op_digests)),
    }
    if trace:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{cls.name}-seed{seed}.json"
        path.write_text(json.dumps({"env": env, "spans": [s.as_json() for s in tracer.spans]}))
        env["trace_file"] = str(path.relative_to(ROOT))
    result = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    return result, attempted, failed, problems, env


def pin_digests(names) -> int:
    from workloads import WORKLOADS

    pins = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    for name in names:
        pins[name] = default_seed_digest(WORKLOADS[name])
        if pins[name] is None:
            print(f"{name}: operations failed; not pinning", file=sys.stderr)
            return 1
    DIGESTS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin-digests", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "agpir" / "__init__.py").is_file():
        print(f"library source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]}; choose from {', '.join(WORKLOADS)} or all")
    if args.pin_digests:
        return pin_digests(names)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pins = json.loads(DIGESTS.read_text())
    all_metrics, attempted, failed, problems = {}, 0, 0, []
    for name in names:
        metrics, a, f, p, env = measure(
            WORKLOADS[name], args.seed, args.seconds, bool(args.trace), spec, pins
        )
        attempted, failed, problems = attempted + a, failed + f, problems + p
        print(json.dumps({"env": env}), file=sys.stderr)
        print(f"{name}: L={env['L']} M={env['M']} N={env['N']} ops={a} failed={f} "
              f"failed_ratio={f / a:.4g}")
        for metric, v in metrics.items():
            print(f"  {metric:40s} {v['value']:.6g} {v['unit']}")
        prefix = "" if len(names) == 1 else f"{name}."
        all_metrics.update({prefix + k: v for k, v in metrics.items()})
    for problem in problems:
        print(problem, file=sys.stderr)
    correct = not problems
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": all_metrics}
    ))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
