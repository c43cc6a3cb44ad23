#!/usr/bin/env python3
"""End-to-end benchmark of the APT train -> freeze -> serve stack.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a source checkout. The first call builds
perfbench/CMakeLists.txt (the library plus the benchmark program) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later calls only
re-check the build. Every workload runs with APT_GEMM_BACKEND=int8 in its
environment, so each layer with <= 8-bit weights takes the integer kernels.

With --trace 0 the run repeats the workload, one process per repetition,
for about --seconds and prints the end-to-end metrics. With --trace 1 it
makes one untraced and one traced repetition of the same seed, checks
that the traced training History equals the untraced one, and prints the
per-layer metrics. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Any failed check prints correct=false and exits 1. perfbench/README.md
lists every workload and metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("train_apt", "train_apt_int8", "train_fp32", "serve_closed")

# End-to-end metrics, reported by every workload (--trace 0).
END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_us": "us",
    "peak_rss_mb": "MB",
    "ops_ok_share": "fraction",
}

# Per-layer timings (--trace 1): each is reported as its median, the
# highest percentile with at least ten samples beyond it (".tail", with
# that percentile as ".tail_pct") and the sample count (".n").
TIMINGS = {
    "data.wait_ms": "ms",
    "data.synth_ms": "ms",
    "nn.forward_ms": "ms",
    "nn.backward_ms": "ms",
    "core.controller_ms": "ms",
    "train.update_ms": "ms",
    "train.eval_ms": "ms",
    "train.iteration_ms": "ms",
    "trace.unattributed_ms": "ms",
    "serve.compile_ms": "ms",
    "io.save_ms": "ms",
    "io.load_ms": "ms",
    "serve.run_b1_us": "us",
    "serve.run_b8_us_per_sample": "us",
    "serve.latency_us": "us",
}
SCALARS = {
    "train.run_s": "s",
    "train.test_accuracy": "fraction",
    "serve.top1_agreement": "fraction",
    "nn.int8_fwd_share": "fraction",
    "nn.int8_bwd_share": "fraction",
    "nn.codes_consumed_share": "fraction",
    "nn.plan_cache_hit_ratio": "fraction",
    "core.bits_mean": "bits",
    "core.policy_decisions": "count",
    "quant.underflow_fraction": "fraction",
    "cost.energy_j": "J",
    "cost.model_memory_mb": "MB",
    "serve.mean_batch": "requests",
    "serve.wait_us": "us",
    "serve.arena_bytes": "bytes",
    "serve.arena_growth_bytes": "bytes",
    "serve.shed": "count",
    "serve.rejected": "count",
    "serve.mismatched": "count",
    "trace.overhead": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name, unit in TIMINGS.items():
        units[name] = unit
        units[name + ".tail"] = unit
        units[name + ".tail_pct"] = "%"
        units[name + ".n"] = "count"
    units.update(SCALARS)
    return units


# Share of the traced iteration time that the spans must cover.
UNATTRIBUTED_TOLERANCE = 0.05
# A run of a child process may not outlast the benchmark's own limit.
CHILD_DEADLINE_S = 170.0
# serve_closed sets up this many times per untraced run.
SERVE_REPS = 5
# Pool threads per workload process. On a VM shared with other tenants a
# step spread over every vCPU waits for the slowest one (README.md,
# design notes); on 2 threads the median iteration repeats within a few
# percent.
POOL_THREADS = "2"


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, build failure)."""


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def build() -> Path:
    """Configures (once) and builds the benchmark program; returns it."""
    for needed in ("CMakeLists.txt", "src/CMakeLists.txt"):
        if not (ROOT / needed).is_file():
            raise BenchError(f"no source tree: {ROOT / needed} is missing")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    cache = build_dir / "CMakeCache.txt"
    if cache.is_file() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}" not in cache.read_text():
        shutil.rmtree(build_dir)  # configured for another checkout
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not cache.is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "apt_perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("build failed: " + " ".join(cmd))
    return build_dir / "apt_perfbench"


class Runner:
    """Runs repetitions of one workload, one process each."""

    def __init__(self, binary: Path, workload: str, tiny: bool):
        self.binary = binary
        self.workload = workload
        self.tiny = tiny
        self.started = time.monotonic()
        self.scratch = binary.parent / "scratch"
        self.scratch.mkdir(exist_ok=True)
        self.env = dict(os.environ, APT_GEMM_BACKEND="int8",
                        APT_NUM_THREADS=POOL_THREADS)

    def rep(self, seed: int, traced: bool = False, serve_seconds: float = 0.0) -> dict:
        cmd = [str(self.binary), self.workload, "--seed", str(seed),
               "--scratch", str(self.scratch)]
        if traced:
            cmd.append("--trace")
        if self.tiny:
            cmd.append("--tiny")
        if serve_seconds:
            cmd += ["--serve-seconds", f"{serve_seconds:.3f}"]
        left = CHILD_DEADLINE_S - (time.monotonic() - self.started)
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True,
                                  text=True, timeout=max(left, 1.0))
        except subprocess.TimeoutExpired as e:
            raise BenchError(f"{' '.join(cmd)} timed out") from e
        if proc.stderr:
            log(proc.stderr.rstrip())
        lines = proc.stdout.strip().splitlines()
        if not lines:
            raise BenchError(f"{' '.join(cmd)} exited {proc.returncode} with no record")
        record = json.loads(lines[-1])
        record["exit_code"] = proc.returncode
        return record


def percentile(values: list[float], p: float) -> float:
    s = sorted(values)
    pos = (len(s) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def tail_of(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if len(values) * (1.0 - p / 100.0) >= 10:
            return p, percentile(values, p)
    return 50.0, percentile(values, 50.0)


def check_record(rec: dict, problems: list[str]) -> None:
    if rec["exit_code"] != 0:
        problems.append(f"{rec['workload']} seed {rec['seed']:.0f} exited {rec['exit_code']}")
    if rec.get("params_finite") is False:
        problems.append(f"{rec['workload']}: non-finite final parameters")
    if rec.get("serve.mismatched", 0):
        problems.append(f"serve_closed: {rec['serve.mismatched']:.0f} responses differ "
                        "from batch-1 runs")


def end_to_end(runner: Runner, seed: int, seconds: float) -> tuple[dict, list[dict]]:
    """Repeats the workload untraced for about `seconds`."""
    reps: list[dict] = []
    if runner.workload == "serve_closed":
        for _ in range(SERVE_REPS):
            # Set-up, references and a warm-up pass precede each window.
            reps.append(runner.rep(seed, serve_seconds=max(seconds / SERVE_REPS - 0.6, 0.1)))
        # Medians over blocks of one pass each, as training takes the
        # median iteration: they skip the host's slow spells.
        blocks = [x for r in reps for x in r["block_s"]]
        values = {
            "throughput_per_s": reps[0]["block_requests"] / statistics.median(blocks),
            "latency_p50_us": statistics.median(x for r in reps for x in r["latencies_us"]),
        }
    else:
        t0 = time.monotonic()
        while True:
            r0 = time.monotonic()
            reps.append(runner.rep(seed))
            took = time.monotonic() - r0
            if time.monotonic() - t0 + took > seconds:
                break
        intervals = [x for r in reps for x in r["intervals_ms"]]
        values = {
            "throughput_per_s": reps[0]["batch"] * 1e3 / statistics.median(intervals),
            "latency_p50_us": statistics.median(intervals) * 1e3,
        }
    values["setup_s"] = statistics.median(x for r in reps for x in r["setup_s"])
    values["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in reps)
    attempted = sum(int(r["attempted"]) for r in reps)
    failed = sum(int(r["failed"]) for r in reps)
    values["ops_ok_share"] = 1.0 - failed / attempted
    return values, reps


def history_differences(a: list[dict], b: list[dict]) -> list[str]:
    if len(a) != len(b):
        return [f"{len(a)} epochs against {len(b)}"]
    return [f"epoch {x['epoch']:.0f} {k}: {x[k]} != {y[k]}"
            for x, y in zip(a, b) for k in x if x[k] != y[k]]


def per_layer(runner: Runner, seed: int, seconds: float) -> tuple[dict, list[dict], list[str]]:
    """One traced repetition (plus an untraced one for training)."""
    problems: list[str] = []
    values = {name: 0.0 for name in per_layer_units()}
    if runner.workload == "serve_closed":
        traced = runner.rep(seed, traced=True, serve_seconds=max(seconds - 4.0, 0.5))
        reps = [traced]
        lat = traced["latencies_us"]
        b1 = statistics.median(traced["serve.run_b1_us"])
        b8 = statistics.median(traced["serve.run_b8_us_per_sample"]) * 8
        mean_batch = traced["serve.mean_batch"]
        traced["serve.latency_us"] = lat
        values.update({
            "serve.wait_us": statistics.median(lat) - (b1 + (b8 - b1) * (mean_batch - 1) / 7),
            "serve.top1_agreement": traced["accuracy"],
        })
        for key in ("serve.mean_batch", "serve.arena_bytes", "serve.arena_growth_bytes",
                    "serve.shed", "serve.rejected", "serve.mismatched"):
            values[key] = traced[key]
    else:
        untraced = runner.rep(seed)
        traced = runner.rep(seed, traced=True)
        reps = [untraced, traced]
        for diff in history_differences(untraced["history"], traced["history"]):
            problems.append(f"{runner.workload}: traced History differs: {diff}")
        unattributed = sum(traced["trace.unattributed_ms"]) / sum(traced["train.iteration_ms"])
        if unattributed > UNATTRIBUTED_TOLERANCE:
            problems.append(f"{runner.workload}: spans leave {unattributed:.1%} of the "
                            f"iteration time unattributed (> {UNATTRIBUTED_TOLERANCE:.0%})")
        values["trace.overhead"] = (statistics.median(traced["train.iteration_ms"])
                                    / statistics.median(untraced["intervals_ms"]))
        for key in ("nn.int8_fwd_share", "nn.int8_bwd_share", "nn.codes_consumed_share",
                    "nn.plan_cache_hit_ratio"):
            values[key] = traced[key]
        values.update({
            "train.run_s": untraced["run_s"],
            "train.test_accuracy": traced["accuracy"],
            "core.bits_mean": traced["bits_mean"],
            "core.policy_decisions": traced["policy_decisions"],
            "quant.underflow_fraction": traced["underflow_fraction"],
            "cost.energy_j": traced["energy_j"],
            "cost.model_memory_mb": traced["model_memory_mb"],
        })
    for name in TIMINGS:
        samples = traced.get(name) or []
        if samples:
            pct, tail = tail_of(samples)
            values.update({name: statistics.median(samples), name + ".tail": tail,
                           name + ".tail_pct": pct, name + ".n": float(len(samples))})
    return values, reps, problems


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    binary = build()
    runner = Runner(binary, workload, tiny)
    if trace:
        values, reps, problems = per_layer(runner, seed, seconds)
        units = per_layer_units()
    else:
        values, reps = end_to_end(runner, seed, seconds)
        problems = []
        units = END_TO_END
    for rec in reps:
        check_record(rec, problems)
    for p in problems:
        log("CHECK FAILED: " + p)
    return {
        "correct": not problems,
        "attempted": sum(int(r["attempted"]) for r in reps),
        "failed": sum(int(r["failed"]) for r in reps),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def selftest() -> int:
    """Runs a tiny configuration of every workload, traced and untraced,
    on two seeds, and checks that each run passes its checks and prints
    every metric BENCHMARK.json names."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {False: [m["name"] for m in spec["end_to_end"]],
              True: [m["name"] for m in spec["per_layer"]]}
    names = [w["name"] for w in spec["workloads"]]
    bad = 0
    for workload in names:
        for seed in (1, 2):
            for trace in (False, True):
                result = run(workload, seed, 1.0, trace, tiny=True)
                missing = [m for m in wanted[trace] if m not in result["metrics"]]
                ok = result["correct"] and not missing and result["failed"] == 0
                bad += not ok
                log(f"selftest {workload} seed {seed} trace {int(trace)}: "
                    f"{'ok' if ok else 'FAILED'}" + (f" missing {missing}" if missing else ""))
    return 1 if bad else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    try:
        if args.selftest:
            return selftest()
        if args.workload is None:
            ap.error("--workload is required")
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
