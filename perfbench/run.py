#!/usr/bin/env python3
"""The enose benchmark.

    python3 perfbench/run.py --workload cls_pca --seed 42 --seconds 10 --trace 0

Run from the root of a checkout.  One client drives the program in a
closed loop, one process at a time: each run is a fresh worker process
(see worker.py) that sets up, makes one timed run and checks its outputs.
Runs repeat until their timed part adds up to --seconds; set-up is
sampled at least MIN_SETUPS times.  With --trace 0 the last line of
stdout is a JSON object with the end-to-end metrics, with --trace 1 one
with the per-module metrics of traced runs, interleaved with untraced runs
so that the tracing overhead is measured too.  Per-run samples, the
environment and the spans go under .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import checks
from workloads import INGEST, NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
MIN_SETUPS = 3
TIME_LIMIT_S = 170.0      # a run is never started that could end past this
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread, within the nproc cap: the program runs on one thread and
# its BLAS calls are small, and on a 2-core machine BLAS threads spinning on
# the other core made run times noisier.
BLAS_THREADS = 1


def environment() -> tuple[dict, dict]:
    """Child environment with BLAS threads capped, and its record."""
    nproc = len(os.sched_getaffinity(0))
    threads = min(BLAS_THREADS, nproc)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.update({var: str(threads) for var in BLAS_VARS})
    record = {"nproc": nproc, "python": platform.python_version(),
              "numpy": metadata.version("numpy"), "blas_threads": threads,
              "machine": platform.machine()}
    return env, record


def quartiles(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": q[1], "q1": q[0], "q3": q[2], "n": len(values)}


def p95(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=20, method="inclusive")[-1]


class Runner:
    def __init__(self, workload: str, seed: int, env: dict):
        self.workload, self.seed, self.env = workload, seed, env
        self.work = STATE / "work" / f"{workload}-{os.getpid()}"
        self.started = time.monotonic()
        self.children: list[dict] = []
        self.spans: list[str] = []

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def spawn(self, mode: str) -> dict:
        k = len(self.children)
        workdir = self.work / f"{k:03d}-{mode}"
        workdir.mkdir(parents=True)
        result = workdir / "result.json"
        spans = STATE / "spans" / f"{self.workload}-seed{self.seed}-{os.getpid()}-{k:03d}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
               "--workload", self.workload, "--seed", str(self.seed),
               "--workdir", str(workdir), "--result", str(result), "--mode", mode,
               "--spans", str(spans), "--spawned-ns", str(time.monotonic_ns())]
        t0 = time.monotonic()
        # own process group, so that a timeout also ends the worker's children
        proc = subprocess.Popen(cmd, env=self.env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            _, stderr = proc.communicate(timeout=max(1.0, TIME_LIMIT_S - self.elapsed()))
        except subprocess.TimeoutExpired:
            stderr = "timed out"
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        code = proc.returncode
        child = {"mode": mode, "wall_s": time.monotonic() - t0}
        if code == 0 and result.exists():
            child.update(json.loads(result.read_text()))
        else:
            child.update(errors=[f"worker {mode} failed (exit {code}): {stderr[-2000:]}"],
                         failed=1, attempted=1)
        if mode == "trace":
            self.spans.append(str(spans.relative_to(ROOT)))
        shutil.rmtree(workdir)
        self.children.append(child)
        return child

    def fits(self, last: dict) -> bool:
        return self.elapsed() + 1.2 * last["wall_s"] < TIME_LIMIT_S

    def measure(self, seconds: float, traced: bool) -> None:
        modes = ("run", "trace") if traced else ("run",)
        timed = 0.0
        while True:
            children = [self.spawn(mode) for mode in modes]
            timed += children[0].get("run_s", 0.0)
            if (timed >= seconds or not self.fits(children[-1])
                    or any("run_s" not in c for c in children)):
                break
        while (sum("setup_s" in c for c in self.children) < MIN_SETUPS
               and self.fits(self.children[-1]) and not traced):
            self.spawn("setup")


def check_runs(workload: str, children: list[dict]) -> list[str]:
    """Workers at the same seed must read the same inputs and write the same bytes."""
    errors = []
    digests = {c["inputs_digest"] for c in children if "inputs_digest" in c}
    if len(digests) > 1:
        errors.append(f"the same seed generated {len(digests)} different input sets")
    runs = [c for c in children if c.get("outputs")]
    key = "streams" if workload == INGEST else "artifacts"
    first = json.dumps(runs[0]["outputs"][key], sort_keys=True) if runs else None
    if any(json.dumps(c["outputs"][key], sort_keys=True) != first for c in runs):
        errors.append("runs at the same seed wrote different bytes")
    return errors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "enose" / "cli.py").is_file():
        print(f"perfbench: no enose sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"]
                for m in declared["per_layer" if args.trace else "end_to_end"]}

    STATE.mkdir(exist_ok=True)
    (STATE / "spans").mkdir(exist_ok=True)
    (STATE / "results").mkdir(exist_ok=True)
    env, env_record = environment()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))   # unwind, ending workers
    with open(STATE / "lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)    # never two workloads at once
        runner = Runner(args.workload, args.seed, env)
        try:
            runner.measure(args.seconds, bool(args.trace))
        finally:
            shutil.rmtree(runner.work, ignore_errors=True)
    children = runner.children

    errors = [e for c in children for e in c.get("errors", [])]
    errors += check_runs(args.workload, children)
    runs = [c for c in children if c["mode"] == "run" and "run_s" in c]
    traced = [c for c in children if c["mode"] == "trace" and "trace" in c]
    setups = [c["setup_s"] for c in children if "setup_s" in c]
    if not runs or not setups or (args.trace and not traced):
        print("perfbench: no run completed\n" + "\n".join(errors[:20]), file=sys.stderr)
        return 1
    run_s = [c["run_s"] for c in runs]
    latencies = [x for c in runs for x in c["latencies_s"]]
    summary = {"run_s": quartiles(run_s), "setup_s": quartiles(setups),
               "op_latency_s": quartiles(latencies)}

    if args.trace:
        metrics = {}
        for key in traced[0]["trace"]:
            metrics[key] = statistics.median(c["trace"][key] for c in traced)
        traced_s = statistics.median(c["run_s"] for c in traced)
        metrics["trace.overhead_frac"] = traced_s / summary["run_s"]["median"] - 1.0
        ref = checks.reference_for(args.workload, args.seed)
        base = ref if ref is not None else runs[0]["outputs"]
        metrics["report.artifacts_identical"] = checks.identical_artifacts(
            traced[0]["outputs"], base)
        if metrics["trace.unattributed_frac"] > 0.05:
            print(f"perfbench: warning: spans miss "
                  f"{metrics['trace.unattributed_frac']:.1%} of the run", file=sys.stderr)
    else:
        metrics = {
            "setup_s": summary["setup_s"]["median"],
            "run_s": summary["run_s"]["median"],
            "op_p50_ms": 1e3 * summary["op_latency_s"]["median"],
            "op_p95_ms": 1e3 * p95(latencies),
            "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in runs),
        }
    missing = sorted(set(declared) - set(metrics))
    if missing:
        errors.append(f"metrics declared in BENCHMARK.json but not measured: {missing}")

    attempted = sum(c.get("attempted", 0) for c in children)
    failed = sum(c.get("failed", 0) for c in children)
    correct = not errors
    stamp = time.strftime("%Y%m%dT%H%M%S")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env_record, "summary": summary,
              "metrics": metrics, "correct": correct, "attempted": attempted,
              "failed": failed, "errors": errors[:50], "spans": runner.spans,
              "runs": [{k: v for k, v in c.items() if k not in ("outputs", "latencies_s")}
                       for c in children]}
    results = STATE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    results.write_text(json.dumps(record, indent=1))

    for e in errors[:20]:
        print(f"perfbench: error: {e}", file=sys.stderr)
    print("env: " + " ".join(f"{k}={v}" for k, v in env_record.items()))
    for name, q in summary.items():
        print(f"{name}: median {q['median']:.6g} q1 {q['q1']:.6g} q3 {q['q3']:.6g} n {q['n']}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": unit}
                    for k, unit in declared.items() if k in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
