"""One benchmark process: set up, run the workload once, check what it wrote.

run.py starts one worker per run so that each run has its own peak RSS.
The worker writes its result as JSON to --result.  Modes:

    setup  set up, record setup_s and stop
    run    set up, then one untraced timed run
    trace  set up, then one timed run with every module's spans recorded

setup_s runs from the moment run.py starts the process (--spawned-ns, on
the monotonic clock) to the first timed call: interpreter start, imports,
the warm-up of the sensor-array cache and, for `ingest_files`, writing
the input files.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import checks
import streams as streamgen
import tracing
from workloads import BENCH, INGEST


def _call(cli, argv: list[str]) -> int:
    """`enose <argv>` in-process; the exit code it would have returned."""
    try:
        return cli.main([str(a) for a in argv])
    except SystemExit as exc:   # argparse rejected the command line
        return exc.code if isinstance(exc.code, int) else 2


def _run_bench(cli, spec: dict, seed: int, out: Path, root_span) -> dict:
    argv = spec["argv"] + ["--seed", seed, "--out", out]
    with root_span:
        t0 = time.perf_counter()
        rc = _call(cli, argv)
        run_s = time.perf_counter() - t0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    errors, outputs = [], {}
    if rc != 0:
        errors.append(f"enose bench exited {rc}")
    else:
        outputs = checks.collect_bench(out, spec["regression"])
        ref = checks.reference_for(spec["name"], seed)
        errors = checks.check_bench(outputs, spec["regression"], spec["n_train"],
                                    spec["n_test"], ref)
    return {"run_s": run_s, "latencies_s": [run_s], "peak_rss_mb": peak,
            "attempted": 1, "failed": int(bool(errors)), "errors": errors,
            "outputs": outputs}


def _run_ingest(cli, streams: list, seed: int, out: Path, root_span) -> dict:
    sessions, processed = out / "session", out / "processed"
    sessions.mkdir(parents=True)
    processed.mkdir()
    latencies, codes = [], []
    with root_span:
        t_start = time.perf_counter()
        for s in streams:
            t0 = time.perf_counter()
            rc = _call(cli, s.ingest_argv(sessions / f"{s.name}.csv"))
            if rc == 0:
                rc = _call(cli, ["preprocess", "--in", sessions / f"{s.name}.csv",
                                 "--out", processed / f"{s.name}.csv"])
            latencies.append(time.perf_counter() - t0)
            codes.append(rc)
        run_s = time.perf_counter() - t_start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    errors, failed, per_stream = [], 0, {}
    for s, rc in zip(streams, codes):
        if rc != 0:
            stream_errors = [f"{s.name}: ingest/preprocess exited {rc}"]
        else:
            per_stream[s.name], stream_errors = checks.collect_stream(
                s, sessions / f"{s.name}.csv", processed / f"{s.name}.csv")
        failed += bool(stream_errors)
        errors += stream_errors
    outputs = {"inputs_digest": streamgen.inputs_digest(streams),
               "blank_fields": sum(s.blank_fields for s in streams),
               "malformed_lines": sum(s.malformed_lines for s in streams),
               "streams": per_stream}
    if not errors:
        errors = checks.check_streams_reference(outputs, checks.reference_for(INGEST, seed))
        failed += bool(errors)
    return {"run_s": run_s, "latencies_s": latencies, "peak_rss_mb": peak,
            "attempted": len(streams), "failed": failed, "errors": errors,
            "outputs": outputs}


def _input_counters(streams: list | None) -> dict:
    if not streams:
        return {"acquisition.dirty_line_frac": 0.0, "acquisition.imputed_fields": 0,
                "acquisition.malformed_lines": 0}
    lines = sum(s.lines for s in streams)
    blank = sum(s.blank_fields for s in streams)
    malformed = sum(s.malformed_lines for s in streams)
    return {"acquisition.dirty_line_frac": (blank + malformed) / lines,
            "acquisition.imputed_fields": blank,
            "acquisition.malformed_lines": malformed}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", required=True, type=Path)
    ap.add_argument("--workload", required=True, choices=(*BENCH, INGEST))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--workdir", required=True, type=Path)
    ap.add_argument("--result", required=True, type=Path)
    ap.add_argument("--spawned-ns", required=True, type=int)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    ap.add_argument("--spans", type=Path, help="span file for --mode trace")
    args = ap.parse_args(argv)

    src = args.root / "src"
    sys.path.insert(0, str(src))
    from enose import cli, sensors

    sensors.default_sensor_array()
    streams = None
    if args.workload == INGEST:
        streams = streamgen.make_streams(src, args.seed, args.workdir)
    setup_s = (time.monotonic_ns() - args.spawned_ns) / 1e9

    result: dict = {"setup_s": setup_s}
    if streams is not None:
        result["inputs_digest"] = streamgen.inputs_digest(streams)
    if args.mode != "setup":
        tracer = tracing.Tracer() if args.mode == "trace" else None
        if tracer is not None:
            tracer.install()
        root_span = tracer.root() if tracer is not None else nullcontext()
        out = args.workdir / "out"
        if streams is None:
            spec = {"name": args.workload, **BENCH[args.workload]}
            result.update(_run_bench(cli, spec, args.seed, out, root_span))
        else:
            result.update(_run_ingest(cli, streams, args.seed, out, root_span))
        if tracer is not None:
            result["errors"] += tracer.check()
            outputs = result["outputs"]
            result["trace"] = {
                **tracer.metrics(), **_input_counters(streams),
                "report.accuracy": outputs.get("accuracy", 0.0),
                "report.rmse_ppm": outputs.get("rmse_ppm", 0.0),
            }
            tracer.dump(args.spans, {"workload": args.workload, "seed": args.seed})
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
