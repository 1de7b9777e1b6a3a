#!/usr/bin/env python3
"""Record the reference outputs that every benchmark run is checked against.

    python3 perfbench/record_reference.py [--workloads cls_pca ...] [--seeds 42 7]

Run from the root of a checkout of the commit whose outputs are correct.
Each workload runs once per seed in a worker process; its outputs (labels,
scores, metrics, processed-value summaries and artifact digests) go to
perfbench/reference/<workload>-<seed>.json.  Re-recording changes what
the benchmark accepts, so do it only when an output change is intended.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from checks import REFERENCE_DIR, REFERENCE_SEEDS
from run import ROOT, environment
from workloads import NAMES


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", nargs="+", choices=NAMES, default=list(NAMES))
    ap.add_argument("--seeds", nargs="+", type=int, default=list(REFERENCE_SEEDS))
    args = ap.parse_args()
    env, _ = environment()
    REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in args.workloads:
        for seed in args.seeds:
            target = REFERENCE_DIR / f"{workload}-{seed}.json"
            target.unlink(missing_ok=True)
            with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
                result = Path(tmp) / "result.json"
                subprocess.run(
                    [sys.executable, str(Path(__file__).with_name("worker.py")),
                     "--root", str(ROOT), "--workload", workload, "--seed", str(seed),
                     "--workdir", tmp, "--result", str(result), "--mode", "run",
                     "--spawned-ns", str(time.monotonic_ns())],
                    env=env, check=True, stdout=subprocess.DEVNULL)
                run = json.loads(result.read_text())
            if run["errors"]:
                print(f"{workload} seed {seed}: {run['errors'][:5]}", file=sys.stderr)
                return 1
            target.write_text(json.dumps(run["outputs"], indent=0, sort_keys=True) + "\n")
            print(f"recorded {target.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
