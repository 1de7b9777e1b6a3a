#!/usr/bin/env python3
"""Run the three mixture experiments end to end and print a summary.

Classification accuracy plus the acetone-regression metrics for each
built-in table, on one seed, with the settings of the --config file (the
same `key = value` file `enose bench --config` reads).  Reports land in
--out/<table>/ when given.  A failure exits 2 with an `error [stage=...]`
line, as `enose` does.
"""

import argparse
import sys
import time

from enose.bench import (TABLES, run_experiment, run_regression_experiment,
                         prepare_features)
from enose.cli import parse_seed, pipeline_config, run_tagged
from enose.report import emit_report


def run(args) -> int:
    config = pipeline_config(args)
    print(f"seed={args.seed} features={config.features} "
          f"noise={config.noise_sigma}")
    print(f"{'table':<18} {'accuracy':>9} {'rmse_ppm':>9} {'mae_ppm':>9} "
          f"{'r2':>7} {'time_s':>7}")
    for table_id, table in TABLES.items():
        t0 = time.perf_counter()
        prepared = prepare_features(table, config, args.seed)
        cls = run_experiment(table, config, args.seed, prepared=prepared)
        reg = run_regression_experiment(table, config, args.seed,
                                        prepared=prepared)
        wall = time.perf_counter() - t0
        r2 = "undef" if reg.r2 is None else f"{reg.r2:7.4f}"
        print(f"{table_id:<18} {cls.accuracy:9.4f} {reg.rmse_ppm:9.3f} "
              f"{reg.mae_ppm:9.3f} {r2:>7} {wall:7.1f}")
        if args.out:
            emit_report(cls, f"{args.out}/{table_id}")
            emit_report(reg, f"{args.out}/{table_id}/regression")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=parse_seed, default=42)
    ap.add_argument("--out", default=None, help="directory for report files")
    ap.add_argument("--config", default=None, help="flat key = value config file")
    return run_tagged("run_all_tables", run, ap.parse_args())


if __name__ == "__main__":
    sys.exit(main())
