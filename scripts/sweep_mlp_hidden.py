#!/usr/bin/env python3
"""Sweep the regressor's hidden-layer width on one mixture table.

The right hidden size is an empirical matter; this prints test rmse/mae/r2
for a range of widths so the trade-off is visible at a glance.  Every
other setting comes from the --config file (the same `key = value` file
`enose bench --config` reads).  A failure exits 2 with an
`error [stage=...]` line, as `enose` does.
"""

import argparse
import sys

from enose.bench import get_table, prepare_features, run_regression_experiment
from enose.cli import TABLE_CHOICES, parse_seed, pipeline_config, run_tagged


def run(args) -> int:
    base = pipeline_config(args)
    # every width is parsed and checked as a config file's, before the first one trains
    configs = [base.updated({"mlp_hidden": w}) for w in args.widths.split(",")]
    table = get_table(args.table)
    prepared = prepare_features(table, base, args.seed)

    print(f"table={table.id} seed={args.seed} epochs={base.mlp_epochs}")
    print(f"{'hidden':>7} {'rmse_ppm':>9} {'mae_ppm':>9} {'r2':>8} {'epochs_run':>11}")
    for config in configs:
        rep = run_regression_experiment(table, config, args.seed,
                                        prepared=prepared)
        r2 = "undef" if rep.r2 is None else f"{rep.r2:8.4f}"
        print(f"{config.mlp_hidden:>7} {rep.rmse_ppm:9.3f} {rep.mae_ppm:9.3f} {r2:>8} "
              f"{len(rep.loss_trace):>11}")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--table", default="binary-ethanol", choices=TABLE_CHOICES)
    ap.add_argument("--seed", type=parse_seed, default=42)
    ap.add_argument("--widths", default="4,8,16,32",
                    help="comma-separated hidden sizes")
    ap.add_argument("--config", default=None, help="flat key = value config file")
    return run_tagged("sweep_mlp_hidden", run, ap.parse_args())


if __name__ == "__main__":
    sys.exit(main())
