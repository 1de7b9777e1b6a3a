"""The benchmark's workloads.

The three `bench` workloads are one `enose bench` command each; their
operation is the whole run.  `ingest_files` feeds seeded dirty frame files
through `enose ingest` then `enose preprocess`; its operation is one
stream.  `n_train`/`n_test` are the pinned split sizes of the table.
"""

BENCH = {
    "cls_pca": {"argv": ["bench", "--table", "ternary"],
                "regression": False, "n_train": 550, "n_test": 50},
    "cls_kpca": {"argv": ["bench", "--table", "ternary", "--features", "kpca"],
                 "regression": False, "n_train": 550, "n_test": 50},
    "reg_mlp": {"argv": ["bench", "--table", "binary-ethanol", "--regression"],
                "regression": True, "n_train": 600, "n_test": 80},
}
INGEST = "ingest_files"
NAMES = (*BENCH, INGEST)
