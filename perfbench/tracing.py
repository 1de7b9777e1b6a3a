"""Span tracing of the enose modules from outside the program.

`Tracer.install` wraps the public functions named in `LAYER_FUNCTIONS` and
rebinds every `enose.*` module name that refers to one of them, so calls
made through `from .x import f` bindings are traced as well as calls made
through the defining module.  Spans (name, start, end, parent) stay in
memory until the run ends; `Tracer.metrics` turns them into per-function
call counts and self times, of which run.py reports those BENCHMARK.json
lists.  A span's self time is its duration minus the durations of its
direct children, so the self times of all spans sum to the duration of
the root span.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

ROOT = "run"

# Public functions traced per module.  `modelio` and `config` stay
# unmeasured: no workload spends a measurable share of its time there.
LAYER_FUNCTIONS = {
    "sensors": ("simulate_session",),
    "acquisition": ("parse_stream", "frame_lines", "read_session", "write_session"),
    "preprocess": ("process_session", "write_processed"),
    "features": ("extract_features", "pca_fit", "kpca_fit", "kpca_transform",
                 "write_features_csv"),
    "eigen": ("jacobi_eigh",),
    "svm": ("svm_train_binary", "svm_predict"),
    "mlp": ("mlp_train", "mlp_forward"),
    "bench": ("build_sessions", "reingest", "stratified_split", "prepare_features",
              "run_experiment", "run_regression_experiment"),
    "report": ("emit_report",),
    "cli": ("main",),
}

# Counters read from the functions' return values by the hooks below.
COUNTERS = (
    "acquisition.frames", "acquisition.streams_rejected",
    "features.retained_k", "features.gram_n", "eigen.max_n",
    "svm.smo_iters", "svm.support_vectors",
    "mlp.epochs_run", "mlp.stopped_on_plateau", "mlp.final_loss",
    "trace.hook_errors",
)


def _on_parse_stream(c, args, out):
    c["acquisition.frames"] += len(out.t_ms)


def _on_jacobi(c, args, out):
    c["eigen.max_n"] = max(c["eigen.max_n"], len(args[0]))


def _on_pca_fit(c, args, out):
    c["features.retained_k"] = out.retained_k


def _on_kpca_fit(c, args, out):
    c["features.retained_k"] = out.retained_k
    c["features.gram_n"] = len(out.x_train)


def _on_svm_train(c, args, out):
    c["svm.smo_iters"] += out.n_iter
    c["svm.support_vectors"] += len(out.support_vectors)


def _on_mlp_train(c, args, out):
    epochs = len(out.loss_trace)
    c["mlp.epochs_run"] = epochs
    c["mlp.stopped_on_plateau"] = int(epochs < out.config.epochs)
    c["mlp.final_loss"] = float(out.loss_trace[-1])


HOOKS = {
    "acquisition.parse_stream": _on_parse_stream,
    "eigen.jacobi_eigh": _on_jacobi,
    "features.pca_fit": _on_pca_fit,
    "features.kpca_fit": _on_kpca_fit,
    "svm.svm_train_binary": _on_svm_train,
    "mlp.mlp_train": _on_mlp_train,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.counters = dict.fromkeys(COUNTERS, 0)

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self):
        """The span around the timed run; its self time is unattributed."""
        idx = self._open(ROOT)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        counters = self.counters
        counts_rejects = name == "acquisition.parse_stream"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if counts_rejects and type(exc).__name__ == "StreamError":
                    counters["acquisition.streams_rejected"] += 1
                raise
            finally:
                self._close(idx)
            if hook is not None:
                try:
                    hook(counters, args, out)
                except (AttributeError, TypeError, IndexError):
                    counters["trace.hook_errors"] += 1
            return out

        return traced

    def install(self) -> list[str]:
        """Wrap every named function that exists; return the span names."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "enose" or n.startswith("enose."))]
        installed = []
        for layer, names in LAYER_FUNCTIONS.items():
            mod = sys.modules.get(f"enose.{layer}")
            for fname in names:
                fn = getattr(mod, fname, None)
                if fn is None:
                    continue
                traced = self._wrap(f"{layer}.{fname}", fn)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, attr, traced)
                installed.append(f"{layer}.{fname}")
        return installed

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        return [self.ends[i] - self.starts[i] - child[i] for i in range(len(self.names))]

    def check(self) -> list[str]:
        """Tracer consistency: closed, nested spans whose self times add up."""
        errors = []
        if self._stack:
            errors.append(f"{len(self._stack)} spans left open")
        roots = [i for i, p in enumerate(self.parents) if p < 0]
        if len(roots) != 1 or self.names[roots[0]] != ROOT:
            errors.append(f"expected one root span {ROOT!r}, found {len(roots)}")
            return errors
        for i, p in enumerate(self.parents):
            if p >= 0 and not (self.starts[p] <= self.starts[i] <= self.ends[i] <= self.ends[p]):
                errors.append(f"span {self.names[i]} escapes its parent {self.names[p]}")
                break
        total = sum(self.self_times())
        root_s = self.ends[roots[0]] - self.starts[roots[0]]
        if abs(total - root_s) > 1e-6 * max(1.0, root_s):
            errors.append(f"self times sum to {total!r} s, root span is {root_s!r} s")
        return errors

    def metrics(self) -> dict[str, float]:
        selfs = self.self_times()
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for name, s in zip(self.names, selfs):
            calls[name] += 1
            self_s[name] += s
        out: dict[str, float] = {}
        for layer, names in LAYER_FUNCTIONS.items():
            for fname in names:
                span = f"{layer}.{fname}"
                out[f"{span}.calls"] = calls[span]
                out[f"{span}.self_s"] = self_s[span]
        out["cli.self_s"] = self_s["cli.main"]
        root_s = self.ends[0] - self.starts[0]
        out["trace.unattributed_frac"] = self_s[ROOT] / root_s
        out.update(self.counters)
        return out

    def dump(self, path, extra: dict) -> None:
        spans = [[n, s, e, p] for n, s, e, p in
                 zip(self.names, self.starts, self.ends, self.parents)]
        path.write_text(json.dumps({**extra, "fields": ["name", "start_s", "end_s", "parent"],
                                    "spans": spans}))
