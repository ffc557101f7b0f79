"""Spans around the program's public functions, installed from outside.

A Tracer replaces each function named in TARGETS, wherever the e2credit
package holds a reference to it, by a wrapper that records one span: name,
start and end (perf_counter_ns), the index of the enclosing span in the same
thread, and a few counts taken from the call's arguments and result. Spans
stay in memory until dump() writes them out at the end of the process.

Run as a script it traces one program process:

    python3 perfbench/tracer.py --out spans.json [--refit] cli <e2credit args>
    python3 perfbench/tracer.py --out spans.json [--refit] seeds <seedsloop args>

--refit grows every forest of the process again with workers=2 after the
command, each in a span of its own, for forest.fit_two_workers_s.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import threading
import time
import warnings
from contextlib import contextmanager


def _rows(X) -> int:
    return 1 if getattr(X, "ndim", 2) == 1 else len(X)


# Per layer (module of the program): traced callables, each with a function
# of (args, kwargs, result) giving the span's counts.
TARGETS = {
    "snapshots": {
        "read_snapshots": lambda a, k, r: {"rows": len(r)},
        "build_records": lambda a, k, r: {
            "priced": sum(1 for s in r[1].values() if s.ok),
            "failed": sum(1 for s in r[1].values() if not s.ok),
        },
        "write_spread_csv": None,
    },
    "structural": {"creditgrades_spread": None},
    "dataset": {
        "drop_incomplete": lambda a, k, r: {"rows": len(r)},
        "FeatureEncoder.fit": None,
        "FeatureEncoder.transform": lambda a, k, r: {"rows": r.n_rows},
        "split_in_out": lambda a, k, r: {"rows": r.in_sample.n_rows},
    },
    "forest": {
        "fit_forest": lambda a, k, r: {
            "trees": r.n_trees, "nodes": sum(t.n_nodes for t in r.trees)},
        "Forest.predict": lambda a, k, r: {"rows": _rows(a[1]) * a[0].n_trees},
        "RegressionTree.predict": lambda a, k, r: {"rows": _rows(a[1])},
        "save_forest": lambda a, k, r: {"bytes": os.path.getsize(a[1])},
        "load_forest": None,
    },
    "importance": {
        "mdi_importance": None,
        "permutation_importance": None,  # counts come from its warnings
        "importance_report": None,
    },
    "metrics": {
        "r_squared_arrays": None,
        "accuracy_metrics": None,
        "avg_correlation": None,
        "group_pairs": None,
        "bucket_comparison": None,
    },
    "synth": {"generate_snapshots": None},
    "cli": {f"cmd_{c}": None for c in ("spread", "train", "evaluate", "importance")},
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, counts]
        self._lock = threading.Lock()
        self._local = threading.local()
        self._fits: list = []  # fit_forest calls: (function, args, kwargs)

    def _open(self, name: str) -> tuple[list, list]:
        stack = self._local.__dict__.setdefault("stack", [])
        record = [name, 0, 0, stack[-1] if stack else -1, None]
        with self._lock:
            stack.append(len(self.spans))
            self.spans.append(record)
        record[1] = time.perf_counter_ns()
        return record, stack

    @contextmanager
    def span(self, name: str):
        record, stack = self._open(name)
        try:
            yield record
        finally:
            record[2] = time.perf_counter_ns()
            stack.pop()

    def wrap(self, name: str, fn, counts):
        # The span is opened and closed inline rather than through span():
        # per-row functions are wrapped, and a generator-based context
        # manager costs several microseconds a call.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record, stack = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter_ns()
                stack.pop()
            if counts is not None:
                record[4] = counts(args, kwargs, result)
            return result

        return traced

    def wrap_fit(self, name: str, fn, counts):
        traced = self.wrap(name, fn, counts)

        @functools.wraps(fn)
        def remembering(*args, **kwargs):
            self._fits.append((fn, args, kwargs))
            return traced(*args, **kwargs)

        return remembering

    def wrap_vi(self, name: str, fn, counts):
        """permutation_importance reports skipped trees only as warnings:
        count them, then hand them on unchanged."""

        @functools.wraps(fn)
        def traced(forest, *args, **kwargs):
            with self.span(name) as record:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    result = fn(forest, *args, **kwargs)
            skipped = sum("skipped" in str(w.message) for w in caught)
            record[4] = {"used": forest.n_trees - skipped, "skipped": skipped}
            for w in caught:
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in every e2credit module that refers to it."""
        import e2credit.cli  # noqa: F401  (imports every module of the package)

        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "e2credit" or n.startswith("e2credit."))]
        for layer, targets in TARGETS.items():
            home = sys.modules[f"e2credit.{layer}"]
            for target, counts in targets.items():
                name = f"{layer}.{target}"
                wrap = {"fit_forest": self.wrap_fit,
                        "permutation_importance": self.wrap_vi}.get(target, self.wrap)
                if "." in target:
                    cls_name, meth = target.split(".")
                    cls = getattr(home, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        setattr(cls, meth, classmethod(wrap(name, raw.__func__, counts)))
                    else:
                        setattr(cls, meth, wrap(name, raw, counts))
                    continue
                original = getattr(home, target)
                traced = wrap(name, original, counts)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, traced)

    def reset(self) -> None:
        """Forget every span and call so far (between calls, not inside one)."""
        self.spans.clear()
        self._fits.clear()

    def refit_two_workers(self) -> None:
        for fn, args, kwargs in self._fits:
            with self.span("bench.fit_two_workers"):
                fn(*args, **dict(kwargs, workers=2))

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Per-layer metrics from spans
# ---------------------------------------------------------------------------

LAYERS = ("snapshots", "structural", "dataset", "forest", "importance",
          "metrics", "cli", "synth")


class Spans:
    """The spans of one traced process, with self time and root command."""

    def __init__(self, spans: list):
        self.spans = spans
        n = len(spans)
        self.dur = [(s[2] - s[1]) / 1e9 for s in spans]
        child = [0.0] * n
        self.root = list(range(n))
        self.by_name: dict[str, list[int]] = {}
        for i, s in enumerate(spans):
            self.by_name.setdefault(s[0], []).append(i)
            if s[3] >= 0:
                child[s[3]] += self.dur[i]
                self.root[i] = self.root[s[3]]
        self.self_time = [d - c for d, c in zip(self.dur, child)]

    def pick(self, name, parent=None, root=None):
        """Indices of spans called name (every name of a layer when name
        ends in '.'), optionally only those whose enclosing span, or
        outermost span, has one of the given names."""
        names = [k for k in self.by_name if k.startswith(name)] if name.endswith(".") else [name]
        for key in names:
            for i in self.by_name.get(key, ()):
                s = self.spans[i]
                if parent is not None and (s[3] < 0 or self.spans[s[3]][0] not in parent):
                    continue
                if root is not None and self.spans[self.root[i]][0] not in root:
                    continue
                yield i


def total(processes, name, **where) -> float:
    return sum(p.dur[i] for p in processes for i in p.pick(name, **where))


def _count(processes, name, key, **where) -> int:
    return sum(p.spans[i][4][key] for p in processes for i in p.pick(name, **where))


def _first(processes, name, key) -> int:
    for p in processes:
        for i in p.pick(name):
            return p.spans[i][4][key]
    raise ValueError(f"no {name} span")


def layer_metrics(main: list, commands: list, setup: Spans) -> dict:
    """Per-layer metrics (values only) of one traced round.

    main: the processes whose library calls the workload measures; commands:
    the traced CLI command processes (the cli.* metrics and the spread
    writer come from these); setup: the traced input generation.
    """
    m = main
    trees = _count(m, "forest.fit_forest", "trees")
    fit_s = total(m, "forest.fit_forest")
    evaluate = {"cli.cmd_evaluate", "bench.evaluate"}
    out = {
        "snapshots.read_s": total(m, "snapshots.read_snapshots"),
        "snapshots.build_records_s": total(m, "snapshots.build_records"),
        "snapshots.write_spread_s": total(commands, "snapshots.write_spread_csv"),
        "snapshots.rows_read": _first(m, "snapshots.read_snapshots", "rows"),
        "snapshots.rows_priced": _first(m, "snapshots.build_records", "priced"),
        "snapshots.rows_failed": _first(m, "snapshots.build_records", "failed"),
        "structural.creditgrades_s": total(m, "structural.creditgrades_spread"),
        "structural.creditgrades_calls": sum(
            1 for p in m for _ in p.pick("structural.creditgrades_spread")),
        "structural.creditgrades_discarded_s": total(
            commands, "structural.creditgrades_spread",
            root={"cli.cmd_train", "cli.cmd_importance"}),
        "dataset.encode_s": sum(total(m, n) for n in (
            "dataset.drop_incomplete", "dataset.FeatureEncoder.fit",
            "dataset.FeatureEncoder.transform")),
        "dataset.split_s": total(m, "dataset.split_in_out"),
        "dataset.rows_complete": _first(m, "dataset.FeatureEncoder.transform", "rows"),
        "dataset.rows_in_sample": _first(m, "dataset.split_in_out", "rows"),
        "forest.fit_s": fit_s,
        "forest.fit_two_workers_s": total(m, "bench.fit_two_workers"),
        "forest.ms_per_tree": 1000.0 * fit_s / trees,
        "forest.nodes_per_tree": _count(m, "forest.fit_forest", "nodes") / trees,
        "forest.predict_s": total(m, "forest.Forest.predict"),
        "forest.predict_tree_rows": _count(m, "forest.Forest.predict", "rows"),
        "forest.save_s": total(m, "forest.save_forest"),
        "forest.load_s": total(m, "forest.load_forest"),
        "forest.file_bytes": _count(m, "forest.save_forest", "bytes"),
        "importance.mdi_s": total(m, "importance.mdi_importance"),
        "importance.permutation_s": total(m, "importance.permutation_importance"),
        "importance.predict_s": total(
            m, "forest.RegressionTree.predict",
            parent={"importance.permutation_importance"}),
        "importance.rows_scored": _count(
            m, "forest.RegressionTree.predict", "rows",
            parent={"importance.permutation_importance"}),
        "importance.trees_used": _count(m, "importance.permutation_importance", "used"),
        "importance.trees_skipped": _count(
            m, "importance.permutation_importance", "skipped"),
        "metrics.overall_s": total(m, "metrics.", parent=evaluate)
        - total(m, "metrics.bucket_comparison", parent=evaluate),
        "metrics.buckets_s": total(m, "metrics.bucket_comparison"),
        "synth.generate_s": total([setup], "synth.generate_snapshots"),
    }
    for command in ("spread", "train", "evaluate", "importance"):
        out[f"cli.{command}_self_s"] = sum(
            p.self_time[i] for p in commands for i in p.pick(f"cli.cmd_{command}"))
    for layer in LAYERS:
        # A layer's own time: its spans less the spans they enclose.
        processes = commands if layer == "cli" else m
        if layer == "synth":
            processes = [setup]
        out[f"{layer}.self_s"] = sum(
            p.self_time[i] for p in processes for i in p.pick(f"{layer}."))
    unique = {id(p): p for p in [*m, *commands, setup]}
    out["trace.spans"] = sum(len(p.spans) for p in unique.values())
    return out


def load_spans(path) -> Spans:
    with open(path, encoding="utf-8") as fh:
        return Spans(json.load(fh))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="where the spans are written")
    parser.add_argument("--refit", action="store_true",
                        help="regrow every forest with workers=2 afterwards")
    parser.add_argument("mode", choices=("cli", "seeds"))
    parser.add_argument("args", nargs=argparse.REMAINDER)
    opts = parser.parse_args(argv)
    tracer = Tracer()
    tracer.install()
    if opts.mode == "cli":
        from e2credit.cli import main as cli_main

        code = cli_main(opts.args)
    else:
        import seedsloop

        code = seedsloop.main(opts.args, tracer)
    if opts.refit:
        tracer.refit_two_workers()
    tracer.dump(opts.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
