"""The e2credit benchmark: one command, two workloads.

    python3 perfbench/run.py --workload seeds|gappy --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout (it imports the program from src/).
The workload's inputs are generated from --seed and written as CSV; the
program sees only them. Set-up is repeated and timed on its own. Then whole
rounds of the workload run for --seconds (at least one round, K on seeds;
another starts while it should end in time), each program step in a child
process started from this one, one at a time:

    gappy   e2credit spread, train --workers 1, evaluate, importance
    seeds   perfbench/seedsloop.py (K seeds, each a read-and-price pass and
            the library calls that train, evaluate and importance make)

The first round's outputs are checked against computations made in
perfbench/checks.py; later rounds must repeat them byte for byte. With
--trace 0 the last line of output is the end-to-end metrics, medians over
rounds (a seeds round is one forest seed). With --trace 1 the inputs are
generated once, under the tracer, and one pass runs in which every step
runs untraced and then again under perfbench/tracer.py; the last line is
the per-layer metrics of the traced steps and their overhead. See
perfbench/README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"

# Set-ups per run; setup_s is their median.
SETUP_REPEATS = {"seeds": 15, "gappy": 5}
COMMANDS = ("spread", "train", "evaluate", "importance")
CHILD_TIMEOUT_S = 150


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _run_child(argv: list, cwd: Path) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=cwd, env=_child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(f"{' '.join(argv[:4])}: exit {proc.returncode}\n{proc.stderr}")
    return elapsed, proc


def _digest_dir(path: Path) -> dict:
    """Content hash of every output file except the timestamped manifest."""
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(path.iterdir()) if f.name != "manifest.txt"}


class CliWorkload:
    """gappy: the four CLI commands over the workload's CSV."""

    def __init__(self, inputs, seed: int, work: Path):
        self.inputs = inputs
        self.work = work
        csv, forest = str(inputs.csv), "train/forest.e2cf"
        seed_args = ["--seed", str(seed)]
        # One worker: why, in seedsloop.WORKERS.
        self.argv = {
            "spread": ["spread", csv, "--out-dir", "spread"],
            "train": ["train", csv, *seed_args, "--workers", "1", "--out-dir", "train"],
            "evaluate": ["evaluate", forest, csv, *seed_args, "--out-dir", "evaluate"],
            "importance": ["importance", forest, csv, *seed_args, "--out-dir", "importance"],
        }

    def round(self, trace_dir: Path | None = None) -> dict:
        """The four commands in turn. With a trace directory each command
        runs again under the tracer right after its untraced run, so the
        pair sees the same machine; the traced run must write the same
        outputs."""
        out = {"times": {}, "traced_times": {}, "attempted": 0, "failed": 0,
               "spans": [], "digests": {}, "mismatch": []}
        for command in COMMANDS:
            runs = [[sys.executable, "-m", "e2credit.cli", *self.argv[command]]]
            if trace_dir is not None:
                out["spans"].append(trace_dir / f"{command}.json")
                runs.append([sys.executable, str(HERE / "tracer.py"),
                             "--out", str(out["spans"][-1]),
                             *(["--refit"] if command == "train" else []),
                             "cli", *self.argv[command]])
            for argv, times in zip(runs, (out["times"], out["traced_times"])):
                out["attempted"] += 1
                if out["failed"]:  # a failed step fails the rest of its round
                    out["failed"] += 1
                    continue
                elapsed, proc = _run_child(argv, self.work)
                times[f"{command}_s"] = elapsed
                out["failed"] += proc.returncode != 0
                if proc.returncode == 0:
                    digest = _digest_dir(self.work / command)
                    if out["digests"].setdefault(command, digest) != digest:
                        out["mismatch"].append(command)
        if not out["failed"]:
            out["forest_bytes"] = (self.work / "train" / "forest.e2cf").stat().st_size
        return out

    def check(self) -> list[str]:
        import checks

        w = self.work
        spreads = checks.read_rows(w / "spread" / "spreads.csv")
        train_metrics = checks.read_key_values(w / "train" / "train_metrics.csv")
        removed = checks.read_split_manifest(w / "train" / "split_manifest.csv")
        timeseries = checks.read_rows(w / "evaluate" / "timeseries.csv")
        importance = checks.read_rows(w / "importance" / "importance.csv")
        return checks.run_checks(checks.spread_checks(spreads, self.inputs.expected_reason) + [
            ("split_counts", checks.check_split, train_metrics, removed,
             self.inputs.complete_keys),
            ("overall_r2", checks.check_overall_r2,
             checks.read_rows(w / "evaluate" / "overall_metrics.csv"), timeseries),
            ("reloaded_r2", checks.check_reloaded_r2, train_metrics, timeseries, removed),
            ("mdi", checks.check_mdi, importance),
        ])


class SeedsWorkload:
    """seeds: the library-call loop of perfbench/seedsloop.py in one child."""

    def __init__(self, inputs, seed: int, work: Path):
        self.args = ["--csv", str(inputs.csv), "--seed", str(seed),
                     "--out-dir", str(work)]
        self.work = work
        self.failures: list[str] = []
        self.forest_bytes = 0

    def rounds(self, seconds: float, trace_dir: Path | None = None) -> list[dict]:
        args = [*self.args, "--seconds", str(seconds)]
        if trace_dir is None:
            argv = [sys.executable, str(HERE / "seedsloop.py"), *args]
        else:
            argv = [sys.executable, str(HERE / "tracer.py"), "--out",
                    str(trace_dir / "seeds.json"), "--refit", "seeds", *args]
        _, proc = _run_child(argv, self.work)
        if proc.returncode != 0:
            from seedsloop import STEPS
            from workloads import SEEDS_PER_ROUND

            return [{"times": {}, "attempted": len(STEPS), "failed": len(STEPS)}
                    for _ in range(SEEDS_PER_ROUND)]
        result = json.loads(proc.stdout.splitlines()[-1])
        self.failures += result["failures"]
        self.forest_bytes = result["forest_bytes"]
        return result["rounds"]


def _setup(workload: str, seed: int, work: Path):
    from workloads import make_inputs

    times = []
    for _ in range(SETUP_REPEATS[workload]):
        start = time.perf_counter()
        inputs = make_inputs(workload, seed, work)
        times.append(time.perf_counter() - start)
    return inputs, statistics.median(times)


def _report(values: dict, kind: str) -> dict:
    """The metrics with the units BENCHMARK.json declares for them; the
    names must be exactly the declared ones."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(values) != set(units):
        raise RuntimeError(f"{kind} metrics {sorted(set(values) ^ set(units))} "
                           "differ from BENCHMARK.json")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def run(opts) -> dict:
    workload, seed = opts.workload, opts.seed
    work = ROOT / "perfbench" / "runs" / f"{workload}-seed{seed}-{os.getpid()}"
    trace_dir = ROOT / "perfbench" / "traces" / f"{workload}-seed{seed}" if opts.trace else None
    for path in (work, trace_dir):
        if path is not None:
            shutil.rmtree(path, ignore_errors=True)
            path.mkdir(parents=True)
    try:
        if trace_dir is not None:
            # Set-up is not reported by a traced run: generate the inputs
            # once, under the tracer, and run one round.
            import tracer
            from workloads import make_inputs

            setup_tracer = tracer.Tracer()
            setup_tracer.install()
            inputs = make_inputs(workload, seed, work)
            setup_tracer.dump(trace_dir / "setup.json")
            seconds = 0.0
        else:
            inputs, setup_s = _setup(workload, seed, work)
            seconds = opts.seconds
        failures: list[str] = []
        if workload == "seeds":
            runner = SeedsWorkload(inputs, seed, work)
            rounds = runner.rounds(seconds)
        else:
            from workloads import next_round_fits

            runner = CliWorkload(inputs, seed, work)
            rounds = []
            start = time.perf_counter()
            while not rounds or next_round_fits(start, len(rounds), seconds):
                rounds.append(runner.round(trace_dir))
                if rounds[-1]["failed"]:
                    continue
                if len(rounds) == 1:
                    failures += runner.check()
                elif rounds[-1]["digests"] != rounds[0]["digests"]:
                    failures.append(f"repeat: round {len(rounds)} outputs differ")
        peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        good = [r for r in rounds if not r["failed"]]
        if not good:
            raise RuntimeError("every round failed; no metric to report")
        if trace_dir is not None:
            main, commands, overhead = _traced(workload, seed, inputs, runner, rounds,
                                               trace_dir, failures)
            values = tracer.layer_metrics(main, commands, tracer.Spans(setup_tracer.spans))
            values["trace.overhead_s"] = overhead
            metrics = _report(values, "per_layer")
        else:
            values = {name: statistics.median(r["times"][name] for r in good)
                      for name in ("spread_s", "train_s", "evaluate_s", "importance_s")}
            values["setup_s"] = setup_s
            values["forest_bytes"] = (runner.forest_bytes if workload == "seeds" else
                                      statistics.median(r["forest_bytes"] for r in good))
            values["peak_rss_mb"] = peak_rss_mb
            metrics = _report(values, "end_to_end")
        if workload == "seeds":
            failures += runner.failures
        for failure in failures:
            sys.stderr.write(f"check failed: {failure}\n")
        return {"correct": not failures,
                "attempted": sum(r["attempted"] for r in rounds),
                "failed": sum(r["failed"] for r in rounds),
                "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _traced(workload, seed, inputs, runner, rounds, trace_dir, failures) -> tuple:
    """Spans of the processes whose library calls the workload measures and
    of its CLI commands, and the tracing overhead: the traced rounds' time
    less the untraced rounds', the workers=2 regrowth left out. Rounds run
    here are appended to rounds."""
    import tracer

    if workload == "seeds":
        traced = runner.rounds(0.0, trace_dir)
        main = [tracer.load_spans(trace_dir / "seeds.json")]
        # The seed loop has no CLI: one traced chain on the same CSV gives
        # the cli.* self times and the spread writer's time.
        chain = CliWorkload(inputs, seed, runner.work).round(trace_dir)
        commands = [tracer.load_spans(p) for p in chain["spans"]]
        overhead = (sum(sum(r["times"].values()) for r in traced)
                    - sum(sum(r["times"].values()) for r in rounds))
        rounds += traced + [chain]
    else:
        chain = rounds[0]
        commands = [tracer.load_spans(p) for p in chain["spans"]]
        main = commands
        overhead = (sum(chain["traced_times"].values()) - sum(chain["times"].values())
                    - tracer.total(commands, "bench.fit_two_workers"))
    if chain["mismatch"]:
        failures.append(f"trace: traced {', '.join(chain['mismatch'])} wrote other outputs")
    return main, commands, overhead


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="e2credit benchmark")
    parser.add_argument("--workload", required=True, choices=("seeds", "gappy"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)
    if not (SRC / "e2credit" / "cli.py").is_file():
        sys.stderr.write(f"error: no program source at {SRC}; run from the root "
                         "of an e2credit checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    print(json.dumps(run(opts)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
