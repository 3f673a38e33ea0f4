#!/usr/bin/env python3
"""The repository benchmark: cost per simulated request, end to end and by layer.

Run from the repository root::

    python3 perfbench/run.py --workload socialtube_1k --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload socialtube_1k --seed 1 --seconds 30 --trace 1

``--trace 0`` (the measured fast path) repeats set-up plus an untraced
``ExperimentRunner.run()`` of the workload's batch in this one process
until ``--seconds`` is spent, and reports medians of ``requests_per_s``,
``setup_s`` and ``wall_s`` plus the process's ``peak_rss_mb``.
``--trace 1`` runs the batch once untraced and once with per-layer spans
(see ``perfbench/layers.py``) and reports every layer's metrics.

Every run checks its output (``perfbench/workloads.py``); a failed check
counts all of the run's requests as failed.  The last line of standard
output is the JSON result; the lines before it name each metric with
its unit and record the exact configuration.  Result files and span
dumps go to ``--out`` (default ``.perfbench_out`` at the repo root).
"""

from __future__ import annotations

import argparse
import gc
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Set-up samples: each iteration takes one; extra ones are timed
#: before the iterations (at least ``MIN_SETUPS``, more while they fit
#: in ``SETUP_SECONDS``) and after them, in what is left of the window,
#: so the median sees the host over the whole run.
MIN_SETUPS, MAX_SETUPS, SETUP_SECONDS = 3, 20, 1.0
CALIBRATION_LOOPS = 1_000_000
CALIBRATION_REPEATS = 3

clock = time.perf_counter


def host_calibration_s() -> float:
    """Median seconds of a fixed pure-Python loop: the host-speed yardstick."""
    samples = []
    for _ in range(CALIBRATION_REPEATS):
        start = clock()
        acc = 0
        for i in range(CALIBRATION_LOOPS):
            acc = (acc + i * i) % 1_000_003
        samples.append(clock() - start)
    return statistics.median(samples)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Bench:
    """One workload at one seed: set-up, runs and the output check."""

    def __init__(self, load, seed: int, reference):
        from repro.experiments.runner import ExperimentRunner
        from repro.experiments.trace_cache import shared_trace_cache

        self.load = load
        self.seed = seed
        self.reference = reference
        self.specs = load.specs(seed)
        self._runner_type = ExperimentRunner
        self._cache = shared_trace_cache
        self.problems: list = []
        self.fingerprint = None
        self.attempted = 0

    def setup(self, recorder=None):
        """Cold trace synthesis plus runner construction; (runners, seconds)."""
        self._cache.clear()
        gc.collect()
        synthesize = self._cache.dataset_for
        if recorder is not None:
            synthesize = recorder.wrap("trace", "TraceCache.dataset_for", synthesize)
        start = clock()
        dataset = synthesize(self.load.config.trace)
        runners = [self._runner_type(spec, dataset=dataset) for spec in self.specs]
        return runners, clock() - start

    def verify(self, results) -> None:
        """Check one batch's output; every batch of a run must agree."""
        from workloads import check, fingerprint

        self.attempted += sum(r.metrics.num_requests for r in results)
        digest = fingerprint(results)
        if self.fingerprint is None:
            self.fingerprint = digest
            self.problems += check(self.load, self.seed, results, self.reference)
        elif digest != self.fingerprint:
            self.problems.append("output differs between batches of one seed")


def measure(bench: Bench, seconds: float) -> dict:
    """Untraced iterations until ``seconds`` is spent; medians of each."""
    begin = clock()
    setups = []

    def sample_setups(until: float) -> None:
        while len(setups) < MAX_SETUPS and (
            len(setups) < MIN_SETUPS or clock() - begin + statistics.median(setups) < until
        ):
            runners, setup_s = bench.setup()
            setups.append(setup_s)
            del runners

    sample_setups(SETUP_SECONDS)
    iterations = []
    while True:
        started = clock()
        runners, setup_s = bench.setup()
        run_start = clock()
        results = [runner.run() for runner in runners]
        run_s = clock() - run_start
        del runners
        bench.verify(results)
        requests = sum(r.metrics.num_requests for r in results)
        setups.append(setup_s)
        iterations.append(
            {"requests": requests, "setup_s": setup_s, "run_s": run_s, "elapsed_s": clock() - started}
        )
        del results
        typical = statistics.median(it["elapsed_s"] for it in iterations)
        if clock() - begin + typical > seconds:
            break
    sample_setups(seconds)
    return {
        "metrics": {
            "requests_per_s": (statistics.median(it["requests"] / it["run_s"] for it in iterations), "1/s"),
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (statistics.median(it["setup_s"] + it["run_s"] for it in iterations), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        },
        "iterations": iterations,
        "setups_s": setups,
    }


def traced(bench: Bench, out_dir: str) -> dict:
    """One untraced and one traced batch; the per-layer metrics."""
    from layers import BENCH, LAYERS, SpanRecorder, instrument, layer_metrics

    runners, _ = bench.setup()
    start = clock()
    results = [runner.run() for runner in runners]
    untraced_rps = sum(r.metrics.num_requests for r in results) / (clock() - start)
    bench.verify(results)
    del runners, results

    recorder = SpanRecorder()
    runners, setup_s = bench.setup(recorder)
    results = []
    run_s = 0.0
    for runner in runners:
        undo = instrument(runner, recorder)
        try:
            start = clock()
            results.append(runner.run())
            run_s += clock() - start
        finally:
            undo()
    bench.verify(results)
    requests = sum(r.metrics.num_requests for r in results)
    traced_rps = requests / run_s
    self_s, calls, by_function = recorder.self_times()
    metrics = layer_metrics(
        recorder,
        self_s,
        calls,
        requests=requests,
        traced_wall_s=setup_s + run_s,
        prefetch_hits=sum(runner.metrics.prefetch_hits for runner in runners),
        server_serves=sum(r.server_requests for r in results),
        events=sum(r.events_processed for r in results),
        tracing_overhead=untraced_rps / traced_rps,
    )
    spans_path = os.path.join(out_dir, f"spans-{bench.load.name}-seed{bench.seed}.tsv.gz")
    recorder.write(spans_path)

    print(f"{'layer':<26}{'calls':>10}{'self_s':>10}{'us/req':>10}{'share':>8}")
    for layer in LAYERS:
        print(
            f"{layer:<26}{metrics[layer + '.calls'][0]:>10}"
            f"{metrics[layer + '.self_s'][0]:>10.3f}"
            f"{metrics[layer + '.us_per_request'][0]:>10.1f}"
            f"{metrics[layer + '.share'][0]:>8.3f}"
        )
    covered = sum(self_s.get(layer, 0.0) for layer in LAYERS)
    print(
        f"sim residual (engine + runner glue, no span) self_s: "
        f"{by_function['ExperimentRunner.run']:.3f}; schedule calls: "
        f"{by_function['EventScheduler.schedule']:.3f}"
    )
    print(f"runner construction (set-up outside trace): {setup_s - self_s.get('trace', 0.0):.3f} s")
    print(f"counter overhead (bench, in no layer): {self_s.get(BENCH, 0.0):.3f} s")
    print(f"layers cover {covered / (setup_s + run_s):.3f} of traced wall {setup_s + run_s:.3f} s")
    print(f"spans: {len(recorder)} written to {os.path.relpath(spans_path, ROOT)}")
    return {
        "metrics": metrics,
        "untraced_requests_per_s": untraced_rps,
        "traced_requests_per_s": traced_rps,
    }


def flatness(out_dir: str, seed: int):
    """Cost per request at 10k nodes over that at 1k (ROADMAP target <= 1.5)."""
    costs = {}
    for name in ("socialtube_1k", "socialtube_10k"):
        found = sorted(glob.glob(os.path.join(out_dir, f"result-{name}-seed{seed}-trace*.json")))
        if not found:
            return None
        with open(found[0], "r", encoding="utf-8") as handle:
            costs[name] = 1e6 / json.load(handle)["untraced_requests_per_s"]
    return costs["socialtube_10k"] / costs["socialtube_1k"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny configs (tests)")
    parser.add_argument("--out", default=os.path.join(ROOT, ".perfbench_out"))
    parser.add_argument(
        "--record-reference",
        action="store_true",
        help="rewrite this workload's reference from one run at the reference seed",
    )
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: the program's source tree {SRC} is missing", file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    import workloads

    load = workloads.workload(args.workload, smoke=args.smoke)
    key = workloads.reference_key(load.name, args.smoke)
    if args.record_reference:
        if args.seed != workloads.REFERENCE_SEED:
            parser.error(f"the reference is recorded at --seed {workloads.REFERENCE_SEED}")
        return record_reference(load, key)
    reference = workloads.load_reference().get(key)
    os.makedirs(args.out, exist_ok=True)

    calibration = host_calibration_s()
    bench = Bench(load, args.seed, reference)
    if args.trace:
        outcome = traced(bench, args.out)
    else:
        outcome = measure(bench, args.seconds)
        outcome["untraced_requests_per_s"] = outcome["metrics"]["requests_per_s"][0]

    correct = not bench.problems
    for problem in bench.problems:
        print(f"check failed: {problem}")
    record = {
        "workload": load.name,
        "smoke": args.smoke,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "specs": [
            {"protocol": spec.protocol, "content_hash": spec.content_hash()}
            for spec in bench.specs
        ],
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "host_calibration_s": calibration,
        "correct": correct,
        "problems": bench.problems,
        **{k: v for k, v in outcome.items() if k != "metrics"},
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in outcome["metrics"].items()},
    }
    path = os.path.join(args.out, f"result-{load.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
    for name, (value, unit) in outcome["metrics"].items():
        print(f"{name} {value:.6g} {unit}")
    ratio = flatness(args.out, args.seed)
    if ratio is not None:
        print(f"flatness: cost per request socialtube_10k / socialtube_1k = {ratio:.3f} (target <= 1.5)")
    print("config " + json.dumps({k: record[k] for k in ("workload", "seed", "specs", "python", "nproc", "host_calibration_s")}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": bench.attempted,
                "failed": 0 if correct else bench.attempted,
                "metrics": record["metrics"],
            }
        )
    )
    return 0


def record_reference(load, key: str) -> int:
    """Run the batch once at the reference seed and store its summaries."""
    import workloads

    bench = Bench(load, workloads.REFERENCE_SEED, None)
    runners, _ = bench.setup()
    results = [runner.run() for runner in runners]
    entry = {spec.protocol: workloads.summary(r) for spec, r in zip(bench.specs, results)}
    try:
        reference = workloads.load_reference()
    except FileNotFoundError:
        reference = {}
    reference[key] = entry
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"recorded {key}: {json.dumps(entry, sort_keys=True)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
