"""The diffusionlab benchmark.

    python3 perfbench/run.py --workload {suite,suite_parallel,evolution} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; diffusionlab is imported from
`src/`, and the command fails (exit 2, no result) when that tree is missing.
A run sets up the workload several times in fresh interpreters (`setup_s`),
then repeats whole passes of the workload for S seconds (at least two) and
checks every pass's outputs.  With `--trace 0` it reports the end-to-end
metrics as medians over the passes; with `--trace 1` it alternates plain and
traced passes and reports the per-layer metrics, the tracing overhead, and
whether traced and plain passes produced the same records.  The last line
of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Scratch output goes to `.perfbench_work/run-<pid>/` in the checkout and is
removed at the end of the run.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

from gauge import Gauge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
WORK = WORK_ROOT / f"run-{os.getpid()}"
SETUP_REPEATS = 5
MIN_PASSES = 2


def parse_args(argv, spec):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def measure_setup(workload: str, seed: int, gauge: Gauge) -> float:
    """Median time, in reference seconds, of fresh-interpreter set-ups of the workload."""
    times = []
    for i in range(SETUP_REPEATS):
        work = WORK / f"setup{i}"
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(work)],
                       check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        elapsed = time.perf_counter() - t0
        shutil.rmtree(work, ignore_errors=True)
        times.append(elapsed * gauge.scale())
    return statistics.median(times)


def _vm_hwm_kb(pid) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass  # the process ended between listing and reading
    return 0


def _child_pids() -> set:
    pids = set()
    for task in Path("/proc/self/task").iterdir():
        try:
            pids.update(int(x) for x in (task / "children").read_text().split())
        except OSError:
            pass
    return pids


class PeakRss:
    """Largest sum of this process's peak resident set and those of its live
    children (the sweep's workers), sampled every 50 ms while in use."""

    def __init__(self):
        self.peak_kb = 0
        self.children_seen = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)

    def _poll(self):
        while True:
            kids = _child_pids()
            self.children_seen = max(self.children_seen, len(kids))
            total = _vm_hwm_kb("self") + sum(_vm_hwm_kb(pid) for pid in kids)
            self.peak_kb = max(self.peak_kb, total)
            if self._stop.wait(0.05):
                return

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=5.0)


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """Counts, problems and per-pass figures of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.figures = []  # one dict per plain pass
        self.layers = []  # one dict per traced pass
        self.traced_walls = []
        self.gauge = Gauge()

    def problem(self, text):
        self.problems.append(text)
        print(f"perfbench: {text}", file=sys.stderr)


def medians(rows) -> dict:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def pass_schedule(seconds: float, trace: bool):
    """Yield (index, traced) for whole passes until `seconds` have passed and
    at least MIN_PASSES of each kind have run."""
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        plain = (i + 1) // 2 if trace else i
        traced = i // 2 if trace else 0
        enough = plain >= MIN_PASSES and (not trace or traced >= MIN_PASSES)
        if enough and time.perf_counter() >= deadline:
            return
        yield i, trace and i % 2 == 1
        i += 1


def tree_files(path: Path):
    files = [p for p in path.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def run_suite(args, run: Run, parallel: bool):
    # these import diffusionlab, so they load once main() has put src/ on the path
    import checks
    import layers
    import workloads

    manifests = workloads.build_inputs(args.workload, args.seed, WORK)
    params = workloads.suite_parameters(args.seed)
    workers = workloads.PARALLEL_WORKERS if parallel else 1
    first = WORK / "pass0"
    for i, traced in pass_schedule(args.seconds, bool(args.trace)):
        dest = WORK / f"pass{i}"
        tracer = layers.Tracer()
        sampler = PeakRss() if parallel and not traced else nullcontext()
        with tracer.installed() if traced else nullcontext(), sampler:
            wall, records, seconds = workloads.run_suite_pass(manifests, dest, parallel, run.gauge)
        run.attempted += len(records)
        run.failed += sum(1 for r in records if r.error or not r.passed)
        if i == 0:
            for rec in records:
                for text in checks.scenario_problems(rec, dest / rec.scenario, params[rec.scenario]):
                    run.problem(text)
        else:
            for text in checks.tree_differences(first, dest):
                run.problem(f"pass {i} differs from pass 0: {text}")
        if traced:
            counts = sum((Counter(getattr(r, "layer_counts", {})) for r in records), Counter())
            if not counts:
                run.problem("traced pass returned no layer counts")
            files, size = tree_files(dest)
            row = layers.layer_metrics(counts)
            row.update({"experiments.files_written": files, "experiments.bytes_written": size})
            row.update({f"experiments.{k}": v for k, v in checks.worker_times(records, workers).items()})
            run.layers.append(row)
            run.traced_walls.append(wall)
        else:
            if parallel:
                if sampler.children_seen == 0:
                    run.problem("no worker processes were seen during the sweep")
                peak = sampler.peak_kb / 1024.0
            else:
                peak = self_peak_rss_mb()
            run.figures.append({"wall_s": wall, "peak_rss_mb": peak, **workloads.suite_part_seconds(seconds)})
        if i > 0:
            shutil.rmtree(dest, ignore_errors=True)
    if parallel:
        # sweep promises results independent of scheduling: the serial run must match
        ref = WORK / "serial"
        workloads.run_suite_pass(manifests, ref, parallel=False, gauge=None)
        for text in checks.tree_differences(first, ref):
            run.problem(f"parallel pass differs from the serial run: {text}")


def run_evolution(args, run: Run):
    import layers
    import workloads

    params = workloads.build_inputs(args.workload, args.seed, WORK)
    first = None
    for i, traced in pass_schedule(args.seconds, bool(args.trace)):
        tracer = layers.Tracer()
        with tracer.installed() if traced else nullcontext():
            wall, part, ops = workloads.run_evolution_pass(params)
        scale = run.gauge.scale()
        run.attempted += len(workloads.EVOLUTION_OPS)
        run.failed += len(ops.failed)
        outcome = (ops.values, ops.failed)
        if i == 0:
            first = outcome
            for text in ops.problems:
                run.problem(text)
        elif outcome != first:
            run.problem(f"pass {i} ({'traced' if traced else 'plain'}) differs from pass 0: "
                        f"{outcome} != {first}")
        if traced:
            run.layers.append(layers.layer_metrics(tracer.counts))
            run.traced_walls.append(wall * scale)
        else:
            run.figures.append({"wall_s": wall * scale, "peak_rss_mb": self_peak_rss_mb(),
                                **{k: v * scale for k, v in part.items()}})


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    args = parse_args(argv, spec)
    if not (SRC / "diffusionlab" / "__init__.py").is_file():
        print(f"perfbench: no diffusionlab sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(parents=True)
    try:
        run = Run()
        setup_s = measure_setup(args.workload, args.seed, run.gauge)
        if args.workload == "evolution":
            run_evolution(args, run)
        else:
            run_suite(args, run, parallel=args.workload == "suite_parallel")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run is still using it

    if args.trace:
        figures = medians(run.layers)
        plain, traced = medians(run.figures)["wall_s"], statistics.median(run.traced_walls)
        figures["trace.overhead_s"] = traced - plain
        figures["trace.overhead_pct"] = 100.0 * (traced - plain) / plain
        figures["bench.reference_s"] = statistics.median(run.gauge.readings)
        # a layer that the workload does not exercise reads 0
        metrics = {m["name"]: {"value": figures.get(m["name"], 0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        figures = medians(run.figures)
        figures["setup_s"] = setup_s
        metrics = {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    print(json.dumps({"correct": not run.problems, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
