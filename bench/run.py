#!/usr/bin/env python3
"""The hioaw benchmark: one workload per run, end-to-end or per-layer metrics.

Usage, from the root of a checkout::

    python3 bench/run.py --workload two_cars --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run alternates set-ups (a fresh ``import hioaw``, then
load and build the scenario) with untraced ops for ``--seconds`` seconds of
op time, checking every op's output outside the timed region.  Each of these
ops is bracketed by the workload's fixed reference kernel (see
``reference.py``), and the time metric it reports, ``wall_over_ref``, is the
median over the run of an op's wall time over the kernel's mean time just
before and after it, which cancels most of a shared host's drift in speed;
``setup_s`` is likewise scaled to a fixed kernel speed.  The raw ``wall_s``
and set-up times are printed and recorded beside them.  With ``--trace 1`` it alternates untraced
and traced ops and reports the per-layer metrics of the traced ones (see
``spans.py``).  The run prints a table of metrics with units, a record of
the machine and the op counts, and as its last line one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  The same record
and the last traced op's spans are written under ``.bench_work/`` in the
checkout.  ``--workload all`` runs the workloads one after another, each in
a process of its own, and prints one table.

The package is imported from the checkout's ``src/``; without it the run
exits with status 2 and prints no result.  A workload runs in one process,
on one thread.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import reference
import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".bench_work")

# Set-ups per run; set-up time is their median.
SETUP_REPS = 9
# Fewest timed ops per run, however long each takes.
MIN_OPS = 3
MIN_TRACED_OPS = 2

E2E_UNITS = {"setup_s": "s", "wall_over_ref": "ratio", "peak_rss_mb": "MiB"}

# Keep numpy's BLAS from starting worker threads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, help="a workload's name, or all")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_hioaw():
    """Import the package and its CLI afresh, dropping any earlier copy."""
    for mod in [m for m in sys.modules if m == "hioaw" or m.startswith("hioaw.")]:
        del sys.modules[mod]
    h = importlib.import_module("hioaw")
    importlib.import_module("hioaw.cli")
    return h


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q = (values[0],) * 3
    else:
        q = statistics.quantiles(values, n=4)
    return {"n": len(values), "q1": q[0], "median": statistics.median(values), "q3": q[2]}


class Run:
    """Set-ups and ops of one workload, with their times and failures.

    Every op follows a set-up of its own (a fresh ``import hioaw``, load and
    build), so set-up times are sampled across the whole run, like op times,
    and a slow minute on a shared machine weighs on both alike.
    """

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.setup_times: list[float] = []
        self.setup_ref_times: list[float] = []
        self.ref_times: list[float] = []
        self.h = self.built = None

    def setup(self, gauge: bool = False) -> None:
        """A fresh import, load and build, timed.  With ``gauge``, the
        python reference kernel is timed just after it, into
        ``setup_ref_times``."""
        gc.collect()
        t0 = time.perf_counter()
        h = import_hioaw()
        built = self.wl.setup(h)
        self.setup_times.append(time.perf_counter() - t0)
        if gauge:
            self.setup_ref_times.append(reference.timed())
        self.h, self.built = h, built

    def op(self, tracer=None, gauge: bool = False) -> float:
        """One op, timed, then checked outside the timed region.  With
        ``gauge``, the workload's reference kernel is timed just before and
        just after the op, and their mean goes to ``ref_times``."""
        self.wl.clean()
        if tracer is None:
            spans.assert_clean(self.h, *self.built.automata.values())
        else:
            tracer.reset()
            tracer.install()
        gc.collect()
        self.attempted += 1
        ref_before = reference.timed(self.wl.reference) if gauge else 0.0
        t0 = time.perf_counter()
        try:
            try:
                result = self.wl.op(self.h, self.built, tracer)
            finally:
                elapsed = time.perf_counter() - t0
                if gauge:
                    self.ref_times.append((ref_before + reference.timed(self.wl.reference)) / 2)
                if tracer is not None:
                    tracer.uninstall()
            problems = self.wl.check(self.h, self.built, result)
        except Exception:  # an op that raises is a failed op, not a failed run
            traceback.print_exc(file=sys.stderr)
            problems = ["raised"]
        if problems:
            print(f"op {self.attempted} failed: {'; '.join(problems)}", file=sys.stderr)
            self.failed += 1
        return elapsed

    def traced_setup(self, tracer) -> dict[str, float]:
        """Load and build once more under the tracer; the import is not traced."""
        tracer.reset()
        tracer.install()
        try:
            self.wl.setup(self.h)
        finally:
            tracer.uninstall()
        return {f"{name}.s": tracer.time(name) for name in ("scenario.load", "scenario.build")}


def end_to_end(run: Run, seconds: float, record: dict) -> dict[str, float]:
    """Set-up time at the reference speed, op wall time over the reference
    kernel's, and peak memory, all untraced; raw times go to the record."""
    times: list[float] = []
    # First calls pay numpy's and the allocator's warm-up.
    reference.timed()
    reference.timed(run.wl.reference)
    # The set-up made before the run (in main) was not gauged.
    run.setup_times.clear()
    while sum(times) < seconds or len(times) < MIN_OPS:
        run.setup(gauge=True)
        times.append(run.op(gauge=True))
    while len(run.setup_times) < SETUP_REPS:
        run.setup(gauge=True)
    ratios = [t / r for t, r in zip(times, run.ref_times)]
    setups = [reference.at_reference_speed(t, r)
              for t, r in zip(run.setup_times, run.setup_ref_times)]
    record["wall_s"] = quartiles(times)
    record["ref_s"] = quartiles(run.ref_times)
    record["wall_over_ref"] = quartiles(ratios)
    record["op_samples"] = {"wall_s": times, "ref_s": run.ref_times,
                            "setup_s": run.setup_times, "setup_ref_s": run.setup_ref_times}
    return {
        "setup_s": statistics.median(setups),
        "wall_over_ref": statistics.median(ratios),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(run: Run, seconds: float, record: dict, seed: int):
    """Per-layer metrics of traced ops, which alternate with untraced ones
    for ``seconds`` of op time in all; counts must agree between traced ops."""
    plain: list[float] = []
    traced: list[float] = []
    layers: list[dict] = []
    while sum(plain) + sum(traced) < seconds or len(traced) < MIN_TRACED_OPS:
        run.setup()
        plain.append(run.op())
        run.setup()
        tracer = spans.Tracer(run.h)
        setup_layer = run.traced_setup(tracer)
        traced.append(run.op(tracer))
        layers.append({**tracer.summary(run.wl.artifact_bytes()), **setup_layer})
        tracer.frags.clear()  # a fine-grid run holds most of a GiB of fields
    tracer.write_spans(os.path.join(WORK, "results", f"{run.wl.name}-seed{seed}-spans.csv"))
    correct = True
    values: dict[str, float] = {}
    for name in layers[0]:
        seen = [layer[name] for layer in layers]
        if spans.UNITS[name] in spans.EXACT_UNITS:
            if len(set(seen)) != 1:
                print(f"count {name} differs between traced ops: {seen}", file=sys.stderr)
                correct = False
            values[name] = seen[0]
        else:
            values[name] = statistics.median(seen)
    values["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
    record["wall_s"] = quartiles(plain)
    record["traced_wall_s"] = quartiles(traced)
    return values, correct


def workload_why(name: str) -> str | None:
    """The reason ``BENCHMARK.json`` gives for running this workload."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            listed = json.load(fh)["workloads"]
    except OSError:
        return None
    return next((w["why"] for w in listed if w["name"] == name), None)


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_all(args: argparse.Namespace) -> int:
    """Every workload in turn, each in a process of its own so that its peak
    RSS is its own, then one table of their metrics."""
    results = {}
    raw_wall = {}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit status {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
        record = os.path.join(WORK, "results", f"{name}-seed{args.seed}-trace{args.trace}.json")
        with open(record, encoding="utf-8") as fh:
            raw_wall[name] = json.load(fh)["wall_s"]["median"]
    first = next(iter(results.values()))
    print(f"{'metric':36s} {'unit':6s}" + "".join(f" {name:>14s}" for name in results))
    for metric, entry in first["metrics"].items():
        cells = "".join(f" {r['metrics'][metric]['value']:14.6g}" for r in results.values())
        print(f"{metric:36s} {entry['unit']:6s}{cells}")
    walls = "".join(f" {raw_wall[name]:14.6g}" for name in results)
    print(f"{'wall_s (median, raw)':36s} {'s':6s}{walls}")
    ratios = "".join(f" {r['failed'] / r['attempted']:14.6g}" for r in results.values())
    print(f"{'failed_ratio':36s} {'ratio':6s}{ratios}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}.{metric}": entry
            for name, r in results.items() for metric, entry in r["metrics"].items()
        },
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "hioaw", "__init__.py")):
        print(f"no hioaw package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import numpy  # imported once up front so every timed set-up imports hioaw alone

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)} "
              "or all", file=sys.stderr)
        return 2
    work_dir = os.path.join(WORK, args.workload)
    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed, work_dir)

    run = Run(wl)
    run.setup()
    if not os.path.abspath(run.h.__file__).startswith(src + os.sep):
        print(f"hioaw was imported from {run.h.__file__}, not {src}", file=sys.stderr)
        return 2
    wl.prepare(run.h, run.built)

    record = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "why": workload_why(wl.name),
        "params": wl.params(),
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    correct = True
    if args.trace == 0:
        values = end_to_end(run, args.seconds, record)
    else:
        values, correct = per_layer(run, args.seconds, record, args.seed)
    try:
        spans.assert_clean(run.h, *run.built.automata.values())
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        correct = False
    wl.clean()

    record["raw_setup_s"] = quartiles(run.setup_times)
    record["attempted"] = run.attempted
    record["failed"] = run.failed
    record["failed_ratio"] = run.failed / run.attempted
    units = E2E_UNITS if args.trace == 0 else spans.UNITS
    record["metrics"] = {k: {"value": values[k], "unit": units[k]} for k in units}
    path = os.path.join(WORK, "results", f"{wl.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)

    print(f"{wl.name} seed={args.seed} trace={args.trace} ops={run.attempted}")
    for name, metric in record["metrics"].items():
        print(f"  {name:36s} {metric['value']:14.6g} {metric['unit']}")
    print(f"  {'wall_s (median, raw)':36s} {record['wall_s']['median']:14.6g} s")
    print(f"  {'setup_s (median, raw)':36s} {record['raw_setup_s']['median']:14.6g} s")
    print(f"  {'failed_ratio':36s} {record['failed_ratio']:14.6g} ratio")
    print(json.dumps({k: v for k, v in record.items() if k != "metrics"}))
    print(json.dumps({
        "correct": correct and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
