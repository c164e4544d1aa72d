"""End-to-end benchmark of the EBV pipeline: one command, named workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload bsp-thread --seed 3 --trace 0
    python3 perfbench/run.py --workload all --trace 1      # every workload in turn

One run generates its inputs from ``--seed``, runs one untimed warm-up
job, then repeats the workload's job for ``--seconds`` seconds and
checks every job's outputs against oracles built once per run.  With
``--trace 0`` jobs run untraced and the end-to-end metrics are reported;
with ``--trace 1`` untraced and traced jobs alternate, the per-layer
metrics come from the traced ones, and the Chrome trace (loadable with
``repro trace``) is written next to the JSON report under
``perfbench/out/``.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is
non-zero when any job raised or failed a check.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

from meter import HostSpeed, Meter, to_ref

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "perfbench", "out")
SRC = os.path.join(ROOT, "src")

#: fresh interpreters timed per run for ``setup_s`` (the median is reported).
SETUP_REPEATS = 5
#: timed jobs a run makes even when they overrun ``--seconds``.
MIN_JOBS = 3


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _load_workloads():
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"perfbench: no repro package under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import workloads

    return workloads.WORKLOADS


def _reset_peak_rss() -> None:
    """Restart this process's peak-RSS counter (Linux ``VmHWM``)."""
    with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
        fh.write("5")


def _peak_rss_mb() -> float:
    """This process's peak RSS since the last :func:`_reset_peak_rss`."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _run_peak_rss_mb() -> dict:
    """Whole-run peak RSS of this process and of its largest waited-for child.

    On Linux a child's figure includes the parent's pages it held between
    fork and exec, so it tracks this process's size, not the child's own.
    """
    return {"self": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "children": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0}


def _host(seed: int, graph) -> dict:
    import numpy as np

    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=10, env=env).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "schedulable_cpus": len(os.sched_getaffinity(0)),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit,
        "seed": seed,
        "num_vertices": graph.num_vertices,
        "num_edges": graph.num_edges,
    }


def _measure_setup(args, speed: HostSpeed):
    """Raw and reference-second walls of fresh interpreters that import the
    program and build the inputs, scaled like a job's calls."""
    walls, refs = [], []
    sample = speed.sample()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                        "--seed", str(args.seed), "--setup-only"], check=True)
        walls.append(time.perf_counter() - t0)
        sample, before = speed.sample(), sample
        refs.append(walls[-1] * to_ref(before, sample))
    return walls, refs


class Runner:
    """One workload run: jobs, their checks and the failure accounting."""

    def __init__(self, workload, inputs, workdir: str, speed: HostSpeed):
        self.workload = workload
        self.inputs = inputs
        #: emptied after every job: the spill and checkpoint directories.
        self.jobdir = os.path.join(workdir, "job")
        self.oracle = None
        self.check_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.speed = speed

    def job(self, rec):
        """Run and check one job; returns ``(job id, meter, output, ok)``.

        The meter holds the job's timings, and is ``None`` when the job
        raised.  A traced job is also wrapped in a ``job`` span.  The
        oracle is built after the first job.
        """
        job_id = self.attempted
        self.attempted += 1
        gc.collect()  # earlier jobs' cyclic garbage is freed here, not inside a timed call
        _reset_peak_rss()
        meter, out = Meter(rec, job_id, self.speed), None
        try:
            with rec.span("job", cat="job", args={"job": job_id}):
                out = self.workload.job(self.inputs, meter, self.jobdir)
            meter.peak_rss_mb = _peak_rss_mb()
            if self.oracle is None:
                t0 = time.perf_counter()
                self.oracle = self.workload.build_oracle(self.inputs)
                self.check_s += time.perf_counter() - t0
            problems = self.workload.check(out, self.inputs, self.oracle)
        except Exception:  # a raising job is a failed job, not a crashed benchmark
            traceback.print_exc()
            problems, meter = ["job raised"], None
        if problems:
            self.failed += 1
            print(f"FAIL {self.workload.name} job {job_id}: " + "; ".join(problems),
                  file=sys.stderr)
        shutil.rmtree(self.jobdir, ignore_errors=True)
        return job_id, meter, out, not problems


def _quality(workload, out) -> dict:
    metrics = out.partition(workload.primary_partition)[2]
    return {
        "replication_factor": metrics.replication,
        "edge_imbalance": metrics.edge_imbalance,
        "vertex_imbalance": metrics.vertex_imbalance,
        "messages": float(sum(r.total_messages for _, r in out.runs)),
        "message_imbalance": out.run(workload.primary_run).message_max_mean_ratio,
    }


def _median(values) -> float:
    return statistics.median(values) if values else float("nan")


def run_workload(args, workload) -> int:
    workdir = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
    if args.setup_only:
        try:
            workload.build_inputs(args.seed, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0

    from layers import job_layers, render_table
    from repro.obs import NULL_RECORDER, TraceRecorder, write_trace

    os.makedirs(workdir)
    speed = HostSpeed()
    setup_walls, setup_refs = _measure_setup(args, speed)
    rec = TraceRecorder(label=f"perfbench:{workload.name}") if args.trace else None
    meters, traced, quality, rounds = [], [], None, 0
    try:
        inputs = workload.build_inputs(args.seed, workdir)
        runner = Runner(workload, inputs, workdir, speed)
        runner.job(NULL_RECORDER)  # warm-up: untimed, still checked
        t_start = time.perf_counter()
        while True:
            _, meter, out, ok = runner.job(NULL_RECORDER)
            if meter is not None:
                meters.append(meter)
                if ok and quality is None:
                    quality = _quality(workload, out)
            if rec is not None:
                ckpt_bytes = rec.metrics.counter("checkpoint.bytes").total()
                job_id, meter, out, _ = runner.job(rec)
                if meter is not None:
                    ckpt_bytes = rec.metrics.counter("checkpoint.bytes").total() - ckpt_bytes
                    traced.append(job_layers(rec.spans(), job_id, out, ckpt_bytes))
            del out
            rounds += 1
            elapsed = time.perf_counter() - t_start
            if rounds >= MIN_JOBS and elapsed + elapsed / rounds > args.seconds:
                break
        peak_rss = _run_peak_rss_mb()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    walls = [m.wall_s for m in meters]
    refs = [m.ref_s for m in meters]
    report = {
        "workload": workload.name,
        "host": _host(args.seed, inputs["graph"]),
        "jobs": {"samples": len(meters), "ref_s": refs, "wall_s": walls,
                 "check_s": runner.check_s},
        "setup": {"ref_s": setup_refs, "wall_s": setup_walls},
        "peak_rss_mb": {"jobs": [m.peak_rss_mb for m in meters], "run": peak_rss},
        "attempted": runner.attempted,
        "failed": runner.failed,
        "error_rate": runner.failed / runner.attempted,
    }
    tag = f"{workload.name}-s{args.seed}"
    if rec is None:
        units = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
        metrics = {"job_s": _median(refs), "setup_s": statistics.median(setup_refs),
                   "peak_rss_mb": _median([m.peak_rss_mb for m in meters])}
        metrics.update(quality or {k: float("nan") for k in units if k not in metrics})
        print(f"{workload.name}: {len(meters)} timed jobs, raw median job wall "
              f"{_median(walls):.4f} s, raw median setup wall "
              f"{statistics.median(setup_walls):.4f} s, check_s {runner.check_s:.3f}, "
              f"error_rate {report['error_rate']:.4f}")
        for name, value in metrics.items():
            print(f"  {name:<20}{value:>16.6f} {units[name]}")
    else:
        units = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
        traced_s = _median([t[2] for t in traced])
        metrics = {name: _median([t[0][name] for t in traced])
                   for name in units if name != "trace.overhead"}
        metrics["trace.overhead"] = traced_s / _median(walls)
        rows = [(name, statistics.median(t[1][i][1] for t in traced))
                for i, (name, _) in enumerate(traced[0][1] if traced else [])]
        print(render_table(workload.name, rows, traced_s, metrics["trace.overhead"],
                           metrics["trace.unattributed_frac"]))
        report["trace"] = write_trace(rec, os.path.join(OUT_DIR, f"{tag}.trace.json"))
        report["layer_table"] = rows
        tag += "-traced"
    report["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": report["metrics"],
    }))
    return 0 if runner.failed == 0 else 1


def run_all(args, names) -> int:
    """Run every workload in its own interpreter; non-zero if any failed."""
    status = 0
    for name in names:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status |= subprocess.run(cmd).returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="workload name from BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(_spec()["run_seconds"])
    workloads = _load_workloads()
    if args.workload == "all":
        return run_all(args, list(workloads))
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; expected one of "
                     f"{sorted(workloads)} or 'all'")
    return run_workload(args, workloads[args.workload])


if __name__ == "__main__":
    sys.exit(main())
