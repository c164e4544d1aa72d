"""Per-layer numbers of one traced job, read from the trace alone.

The benchmark wraps each layer call of a job in a ``layer`` span (cat
``layer``) inside one ``job`` span; the engine, the backend sessions, the
stream driver and the checkpoint writer add their own spans to the same
recorder.  Everything here is derived from those spans (and the
recorder's counters), so the table and the per-layer metrics answer
"where did the time go" from the same data ``repro trace`` loads.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Tuple

import numpy as np

#: per-method partition metrics reported on every workload (0 where the
#: workload does not run that partitioner).
METHODS = ("ebv", "hdrf", "ebv-sharded", "dbh")
_WORKER_BUSY = ("compute", "exchange.up", "exchange.down")
_STAGES = {"stage.compute": "compute_s", "stage.exchange": "exchange_s", "converge": "converge_s"}


def _job_spans(spans, job: int):
    """The job's own span and every span recorded inside its interval."""
    top = next(s for s in spans if s.cat == "job" and s.args["job"] == job)
    inside = [s for s in spans
              if s is not top and s.t0_ns >= top.t0_ns and s.t1_ns <= top.t1_ns]
    return top, inside


def _within(spans, outer):
    return [s for s in spans if s.t0_ns >= outer.t0_ns and s.t1_ns <= outer.t1_ns]


def job_layers(spans, job: int, out, checkpoint_bytes: float
               ) -> Tuple[Dict[str, float], List[Tuple[str, float]], float]:
    """Per-layer metrics, table rows and wall seconds of traced job ``job``.

    ``out`` is the job's :class:`~workloads.JobOutput`, for what the spans
    do not carry (RF, mirrors, supersteps, messages); ``checkpoint_bytes``
    is the recorder's ``checkpoint.bytes`` counter delta over the job.
    """
    top, inside = _job_spans(spans, job)
    wall = top.duration_seconds
    layers = [s for s in inside if s.cat == "layer"]
    secs: Dict[str, float] = defaultdict(float)
    for s in layers:
        secs[s.name] += s.duration_seconds
    sub_rows: Dict[str, List[Tuple[str, float]]] = defaultdict(list)

    m: Dict[str, float] = {}
    # Partitioner calls carry the edges they partitioned; the streaming
    # partition (``stream.partition``) is the ebv-stream call.
    edges: Dict[str, float] = defaultdict(float)
    for s in layers:
        if "edges" in s.args:
            edges[s.name] += s.args["edges"]
    rf: Dict[str, float] = {}
    for label, _, metrics in out.partitions:
        rf.setdefault(label.split(".")[0], metrics.replication)
    for method in METHODS:
        span = f"partition.{method}"
        m[f"partition.{method}.edges_per_s"] = edges[span] / secs[span] if secs[span] else 0.0
        m[f"partition.{method}.rf"] = rf.get(method, 0.0)
    m["partition.s"] = sum(secs[name] for name in edges)
    m["partition.edges_per_s"] = sum(edges.values()) / m["partition.s"]
    m["partition.metrics_s"] = secs["partition.metrics"]
    m["distribute.s"] = secs["distribute"]
    m["distribute.mirrors"] = float(sum(int(np.count_nonzero(~local.is_master))
                                        for dgraph in out.dgraphs for local in dgraph.locals))

    # Runtime / engine: coordinator stage spans and per-worker spans inside each run.
    run_layers = [s for s in layers if s.name.startswith("run.")]
    run_s = sum(s.duration_seconds for s in run_layers)
    stage = defaultdict(float)
    barrier, straggler = 0.0, 1.0
    wire = defaultdict(float)
    ckpt_s, snapshots = 0.0, 0
    for run_span in run_layers:
        app_stage = defaultdict(float)
        busy: Dict[int, float] = defaultdict(float)
        waits = 0.0
        for s in _within(inside, run_span):
            if s.worker is None:
                if s.name in _STAGES:
                    app_stage[_STAGES[s.name]] += s.duration_seconds
                elif s.name == "ckpt.snapshot":
                    ckpt_s += s.duration_seconds
                    snapshots += 1
            elif s.name in _WORKER_BUSY:
                busy[s.worker] += s.duration_seconds
            elif s.cat == "barrier":
                waits += s.duration_seconds
            if s.cat == "wire":
                kind = s.name.split(".")[1]
                if kind in ("collect", "send", "recv"):
                    wire[kind] += s.duration_seconds
        # Mean per-worker barrier wait of this run; the job's worst straggler.
        barrier += waits / max(len(busy), 1)
        mean_busy = sum(busy.values()) / max(len(busy), 1)
        if mean_busy:
            straggler = max(straggler, max(busy.values()) / mean_busy)
        session = run_span.duration_seconds - sum(app_stage.values())
        for key in ("compute_s", "exchange_s", "converge_s"):
            stage[key] += app_stage[key]
            sub_rows[run_span.name].append((f"  {run_span.name}.{key}", app_stage[key]))
        sub_rows[run_span.name].append((f"  {run_span.name}.session_s", session))
    m["run.s"] = run_s
    for key in ("compute_s", "exchange_s", "converge_s"):
        m[f"run.{key}"] = stage[key]
    m["run.session_s"] = run_s - sum(stage.values())
    m["run.barrier_s"] = barrier
    m["run.straggler_ratio"] = straggler
    m["run.supersteps"] = float(sum(r.num_supersteps for _, r in out.runs))
    m["run.messages"] = float(sum(r.total_messages for _, r in out.runs))

    # Layers only some workloads exercise: shares of the job wall plus counts.
    for kind in ("collect", "send", "recv"):
        m[f"wire.{kind}_frac"] = wire[kind] / wall
    m["checkpoint.frac"] = ckpt_s / wall
    m["checkpoint.snapshots"] = float(snapshots)
    m["checkpoint.bytes"] = float(checkpoint_bytes)
    m["stream.spill_frac"] = secs["stream.partition"] / wall
    m["stream.assemble_frac"] = secs["stream.assemble"] / wall
    spill = secs["stream.partition"]
    m["stream.edges_per_s"] = edges["stream.partition"] / spill if spill else 0.0
    m["stream.spill_bytes"] = float(out.extra.get("spill_bytes", 0))
    m["mutate.apply_frac"] = secs["mutate.apply"] / wall
    mutation = out.extra.get("mutation")
    m["mutate.ops"] = float(out.extra.get("ops", 0))
    m["mutate.reassigned_edges"] = float(mutation.reassigned_edges) if mutation else 0.0
    runs = dict(out.runs)
    m["mutate.warm_superstep_ratio"] = (
        runs["serial.pr-delta"].num_supersteps / runs["serial.pr"].num_supersteps
        if "serial.pr-delta" in runs else 0.0
    )
    covered = sum(secs.values())
    m["trace.unattributed_frac"] = (wall - covered) / wall

    rows: List[Tuple[str, float]] = []
    for name in dict.fromkeys(s.name for s in layers):
        rows.append((name, secs[name]))
        rows.extend(sub_rows[name])
    rows += [(f"  wire.{kind} (in run.*)", wire[kind]) for kind in ("collect", "send", "recv")
             if wire[kind]]
    if snapshots:
        rows.append(("  checkpoint (in run.*)", ckpt_s))
    rows.append(("unattributed", wall - covered))
    return m, rows, wall


def render_table(workload: str, rows: List[Tuple[str, float]], job_s: float,
                 overhead: float, unattributed: float) -> str:
    """The per-layer table of one workload (median seconds per traced job)."""
    lines = [f"per-layer table: {workload} (median over traced jobs, job wall {job_s:.4f} s)",
             f"  {'layer':<34}{'seconds':>10}{'share':>9}"]
    for name, seconds in rows:
        lines.append(f"  {name:<34}{seconds:>10.4f}{seconds / job_s:>8.1%}")
    lines.append(f"  trace.overhead {overhead:.4f}  trace.unattributed_frac {unattributed:.4f}")
    return "\n".join(lines)
