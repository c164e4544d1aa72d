"""The benchmark's workloads: inputs, one job each, oracles and output checks.

A job composes the public entry points ``Pipeline.execute`` uses, in the
same order (source → partition → metrics → mutate → distribute → backend
→ ``BSPEngine.run``), and times every call through a :class:`Meter`: a
``layer`` span when traced, so a traced run attributes the job's wall time
layer by layer, and a host-speed-scaled wall when untraced.  Nothing here
reaches inside the program: the spans are recorded from out here, and the
same recorder is handed to the program's own ``recorder=`` parameters so
the engine's stage, barrier, wire and checkpoint spans land in one trace.

Checks run outside the timed job.  Oracles (a serial-backend run, the
pure-Python references, an in-memory partition) are built once per run.
"""

from __future__ import annotations

import functools
import hashlib
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from repro.apps.reference import cc_reference, sssp_reference
from repro.bsp import BSPEngine, build_distributed_graph
from repro.mutate import MutationBatch, apply_mutations, pr_warm_values
from repro.partition import partition_metrics
from repro.pipeline.registries import APPS, BACKENDS, GENERATORS, PARTITIONERS, STREAMS
from repro.stream import stream_partition

from meter import Meter

#: the seed the pinned ``edge_parts`` digests below were taken at.
DEFAULT_SEED = 0

#: SHA-256 of each partition's int64 ``edge_parts`` at DEFAULT_SEED, by label.
PINNED_DIGESTS: Dict[str, str] = {
    "ebv": "d006e74989688be0dfb85c3b2b2f2a3634fe3f9012740dad18da112a205c62bb",
    "hdrf": "1179ac39d8523ec1d12d83142ade9f1f35f65af57fdf82da41c6e870bb21acff",
    "ebv-sharded": "12b7b0445bcfb2ad8a9f961a8edac49f3b7f1a20eb0e5f84f64182d691b317f3",
    "ebv-stream": "54dff3efdc27e9578da59f377eb978a22a0d5cd758e1ceed12a9a518a1865784",
    "ebv-stream.mutated": "7dc85bf4393f876cab7545e6fff4ee9992cd6c91393a05232b93f730959e91e7",
    "dbh.p4": "9c9fc35e6ec20dbe3e7d817adcc9db8af89d068eaa2d7318dc21be6aa5546eb3",
    "dbh.p2": "84ec67feb786d43ca4de8f3e95a360df0dd0da8e71f6dc4988dd8a495b857603",
}

THREAD_BACKEND = "thread?max_workers=2"
PR_TOL = 1e-12
PR_ITERS = 300
DELTA_TOL = 1e-8


@dataclass
class JobOutput:
    """Everything a job produced, kept until its checks have run."""

    #: (label, PartitionResult, PartitionMetrics) per partition made.
    partitions: List[Tuple[str, Any, Any]] = field(default_factory=list)
    #: (app, BSPRun) in run order.
    runs: List[Tuple[str, Any]] = field(default_factory=list)
    dgraphs: List[Any] = field(default_factory=list)
    extra: Dict[str, Any] = field(default_factory=dict)

    def partition(self, label: str):
        return next(p for p in self.partitions if p[0] == label)

    def run(self, app: str):
        return next(r for a, r in self.runs if a == app)


@dataclass
class Workload:
    """A named job, its inputs, oracle and checks, plus its primary outputs.

    ``run(inputs, meter, jobdir, out)`` makes one job's calls into
    ``out``; ``jobdir`` is a scratch directory emptied after each job.
    ``check(out, inputs, oracle)`` returns the job's problems.
    """

    name: str
    build_inputs: Callable[[int, str], Dict[str, Any]]
    build_oracle: Callable[[Dict[str, Any]], Dict[str, Any]]
    run: Callable[[Dict[str, Any], Meter, str, JobOutput], None]
    check: Callable[[JobOutput, Dict[str, Any], Dict[str, Any]], List[str]]
    #: the partition label and run name the quality metrics describe.
    primary_partition: str
    primary_run: str

    def job(self, inputs, meter: Meter, jobdir: str) -> JobOutput:
        out = JobOutput()
        self.run(inputs, meter, jobdir, out)
        return out


# ----------------------------------------------------------------------
# Shared checks
# ----------------------------------------------------------------------


def edge_parts_digest(result) -> str:
    parts = np.ascontiguousarray(result.edge_parts, dtype=np.int64)
    return hashlib.sha256(parts.tobytes()).hexdigest()


def check_partition(label: str, result, metrics, seed: int) -> List[str]:
    """Part ids in range, metrics recomputed with plain numpy, pinned digest."""
    graph, p = result.graph, result.num_parts
    parts = np.asarray(result.edge_parts)
    m, n = graph.num_edges, graph.num_vertices
    if parts.shape != (m,) or (m and (parts.min() < 0 or parts.max() >= p)):
        return [f"{label}: edge_parts do not place every edge in [0, {p})"]
    problems = []
    keys = np.unique(np.concatenate([parts * np.int64(n) + graph.src,
                                     parts * np.int64(n) + graph.dst]))
    vcounts = np.bincount(keys // n, minlength=p)
    ecounts = np.bincount(parts, minlength=p)
    covered = int(vcounts.sum())
    expected = {
        "replication": covered / n,
        "edge_imbalance": float(ecounts.max() / (m / p)),
        "vertex_imbalance": float(vcounts.max() / (covered / p)),
    }
    for key, value in expected.items():
        if getattr(metrics, key) != value:
            problems.append(f"{label}: partition_metrics {key}={getattr(metrics, key)!r} "
                            f"but numpy recount gives {value!r}")
    if seed == DEFAULT_SEED and edge_parts_digest(result) != PINNED_DIGESTS[label]:
        problems.append(f"{label}: edge_parts digest {edge_parts_digest(result)} "
                        f"!= pinned {PINNED_DIGESTS[label]}")
    return problems


def check_values(app: str, got, want, exact: bool = True) -> List[str]:
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        return [f"{app}: values shape {got.shape} != oracle {want.shape}"]
    if exact:
        if got.tobytes() != want.tobytes():
            return [f"{app}: values are not bit-identical to the oracle "
                    f"({int(np.count_nonzero(got != want))} differ)"]
        return []
    diff = float(np.max(np.abs(got - want))) if got.size else 0.0
    if not diff <= DELTA_TOL:
        return [f"{app}: max |delta| {diff:g} from the oracle exceeds {DELTA_TOL:g}"]
    return []


def _serial_runs(graph, result, apps) -> Dict[str, np.ndarray]:
    """The serial-backend oracle: each app on its own fresh build."""
    engine = BSPEngine(backend="serial")
    return {app: engine.run(build_distributed_graph(result), APPS.create(spec, graph)).values
            for app, spec in apps}


# ----------------------------------------------------------------------
# Offline partitioners on an undirected power-law graph
# ----------------------------------------------------------------------

PL_VERTICES = 5_000
PL_PARTS = 16
PL_METHODS = ("ebv", "hdrf", "ebv-sharded")
PL_RUN = ("thread.pr", "pr?pagerank_iters=10")


def _powerlaw_inputs(seed: int, workdir: str) -> Dict[str, Any]:
    return {"graph": GENERATORS.create(f"powerlaw?vertices={PL_VERTICES},seed={seed}"),
            "seed": seed}


def _powerlaw_oracle(inputs):
    graph = inputs["graph"]
    primary = PARTITIONERS.create(PL_METHODS[0]).partition(graph, PL_PARTS)
    return {"values": _serial_runs(graph, primary, [PL_RUN])}


def _powerlaw_run(inputs, meter: Meter, jobdir: str, out: JobOutput) -> None:
    graph = inputs["graph"]
    for method in PL_METHODS:
        with meter.layer(f"partition.{method}", edges=graph.num_edges):
            result = PARTITIONERS.create(method).partition(graph, PL_PARTS)
        with meter.layer("partition.metrics"):
            out.partitions.append((method, result, partition_metrics(result)))
    with meter.layer("distribute"):
        dgraph = build_distributed_graph(out.partition(PL_METHODS[0])[1])
    out.dgraphs.append(dgraph)
    engine = BSPEngine(backend=BACKENDS.create(THREAD_BACKEND), recorder=meter.rec)
    with meter.layer(f"run.{PL_RUN[0]}"):
        out.runs.append((PL_RUN[0], engine.run(dgraph, APPS.create(PL_RUN[1], graph))))


def _powerlaw_check(out: JobOutput, inputs, oracle) -> List[str]:
    problems = []
    for method in PL_METHODS:
        problems += check_partition(*out.partition(method), inputs["seed"])
    return problems + check_values(PL_RUN[0], out.run(PL_RUN[0]).values,
                                   oracle["values"][PL_RUN[0]])


# ----------------------------------------------------------------------
# Out-of-core stream partition, mutation and warm-started PR-DELTA
# ----------------------------------------------------------------------

SM_VERTICES = 20_000
SM_PARTS = 8
SM_CHURN = 0.05
SM_COLD = f"pr?pagerank_iters={PR_ITERS},pagerank_tol={PR_TOL}"
SM_WARM = f"pr-delta?delta_iters={PR_ITERS},pagerank_tol={PR_TOL}"


def churn_batch(graph, fraction: float, seed: int) -> MutationBatch:
    """A mixed batch touching ``fraction`` of the edges.

    Half the ops delete distinct existing edges, half insert new ones; a
    tenth of the inserts reach a brand-new vertex, so |V| grows.
    """
    rng = np.random.default_rng(seed)
    n_ops = max(2, int(graph.num_edges * fraction))
    n_delete = n_ops // 2
    batch = MutationBatch()
    for eid in np.sort(rng.choice(graph.num_edges, size=n_delete, replace=False)):
        batch.delete(int(graph.src[eid]), int(graph.dst[eid]))
    n, grown = graph.num_vertices, 0
    for k in range(n_ops - n_delete):
        u = int(rng.integers(0, n))
        if k % 10 == 0:
            v, grown = n + grown, grown + 1
        else:
            v = int(rng.integers(0, n))
            if v == u:
                v = (v + 1) % n
        batch.insert(u, v)
    return batch


def _stream_inputs(seed: int, workdir: str) -> Dict[str, Any]:
    graph = GENERATORS.create(f"powerlaw?vertices={SM_VERTICES},seed={seed},directed=true")
    os.makedirs(workdir, exist_ok=True)
    path = os.path.join(workdir, f"edges-{seed}.npy")
    np.save(path, np.column_stack([graph.src, graph.dst]).astype(np.int64))
    return {"graph": graph, "seed": seed, "npy": path,
            "batch": churn_batch(graph, SM_CHURN, seed)}


def _stream_oracle(inputs):
    graph = inputs["graph"]
    base = PARTITIONERS.create("ebv-stream").partition(graph, SM_PARTS)
    mutated = apply_mutations(base, inputs["batch"])
    cold = BSPEngine(backend="serial").run(build_distributed_graph(mutated.partition),
                                           APPS.create(SM_COLD, mutated.graph))
    return {"base_parts": np.array(base.edge_parts), "cold_mutated": cold.values}


def _stream_run(inputs, meter: Meter, jobdir: str, out: JobOutput) -> None:
    graph = inputs["graph"]
    spill_dir, ckpt_dir = os.path.join(jobdir, "spill"), os.path.join(jobdir, "ckpt")
    partitioner = PARTITIONERS.create("ebv-stream")
    stream = STREAMS.create("npy", path=inputs["npy"], num_vertices=graph.num_vertices,
                            directed=True)
    with meter.layer("stream.partition", edges=graph.num_edges):
        spilled = stream_partition(stream, partitioner, SM_PARTS, spill_dir, recorder=meter.rec)
    with meter.layer("stream.assemble"):
        base = spilled.assemble()
    with meter.layer("mutate.apply"):
        mutation = apply_mutations(base, inputs["batch"], partitioner)
    for label, result in (("ebv-stream", base), ("ebv-stream.mutated", mutation.partition)):
        with meter.layer("partition.metrics"):
            out.partitions.append((label, result, partition_metrics(result)))
    dgraphs = []
    for result in (base, mutation.partition):
        with meter.layer("distribute"):
            dgraphs.append(build_distributed_graph(result))
    out.dgraphs += dgraphs
    backend = BACKENDS.create("serial")
    with meter.layer("run.serial.pr"):
        cold = BSPEngine(backend=backend, recorder=meter.rec).run(
            dgraphs[0], APPS.create(SM_COLD, base.graph))
    out.runs.append(("serial.pr", cold))
    with meter.layer("run.serial.pr-delta"):
        warm_start = pr_warm_values(cold.values, mutation.graph.num_vertices)
        engine = BSPEngine(backend=backend, checkpoint_dir=ckpt_dir, checkpoint_every=10,
                           recorder=meter.rec)
        out.runs.append(("serial.pr-delta", engine.run(
            dgraphs[1], APPS.create(SM_WARM, mutation.graph, prev_values=warm_start))))
    out.extra = {"mutation": mutation, "ops": len(inputs["batch"]),
                 "spill_bytes": int(spilled.manifest["bytes_spilled"])}


def _stream_check(out: JobOutput, inputs, oracle) -> List[str]:
    problems = []
    for label in ("ebv-stream", "ebv-stream.mutated"):
        problems += check_partition(*out.partition(label), inputs["seed"])
    if not np.array_equal(out.partition("ebv-stream")[1].edge_parts, oracle["base_parts"]):
        problems.append("ebv-stream: streamed-then-assembled edge_parts differ from the "
                        "in-memory partition")
    return problems + check_values("serial.pr-delta", out.run("serial.pr-delta").values,
                                   oracle["cold_mutated"], exact=False)


# ----------------------------------------------------------------------
# BSP runtime on the thread and socket backends
# ----------------------------------------------------------------------

BSP_VERTICES = 50_000
BSP_APPS = (("pr", "pr?pagerank_iters=30"), ("cc", "cc"), ("sssp", "sssp"))


def _bsp_inputs(seed: int, workdir: str) -> Dict[str, Any]:
    return {"graph": GENERATORS.create(f"powerlaw?vertices={BSP_VERTICES},seed={seed}"),
            "seed": seed}


def _bsp_oracle(parts: int, inputs):
    """Serial-backend values of each app, and the pure-Python references."""
    graph = inputs["graph"]
    source = APPS.create("sssp", graph).source
    return {"values": _serial_runs(graph, PARTITIONERS.create("dbh").partition(graph, parts),
                                   BSP_APPS),
            "reference": {"cc": cc_reference(graph), "sssp": sssp_reference(graph, source)}}


def _bsp_run(parts: int, backend: str, inputs, meter: Meter, jobdir: str,
             out: JobOutput) -> None:
    """A DBH partition and a fresh build, then every app through one engine
    and one backend."""
    graph = inputs["graph"]
    with meter.layer("partition.dbh", edges=graph.num_edges):
        result = PARTITIONERS.create("dbh").partition(graph, parts)
    with meter.layer("partition.metrics"):
        out.partitions.append((f"dbh.p{parts}", result, partition_metrics(result)))
    with meter.layer("distribute"):
        dgraph = build_distributed_graph(result)
    out.dgraphs.append(dgraph)
    engine = BSPEngine(backend=BACKENDS.create(backend), recorder=meter.rec)
    name = backend.split("?")[0]
    for app, spec in BSP_APPS:
        with meter.layer(f"run.{name}.{app}"):
            out.runs.append((f"{name}.{app}", engine.run(dgraph, APPS.create(spec, graph))))


def _bsp_check(out: JobOutput, inputs, oracle) -> List[str]:
    problems = check_partition(*out.partitions[0], inputs["seed"])
    for name, run in out.runs:
        app = name.split(".")[1]
        problems += check_values(name, run.values, oracle["values"][app])
        if app in oracle["reference"]:
            problems += check_values(f"{name} (reference)", run.values, oracle["reference"][app])
    return problems


def _bsp_workload(name: str, parts: int, backend: str) -> Workload:
    return Workload(name, _bsp_inputs, functools.partial(_bsp_oracle, parts),
                    functools.partial(_bsp_run, parts, backend), _bsp_check,
                    primary_partition=f"dbh.p{parts}",
                    primary_run=f"{backend.split('?')[0]}.pr")


#: every workload by name; why each was chosen is in BENCHMARK.json.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("powerlaw-partition", _powerlaw_inputs, _powerlaw_oracle, _powerlaw_run,
                 _powerlaw_check, primary_partition="ebv", primary_run=PL_RUN[0]),
        _bsp_workload("bsp-thread", parts=4, backend=THREAD_BACKEND),
        _bsp_workload("bsp-socket", parts=2, backend="socket"),
        Workload("stream-mutate", _stream_inputs, _stream_oracle, _stream_run, _stream_check,
                 primary_partition="ebv-stream.mutated", primary_run="serial.pr-delta"),
    )
}
