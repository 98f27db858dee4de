"""serve-mixed: an open loop of plan/diff/merge/reshard jobs against the daemon.

``serve_in_thread`` runs the merge service with its default workers and
quota.  :data:`TENANTS` work over byte-identical copies of one small
llama3.2-1b-sim trail (tied embeddings), which fits the daemon's group
cache, so most reads are warm cache hits deduplicated across tenants.

Jobs arrive at the constant :data:`RATE_PER_S`, about half the daemon's
capacity on a 2-core box, whatever happens to the daemon: an open loop.
Each block of 10 jobs is a seeded shuffle of :data:`MIX` and each job's
tenant is a seeded choice, so every run carries the same load and mix;
bursts are left to a later workload.  One thread submits each
job when it is due; a second waits for results on its own connection.
A job's latency runs from when it was *due* to when the daemon finished
it, so a stall is charged to every job queued behind it, and the report
states how late the generator ran.  The finish time is the submit reply's arrival plus
the daemon's own admitted -> done interval from the job's timeline,
which does not depend on the order the waiter collects results in.
"""

from __future__ import annotations

import math
import os
import queue
import random
import shutil
import threading
from dataclasses import dataclass
from pathlib import Path

from common import Metrics, Run, checkpoint_digest, count_blob_read, count_blob_write, tree_mb
from stats import Arrival, OpenLoop, constant_schedule, median
from tracer import Probe, Tracer

from repro.core import LLMTailor
from repro.dist.reshard import reshard_checkpoint
from repro.serve import JobSpec, ServeClient, ServeConfig, serve_in_thread
from repro.train import TrainConfig, Trainer

NAME = "serve-mixed"
MODEL = "llama3.2-1b-sim"
TENANTS = ("alpha", "beta", "gamma", "delta")
# Per 10 jobs: 5 plan, 3 diff, 1 merge, 1 reshard, the mix of the
# pytest serve scenario (benchmarks/bench_serve.py).  It is not derived
# from observed traffic.  Each block of 10 consecutive jobs is a seeded
# shuffle of it, so every run carries exactly these proportions while
# the order, and with it which jobs overlap, varies with the seed.
MIX = ("plan", "diff", "plan", "merge", "plan", "diff", "reshard",
       "plan", "diff", "plan")
RATE_PER_S = 5.0
OP = f"jobs at {RATE_PER_S:g}/s"
SLO_MS = 1000.0
RESHARD_TO = 3
WAIT_TIMEOUT_S = 120.0

# Set-ups per --trace 0 run; setup_s is their median.
SETUP_REPEATS = 7

PROBES = [
    Probe("serve.execute", "repro.serve.jobs:execute_job"),
    Probe("serve.estimate", "repro.serve.admission:estimate_job_cost"),
    Probe("core.merge", "repro.core.tailor:LLMTailor.merge"),
    Probe("core.diff", "repro.core.diffstat:diff_checkpoints"),
    Probe("strategies.plan_strategy", "repro.strategies.planner:plan_strategy"),
    Probe("dist.reshard", "repro.dist.reshard:reshard_checkpoint"),
    Probe("io.storage.cache_get", "repro.io.storage:GroupCache.get"),
    Probe("io.blobfile.read", "repro.io.blobfile:read_blob", count_blob_read),
    Probe("io.blobfile.read", "repro.io.blobfile:read_blob_selected", count_blob_read),
    Probe("io.blobfile.write", "repro.io.blobfile:write_blob", count_blob_write),
]
REQUIRED = sorted({p.span for p in PROBES})
# Layer shares are of the jobs' execution time in the daemon's workers.
ROOT = "serve.execute"


@dataclass
class State:
    work: Path
    runs: dict  # tenant -> trail copy
    refs: dict  # (tenant, kind) -> one-shot output digest, made on first use

    def reference(self, tenant: str, kind: str) -> str:
        """Digest of the job run one-shot, outside the daemon."""
        key = (tenant, kind)
        if key not in self.refs:
            run = self.runs[tenant]
            out = self.work / f"ref-{kind}-{tenant}"
            if kind == "merge":
                LLMTailor.from_dict(_recipe_doc(run)).merge(out)
            else:
                reshard_checkpoint(run / "checkpoint-6", out, RESHARD_TO)
            self.refs[key] = checkpoint_digest(out)
            shutil.rmtree(out)
        return self.refs[key]


def _recipe_doc(run: Path) -> dict:
    return {
        "base_checkpoint": str(run / "checkpoint-6"),
        "slices": [{"slot": "layers.0-1", "source": str(run / "checkpoint-4")}],
        "options": {"stream": True},
    }


def setup(work: Path, seed: int) -> State:
    cfg = TrainConfig(
        model=MODEL, task="cpt", seed=seed, kb_seed=seed + 1,
        world_size=2, micro_batch_size=2, grad_accum_steps=1, seq_len=32,
        total_steps=6, warmup_steps=2, checkpoint_strategy="full",
        checkpoint_interval=2, comm_backend="sim", compile=False,
        log_every=1_000_000, output_dir=str(work / "trail"),
    )
    Trainer(cfg).train()
    runs = {}
    for tenant in TENANTS:
        runs[tenant] = work / f"tenant-{tenant}"
        shutil.copytree(cfg.output_dir, runs[tenant])
    return State(work, runs, {})


def _spec(kind: str, tenant: str, run: Path, out: Path) -> JobSpec:
    if kind == "plan":
        params = {"model": MODEL, "strategy": "parity"}
    elif kind == "diff":
        params = {"checkpoint_a": str(run / "checkpoint-4"),
                  "checkpoint_b": str(run / "checkpoint-6")}
    elif kind == "merge":
        params = {"recipe_doc": _recipe_doc(run), "output": str(out)}
    else:
        params = {"checkpoint": str(run / "checkpoint-6"), "output": str(out),
                  "target_world_size": RESHARD_TO}
    return JobSpec(tenant=tenant, kind=kind, params=params)


@dataclass
class _Job:
    arrival: Arrival
    kind: str
    tenant: str
    out: Path
    replied: float = math.nan  # loop time the submit reply arrived
    doc: dict | None = None


def measure(state: State, *, seconds: float, seed: int, tracer: Tracer | None = None,
            **_) -> Run:
    rng = random.Random(seed)
    schedule = constant_schedule(RATE_PER_S, seconds, rng.random())
    # Whole blocks only, so every run holds the mix's exact proportions.
    schedule = schedule[:len(schedule) // len(MIX) * len(MIX)]
    kinds: list[str] = []
    while len(kinds) < len(schedule):
        kinds += rng.sample(MIX, len(MIX))
    plan = [(kind, rng.choice(TENANTS)) for kind in kinds]
    outputs = state.work / ("served-traced" if tracer else "served")
    socket_path = outputs / "s.sock"
    outputs.mkdir(parents=True)
    # A relative socket path stays under the AF_UNIX length limit however
    # deep the checkout is.
    config = ServeConfig(socket_path=os.path.relpath(socket_path),
                         blob_root=str(outputs / "blobs"))
    loop = OpenLoop(schedule)
    jobs: list[_Job] = []
    pending: queue.Queue = queue.Queue()

    with serve_in_thread(config) as handle:
        def waiter() -> None:
            with ServeClient(config.socket_path) as client:
                while (job := pending.get()) is not None:
                    resp = client.wait(job.doc["id"], timeout=WAIT_TIMEOUT_S)
                    job.doc = resp.get("job") or {"status": "failed",
                                                  "error": resp.get("error")}

        collector = threading.Thread(target=waiter, name="perfbench-waiter")
        collector.start()
        try:
            with ServeClient(config.socket_path) as client:
                def send(arrival: Arrival) -> None:
                    kind, tenant = plan[arrival.index]
                    job = _Job(arrival, kind, tenant, outputs / f"{kind}-{arrival.index}")
                    jobs.append(job)
                    resp = client.submit(_spec(kind, tenant, state.runs[tenant], job.out))
                    job.replied = loop.now()
                    job.doc = resp
                    if resp.get("ok"):
                        pending.put(job)

                loop.run(send)
        finally:
            pending.put(None)
            collector.join(timeout=WAIT_TIMEOUT_S + 30)
        stats = handle.service.stats()
    if collector.is_alive():
        raise RuntimeError("result waiter did not finish")

    run = Run()
    run.attempted = len(jobs)
    latency: list[float] = []
    latency_kinds: list[str] = []
    queue_wait: list[float] = []
    execute: dict[str, list[float]] = {}
    write_mb: list[float] = []
    refused = 0
    for job in jobs:
        doc = job.doc or {}
        if "status" not in doc:  # the submit itself was refused
            refused += 1
            run.fail(f"job {job.arrival.index} ({job.kind}) refused: {doc.get('error')}")
            continue
        if doc["status"] != "done":
            run.fail(f"job {job.arrival.index} ({job.kind}) {doc['status']}: {doc.get('error')}")
            continue
        t = {e["kind"]: e["t"] for e in doc["timeline"]["events"]}
        job.arrival.finished = job.replied + t["done"] - t["admitted"]
        latency.append(job.arrival.latency * 1e3)
        latency_kinds.append(job.kind)
        queue_wait.append((t["start"] - t["admitted"]) * 1e3)
        execute.setdefault(job.kind, []).append((t["done"] - t["start"]) * 1e3)
        if job.kind in ("merge", "reshard"):
            if checkpoint_digest(job.out) != state.reference(job.tenant, job.kind):
                run.fail(f"job {job.arrival.index}: served {job.kind} differs "
                         "from the one-shot output")
            write_mb.append(tree_mb(job.out))
            shutil.rmtree(job.out, ignore_errors=True)
    shutil.rmtree(outputs, ignore_errors=True)
    run.ops = len(latency)
    run.wall_s = sum(sum(v) for v in execute.values()) / 1e3
    run.data.update(
        op_ms=latency, op_kind=latency_kinds, write_mb=write_mb, queue_wait_ms=queue_wait,
        execute_ms=execute,
        slo_met=sum(1 for x in latency if x <= SLO_MS), refused=refused,
        late_ms_max=loop.max_late() * 1e3, cache=stats["cache"],
        dedup=stats.get("blob_store", {}).get("dedup_factor", 0.0),
    )
    return run


def per_layer(untraced: Run, traced: Run, tracer: Tracer, metrics: Metrics,
              notes: list[str]) -> None:
    # From the untraced run: the daemon's own job timelines and stats().
    d = untraced.data
    metrics.put("serve.queue_wait_pct", 100.0 * sum(d["queue_wait_ms"]) / sum(d["op_ms"]), "%")
    metrics.put("serve.cache_hit_ratio", d["cache"]["hit_rate"], "ratio")
    metrics.put("serve.dedup_factor", d["dedup"], "ratio")
    metrics.put("serve.refused", d["refused"], "count")
    metrics.put("serve.generator_late_pct",
                100.0 * d["late_ms_max"] * RATE_PER_S / 1e3, "%")
    notes.append(f"untraced {untraced.attempted} jobs at {RATE_PER_S:g}/s: "
                 f"{d['slo_met']} within the {SLO_MS:g} ms limit, queue wait p50 "
                 f"{median(d['queue_wait_ms']):.1f} ms, generator at most "
                 f"{d['late_ms_max']:.1f} ms late")
    notes.append("execute p50 by kind: " + ", ".join(
        f"{kind} {median(v):.1f} ms" for kind, v in sorted(d["execute_ms"].items())))
    notes.append(f"traced {traced.attempted} jobs")
