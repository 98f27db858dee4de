"""recover-parity: the paper's crash -> merge -> resume loop on a parity trail.

Set-up trains llama3.1-8b-sim at world size 2 with ``parity`` partial
checkpoints (paper use case 1, the interleaved layout Table 7 shows is
slowest to merge) and crashes it at :data:`FAILURE_STEP`.  One operation
is a closed-loop recovery:

1. ``LLMTailor.from_checkpoints(trail, failure_step, workers=2)``;
2. ``merge`` into a fresh directory;
3. an elastic ``Trainer.resume_from`` at world size 1 (the reader
   reshards 2 -> 1 in memory);
4. ``eval_loss`` on the fixed evaluation batches.

An operation's time covers steps 1-3, the user's wait before training
can go on; step 4 checks the resumed state.  Read- and merge-bound, no cross-
request cache, almost no autograd work.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from common import Metrics, Run, checkpoint_digest, count_blob_read, count_blob_write, tree_mb
from stats import median
from tracer import Probe, Tracer

from repro.core import LLMTailor
from repro.core.autorecipe import latest_slot_coverage
from repro.core.groups import groups_for_slot
from repro.io.blobfile import read_blob
from repro.io.layout import CheckpointPaths, checkpoint_dir
from repro.io.tensorfile import TensorFile
from repro.nn.slots import slot_parameter_shapes
from repro.train import TrainConfig, Trainer

NAME = "recover-parity"
MODEL = "llama3.1-8b-sim"
INTERVAL = 2
FAILURE_STEP = 7  # events at 2 (full), 4 (odd half), 6 (even half)
WORKERS = 2
OP = "recoveries"

# Set-ups per --trace 0 run; setup_s is their median.
SETUP_REPEATS = 5

PROBES = [
    Probe("core.autorecipe", "repro.core.tailor:LLMTailor.from_checkpoints"),
    Probe("core.merge", "repro.core.tailor:LLMTailor.merge"),
    Probe("core.plan", "repro.core.tailor:LLMTailor.plan"),
    Probe("core.weights", "repro.core.weights:merge_weight_files"),
    Probe("core.optimizer_merge", "repro.core.optimizer_merge:merge_optimizer_shards"),
    Probe("core.configs", "repro.core.configs:copy_config_files"),
    Probe("core.configs", "repro.core.configs:write_merged_manifest"),
    Probe("core.verify", "repro.core.verify:verify_checkpoint"),
    Probe("io.blobfile.read", "repro.io.blobfile:read_blob", count_blob_read),
    Probe("io.blobfile.read", "repro.io.blobfile:read_blob_selected", count_blob_read),
    Probe("io.blobfile.write", "repro.io.blobfile:write_blob", count_blob_write),
    Probe("io.tensorfile.read", "repro.io.tensorfile:TensorFile.read"),
    Probe("io.tensorfile.read", "repro.io.tensorfile:TensorFile.read_all"),
    Probe("io.tensorfile.read", "repro.io.tensorfile:TensorFile.read_raw"),
    Probe("io.tensorfile.write", "repro.io.tensorfile:write_tensorfile"),
    Probe("train.resume", "repro.train.trainer:Trainer.resume_from"),
    Probe("io.reader.load", "repro.io.reader:load_checkpoint"),
    Probe("dist.reshard", "repro.dist.reshard:reshard_state_dicts"),
    Probe("dist.zero.load_rank_state", "repro.dist.zero:ZeroStage3Engine.load_rank_state_dict"),
    Probe("train.eval", "repro.train.trainer:Trainer.eval_loss"),
    Probe("nn.forward", "repro.nn.model:CausalLM.loss"),
]
REQUIRED = sorted({p.span for p in PROBES})
# Layer shares are of the recoveries' time.
ROOT = "recover.op"


@dataclass
class State:
    trail: Path
    work: Path
    resumer: Trainer
    sources: dict  # slot -> CheckpointPaths of its newest copy


def setup(work: Path, seed: int) -> State:
    cfg = TrainConfig(
        model=MODEL, task="cpt", seed=seed, kb_seed=seed + 1,
        world_size=2, micro_batch_size=2, grad_accum_steps=1, seq_len=48,
        total_steps=FAILURE_STEP + 1, warmup_steps=2,
        checkpoint_strategy="parity", checkpoint_interval=INTERVAL,
        failure_step=FAILURE_STEP, comm_backend="sim", compile=False,
        log_every=1_000_000, output_dir=str(work / "trail"),
    )
    result = Trainer(cfg).train()
    if result.interrupted_at != FAILURE_STEP:
        raise RuntimeError(f"trail crashed at {result.interrupted_at}, not {FAILURE_STEP}")
    trail = Path(cfg.output_dir)
    coverage, _ = latest_slot_coverage(trail, FAILURE_STEP)
    sources = {slot: checkpoint_dir(trail, step) for slot, step in coverage.items()}
    resumer = Trainer(cfg.replace(world_size=1, failure_step=None,
                                  output_dir=str(work / "resumed")))
    return State(trail, work, resumer, sources)


def measure(state: State, *, seconds: float | None = None, ops: int | None = None,
            tracer: Tracer | None = None, **_) -> Run:
    run = Run()
    run.data.update(op_ms=[], write_mb=[], files=[], bytes=[])
    reference: dict = {}
    start = time.perf_counter()
    while (run.attempted < ops) if ops is not None else (
            time.perf_counter() - start < seconds):
        index = run.attempted
        run.attempted += 1
        out = state.work / f"merged-{index}"
        try:
            if tracer is None:
                result, step, loss, took = _recover(state, out)
            else:
                with tracer.span("recover.op"):
                    result, step, loss, took = _recover(state, out)
            _check(state, run, index, result, step, loss, out, reference)
            run.data["write_mb"].append(tree_mb(out))
        except Exception as exc:  # one failed operation, not a failed run
            run.fail(f"op {index}: {type(exc).__name__}: {exc}")
            took = None
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if took is not None:
            run.data["op_ms"].append(took * 1e3)
            run.data["files"].append(result.optimizer_files_loaded)
            run.data["bytes"].append(result.optimizer_bytes_loaded)
            run.ops += 1
            run.wall_s += took
    run.data["eval_loss"] = reference.get("loss", float("nan"))
    return run


def _recover(state: State, out: Path):
    t0 = time.perf_counter()
    tailor = LLMTailor.from_checkpoints(state.trail, FAILURE_STEP, workers=WORKERS)
    result = tailor.merge(output=out)
    step = state.resumer.resume_from(result.output)
    took = time.perf_counter() - t0
    return result, step, state.resumer.eval_loss(), took


def _check(state: State, run: Run, index: int, result, step: int, loss: float,
           out: Path, reference: dict) -> None:
    """The merged checkpoint is complete and provenance-exact; resume agrees."""
    problems = []
    if result.verify_report is None or not result.verify_report.ok:
        problems.append("merge skipped or failed verification")
    digest = checkpoint_digest(out)
    if not reference:
        problems += _provenance_problems(out, state)
        reference.update(digest=digest, step=step, loss=loss)
    else:
        if digest != reference["digest"]:
            problems.append("merged bytes differ from the first operation's")
        if step != reference["step"] or loss != reference["loss"]:
            problems.append(f"resumed at step {step} loss {loss!r}, first op "
                            f"{reference['step']} / {reference['loss']!r}")
    if step != max(s.step for s in state.sources.values()):
        problems.append(f"resumed at step {step}, not the newest source")
    if problems:
        run.fail(f"op {index}: " + "; ".join(problems))


def _provenance_problems(out: Path, state: State) -> list[str]:
    """Every slot's weights, masters and moments equal its newest source copy."""
    config = state.resumer.model_config
    merged = CheckpointPaths(out)
    world = int(merged.read_manifest()["world_size"])
    weights = TensorFile(merged.weights)
    blobs: dict = {}

    def shard(paths: CheckpointPaths, rank: int) -> dict:
        key = (str(paths.dir), rank)
        if key not in blobs:
            blobs[key] = read_blob(paths.shard(rank))
        return blobs[key]

    problems = []
    for slot, source in state.sources.items():
        src_weights = TensorFile(source.weights)
        for name in slot_parameter_shapes(config)[slot]:
            if weights.read_raw(name)[0] != src_weights.read_raw(name)[0]:
                problems.append(f"{slot} weight {name} differs from {source.dir.name}")
        for rank in range(world):
            got, want = shard(merged, rank), shard(source, rank)
            for g in groups_for_slot(config, slot):
                pairs = [(got["fp32_flat_groups"][g], want["fp32_flat_groups"][g])]
                pairs += [(got["state"][g][k], want["state"][g][k])
                          for k in ("exp_avg", "exp_avg_sq")]
                if not all(np.array_equal(a, b) for a, b in pairs):
                    problems.append(f"{slot} rank {rank} group {g} optimizer state "
                                    f"differs from {source.dir.name}")
    return problems


def per_layer(untraced: Run, traced: Run, tracer: Tracer, metrics: Metrics,
              notes: list[str]) -> None:
    if traced.data["eval_loss"] != untraced.data["eval_loss"]:
        traced.fail("traced resumed eval loss differs from the untraced run's")
    metrics.put("core.shard_files_loaded", median(traced.data["files"]), "count")
    metrics.put("core.shard_bytes_loaded", median(traced.data["bytes"]), "B")
    notes.append(f"untraced {untraced.ops} recoveries, eval loss of the resumed model "
                 f"{untraced.data['eval_loss']!r}; traced {traced.ops} recoveries")
