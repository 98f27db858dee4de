"""train-filtered: ZeRO-3 training of llama3.1-8b-sim with filtered checkpoints.

A closed loop of optimizer steps at world size 2 (``comm_backend="sim"``,
``compile=False``), writing a ``filtered`` partial checkpoint every
:data:`INTERVAL` steps (paper use case 2, the model behind the 4.3x
size claim).  Compute-bound: autograd and nn dominate, checkpoint writes
are a visible minority (the short interval gives each run enough events
for a steady median), and no merge or serve code runs.

One operation is one checkpoint interval: :data:`INTERVAL` steps and
the checkpoint write that ends them.  The loop is ``Trainer.train``
itself.  Two callbacks read the clock: one registered first (the step's
compute is done) and one registered last (the step's checkpoint is on
disk), so a step splits into compute and checkpoint stall without
touching the trainer.  At the deadline the last callback raises
``SimulatedFailure``, the trainer's own crash signal, which ends the
loop cleanly.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from common import Metrics, Run, count_blob_write
from tracer import Probe, Span, Tracer

from repro.train import TrainConfig, Trainer
from repro.train.callbacks import Callback
from repro.util.errors import SimulatedFailure

NAME = "train-filtered"
MODEL = "llama3.1-8b-sim"
INTERVAL = 2
OP = f"checkpoint intervals of {INTERVAL} steps"
# Set-ups per --trace 0 run; setup_s is their median.  One takes about
# 0.15 s, so many are cheap and steady the median.
SETUP_REPEATS = 21
# The traced run fails if more of the training loop's wall time than
# this is left outside the named layer spans.
MAX_UNATTRIBUTED_PCT = 5.0


def _count_slots(span: Span, args: tuple, kwargs: dict, result) -> None:
    if result is not None:
        span.add("slots", float(len(result)))


PROBES = [
    Probe("train.step", "repro.train.trainer:Trainer.train_step"),
    Probe("train.eval", "repro.train.trainer:Trainer.eval_loss"),
    Probe("data.batch", "repro.data.datasets:CPTDataset.batch_at_step"),
    Probe("nn.forward", "repro.nn.model:CausalLM.loss"),
    Probe("autograd.backward", "repro.autograd.tensor:Tensor.backward"),
    Probe("optim.clip", "repro.optim.optimizer:clip_grad_norm_"),
    Probe("dist.zero", "repro.dist.zero:ZeroStage3Engine.step"),
    Probe("dist.comm", "repro.dist.comm:SimComm.reduce_scatter_mean_into"),
    Probe("dist.comm", "repro.dist.comm:SimComm.all_gather_into"),
    Probe("optim.adamw", "repro.optim.adam:AdamW.step"),
    Probe("numerics.quantize", "repro.numerics.dtypes:quantize"),
    Probe("strategies.plan", "repro.strategies.base:CheckpointStrategy.plan_step", _count_slots),
    Probe("io.writer", "repro.io.writer:save_checkpoint"),
    Probe("dist.zero.rank_state", "repro.dist.zero:ZeroStage3Engine.rank_state_dict"),
    Probe("io.tensorfile.write", "repro.io.tensorfile:write_tensorfile"),
    Probe("io.blobfile.write", "repro.io.blobfile:write_blob", count_blob_write),
]
REQUIRED = sorted({p.span for p in PROBES})
# Layer shares are of the whole training loop.
ROOT = "train.loop"


@dataclass
class State:
    trainer: Trainer


def setup(work: Path, seed: int) -> State:
    # seq_len 32 puts about 35 checkpoint intervals (70 steps) in a 25 s
    # run, and a checkpoint write near a sixth of each.
    cfg = TrainConfig(
        model=MODEL, task="cpt", seed=seed, kb_seed=seed + 1,
        world_size=2, micro_batch_size=2, grad_accum_steps=2, seq_len=32,
        total_steps=100_000, warmup_steps=10,
        checkpoint_strategy="filtered", checkpoint_interval=INTERVAL,
        comm_backend="sim", compile=False, log_every=1_000_000,
        output_dir=str(work / "run"),
    )
    return State(Trainer(cfg))


class _Clock:
    """Step boundaries read from two trainer callbacks (see module docs)."""

    def __init__(self, *, seconds: float | None, steps: int | None) -> None:
        self.seconds = seconds
        self.steps = steps
        self.start = math.nan
        self.compute_done: list[float] = []
        self.step_end: list[float] = []
        self.step_ids: list[int] = []
        self.losses: list[float] = []
        self.ckpt_bytes: list[float] = []
        clock = self

        class ComputeDone(Callback):
            def on_step_end(self, trainer, step, loss):
                clock.compute_done.append(time.perf_counter())

        class StepEnd(Callback):
            def on_train_start(self, trainer):
                clock.start = time.perf_counter()

            def on_step_end(self, trainer, step, loss):
                clock.step_end.append(time.perf_counter())
                clock.step_ids.append(step)
                clock.losses.append(float(loss))
                clock.ckpt_bytes.append(
                    trainer.storage.stats.category_bytes("checkpoint_write"))
                if clock.done(step):
                    raise SimulatedFailure(step, "benchmark deadline")

        self.callbacks = (ComputeDone(), StepEnd())

    def done(self, step: int) -> bool:
        if self.steps is not None:
            return step >= self.steps
        return self.step_end[-1] - self.start >= self.seconds


def measure(state: State, *, seconds: float | None = None, ops: int | None = None,
            tracer: Tracer | None = None, **_) -> Run:
    trainer = state.trainer
    clock = _Clock(seconds=seconds, steps=ops)
    first, last = clock.callbacks
    trainer.callbacks.insert(0, first)
    trainer.callbacks.append(last)
    if tracer is None:
        result = trainer.train()
    else:
        with tracer.span("train.loop"):
            result = trainer.train()

    run = Run()
    n = len(clock.step_end)
    run.attempted = run.ops = n
    run.wall_s = clock.step_end[-1] - clock.start
    bounds = [clock.start] + clock.step_end
    compute = [clock.compute_done[i] - bounds[i] for i in range(n)]
    stall = [clock.step_end[i] - clock.compute_done[i] for i in range(n)]
    written = np.diff([0.0] + clock.ckpt_bytes)
    events = [i for i in range(n) if written[i] > 0]
    interval_ends = [clock.start] + [clock.step_end[i] for i in events]
    sizes = [written[i] / 2**20 for i in events]
    # The first event is the strategy's initial full checkpoint, and the
    # slow half-sets repeat every 2 * slow_factor events after it.  Count
    # whole cycles after the first event, and time the intervals after
    # the first, so neither figure depends on how many steps a run holds.
    cycle = 2 * trainer.strategy.slow_factor
    steady_sizes = sizes[1:][:(len(sizes) - 1) // cycle * cycle] or sizes
    op_ms = list(np.diff(interval_ends) * 1e3)
    # An interval's kind is how many slots its checkpoint saved.
    saved = {r["step"]: len(r["slots"]) for r in trainer.strategy.log.records}
    op_kind = [saved[clock.step_ids[i]] for i in events]
    for i, loss in enumerate(clock.losses):
        if not math.isfinite(loss):
            run.fail(f"step {i + 1}: loss {loss}")
    if result.interrupted_at != n:
        run.fail(f"training stopped at {result.interrupted_at}, expected {n}")
    run.data.update(
        op_ms=op_ms[1:] or op_ms,
        op_kind=op_kind[1:] or op_kind,
        write_mb=steady_sizes,
        compute_ms=[c * 1e3 for c in compute],
        stall_ms=[stall[i] * 1e3 for i in events],
        tokens_per_step=trainer.config.tokens_per_step,
        loss_digest=hashlib.sha256(np.array(clock.losses).tobytes()).hexdigest(),
        comm_bytes=trainer.engine.comm.stats.total_bytes(),
        comm_calls=sum(trainer.engine.comm.stats.calls_by_op.values()),
        ckpt_fraction=trainer.storage.clock.fraction("checkpoint_write"),
    )
    return run


def per_layer(untraced: Run, traced: Run, tracer: Tracer, metrics: Metrics,
              notes: list[str]) -> None:
    if traced.data["loss_digest"] != untraced.data["loss_digest"]:
        traced.fail("traced loss digest differs from the untraced run: tracing "
                    "perturbed the arithmetic")
    steps = traced.ops
    metrics.put("dist.comm_bytes", traced.data["comm_bytes"] / steps, "B")
    metrics.put("dist.comm_calls", traced.data["comm_calls"] / steps, "count")
    slots = [sp.counts["slots"] for sp in tracer.spans
             if sp.name == "strategies.plan" and "slots" in sp.counts]
    metrics.put("strategies.slots_per_event", statistics.median(slots), "count")
    metrics.put("io.storage.sim_ckpt_fraction", traced.data["ckpt_fraction"], "ratio")
    unattributed = metrics["trace.unattributed_pct"]["value"]
    if unattributed > MAX_UNATTRIBUTED_PCT:
        traced.fail(f"{unattributed:.1f}% of training wall time is outside every "
                    f"layer span (at most {MAX_UNATTRIBUTED_PCT:g}%): a probe is missing")
    d = untraced.data
    tokens_per_s = d["tokens_per_step"] * untraced.ops / untraced.wall_s
    notes.append(f"untraced {untraced.ops} steps: {tokens_per_s:.1f} tokens/s, step compute "
                 f"p50 {statistics.median(d['compute_ms']):.1f} ms, checkpoint stall p50 "
                 f"{statistics.median(d['stall_ms']):.1f} ms over {len(d['stall_ms'])} events")
    notes.append(f"traced {steps} steps")
