"""Elastic N→M resharding cost (extends the paper's §5.4 loading study).

The merge experiments measure consolidating shards *to one rank*; real
fleets also resume on a different world size than they checkpointed
with.  This scenario times the resharding engine over the shapes that
matter: shrink (4→2), consolidate (4→1, the merge-degenerate case), and
scatter (1→4).  The streaming engine trades a few extra selective reads
(``N + M - gcd(N, M)`` loads instead of N) for never holding the full
master state in memory.
"""

from __future__ import annotations

import itertools

import pytest

from _bench_common import ROUNDS, WARMUP_ROUNDS, emit

from repro.core.groups import tailored_param_groups
from repro.dist import ZeroStage3Engine, reshard_checkpoint
from repro.io import Storage, save_checkpoint
from repro.nn import build_model, get_config
from repro.util.tables import Table

_counter = itertools.count()
_times: dict[str, float] = {}


@pytest.fixture(scope="module")
def full_checkpoints(tmp_path_factory):
    """A complete ws-4 checkpoint for a 16-layer model, plus its ws-1 form."""
    config = get_config("llama3.2-1b-sim")
    model = build_model(config, seed=1)
    engine = ZeroStage3Engine(
        model, config, tailored_param_groups(model, config, 0.01), world_size=4
    )
    storage = Storage(tmp_path_factory.mktemp("reshard"))
    save_checkpoint(storage, step=100, model=model, config=config, engine=engine,
                    trainer_state={"global_step": 100}, strategy="full")
    ws4 = storage.root / "checkpoint-100"
    ws1 = storage.root / "consolidated-100"
    reshard_checkpoint(ws4, ws1, 1)
    return ws4, ws1


def _record(key: str, mean: float) -> None:
    _times[key] = mean
    if len(_times) == 3:  # final parametrization: emit the comparison table
        table = Table(["Reshard", "Engine", "Time (s)"],
                      title="Elastic resharding (llama3.2-1b-sim, 34 groups)")
        for name, seconds in _times.items():
            shape, engine = name.rsplit(":", 1)
            table.add_row([shape, engine, round(seconds, 4)])
        emit("reshard_times", table.render())


@pytest.mark.parametrize("mode", ["stream"])
def test_reshard_shrink_4_to_2(benchmark, full_checkpoints, tmp_path, mode):
    """The elastic-fleet case neither merge nor scatter covers."""
    ws4, _ = full_checkpoints

    def run():
        out = tmp_path / f"shrink-{mode}-{next(_counter)}"
        return reshard_checkpoint(ws4, out, 2, workers=2)

    benchmark.pedantic(run, rounds=ROUNDS, iterations=1, warmup_rounds=WARMUP_ROUNDS)
    _record(f"4->2:{mode}", benchmark.stats["mean"])


def test_reshard_consolidate_4_to_1(benchmark, full_checkpoints, tmp_path):
    """N→1: the resharder degenerating to a full consolidation."""
    ws4, _ = full_checkpoints

    def run():
        out = tmp_path / f"consolidate-{next(_counter)}"
        return reshard_checkpoint(ws4, out, 1)

    benchmark.pedantic(run, rounds=ROUNDS, iterations=1, warmup_rounds=WARMUP_ROUNDS)
    _record("4->1:stream", benchmark.stats["mean"])


def test_reshard_scatter_1_to_4(benchmark, full_checkpoints, tmp_path):
    """1→M: growing a fleet from a consolidated checkpoint."""
    _, ws1 = full_checkpoints
    holder = {}

    def run():
        out = tmp_path / f"scatter-{next(_counter)}"
        holder["report"] = reshard_checkpoint(ws1, out, 4, workers=2)

    benchmark.pedantic(run, rounds=ROUNDS, iterations=1, warmup_rounds=WARMUP_ROUNDS)
    # Every target rank reads the single source shard (N + M - gcd = 4),
    # plus the metadata pass over it.
    assert holder["report"].files_loaded == 4 + 1
    _record("1->4:stream", benchmark.stats["mean"])
