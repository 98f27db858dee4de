"""Reference implementations the bitwise batteries compare the engines to.

The merge and reshard engines read optimizer shards selectively and
stream their outputs.  The oracles here do the same jobs the plain way —
whole-blob loads, a fully materialized merged state dict, an in-memory
re-partition of every source shard — so any byte an engine gets wrong,
and any memory it fails to save, shows up against them.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.core.configs import write_merged_manifest
from repro.core.groups import groups_for_slot
from repro.core.optimizer_merge import (
    RankMergeStats,
    _shard_path,
    _take_groups,
    _validate_shard,
    _write_merged_shard,
)
from repro.core.plan import resolve_plan
from repro.core.weights import WeightMergeStats, _iter_slot_tensors, _merge_metadata
from repro.dist import reshard_state_dicts
from repro.io import CheckpointPaths, read_blob, write_blob, write_tensorfile
from repro.io.layout import WEIGHTS_NAME, shard_filename
from repro.nn import ModelConfig, model_slots
from repro.util.errors import MergeError, ReshardError


@dataclass
class OracleMerge:
    """What the batteries compare: the output and the load accounting."""

    output: CheckpointPaths
    rank_stats: list[RankMergeStats]

    @property
    def optimizer_files_loaded(self) -> int:
        return sum(s.files_loaded for s in self.rank_stats)

    @property
    def optimizer_bytes_loaded(self) -> int:
        return sum(s.bytes_loaded for s in self.rank_stats)


def oracle_merge_rank_shard(spec: dict, rank: int) -> RankMergeStats:
    """One rank's merge by whole-blob loads, slot by slot in model order.

    ``cache_mode="per-checkpoint"`` keeps every loaded source blob for
    reuse; ``"none"`` reloads the source for every slot — the paper's
    interleaved load-and-discard sequence.
    """
    config = ModelConfig.from_dict(spec["config"])
    stats = RankMergeStats(rank=rank)
    cache: dict[str, dict] = {}
    seen: set[str] = set()
    groups_header: dict = {}
    hyperparams: dict = {}
    fp32: dict = {}
    state: dict = {}
    for slot in model_slots(config):
        source_dir = spec["slot_sources"][slot]
        shard = cache.get(source_dir)
        if shard is None:
            path = _shard_path(source_dir, rank)
            if not path.exists():
                raise MergeError(f"missing optimizer shard for rank {rank}: {path}")
            shard = read_blob(path)
            stats.files_loaded += 1
            stats.bytes_loaded += path.stat().st_size
            if source_dir not in seen:
                seen.add(source_dir)
                stats.checkpoints_touched += 1
            if spec["cache_mode"] == "per-checkpoint":
                cache[source_dir] = shard
        _validate_shard(shard, spec, source_dir, rank)
        _take_groups(
            shard, source_dir, rank, slot, groups_for_slot(config, slot),
            groups_header, hyperparams, fp32, state,
        )
        stats.slots_copied += 1
    return RankMergeStats(
        **_write_merged_shard(spec, rank, config, stats, groups_header,
                              hyperparams, fp32, state)
    )


def oracle_merge(recipe, output: str | Path) -> OracleMerge:
    """Weights and every rank shard of a merge, the materializing way."""
    plan = resolve_plan(recipe, output=output)
    plan.output.mkdir(parents=True, exist_ok=True)
    merged = {
        name: reader.read(name)
        for _slot, name, reader in _iter_slot_tensors(plan, WeightMergeStats())
    }
    write_tensorfile(
        plan.output / WEIGHTS_NAME, merged,
        dtype=plan.config.storage_dtype, metadata=_merge_metadata(plan),
    )
    spec = dict(plan.to_worker_spec(), global_step=plan.config_source.step)
    rank_stats = [oracle_merge_rank_shard(spec, r) for r in range(plan.world_size)]
    write_merged_manifest(plan)  # lets CheckpointPaths resolve the shards
    return OracleMerge(
        output=CheckpointPaths(plan.output),
        rank_stats=rank_stats,
    )


def oracle_reshard(
    source: str | Path, output: str | Path, target_world_size: int
) -> list[Path]:
    """Every source shard read whole, re-partitioned in memory, written.

    Writes only the optimizer shards — the engine carries weights and
    config files verbatim — and returns their paths in rank order.
    """
    paths = CheckpointPaths(source)
    world_size = int(paths.read_manifest()["world_size"])
    sources = []
    for r in range(world_size):
        shard_path = paths.shard(r)
        if not shard_path.exists():
            raise ReshardError(f"missing optimizer shard for rank {r}: {shard_path}")
        sources.append(read_blob(shard_path))
    payloads = reshard_state_dicts(sources, target_world_size, consume=True)
    out_dir = Path(output) / f"global_step{paths.step}"
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for m, payload in enumerate(payloads):
        write_blob(out_dir / shard_filename(m), payload)
        written.append(out_dir / shard_filename(m))
    return written
