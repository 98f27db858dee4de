"""Pieces shared by the three workloads."""

from __future__ import annotations

import hashlib
import resource
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from tracer import Span, layer_totals

# Layers whose share of a workload's operation time every traced run
# reports, as ``<span>_pct`` (the span and everything under it) or, for
# a layer that mostly calls other layers, ``<span>.self_pct`` (the span
# minus its children).  A layer a workload never reaches reads 0.
INCLUSIVE_LAYERS = (
    "data.batch", "nn.forward", "autograd.backward", "optim.clip", "optim.adamw",
    "numerics.quantize", "dist.comm", "train.eval", "strategies.plan", "io.writer",
    "dist.zero.rank_state", "io.blobfile.write", "io.tensorfile.write",
    "core.autorecipe", "core.merge", "core.plan", "core.weights",
    "core.optimizer_merge", "core.configs", "core.verify", "core.diff",
    "io.blobfile.read", "io.tensorfile.read", "io.reader.load", "dist.reshard",
    "dist.zero.load_rank_state", "train.resume", "strategies.plan_strategy",
    "io.storage.cache_get", "serve.estimate",
)
SELF_LAYERS = ("train.step", "dist.zero", "io.writer", "core.merge", "train.resume")


@dataclass
class Run:
    """What one measured pass of a workload produced."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    # Operations completed and the wall time they took (for the traced
    # pass, which repeats the same operations, and the tracing overhead).
    ops: int = 0
    wall_s: float = 0.0
    data: dict[str, Any] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)


class Metrics(dict):
    """``name -> {"value", "unit"}`` in the result line's format."""

    def put(self, name: str, value: float, unit: str) -> None:
        self[name] = {"value": float(value), "unit": unit}


def put_layer_shares(spans: list[Span], root: str, ops: int, metrics: Metrics) -> None:
    """Each layer's busy time as a percentage of the ``root`` spans' time.

    Layers that run on several threads at once are counted on each, so
    shares can add up past 100%.  ``trace.unattributed_pct`` is the part
    of ``root`` outside every layer span.  Blob counters are per one of
    the ``ops`` operations traced.
    """
    totals = layer_totals(spans)
    whole = totals.inclusive_ns[root]
    for name in INCLUSIVE_LAYERS:
        metrics.put(f"{name}_pct", 100.0 * totals.inclusive_ns[name] / whole, "%")
    for name in SELF_LAYERS:
        metrics.put(f"{name}.self_pct", 100.0 * totals.self_ns[name] / whole, "%")
    metrics.put("trace.unattributed_pct", 100.0 * totals.self_ns[root] / whole, "%")
    reads = totals.counts.get("io.blobfile.read", {})
    writes = totals.counts.get("io.blobfile.write", {})
    metrics.put("io.blobfile.bytes_read", reads.get("file_bytes", 0.0) / ops, "B")
    metrics.put("io.blobfile.write_ratio", writes.get("disk_bytes", 0.0)
                / max(writes.get("payload_bytes", 0.0), 1.0), "ratio")


def peak_rss_mb() -> float:
    """This process's peak resident set size in MiB."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kib / 1024.0 if sys.platform != "darwin" else kib / (1024.0 * 1024.0)


def tree_mb(root: Path) -> float:
    """Size in MiB of every file under ``root``."""
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file()) / 2**20


def checkpoint_digest(root: Path) -> str:
    """Content hash of a checkpoint tree, its own output path masked.

    The merged manifest records where it was written, the only byte that
    legitimately differs between two runs of the same job.
    """
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if not p.is_file():
            continue
        h.update(p.relative_to(root).as_posix().encode())
        data = p.read_bytes()
        if p.name.endswith(".json"):
            data = data.replace(str(root).encode(), b"<OUT>")
        h.update(data)
    return h.hexdigest()


def array_bytes(obj: Any) -> int:
    """Bytes of every numpy array inside a nested dict/list payload."""
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, dict):
        return sum(array_bytes(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(array_bytes(v) for v in obj)
    return 0


# -- span counters recorded at the io boundary --------------------------------


def count_blob_write(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    """``write_blob(path, obj) -> bytes on disk``: record both byte counts."""
    obj = args[1] if len(args) > 1 else kwargs["obj"]
    span.add("disk_bytes", float(result))
    span.add("payload_bytes", float(array_bytes(obj)))


def count_blob_read(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    """A blob read: record the size of the file opened."""
    path = Path(args[0] if args else kwargs["path"])
    span.add("file_bytes", float(path.stat().st_size))
