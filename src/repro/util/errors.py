"""Exception hierarchy for the repro package.

Every error raised intentionally by this library derives from
:class:`ReproError` so that callers can catch library failures without
swallowing programming errors (``TypeError``, ``KeyError`` from bugs, ...).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """A model / training / strategy configuration is invalid."""


class RecipeError(ReproError):
    """A merge recipe (YAML or programmatic) is malformed or inconsistent."""


class CheckpointError(ReproError):
    """A checkpoint on disk is missing, malformed, or incompatible."""


class CheckpointFormatError(CheckpointError):
    """A serialized container (tensorfile / blobfile) failed validation."""


class GroupCRCError(CheckpointFormatError):
    """A shard group's arrays disagree with its header ``crc32``.

    Carries the shard ``path`` and the ``group`` index so the merge and
    reshard engines can re-raise it in their own terms.
    """

    def __init__(self, path: object, group: int) -> None:
        self.path = path
        self.group = group
        super().__init__(f"{path}: CRC mismatch for group {group}")


class MergeError(ReproError):
    """Checkpoint merging could not produce a consistent result."""


class ReshardError(CheckpointError):
    """Elastic N→M resharding could not produce a consistent result."""


class ShapeError(ReproError):
    """Tensor shapes are incompatible for the requested operation."""


class GradError(ReproError):
    """Autograd graph misuse (backward twice, missing grad, ...)."""


class DistError(ReproError):
    """Simulated-distributed misuse (bad rank, mismatched collective, ...)."""


class YamlError(ReproError):
    """The mini-YAML parser rejected a document."""


class TrainingError(ReproError):
    """The training loop hit an unrecoverable condition."""


class SimulatedFailure(ReproError):
    """Raised by the failure injector to emulate a mid-training crash.

    Carries the global step at which the "machine died" so tests and
    examples can assert recovery starts from the right checkpoint.
    """

    def __init__(self, step: int, message: str | None = None) -> None:
        self.step = step
        super().__init__(message or f"injected failure at global step {step}")


class RankFailure(SimulatedFailure):
    """A scheduled rank death from a fault plan.

    Unlike a plain :class:`SimulatedFailure` (the whole job crashes and
    later resumes at the same world size), a rank failure leaves N-1
    survivors: the chaos supervisor shrinks the world and resumes
    elastically.  Carries the dead rank alongside the step.
    """

    def __init__(self, step: int, rank: int) -> None:
        self.rank = rank
        super().__init__(step, f"rank {rank} failed at global step {step}")


class RankJoin(SimulatedFailure):
    """A scheduled capacity arrival from a fault plan.

    Interrupts the leg the same way a failure does — the step at which
    it fires completes, then the loop unwinds — but no state is lost:
    the chaos supervisor checkpoints the current world, grows N→N+1,
    and resumes elastically with the newcomer as the highest rank.
    """

    def __init__(self, step: int) -> None:
        super().__init__(step, f"rank joined after global step {step}")
