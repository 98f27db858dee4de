"""Shared fixtures for the test suite.

Heavy artifacts (trained models with checkpoint trails) are built once
per session and reused read-only across tests.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.core.groups import tailored_param_groups
from repro.dist import ZeroStage3Engine
from repro.io import Storage, save_checkpoint
from repro.nn import build_model, get_config
from repro.train import TrainConfig, Trainer


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture(params=["tiny-untied", "tiny-tied", "tiny-qwen"])
def tiny_config(request):
    return get_config(request.param)


@pytest.fixture
def untied_config():
    return get_config("tiny-untied")


@pytest.fixture
def tied_config():
    return get_config("tiny-tied")


def make_engine(config, *, world_size=2, seed=1, lr=1e-3, weight_decay=0.01):
    """Model + tailored-group ZeRO engine, ready to train."""
    model = build_model(config, seed=seed)
    groups = tailored_param_groups(model, config, weight_decay)
    engine = ZeroStage3Engine(model, config, groups, world_size=world_size, lr=lr)
    return model, engine


def train_steps(model, engine, config, n_steps, *, seed=0):
    """Run n quick optimizer steps on a fixed random batch; returns losses."""
    data_rng = np.random.default_rng(seed)
    ids = data_rng.integers(0, config.vocab_size, size=(2, 16))
    labels = np.roll(ids, -1, axis=1)
    losses = []
    for _ in range(n_steps):
        engine.zero_grad()
        loss = model.loss(ids, labels)
        loss.backward()
        engine.step()
        losses.append(loss.item())
    return losses


@pytest.fixture
def engine_pair(untied_config):
    return make_engine(untied_config)


@pytest.fixture
def checkpoint_run(tmp_path):
    """A short run with two partial (parity-style) checkpoints on disk.

    Returns (storage, model, engine, config, snapshots) where snapshots
    maps saved step -> master state dict at save time.
    """
    config = get_config("tiny-untied")
    model, engine = make_engine(config)
    storage = Storage(tmp_path / "run")
    L = config.num_hidden_layers
    odd = [f"layers.{i}" for i in range(L) if i % 2 == 1] + ["embed_tokens"]
    even = [f"layers.{i}" for i in range(L) if i % 2 == 0] + ["norm", "lm_head"]
    snapshots = {}

    train_steps(model, engine, config, 2)
    save_checkpoint(
        storage, step=100, model=model, config=config, engine=engine,
        trainer_state={"global_step": 100}, slots=odd, strategy="parity",
    )
    snapshots[100] = engine.master_state_dict()

    train_steps(model, engine, config, 2)
    save_checkpoint(
        storage, step=200, model=model, config=config, engine=engine,
        trainer_state={"global_step": 200}, slots=even, strategy="parity",
    )
    snapshots[200] = engine.master_state_dict()
    return storage, model, engine, config, snapshots


_TRAINED_CACHE: dict[str, tuple] = {}


@pytest.fixture(scope="session")
def session_tmp(tmp_path_factory):
    return tmp_path_factory.mktemp("shared-runs")


@pytest.fixture(scope="session")
def trained_run(session_tmp) -> tuple[Trainer, object, Path]:
    """A completed short CPT training run with full checkpoints (cached)."""
    key = "cpt-full"
    if key not in _TRAINED_CACHE:
        out = session_tmp / key
        cfg = TrainConfig(
            model="tiny-untied", task="cpt", total_steps=24,
            checkpoint_strategy="full", checkpoint_interval=8,
            output_dir=str(out), world_size=2, micro_batch_size=2,
            grad_accum_steps=1, seq_len=32, log_every=4,
        )
        trainer = Trainer(cfg)
        result = trainer.train()
        _TRAINED_CACHE[key] = (trainer, result, out)
    return _TRAINED_CACHE[key]
