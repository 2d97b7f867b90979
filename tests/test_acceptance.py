"""Tier-1 runs of the acceptance criteria that need no long training, and of
the training grid behind criteria 7-9 at a few steps."""

import os

import pytest

from kmaxseg import acceptance
from kmaxseg.config import Config, ModelConfig
from kmaxseg.errors import ContractError
from kmaxseg.training import TrainResult

FAST = [fn for _, fn, slow in acceptance.CRITERIA if not slow]


@pytest.mark.parametrize("criterion", FAST, ids=lambda fn: fn.__name__)
def test_fast_criterion_passes(criterion):
    passed, detail = criterion()
    assert passed, detail


def _counting_fork(monkeypatch, cpus):
    """Report ``cpus`` usable CPUs; returns the list of pids ``os.fork`` gave."""
    pids = []
    fork = os.fork

    def counting():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(os, "fork", counting)
    return pids


def _tiny():
    cfg = Config()
    cfg.model = ModelConfig(d=8, num_queries=6, encoder_channels=(4, 4, 4, 4, 8),
                            ffn_hidden=8, schedule=(1, 1, 1))
    cfg.train.steps, cfg.train.train_size, cfg.train.val_size = 3, 3, 2
    return cfg


@pytest.fixture
def last_losses(monkeypatch):
    """Make each grid run report ``(val PQ, final loss)``, the loss being the
    float a change of order or of share would move first."""
    train_loop = acceptance.train_loop

    def with_loss(cfg, seed):
        result = train_loop(cfg, seed=seed)
        result.final_val_pq = (result.final_val_pq, float(result.rows[-1].split(",")[1]))
        return result

    monkeypatch.setattr(acceptance, "train_loop", with_loss)


def test_train_grid_over_two_shares_equals_one_share(monkeypatch, last_losses):
    variants = [dict(kernel="softmax"), dict(kernel="kmeans")]
    pids = _counting_fork(monkeypatch, 2)
    split = acceptance.train_grid(_tiny(), variants, (0, 1))
    assert len(pids) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    whole = acceptance.train_grid(_tiny(), variants, (0, 1))
    assert len(pids) == 1
    assert [[run[0] for run in runs] for runs in split] == \
        [[run[0] for run in runs] for runs in whole]
    losses = [loss for runs in whole for (_, loss), _ in runs]
    assert len(set(losses)) == 4   # each (variant, seed) is its own run, in place


def test_train_grid_trains_each_model_config_once_per_seed(monkeypatch):
    calls = []
    monkeypatch.setattr(acceptance, "train_loop",
                        lambda cfg, seed: calls.append((cfg.model.kernel, seed))
                        or TrainResult(None, [], float(seed), 0.0))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    variants = [dict(kernel="kmeans"), dict(kernel="softmax"), dict(kernel="kmeans")]
    grid = acceptance.train_grid(_tiny(), variants, (3, 5))
    assert calls == [("kmeans", 3), ("kmeans", 5), ("softmax", 3), ("softmax", 5)]
    assert grid == [[(3.0, 0.0), (5.0, 0.0)]] * 3


def test_a_run_raising_in_a_grid_child_raises_here_and_leaves_no_child(monkeypatch):
    def train_loop(cfg, seed):
        if cfg.model.kernel == "kmeans" and seed == 1:   # the last run: the child's share
            raise ContractError("run kmeans/1 failed")
        return TrainResult(None, [], 0.5, 0.0)

    monkeypatch.setattr(acceptance, "train_loop", train_loop)
    pids = _counting_fork(monkeypatch, 2)
    with pytest.raises(ContractError, match="run kmeans/1 failed"):
        acceptance.train_grid(_tiny(), [dict(kernel="softmax"), dict(kernel="kmeans")], (0, 1))
    assert len(pids) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
