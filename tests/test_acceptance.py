"""Tier-1 runs of the acceptance criteria that need no long training, and of
the training grid behind criteria 7-9 at a few steps."""

import os

import numpy as np
import pytest

from kmaxseg import acceptance
from kmaxseg.config import Config, ModelConfig
from kmaxseg.errors import ContractError
from kmaxseg.gradcheck import grad_check
from kmaxseg.training import TrainResult

FAST = [fn for _, fn, slow in acceptance.CRITERIA if not slow]


@pytest.mark.parametrize("criterion", FAST, ids=lambda fn: fn.__name__)
def test_fast_criterion_passes(criterion):
    passed, detail = criterion()
    assert passed, detail


def test_every_gradient_case_stays_two_decades_under_the_bound():
    # criterion 1's bound is 1e-4; the Richardson oracle puts each case of
    # each seed under 1e-6, so a new loss term has room before the bound
    for seed in range(5):
        for name, (f, inp) in acceptance.gradient_cases(seed).items():
            err = grad_check(f, inp, eps=acceptance.GRAD_EPS)
            assert err < 1e-6, f"{name} at seed {seed}: {err:.2e}"


def test_criterion_1_fails_when_one_loss_gradient_entry_is_off_by_2e_4(monkeypatch):
    real_total_loss = acceptance.total_loss

    def skewed_total_loss(*args, **kwargs):
        loss, parts = real_total_loss(*args, **kwargs)
        if loss._backward is not None:
            backward, mask_logits = loss._backward, loss._parents[0]

            def skewed(g):
                backward(g)
                grad = mask_logits.grad.reshape(-1)
                grad[np.argmax(np.abs(grad))] *= 1 + 2e-4

            loss._backward = skewed
        return loss, parts

    monkeypatch.setattr(acceptance, "total_loss", skewed_total_loss)
    passed, detail = acceptance.criterion_1_gradients()
    assert not passed, detail


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
    cfg.model = ModelConfig(d=8, num_queries=6, schedule=(1, 1, 1))
    cfg.train.steps, cfg.train.train_size, cfg.train.val_size = 3, 3, 2
    return cfg


@pytest.fixture
def last_losses(monkeypatch):
    """Make each grid run report ``(val PQ, final loss)``, the loss being the
    float a change of order or of share would move first."""
    train_loop = acceptance.train_loop

    def with_loss(cfg):
        result = train_loop(cfg)
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


@pytest.fixture
def forks_anywhere(monkeypatch):
    """Count every ``os.fork``, also those made in forked children, through a
    pipe; returns a function that gives the count so far."""
    read_fd, write_fd = os.pipe()
    os.set_blocking(read_fd, False)
    fork = os.fork
    counted = []

    def counting():
        pid = fork()
        if pid:
            os.write(write_fd, b"f")
        return pid

    def count():
        try:
            counted.append(len(os.read(read_fd, 1 << 16)))
        except BlockingIOError:
            pass
        return sum(counted)

    monkeypatch.setattr(os, "fork", counting)
    yield count
    os.close(read_fd)
    os.close(write_fd)


def test_grid_runs_evaluate_in_their_own_share_without_forking(
        monkeypatch, last_losses, forks_anywhere):
    cfg = _tiny()
    cfg.train.steps, cfg.train.eval_interval, cfg.train.val_size = 2, 1, 8
    variants = [dict(kernel="softmax"), dict(kernel="kmeans")]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    split = acceptance.train_grid(cfg, variants, (0,))
    assert forks_anywhere() == 1   # the grid's child; its evals and this share's fork none
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    whole = acceptance.train_grid(cfg, variants, (0,))
    assert forks_anywhere() == 1
    assert [[run[0] for run in runs] for runs in split] == \
        [[run[0] for run in runs] for runs in whole]


def test_train_grid_trains_each_model_config_once_per_seed(monkeypatch):
    calls = []
    monkeypatch.setattr(acceptance, "train_loop",
                        lambda cfg: calls.append((cfg.model.kernel, cfg.train.seed))
                        or TrainResult(None, [], float(cfg.train.seed), 0.0))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    variants = [dict(kernel="kmeans"), dict(kernel="softmax"), dict(kernel="kmeans")]
    grid = acceptance.train_grid(_tiny(), variants, (3, 5))
    assert calls == [("kmeans", 3), ("kmeans", 5), ("softmax", 3), ("softmax", 5)]
    assert grid == [[(3.0, 0.0), (5.0, 0.0)]] * 3


def test_a_run_raising_in_a_grid_child_raises_here_and_leaves_no_child(monkeypatch):
    def train_loop(cfg):
        if cfg.model.kernel == "kmeans" and cfg.train.seed == 1:   # the last run: the child's share
            raise ContractError("run kmeans/1 failed")
        return TrainResult(None, [], 0.5, 0.0)

    monkeypatch.setattr(acceptance, "train_loop", train_loop)
    pids = _counting_fork(monkeypatch, 2)
    with pytest.raises(ContractError, match="run kmeans/1 failed"):
        acceptance.train_grid(_tiny(), [dict(kernel="softmax"), dict(kernel="kmeans")], (0, 1))
    assert len(pids) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
