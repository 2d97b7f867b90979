import os
import subprocess
import sys
from pathlib import Path

import pytest

from kmaxseg import acceptance
from kmaxseg.cli import main

SRC = str(Path(__file__).resolve().parent.parent / "src")

TINY = """\
[model]
d = 8
num_queries = 6
schedule = {schedule}

[train]
steps = 2
train_size = 2
val_size = 1
eval_interval = {eval_interval}
"""


def _config(tmp_path, eval_interval=1, schedule="1,1,1"):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY.format(eval_interval=eval_interval, schedule=schedule))
    return str(path)


def test_train_eval_and_ablate_exit_zero(tmp_path, capsys, monkeypatch):
    cfg = _config(tmp_path)
    out = tmp_path / "run"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "model.ckpt").exists() and (out / "config.used.txt").exists()
    assert main(["eval", "--config", str(out / "config.used.txt"),
                 "--checkpoint", str(out / "model.ckpt")]) == 0
    seeds = []
    train_loop = acceptance.train_loop

    def counting_train_loop(cfg):
        seeds.append(cfg.train.seed)
        return train_loop(cfg)

    # one usable CPU, so every run trains in this process, where it is counted
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(acceptance, "train_loop", counting_train_loop)
    # five variants: the two kernels and three schedules; at the default
    # (2,2,2) schedule "kmeans cross-attention" and "kmeans, decoders (2,2,2)"
    # are one model, trained once per seed
    capsys.readouterr()
    cfg = _config(tmp_path, schedule="2,2,2")
    assert main(["ablate", "--config", cfg, "--seeds", "1"]) == 0
    out = capsys.readouterr().out
    assert [line[:40].rstrip() for line in out.splitlines()[2:]] == [
        "softmax cross-attention", "kmeans cross-attention", "kmeans, decoders (1,1,1)",
        "kmeans, decoders (2,2,2)", "kmeans, decoders (3,3,3)"]
    assert seeds == [0] * 4


def test_eval_renders_only_the_val_split(tmp_path, generate_calls):
    from kmaxseg.checkpoint import save_checkpoint
    from kmaxseg.config import Config
    from kmaxseg.data import SyntheticDataset
    from kmaxseg.model import KMaxModel

    cfg = Config()
    path = tmp_path / "model.ckpt"
    save_checkpoint(str(path), KMaxModel(cfg.model, seed=0))
    assert main(["eval", "--checkpoint", str(path)]) == 0
    assert cfg.train.val_size == 16
    assert sorted(generate_calls) == [SyntheticDataset.VAL_OFFSET + i for i in range(16)]


def test_train_creates_the_checkpoint_directory_before_training(tmp_path, monkeypatch):
    # the write of nodir/m.ckpt.tmp used to fail after the whole run
    monkeypatch.chdir(tmp_path)
    cfg = _config(tmp_path)
    assert main(["train", "--config", cfg, "--checkpoint", "nodir/m.ckpt"]) == 0
    assert (tmp_path / "config.used.txt").exists()
    assert main(["eval", "--config", "config.used.txt", "--checkpoint", "nodir/m.ckpt"]) == 0


def test_eval_with_a_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"[model]\nd = 8\xff\n")
    assert main(["eval", "--config", str(path), "--checkpoint", str(tmp_path / "m.ckpt")]) == 2
    assert capsys.readouterr().err == f"error: config file {path} is not UTF-8\n"


@pytest.mark.parametrize("seeds", ["0", "-2"])
def test_ablate_without_seeds_is_a_config_error(tmp_path, capsys, seeds):
    assert main(["ablate", "--config", _config(tmp_path), "--seeds", seeds]) == 2
    assert f"error: --seeds must be positive, got {seeds}" in capsys.readouterr().err


def test_train_with_zero_eval_interval_is_a_config_error(tmp_path, capsys):
    cfg = _config(tmp_path, eval_interval=0)
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    assert "error:" in capsys.readouterr().err


def test_train_with_a_negative_seed_is_a_config_error(tmp_path, capsys):
    cfg = _config(tmp_path)
    assert main(["train", "--config", cfg, "--seed", "-5", "--out", str(tmp_path / "run")]) == 2
    assert "error: train.seed must be non-negative, got -5" in capsys.readouterr().err


def test_visualize_with_a_negative_seed_is_a_config_error(tmp_path, capsys):
    # the rendered image is val scene --seed; -5 would be scene 999995, in no split
    out = tmp_path / "vis"
    assert main(["visualize", "--config", _config(tmp_path), "--seed", "-5",
                 "--out", str(out)]) == 2
    assert "error: --seed must be non-negative, got -5" in capsys.readouterr().err
    assert not out.exists()


def test_visualize_renders_each_stage_of_a_checkpoint(tmp_path, capsys):
    from kmaxseg.checkpoint import save_checkpoint
    from kmaxseg.config import load_config
    from kmaxseg.model import KMaxModel

    cfg = _config(tmp_path)
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(str(ckpt), KMaxModel(load_config(cfg).model, seed=3))
    out = tmp_path / "vis"
    assert main(["visualize", "--config", cfg, "--checkpoint", str(ckpt),
                 "--out", str(out)]) == 0
    names = ["stage_00.ppm", "stage_01.ppm", "stage_02.ppm", "final_panoptic.ppm"]
    assert sorted(p.name for p in out.iterdir()) == sorted(names)
    assert capsys.readouterr().out.split() == [str(out / name) for name in names]


def test_visualize_without_a_checkpoint_is_a_config_error(tmp_path, capsys):
    # there is no trained model to draw, and no seed that gives a run's initial one
    out = tmp_path / "vis"
    assert main(["visualize", "--config", _config(tmp_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: visualize requires --checkpoint\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [["eval", "--seed", "5"], ["ablate", "--seed", "9"],
                                  ["ablate", "--out", "abl"]])
def test_flags_a_command_never_reads_are_not_offered(argv, capsys):
    # eval and ablate never read --seed, and ablate never reads --out
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def _python(args, **env):
    """Run a fresh ``python3`` on this checkout's ``src``, with ``env`` over a copy
    of this environment in which the BLAS thread variables are unset."""
    environ = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    environ.update(env, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], env=environ,
                          capture_output=True, text=True, timeout=120)


def test_python_dash_m_kmaxseg_runs_the_cli():
    done = _python(["-m", "kmaxseg", "--help"])
    assert done.returncode == 0 and done.stdout.startswith("usage: kmaxseg"), done.stderr
    done = _python(["-m", "kmaxseg", "eval"])
    assert done.returncode == 2
    assert done.stderr == "error: eval requires --checkpoint\n"


@pytest.mark.parametrize("user", [None, "2"])
def test_import_sets_one_blas_thread_unless_the_user_set_a_count(user):
    # the variables are read when numpy loads, so record them at that moment
    code = """if True:
        import os, sys
        names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        seen = []
        class Spy:
            def find_spec(self, name, path=None, target=None):
                if name == "numpy" and not seen:
                    seen.append(" ".join(os.environ.get(v, "unset") for v in names))
        sys.meta_path.insert(0, Spy())
        import kmaxseg
        print(seen[0])
    """
    done = _python(["-c", code], **({} if user is None else {"OPENBLAS_NUM_THREADS": user}))
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["1" if user is None else user, "1", "1"]
