import configparser
import dataclasses
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmaxseg.config import (Config, DataConfig, InferConfig, ModelConfig, TrainConfig,
                            parse_config, serialize_config)
from kmaxseg.errors import ConfigError

INTS = st.integers(-2**40, 2**40)
FLOATS = st.floats(allow_nan=False, allow_infinity=False)
UNIT = st.floats(0.0, 1.0)
POSITIVE = st.integers(1, 10**6)
SEEDS = st.integers(0, 2**40)


def _section(cls, **constrained):
    """Strategy for one config section: every field drawn from its type,
    except the ones ``validate`` constrains."""
    kwargs = {}
    for f in dataclasses.fields(cls):
        default = getattr(cls(), f.name)
        if f.name in constrained:
            kwargs[f.name] = constrained[f.name]
        elif isinstance(default, int):
            kwargs[f.name] = INTS
        elif isinstance(default, float):
            kwargs[f.name] = FLOATS
        elif isinstance(default, tuple):
            kwargs[f.name] = st.tuples(*[INTS] * len(default))
        else:
            raise AssertionError(f"no strategy for {cls.__name__}.{f.name}")
    return st.builds(cls, **kwargs)


CONFIGS = st.builds(
    Config,
    model=_section(
        ModelConfig,
        image_size=st.integers(1, 8).map(lambda k: 32 * k),
        d=st.integers(4, 10**6), num_queries=POSITIVE,
        schedule=st.tuples(POSITIVE, POSITIVE, POSITIVE),
        kernel=st.sampled_from(["kmeans", "softmax"]),
    ),
    train=_section(TrainConfig, steps=POSITIVE, train_size=POSITIVE, val_size=POSITIVE,
                   eval_interval=POSITIVE, seed=SEEDS),
    data=_section(DataConfig, seed=SEEDS),
    infer=_section(InferConfig, conf_thresh=UNIT, overlap_thresh=UNIT, mask_binarize=UNIT),
)


@settings(max_examples=200, deadline=None)
@given(CONFIGS)
def test_config_round_trips_through_text(cfg):
    assert parse_config(serialize_config(cfg.validate())) == cfg


@pytest.mark.parametrize("section,key", [
    ("data", "threads"), ("train", "w_inst"), ("model", "heads"),
    ("model", "selfattn_first"), ("model", "share_stage_heads"), ("model", "drop_query"),
    ("train", "aux_supervision"), ("train", "pq_norm"),
    ("data", "separate_background_classes"),
    # the class count is the scene schema's
    ("model", "num_classes"),
    # the k-means update is always the sum over a cluster's pixels
    ("model", "kmeans_normalize"),
    # the encoder and FFN widths derive from d
    ("model", "ffn_hidden"), ("model", "encoder_channels"),
    # the fixed training recipe and scene ranges
    *[("train", key) for key in ("lr", "warmup_frac", "weight_decay", "beta1", "beta2",
                                 "eps", "flip_prob", "w_pq", "w_sem", "w_maskid", "w_void",
                                 "w_aux")],
    *[("data", key) for key in ("min_shapes", "max_shapes", "color_jitter",
                                "min_segment_px")],
])
def test_removed_keys_are_unknown(section, key):
    with pytest.raises(ConfigError, match=f"unknown key {section}.{key}"):
        parse_config(f"[{section}]\n{key} = 1\n")


def test_config_file_lists_exactly_the_settable_keys():
    parser = configparser.ConfigParser()
    parser.read_string(serialize_config(Config()))
    assert [f"{s}.{k}" for s in parser.sections() for k in parser[s]] == [
        "model.d", "model.num_queries", "model.image_size",
        "model.schedule", "model.kernel",
        "train.steps", "train.seed", "train.train_size", "train.val_size",
        "train.eval_interval",
        "data.seed",
        "infer.conf_thresh", "infer.overlap_thresh", "infer.mask_binarize",
    ]


@pytest.mark.parametrize("key,value", [("d", -4), ("num_queries", 0)])
def test_non_positive_model_sizes_raise_config_error(key, value):
    with pytest.raises(ConfigError, match=f"model.{key} must be at least"):
        parse_config(f"[model]\n{key} = {value}\n")


@pytest.mark.parametrize("text,match", [
    ("[train]\neval_interval = 0", "train.eval_interval must be positive"),
    ("[train]\nseed = -1", "train.seed must be non-negative"),
    ("[data]\nseed = -3", "data.seed must be non-negative"),
    ("[infer]\nmask_binarize = 7", r"infer.mask_binarize must lie in \[0, 1\]"),
    ("[infer]\nmask_binarize = nan", r"infer.mask_binarize must lie in \[0, 1\]"),
    ("[model]\nimage_size = 0", "model.image_size must be at least 32, got 0"),
    ("[model]\nimage_size = -64", "model.image_size must be at least 32, got -64"),
    # the narrowest encoder width is d // 4
    ("[model]\nd = 3", "model.d must be at least 4, got 3"),
    ("[model]\nkernel = bogus", "model.kernel must be kmeans or softmax, got 'bogus'"),
])
def test_out_of_range_values_raise_config_error(text, match):
    with pytest.raises(ConfigError, match=match):
        parse_config(text + "\n")


@pytest.mark.parametrize("text", ["[DEFAULT]\nd = 8\n", "[DEFAULT]\nd = 8\n[model]\n",
                                  "[DEFAULT]\nsteps = 3\n[train]\n"])
def test_a_key_under_the_default_section_raises_config_error(text):
    # configparser hands a [DEFAULT] key to every section: alone, the key was
    # dropped; beside [model] it was applied, beside [train] it was unknown
    with pytest.raises(ConfigError, match=r"^unknown config section \[DEFAULT\]$"):
        parse_config(text)


@pytest.mark.parametrize("section,key,value,kind", [
    ("model", "d", 16.0, "an int"), ("model", "num_queries", True, "an int"),
    ("model", "image_size", 64.0, "an int"),
    # a list schedule used to validate and save, then fail to read back
    ("model", "schedule", [1, 1, 1], "a tuple of ints"),
    ("model", "schedule", (1, 1.0, 1), "a tuple of ints"),
    *[("train", f.name, 10.0, "an int") for f in dataclasses.fields(TrainConfig)],
    ("train", "seed", False, "an int"), ("data", "seed", 7.0, "an int"),
    *[("infer", f.name, "0.5", "an int or a float") for f in dataclasses.fields(InferConfig)],
    ("infer", "mask_binarize", True, "an int or a float"),
])
def test_a_value_of_the_wrong_type_raises_config_error(section, key, value, kind):
    # each passed the range checks, or failed them untyped, and failed later in
    # numpy, ``range`` or the config file
    cfg = Config()
    setattr(getattr(cfg, section), key, value)
    with pytest.raises(ConfigError, match=rf"^{section}\.{key} must be {kind}, got "
                                          rf"{re.escape(repr(value))}$"):
        cfg.validate()


@pytest.mark.parametrize("key,value", [("schedule", "2,,2,2"), ("schedule", ",2,2,2"),
                                       ("schedule", "2,2,2,"),
                                       ("schedule", "")])
def test_empty_tuple_items_raise_config_error(key, value):
    with pytest.raises(ConfigError, match=f"bad value for model.{key}: "):
        parse_config(f"[model]\n{key} = {value}\n")


@pytest.mark.parametrize("section,name", [("model", "num_classes"), ("model", "heads"),
                                          ("train", "lr"), ("data", "max_shapes"),
                                          ("infer", "conf_tresh")])
def test_setting_an_unknown_field_raises_attribute_error(section, name):
    target = getattr(Config(), section)
    with pytest.raises(AttributeError):
        setattr(target, name, 3)
