"""Typed configuration with a flat ``key = value`` text format.

Four sections (model, train, data, infer) hold what a run varies: the
width ``d`` (every model width derives from it), query count, image size,
ablated kernel and decoder schedule, run length, dataset sizes and seeds,
and inference thresholds; the dataclasses below (``ModelConfig``,
``TrainConfig``, ``DataConfig``, ``InferConfig``) list them with their
defaults. Their slots make setting a misspelled or removed field an
``AttributeError``. The training recipe is fixed and written once beside its
use: the learning rate, warm-up and loss weights are constants in
``training``, the AdamW betas, epsilon and weight decay are ``AdamW``'s
class constants, the flip probability is ``augment_flip``'s, and the class table and
scene ranges are constants in ``data``.

``ModelConfig.validate`` is the one check of the model section; both
``Config.validate`` and the model's constructor call it. Parsing and
serialization round-trip exactly: parse(serialize(parse(text))) equals
parse(text). A tuple value is comma-separated integers with no empty item.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields

from .errors import ConfigError


@dataclass(slots=True)
class ModelConfig:
    d: int = 64
    num_queries: int = 16
    image_size: int = 64
    schedule: tuple = (2, 2, 2)
    kernel: str = "kmeans"            # kmeans | softmax

    def validate(self):
        if self.kernel not in ("kmeans", "softmax"):
            raise ConfigError(f"model.kernel must be kmeans or softmax, got {self.kernel!r}")
        if self.image_size < 32:
            raise ConfigError(f"model.image_size must be at least 32, got {self.image_size}")
        if self.image_size % 32:
            raise ConfigError(f"model.image_size must be a multiple of 32, got {self.image_size}")
        # d >= 4 keeps the narrowest encoder width, d // 4, at least 1
        for key, least in (("d", 4), ("num_queries", 1)):
            if getattr(self, key) < least:
                raise ConfigError(
                    f"model.{key} must be at least {least}, got {getattr(self, key)}")
        if len(self.schedule) != 3 or any(s < 1 for s in self.schedule):
            raise ConfigError(f"model.schedule needs three positive entries, got {self.schedule}")
        return self


@dataclass(slots=True)
class TrainConfig:
    steps: int = 2000
    seed: int = 0
    train_size: int = 256
    val_size: int = 16
    eval_interval: int = 250


@dataclass(slots=True)
class DataConfig:
    seed: int = 7


@dataclass(slots=True)
class InferConfig:
    conf_thresh: float = 0.3
    overlap_thresh: float = 0.8
    mask_binarize: float = 0.5


@dataclass(slots=True)
class Config:
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    data: DataConfig = field(default_factory=DataConfig)
    infer: InferConfig = field(default_factory=InferConfig)

    def validate(self):
        self.model.validate()
        fractions = {"infer.conf_thresh": self.infer.conf_thresh,
                     "infer.overlap_thresh": self.infer.overlap_thresh,
                     "infer.mask_binarize": self.infer.mask_binarize}
        for key, value in fractions.items():
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{key} must lie in [0, 1], got {value!r}")
        for key in ("steps", "train_size", "val_size", "eval_interval"):
            if getattr(self.train, key) < 1:
                raise ConfigError(f"train.{key} must be positive, got {getattr(self.train, key)}")
        # numpy's seeding rejects a negative seed with an untyped ValueError
        for key, value in (("train.seed", self.train.seed), ("data.seed", self.data.seed)):
            if value < 0:
                raise ConfigError(f"{key} must be non-negative, got {value}")
        return self


_SECTIONS = {"model": ModelConfig, "train": TrainConfig, "data": DataConfig, "infer": InferConfig}


def _parse_value(raw, kind, key):
    raw = raw.strip()
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        if kind is tuple:
            return tuple(int(v) for v in raw.split(","))
        return raw
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc


def _format_value(value):
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def parse_config(text):
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    if parser.defaults():   # its keys would reach every section, or none
        raise ConfigError(f"unknown config section [{parser.default_section}]")

    cfg = Config()
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        target = getattr(cfg, section)
        types = {f.name: type(getattr(target, f.name)) for f in fields(target)}
        for key, raw in parser.items(section):
            if key not in types:
                raise ConfigError(f"unknown key {section}.{key}")
            setattr(target, key, _parse_value(raw, types[key], f"{section}.{key}"))
    return cfg.validate()


def serialize_config(cfg):
    lines = []
    for section, _ in _SECTIONS.items():
        lines.append(f"[{section}]")
        target = getattr(cfg, section)
        for f in fields(target):
            lines.append(f"{f.name} = {_format_value(getattr(target, f.name))}")
        lines.append("")
    return "\n".join(lines)


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8") from exc
    return parse_config(text)


def save_config(cfg, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_config(cfg))
