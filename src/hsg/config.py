"""Run configuration: one flat JSON file, strict validation, flag overrides."""

import dataclasses
import json
import math
import os
from dataclasses import dataclass

from .student import DECODERS
from .training import MODES, REWARDS

__all__ = ["RunConfig", "ConfigError", "load_config", "parse_override"]


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    seed: int = 0
    corpus_dir: str = "runs/corpus"
    output_dir: str = "runs/out"
    teacher_checkpoint: str = ""
    family: str = "fc"
    mode: str = "mle"
    state_loss_weight: float = 1.0
    reward_metric: str = "cider"
    lr: float = 0.1
    rl_lr: float = 0.01
    grad_clip: float = 5.0
    epochs: int = 10
    teacher_epochs: int = 10
    mle_warmup_epochs: int = 5
    statenet_steps: int = 2000
    statenet_lr: float = 0.05
    beam_width: int = 5
    t_max: int = 16
    hidden_dim: int = 64
    embed_dim: int = 300
    corpus_seed: int = 0
    n_train: int = 1000
    n_val: int = 200
    n_test: int = 200
    captions_per_scene: int = 5
    k_objects: int = 6

    def validate(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            # json.load accepts NaN and Infinity
            if f.type is float and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be a finite number, got {value!r}")
        if min(self.lr, self.rl_lr, self.statenet_lr) <= 0:
            raise ConfigError("lr, rl_lr and statenet_lr must be > 0")
        if self.grad_clip <= 0:
            raise ConfigError("grad_clip must be > 0: a non-positive limit turns "
                              "clipping off")
        if min(self.seed, self.corpus_seed) < 0:
            raise ConfigError("seed and corpus_seed must be >= 0")
        if self.family not in DECODERS:
            raise ConfigError(
                f"family must be one of {tuple(DECODERS)}, got {self.family!r}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {tuple(MODES)}, got {self.mode!r}")
        if self.reward_metric not in REWARDS:
            raise ConfigError(
                f"reward_metric must be one of {tuple(REWARDS)}, got {self.reward_metric!r}")
        if self.state_loss_weight < 0:
            raise ConfigError("state_loss_weight must be >= 0")
        if self.beam_width < 1:
            raise ConfigError("beam_width must be >= 1")
        if self.t_max < 1:
            raise ConfigError("t_max must be >= 1")
        if min(self.hidden_dim, self.embed_dim) < 1:
            raise ConfigError("hidden_dim and embed_dim must be >= 1")
        if min(self.epochs, self.teacher_epochs, self.mle_warmup_epochs,
               self.statenet_steps) < 0:
            raise ConfigError("epochs, teacher_epochs, mle_warmup_epochs and "
                              "statenet_steps must be >= 0")
        if min(self.n_train, self.n_val, self.n_test) < 1:
            raise ConfigError("corpus split sizes must be >= 1")
        if self.captions_per_scene < 1:
            raise ConfigError("captions_per_scene must be >= 1")
        if self.k_objects < 2:
            raise ConfigError("k_objects must be >= 2: captions name objects 0 and 1")
        return self

    def to_dict(self):
        return dataclasses.asdict(self)


_FIELDS = {f.name: f.type for f in dataclasses.fields(RunConfig)}


def _coerce(key, value):
    if key not in _FIELDS:
        raise ConfigError(f"unknown config key {key!r}")
    want = _FIELDS[key]
    if want is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"config key {key!r} expects an integer, got {value!r}")
        return value
    if want is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"config key {key!r} expects a number, got {value!r}")
        return float(value)
    if not isinstance(value, str):
        raise ConfigError(f"config key {key!r} expects a string, got {value!r}")
    return value


def parse_override(text):
    """Parse one --set key=value flag; values use JSON syntax when possible."""
    if "=" not in text:
        raise ConfigError(f"override {text!r} is not of the form key=value")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def load_config(path=None, overrides=(), env=None):
    """Build a validated RunConfig from a file, env and --set flags.

    Precedence, lowest to highest: defaults, file, HSG_SEED environment
    variable, explicit overrides.  Unknown keys are rejected.
    """
    env = os.environ if env is None else env
    data = {}
    if path is not None:
        with open(path, "rb") as fh:
            text = fh.read()
        try:
            loaded = json.loads(text)
        except (ValueError, RecursionError) as err:  # not UTF-8, not JSON, too deep
            raise ConfigError(f"{path}: not valid JSON ({err!r})") from err
        if not isinstance(loaded, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
        data.update(loaded)
    if "HSG_SEED" in env:
        try:
            data["seed"] = int(env["HSG_SEED"])
        except ValueError as err:
            raise ConfigError(f"HSG_SEED must be an integer: {env['HSG_SEED']!r}") from err
    for item in overrides:
        key, value = item if isinstance(item, tuple) else parse_override(item)
        data[key] = value
    clean = {key: _coerce(key, value) for key, value in data.items()}
    return RunConfig(**clean).validate()
