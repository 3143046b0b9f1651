"""Run configuration: one INI file, overridable from the command line.

Sections: [run] (mode, task, seed, out_dir), [model], [schedule],
[optimizer], [train], [curriculum], [data]. `--set section.key=value`
overrides any field before validation. Cross-field constraints fail fast,
before any model memory is allocated.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field

from .engine import InjectionMode
from .errors import ContractError
from .model import ModelConfig
from .tasks.tokenizer import VOCAB_SIZE
from .training import CurriculumConfig, ScheduleConfig

TASKS = ("corpus", "countdown", "graph_qa")


@dataclass
class OptimizerConfig:
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.95
    eps: float = 1e-8
    weight_decay: float = 0.1
    warmup_steps: int = 100

    def __post_init__(self):
        if self.lr <= 0:
            raise ContractError("optimizer: lr must be positive")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ContractError("optimizer: betas must be in [0, 1)")
        if self.weight_decay < 0 or self.warmup_steps < 0:
            raise ContractError("optimizer: weight_decay and warmup_steps "
                                "must be >= 0")


@dataclass
class TrainConfig:
    batch_size: int = 8
    total_steps: int = 100
    epochs: int = 1
    log_every: int = 20
    eval_batch: int = 8
    max_eval_windows: int = 64

    def __post_init__(self):
        if self.batch_size < 1 or self.total_steps < 0 or self.epochs < 1:
            raise ContractError("train: batch_size/epochs must be >= 1 and "
                                "total_steps >= 0")


@dataclass
class DataConfig:
    train_path: str = ""
    val_path: str = ""


@dataclass
class RunConfig:
    mode: InjectionMode
    task: str
    seed: int
    out_dir: str
    model: ModelConfig
    schedule: ScheduleConfig
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    data: DataConfig = field(default_factory=DataConfig)
    curriculum: CurriculumConfig | None = None

    def __post_init__(self):
        if self.task not in TASKS:
            raise ContractError(f"run: unknown task {self.task!r}, "
                                f"expected one of {TASKS}")
        if not self.out_dir:
            raise ContractError("run: out_dir is required")
        if self.curriculum is not None:
            want = self.curriculum.final_latents
            if want != self.schedule.n_latents:
                raise ContractError(
                    f"curriculum: n_stages * latents_per_step = {want} must "
                    f"equal schedule n_latents = {self.schedule.n_latents}")
        if self.model.max_positions < self.schedule.seq_len \
                + self.schedule.n_latents + self.schedule.n_ahead:
            raise ContractError(
                "model: max_positions too small for the schedule layout")


def _parse_value(text: str, kind):
    if kind is bool:
        low = text.strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ContractError(f"config: {text!r} is not a boolean")
    return kind(text)


_SCHEMA: dict[str, dict[str, type]] = {
    "run": {"mode": str, "task": str, "seed": int, "out_dir": str},
    "model": {"n_layers": int, "d_model": int, "n_heads": int,
              "vocab_size": int, "max_positions": int, "rope_theta": float},
    "schedule": {"seq_len": int, "n_sites": int, "n_latents": int,
                 "n_ahead": int},
    "optimizer": {"lr": float, "beta1": float, "beta2": float, "eps": float,
                  "weight_decay": float, "warmup_steps": int},
    "train": {"batch_size": int, "total_steps": int, "epochs": int,
              "log_every": int, "eval_batch": int,
              "max_eval_windows": int},
    "curriculum": {"enabled": bool, "n_stages": int, "latents_per_step": int,
                   "epochs_per_stage": int},
    "data": {"train_path": str, "val_path": str},
}


def load_config(path, overrides: list[str] | None = None) -> RunConfig:
    """Parse and validate a run configuration.

    overrides are "section.key=value" strings applied after the file is
    read. Unknown sections or keys are contract errors, not silent noise."""
    if not os.path.exists(path):
        raise FileNotFoundError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    parser.read(path, encoding="utf-8")

    raw: dict[str, dict[str, str]] = {s: dict(parser.items(s))
                                      for s in parser.sections()}
    for ov in overrides or []:
        if "=" not in ov or "." not in ov.split("=", 1)[0]:
            raise ContractError(f"override {ov!r} is not section.key=value")
        target, value = ov.split("=", 1)
        sec, key = target.split(".", 1)
        raw.setdefault(sec, {})[key.strip()] = value.strip()

    parsed: dict[str, dict] = {}
    for sec, keys in raw.items():
        if sec not in _SCHEMA:
            raise ContractError(f"config: unknown section [{sec}]")
        parsed[sec] = {}
        for key, text in keys.items():
            if key not in _SCHEMA[sec]:
                raise ContractError(f"config: unknown key {sec}.{key}")
            try:
                parsed[sec][key] = _parse_value(text, _SCHEMA[sec][key])
            except ValueError as e:
                raise ContractError(f"config: bad value for {sec}.{key}: "
                                    f"{text!r} ({e})") from e

    for sec in ("run", "model", "schedule"):
        if sec not in parsed:
            raise ContractError(f"config: missing required section [{sec}]")
    run_sec = parsed["run"]
    for key in ("mode", "task", "out_dir"):
        if key not in run_sec:
            raise ContractError(f"config: run.{key} is required")
    try:
        mode = InjectionMode(run_sec["mode"])
    except ValueError:
        raise ContractError(
            f"config: unknown mode {run_sec['mode']!r}; valid: "
            f"{[m.value for m in InjectionMode]}") from None

    model_kwargs = dict(parsed["model"])
    model_kwargs.setdefault("vocab_size", VOCAB_SIZE)
    model = ModelConfig(**model_kwargs)
    schedule = ScheduleConfig(**parsed["schedule"])
    optimizer = OptimizerConfig(**parsed.get("optimizer", {}))
    train = TrainConfig(**parsed.get("train", {}))
    data = DataConfig(**parsed.get("data", {}))
    curriculum = None
    cur_sec = dict(parsed.get("curriculum", {}))
    if cur_sec.pop("enabled", False):
        curriculum = CurriculumConfig(**cur_sec)
    return RunConfig(mode=mode, task=run_sec["task"],
                     seed=run_sec.get("seed", 0),
                     out_dir=run_sec["out_dir"], model=model,
                     schedule=schedule, optimizer=optimizer, train=train,
                     data=data, curriculum=curriculum)
