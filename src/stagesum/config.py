"""Run configuration: one JSON file fully describes a pipeline stage."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Optional

from .model import ModelConfig
from .training import TrainConfig

OUTPUT_ROOT_ENV = "STAGESUM_OUT"


def output_root() -> str:
    return os.environ.get(OUTPUT_ROOT_ENV, ".")


# The keys the harness reads from each section; "model" and "train" are
# checked by the dataclasses they build.
SECTION_KEYS = {"corpus": {"train", "dev"}, "limits": {"source", "target"},
                "scheme": {"encoder", "decoder"}, "partial": {"source", "k"},
                "selection": {"mode", "selector", "threshold"},
                "decode": {"mode", "beam_width", "alpha"}, "generate": {"vocab_size", "corpora"},
                "grid": {"kind", "runs", "source", "ks", "base", "seeds"},
                "eval": {"references", "hypotheses"}}


@dataclass
class RunConfig:
    """Full experiment description; a run is reproducible from this alone."""

    seed: int = 0
    out_dir: str = "run"
    model: dict = field(default_factory=dict)
    train: dict = field(default_factory=dict)
    vocab: Optional[str] = None
    corpus: dict = field(default_factory=dict)        # {"train": path, "dev": path}
    limits: dict = field(default_factory=dict)        # {"source": int, "target": int}
    scheme: Optional[dict] = None                     # {"encoder":..., "decoder":...}
    partial: Optional[dict] = None                    # {"source": path, "k": int}
    checkpoint: Optional[str] = None
    selection: dict = field(default_factory=lambda: {"mode": "none"})
    decode: dict = field(default_factory=lambda: {"mode": "greedy"})
    generate: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict)
    eval: dict = field(default_factory=dict)          # {"references": path, "hypotheses": path}

    def __post_init__(self):
        unknown = [f"{section}.{key}" for section, keys in SECTION_KEYS.items()
                   for key in sorted(set(getattr(self, section) or ()) - keys)]
        if unknown:
            raise ValueError(f"unknown config keys: {unknown}")

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        with open(path, encoding="utf-8") as f:
            raw = json.load(f)
        known = {f_.name for f_ in cls.__dataclass_fields__.values()}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**raw)

    # -- resolved views -----------------------------------------------------

    def resolve(self, path: Optional[str]) -> Optional[str]:
        if path is None:
            return None
        if os.path.isabs(path):
            return path
        return os.path.join(output_root(), path)

    @property
    def run_dir(self) -> str:
        return self.resolve(self.out_dir)

    def model_config(self) -> ModelConfig:
        return ModelConfig(**self.model)

    def train_config(self) -> TrainConfig:
        cfg = dict(self.train)
        cfg.setdefault("seed", self.seed)
        return TrainConfig(**cfg)

    def source_limit(self) -> int:
        return int(self.limits.get("source", self.model_config().encoder_positions))

    def target_limit(self) -> int:
        return int(self.limits.get("target", self.model_config().decoder_positions))
