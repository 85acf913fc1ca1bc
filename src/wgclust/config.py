"""Training configuration and the flat `key = value` config-file format.

Command-line flags override file values; unknown keys are rejected so typos
fail fast. The same format doubles as the config echo written next to every
training run.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .attention import SELF_LOOP_MODES
from .contraction import ContractionConfig

__all__ = ["TrainConfig", "parse_config_text", "load_config_file", "config_to_text"]


@dataclass(frozen=True)
class TrainConfig(ContractionConfig):
    """Every knob of the training pipeline.

    Contraction: the five ContractionConfig fields (core_count,
    density_weight, teleport, importance_threshold, distance_mode), which
    that class declares, documents and validates; this class extends it and
    is passed to ``contract`` as it is.
    Network: heads per layer, layer count, embedding dim, attn_dim (width of
    the logit projections), hidden_dim (width of every layer's output),
    entmax_alpha, self_loop_mode (max/mean/min).
    Objective: modularity_weight scales the modularity loss, negatives is
    the per-node negative-sample count.
    Clustering: every epoch and every inference runs a fresh fuzzy c-means
    fit, fcm_iters rounds from the best of fcm_restarts seeded center draws.
    Optimization: adaptive-moment updates with decay 0.9/0.999, eps 1e-8.
    Ablations: no_contraction, random_sampling (contraction replaced by a
    same-size uniform node sample), softmax_instead_of_entmax, drop_f_iz,
    no_weight_update (modularity on unrefined weights). A plain GAT is
    softmax_instead_of_entmax plus drop_f_iz.
    """

    entmax_alpha: float = 1.55
    modularity_weight: float = 0.03
    heads: int = 8
    layer_count: int = 3
    embed_dim: int = 64
    attn_dim: int = 64
    hidden_dim: int = 64
    learning_rate: float = 0.005
    negatives: int = 5
    epochs: int = 200
    patience: int = 20
    seed: int = 0
    fcm_iters: int = 30
    fcm_restarts: int = 8
    self_loop_mode: str = "max"
    no_contraction: bool = False
    random_sampling: bool = False
    softmax_instead_of_entmax: bool = False
    drop_f_iz: bool = False
    no_weight_update: bool = False

    def __post_init__(self):
        super().__post_init__()
        if self.entmax_alpha <= 1.0:
            raise ValueError("entmax_alpha must be > 1")
        if self.modularity_weight < 0:
            raise ValueError("modularity_weight must be >= 0")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.layer_count < 1:
            raise ValueError("layer_count must be >= 1")
        if self.heads < 1:
            raise ValueError("heads must be >= 1")
        if min(self.embed_dim, self.attn_dim, self.hidden_dim) < 1:
            raise ValueError("dimensions must be >= 1")
        if self.negatives < 0:
            raise ValueError("negatives must be >= 0")
        if self.epochs < 0 or self.patience < 0:
            raise ValueError("epochs and patience must be >= 0")
        if self.fcm_iters < 1 or self.fcm_restarts < 1:
            raise ValueError("fcm_iters and fcm_restarts must be >= 1")
        if self.self_loop_mode not in SELF_LOOP_MODES:
            raise ValueError(f"self_loop_mode must be one of {SELF_LOOP_MODES}")

    def layer_dims(self) -> list[int]:
        return [self.embed_dim] + [self.hidden_dim] * self.layer_count

    def replace(self, **kwargs) -> "TrainConfig":
        return dataclasses.replace(self, **kwargs)


_FIELDS = {f.name: f for f in dataclasses.fields(TrainConfig)}


def _parse_value(name: str, raw: str):
    f = _FIELDS[name]
    raw = raw.strip()
    if f.type in ("bool",):
        if raw.lower() in ("true", "1", "yes", "on"):
            return True
        if raw.lower() in ("false", "0", "no", "off"):
            return False
        raise ValueError(f"config key {name}: expected a boolean, got {raw!r}")
    if f.type in ("int",):
        return int(raw)
    if f.type == "int | None":
        return None if raw.lower() in ("none", "") else int(raw)
    if f.type in ("float",):
        return float(raw)
    return raw


def parse_config_text(text: str, base: TrainConfig | None = None) -> TrainConfig:
    """Parse `key = value` lines (blank lines and # comments allowed)."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {line!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _FIELDS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        values[key] = _parse_value(key, val)
    base_values = dataclasses.asdict(base) if base is not None else {}
    base_values.update(values)
    return TrainConfig(**base_values)


def load_config_file(path, base: TrainConfig | None = None) -> TrainConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config_text(fh.read(), base=base)


def config_to_text(config: TrainConfig) -> str:
    lines = []
    for f in dataclasses.fields(TrainConfig):
        value = getattr(config, f.name)
        if value is None:
            value = "none"
        elif isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"
