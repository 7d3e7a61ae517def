"""The learners' settings, declared apart from the learners.

`cli` builds every flag and config from these declarations, so a command
that trains nothing loads none of `gbtree`, `neural` or `maml`; each of
those modules re-exports its own names from here.  Each field declares its
range where it is defined, as `_checks` describes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._checks import check_config, integer, real, setting

__all__ = [
    "GbtConfig",
    "DEFAULT_LAMBDA_GRID",
    "DEFAULT_RHO_GRID",
    "NetConfig",
    "VARIANT_COLUMNS",
    "NEURAL_VARIANTS",
    "MamlConfig",
]

DEFAULT_LAMBDA_GRID = (0.0, 0.01, 0.1, 1.0, 10.0)
DEFAULT_RHO_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


@dataclass(frozen=True)
class GbtConfig:
    n_trees: int = integer(100, ge=1)
    learning_rate: float = real(0.1, gt=0, le=1)
    max_depth: int = integer(4, ge=1)
    min_child_weight: float = real(1.0, ge=0)
    lam: float = real(1.0, ge=0)
    rho: float = real(0.5, ge=0, le=1)
    min_gain: float = real(0.0, ge=0)
    seed: int = integer(0)

    check = check_config


# Feature columns of each variant; the drop variants mirror the two-column ablation.
VARIANT_COLUMNS = {
    "full": ("psychological", "strategic", "server_signed"),
    "no_momentum": ("server_signed",),
    "no_server": ("psychological", "strategic"),
}
NEURAL_VARIANTS = tuple(VARIANT_COLUMNS)


@dataclass(frozen=True)
class NetConfig:
    input_dim: int = integer(ge=1)
    hidden_dense: int = integer(32, ge=1)
    hidden_lstm: int = integer(16, ge=1)
    dropout_rate: float = real(0.2, ge=0, lt=1)
    huber_delta: float = real(1.0, gt=0)
    adam_lr: float = real(1e-3, gt=0)
    epochs: int = integer(100, ge=1)
    seq_len: int = integer(16, ge=1)
    seed: int = integer(0, ge=0)  # numpy's default_rng refuses a negative seed

    check = check_config


@dataclass(frozen=True)
class MamlConfig:
    net: NetConfig = setting(NetConfig)
    meta_lr: float = real(1e-4, ge=0)
    inner_lr: float = real(1e-4, gt=0)
    inner_epochs: int = integer(3, ge=0)
    tasks_per_batch: int = integer(4, ge=1)
    train_fraction: float = real(0.8, gt=0, lt=1)
    fine_tune_epochs: int = integer(5, ge=0)
    meta_iterations: int = integer(100, ge=1)

    check = check_config
