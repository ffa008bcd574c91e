"""Run-configuration presets and JSON config-file handling.

Defaults are keyed by (protocol, regularizer kind, shot count); a config file
overrides the preset and command-line flags override the file.
"""
from __future__ import annotations

import json
from pathlib import Path

from .datamodel import RunConfig, normalize_kind
from .errors import ConfigError, FormatError

# (protocol, kind, shots): shots=None matches any shot count not listed. A
# field a preset leaves out keeps its ``RunConfig`` default.
_PRESETS: dict[tuple[str, str, int | None], dict] = {
    ("multi", "finetune", None): dict(learning_rate=0.002, alpha=5e-3, gamma=0.0),
    ("multi", "subspace", None): dict(learning_rate=0.002, alpha=5e-4, gamma=1.0),
    ("multi", "semantic", None): dict(learning_rate=0.002, alpha=5e-4, gamma=1.0, tau=3.0),
    ("multi", "description", None): dict(learning_rate=0.002, alpha=5e-4, gamma=1.0, tau=3.0),
    ("multi", "linmap", None): dict(learning_rate=0.002, alpha=5e-4, gamma=0.1),
    ("single", "finetune", 1): dict(learning_rate=0.003, alpha=5e-3, gamma=0.0),
    ("single", "subspace", 1): dict(learning_rate=0.003, alpha=5e-5, gamma=0.005),
    ("single", "semantic", 1): dict(learning_rate=0.003, alpha=5e-4, gamma=0.005, tau=1.5),
    ("single", "description", 1): dict(learning_rate=0.003, alpha=5e-4, gamma=0.005, tau=1.5),
    ("single", "linmap", 1): dict(learning_rate=0.003, alpha=5e-4, gamma=0.005),
    ("single", "finetune", 5): dict(learning_rate=0.002, alpha=5e-3, gamma=0.0,
                                    beta_base=0.03, beta_prev_novel=0.03),
    ("single", "subspace", 5): dict(learning_rate=0.002, alpha=5e-5, gamma=0.03,
                                    beta_base=0.03, beta_prev_novel=0.03),
    ("single", "semantic", 5): dict(learning_rate=0.002, alpha=5e-4, gamma=0.03, tau=1.5,
                                    beta_base=0.03, beta_prev_novel=0.03),
    ("single", "description", 5): dict(learning_rate=0.002, alpha=5e-4, gamma=0.01, tau=1.5,
                                       beta_base=0.03, beta_prev_novel=0.03),
    ("single", "linmap", 5): dict(learning_rate=0.002, alpha=5e-4, gamma=0.03,
                                  beta_base=0.03, beta_prev_novel=0.03),
}

_OPTIMIZER_KEYS = ("learning_rate", "max_epochs", "convergence_tolerance", "patience_epochs")
_REGULARIZER_KEYS = ("kind", "alpha", "beta_base", "beta_prev_novel", "gamma", "tau")


def preset_config(protocol: str = "multi", kind: str = "finetune",
                  k_shot: int | None = None, **overrides) -> RunConfig:
    """Default RunConfig for a protocol / regularizer / shot-count combination."""
    if protocol not in ("multi", "single"):
        raise ConfigError(f"unknown protocol {protocol!r}")
    kind = normalize_kind(kind)
    entry = _PRESETS.get((protocol, kind, k_shot)) or _PRESETS.get((protocol, kind, None))
    if entry is None:
        # single-session with an unlisted shot count: fall back to the 1-shot row
        entry = _PRESETS[(protocol, kind, 1)]
    fields = dict(entry)
    fields["regularizer_kind"] = kind
    fields.update(overrides)
    return RunConfig(**fields)


def load_config_file(path) -> dict:
    """Parse a JSON config file with sections {data, optimizer, regularizer, protocol}."""
    path = Path(path)
    try:
        obj = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as err:
        raise FormatError(f"{path}: invalid JSON ({err})") from None
    if not isinstance(obj, dict):
        raise FormatError(f"{path}: config must be a JSON object")
    known = {"data", "optimizer", "regularizer", "protocol"}
    unknown = set(obj) - known
    if unknown:
        raise ConfigError(f"{path}: unknown config sections {sorted(unknown)}")
    for section in known:
        if section in obj and not isinstance(obj[section], dict):
            raise ConfigError(f"{path}: section {section!r} must be an object")
    return obj


def resolve_run_config(protocol: str, file_cfg: dict | None = None,
                       cli_overrides: dict | None = None,
                       k_shot: int | None = None) -> RunConfig:
    """Preset -> config-file -> CLI flag resolution order.

    ``cli_overrides`` uses RunConfig field names; None values are ignored.
    """
    file_cfg = file_cfg or {}
    cli_overrides = {k: v for k, v in (cli_overrides or {}).items() if v is not None}

    reg = dict(file_cfg.get("regularizer", {}))
    opt = dict(file_cfg.get("optimizer", {}))
    kind = cli_overrides.get("regularizer_kind") or reg.get("kind", "finetune")
    kind = normalize_kind(kind)

    overrides: dict = {}
    for key in _REGULARIZER_KEYS[1:]:
        if key in reg:
            overrides[key] = reg[key]
    unknown = set(reg) - set(_REGULARIZER_KEYS)
    if unknown:
        raise ConfigError(f"unknown regularizer options {sorted(unknown)}")
    for key in _OPTIMIZER_KEYS:
        if key in opt:
            overrides[key] = opt[key]
    unknown = set(opt) - set(_OPTIMIZER_KEYS)
    if unknown:
        raise ConfigError(f"unknown optimizer options {sorted(unknown)}")

    proto = dict(file_cfg.get("protocol", {}))
    for key in ("memory_enabled", "rng_seed"):
        if key in proto:
            overrides[key] = proto[key]

    for key, value in cli_overrides.items():
        if key != "regularizer_kind":
            overrides[key] = value
    try:
        return preset_config(protocol, kind, k_shot, **overrides)
    except TypeError as err:
        raise ConfigError(f"bad config field: {err}") from None
