"""Run-configuration presets and JSON config-file handling.

Defaults are keyed by (protocol, regularizer kind, shot count); a config file
overrides the preset and command-line flags override the file.
"""
from __future__ import annotations

import json
from pathlib import Path

from .datamodel import RunConfig
from .errors import ConfigError, FormatError

# (protocol, kind, shots): shots=None matches any shot count not listed. A
# field a preset leaves out keeps its ``RunConfig`` default.
_PRESETS: dict[tuple[str, str, int | None], dict] = {
    ("multi", "finetune", None): dict(learning_rate=0.002, alpha=5e-3, gamma=0.0),
    ("multi", "subspace", None): dict(learning_rate=0.002, alpha=5e-4, gamma=1.0),
    ("multi", "semantic", None): dict(learning_rate=0.002, alpha=5e-4, gamma=1.0, tau=3.0),
    ("multi", "description", None): dict(learning_rate=0.002, alpha=5e-4, gamma=1.0, tau=3.0),
    ("multi", "linmap", None): dict(learning_rate=0.002, alpha=5e-4, gamma=0.1),
    ("single", "finetune", None): dict(learning_rate=0.003, alpha=5e-3, gamma=0.0),
    ("single", "subspace", None): dict(learning_rate=0.003, alpha=5e-5, gamma=0.005),
    ("single", "semantic", None): dict(learning_rate=0.003, alpha=5e-4, gamma=0.005, tau=1.5),
    ("single", "description", None): dict(learning_rate=0.003, alpha=5e-4, gamma=0.005, tau=1.5),
    ("single", "linmap", None): dict(learning_rate=0.003, alpha=5e-4, gamma=0.005),
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

# Config-file section -> {key: the RunConfig field it sets}. A file holds
# nothing else.
_FILE_FIELDS: dict[str, dict[str, str]] = {
    "optimizer": {k: k for k in ("learning_rate", "max_epochs", "convergence_tolerance",
                                 "patience_epochs")},
    "regularizer": {"kind": "regularizer_kind",
                    **{k: k for k in ("alpha", "beta_base", "beta_prev_novel", "gamma", "tau")}},
    "protocol": {k: k for k in ("memory_enabled", "rng_seed")},
}


def _file_fields(file_cfg: dict, source) -> dict:
    """The RunConfig fields a parsed config file sets; an unknown section or
    key, or a section that is not an object, is a ``ConfigError`` naming
    ``source``."""
    unknown = set(file_cfg) - set(_FILE_FIELDS)
    if unknown:
        raise ConfigError(f"{source}: unknown config sections {sorted(unknown)}")
    fields = {}
    for section, keys in _FILE_FIELDS.items():
        entries = file_cfg.get(section, {})
        if not isinstance(entries, dict):
            raise ConfigError(f"{source}: section {section!r} must be an object")
        unknown = set(entries) - set(keys)
        if unknown:
            raise ConfigError(f"{source}: unknown {section} options {sorted(unknown)}")
        fields.update((keys[k], v) for k, v in entries.items())
    return fields


def preset_config(protocol: str = "multi", kind: str = "finetune",
                  k_shot: int | None = None, **overrides) -> RunConfig:
    """Default RunConfig for a protocol / regularizer / shot-count combination."""
    if protocol not in ("multi", "single"):
        raise ConfigError(f"unknown protocol {protocol!r}")
    RunConfig(regularizer_kind=kind)  # the kind check, before the kind keys a preset
    fields = dict(_PRESETS.get((protocol, kind, k_shot)) or _PRESETS[(protocol, kind, None)])
    fields["regularizer_kind"] = kind
    fields.update(overrides)
    return RunConfig(**fields)


def load_config_file(path) -> dict:
    """Parse and check a JSON config file with sections {optimizer,
    regularizer, protocol}."""
    path = Path(path)
    try:
        obj = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as err:
        raise FormatError(f"{path}: invalid JSON ({err})") from None
    if not isinstance(obj, dict):
        raise FormatError(f"{path}: config must be a JSON object")
    _file_fields(obj, path)
    return obj


def resolve_run_config(protocol: str, file_cfg: dict | None = None,
                       cli_overrides: dict | None = None,
                       k_shot: int | None = None) -> RunConfig:
    """Preset -> config-file -> CLI flag resolution order.

    ``cli_overrides`` uses RunConfig field names; None values are ignored.
    """
    overrides = _file_fields(file_cfg or {}, "config")
    overrides.update((k, v) for k, v in (cli_overrides or {}).items() if v is not None)
    kind = overrides.pop("regularizer_kind", "finetune")
    try:
        return preset_config(protocol, kind, k_shot, **overrides)
    except TypeError as err:
        raise ConfigError(f"bad config field: {err}") from None
