"""Config files, validation, and run manifests.

Configs are flat-section INI (`[section]`, `key = value`). Loading
materializes every default so the run manifest records the complete,
re-runnable configuration; `load_config` also accepts a manifest JSON and
extracts its resolved config, which is how reruns reproduce a run exactly.
"""

from __future__ import annotations

import configparser
import json
from dataclasses import fields

from .augment import AugmentConfig
from .data import ProtocolConfig, check_synthetic
from .engine import TrainSettings
from .errors import ConfigError
from .memory import BudgetPolicy, PerClass, Total
from .model import ModelSpec

# preset epoch counts per incremental step, desk scale: the half-start
# protocol needs 4x less step training than a cold start (50 vs 200 epochs
# at full scale)
EPOCH_PRESETS = {"half_start": 5, "cold_start": 20}
_MARGIN_KEYS = ("margin_ranking",)

DEFAULTS: dict[str, dict[str, object]] = {
    "protocol": {
        "total_classes": 10,
        "initial_classes": 5,
        "increment": 5,
        "budget": "total:100",
        "shuffle_seed": 1993,
        "epoch_preset": "auto",        # auto | half_start | cold_start
        "epochs_initial": 20,
        "epochs_step": "",             # blank -> taken from the preset
    },
    "data": {
        "source": "synthetic",         # synthetic | file
        "path": "",
        "classes": 10,
        "per_class_train": 64,
        "per_class_test": 20,
        "image_size": 16,
        "channels": 3,
        "difficulty": 0.5,
        "seed": 7,
    },
    "model": {
        "stem": "conv",                # conv | patchify
        "patch_size": 4,
        "stem_depth": 2,
        "stem_channels": "16,32",
        "embed_dim": 32,
        "num_blocks": 2,
        "num_heads": 2,
        "mlp_ratio": 4.0,
    },
    # [train] and [augment] are the TrainSettings and AugmentConfig fields;
    # the INI file keeps the margin-ranking switch under [augment]
    "train": {f.name: f.default for f in fields(TrainSettings)
              if f.name not in ("augment", *_MARGIN_KEYS)},
    "augment": {f.name: f.default for f in fields(AugmentConfig)} | {
        f.name: f.default for f in fields(TrainSettings) if f.name in _MARGIN_KEYS},
    "run": {
        "seed": 1,
        "out": "",
    },
}

_BOOLS = {**dict.fromkeys(("1", "true", "yes", "on"), True),
          **dict.fromkeys(("0", "false", "no", "off"), False)}
_KINDS = {bool: "on/off", int: "integer", float: "number", str: "string"}


def _parse_value(section: str, key: str, value, default):
    """An INI string or a manifest JSON value, as the type of its default."""
    kind = type(default)
    if isinstance(value, str):
        value = value.strip()
        if kind is bool:
            value = _BOOLS.get(value.lower(), value)
        elif kind is not str:
            try:
                value = kind(value)
            except ValueError:
                pass
    if kind is float and type(value) is int:
        value = float(value)
    if type(value) is not kind:
        raise ConfigError(f"{section}.{key}: expected {_KINDS[kind]}, got {value!r}")
    return value


def load_config(path) -> dict:
    """Read an INI config or a manifest JSON into a raw section->key dict.

    INI values are literal: a `%` is not an interpolation. The parser has no
    default section, so `[DEFAULT]` is an ordinary name, which `materialize`
    rejects as an unknown section.
    """
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: not a UTF-8 text file") from None
    try:
        if text.lstrip().startswith("{"):
            manifest = json.loads(text)
            config = manifest.get("config") if isinstance(manifest, dict) else None
            if not isinstance(config, dict):
                raise ConfigError(f"{path}: JSON file has no 'config' section")
            return config
        # no header line can spell a newline, so no section is the default
        parser = configparser.ConfigParser(interpolation=None,
                                           default_section="\n")
        parser.read_string(text, source=str(path))
    except (json.JSONDecodeError, configparser.Error) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return {section: dict(parser.items(section))
            for section in parser.sections()}


def materialize(raw: dict) -> dict:
    """Apply defaults, parse types, and validate; returns the resolved config."""
    for section, keys in raw.items():
        if section not in DEFAULTS:
            raise ConfigError(f"unknown config section [{section}]")
        if not isinstance(keys, dict):
            raise ConfigError(f"config section [{section}] is not a table of keys")
        for key in keys:
            if key not in DEFAULTS[section]:
                raise ConfigError(f"unknown config key {section}.{key}")
    resolved = {
        section: {key: _parse_value(section, key, raw[section][key], default)
                  if key in raw.get(section, {}) else default
                  for key, default in defaults.items()}
        for section, defaults in DEFAULTS.items()}
    _validate(resolved)
    return resolved


def parse_budget(raw: str) -> BudgetPolicy:
    try:
        kind, amount = raw.split(":")
        amount = int(amount)
    except ValueError:
        raise ConfigError(
            f"protocol.budget: expected 'total:N' or 'per_class:N', got {raw!r}"
        ) from None
    if kind == "total":
        return Total(amount)
    if kind == "per_class":
        return PerClass(amount)
    raise ConfigError(f"protocol.budget: unknown policy {kind!r}")


def resolve_epochs_step(resolved: dict) -> int:
    """Epochs per incremental step: the override, else the protocol shape's
    preset. A named preset only checks that shape."""
    proto = resolved["protocol"]
    override = proto["epochs_step"]
    preset = proto["epoch_preset"]
    shape = ("half_start" if proto["initial_classes"] * 2 == proto["total_classes"]
             else "cold_start")
    if preset not in ("auto", *EPOCH_PRESETS):
        raise ConfigError(f"protocol.epoch_preset: unknown preset {preset!r}")
    if preset not in ("auto", shape):
        op = "==" if preset == "half_start" else "!="
        raise ConfigError(f"protocol.epoch_preset: {preset} requires "
                          f"initial_classes {op} total_classes / 2")
    if override:
        try:
            return int(override)
        except ValueError:
            raise ConfigError(
                f"protocol.epochs_step: expected integer, got {override!r}") from None
    return EPOCH_PRESETS[shape]


def _validate(resolved: dict) -> None:
    # constructing the typed objects runs every module's own validation
    build_protocol_config(resolved)
    build_train_settings(resolved)
    if resolved["data"]["source"] not in ("synthetic", "file"):
        raise ConfigError(
            f"data.source: expected synthetic|file, got "
            f"{resolved['data']['source']!r}")
    if resolved["data"]["source"] == "file" and not resolved["data"]["path"]:
        raise ConfigError("data.path: required when data.source = file")
    if resolved["model"]["stem"] not in ("conv", "patchify"):
        raise ConfigError(
            f"model.stem: expected conv|patchify, got {resolved['model']['stem']!r}")
    if resolved["data"]["source"] == "synthetic":
        d = resolved["data"]
        try:
            check_synthetic(d["classes"], d["per_class_train"], d["per_class_test"],
                            d["image_size"], d["channels"], d["difficulty"])
        except ConfigError as exc:
            raise ConfigError(f"data.{exc}") from None
        build_model_spec(resolved, resolved["data"]["image_size"],
                         resolved["data"]["channels"])


def build_protocol_config(resolved: dict) -> ProtocolConfig:
    proto = resolved["protocol"]
    try:
        return ProtocolConfig(
            total_classes=proto["total_classes"],
            initial_classes=proto["initial_classes"],
            increment=proto["increment"],
            budget=parse_budget(proto["budget"]),
            epochs_initial=proto["epochs_initial"],
            epochs_step=resolve_epochs_step(resolved),
            shuffle_seed=proto["shuffle_seed"])
    except ConfigError as exc:
        raise ConfigError(f"protocol: {exc}") from None


def build_train_settings(resolved: dict) -> TrainSettings:
    """TrainSettings from the [train] and [augment] sections, by field name."""
    aug = dict(resolved["augment"])
    margins = {key: aug.pop(key) for key in _MARGIN_KEYS}
    return TrainSettings(**resolved["train"], **margins,
                         augment=AugmentConfig(**aug))


def build_model_spec(resolved: dict, image_size: int, channels: int) -> ModelSpec:
    m = resolved["model"]
    try:
        channels_list = tuple(int(c) for c in str(m["stem_channels"]).split(",") if c)
    except ValueError:
        raise ConfigError(
            f"model.stem_channels: expected comma-separated integers, got "
            f"{m['stem_channels']!r}") from None
    try:
        return ModelSpec(
            image_size=image_size, in_channels=channels,
            stem_kind=m["stem"], patch_size=m["patch_size"],
            stem_depth=m["stem_depth"], stem_channels=channels_list,
            embed_dim=m["embed_dim"], num_blocks=m["num_blocks"],
            num_heads=m["num_heads"], mlp_ratio=m["mlp_ratio"],
            num_classes=resolved["protocol"]["total_classes"])
    except ConfigError as exc:
        raise ConfigError(f"model: {exc}") from None
