"""Config files, validation, and run manifests.

Configs are flat-section INI (`[section]`, `key = value`). Loading
materializes every default so the run manifest records the complete,
re-runnable configuration; `load_config` also accepts a manifest JSON and
extracts its resolved config, which is how reruns reproduce a run exactly.
"""

from __future__ import annotations

import configparser
import json
from .augment import AugmentConfig
from .data import ProtocolConfig
from .engine import TrainSettings
from .errors import ConfigError
from .memory import BudgetPolicy, PerClass, Total
from .model import ModelSpec

# preset epoch counts per incremental step, desk scale: the half-start
# protocol needs 4x less step training than a cold start (50 vs 200 epochs
# at full scale)
EPOCH_PRESETS = {"half_start": 5, "cold_start": 20}

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
    "train": {
        "batch_size": 64,
        "backbone_lr": 8e-3,
        "classifier_lr_multiplier": 10.0,
        "weight_decay": 0.24,
        "warmup_epochs": 2,
        "min_lr": 1e-5,
        "lambda_base": 3.0,
        "epochs_finetune": 20,
        "finetune_lr_scale": 0.1,
        "balanced_finetune": True,
        "grad_clip": 0.0,
        "eta_init": 10.0,
    },
    "augment": {
        "hflip": True,
        "mixup": True,
        "cutmix": True,
        "label_smoothing": 0.1,
        "mixup_alpha": 0.8,
        "cutmix_alpha": 1.0,
        "mix_prob": 0.5,
        "margin_ranking": False,
        "margin": 0.5,
        "margin_top_k": 2,
    },
    "run": {
        "seed": 1,
        "out": "",
    },
}

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _parse_value(section: str, key: str, raw: str, default):
    path = f"{section}.{key}"
    raw = raw.strip()
    if isinstance(default, bool):
        low = raw.lower()
        if low in _TRUE:
            return True
        if low in _FALSE:
            return False
        raise ConfigError(f"{path}: expected on/off, got {raw!r}")
    if isinstance(default, int):
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{path}: expected integer, got {raw!r}") from None
    if isinstance(default, float):
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"{path}: expected number, got {raw!r}") from None
    return raw


def load_config(path) -> dict:
    """Read an INI config or a manifest JSON into a raw section->key dict."""
    with open(path) as f:
        text = f.read()
    try:
        if text.lstrip().startswith("{"):
            manifest = json.loads(text)
            config = manifest.get("config") if isinstance(manifest, dict) else None
            if not isinstance(config, dict):
                raise ConfigError(f"{path}: JSON file has no 'config' section")
            return config
        parser = configparser.ConfigParser()
        parser.read_string(text, source=str(path))
    except (json.JSONDecodeError, configparser.Error) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return {section: dict(parser.items(section))
            for section in parser.sections()}


def materialize(raw: dict) -> dict:
    """Apply defaults, parse types, and validate; returns the resolved config."""
    resolved: dict[str, dict] = {}
    for section, keys in raw.items():
        if section not in DEFAULTS:
            raise ConfigError(f"unknown config section [{section}]")
        for key in keys:
            if key not in DEFAULTS[section]:
                raise ConfigError(f"unknown config key {section}.{key}")
    for section, defaults in DEFAULTS.items():
        resolved[section] = {}
        for key, default in defaults.items():
            if section in raw and key in raw[section]:
                value = raw[section][key]
                if isinstance(value, str):
                    value = _parse_value(section, key, value, default)
                resolved[section][key] = value
            else:
                resolved[section][key] = default
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
    """Epochs per incremental step, from the override or the named preset."""
    proto = resolved["protocol"]
    override = proto["epochs_step"]
    preset = proto["epoch_preset"]
    half = proto["initial_classes"] * 2 == proto["total_classes"]
    if preset not in ("auto", *EPOCH_PRESETS):
        raise ConfigError(f"protocol.epoch_preset: unknown preset {preset!r}")
    if preset == "half_start" and not half:
        raise ConfigError(
            "protocol.epoch_preset: half_start requires initial_classes == "
            "total_classes / 2")
    if preset == "cold_start" and half:
        raise ConfigError(
            "protocol.epoch_preset: cold_start requires initial_classes != "
            "total_classes / 2")
    if override not in ("", None):
        try:
            return int(override)
        except ValueError:
            raise ConfigError(
                f"protocol.epochs_step: expected integer, got {override!r}") from None
    if preset == "auto":
        preset = "half_start" if half else "cold_start"
    return EPOCH_PRESETS[preset]


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
    train = resolved["train"]
    aug = resolved["augment"]
    try:
        augment = AugmentConfig(
            hflip=aug["hflip"], mixup=aug["mixup"], cutmix=aug["cutmix"],
            label_smoothing=aug["label_smoothing"],
            mixup_alpha=aug["mixup_alpha"], cutmix_alpha=aug["cutmix_alpha"],
            mix_prob=aug["mix_prob"])
        return TrainSettings(
            batch_size=train["batch_size"], backbone_lr=train["backbone_lr"],
            classifier_lr_multiplier=train["classifier_lr_multiplier"],
            weight_decay=train["weight_decay"],
            warmup_epochs=train["warmup_epochs"], min_lr=train["min_lr"],
            lambda_base=train["lambda_base"],
            epochs_finetune=train["epochs_finetune"],
            finetune_lr_scale=train["finetune_lr_scale"],
            balanced_finetune=train["balanced_finetune"],
            grad_clip=train["grad_clip"], eta_init=train["eta_init"],
            margin_ranking=aug["margin_ranking"], margin=aug["margin"],
            margin_top_k=aug["margin_top_k"], augment=augment)
    except ConfigError as exc:
        if "margin_ranking" in str(exc):
            raise ConfigError(
                "augment.margin_ranking conflicts with augment.mixup / "
                "augment.cutmix: margin ranking needs hard labels") from None
        raise ConfigError(f"train: {exc}") from None


def build_model_spec(resolved: dict, image_size: int, channels: int,
                     num_classes: int | None = None) -> ModelSpec:
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
            num_classes=num_classes or resolved["protocol"]["total_classes"])
    except ConfigError as exc:
        raise ConfigError(f"model: {exc}") from None
