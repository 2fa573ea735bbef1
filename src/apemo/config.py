"""Configuration: one YAML file defines weights, knobs, endpoints, and blocks.

The dataclasses are the schema. Each YAML section builds one dataclass, its
keys are the field names (under weights they drop the "_weight" suffix) and
its defaults are the field defaults, so every command runs without a file.
The loader reads the file in one pass: each dataclass is built straight from
the file's mapping, and the field defaults fill whatever the file does not
name. Unknown keys and bad values are rejected with their key path so typos
fail loudly. The server URL may come from the APEMO_SERVER_URL environment
variable, but an explicit endpoint.base_url in the file wins. PyYAML loads
only when a file is read.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections.abc import Mapping
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass, replace
from enum import Enum
from functools import lru_cache
from pathlib import Path
from types import UnionType
from typing import Any, Optional, Union, get_args, get_origin, get_type_hints

from .abm import AbmConfig
from .benchmark import BlockConfig, RuntimeSettings, SCHEMA_VERSION
from .llm import DecodingParams, ModelEndpoint
from .scheduler import DetectionConfig, SchedulerConfig
from .signals import SignalConfig
from .trajectory import ObjectiveWeights, ReuseParams

ENV_SERVER_URL = "APEMO_SERVER_URL"

# ModelEndpoint fields that config_hash leaves out
_DEPLOYMENT_KEYS = ("base_url", "timeout", "max_retries", "backoff_base")

# Fields set per run, so no key sets them: run_cell sets the scheduler's task
# per episode, and _make_executor sets the endpoint's model_id to each block model.
_PER_RUN = {(SchedulerConfig, "task"), (ModelEndpoint, "model_id")}


class ConfigError(ValueError):
    """A configuration file failed validation; the message names the key path."""


# Simulation blocks cover the standard grid shapes: models x seeds gives
# per-policy run counts of 20 / 21 / 20 for sim_long / sim_short / sim_trap.
# LLM blocks need a server (20 / 16 runs per policy for llm_long / llm_flow);
# the topology policies run only there, since the simulator has no roles.
DEFAULT_BLOCKS: dict[str, dict[str, Any]] = {
    "sim_long": {
        "executor": "abm",
        "models": ["abm-a", "abm-b"],
        "horizon": 8,
        "episodes": 2,
        "budget_cap": 680,
        "policies": ["task_affect", "task_peak_end", "apemo"],
        "seeds": {"count": 10, "start": 1},
        "abm": {"noise_sd": 0.12},
    },
    "sim_short": {
        "executor": "abm",
        "models": ["abm-a", "abm-b", "abm-c"],
        "horizon": 2,
        "episodes": 2,
        "budget_cap": 680,
        "policies": ["task_affect", "task_peak_end", "apemo"],
        "seeds": {"count": 7, "start": 1},
        "abm": {"noise_sd": 0.12},
    },
    "sim_trap": {
        "executor": "abm",
        "models": ["abm-a"],
        "horizon": 8,
        "episodes": 1,
        "budget_cap": 1600,
        "policies": ["task_peak_end", "apemo"],
        "seeds": {"count": 20, "start": 1},
        "trap": {"trap_turn": 4, "severity": 0.4, "recovery_rate": 0.3},
    },
    "llm_long": {
        "executor": "llm",
        "models": ["qwen2.5:1.5b", "gemma2:2b"],
        "horizon": 8,
        "episodes": 2,
        "budget_cap": 2400,
        "policies": ["task_affect", "task_peak_end", "apemo"],
        "seeds": {"count": 10, "start": 1},
    },
    "llm_flow": {
        "executor": "llm",
        "models": ["qwen2.5:1.5b", "gemma2:2b"],
        "horizon": 8,
        "episodes": 1,
        "budget_cap": 2400,
        "policies": ["flow_plain", "flow_temporal", "apemo"],
        "seeds": {"count": 8, "start": 1},
    },
}


@dataclass(frozen=True)
class AppConfig:
    """Fully resolved configuration: runtime settings plus block definitions.

    The fields with a plain default are top-level config keys.
    """

    settings: RuntimeSettings
    abm: AbmConfig
    blocks: dict[str, BlockConfig]
    source_path: Optional[str]
    stats_seed: int = 1234
    output_dir: str = "runs"
    workers: int = 1
    resamples: int = 10_000
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        if self.schema_version != SCHEMA_VERSION:
            raise ValueError(
                f"schema_version {self.schema_version} unsupported; expected {SCHEMA_VERSION}"
            )
        for name, low in (("stats_seed", 0), ("workers", 1), ("resamples", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")

    def config_hash(self) -> str:
        """Hash of the resolved values, so a value hashes the same however it is written.

        Where the server is and how patiently it is called (_DEPLOYMENT_KEYS),
        where records are written (``output_dir``) and how many run at once
        (``workers``) are left out: they do not change what a run computes.
        """
        resolved = asdict(self)
        for key in ("source_path", "output_dir", "workers"):
            del resolved[key]
        endpoint = resolved["settings"]["endpoint"]
        if endpoint is not None:
            for key in _DEPLOYMENT_KEYS:
                del endpoint[key]
        return hashlib.sha256(
            json.dumps(resolved, sort_keys=True).encode("utf-8")
        ).hexdigest()[:16]


# YAML section -> the dataclass it builds. A field named after a section
# holds that section's object, so sections nest by name (the scheduler's
# signal and detection, the runtime settings' weights ... decoding).
_SECTIONS: dict[str, type] = {
    "weights": ObjectiveWeights,
    "signal": SignalConfig,
    "detection": DetectionConfig,
    "scheduler": SchedulerConfig,
    "reuse": ReuseParams,
    "abm": AbmConfig,
    "endpoint": ModelEndpoint,
    "decoding": DecodingParams,
}


@lru_cache(maxsize=None)
def _keys(cls: type) -> dict[str, tuple[Any, Any]]:
    """YAML key -> (field, resolved type) for each init field of cls but the _PER_RUN ones."""
    hints = get_type_hints(cls)
    suffix = "_weight" if cls is ObjectiveWeights else ""
    return {
        f.name.removesuffix(suffix): (f, hints[f.name])
        for f in fields(cls) if f.init and (cls, f.name) not in _PER_RUN
    }


def _join(path: str, key: Any) -> str:
    return f"{path}.{key}" if path else str(key)


@lru_cache(maxsize=None)
def _kind(typ: Any) -> tuple[bool, Any, tuple]:
    """(optional?, the type inside Optional, the item types of a tuple) of a field type."""
    optional = get_origin(typ) in (Union, UnionType)
    if optional:
        typ = next(arg for arg in get_args(typ) if arg is not type(None))
    return optional, typ, get_args(typ) if get_origin(typ) is tuple else ()


def _coerce(value: Any, typ: Any, path: str) -> Any:
    """Convert one YAML value to a field type; a YAML boolean fills no field."""
    if type(value) is typ:  # already right: the common case, kept cheap
        return value
    optional, typ, items = _kind(typ)
    if optional and value is None:
        return None
    if items:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path} must be a list, got {value!r}")
        if Ellipsis not in items and len(value) != len(items):
            raise ConfigError(f"{path} must have exactly {len(items)} items, got {len(value)}")
        return tuple(_coerce(v, items[0], f"{path}[{i}]") for i, v in enumerate(value))
    if is_dataclass(typ):
        return _build(typ, value, path)
    if isinstance(value, bool):
        raise ConfigError(f"{path} must be {typ.__name__}, got {value!r}")
    if typ is int and isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{path} must be an integer, got {value!r}")
    try:
        return typ(value)
    except (TypeError, ValueError) as exc:
        if issubclass(typ, Enum):
            valid = ", ".join(member.value for member in typ)
            raise ConfigError(f"{path}: unknown value {value!r}; valid: {valid}") from exc
        raise ConfigError(f"{path} must be {typ.__name__}, got {value!r}") from exc


def _build(cls: type, raw: Any, path: str, /, base: Any = None, **given: Any) -> Any:
    """Build cls from a mapping of its keys; the given fields come from the caller.

    With a base, the keys override the base's fields. Unknown or missing keys,
    bad values and any ValueError from __post_init__ are reported under path.
    """
    if not isinstance(raw, Mapping):
        raise ConfigError(f"{path} must be a mapping")
    keys = _keys(cls)
    for k in raw:
        if k not in keys or keys[k][0].name in given:
            raise ConfigError(f"unknown config key: {_join(path, k)}")
    for key, (f, _) in keys.items():
        required = f.default is MISSING and f.default_factory is MISSING
        if required and base is None and key not in raw and f.name not in given:
            raise ConfigError(f"{path}: missing required key {key!r}")
    values = {keys[k][0].name: _coerce(v, keys[k][1], _join(path, k)) for k, v in raw.items()}
    try:
        return replace(base, **values) if base is not None else cls(**given, **values)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}" if path else str(exc)) from exc


def _seed_range(raw: Mapping, path: str) -> list[int]:
    """Expand the {count, start} shorthand into a list of seeds."""
    for k in raw:
        if k not in ("count", "start"):
            raise ConfigError(f"unknown config key: {_join(path, k)}")
    count = _coerce(raw.get("count", 0), int, f"{path}.count")
    start = _coerce(raw.get("start", 1), int, f"{path}.start")
    if count < 1:
        raise ConfigError(f"{path}: seed count must be >= 1")
    return list(range(start, start + count))


def _parse_block(name: str, raw: Any, base_abm: AbmConfig) -> BlockConfig:
    """A block's abm mapping overrides the global abm section."""
    path = f"blocks.{name}"
    if not isinstance(raw, Mapping):
        raise ConfigError(f"{path} must be a mapping")
    spec = dict(raw)
    overrides = spec.pop("abm", None)
    abm = _build(AbmConfig, overrides, f"{path}.abm", base=base_abm) if overrides else base_abm
    if isinstance(spec.get("seeds"), Mapping):
        spec["seeds"] = _seed_range(spec["seeds"], f"{path}.seeds")
    return _build(BlockConfig, spec, path, name=name, abm=abm)


def _nested(cls: type, built: Mapping[str, Any]) -> dict[str, Any]:
    """The fields of cls named after an already built section."""
    return {f.name: built[f.name] for f in fields(cls) if f.name in built}


def load_config(path: Optional[str] = None, include_default_blocks: bool = True) -> AppConfig:
    """Resolve defaults, optional YAML file, and environment into an AppConfig."""
    raw: Mapping[str, Any] = {}
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {path}")
        import yaml  # only a config file needs PyYAML

        try:
            raw = yaml.safe_load(p.read_text(encoding="utf-8")) or {}
        except yaml.YAMLError as exc:
            raise ConfigError(f"config file is not valid YAML: {exc}") from exc
        if not isinstance(raw, Mapping):
            raise ConfigError("config file must contain a mapping at the top level")
    file_blocks = raw.get("blocks") or {}
    if not isinstance(file_blocks, Mapping):
        raise ConfigError("blocks must be a mapping of name -> block definition")

    endpoint = raw.get("endpoint", {})
    env_url = os.environ.get(ENV_SERVER_URL)
    if env_url and isinstance(endpoint, Mapping) and "base_url" not in endpoint:
        endpoint = {**endpoint, "base_url": env_url}

    built: dict[str, Any] = {}
    for name, cls in _SECTIONS.items():
        section = endpoint if name == "endpoint" else raw.get(name, {})
        built[name] = _build(cls, section, name, **_nested(cls, built))
    settings = RuntimeSettings(**_nested(RuntimeSettings, built))
    specs = {**DEFAULT_BLOCKS, **file_blocks} if include_default_blocks else file_blocks
    blocks = {name: _parse_block(name, spec, built["abm"]) for name, spec in specs.items()}
    top = {k: v for k, v in raw.items() if k not in _SECTIONS and k != "blocks"}
    return _build(AppConfig, top, "", settings=settings, blocks=blocks, source_path=path,
                  **_nested(AppConfig, built))
