"""Config schema: accepted keys, resolved values, config hashes, input errors."""

from __future__ import annotations

from dataclasses import MISSING, replace
from pathlib import Path

import pytest
import yaml

from apemo import config
from apemo.abm import AbmConfig, TrapSpec
from apemo.benchmark import BlockConfig, ReuseParams, RuntimeSettings, run_block
from apemo.config import AppConfig, ConfigError, load_config
from apemo.llm import DecodingParams, ModelEndpoint
from apemo.scheduler import DetectionConfig, PolicyKind, SchedulerConfig
from apemo.signals import SignalConfig
from apemo.trajectory import ObjectiveWeights

from test_cli import TINY_CONFIG


@pytest.fixture(autouse=True)
def _no_env_url(monkeypatch):
    monkeypatch.delenv("APEMO_SERVER_URL", raising=False)


def _write(tmp_path, data) -> str:
    path = tmp_path / "config.yaml"
    text = data if isinstance(data, str) else yaml.safe_dump(data)
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_config_hashes_are_pinned(tmp_path):
    assert load_config(None).config_hash() == "d5bb24aecabcbfbb"
    assert load_config(None, include_default_blocks=False).config_hash() == "4d13dd1e3f3c7069"
    assert load_config(_write(tmp_path, TINY_CONFIG)).config_hash() == "bb4236f4895c8a45"


def test_config_hash_leaves_out_deployment_settings(tmp_path, monkeypatch):
    def hash_of(data: dict) -> str:
        return load_config(_write(tmp_path, data), include_default_blocks=False).config_hash()

    base = hash_of({})
    monkeypatch.setenv("APEMO_SERVER_URL", "http://127.0.0.1:11434")
    on_11434 = load_config(None).config_hash()
    monkeypatch.setenv("APEMO_SERVER_URL", "http://127.0.0.1:11435")
    assert load_config(None).config_hash() == on_11434
    monkeypatch.delenv("APEMO_SERVER_URL")
    deployment = {"base_url": "http://10.0.0.2:11435", "timeout": 5, "max_retries": 0,
                  "backoff_base": 1.0}
    assert hash_of({"endpoint": deployment}) == base
    assert hash_of({"decoding": {"temperature": 0.7}}) != base


def test_config_hash_leaves_out_where_and_how_many_at_once(tmp_path):
    # neither the output directory nor the worker count changes a record
    moved = load_config(_write(tmp_path, {"output_dir": "elsewhere", "workers": 3}))
    assert (moved.output_dir, moved.workers) == ("elsewhere", 3)
    assert moved.config_hash() == load_config(None).config_hash()
    assert load_config(_write(tmp_path, {"stats_seed": 7})).config_hash() != moved.config_hash()


def test_config_hash_is_of_resolved_values(tmp_path):
    def hash_of(data: dict) -> str:
        return load_config(_write(tmp_path, data), include_default_blocks=False).config_hash()

    assert hash_of({"scheduler": {"skim_fraction": 0}}) == hash_of({"scheduler": {"skim_fraction": 0.0}})
    assert hash_of(_block(horizon=4)) == hash_of(_block(horizon=4.0))
    assert hash_of(_block(horizon=4)) != hash_of(_block(horizon=5))


def test_defaults_equal_dataclass_defaults():
    cfg = load_config(None, include_default_blocks=False)
    assert cfg.settings == RuntimeSettings(
        endpoint=ModelEndpoint("http://127.0.0.1:11434", "llama3.2:1b")
    )
    assert cfg.abm == AbmConfig()
    assert cfg.blocks == {}
    assert (cfg.stats_seed, cfg.output_dir, cfg.workers, cfg.resamples) == (1234, "runs", 1, 10_000)


def _key_paths(tree: dict, prefix: str = "") -> set[str]:
    paths = set()
    for key, value in tree.items():
        here = f"{prefix}{key}"
        if isinstance(value, dict) and key != "blocks":
            paths |= _key_paths(value, here + ".")
        else:
            paths.add(here)
    return paths


ACCEPTED_KEY_PATHS = {
    "schema_version", "stats_seed", "output_dir", "workers", "resamples",
    "blocks",
    "weights.peak", "weights.end",
    "signal.proxy_weights", "signal.ngram_order", "signal.smoothing",
    "detection.quality_floor", "detection.drop_threshold", "detection.frustration_threshold",
    "scheduler.skim_fraction", "scheduler.monitor_overhead", "scheduler.max_repairs",
    "scheduler.repair_factor", "scheduler.ending_threshold",
    "reuse.quality_gain", "reuse.frustration_gain", "reuse.bias",
    "abm.initial_quality", "abm.drift_rate", "abm.noise_sd", "abm.uplift_gain",
    "abm.uplift_half", "abm.digest_tokens",
    "endpoint.base_url", "endpoint.timeout", "endpoint.max_retries", "endpoint.backoff_base",
    "decoding.temperature", "decoding.top_p",
}


def _section_keys(section: str) -> dict:
    """Key -> field of each key the loader reads in a section, nested sections left out."""
    return {k: f for k, (f, _) in config._keys(config._SECTIONS[section]).items()
            if f.name not in config._SECTIONS}


def test_resolved_key_set_is_pinned():
    top = {k for k, (f, _) in config._keys(AppConfig).items() if f.default is not MISSING}
    sections = {f"{s}.{k}" for s in config._SECTIONS for k in _section_keys(s)}
    assert top | {"blocks"} | sections == ACCEPTED_KEY_PATHS


def test_readme_configuration_example_is_every_key_at_its_default(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    text = section.split("```yaml\n", 1)[1].split("```", 1)[0]
    assert _key_paths(yaml.safe_load(text)) == ACCEPTED_KEY_PATHS
    cfg = load_config(_write(tmp_path, text), include_default_blocks=False)
    assert replace(cfg, blocks={}, source_path=None) == load_config(
        None, include_default_blocks=False)


EVERY_KEY = {
    "schema_version": 1,
    "stats_seed": 99,
    "output_dir": "out_x",
    "workers": 3,
    "resamples": 2000,
    "weights": {"peak": 0.7, "end": 0.3},
    "signal": {"proxy_weights": [0.5, 0.3, 0.2], "ngram_order": 3, "smoothing": 0.1},
    "detection": {"quality_floor": 0.4, "drop_threshold": 0.15, "frustration_threshold": 0.8},
    "scheduler": {"skim_fraction": 0.3, "monitor_overhead": 10, "max_repairs": 3,
                  "repair_factor": 2.0, "ending_threshold": 0.6},
    "reuse": {"quality_gain": 3.0, "frustration_gain": 5.0, "bias": -1.0},
    "abm": {"initial_quality": 0.7, "drift_rate": -0.01, "noise_sd": 0.08,
            "uplift_gain": 0.3, "uplift_half": 600.0, "digest_tokens": 24},
    "endpoint": {"base_url": "http://host:1", "timeout": 5.0, "max_retries": 4,
                 "backoff_base": 0.5},
    "decoding": {"temperature": 0.7, "top_p": 0.8},
    "blocks": {
        "b": {
            "executor": "llm",
            "models": ["x", "y"],
            "horizon": 6,
            "episodes": 3,
            "budget_cap": 900,
            "policies": ["uniform", "apemo"],
            "seeds": [4, 5],
            "trap": {"trap_turn": 3, "severity": 0.5, "recovery_rate": 0.2},
            "abm": {"initial_quality": 0.5, "drift_rate": -0.03, "noise_sd": 0.09,
                    "uplift_gain": 0.2, "uplift_half": 700.0, "digest_tokens": 16},
        }
    },
}


def test_every_key_lands_on_its_field(tmp_path):
    cfg = load_config(_write(tmp_path, EVERY_KEY), include_default_blocks=False)
    assert (cfg.stats_seed, cfg.output_dir, cfg.workers, cfg.resamples) == (99, "out_x", 3, 2000)
    assert cfg.settings == RuntimeSettings(
        weights=ObjectiveWeights(peak_weight=0.7, end_weight=0.3),
        reuse=ReuseParams(quality_gain=3.0, frustration_gain=5.0, bias=-1.0),
        scheduler=SchedulerConfig(
            signal=SignalConfig(proxy_weights=(0.5, 0.3, 0.2), ngram_order=3, smoothing=0.1),
            detection=DetectionConfig(quality_floor=0.4, drop_threshold=0.15,
                                      frustration_threshold=0.8),
            skim_fraction=0.3, monitor_overhead=10, max_repairs=3, repair_factor=2.0,
            ending_threshold=0.6,
        ),
        endpoint=ModelEndpoint(base_url="http://host:1", timeout=5.0, max_retries=4,
                               backoff_base=0.5),
        decoding=DecodingParams(temperature=0.7, top_p=0.8),
    )
    assert cfg.abm == AbmConfig(initial_quality=0.7, drift_rate=-0.01, noise_sd=0.08,
                                uplift_gain=0.3, uplift_half=600.0, digest_tokens=24)
    assert cfg.blocks == {
        "b": BlockConfig(
            name="b", executor="llm", models=("x", "y"), horizon=6, episodes=3,
            budget_cap=900, policies=(PolicyKind.UNIFORM, PolicyKind.APEMO), seeds=(4, 5),
            trap=TrapSpec(trap_turn=3, severity=0.5, recovery_rate=0.2),
            abm=AbmConfig(initial_quality=0.5, drift_rate=-0.03, noise_sd=0.09,
                          uplift_gain=0.2, uplift_half=700.0, digest_tokens=16),
        )
    }


def test_block_abm_overrides_start_from_the_global_abm(tmp_path):
    cfg = load_config(_write(tmp_path, {
        "abm": {"drift_rate": -0.05, "digest_tokens": 20},
        "blocks": {"b": {**EVERY_KEY["blocks"]["b"], "abm": {"noise_sd": 0.2}}},
    }), include_default_blocks=False)
    assert cfg.blocks["b"].abm == AbmConfig(drift_rate=-0.05, digest_tokens=20, noise_sd=0.2)


def _block(**extra) -> dict:
    spec = {"executor": "abm", "models": ["m"], "horizon": 8, "episodes": 1,
            "budget_cap": 100, "policies": ["apemo"], "seeds": [1]}
    return {"blocks": {"b": {**spec, **extra}}}


@pytest.mark.parametrize("data, path", [
    ("decoding: {max_tokens: 10}\n", "decoding.max_tokens"),
    ("scheduler: {task: plan}\n", "scheduler.task"),
    ("scheduler: {signal: {}}\n", "scheduler.signal"),
    ("weights: {quality_weight: 2.0}\n", "weights.quality_weight"),
    ("weights: {quality: 2.0}\n", "weights.quality"),
    ("weights: {reuse: 2.0}\n", "weights.reuse"),
    ("weights: {frustration: 2.0}\n", "weights.frustration"),
    ("weights: {cost: 2.0}\n", "weights.cost"),
    ("endpoint: {model_id: other:1b}\n", "endpoint.model_id"),
    ("settings: {}\n", "settings"),
    ("source_path: x.yaml\n", "source_path"),
    (_block(name="x"), "blocks.b.name"),
    (_block(abm={"noise": 0.1}), "blocks.b.abm.noise"),
    (_block(abm={"trap_turn": 3}), "blocks.b.abm.trap_turn"),
    (_block(trap={"trap_turn": 3, "severity": 0.4, "turn": 2}), "blocks.b.trap.turn"),
    (_block(trap={"trap_turn": 3, "noise_sd": 0.1}), "blocks.b.trap.noise_sd"),
    (_block(seeds={"count": 2, "step": 1}), "blocks.b.seeds.step"),
])
def test_non_keys_rejected_with_path(tmp_path, data, path):
    with pytest.raises(ConfigError) as info:
        load_config(_write(tmp_path, data))
    assert str(info.value) == f"unknown config key: {path}"


@pytest.mark.parametrize("data, message", [
    ({"scheduler": {"skim_fraction": True}}, "scheduler.skim_fraction must be float, got True"),
    ({"endpoint": {"base_url": False}}, "endpoint.base_url must be str, got False"),
    (_block(horizon=2.9), "blocks.b.horizon must be an integer, got 2.9"),
    (_block(horizon=True), "blocks.b.horizon must be int, got True"),
    ({"scheduler": {"max_repairs": 1.5}}, "scheduler.max_repairs must be an integer, got 1.5"),
    (_block(trap={"severity": 0.4}), "blocks.b.trap: missing required key 'trap_turn'"),
    ({"blocks": {"b": 5}}, "blocks.b must be a mapping"),
    ({"scheduler": {"skim_fraction": 1.5}}, "scheduler: skim_fraction must be in [0, 1), got 1.5"),
    (_block(models=["m", "n", "m"]), "blocks.b: models lists m more than once"),
    (_block(seeds=[1, 1]), "blocks.b: seeds lists 1 more than once"),
    (_block(policies=["apemo", "uniform", "apemo"]), "blocks.b: policies lists apemo more than once"),
    (_block(policies=["zigzag"]), "blocks.b.policies[0]: unknown value 'zigzag'"),
    (_block(seeds={"count": 0}), "blocks.b.seeds: seed count must be >= 1"),
    ({"signal": {"proxy_weights": [0.5, 0.5]}},
     "signal.proxy_weights must have exactly 3 items, got 2"),
    ({"schema_version": 2}, "schema_version 2 unsupported; expected 1"),
    ({"endpoint": {"timeout": -1}}, "endpoint: timeout must be > 0, got -1.0"),
    ({"endpoint": {"timeout": 0}}, "endpoint: timeout must be > 0, got 0.0"),
    ({"endpoint": {"backoff_base": -1}}, "endpoint: backoff_base must be >= 0, got -1.0"),
    ({"resamples": 0}, "resamples must be >= 1, got 0"),
    ({"stats_seed": -1}, "stats_seed must be >= 0, got -1"),
    ({"workers": 0}, "workers must be >= 1, got 0"),
    (_block(policies=["plan_execute_reflect"]),
     "blocks.b.policies[0]: unknown value 'plan_execute_reflect'"),
])
def test_bad_values_rejected_with_path(tmp_path, data, message):
    with pytest.raises(ConfigError) as info:
        load_config(_write(tmp_path, data), include_default_blocks=False)
    assert str(info.value).startswith(message)


def test_integral_floats_accepted(tmp_path):
    cfg = load_config(_write(tmp_path, _block(horizon=6.0)), include_default_blocks=False)
    assert cfg.blocks["b"].horizon == 6 and isinstance(cfg.blocks["b"].horizon, int)


@pytest.mark.parametrize("policy", [
    PolicyKind.PLAN_EXECUTE, PolicyKind.FLOW_PLAIN, PolicyKind.FLOW_TEMPORAL,
], ids=str)
def test_topology_policy_rejected_on_abm_accepted_on_llm(tmp_path, policy):
    grid = dict(name="b", models=("m",), horizon=8, episodes=1, budget_cap=100,
                policies=(PolicyKind.APEMO, policy), seeds=(1,))
    with pytest.raises(ValueError, match=f"policies \\['{policy}'\\] need a role topology"):
        BlockConfig(executor="abm", **grid)
    assert BlockConfig(executor="llm", **grid).policies == (PolicyKind.APEMO, policy)

    with pytest.raises(ConfigError) as info:
        load_config(_write(tmp_path, _block(policies=["apemo", policy.value])),
                    include_default_blocks=False)
    assert str(info.value).startswith(f"blocks.b: policies ['{policy}'] need a role topology")
    cfg = load_config(_write(tmp_path, _block(executor="llm", policies=[policy.value])),
                      include_default_blocks=False)
    assert cfg.blocks["b"].policies == (policy,)


# A value other than the default for each key the simulator reads. peak and
# end must sum to 1, so setting one sets the other to the rest.
SIMULATOR_KEYS = {
    "weights.peak": 0.7,
    "weights.end": 0.7,
    "signal.proxy_weights": [0.2, 0.2, 0.6],
    "signal.ngram_order": 3,
    "signal.smoothing": 0.0,
    "detection.quality_floor": 0.0,
    "detection.drop_threshold": 0.05,
    "detection.frustration_threshold": 0.3,
    "scheduler.skim_fraction": 0.4,
    "scheduler.monitor_overhead": 40,
    "scheduler.max_repairs": 0,
    "scheduler.repair_factor": 3.0,
    "scheduler.ending_threshold": 0.3,
    "reuse.quality_gain": 2.0,
    "reuse.frustration_gain": 2.0,
    "reuse.bias": -1.0,
    "abm.initial_quality": 0.4,
    "abm.drift_rate": -0.05,
    "abm.noise_sd": 0.1,
    "abm.uplift_gain": 0.5,
    "abm.uplift_half": 400.0,
    "abm.digest_tokens": 16,
}


def test_every_simulator_key_has_a_case():
    sections = ("weights", "signal", "detection", "scheduler", "reuse", "abm")
    assert set(SIMULATOR_KEYS) == {f"{s}.{k}" for s in sections for k in _section_keys(s)}


def _simulated(tmp_path, overrides: dict) -> list[dict]:
    block = {"executor": "abm", "models": ["abm-a"], "horizon": 8, "episodes": 1,
             "budget_cap": 680, "policies": ["uniform", "task_affect", "apemo"],
             "seeds": [1, 2, 3], "trap": {"trap_turn": 4, "severity": 0.4}}
    cfg = load_config(_write(tmp_path, {**overrides, "blocks": {"b": block}}),
                      include_default_blocks=False)
    return [r.to_dict() for r in run_block(cfg.blocks["b"], cfg.settings)]


@pytest.fixture(scope="module")
def default_records(tmp_path_factory) -> list[dict]:
    return _simulated(tmp_path_factory.mktemp("defaults"), {})


@pytest.mark.parametrize("path", sorted(SIMULATOR_KEYS))
def test_every_simulator_key_moves_a_record(tmp_path, default_records, path):
    section, key = path.split(".")
    value = SIMULATOR_KEYS[path]
    assert value != _section_keys(section)[key].default
    overrides = {section: {key: value}}
    if section == "weights":
        overrides[section]["end" if key == "peak" else "peak"] = 1.0 - value
    assert _simulated(tmp_path, overrides) != default_records
