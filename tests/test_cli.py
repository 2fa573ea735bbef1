"""Config loading and CLI behavior: exit codes, resume, reports, determinism."""

from __future__ import annotations

import json

import pytest

from apemo.abm import STREAM_VERSION
from apemo import stats
from apemo.cli import main
from apemo.config import ConfigError, load_config
from apemo.mock_server import MockModelServer
from apemo.stats import REPORT_METRICS

TINY_CONFIG = """
stats_seed: 77
resamples: 1000
blocks:
  tiny:
    executor: abm
    models: [abm-a]
    horizon: 4
    episodes: 1
    budget_cap: 600
    policies: [uniform, task_peak_end, apemo]
    seeds: {count: 4, start: 1}
    abm: {noise_sd: 0.1}
  tiny_trap:
    executor: abm
    models: [abm-a]
    horizon: 6
    episodes: 1
    budget_cap: 900
    policies: [task_peak_end, apemo]
    seeds: [1, 2, 3]
    trap: {trap_turn: 3, severity: 0.4}
  tiny_llm:
    executor: llm
    models: [test-model]
    horizon: 2
    episodes: 1
    budget_cap: 120
    policies: [uniform, apemo]
    seeds: [1, 2]
"""


@pytest.fixture
def config_path(tmp_path) -> str:
    path = tmp_path / "config.yaml"
    path.write_text(TINY_CONFIG, encoding="utf-8")
    return str(path)


def test_defaults_load_without_file():
    cfg = load_config(None)
    assert "sim_long" in cfg.blocks
    assert cfg.blocks["sim_trap"].trap is not None
    assert cfg.settings.scheduler.skim_fraction == 0.2


def test_unknown_key_rejected_with_path(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("scheduler: {skim_fracton: 0.3}\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="skim_fracton"):
        load_config(str(path))


def test_unknown_policy_rejected(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text(
        "blocks:\n  b:\n    executor: abm\n    models: [m]\n    horizon: 2\n"
        "    episodes: 1\n    budget_cap: 100\n    policies: [zigzag]\n    seeds: [1]\n",
        encoding="utf-8",
    )
    with pytest.raises(ConfigError, match="zigzag"):
        load_config(str(path))


def test_env_url_override_and_file_precedence(tmp_path, monkeypatch):
    monkeypatch.setenv("APEMO_SERVER_URL", "http://envhost:1234")
    cfg = load_config(None)
    assert cfg.settings.endpoint.base_url == "http://envhost:1234"

    path = tmp_path / "c.yaml"
    path.write_text("endpoint: {base_url: 'http://filehost:9'}\n", encoding="utf-8")
    cfg = load_config(str(path))
    assert cfg.settings.endpoint.base_url == "http://filehost:9"


def test_seed_range_expansion(config_path):
    cfg = load_config(config_path)
    assert cfg.blocks["tiny"].seeds == (1, 2, 3, 4)
    assert cfg.blocks["tiny_trap"].seeds == (1, 2, 3)


def test_validate_config_command(config_path, capsys):
    assert main(["validate-config", "--config", config_path]) == 0
    out = capsys.readouterr().out
    assert "config ok" in out
    assert "tiny" in out


def test_validate_config_bad_file(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("nonsense_key: 1\n", encoding="utf-8")
    assert main(["validate-config", "--config", str(path)]) == 2


def test_simulate_unknown_block_lists_available(config_path, tmp_path, capsys):
    code = main(["simulate", "--config", config_path, "--block", "nope",
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "tiny" in capsys.readouterr().err


def test_simulate_rejects_llm_block(config_path, tmp_path):
    assert main(["simulate", "--config", config_path, "--block", "tiny_llm",
                 "--out", str(tmp_path / "o")]) == 2


def test_simulate_happy_path_and_resume(config_path, tmp_path, capsys):
    out = tmp_path / "runs"
    assert main(["simulate", "--config", config_path, "--block", "tiny",
                 "--out", str(out)]) == 0
    runs_file = out / "tiny.runs.jsonl"
    assert runs_file.exists()
    first = runs_file.read_text()
    assert len(first.strip().splitlines()) == 12  # 1 model x 4 seeds x 3 policies
    assert (out / "manifest.json").exists()
    capsys.readouterr()

    assert main(["simulate", "--config", config_path, "--block", "tiny",
                 "--out", str(out)]) == 0
    assert runs_file.read_text() == first  # resume re-executes nothing
    assert "(resumed)" in capsys.readouterr().out


@pytest.mark.parametrize("stored", ["missing", 1])
def test_resuming_records_of_another_stream_exits_2(config_path, tmp_path, capsys, stored):
    out = tmp_path / "runs"
    args = ["simulate", "--config", config_path, "--block", "tiny", "--out", str(out)]
    assert main(args) == 0
    assert json.loads((out / "manifest.json").read_text())["stream_version"] == STREAM_VERSION
    runs_file = out / "tiny.runs.jsonl"
    rows = [json.loads(line) for line in runs_file.read_text().splitlines()]
    assert {row["stream_version"] for row in rows} == {STREAM_VERSION}
    # a v1 store: written before records carried a stream version, or stamped 1
    for row in rows:
        if stored == "missing":
            del row["stream_version"]
        else:
            row["stream_version"] = stored
    runs_file.write_text("".join(json.dumps(row, sort_keys=True) + "\n" for row in rows))
    v1_store = runs_file.read_text()
    manifest = out / "manifest.json"
    manifest.write_text("{}\n")
    capsys.readouterr()

    assert main(args) == 2
    captured = capsys.readouterr()
    assert str(runs_file) in captured.err
    assert "(resumed)" not in captured.out
    assert runs_file.read_text() == v1_store  # nothing mixed in
    assert manifest.read_text() == "{}\n"  # not stamped with this build's stream
    assert main(args + ["--no-resume"]) == 0
    rows = [json.loads(line) for line in runs_file.read_text().splitlines()]
    assert len(rows) == 12 and {row["stream_version"] for row in rows} == {STREAM_VERSION}


def test_model_server_records_carry_no_stream_version_and_resume(
    config_path, tmp_path, monkeypatch, capsys
):
    with MockModelServer() as server:
        monkeypatch.setenv("APEMO_SERVER_URL", server.url)
        args = ["run-llm", "--config", config_path, "--block", "tiny_llm", "--out", str(tmp_path)]
        assert main(args) == 0
        runs = (tmp_path / "tiny_llm.runs.jsonl").read_text().splitlines()
        assert {json.loads(line)["stream_version"] for line in runs} == {None}
        capsys.readouterr()
        assert main(args) == 0
    assert capsys.readouterr().out.count("(resumed)") == len(runs)


def test_report_refuses_a_config_block_store_of_another_stream(config_path, tmp_path, capsys):
    out = tmp_path / "runs"
    for block in ("tiny", "tiny_trap"):
        assert main(["simulate", "--config", config_path, "--block", block, "--out", str(out)]) == 0
    trap_file = out / "tiny_trap.runs.jsonl"
    rows = [json.loads(line) for line in trap_file.read_text().splitlines()]
    for row in rows:  # a stream-1 store next to this stream's tiny store
        row["stream_version"] = 1
    trap_file.write_text("".join(json.dumps(row, sort_keys=True) + "\n" for row in rows))
    capsys.readouterr()

    assert main(["report", "--config", config_path, "--records", str(out)]) == 2
    assert str(trap_file) in capsys.readouterr().err
    assert not (out / "reports" / "frontier.csv").exists()
    # stores of blocks the loaded config does not define are reported as before
    assert main(["report", "--records", str(out)]) == 0
    assert (out / "reports" / "frontier.csv").exists()


def test_report_refuses_two_stores_of_one_block(config_path, tmp_path, capsys):
    out = tmp_path / "runs"
    assert main(["simulate", "--config", config_path, "--block", "tiny", "--out", str(out)]) == 0
    runs_file = out / "tiny.runs.jsonl"
    rows = [json.loads(line) for line in runs_file.read_text().splitlines()]
    copy_file = out / "zz_copy.runs.jsonl"  # sorts after the original store
    half = rows[: len(rows) // 2]
    for row in half:
        row["mean_quality"] += 1.0
    copy_file.write_text("".join(json.dumps(row, sort_keys=True) + "\n" for row in half))
    capsys.readouterr()

    assert main(["report", "--config", config_path, "--records", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(runs_file) in err and str(copy_file) in err and "'tiny'" in err
    assert not (out / "reports" / "tiny.report.txt").exists()


def test_report_refuses_a_store_of_two_blocks(config_path, tmp_path, capsys):
    out = tmp_path / "runs"
    for block in ("tiny", "tiny_trap"):
        assert main(["simulate", "--config", config_path, "--block", block, "--out", str(out)]) == 0
    runs_file = out / "tiny.runs.jsonl"
    trap_file = out / "tiny_trap.runs.jsonl"
    runs_file.write_text(runs_file.read_text() + trap_file.read_text())
    trap_file.unlink()
    capsys.readouterr()

    assert main(["report", "--config", config_path, "--records", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(runs_file) in err and "'tiny'" in err and "'tiny_trap'" in err
    assert not (out / "reports" / "tiny.report.txt").exists()


def _tree(root) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


LINE_DEFECTS = {
    "malformed complete line": lambda row: json.dumps(row)[:40],
    "unknown schema_version": lambda row: json.dumps({"schema_version": 99}),
    "record missing a field": lambda row: json.dumps(
        {k: v for k, v in row.items() if k != "mean_quality"}),
    "schema_version as a string": lambda row: json.dumps({**row, "schema_version": "1"}),
    "mean_quality not a number": lambda row: json.dumps({**row, "mean_quality": "high"}),
    "a per-turn value not a number": lambda row: json.dumps(
        {**row, "quality_by_turn": [0.5, "x"] + row["quality_by_turn"][2:]}),
}


@pytest.mark.parametrize("command", ["simulate", "report"])
@pytest.mark.parametrize("defect", sorted(LINE_DEFECTS))
def test_a_store_line_that_is_not_a_record_exits_2_naming_it(
    config_path, tmp_path, capsys, command, defect
):
    out = tmp_path / "runs"
    assert main(["simulate", "--config", config_path, "--block", "tiny", "--out", str(out)]) == 0
    assert main(["report", "--config", config_path, "--records", str(out)]) == 0
    runs_file = out / "tiny.runs.jsonl"
    lines = runs_file.read_text().splitlines(keepends=True)
    lines[2] = LINE_DEFECTS[defect](json.loads(lines[2])) + "\n"
    runs_file.write_text("".join(lines))
    before = _tree(out)  # the store, the manifest and reports/
    capsys.readouterr()

    args = {"simulate": ["simulate", "--block", "tiny", "--out", str(out)],
            "report": ["report", "--records", str(out)]}[command]
    assert main(args + ["--config", config_path]) == 2
    captured = capsys.readouterr()
    assert f"store error: {runs_file}:3: " in captured.err
    assert "(resumed)" not in captured.out
    assert _tree(out) == before


@pytest.mark.parametrize("command", ["simulate", "report"])
def test_a_stored_key_that_is_not_a_record_field_exits_2_naming_it(
    config_path, tmp_path, capsys, command
):
    out = tmp_path / "runs"
    assert main(["simulate", "--config", config_path, "--block", "tiny", "--out", str(out)]) == 0
    runs_file = out / "tiny.runs.jsonl"
    lines = runs_file.read_text().splitlines(keepends=True)
    lines[1] = json.dumps({**json.loads(lines[1]), "mean_qualty": 0.5}) + "\n"
    runs_file.write_text("".join(lines))
    before = _tree(out)
    capsys.readouterr()

    args = {"simulate": ["simulate", "--block", "tiny", "--out", str(out)],
            "report": ["report", "--records", str(out)]}[command]
    assert main(args + ["--config", config_path]) == 2
    err = capsys.readouterr().err
    assert f"store error: {runs_file}:2: " in err
    assert "'mean_qualty'" in err
    assert _tree(out) == before


TWO_CAPS_CONFIG = """
blocks:
  a: {executor: abm, models: [abm-a], horizon: 4, episodes: 1, budget_cap: 600,
      policies: [uniform, apemo], seeds: [1, 2, 3]}
  b: {executor: abm, models: [abm-a], horizon: 4, episodes: 1, budget_cap: 900,
      policies: [uniform, apemo], seeds: [1, 2, 3]}
"""


@pytest.fixture
def two_caps(tmp_path):
    """A config of blocks a and b with equal run keys, and both blocks' stores."""
    config = tmp_path / "caps.yaml"
    config.write_text(TWO_CAPS_CONFIG, encoding="utf-8")
    out = tmp_path / "runs"
    for block in ("a", "b"):
        assert main(["simulate", "--config", str(config), "--block", block,
                     "--out", str(out)]) == 0
    return str(config), out


def test_simulate_refuses_a_store_of_another_block(two_caps, capsys):
    config, out = two_caps
    runs_file = out / "a.runs.jsonl"
    (out / "b.runs.jsonl").replace(runs_file)  # b's records under a's name
    before = _tree(out)
    capsys.readouterr()

    assert main(["simulate", "--config", config, "--block", "a", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert f"store error: {runs_file}: " in captured.err
    assert "'a'" in captured.err and "'b'" in captured.err
    assert "(resumed)" not in captured.out
    assert _tree(out) == before


TRAP_LATER_CONFIG = """
blocks:
  t: {{executor: abm, models: [abm-a], horizon: 6, episodes: 1, budget_cap: 900,
      policies: [uniform, apemo], seeds: {seeds}{trap}}}
"""


def _trap_later_config(tmp_path, name: str, seeds: str, trap: str = "") -> str:
    path = tmp_path / name
    path.write_text(TRAP_LATER_CONFIG.format(seeds=seeds, trap=trap), encoding="utf-8")
    return str(path)


def test_resuming_a_block_under_another_trap_exits_2_before_any_cell(tmp_path, capsys):
    # seeds 1-2 without a trap, then the block gains a trap and a seed: resume
    # would store trapped records beside trap-less ones, so it is refused
    out = tmp_path / "runs"
    plain = _trap_later_config(tmp_path, "plain.yaml", "[1, 2]")
    trapped = _trap_later_config(tmp_path, "trapped.yaml", "[1, 2, 3]",
                                 ", trap: {trap_turn: 3, severity: 0.4}")
    assert main(["simulate", "--config", plain, "--block", "t", "--out", str(out)]) == 0
    before = _tree(out)
    capsys.readouterr()

    assert main(["simulate", "--config", trapped, "--block", "t", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert f"store error: {out / 't.runs.jsonl'}: " in captured.err
    assert "trap_turn None" in captured.err and "trap_turn 3" in captured.err
    assert "run model=" not in captured.out
    assert _tree(out) == before


def test_report_refuses_a_store_that_mixes_trap_settings(tmp_path, capsys):
    out, trapped_out = tmp_path / "runs", tmp_path / "trapped"
    plain = _trap_later_config(tmp_path, "plain.yaml", "[1, 2]")
    trapped = _trap_later_config(tmp_path, "trapped.yaml", "[3]",
                                 ", trap: {trap_turn: 3, severity: 0.4}")
    assert main(["simulate", "--config", plain, "--block", "t", "--out", str(out)]) == 0
    assert main(["simulate", "--config", trapped, "--block", "t", "--out", str(trapped_out)]) == 0
    assert main(["report", "--config", plain, "--records", str(out)]) == 0
    runs_file = out / "t.runs.jsonl"
    runs_file.write_text(runs_file.read_text() + (trapped_out / "t.runs.jsonl").read_text())
    before = _tree(out)  # the mixed store, the manifest and the earlier reports
    assert any(path.parts[0] == "reports" for path in before)
    capsys.readouterr()

    assert main(["report", "--config", plain, "--records", str(out)]) == 2
    assert f"store error: {runs_file}:5: " in capsys.readouterr().err
    assert _tree(out) == before


RESHAPED_CONFIG = """
blocks:
  t: {{executor: abm, models: [abm-a], horizon: {horizon}, episodes: {episodes},
      budget_cap: 1600, policies: [task_peak_end, apemo], seeds: [1, 2, 3],
      trap: {{trap_turn: 4, severity: 0.4}}}}
"""


def _reshaped_config(tmp_path, name: str, horizon: int = 8, episodes: int = 2) -> str:
    path = tmp_path / name
    path.write_text(RESHAPED_CONFIG.format(horizon=horizon, episodes=episodes), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("field, stored, value", [("horizon", 8, 7), ("episodes", 2, 1)])
def test_resuming_at_another_horizon_or_episode_count_exits_2_before_any_cell(
    tmp_path, capsys, field, stored, value
):
    # resume would store records of two shapes beside each other, or call the
    # stored records of the old shape resumed, so it is refused
    out = tmp_path / "runs"
    first = _reshaped_config(tmp_path, "first.yaml")
    reshaped = _reshaped_config(tmp_path, "reshaped.yaml", **{field: value})
    assert main(["simulate", "--config", first, "--block", "t", "--out", str(out)]) == 0
    before = _tree(out)
    capsys.readouterr()

    assert main(["simulate", "--config", reshaped, "--block", "t", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert f"store error: {out / 't.runs.jsonl'}: " in captured.err
    assert f"{field} {stored}" in captured.err and f"{field} {value}" in captured.err
    assert "run model=" not in captured.out
    assert _tree(out) == before


def test_report_refuses_a_store_that_mixes_horizons(tmp_path, capsys):
    out, short_out = tmp_path / "runs", tmp_path / "short"
    config = _reshaped_config(tmp_path, "long.yaml")
    short = _reshaped_config(tmp_path, "short.yaml", horizon=7)
    assert main(["simulate", "--config", config, "--block", "t", "--out", str(out)]) == 0
    assert main(["simulate", "--config", short, "--block", "t", "--out", str(short_out)]) == 0
    assert main(["report", "--config", config, "--records", str(out)]) == 0
    runs_file = out / "t.runs.jsonl"
    runs_file.write_text(runs_file.read_text() + (short_out / "t.runs.jsonl").read_text())
    before = _tree(out)  # the mixed store, the manifest and the earlier reports
    assert any(path.parts[0] == "reports" for path in before)
    capsys.readouterr()

    assert main(["report", "--config", config, "--records", str(out)]) == 2
    assert f"store error: {runs_file}:7: a record of horizon 7" in capsys.readouterr().err
    assert _tree(out) == before


def test_report_skips_a_store_left_empty_by_a_cut_torn_append(config_path, tmp_path, capsys):
    out = tmp_path / "runs"
    assert main(["simulate", "--config", config_path, "--block", "tiny", "--out", str(out)]) == 0
    torn = out / "tiny_trap.runs.jsonl"
    torn.write_text((out / "tiny.runs.jsonl").read_text()[:40])  # a first append cut short
    capsys.readouterr()

    assert main(["report", "--config", config_path, "--records", str(out)]) == 0
    assert torn.read_bytes() == b""  # the torn line is cut, leaving no record
    reports = sorted(path.name for path in (out / "reports").iterdir())
    assert "tiny.report.txt" in reports
    assert not any(name.startswith("tiny_trap.") for name in reports)


@pytest.mark.parametrize("repeated", ["another block's records", "its own first record"])
def test_report_refuses_a_store_holding_a_run_key_twice(two_caps, capsys, repeated):
    config, out = two_caps
    assert main(["report", "--config", config, "--records", str(out)]) == 0
    runs_file, b_file = out / "a.runs.jsonl", out / "b.runs.jsonl"
    stored = runs_file.read_text()
    extra = b_file.read_text() if repeated == "another block's records" else stored.splitlines(True)[0]
    runs_file.write_text(stored + extra)
    b_file.unlink()
    before = _tree(out)
    capsys.readouterr()

    assert main(["report", "--config", config, "--records", str(out)]) == 2
    assert f"store error: {runs_file}:7: " in capsys.readouterr().err
    assert _tree(out) == before


def test_blocks_of_equal_pair_count_share_one_draw_and_report_as_alone(
    two_caps, tmp_path, monkeypatch
):
    config, out = two_caps  # blocks a and b: 3 (model, seed) pairs each
    draws = []
    real_chunks = stats._index_chunks

    def counted(n, resamples, seed):
        draws.append((n, resamples, seed))
        return real_chunks(n, resamples, seed)

    monkeypatch.setattr(stats, "_index_chunks", counted)
    assert main(["report", "--config", config, "--records", str(out)]) == 0
    cfg = load_config(config)
    assert draws == [(3, cfg.resamples, cfg.stats_seed)]  # drawn for block a, reused by b
    for block in ("a", "b"):
        alone = tmp_path / f"only_{block}"
        alone.mkdir()
        (alone / f"{block}.runs.jsonl").write_bytes((out / f"{block}.runs.jsonl").read_bytes())
        assert main(["report", "--config", config, "--records", str(alone)]) == 0
        for suffix in (".report.txt", ".deltas.jsonl"):
            name = f"{block}{suffix}"
            assert (alone / "reports" / name).read_bytes() == (out / "reports" / name).read_bytes()
        rows = (out / "reports" / f"{block}.deltas.jsonl").read_text().splitlines()[1:]
        assert any(json.loads(row)["ci_low"] < json.loads(row)["ci_high"] for row in rows)
    assert len(draws) == 3  # one draw per report


def test_report_skips_a_baseline_that_shares_no_run_with_the_target(
    config_path, tmp_path, capsys
):
    out = tmp_path / "runs"
    assert main(["simulate", "--config", config_path, "--block", "tiny", "--out", str(out)]) == 0
    assert main(["report", "--config", config_path, "--records", str(out)]) == 0
    runs_file = out / "tiny.runs.jsonl"
    rows = [json.loads(line) for line in runs_file.read_text().splitlines()]

    def keep(row) -> bool:  # apemo on seeds 1-2, uniform on seeds 3-4: no pair between them
        return {"apemo": row["seed"] <= 2, "uniform": row["seed"] > 2}.get(row["policy"], True)

    runs_file.write_text("".join(json.dumps(row, sort_keys=True) + "\n" for row in rows if keep(row)))
    capsys.readouterr()
    assert main(["report", "--config", config_path, "--records", str(out)]) == 0
    note = ("block tiny: baseline 'uniform' shares no (model, seed, horizon, episodes) run "
            "with the target; skipping it")
    assert note in capsys.readouterr().out
    deltas = (out / "reports" / "tiny.deltas.jsonl").read_text().splitlines()[1:]
    assert {(json.loads(row)["baseline"], json.loads(row)["n"]) for row in deltas} == {
        ("task_peak_end", 2)}

    # with no other baseline left, nothing compares: exit 4, and no earlier report remains
    runs_file.write_text("".join(json.dumps(row, sort_keys=True) + "\n" for row in rows
                                 if keep(row) and row["policy"] != "task_peak_end"))
    assert main(["report", "--config", config_path, "--records", str(out)]) == 4
    captured = capsys.readouterr()
    assert note in captured.out
    assert "block tiny: no baseline to compare 'apemo' with; skipping its report" in captured.out
    assert "error: no block compares target 'apemo'" in captured.err
    assert list((out / "reports").iterdir()) == []


@pytest.mark.parametrize("url", ["http://127.0.0.1:abc", "http://", "http://:8080",
                                 "http://127.0.0.1:99999", "http://127.0.0.1:0",
                                 "http://127.0.0.1 :8080", "ftp://127.0.0.1"])
def test_unusable_server_url_is_a_config_error(tmp_path, monkeypatch, capsys, url):
    path = tmp_path / "c.yaml"
    path.write_text(f"endpoint: {{base_url: '{url}'}}\n", encoding="utf-8")
    assert main(["validate-config", "--config", str(path)]) == 2
    assert "endpoint: base_url" in capsys.readouterr().err
    monkeypatch.setenv("APEMO_SERVER_URL", url)
    assert main(["validate-config"]) == 2
    assert "endpoint: base_url" in capsys.readouterr().err


def test_report_empty_records_dir_exits_4(config_path, tmp_path):
    empty = tmp_path / "nothing"
    empty.mkdir()
    assert main(["report", "--config", config_path, "--records", str(empty)]) == 4


def test_report_emits_tables_frontier_and_trap_series(config_path, tmp_path, capsys):
    out = tmp_path / "runs"
    main(["simulate", "--config", config_path, "--block", "tiny", "--out", str(out)])
    main(["simulate", "--config", config_path, "--block", "tiny_trap", "--out", str(out)])
    capsys.readouterr()
    assert main(["report", "--config", config_path, "--records", str(out)]) == 0
    reports = out / "reports"
    assert (reports / "tiny.report.txt").exists()
    assert (reports / "tiny.deltas.jsonl").exists()
    assert (reports / "frontier.csv").exists()
    assert (reports / "tiny_trap.trap_series.csv").exists()
    frontier = (reports / "frontier.csv").read_text().splitlines()
    assert frontier[0] == "label,gain_pct,cost_pct,viable"
    series = (reports / "tiny_trap.trap_series.csv").read_text().splitlines()
    assert series[0] == "policy,turn,mean_quality,mean_frustration"
    assert len(series) == 1 + 2 * 6  # 2 policies x 6 turns
    rows = (reports / "tiny.deltas.jsonl").read_text().strip().splitlines()
    header = json.loads(rows[0])
    assert header["gate"] == 1.0
    assert header["stats_seed"] == 77


def test_report_reruns_byte_identical(config_path, tmp_path):
    out = tmp_path / "runs"
    main(["simulate", "--config", config_path, "--block", "tiny", "--out", str(out)])
    assert main(["report", "--config", config_path, "--records", str(out)]) == 0
    reports = out / "reports"
    snapshots = {p.name: p.read_bytes() for p in reports.iterdir()}
    assert main(["report", "--config", config_path, "--records", str(out)]) == 0
    for p in reports.iterdir():
        assert p.read_bytes() == snapshots[p.name], p.name


def test_report_prints_directional_banner_when_gate_below_one(config_path, tmp_path, capsys):
    out = tmp_path / "runs"
    main(["simulate", "--config", config_path, "--block", "tiny", "--out", str(out)])
    runs_file = out / "tiny.runs.jsonl"
    rows = [json.loads(line) for line in runs_file.read_text().strip().splitlines()]
    rows[0]["fallback"] = True
    runs_file.write_text("\n".join(json.dumps(r, sort_keys=True) for r in rows) + "\n")
    capsys.readouterr()
    assert main(["report", "--config", config_path, "--records", str(out)]) == 0
    assert "directional evidence" in capsys.readouterr().out


def test_run_llm_preflight_failure_exits_3(config_path, tmp_path, monkeypatch):
    monkeypatch.setenv("APEMO_SERVER_URL", "http://127.0.0.1:9")
    code = main(["run-llm", "--config", config_path, "--block", "tiny_llm",
                 "--out", str(tmp_path / "o")])
    assert code == 3


def test_run_llm_against_mock_server(config_path, tmp_path, monkeypatch, capsys):
    with MockModelServer() as server:
        monkeypatch.setenv("APEMO_SERVER_URL", server.url)
        out = tmp_path / "llmruns"
        assert main(["run-llm", "--config", config_path, "--block", "tiny_llm",
                     "--out", str(out)]) == 0
        runs = (out / "tiny_llm.runs.jsonl").read_text().strip().splitlines()
        assert len(runs) == 4  # 2 seeds x 2 policies
        assert server.transcript  # requests actually hit the mock
    capsys.readouterr()


def test_validate_config_rejects_topology_policy_on_abm_block(tmp_path, capsys):
    path = tmp_path / "flow.yaml"
    path.write_text(
        "blocks:\n  abm_flow:\n    executor: abm\n    models: [m]\n    horizon: 4\n"
        "    episodes: 1\n    budget_cap: 400\n    policies: [flow_plain, apemo]\n"
        "    seeds: [1]\n",
        encoding="utf-8",
    )
    assert main(["validate-config", "--config", str(path)]) == 2
    assert "blocks.abm_flow: policies ['flow_plain'] need a role topology" in capsys.readouterr().err


def test_block_with_a_repeated_seed_exits_2_before_any_cell_runs(tmp_path, capsys):
    path = tmp_path / "dup.yaml"
    path.write_text(
        "blocks:\n  d:\n    executor: abm\n    models: [abm-a]\n    horizon: 4\n"
        "    episodes: 1\n    budget_cap: 400\n    policies: [uniform]\n    seeds: [1, 1]\n",
        encoding="utf-8",
    )
    out = tmp_path / "runs"
    for command in (["validate-config"], ["simulate", "--block", "d", "--out", str(out)]):
        assert main(command + ["--config", str(path)]) == 2
        assert "config error: blocks.d: seeds lists 1 more than once" in capsys.readouterr().err
    assert not out.exists()


def test_report_compares_a_baseline_named_twice_once(config_path, tmp_path, capsys):
    out = tmp_path / "runs"
    main(["simulate", "--config", config_path, "--block", "tiny", "--out", str(out)])
    capsys.readouterr()
    reports = out / "reports"
    runs = []
    for baselines in (["uniform", "uniform"], ["uniform"]):
        assert main(["report", "--config", config_path, "--records", str(out),
                     "--baselines", *baselines]) == 0
        runs.append((capsys.readouterr().out,
                     {p.name: p.read_bytes() for p in reports.iterdir()}))
    assert runs[0] == runs[1]
    rows = (reports / "tiny.deltas.jsonl").read_text().splitlines()[1:]
    assert [json.loads(row)["baseline"] for row in rows] == ["uniform"] * len(REPORT_METRICS)


def test_report_skips_absent_baselines_and_rejects_unknown_ones(config_path, tmp_path, capsys):
    out = tmp_path / "runs"
    main(["simulate", "--config", config_path, "--block", "tiny_trap", "--out", str(out)])
    capsys.readouterr()
    assert main(["report", "--config", config_path, "--records", str(out),
                 "--baselines", "uniform", "task_peak_end", "apemo"]) == 0
    printed = capsys.readouterr().out
    assert "block tiny_trap: baseline 'uniform' absent; skipping it" in printed
    assert "block tiny_trap: baseline 'apemo' is the target; skipping it" in printed
    rows = (out / "reports" / "tiny_trap.deltas.jsonl").read_text().strip().splitlines()[1:]
    assert {json.loads(row)["baseline"] for row in rows} == {"task_peak_end"}

    for flag in ("--baselines", "--target"):
        with pytest.raises(SystemExit) as info:
            main(["report", "--config", config_path, "--records", str(out), flag, "zigzag"])
        assert info.value.code == 2
        assert "invalid choice: 'zigzag'" in capsys.readouterr().err


def test_report_block_without_baseline_writes_no_report(config_path, tmp_path, capsys):
    out = tmp_path / "runs"
    main(["simulate", "--config", config_path, "--block", "tiny", "--out", str(out)])
    main(["simulate", "--config", config_path, "--block", "tiny_trap", "--out", str(out)])
    capsys.readouterr()
    reports = out / "reports"

    # uniform is in tiny only: tiny_trap is left with no baseline
    assert main(["report", "--config", config_path, "--records", str(out),
                 "--baselines", "uniform"]) == 0
    printed = capsys.readouterr().out
    assert "block tiny_trap: no baseline to compare 'apemo' with; skipping its report" in printed
    assert (reports / "tiny.report.txt").exists()
    assert (reports / "tiny.deltas.jsonl").exists()
    assert not (reports / "tiny_trap.report.txt").exists()
    assert not (reports / "tiny_trap.deltas.jsonl").exists()
    # the frontier lists only the comparison the report made
    rows = (reports / "frontier.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["tiny (vs uniform)"]

    # the target as its own only baseline leaves no block with a comparison,
    # and no file of the earlier report outlives it
    assert main(["report", "--config", config_path, "--records", str(out),
                 "--baselines", "apemo"]) == 4
    captured = capsys.readouterr()
    assert "error: no block compares target 'apemo' with baselines ['apemo']" in captured.err
    assert list(reports.iterdir()) == []


def test_report_skips_a_block_without_the_target_and_reports_the_other(
    config_path, tmp_path, capsys
):
    out = tmp_path / "runs"
    for block in ("tiny", "tiny_trap"):
        assert main(["simulate", "--config", config_path, "--block", block, "--out", str(out)]) == 0
    capsys.readouterr()
    # uniform runs in tiny only
    assert main(["report", "--config", config_path, "--records", str(out),
                 "--target", "uniform"]) == 0
    printed = capsys.readouterr().out
    assert "block tiny_trap: target 'uniform' absent; skipping deltas" in printed
    reports = out / "reports"
    assert sorted(p.name for p in reports.iterdir() if p.name.startswith("tiny")) == [
        "tiny.deltas.jsonl", "tiny.report.txt"]
    rows = (reports / "tiny.deltas.jsonl").read_text().splitlines()[1:]
    assert {json.loads(row)["baseline"] for row in rows} == {"task_peak_end", "apemo"}
    rows = (reports / "frontier.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["tiny (vs apemo)", "tiny (vs task_peak_end)"]


def test_report_skips_a_frontier_point_whose_baseline_mean_is_zero(
    config_path, tmp_path, capsys
):
    out = tmp_path / "runs"
    assert main(["simulate", "--config", config_path, "--block", "tiny", "--out", str(out)]) == 0
    runs_file = out / "tiny.runs.jsonl"
    rows = [json.loads(line) for line in runs_file.read_text().splitlines()]
    for row in rows:
        if row["policy"] == "uniform":
            row["mean_quality"] = 0.0
    runs_file.write_text("".join(json.dumps(row, sort_keys=True) + "\n" for row in rows))
    capsys.readouterr()
    assert main(["report", "--config", config_path, "--records", str(out)]) == 0
    printed = capsys.readouterr().out
    assert ("frontier: skipped tiny vs uniform: baseline mean is zero; relative gain "
            "undefined") in printed
    # the block's report still compares both baselines; only the frontier point is gone
    reports = out / "reports"
    rows = (reports / "tiny.deltas.jsonl").read_text().splitlines()[1:]
    assert {json.loads(row)["baseline"] for row in rows} == {"task_peak_end", "uniform"}
    rows = (reports / "frontier.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["tiny (vs task_peak_end)"]


def test_report_leaves_other_files_alone(config_path, tmp_path):
    out = tmp_path / "runs"
    main(["simulate", "--config", config_path, "--block", "tiny", "--out", str(out)])
    assert main(["report", "--config", config_path, "--records", str(out)]) == 0
    reports = out / "reports"
    (reports / "notes.txt").write_text("kept\n", encoding="utf-8")
    before = sorted(p.name for p in reports.iterdir())

    # no records: refused before anything is deleted
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["report", "--config", config_path, "--records", str(empty),
                 "--out", str(out)]) == 4
    assert sorted(p.name for p in reports.iterdir()) == before

    # a report that runs replaces only the files it writes
    assert main(["report", "--config", config_path, "--records", str(out)]) == 0
    assert sorted(p.name for p in reports.iterdir()) == before


@pytest.mark.parametrize("args, flag", [
    (["report", "--stats-seed", "-1"], "--stats-seed"),
    (["simulate", "--block", "tiny", "--workers", "0"], "--workers"),
    (["run-llm", "--block", "tiny_llm", "--workers", "-2"], "--workers"),
    (["simulate", "--block", "tiny", "--workers", "two"], "--workers"),
])
def test_out_of_range_flags_exit_2_naming_the_flag(config_path, capsys, args, flag):
    with pytest.raises(SystemExit) as info:
        main(args + ["--config", config_path])
    assert info.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err


def test_run_llm_exits_0_on_a_server_that_replies_with_nothing(tmp_path, monkeypatch):
    # flow_plain spends no token on empty replies; its records say reuse per cost 0
    out = tmp_path / "runs"
    with MockModelServer(script=lambda body, index: "") as server:
        monkeypatch.setenv("APEMO_SERVER_URL", server.url)
        assert main(["run-llm", "--block", "llm_flow", "--out", str(out)]) == 0
    records = [json.loads(line) for line in (out / "llm_flow.runs.jsonl").read_text().splitlines()]
    assert len(records) == 48
    plain = [r for r in records if r["policy"] == "flow_plain"]
    assert plain and all(r["total_cost"] == 0 and r["reuse_per_cost"] == 0.0 for r in plain)


def test_default_llm_flow_block_through_the_cli(tmp_path, monkeypatch, capsys):
    # every arm's turns are scored by one instrument, and on the default mock
    # every arm's answers score alike, so apemo gains nothing over either flow arm
    out = tmp_path / "runs"
    with MockModelServer() as server:
        monkeypatch.setenv("APEMO_SERVER_URL", server.url)
        assert main(["run-llm", "--block", "llm_flow", "--out", str(out)]) == 0
    assert len((out / "llm_flow.runs.jsonl").read_text().splitlines()) == 48
    assert main(["report", "--records", str(out)]) == 0
    capsys.readouterr()
    rows = (out / "reports" / "frontier.csv").read_text().splitlines()[1:]
    gains = {row.split(",")[0]: row.split(",")[1] for row in rows}
    assert gains == {"llm_flow (vs flow_plain)": "0.0000", "llm_flow (vs flow_temporal)": "0.0000"}
