"""Command-line surface: flags, exit codes, and reproducible outputs."""

import json
from pathlib import Path

import pytest

from echogrid.cli import main
from echogrid.episode import Trajectory, serialize
from echogrid.harness import RunConfig
from echogrid.world import Goal


def _gen(tmp_path, *extra):
    out = tmp_path / "envs"
    assert main(["gen", "--count", "3", "--out", str(out), *extra]) == 0
    return out


def _run(tmp_path, envs, name="run", *extra):
    out = tmp_path / name
    code = main(
        [
            "run", "--envs", str(envs), "--episodes", "4", "--out", str(out),
            "--goal-seed", "9", *extra,
        ]
    )
    assert code == 0
    return out


def test_gen_writes_snapshots_and_index(tmp_path):
    out = _gen(tmp_path)
    assert sorted(p.name for p in out.iterdir()) == [
        "index.json", "world_0.json", "world_1.json", "world_2.json",
    ]
    index = json.loads((out / "index.json").read_text())
    assert index["seeds"] == [0, 1, 2]


def test_gen_explicit_seeds(tmp_path):
    out = tmp_path / "picked"
    assert main(["gen", "--seeds", "7", "42", "--out", str(out)]) == 0
    assert (out / "world_7.json").exists()
    assert (out / "world_42.json").exists()
    index = json.loads((out / "index.json").read_text())
    assert index["seeds"] == [7, 42]


def test_gen_rerun_is_byte_identical(tmp_path):
    first = _gen(tmp_path)
    second_dir = tmp_path / "envs2"
    main(["gen", "--count", "3", "--out", str(second_dir)])
    for name in ("index.json", "world_0.json", "world_1.json", "world_2.json"):
        assert (first / name).read_bytes() == (second_dir / name).read_bytes()


def test_gen_refuses_nonempty_dir_without_force(tmp_path, capsys):
    out = _gen(tmp_path)
    assert main(["gen", "--count", "3", "--out", str(out)]) == 1
    assert "not empty" in capsys.readouterr().err
    assert main(["gen", "--count", "3", "--out", str(out), "--force"]) == 0


def test_gen_count_zero_usage_error(tmp_path, capsys):
    assert main(["gen", "--count", "0", "--out", str(tmp_path / "x")]) == 1
    assert "error" in capsys.readouterr().err


def test_gen_rejects_a_repeated_seed(tmp_path, capsys):
    """A repeated seed would run its env stream twice under one key."""
    out = tmp_path / "twice"
    assert main(["gen", "--seeds", "5", "5", "--out", str(out)]) == 1
    assert "distinct" in capsys.readouterr().err
    assert not out.exists()


def test_gen_verbose_prints_maps_to_stderr(tmp_path, capsys):
    main(["gen", "--count", "1", "--out", str(tmp_path / "v"), "--verbose"])
    err = capsys.readouterr().err
    assert "#############" in err


def test_run_turn_left_all_rewards_zero(tmp_path):
    envs = _gen(tmp_path)
    out = _run(tmp_path, envs, "react-run", "--strategy", "react")
    metrics = (out / "metrics.csv").read_text().splitlines()
    assert metrics[0] == "env_seed,episode,goal,reward,steps,cum_avg_reward,strategy"
    assert len(metrics) == 1 + 3 * 4
    assert all(row.split(",")[3] == "0" for row in metrics[1:])


def test_run_echo_demo_beats_react(tmp_path):
    envs = _gen(tmp_path)
    echo = _run(tmp_path, envs, "echo-run", "--strategy", "echo", "--backend", "scripted:bfs-demo")
    react = _run(
        tmp_path, envs, "react-run", "--strategy", "react", "--backend", "scripted:bfs-demo"
    )
    out_csv = tmp_path / "eval" / "metrics.csv"
    svg = tmp_path / "eval" / "curves.svg"
    code = main(
        [
            "eval", "--runs", str(echo), "--baseline", str(react),
            "--out", str(out_csv), "--plot", str(svg),
        ]
    )
    assert code == 0
    rows = out_csv.read_text().splitlines()
    assert len(rows) == 1 + 3 * 4, "row count is envs x episodes"
    final_gain = float(rows[-1].rsplit(",", 1)[1])
    assert final_gain > 0
    assert svg.read_text().startswith("<svg ")


def test_eval_identical_runs_flat_zero(tmp_path):
    envs = _gen(tmp_path)
    run = _run(tmp_path, envs, "r1")
    out_csv = tmp_path / "flat.csv"
    main(["eval", "--runs", str(run), "--baseline", str(run), "--out", str(out_csv)])
    for row in out_csv.read_text().splitlines()[1:]:
        assert float(row.rsplit(",", 1)[1]) == 0.0


@pytest.mark.parametrize(
    "field, flags",
    [
        ("backend", ["--backend", "scripted:turn-left"]),
        ("horizon", ["--horizon", "16"]),
        ("episodes_per_env", ["--episodes", "3"]),
        ("goal_seed", ["--goal-seed", "5"]),
        ("env_seeds", ["--envs", "other-envs"]),
    ],
    ids=["backend", "horizon", "episodes_per_env", "goal_seed", "env_seeds"],
)
def test_eval_rejects_unpaired_runs(tmp_path, capsys, field, flags):
    """A baseline whose config differs from the method's in anything but the
    strategy exits 1 naming the field, and eval writes no --out."""
    envs = _gen(tmp_path)
    assert main(["gen", "--seeds", "0", "1", "5", "--out", str(tmp_path / "other-envs")]) == 0
    flags = [str(tmp_path / flag) if flag == "other-envs" else flag for flag in flags]
    echo = _run(tmp_path, envs, "echo", "--strategy", "echo", "--backend", "scripted:bfs-demo")
    react = _run(tmp_path, envs, "react", "--backend", "scripted:bfs-demo", *flags)
    csv = tmp_path / "m.csv"
    capsys.readouterr()
    assert main(["eval", "--runs", str(echo), "--baseline", str(react), "--out", str(csv)]) == 1
    assert capsys.readouterr().err == (
        f"error: method and baseline runs must differ only in strategy; they differ in {field}\n"
    )
    assert not csv.exists()


def test_eval_golden_svg_snapshot(tmp_path):
    """Pin the chart bytes for a tiny fixture pair."""
    envs = _gen(tmp_path)
    echo = _run(tmp_path, envs, "echo", "--strategy", "echo", "--backend", "scripted:bfs-demo")
    react = _run(tmp_path, envs, "react", "--backend", "scripted:bfs-demo")
    svg = tmp_path / "c.svg"
    main(["eval", "--runs", str(echo), "--baseline", str(react),
          "--out", str(tmp_path / "m.csv"), "--plot", str(svg)])
    again = tmp_path / "c2.svg"
    main(["eval", "--runs", str(echo), "--baseline", str(react),
          "--out", str(tmp_path / "m2.csv"), "--plot", str(again)])
    assert svg.read_bytes() == again.read_bytes()


def test_outputs_identical_across_processes_and_hash_seeds(tmp_path):
    """Fresh interpreters with different PYTHONHASHSEEDs agree byte for byte."""
    import os
    import subprocess
    import sys

    blobs = []
    for tag, hash_seed in (("a", "0"), ("b", "31337")):
        envs = tmp_path / tag / "envs"
        run = tmp_path / tag / "run"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        for args in (
            ["gen", "--count", "2", "--out", str(envs)],
            ["run", "--envs", str(envs), "--strategy", "echo",
             "--backend", "scripted:bfs-demo", "--episodes", "3", "--out", str(run)],
        ):
            subprocess.run(
                [sys.executable, "-m", "echogrid", *args],
                check=True, env=env, capture_output=True,
            )
        blobs.append(
            (envs / "world_0.json").read_bytes()
            + (run / "trajectories.jsonl").read_bytes()
            + (run / "metrics.csv").read_bytes()
        )
    assert blobs[0] == blobs[1]


def test_calls_in_one_process_share_a_stateless_parser(tmp_path, capsys):
    """main builds its parser once per process. A failed parse, then gens with
    either seed option, leave nothing that a later call reads: each gen writes
    its own seeds, and a run writes what a fresh interpreter writes."""
    import subprocess
    import sys

    with pytest.raises(SystemExit) as exc:
        main(["run"])
    assert exc.value.code == 2
    assert "--out" in capsys.readouterr().err
    picked, counted = tmp_path / "picked", tmp_path / "counted"
    assert main(["gen", "--seeds", "5", "7", "--out", str(picked)]) == 0
    assert main(["gen", "--count", "1", "--out", str(counted)]) == 0
    for out, seeds in ((picked, [5, 7]), (counted, [0])):
        assert sorted(p.name for p in out.iterdir()) == [
            "index.json", *(f"world_{s}.json" for s in seeds)
        ]
        assert json.loads((out / "index.json").read_text())["seeds"] == seeds
    args = [
        "run", "--envs", str(picked), "--strategy", "echo",
        "--backend", "scripted:bfs-demo", "--episodes", "3", "--out",
    ]
    here, fresh = tmp_path / "here", tmp_path / "fresh"
    assert main([*args, str(here)]) == 0
    subprocess.run(
        [sys.executable, "-B", "-m", "echogrid", *args, str(fresh)], check=True, capture_output=True
    )
    files = sorted(p.relative_to(here) for p in here.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(fresh) for p in fresh.rglob("*") if p.is_file())
    assert "trajectories.jsonl" in map(str, files)
    for name in files:
        assert (here / name).read_bytes() == (fresh / name).read_bytes(), name


def test_run_resume_config_reproduces_bit_for_bit(tmp_path):
    envs = _gen(tmp_path)
    first = _run(tmp_path, envs, "orig", "--strategy", "echo", "--backend", "scripted:bfs-demo")
    resumed = tmp_path / "resumed"
    code = main(
        ["run", "--resume-config", str(first / "config.json"), "--out", str(resumed)]
    )
    assert code == 0
    for name in ("trajectories.jsonl", "metrics.csv", "config.json"):
        assert (first / name).read_bytes() == (resumed / name).read_bytes()


def test_run_refuses_nonempty_out_dir(tmp_path, capsys):
    """A second run into the same dir exits 1 and leaves the first run's files as they were."""
    envs = _gen(tmp_path)
    first = _run(tmp_path, envs, "run", "--strategy", "echo", "--backend", "scripted:bfs-demo")
    files = {p: p.read_bytes() for p in first.rglob("*") if p.is_file()}
    code = main(
        [
            "run", "--envs", str(envs), "--episodes", "2", "--strategy", "reflexion",
            "--out", str(first),
        ]
    )
    assert code == 1
    assert "not empty" in capsys.readouterr().err
    assert {p: p.read_bytes() for p in first.rglob("*") if p.is_file()} == files
    a_file = first / "config.json"
    assert main(["run", "--envs", str(envs), "--out", str(a_file)]) == 1
    assert a_file.read_bytes() == files[a_file]


def test_run_refuses_an_out_under_a_file_before_any_stream(tmp_path, capsys, monkeypatch):
    """An --out whose nearest existing ancestor is a file fails before the
    first env stream runs, and creates nothing."""
    from echogrid import harness

    envs = _gen(tmp_path)
    afile = tmp_path / "afile"
    afile.write_text("not a directory\n")

    def no_stream(*args, **kwargs):
        raise AssertionError("an env stream ran")

    monkeypatch.setattr(harness, "run_env_stream", no_stream)
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    for out in (afile / "sub", afile / "sub" / "deeper"):
        assert main(["run", "--envs", str(envs), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
    assert sorted(tmp_path.rglob("*")) == before


def test_eval_with_a_bad_plot_path_writes_no_out_file(tmp_path, capsys):
    """A --plot path that cannot be written (under a file, or a directory itself)
    fails before --out is written."""
    envs = _gen(tmp_path)
    run = _run(tmp_path, envs, "r1")
    afile = tmp_path / "afile"
    afile.write_text("not a directory\n")
    adir = tmp_path / "adir"
    adir.mkdir()
    out = tmp_path / "e.csv"
    capsys.readouterr()
    for plot in (afile / "c.svg", adir):
        code = main(
            ["eval", "--runs", str(run), "--baseline", str(run), "--out", str(out),
             "--plot", str(plot)]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


def test_run_missing_env_vars_for_live_backend(tmp_path, capsys, monkeypatch):
    for var in ("LM_API_KEY", "LM_BASE_URL", "LM_MODEL"):
        monkeypatch.delenv(var, raising=False)
    envs = _gen(tmp_path)
    code = main(
        ["run", "--envs", str(envs), "--backend", "live", "--out", str(tmp_path / "r")]
    )
    assert code == 1
    assert "LM_" in capsys.readouterr().err


def test_run_rejects_bad_lm_rpm(tmp_path, capsys, monkeypatch):
    """LM_RPM must be a positive integer; a bad value exits 1 before --out exists."""
    monkeypatch.setenv("LM_BASE_URL", "http://127.0.0.1:9")
    monkeypatch.setenv("LM_API_KEY", "test-key")
    monkeypatch.setenv("LM_MODEL", "test-model")
    envs = _gen(tmp_path)
    for value in ("0", "-5", "1.5", "fast"):
        monkeypatch.setenv("LM_RPM", value)
        out = tmp_path / f"r{value}"
        code = main(["run", "--envs", str(envs), "--backend", "live", "--out", str(out)])
        assert code == 1
        assert "LM_RPM" in capsys.readouterr().err
        assert not out.exists()


def test_live_run_with_horizon_0_creates_no_out(tmp_path, capsys, monkeypatch):
    """A live run config out of range or with an unknown strategy exits 1
    before the call mirror creates --out; no request is sent."""
    monkeypatch.setenv("LM_BASE_URL", "http://127.0.0.1:9")
    monkeypatch.setenv("LM_API_KEY", "test-key")
    monkeypatch.setenv("LM_MODEL", "test-model")
    monkeypatch.delenv("LM_RPM", raising=False)
    envs = _gen(tmp_path)
    zen = json.loads(RunConfig(env_seeds=(0, 1), backend="live").to_json())
    zen["strategy"] = "zen"
    (tmp_path / "zen.json").write_text(json.dumps(zen))
    out = tmp_path / "r"
    capsys.readouterr()
    for source, message in (
        (["--envs", str(envs), "--backend", "live", "--horizon", "0"],
         "run config horizon must be >= 1"),
        (["--resume-config", str(tmp_path / "zen.json")],
         "cannot load config: unknown strategy 'zen'"),
    ):
        assert main(["run", *source, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()


@pytest.mark.parametrize(
    "index", ["{not json", "[1]", "{}", '{"seeds": []}', '{"seeds": [1, "2"]}', '{"seeds": 3}']
)
def test_run_rejects_malformed_index(tmp_path, capsys, index):
    envs = tmp_path / "envs"
    envs.mkdir()
    (envs / "index.json").write_text(index)
    out = tmp_path / "r"
    assert main(["run", "--envs", str(envs), "--out", str(out)]) == 1
    assert "index.json" in capsys.readouterr().err
    assert not out.exists()


def test_run_rejects_an_index_repeating_a_seed(tmp_path, capsys):
    envs = _gen(tmp_path)
    doc = json.loads((envs / "index.json").read_text())
    doc["seeds"] = [0, 1, 0]
    (envs / "index.json").write_text(json.dumps(doc))
    out = tmp_path / "r"
    assert main(["run", "--envs", str(envs), "--out", str(out)]) == 1
    assert "index.json needs \"seeds\": a non-empty list of distinct integers" in (
        capsys.readouterr().err
    )
    assert not out.exists()


def _edit_snapshot(envs):
    path = envs / "world_1.json"
    doc = json.loads(path.read_text())
    doc["agent"]["facing"] = "west" if doc["agent"]["facing"] != "west" else "east"
    path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


@pytest.mark.parametrize(
    "drift, message",
    [
        (_edit_snapshot, "world_1.json differs"),
        (lambda envs: (envs / "world_2.json").unlink(), "world_2.json is missing"),
        (lambda envs: (envs / "world_0.json").write_bytes(b"\xff\xfe"), "world_0.json differs"),
    ],
    ids=["edited_snapshot", "missing_snapshot", "undecodable_snapshot"],
)
def test_run_rejects_drifted_envs(tmp_path, capsys, drift, message):
    """run --envs exits 1 unless the dir holds what generate builds now."""
    envs = _gen(tmp_path)
    drift(envs)
    out = tmp_path / "r"
    assert main(["run", "--envs", str(envs), "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


_WRONG_TYPES = {
    "str_episodes": ("episodes_per_env", "2"),
    "bool_horizon": ("horizon", True),
    "float_goal_seed": ("goal_seed", 1.5),
    "int_strategy": ("strategy", 3),
    "null_goal_seed": ("goal_seed", None),
}


@pytest.mark.parametrize(
    "edit",
    [
        "unknown_key", "missing_key", "not_an_object", "no_seeds", "repeated_seed", "version_1",
        *_WRONG_TYPES,
    ],
)
def test_malformed_run_config_exits_1(tmp_path, capsys, edit):
    """run --resume-config, validate and eval reject a malformed config.json with exit 1."""
    envs = _gen(tmp_path)
    run = _run(tmp_path, envs, "run")
    doc = json.loads((run / "config.json").read_text())
    if edit == "unknown_key":
        doc["temperature"] = 0.5
    elif edit == "missing_key":
        del doc["horizon"]
    elif edit == "no_seeds":
        doc["env_seeds"] = []
    elif edit == "repeated_seed":
        doc["env_seeds"] = [0, 1, 0]
    elif edit == "version_1":  # as written before workers and the grid size left the config
        doc.update(version=1, workers=None, grid_width=13, grid_height=13)
    elif edit in _WRONG_TYPES:
        key, value = _WRONG_TYPES[edit]
        doc[key] = value
    else:
        doc = [1]
    (run / "config.json").write_text(json.dumps(doc))
    out = tmp_path / "resumed"
    capsys.readouterr()
    assert main(["run", "--resume-config", str(run / "config.json"), "--out", str(out)]) == 1
    assert not out.exists()
    assert main(["validate", "--run", str(run)]) == 1
    csv = tmp_path / "m.csv"
    assert main(["eval", "--runs", str(run), "--baseline", str(run), "--out", str(csv)]) == 1
    assert not csv.exists()
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if edit == "version_1":
        assert err.count("run config version 1: echogrid reads version 2") == 3


def _append(row):
    return lambda lines: lines.append(row)


def _flip_first_reward(lines):
    fields = lines[1].split(",")
    fields[3] = str(1 - int(fields[3]))
    lines[1] = ",".join(fields)


@pytest.mark.parametrize(
    "name, edit, where",
    [
        ("metrics.csv", _append("7,0,Pick up the red key,0,64,0.0,echo"), ":14: "),
        ("metrics.csv", _append("0,0,Pick up the red key"), ":14: "),
        ("metrics.csv", _append("0,0,Pick up the red key,0,64,0.0,echo"), ":14: "),
        ("metrics.csv", _append("1,4,Pick up the red key,0,64,0.0,echo"), ":14: "),
        ("trajectories.jsonl", lambda lines: lines.__delitem__(slice(-5, None)), ":8: "),
        ("trajectories.jsonl", lambda lines: lines.insert(0, lines.pop(1)), ":1: "),
        ("metrics.csv", _flip_first_reward, ":2: "),
        (
            "metrics.csv",
            lambda lines: lines.__setitem__(
                slice(None), [line.replace(",0.5,", ",0.25,") for line in lines]
            ),
            ":3: ",
        ),
    ],
    ids=[
        "unknown_seed", "short_row", "repeated_episode", "extra_episode",
        "trajectories_cut", "trajectories_swapped", "reward_flipped", "cum_avg_rewritten",
    ],
)
def test_eval_rejects_bad_metrics_row(tmp_path, capsys, name, edit, where):
    """A run dir whose files do not agree exits 1 naming the file and line, and
    eval writes no --out."""
    envs = _gen(tmp_path)
    run = _run(tmp_path, envs, "run", "--strategy", "echo", "--backend", "scripted:bfs-demo")
    lines = (run / name).read_text().splitlines()
    edit(lines)
    (run / name).write_text("\n".join(lines) + "\n")
    csv = tmp_path / "m.csv"
    capsys.readouterr()
    assert main(["eval", "--runs", str(run), "--baseline", str(run), "--out", str(csv)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {run / name}{where}")
    assert "Traceback" not in err
    assert not csv.exists()


def test_eval_rejects_a_missing_or_swapped_episode(tmp_path, capsys):
    """Each env seed's metrics.csv rows must be episodes 0..n-1 in order."""
    envs = _gen(tmp_path)
    run = _run(tmp_path, envs, "run")
    header, *rows = (run / "metrics.csv").read_text().splitlines()
    csv = tmp_path / "m.csv"
    for body, message in (
        (rows[:3] + rows[4:], "metrics.csv:5: "),
        ([rows[1], rows[0], *rows[2:]], "metrics.csv:2: "),
    ):
        (run / "metrics.csv").write_text("\n".join([header, *body]) + "\n")
        assert main(["eval", "--runs", str(run), "--baseline", str(run), "--out", str(csv)]) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not csv.exists()


def test_eval_pairs_baseline_streams_by_env_seed(tmp_path, monkeypatch):
    """A baseline that lists its seeds in another order gives the same gains
    and eval rows as one in the method's order."""
    from echogrid import harness
    from echogrid.harness import gain_over_baseline, read_run_dir
    from echogrid.oracle import OracleBackend, TurnLeftBackend

    # In these baselines env 0 always succeeds and envs 1 and 2 never do, so
    # pairing streams by position instead of seed would change the eval rows
    # (the gain curve, a mean over envs, is the same under any pairing).
    monkeypatch.setattr(
        harness, "make_backend",
        lambda spec, world, mirror_path=None: (
            OracleBackend(world) if world.seed == 0 else TurnLeftBackend()
        ),
    )
    for name, seeds in (("react", (0, 1, 2)), ("react-shuffled", (2, 0, 1))):
        config = RunConfig(
            env_seeds=seeds, episodes_per_env=4, backend="scripted:bfs-demo", goal_seed=9
        )
        harness.run_stream(config, out_dir=tmp_path / name)
    monkeypatch.undo()
    react, shuffled = tmp_path / "react", tmp_path / "react-shuffled"
    assert len({tuple(s.rewards) for s in read_run_dir(react).streams}) == 2
    envs = _gen(tmp_path)
    echo = _run(tmp_path, envs, "echo", "--strategy", "echo", "--backend", "scripted:bfs-demo")
    method = read_run_dir(echo)
    assert gain_over_baseline(method, read_run_dir(shuffled)) == gain_over_baseline(
        method, read_run_dir(react)
    )
    for baseline, csv in ((react, "same.csv"), (shuffled, "shuffled.csv")):
        assert main(["eval", "--runs", str(echo), "--baseline", str(baseline),
                     "--out", str(tmp_path / csv)]) == 0
    assert (tmp_path / "same.csv").read_bytes() == (tmp_path / "shuffled.csv").read_bytes()


def test_run_unknown_backend_or_strategy(tmp_path, capsys):
    envs = _gen(tmp_path)
    code = main(
        ["run", "--envs", str(envs), "--backend", "scripted:bogus", "--out", str(tmp_path / "r")]
    )
    assert code == 1
    with pytest.raises(SystemExit):
        main(["run", "--envs", str(envs), "--strategy", "bogus", "--out", str(tmp_path / "r2")])


def test_run_requires_envs_or_resume(tmp_path, capsys):
    assert main(["run", "--out", str(tmp_path / "r")]) == 1
    assert "--envs" in capsys.readouterr().err


def test_validate_bfs_backed_run_is_100_percent(tmp_path, capsys):
    envs = _gen(tmp_path)
    run = _run(tmp_path, envs, "echo", "--strategy", "echo", "--backend", "scripted:bfs-demo")
    assert main(["validate", "--run", str(run), "--samples", "40"]) == 0
    out = capsys.readouterr().out
    assert "(100%)" in out


def test_bfs_demo_plans_a_tour_only_when_an_episode_needs_it(tmp_path, capsys, monkeypatch):
    """run plans one sighting tour per env; validate follows stored workflows
    and plans none."""
    from echogrid import oracle

    tours = []

    def counted(world):
        tours.append(world.seed)
        return real(world)

    real = oracle.sighting_tour
    monkeypatch.setattr(oracle, "sighting_tour", counted)
    envs = tmp_path / "envs"
    assert main(["gen", "--count", "2", "--out", str(envs)]) == 0
    run = _run(tmp_path, envs, "echo", "--strategy", "echo", "--backend", "scripted:bfs-demo")
    assert sorted(tours) == [0, 1]
    assert main(["validate", "--run", str(run)]) == 0
    assert "(100%)" in capsys.readouterr().out
    assert sorted(tours) == [0, 1]


def test_validate_empty_memory_reports_nothing(tmp_path, capsys):
    envs = _gen(tmp_path)
    run = _run(tmp_path, envs, "react")
    assert main(["validate", "--run", str(run)]) == 0
    assert "nothing to validate" in capsys.readouterr().err


def _last_line_memory(memory):
    def edit(lines):
        doc = json.loads(lines[-1])
        doc["memory"] = memory
        lines[-1] = json.dumps(doc)

    return edit


@pytest.mark.parametrize(
    "edit, where",
    [
        pytest.param(lambda lines: lines.__setitem__(-1, lines[-1][:40]), ":12: ", id="truncated"),
        pytest.param(lambda lines: lines.append("garbage"), ":13: ", id="garbage"),
        pytest.param(lambda lines: lines.append("[1, 2]"), ":13: ", id="not_an_object"),
        pytest.param(
            lambda lines: lines.append(
                '{"env_seed": 7, "episode_index": 0, "memory": {"kind": "none"}}'
            ),
            ":13: ",
            id="unknown_env_seed",
        ),
        pytest.param(
            lambda lines: lines.insert(
                0, '{"env_seed": 0, "episode_index": "0", "memory": {"kind": "none"}}'
            ),
            ":1: ",
            id="str_episode_index",
        ),
        pytest.param(
            _last_line_memory({"kind": "replay_buffer", "entries": [["Pick up the red key"]]}),
            ":12: ",
            id="one_element_entry",
        ),
        pytest.param(_last_line_memory({"kind": "notes"}), ":12: ", id="unknown_kind"),
        pytest.param(
            _last_line_memory({"kind": "workflow_log", "entries": []}),
            ":12: ",
            id="another_strategys_kind",
        ),
        pytest.param(_last_line_memory({"kind": "none"}), ":12: ", id="no_memory_kind"),
        pytest.param(_last_line_memory([]), ":12: ", id="memory_not_an_object"),
        pytest.param(None, ": No such file", id="missing"),
        pytest.param(lambda lines: lines.__delitem__(slice(-5, None)), ":8: ", id="cut"),
        pytest.param(lambda lines: lines.append(lines.pop(0)), ":1: ", id="first_moved_to_end"),
    ],
)
def test_validate_rejects_a_bad_memory_log(tmp_path, capsys, edit, where):
    """validate exits 1 naming memory.jsonl and the line at fault, never with a traceback."""
    envs = _gen(tmp_path)
    run = _run(tmp_path, envs, "echo", "--strategy", "echo", "--backend", "scripted:bfs-demo")
    log = run / "memory.jsonl"
    if edit is None:
        log.unlink()
        (run / "memory" / "0").mkdir(parents=True)
        (run / "memory" / "0" / "0.json").write_text('{"kind":"none"}\n')
    else:
        lines = log.read_text().splitlines()
        assert len(lines) == 12
        edit(lines)
        log.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["validate", "--run", str(run)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {log}{where}")
    assert "Traceback" not in err


def test_validate_samples_zero_usage_error(tmp_path, capsys):
    envs = _gen(tmp_path)
    run = _run(tmp_path, envs, "react")
    assert main(["validate", "--run", str(run), "--samples", "0"]) == 1


def test_replay_shows_final_pickup(tmp_path, capsys):
    envs = _gen(tmp_path)
    run = _run(tmp_path, envs, "oracle", "--backend", "scripted:oracle")
    assert main(["replay", "--trajectory", str(run / "trajectories.jsonl")]) == 0
    out = capsys.readouterr().out
    assert "outcome: SUCCESS" in out
    assert "(pick up)" in out


def test_replay_step_out_of_range(tmp_path, capsys):
    path = tmp_path / "t.jsonl"
    path.write_text(serialize(Trajectory(goal=Goal("grey", "key"))) + "\n")
    assert main(["replay", "--trajectory", str(path), "--step", "5"]) == 1
    assert "out of range" in capsys.readouterr().err


def test_replay_malformed_file_line_diagnostics(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"version": 1}\nnot json\n')
    assert main(["replay", "--trajectory", str(path)]) == 1
    assert "bad.jsonl:1" in capsys.readouterr().err


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse's usage errors
        return exc.code


def test_no_bad_invocation_ends_in_a_traceback(tmp_path, capsys, monkeypatch):
    """Every bad invocation of each command exits 1 (configuration or IO) or 2
    (usage) with an error line on stderr; no exception leaves main."""
    for var in ("LM_API_KEY", "LM_BASE_URL", "LM_MODEL"):
        monkeypatch.delenv(var, raising=False)
    envs = _gen(tmp_path)
    run = _run(tmp_path, envs, "echo", "--strategy", "echo", "--backend", "scripted:bfs-demo")
    afile = tmp_path / "afile"
    afile.write_text("not a directory\n")
    adir = tmp_path / "adir"
    adir.mkdir()
    fresh = str(tmp_path / "fresh")
    bad = {}  # a copy of run whose config.json holds one value a run cannot use
    for field, value in (("horizon", 0), ("episodes_per_env", 0), ("strategy", "zen")):
        bad[field] = tmp_path / f"bad-{field}"
        bad[field].mkdir()
        for name in ("memory.jsonl", "metrics.csv", "trajectories.jsonl"):
            (bad[field] / name).write_bytes((run / name).read_bytes())
        config = json.loads((run / "config.json").read_text())
        config[field] = value
        (bad[field] / "config.json").write_text(json.dumps(config) + "\n")
    cases = [
        (["gen", "--count", "2", "--out", f"{afile}/sub"], 1),
        (["gen", "--count", "2", "--out", str(afile)], 1),
        (["gen", "--count", "0", "--out", fresh], 1),
        (["gen", "--count", "2"], 2),
        (["run", "--envs", str(envs), "--out", f"{afile}/sub"], 1),
        (["run", "--envs", str(envs), "--out", str(afile)], 1),
        (["run", "--envs", str(afile), "--out", fresh], 1),
        (["run", "--envs", str(envs), "--backend", "nope", "--out", fresh], 1),
        (["run", "--envs", str(envs), "--backend", "live", "--out", fresh], 1),
        (["run", "--resume-config", str(afile), "--out", fresh], 1),
        (["run", "--envs", str(envs), "--episodes", "x", "--out", fresh], 2),
        (["run", "--envs", str(envs), "--episodes", "0", "--out", fresh], 1),
        (["run", "--envs", str(envs), "--workers", "0", "--out", fresh], 1),
        (["run", "--envs", str(envs), "--workers", "-3", "--out", fresh], 1),
        (["run", "--envs", str(envs), "--backend", "live", "--horizon", "0", "--out", fresh], 1),
        (["run", "--resume-config", str(bad["horizon"] / "config.json"), "--out", fresh], 1),
        (["eval", "--runs", str(run), "--baseline", str(run), "--out", f"{afile}/x.csv"], 1),
        (["eval", "--runs", str(afile), "--baseline", str(run), "--out", f"{fresh}.csv"], 1),
        (
            ["eval", "--runs", str(run), "--baseline", str(run), "--out", f"{fresh}.csv",
             "--plot", f"{afile}/curves.svg"],
            1,
        ),
        (
            ["eval", "--runs", str(run), "--baseline", str(run), "--out", f"{fresh}.csv",
             "--plot", str(adir)],
            1,
        ),
        (["eval", "--runs", str(bad["horizon"]), "--baseline", str(run), "--out", f"{fresh}.csv"], 1),
        (
            ["eval", "--runs", str(run), str(run), "--baseline", str(run), "--out", f"{fresh}.csv",
             "--plot", f"{fresh}/curves.svg"],
            1,
        ),
        (["validate", "--run", str(run), "--backend", "nope"], 1),
        (["validate", "--run", str(run), "--backend", "live"], 1),
        (["validate", "--run", str(afile)], 1),
        (["validate", "--run", fresh], 1),
        (["validate"], 2),
        *((["validate", "--run", str(path)], 1) for path in bad.values()),
        (["replay", "--trajectory", str(afile)], 1),
        (["replay", "--trajectory", str(run)], 1),
        (["replay", "--trajectory", str(run / "trajectories.jsonl"), "--index", "99"], 1),
        (["replay", "--trajectory", str(run / "trajectories.jsonl"), "--step", "x"], 2),
        (["bogus"], 2),
    ]
    capsys.readouterr()
    for argv, code in cases:
        assert _exit_code(argv) == code, argv
        err = capsys.readouterr().err
        assert (err.startswith("error: ") if code == 1 else "error: " in err), (argv, err)
        assert "Traceback" not in err
        assert not Path(fresh).exists() and not Path(f"{fresh}.csv").exists(), argv
