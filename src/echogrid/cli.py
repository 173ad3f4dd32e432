"""Command-line entry point: gen, run, eval, validate, replay.

Machine-readable output goes to files or stdout as CSV/JSONL; human chatter
goes to stderr. Exit code 0 covers completed runs even when episodes failed
(failures are data); nonzero is reserved for configuration and IO errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from functools import cache
from pathlib import Path

from . import harness
from .episode import read_trajectories
from .harness import SEED_LIST, RunConfig, distinct_seeds, load_validity_pools, read_run_dir
from .lm import BackendError, CredentialsError, LiveBackend
from .strategies import STRATEGIES
from .textview import render_goal
from .world import (
    ACTION_NAMES,
    ascii_map,
    canonical_json,
    decode,
    generate,
    to_json,
)

INDEX_FILE = "index.json"


class CliError(Exception):
    """Configuration or IO error; maps to exit code 1."""


@dataclass(frozen=True)
class EnvsIndex:
    """index.json of a gen output dir: its world seeds."""

    seeds: tuple[int, ...]


@cache  # built once: parse_args leaves a parser as it found it
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="echogrid",
        description="Stateful gridworld benchmark and hindsight-memory strategies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate world snapshots")
    seeds = p_gen.add_mutually_exclusive_group()
    seeds.add_argument("--seeds", type=int, nargs="+", help="explicit generation seeds")
    seeds.add_argument("--count", type=int, help="number of seeds from --base-seed")
    p_gen.add_argument("--base-seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--force", action="store_true", help="overwrite a non-empty out dir")
    p_gen.add_argument("--verbose", action="store_true", help="print ASCII maps to stderr")

    p_run = sub.add_parser("run", help="run one strategy over env streams")
    p_run.add_argument("--envs", help="directory produced by gen")
    p_run.add_argument("--strategy", choices=sorted(STRATEGIES), default="react")
    p_run.add_argument("--backend", default="scripted:turn-left")
    p_run.add_argument("--episodes", type=int, default=16)
    p_run.add_argument("--horizon", type=int, default=64)
    p_run.add_argument("--goal-seed", type=int, default=0)
    p_run.add_argument("--workers", type=int, default=None)
    p_run.add_argument("--resume-config", help="rerun from a persisted config.json")
    p_run.add_argument("--out", required=True)

    p_eval = sub.add_parser("eval", help="compare runs against a baseline run")
    p_eval.add_argument("--runs", nargs="+", required=True)
    p_eval.add_argument("--baseline", required=True)
    p_eval.add_argument("--out", required=True, help="merged metrics CSV")
    p_eval.add_argument("--plot", help="SVG gain-curve output path")

    p_val = sub.add_parser("validate", help="check stored workflows against the world")
    p_val.add_argument("--run", required=True)
    p_val.add_argument("--samples", type=int, default=40)
    p_val.add_argument("--backend", default=None, help="defaults to the run's backend")
    p_val.add_argument("--sample-seed", type=int, default=0)

    p_replay = sub.add_parser("replay", help="pretty-print a logged trajectory")
    p_replay.add_argument("--trajectory", required=True)
    p_replay.add_argument("--step", type=int, default=None)
    p_replay.add_argument("--index", type=int, default=0, help="episode record to show")
    return parser


def cmd_gen(args) -> int:
    if args.count is not None:
        if args.count <= 0:
            raise CliError("--count must be >= 1")
        seeds = list(range(args.base_seed, args.base_seed + args.count))
    elif args.seeds:
        seeds = list(args.seeds)
        if not distinct_seeds(seeds):
            raise CliError(f"--seeds needs {SEED_LIST}")
    else:
        raise CliError("provide --seeds or --count")
    out = Path(args.out)
    if out.exists() and any(out.iterdir()) and not args.force:
        raise CliError(f"output dir {out} is not empty (use --force)")
    out.mkdir(parents=True, exist_ok=True)
    for seed in seeds:
        world = generate(seed)
        (out / f"world_{seed}.json").write_text(to_json(world) + "\n", encoding="utf-8")
        if args.verbose:
            print(f"seed {seed}:\n{ascii_map(world)}\n", file=sys.stderr)
    (out / INDEX_FILE).write_text(canonical_json(EnvsIndex(tuple(seeds))) + "\n", encoding="utf-8")
    print(f"wrote {len(seeds)} world snapshots to {out}", file=sys.stderr)
    return 0


def _read_index(envs_dir: str) -> EnvsIndex:
    """index.json of a gen output dir, with its seeds checked."""
    index_path = Path(envs_dir) / INDEX_FILE
    if not index_path.is_file():
        raise CliError(f"{envs_dir} has no {INDEX_FILE}; run gen first")
    try:
        index = decode(EnvsIndex, json.loads(index_path.read_text(encoding="utf-8")), "index")
    except ValueError as exc:
        raise CliError(f"{index_path}: {exc}") from None
    if not distinct_seeds(index.seeds):
        raise CliError(f"{index_path} needs \"seeds\": {SEED_LIST}")
    return index


def _check_envs_current(envs_dir: str, config: RunConfig) -> None:
    """Fail unless the envs dir holds what generate builds for this config now,
    so a generator change between gen and run cannot go unnoticed."""
    for seed in config.env_seeds:
        path = Path(envs_dir) / f"world_{seed}.json"
        try:
            snapshot = path.read_bytes()
        except OSError:
            raise CliError(f"{path} is missing; run gen again") from None
        if snapshot != (to_json(generate(seed)) + "\n").encode():
            raise CliError(
                f"{path} differs from the world generate builds for seed {seed}; run gen again"
            )


def _check_backend(spec: str) -> None:
    """Fail before any work unless spec names a backend make_backend builds,
    with the live configuration complete if it is live."""
    try:
        harness.check_backend(spec)
        if spec == "live":
            LiveBackend()  # checks the live configuration without any I/O
    except (BackendError, ValueError) as exc:
        raise CliError(str(exc)) from None


def cmd_run(args) -> int:
    if args.workers is not None and args.workers < 1:
        raise CliError(f"--workers must be >= 1, got {args.workers}")
    if args.resume_config:
        try:
            config = RunConfig.from_json(Path(args.resume_config).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise CliError(f"cannot load config: {exc}") from None
    else:
        if not args.envs:
            raise CliError("provide --envs (or --resume-config)")
        index = _read_index(args.envs)
        try:
            config = RunConfig(
                env_seeds=index.seeds,
                episodes_per_env=args.episodes,
                horizon=args.horizon,
                strategy=args.strategy,
                backend=args.backend,
                goal_seed=args.goal_seed,
            )
        except ValueError as exc:
            raise CliError(str(exc)) from None
        _check_envs_current(args.envs, config)
    out = Path(args.out)
    if out.exists() and (not out.is_dir() or any(out.iterdir())):
        raise CliError(f"--out {out} is not empty; old files would mix with the new run")
    ancestor = next(parent for parent in out.absolute().parents if parent.exists())
    if not ancestor.is_dir():
        raise CliError(f"--out {out}: {ancestor} is not a directory")
    _check_backend(config.backend)
    try:
        record = harness.run_stream(config, out_dir=out, workers=args.workers)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    mean_final = harness.mean_cumulative_average(record)[-1]
    print(
        f"run complete: strategy={config.strategy} envs={len(config.env_seeds)} "
        f"episodes={config.episodes_per_env} mean_cum_avg_reward={mean_final:.3f}",
        file=sys.stderr,
    )
    return 0


def cmd_eval(args) -> int:
    try:
        baseline = read_run_dir(Path(args.baseline))
        methods = [read_run_dir(Path(d)) for d in args.runs]
    except ValueError as exc:
        raise CliError(str(exc)) from None
    curves = {}
    rows = []
    base = {s.env_seed: harness.cumulative_average(s.rewards) for s in baseline.streams}
    for method in methods:
        strategy = method.config.strategy
        try:
            gain = harness.gain_over_baseline(method, baseline)
        except ValueError as exc:
            raise CliError(str(exc)) from None
        if strategy in curves:
            raise CliError(f"--runs holds two {strategy} runs; eval keys by strategy")
        curves[strategy] = gain
        for s in method.streams:
            m_series = harness.cumulative_average(s.rewards)
            rows.extend(
                f"{strategy},{s.env_seed},{episode},{goal},{reward},{m!r},{b!r},{m - b!r}"
                for episode, (goal, reward, m, b) in enumerate(
                    zip(s.goals, s.rewards, m_series, base[s.env_seed])
                )
            )
    out = Path(args.out)
    plot = Path(args.plot) if args.plot else None
    for path in (out, plot):  # both before either file, so a bad path writes neither
        if path is not None:
            if path.is_dir():
                raise CliError(f"{path} is a directory")
            path.parent.mkdir(parents=True, exist_ok=True)
    header = "strategy,env_seed,episode,goal,reward,cum_avg_reward,baseline_cum_avg,gain"
    out.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
    if plot is not None:
        plot.write_text(harness.render_gain_svg(curves), encoding="utf-8")
    print(f"wrote {len(rows)} rows to {out}", file=sys.stderr)
    return 0


def cmd_validate(args) -> int:
    if args.samples <= 0:
        raise CliError("--samples must be >= 1")
    try:
        record = read_run_dir(Path(args.run))
    except ValueError as exc:
        raise CliError(str(exc)) from None
    config = record.config
    backend_spec = args.backend or config.backend
    _check_backend(backend_spec)
    pools = load_validity_pools(record)
    if not pools:
        print("nothing to validate: the run stored no workflows", file=sys.stderr)
        return 0
    try:
        worlds = {seed: generate(seed) for seed in config.env_seeds}
        report = harness.validity_analysis(
            pools, worlds, backend_spec, args.samples, sample_seed=args.sample_seed,
            horizon=config.horizon,
        )
    except ValueError as exc:
        raise CliError(str(exc)) from None
    pct = 100.0 * report.successes / report.total
    print(f"{report.successes}/{report.total} ({pct:.0f}%) workflows reached their goal")
    for failure in report.failures:
        print(
            f"failure [{failure.classification}] env={failure.env_seed} goal={failure.goal!r}"
        )
    return 0


def cmd_replay(args) -> int:
    path = Path(args.trajectory)
    if not path.is_file():
        raise CliError(f"no such trajectory file: {path}")
    try:
        records = list(read_trajectories(path))
    except ValueError as exc:
        raise CliError(str(exc)) from None
    if not records:
        raise CliError(f"{path} contains no trajectory records")
    if not 0 <= args.index < len(records):
        raise CliError(f"--index {args.index} out of range (file has {len(records)} records)")
    traj = records[args.index]
    steps = traj.steps
    if args.step is not None:
        if not 1 <= args.step <= len(steps):
            raise CliError(f"--step {args.step} out of range (trajectory has {len(steps)} steps)")
        steps = [traj.steps[args.step - 1]]
    print(f"env_seed={traj.env_seed} episode={traj.episode_index} goal={render_goal(traj.goal)}")
    for offset, record in enumerate(steps):
        number = args.step if args.step is not None else offset + 1
        validity = "valid" if record.was_valid else "invalid"
        print(f"--- step {number} ---")
        print(f"observation: {record.observation_text}")
        print(f"thought:     {record.thought}")
        print(
            f"action:      {record.action_index} ({ACTION_NAMES[record.action_index]}) "
            f"[{validity}] reward={record.step_reward}"
        )
    outcome = "SUCCESS" if traj.success else "FAILURE"
    print(f"outcome: {outcome} (reward {traj.reward}, {len(traj.steps)} steps)")
    if traj.note:
        print(f"note: {traj.note}")
    return 0


_COMMANDS = {
    "gen": cmd_gen,
    "run": cmd_run,
    "eval": cmd_eval,
    "validate": cmd_validate,
    "replay": cmd_replay,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv if argv is not None else sys.argv[1:])
    try:
        return _COMMANDS[args.command](args)
    except (CliError, CredentialsError) as exc:  # refused credentials end run and validate
        message = str(exc)
    except OSError as exc:  # a path that cannot be read, created or written
        message = f"{exc.filename}: {exc.strerror}" if exc.filename else str(exc)
    print(f"error: {message}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
