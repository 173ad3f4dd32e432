"""echogrid benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload react-turnleft --seed 0 --seconds 25 --trace 0

Run from the root of a checkout: the program is imported from ./src. Every
op calls `echogrid.cli.main([...])` in this process, exactly as a user runs
`echogrid run` (and `echogrid validate`), into a fresh empty directory, and
its outputs are checked against sources independent of the timed path. The
ops form a closed loop: the next starts when the previous one returns.

--trace 0 prints the end-to-end metrics; --trace 1 alternates traced and
plain ops and prints the per-layer metrics, including the tracing overhead.
Human-readable lines go to stderr; the last line of stdout is the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import urllib.request
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from io import StringIO
from pathlib import Path
from typing import Optional

import spans as tracing

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"

SETUP_REPEATS = 5  # setup_s is the median of this many set-ups, each in a fresh process
HORIZON = 64
# Each 429 costs LiveBackend's fixed 1 s backoff, so timed ops see refusals
# rarely (~0.5 a run), and an op with one is left out of the time metrics.
# The untimed repeat op is refused densely (~4 times) to check that retries
# leave the outputs byte-identical.
REFUSE_ONE_IN = 8192
REPEAT_REFUSE_ONE_IN = 64
# The 2-vCPU VM the bounds were sized on drifts, over seconds to tens of
# minutes, between a quiet state and states where a neighbour slows
# pure-Python work 1.3-1.8x. So the time metrics of the single-threaded
# workloads are scaled to a reference speed: a fixed piece of pure-Python
# work shaped like the program's hot path (_probe) is timed between ops, and
# each op's wall time is multiplied by PROBE_REF_S / (the mean of the probes
# just before and after it). The probe runs none of the program's code, so
# a change to the program moves the scaled time as it moves the wall time.
PROBE_REF_S = 0.003
MIRROR = "lm_calls.jsonl"  # appended to across runs (ROADMAP item 1), so never digested


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    strategy: str
    backend: str
    episodes: int
    envs_per_op: int
    workers: int
    env_groups: int  # distinct world sets generated at set-up; op i uses group i mod this
    validate: bool = False

    @property
    def scaled(self) -> bool:
        """Whether the time metrics are scaled to the reference speed. The probe
        times the thread that runs it. A scripted op runs on that one thread. A
        live op spreads over two worker threads, the stub's process and the
        stub's fixed delays, and scaling it by the probe made its spread
        between runs wider on the 2-vCPU VM, not narrower."""
        return self.backend != "live"


WORKLOADS = {
    w.name: w
    for w in (
        # Every episode fails after the full horizon: the per-step path dominates.
        Workload("react-turnleft", "react", "scripted:turn-left", 16, 1, 1, 256),
        # The paper's method: short learned episodes, offline calls and BFS plans,
        # then reading the run dir back for validation.
        Workload("echo-bfsdemo", "echo", "scripted:bfs-demo", 16, 1, 1, 256, validate=True),
        # The only workload on lm.LiveBackend: HTTP to a loopback stub, the mirror,
        # retries, and the harness thread pool.
        Workload("live-loopback", "reflexion", "live", 2, 2, 2, 64),
    )
}


@dataclass
class OpResult:
    seconds: float
    steps: int
    episodes: int
    calls: int
    prompt_chars: int
    digest: str
    extra: dict = field(default_factory=dict)
    probe: float = 0.0  # mean of the probes just before and after the op
    spans: Optional[list] = None  # traced ops only, until folded into layers
    layers: object = None  # spans.LayerStats of a traced op


class CheckFailed(Exception):
    pass


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _cli(cli, argv: list[str]) -> tuple[int, str]:
    out = StringIO()
    with redirect_stdout(out), redirect_stderr(StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def run_dir_digest(path: Path) -> str:
    h = hashlib.sha256()
    for file in sorted(p for p in path.rglob("*") if p.is_file() and p.name != MIRROR):
        h.update(str(file.relative_to(path)).encode() + b"\0")
        h.update(hashlib.sha256(file.read_bytes()).digest())
    return h.hexdigest()


def _read_trajectories(out: Path) -> list[dict]:
    with open(out / "trajectories.jsonl", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


class Bench:
    def __init__(self, workload: Workload, seed: int, work: Path):
        self.w = workload
        self.seed = seed
        self.work = work
        rng = random.Random(f"perfbench/{workload.name}/{seed}/worlds")
        count = (workload.env_groups + 1) * workload.envs_per_op
        seeds = rng.sample(range(2**31), count)
        n = workload.envs_per_op
        self.groups = [seeds[i : i + n] for i in range(0, count, n)]  # last one: warm-up
        self.warmup_goal_seed = self.goal_seed("warm-up")
        self.stub: Optional[subprocess.Popen] = None
        self.stub_url = ""
        self.captured: list = []

    def goal_seed(self, op) -> int:
        return random.Random(f"perfbench/{self.w.name}/{self.seed}/goals/{op}").randrange(2**31)

    # -- set-up ---------------------------------------------------------------

    def gen(self, cli, envs_root: Path) -> None:
        for j, group in enumerate(self.groups):
            rc, _ = _cli(cli, ["gen", "--seeds", *map(str, group), "--out", str(envs_root / f"g{j}")])
            if rc != 0:
                raise CheckFailed(f"gen exited {rc} for seeds {group}")
        self.envs_root = envs_root

    def start_stub(self) -> None:
        self.stub = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py"), "--src", str(SRC)],
            stdout=subprocess.PIPE, text=True,
        )
        line = self.stub.stdout.readline()
        match = re.fullmatch(r"port (\d+)\n", line)
        if match is None:
            raise CheckFailed(f"stub did not report its port: {line!r}")
        self.stub_url = f"http://127.0.0.1:{match.group(1)}"
        deadline = time.monotonic() + 30
        while True:
            try:
                self.stub_stats()
                break
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.01)
        os.environ.update(
            LM_BASE_URL=f"{self.stub_url}/v1", LM_API_KEY="perfbench", LM_MODEL="turn-left"
        )

    def stop_stub(self) -> None:
        if self.stub is None:
            return
        self.stub.terminate()
        try:
            self.stub.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.stub.kill()
            self.stub.wait()
        self.stub.stdout.close()
        self.stub = None

    def stub_stats(self) -> dict:
        with urllib.request.urlopen(f"{self.stub_url}/stats", timeout=10) as resp:
            return json.loads(resp.read())

    def stub_reset(self, refuse_one_in: int) -> None:
        body = json.dumps({"refuse_one_in": refuse_one_in}).encode()
        req = urllib.request.Request(f"{self.stub_url}/reset", data=body, method="POST")
        with urllib.request.urlopen(req, timeout=10) as resp:
            resp.read()

    def install_capture(self, harness) -> None:
        """Keep each backend the harness builds, to read the scripted backends'
        own request logs after the op. Costs one call per backend built."""
        real = harness.make_backend

        def capturing(*args, **kwargs):
            backend = real(*args, **kwargs)
            self.captured.append(backend)
            return backend

        harness.make_backend = capturing

    # -- one op ---------------------------------------------------------------

    def op(
        self, cli, group: int, goal_seed: int, out: Path, tracer=None, refuse_one_in=REFUSE_ONE_IN
    ) -> OpResult:
        w = self.w
        if w.backend == "live":
            self.stub_reset(refuse_one_in)
        self.captured.clear()
        run_argv = [
            "run", "--envs", str(self.envs_root / f"g{group}"), "--strategy", w.strategy,
            "--backend", w.backend, "--episodes", str(w.episodes), "--workers", str(w.workers),
            "--goal-seed", str(goal_seed), "--out", str(out),
        ]
        validated = ""
        op_start = tracer.begin_op() if tracer else 0
        start = time.perf_counter()
        try:
            rc, _ = _cli(cli, run_argv)
            if rc == 0 and w.validate:
                rc, validated = _cli(cli, ["validate", "--run", str(out), "--samples", "40"])
        finally:
            seconds = time.perf_counter() - start
            spans = tracer.end_op(op_start) if tracer else None
        _require(rc == 0, f"echogrid exited {rc}")
        result = self.check(out, seconds, validated)
        result.spans = spans
        return result

    def check(self, out: Path, seconds: float, validated: str) -> OpResult:
        w = self.w
        trajs = _read_trajectories(out)
        episodes = w.episodes * w.envs_per_op
        _require(len(trajs) == episodes, f"{len(trajs)} trajectories, expected {episodes}")
        steps = sum(len(t["steps"]) for t in trajs)
        with open(out / "metrics.csv", encoding="utf-8") as fh:
            rows = [line.rstrip("\n").split(",") for line in fh][1:]
        _require(
            [(int(r[3]), int(r[4])) for r in rows] == [(t["reward"], len(t["steps"])) for t in trajs],
            "metrics.csv disagrees with trajectories.jsonl",
        )
        calls, prompt_chars, extra = 0, 0, {}
        if w.backend in ("scripted:turn-left", "live"):
            _require(
                all(t["reward"] == 0 and not t["success"] and len(t["steps"]) == HORIZON for t in trajs),
                "a turn-left episode did not fail after the full horizon",
            )
            _require(
                all(s["action_index"] == 0 for t in trajs for s in t["steps"]), "a step was not turn left"
            )
        if w.validate:
            match = re.match(r"(\d+)/(\d+) ", validated)
            _require(match is not None, f"validate printed {validated!r}")
            ok, total = int(match.group(1)), int(match.group(2))
            _require(ok == total > 0, f"validate: {ok}/{total} workflows reached their goal")
            episodes += total
        if w.backend == "live":
            stats = self.stub_stats()
            answered, requests = stats["answered"], stats["requests"]
            _require(set(requests) <= {"agent", "reflect"}, f"unexpected roles {sorted(requests)}")
            _require(answered.get("agent", 0) == steps, f"stub answered {answered} for {steps} steps")
            _require(answered.get("reflect", 0) == len(trajs), f"stub answered {answered} reflects")
            _require(
                sum(requests.values()) == sum(answered.values()) + stats["refused"],
                "stub requests != answered + refused",
            )
            calls, prompt_chars = sum(answered.values()), stats["prompt_chars"]
            extra = {
                "stub_requests": sum(requests.values()),
                "stub_connections": stats["connections"],
                "stub_body_bytes": stats["body_bytes"],
                "stub_handle_s": stats["handle_s"],
                "stub_offline_answered": answered.get("reflect", 0),
                "stub_refused": stats["refused"],
                "mirror_bytes": (out / MIRROR).stat().st_size,
            }
        else:
            for backend in self.captured:
                calls += len(backend.requests)
                for req in backend.requests:
                    prompt_chars += len(req.system_prompt) + sum(len(m["content"]) for m in req.messages)
        extra["bytes_written"] = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        self.captured.clear()
        return OpResult(seconds, steps, episodes, calls, prompt_chars, run_dir_digest(out), extra)


# ---------------------------------------------------------------------------
# Measuring
# ---------------------------------------------------------------------------


class _Cell:
    __slots__ = ("x", "y", "kind")

    def __init__(self, x, y, kind):
        self.x, self.y, self.kind = x, y, kind


_PROBE_PAIR = re.compile(r"(\w+)=(\d+)")


def _probe() -> float:
    """Seconds for a fixed piece of pure-Python work shaped like the program's
    hot path (small objects, dict lookups, a rendered grid, f-strings, JSON,
    a regex, a sort): how fast the machine runs such code right now."""
    start = time.perf_counter()
    for r in range(6):
        cells = [_Cell(x, y, (x * 7 + y * 3 + r) % 5) for y in range(16) for x in range(16)]
        index = {(c.x, c.y): c for c in cells}
        grid = "\n".join("".join(".#@+~"[index[(x, y)].kind] for x in range(16)) for y in range(16))
        keys = " ".join(f"k{i}={i * r}" for i in range(20))
        message = {"role": "user", "content": f"Step {r}: you see\n{grid}\n{keys}"}
        back = json.loads(json.dumps({"messages": [message] * 4, "step": r}))
        sum(int(v) for _k, v in _PROBE_PAIR.findall(back["messages"][0]["content"]))
        sorted(cells, key=lambda c: (c.kind, c.y, c.x))
    return time.perf_counter() - start


def _probe_median() -> float:
    """A steadier probe, for scaling one long interval such as a set-up."""
    return statistics.median(_probe() for _ in range(5))


def set_up(bench: Bench, cli) -> str:
    """One full set-up after the imports: the stub (live-loopback only), every
    world set, and one warm-up op. Returns the warm-up op's run-dir digest."""
    if bench.w.backend == "live":
        bench.start_stub()
    bench.gen(cli, bench.work / "envs")
    return bench.op(cli, len(bench.groups) - 1, bench.warmup_goal_seed, bench.work / "warmup").digest


def timed_set_up(bench: Bench, work: Path) -> tuple[float, str]:
    """Seconds from starting a fresh interpreter on this script until its
    set-up is done (imports included), scaled to the reference speed if the
    workload is, and its warm-up digest. A fresh process shares no in-process state with
    earlier set-ups."""
    probe = _probe_median()
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--workload", bench.w.name,
         "--seed", str(bench.seed), "--seconds", "0", "--set-up-only", str(work)],
        stdout=subprocess.PIPE, text=True,
    )
    line = child.stdout.readline()
    seconds = time.perf_counter() - start
    child.stdout.close()
    rc = child.wait()
    match = re.fullmatch(r"ready ([0-9a-f]{64})\n", line)
    if rc != 0 or match is None:
        raise CheckFailed(f"set-up process exited {rc} after printing {line!r}")
    if bench.w.scaled:
        seconds *= PROBE_REF_S / ((probe + _probe_median()) / 2)
    return seconds, match.group(1)


def measure(bench: Bench, cli, harness, seconds: float, trace: bool) -> dict:
    w = bench.w
    setups, digests = [], []
    if not trace:  # the traced run reports no setup_s
        for rep in range(SETUP_REPEATS):
            took, digest = timed_set_up(bench, bench.work / f"setup{rep}")
            setups.append(took)
            digests.append(digest)
    digests.append(set_up(bench, cli))
    determinism_ok = len(set(digests)) == 1
    print(f"[{w.name}] seed {bench.seed} run-dir digest (warm-up op): {digests[0]}", file=sys.stderr)

    tracer = None
    first_spans: list = []
    if trace:
        tracer = tracing.Tracer()
    elif w.backend != "live":
        bench.install_capture(harness)

    results: list[OpResult] = []
    traced_results: list[OpResult] = []
    probe_before = _probe()
    attempted = failed = 0
    first_digest = None
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        out = bench.work / f"op{i}"
        traced = trace and i % 2 == 0
        if traced:
            tracing.install_echogrid(tracer)
        attempted += 1
        try:
            result = bench.op(cli, i % w.env_groups, bench.goal_seed(i), out, tracer if traced else None)
        except Exception:
            failed += 1
            print(f"[{w.name}] op {i} failed:\n{traceback.format_exc()}", file=sys.stderr)
            result = None
        finally:
            if traced:
                tracer.uninstall()
        probe_after = _probe()
        if result is not None:
            result.probe = (probe_before + probe_after) / 2
            if i == 0:
                first_digest = result.digest
            if traced:
                result.layers = tracing.LayerStats()
                result.layers.add_op(result.spans, result.extra)
                first_spans = first_spans or result.spans
                result.spans = None
                traced_results.append(result)
            else:
                results.append(result)
        shutil.rmtree(out, ignore_errors=True)
        probe_before = probe_after
        i += 1

    # A second op on the first timed op's inputs must write the same bytes.
    if first_digest is not None:
        try:
            again = bench.op(
                cli, 0, bench.goal_seed(0), bench.work / "again", refuse_one_in=REPEAT_REFUSE_ONE_IN
            )
            determinism_ok = determinism_ok and again.digest == first_digest
            if w.backend == "live":
                print(f"[{w.name}] repeat op: {again.extra['stub_refused']} requests refused "
                      f"and retried; digest {'matches' if again.digest == first_digest else 'DIFFERS'}",
                      file=sys.stderr)
        except Exception:
            print(f"[{w.name}] repeat op failed:\n{traceback.format_exc()}", file=sys.stderr)
            determinism_ok = False

    report = {
        "correct": determinism_ok and failed == 0 and bool(results),
        "attempted": attempted,
        "failed": failed,
        "determinism_ok": determinism_ok,
    }
    if not results:
        return report

    def op_seconds(r: OpResult) -> float:
        return r.seconds * PROBE_REF_S / r.probe if w.scaled else r.seconds

    # An op with a 429 carries LiveBackend's fixed 1 s backoff: it would move
    # the time metrics by whole seconds, so only the count metrics use it.
    timed = [r for r in results if not r.extra.get("stub_refused")]
    times = [op_seconds(r) for r in timed]
    wall = [r.seconds for r in timed]
    report["timed"] = f"{len(timed)} of {len(results)} plain ops"
    if len(timed) < len(results):
        report["timed"] += f" ({len(results) - len(timed)} had a 429)"
    report["timed"] += (f"; unscaled wall run_s_p50 {statistics.median(wall):.5f} s, "
                        f"probe p50 {statistics.median(r.probe for r in timed) * 1e3:.3f} ms")
    # The 90th percentile is reported on stderr only: its spread between runs
    # (up to 0.35 of its median on a 2-vCPU VM) is wider than any bound
    # BENCHMARK.json may set, and a live run has too few ops to put ten beyond it.
    report["run_s_p90"] = tracing.quantile(times, 0.9)
    if trace:
        traced_timed = [r for r in traced_results if not r.extra.get("stub_refused")]
        overhead = statistics.median(op_seconds(r) for r in traced_timed) / statistics.median(times)
        layers = tracing.LayerStats()
        for r in traced_results:
            layers.merge(r.layers)
        metrics = tracing.layer_metrics(layers, w.workers, overhead)
        trace_dir = ROOT / ".perfbench" / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        span_file = trace_dir / f"{w.name}-seed{bench.seed}.jsonl"
        tracing.write_spans(span_file, first_spans)
        print(f"[{w.name}] spans of the first traced op: {span_file.relative_to(ROOT)}", file=sys.stderr)
        report["timed"] += f"; {len(traced_timed)} of {len(traced_results)} traced ops"
    else:
        episodes = sum(r.episodes for r in results)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "run_s_p50": (statistics.median(times), "s"),
            "steps_per_s": (sum(r.steps for r in timed) / sum(times), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "lm_calls_per_episode": (sum(r.calls for r in results) / episodes, "count"),
            "prompt_kchars_per_episode": (sum(r.prompt_chars for r in results) / 1e3 / episodes, "kchars"),
        }
    report["metrics"] = metrics
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="echogrid benchmark (run from a checkout root)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Used by timed_set_up: set up in DIR, print "ready <digest>", and exit.
    parser.add_argument("--set-up-only", metavar="DIR", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "echogrid" / "cli.py").is_file():
        print(f"error: {SRC}/echogrid/cli.py not found; run from the root of an echogrid checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("LM_RPM", None)  # a rate limit would measure the limiter's schedule
    from echogrid import cli, harness

    workload = WORKLOADS[args.workload]
    work = args.set_up_only or ROOT / ".perfbench" / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(workload, args.seed, work)
    try:
        if args.set_up_only:
            print(f"ready {set_up(bench, cli)}", flush=True)
            return 0
        report = measure(bench, cli, harness, args.seconds, bool(args.trace))
    finally:
        bench.stop_stub()
        shutil.rmtree(work, ignore_errors=True)

    if "metrics" not in report:
        print(f"[{workload.name}] no op completed", file=sys.stderr)
        return 1
    print(
        f"[{workload.name}] seed {args.seed}: {report['attempted']} ops attempted, "
        f"{report['failed']} failed (fail_frac {report['failed'] / report['attempted']:.3f}), "
        f"determinism {'ok' if report['determinism_ok'] else 'BROKEN'}; timed {report['timed']}",
        file=sys.stderr,
    )
    for name, (value, unit) in sorted(report["metrics"].items()):
        print(f"[{workload.name}] {name:40s} {value:14.6f} {unit}", file=sys.stderr)
    if not args.trace:
        print(f"[{workload.name}] {'run_s_p90 (not bounded)':40s} {report['run_s_p90']:14.6f} s",
              file=sys.stderr)
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in report["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
