"""Benchmark of the mtharness CLI on seeded workloads.

    python3 benchmarks/run.py --workload score-guarded --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from the root of a checkout. Inputs are generated from ``--seed``
(see generate.py); the program receives only the generated files. Each
CLI invocation is a child process started from this one process and
waited for before the next starts: a closed loop with one client. Each
workload invocation follows one that does no work (``signature``), so
set-up time is sampled under the same conditions as the workload.

With ``--trace 0`` the loop runs for ``--seconds`` and reports the
end-to-end metrics, as medians over the invocations. With ``--trace 1``
it instead alternates untraced invocations with traced in-process passes
(layers.py) and reports the per-layer metrics. Every invocation's output
is checked; a failed check counts toward ``error_rate`` and makes the
command exit 1. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. The full result, stamped with
the revision, Python and numpy versions, nproc, seed and workload hash,
goes to ``benchmarks/.work/results/``, and spans beside it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"
LAUNCH = "import sys; from mtharness.cli import main; sys.exit(main())"
INVOCATION_TIMEOUT_S = 120

if not (SRC / "mtharness" / "cli.py").is_file():
    sys.exit(f"run.py: no mtharness sources under {SRC}; run it from the root of a full checkout")
sys.path.insert(0, str(SRC))

import numpy  # noqa: E402
from layers import PER_LAYER, TracedPasses  # noqa: E402
from workloads import SETUP_ARGS, WORKLOADS, check_outputs, cli_args, expected_outputs, rows_digest  # noqa: E402

# name -> unit; all are measured with tracing off
END_TO_END = {
    "wall_s": "s",
    "segments_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


@dataclass(frozen=True)
class Invocation:
    status: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def invoke(args: list[str], env: dict[str, str], work: Path) -> Invocation:
    """Run ``mtharness ARGS`` as a child and take its usage from wait4.

    wait4 reports the child's own peak RSS and CPU together with those
    of the processes it waited for (external scorers), and nothing of
    earlier invocations, unlike RUSAGE_CHILDREN.
    """
    out_path, err_path = work / "stdout.txt", work / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", LAUNCH, *args], stdout=out, stderr=err, env=env)
        reaped = False
        pidfd = os.pidfd_open(proc.pid)
        try:
            if not select.select([pidfd], [], [], INVOCATION_TIMEOUT_S)[0]:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            reaped = True
        finally:
            os.close(pidfd)
            if not reaped:
                proc.kill()
                proc.wait()
        wall_s = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(
        proc.returncode,
        wall_s,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024,
        out_path.read_text(encoding="utf-8", errors="replace"),
        err_path.read_text(encoding="utf-8", errors="replace"),
    )


class Ledger:
    """Operations attempted and failed, and why they failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)


class WorkloadRun:
    """Invokes one workload's CLI command and checks every output."""

    def __init__(self, workload, inputs, env: dict[str, str], work: Path) -> None:
        self.workload = workload
        self.inputs = inputs
        self.env = env
        self.work = work
        self.out_dir = work / "out"
        self.args = cli_args(workload, inputs, self.out_dir)
        self.expected = expected_outputs(workload, inputs)
        self.ledger = Ledger()
        self.digest: str | None = None

    def setup(self) -> Invocation:
        inv = invoke(SETUP_ARGS, self.env, self.work)
        problems = [] if inv.status == 0 else [f"exit status {inv.status}: {inv.stderr.strip()}"]
        if inv.status == 0 and not inv.stdout.rstrip("\n").endswith("|x"):
            problems.append(f"unexpected signature {inv.stdout!r}")
        self.ledger.record("signature", problems)
        return inv

    def run(self) -> Invocation:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.out_dir.mkdir(parents=True)
        inv = invoke(self.args, self.env, self.work)
        if inv.status != 0:
            self.ledger.record(self.workload.name, [f"exit status {inv.status}: {inv.stderr.strip()[-500:]}"])
            return inv
        digest, problems = check_outputs(self.workload, self.inputs, self.out_dir, self.expected)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            problems.append("output rows differ from the first run's")
        self.ledger.record(self.workload.name, problems)
        return inv


def _out_of_time(started: float, deadline: float) -> bool:
    """Whether another iteration as long as the one begun at ``started`` would overrun."""
    now = time.perf_counter()
    return now + (now - started) > deadline


def measure_end_to_end(run: WorkloadRun, seconds: float) -> tuple[dict[str, float], dict[str, list[float]]]:
    """End-to-end metrics, and the per-invocation samples they are medians of."""
    samples: dict[str, list[float]] = {"wall_s": [], "cpu_s": [], "peak_rss_mb": [], "setup_s": []}
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        samples["setup_s"].append(run.setup().wall_s)
        inv = run.run()
        samples["wall_s"].append(inv.wall_s)
        samples["cpu_s"].append(inv.cpu_s)
        samples["peak_rss_mb"].append(inv.peak_rss_mb)
        if _out_of_time(started, deadline):
            break
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    metrics["segments_per_s"] = run.inputs.n / metrics["wall_s"]
    return metrics, samples


def measure_traced(run: WorkloadRun, seconds: float, spans_path: Path) -> tuple[dict[str, float], dict[str, list[float]]]:
    passes = TracedPasses(run.workload, run.inputs, run.work, run.env)
    walls = []
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        walls.append(run.run().wall_s)
        rows = passes.run_pass()
        if run.workload.name == "meta-compare":
            same = rows == [f"{key}\t{value}" for key, value in run.expected.items()]
        else:
            same = rows_digest(rows) == run.digest
        run.ledger.record("traced pass", [] if same else ["in-process output differs from the CLI's"])
        if _out_of_time(started, deadline):
            break
    passes.tracer.write(spans_path)
    return passes.metrics(statistics.median(walls)), {"wall_s": walls}


def _git_revision() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _tree_sha256(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def stamps(seed: int, inputs) -> dict:
    return {
        "git_revision": _git_revision(),
        "src_sha256": _tree_sha256(SRC / "mtharness"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "workload_sha256": inputs.sha256,
        "segments": inputs.n,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, env: dict[str, str]) -> dict:
    workload = WORKLOADS[name]
    work = WORK / name
    inputs = workload.generate(work, seed)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    run = WorkloadRun(workload, inputs, env, work)
    if trace:
        values, samples = measure_traced(run, seconds, results / f"{stem}.spans.jsonl")
        units = PER_LAYER
    else:
        values, samples = measure_end_to_end(run, seconds)
        units = END_TO_END
    ledger = run.ledger
    result = {
        "workload": name,
        "trace": int(trace),
        "stamps": stamps(seed, inputs),
        "output_sha256": run.digest,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "error_rate": ledger.failed / ledger.attempted,
        "problems": ledger.problems,
        "metrics": {metric: {"value": values[metric], "unit": unit} for metric, unit in units.items()},
        "samples": samples,
    }
    (results / f"{stem}.json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    for metric, entry in result["metrics"].items():
        print(f"{name:<17} {metric:<30} {entry['value']:>14.6g} {entry['unit']}")
    print(f"{name:<17} {'error_rate':<30} {result['error_rate']:>14.6g} ({ledger.failed} of {ledger.attempted} failed)")
    for problem in ledger.problems[:20]:
        print(f"{name:<17} FAILED {problem}")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long to measure each workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    results = [run_workload(name, args.seed, args.seconds, bool(args.trace), env) for name in names]
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{m}": entry for r in results for m, entry in r["metrics"].items()}
    summary = {
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
