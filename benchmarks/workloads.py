"""The benchmark workloads: their inputs, CLI arguments and output checks.

All workloads use direction en-de. Each is sized so that one CLI
invocation takes one to a few seconds on a 2-core machine, enough for
the layer it targets to dominate interpreter start-up:

- score-guarded: surrogate scoring and language ID each do about half
  the work, with no duplicate work to exploit.
- multiref-agg: each hypothesis is scored 6 times with the references
  swapped into the source slot, so work is shared inside each segment.
- external-sharded: almost all time goes to starting child processes
  and wire encoding, and almost none to scoring.
- meta-compare: metastats does all the work; the guarded table holds
  ties at 0.0, and Kendall tau memory grows as n^2.
"""

from __future__ import annotations

import hashlib
import math
import shlex
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import child_scorer
from generate import DIRECTION, Inputs, generate

CHILD_SCORER = Path(child_scorer.__file__).resolve()
SHARD_SIZE = 500
HIST_BINS = 20
SETUP_ARGS = ["signature", "--model", "x"]


@dataclass(frozen=True)
class Workload:
    name: str
    segments: int
    n_refs: int = 1
    inject: bool = False
    score_tables: bool = False

    def generate(self, workdir: Path, seed: int) -> Inputs:
        return generate(workdir, seed, self.segments, self.n_refs, self.inject, self.score_tables)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("score-guarded", segments=2000, inject=True),
        Workload("multiref-agg", segments=600, n_refs=2),
        Workload("external-sharded", segments=10000),
        Workload("meta-compare", segments=4000, inject=True, score_tables=True),
    )
}


def external_command() -> list[str]:
    return [sys.executable, str(CHILD_SCORER)]


def cli_args(workload: Workload, inputs: Inputs, out_dir: Path) -> list[str]:
    """Arguments after ``mtharness`` for one invocation of the workload."""
    f = {name: str(path) for name, path in inputs.files.items()}
    out = str(out_dir / "out.tsv")
    if workload.name == "meta-compare":
        return ["meta", f["a"], f["b"], "--hist-bins", str(HIST_BINS), "--hist-out", str(out_dir / "hist.tsv"), "--out", out]
    scoring = ["--src", f["src"], "--hyp", f["hyp"]]
    for k in range(workload.n_refs):
        scoring += ["--ref", f[f"ref{k + 1}"]]
    scoring += ["--direction", DIRECTION, "--out", out]
    if workload.name == "score-guarded":
        return ["score", *scoring, "--guard-empty", "--guard-lang"]
    if workload.name == "multiref-agg":
        return ["multiref", *scoring, "--multiref", "agg"]
    backend = "external:" + shlex.join(external_command())
    return ["score", *scoring, "--backend", backend, "--shard-size", str(SHARD_SIZE)]


# --- expected outputs ---------------------------------------------------------


def _read_lines(path: Path) -> list[str]:
    lines = path.read_text(encoding="utf-8").split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return lines


def _table_values(path: Path) -> list[float]:
    return [float(line.split("\t")[1]) for line in _read_lines(path)]


def _tau_numerator(x: list[float], y: list[float]) -> int:
    """Concordant minus discordant pairs, one row of pairs at a time (O(n) memory)."""
    xs, ys = np.asarray(x), np.asarray(y)
    total = 0
    for i in range(len(xs) - 1):
        total += int(np.sum(np.sign(xs[i + 1 :] - xs[i]) * np.sign(ys[i + 1 :] - ys[i])))
    return total


def expected_outputs(workload: Workload, inputs: Inputs) -> dict:
    """What a correct run must print, computed by the benchmark itself."""
    if workload.name == "score-guarded":
        return {"empty_guarded": len(inputs.empty)}
    if workload.name == "external-sharded":
        columns = [_read_lines(inputs.files[name]) for name in ("src", "hyp", "ref1")]
        return {"rows": [f"{i}\t{child_scorer.score(list(fields))!r}" for i, fields in enumerate(zip(*columns))]}
    if workload.name == "meta-compare":
        a, b = _table_values(inputs.files["a"]), _table_values(inputs.files["b"])
        n = len(a)
        cd = _tau_numerator(a, b)
        m = min(len(set(a)), len(set(b)))
        return {
            "n": str(n),
            "mae": repr(math.fsum(abs(p - g) for p, g in zip(a, b)) / n),
            "tau_a": repr(cd / (n * (n - 1) / 2)),
            "tau_c": repr(0.0 if m == 1 else cd * 2 * m / (n * n * (m - 1))),
        }
    return {}


# --- output checks ------------------------------------------------------------


def rows_digest(rows: list[str]) -> str:
    return hashlib.sha256("".join(row + "\n" for row in rows).encode("utf-8")).hexdigest()


def _guarded_count(trailer: list[str], block: str) -> int | None:
    """K from the ``# guarded K of N segments`` line after ``# guard <block>``."""
    try:
        line = trailer[trailer.index(f"# guard {block}") + 1]
        return int(line.split()[2])
    except (ValueError, IndexError):
        return None


def _check_score_file(path: Path, n: int, expected: dict) -> tuple[list[str], list[str]]:
    lines = _read_lines(path)
    rows = [line for line in lines if not line.startswith("#")]
    trailer = [line for line in lines if line.startswith("#")]
    problems: list[str] = []
    if len(rows) != n:
        problems.append(f"{len(rows)} score rows for {n} segments")
    try:
        scores = [float(row.split("\t")[1]) for row in rows]
        system = float(next(line for line in trailer if line.startswith("# system-score ")).split()[-1])
    except (IndexError, ValueError, StopIteration):
        return rows, problems + ["score rows or # system-score line malformed"]
    if any(row.split("\t")[0] != str(i) for i, row in enumerate(rows)):
        problems.append("score rows are not indexed 0..n-1 in order")
    if scores and system != math.fsum(scores) / len(scores):
        problems.append(f"# system-score {system!r} is not the mean of the rows")
    if "empty_guarded" in expected and _guarded_count(trailer, "empty") != expected["empty_guarded"]:
        problems.append(f"empty guard count is not the {expected['empty_guarded']} injected empty hypotheses")
    if "rows" in expected and rows != expected["rows"]:
        problems.append("score rows differ from the child scorer's own scores")
    return rows, problems


def _check_meta_files(report: Path, hist: Path, expected: dict) -> tuple[list[str], list[str]]:
    report_rows = [line for line in _read_lines(report) if not line.startswith("#")]
    hist_rows = [line for line in _read_lines(hist) if not line.startswith("#")]
    values = dict(row.split(None, 1) for row in report_rows if row.strip())
    problems = [f"{key} is {values.get(key)!r}, expected {value!r}" for key, value in expected.items() if values.get(key) != value]
    try:
        counts = [int(row.split("\t")[1]) for row in hist_rows]
    except (IndexError, ValueError):
        counts = []
    if len(counts) != HIST_BINS or str(sum(counts)) != expected["n"]:
        problems.append(f"histogram does not have {HIST_BINS} bins summing to {expected['n']}")
    return report_rows + hist_rows, problems


def check_outputs(workload: Workload, inputs: Inputs, out_dir: Path, expected: dict) -> tuple[str, list[str]]:
    """Digest of the output rows (trailers excluded) and any failed checks."""
    try:
        if workload.name == "meta-compare":
            rows, problems = _check_meta_files(out_dir / "out.tsv", out_dir / "hist.tsv", expected)
        else:
            rows, problems = _check_score_file(out_dir / "out.tsv", inputs.n, expected)
    except (OSError, UnicodeDecodeError) as exc:
        return "", [f"could not read output: {exc}"]
    return rows_digest(rows), problems
