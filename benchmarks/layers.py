"""Traced in-process passes: each calls the public functions of the
mtharness modules that the CLI would call for one workload, with a span
around every call, and turns the spans of a pass into per-layer metrics.

Layers are named after the modules in ``src/mtharness``. A metric of a
layer that a workload does not reach reads 0.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from typing import Sequence

from mtharness import metastats
from mtharness.evalset import Direction, format_score_rows, load_evalset, read_score_table
from mtharness.guards import apply_empty_guard, apply_lang_guard, bundled_profiles, is_empty_hypothesis
from mtharness.multiref import evaluate_system_multiref
from mtharness.scorer import ExternalBackend, ScoreRequest, SurrogateBackend, score_evalset

from child_scorer import SPAWN_LOG_ENV
from generate import DIRECTION, TARGET_LANG, Inputs
from spans import Tracer
from workloads import HIST_BINS, SHARD_SIZE, Workload, external_command

# name -> unit, in the order they are printed
PER_LAYER = {
    "cli.import_s": "s",
    "evalset.load_s": "s",
    "evalset.read_table_s": "s",
    "evalset.format_s": "s",
    "scorer.surrogate_s": "s",
    "scorer.requests": "count",
    "scorer.unique_request_ratio": "ratio",
    "scorer.unique_text_ratio": "ratio",
    "scorer.external_s": "s",
    "scorer.external_spawns": "count",
    "scorer.external_spawn_s": "s",
    "scorer.wire_bytes": "B",
    "guards.profiles_s": "s",
    "guards.empty_s": "s",
    "guards.lang_s": "s",
    "guards.lang_identified": "count",
    "guards.lang_guarded": "count",
    "guards.lang_unreliable": "count",
    "guards.lang_recall": "ratio",
    "guards.lang_false_positives": "count",
    "multiref.total_s": "s",
    "multiref.self_s": "s",
    "multiref.requests_per_segment": "count",
    "metastats.tau_a_s": "s",
    "metastats.tau_c_s": "s",
    "metastats.mae_s": "s",
    "metastats.hist_s": "s",
    "metastats.peak_alloc_mb": "MB",
    "trace.overhead_ratio": "ratio",
}

# spans whose summed duration per pass is the metric "<span>_s"
_TIMED_SPANS = (
    "evalset.load",
    "evalset.read_table",
    "evalset.format",
    "scorer.surrogate",
    "scorer.external",
    "guards.profiles",
    "guards.empty",
    "guards.lang",
    "multiref.total",
    "metastats.tau_a",
    "metastats.tau_c",
    "metastats.mae",
    "metastats.hist",
)
_IMPORT_PROBE = "import time; t = time.perf_counter(); import mtharness.cli; print(time.perf_counter() - t)"
PROBES = 5


class TimedBackend:
    """Timing proxy: a span around each batch, and the requests it saw."""

    def __init__(self, backend, tracer: Tracer, span_name: str) -> None:
        self.backend = backend
        self.tracer = tracer
        self.span_name = span_name
        self.requests: list[ScoreRequest] = []

    def score_batch(self, requests: Sequence[ScoreRequest]) -> list[float]:
        self.requests.extend(requests)
        with self.tracer.span(self.span_name):
            return self.backend.score_batch(requests)


class TracedPasses:
    """Runs traced passes of one workload and collects their metrics."""

    def __init__(self, workload: Workload, inputs: Inputs, work: Path, env: dict[str, str]) -> None:
        self.workload = workload
        self.inputs = inputs
        self.tracer = Tracer()
        self.spawn_log = work / "spawns.tsv"
        self.passes: list[dict[str, float]] = []
        self.fixed = self._fixed_metrics(env)

    def run_pass(self) -> list[str]:
        """One traced pass; returns its output rows for checking."""
        self.tracer.run = len(self.passes)
        self.spawn_log.unlink(missing_ok=True)
        counts: dict[str, float] = {}
        with self.tracer.span("run") as root:
            if self.workload.name == "meta-compare":
                rows = self._meta()
            else:
                rows, evalset, backend, report = self._scoring()
        if self.workload.name != "meta-compare" and not self.passes:
            counts = self._counts(evalset, backend, report)
        metrics = {f"{span}_s": self.tracer.total(span, root.run) for span in _TIMED_SPANS}
        for span in self.tracer.named("multiref.total", root.run):
            metrics["multiref.self_s"] = self.tracer.self_time(span)
        metrics["trace.total_s"] = root.duration
        metrics.update(counts)
        self.passes.append(metrics)
        return rows

    def _scoring(self):
        t, f = self.tracer, self.inputs.files
        refs = [f[f"ref{k + 1}"] for k in range(self.workload.n_refs)]
        with t.span("evalset.load"):
            evalset = load_evalset(f["src"], f["hyp"], refs, Direction.parse(DIRECTION), "system")
        report = None
        if self.workload.name == "external-sharded":
            backend = TimedBackend(ExternalBackend(external_command(), shard_size=SHARD_SIZE), t, "scorer.external")
            os.environ[SPAWN_LOG_ENV] = str(self.spawn_log)
            try:
                table = score_evalset(backend, evalset)
            finally:
                del os.environ[SPAWN_LOG_ENV]
        elif self.workload.name == "multiref-agg":
            backend = TimedBackend(SurrogateBackend(), t, "scorer.surrogate")
            with t.span("multiref.total"):
                table = evaluate_system_multiref("agg", evalset, backend)
        else:
            backend = TimedBackend(SurrogateBackend(), t, "scorer.surrogate")
            table = score_evalset(backend, evalset)
        if self.workload.inject:
            with t.span("guards.empty"):
                table, _ = apply_empty_guard(evalset, table)
            with t.span("guards.profiles"):
                profiles = bundled_profiles()
            with t.span("guards.lang"):
                table, report = apply_lang_guard(evalset, table, profiles, TARGET_LANG)
        with t.span("evalset.format"):
            rows = format_score_rows(table)
        return rows, evalset, backend, report

    def _counts(self, evalset, backend: TimedBackend, report) -> dict[str, float]:
        """Work counted from the first pass; every pass does the same work."""
        requests = backend.requests
        texts = [text for r in requests for text in (r.source, r.hypothesis, r.reference) if text is not None]
        counts = {
            "scorer.requests": len(requests),
            "scorer.unique_request_ratio": len(set(requests)) / len(requests),
            "scorer.unique_text_ratio": len(set(texts)) / len(texts),
        }
        if self.workload.name == "multiref-agg":
            counts["multiref.requests_per_segment"] = len(requests) / len(evalset)
        if self.spawn_log.exists():
            spawns = [line.split("\t") for line in self.spawn_log.read_text(encoding="utf-8").splitlines()]
            counts["scorer.external_spawns"] = len(spawns)
            counts["scorer.wire_bytes"] = sum(int(fields[1]) for fields in spawns)
        if report is not None:
            guarded = {entry.index for entry in report.per_segment}
            foreign = set(self.inputs.foreign)
            counts["guards.lang_identified"] = sum(not is_empty_hypothesis(s.hypothesis) for s in evalset.segments)
            counts["guards.lang_guarded"] = len(guarded)
            counts["guards.lang_unreliable"] = len(report.unreliable)
            counts["guards.lang_recall"] = len(guarded & foreign) / len(foreign)
            counts["guards.lang_false_positives"] = len(guarded - foreign)
        return counts

    def _meta(self) -> list[str]:
        t, f = self.tracer, self.inputs.files
        with t.span("evalset.read_table"):
            a = read_score_table(f["a"]).scores
        with t.span("evalset.read_table"):
            b = read_score_table(f["b"]).scores
        with t.span("metastats.mae"):
            mae = metastats.mae(a, b)
        with t.span("metastats.tau_a"):
            tau_a = metastats.kendall_tau_a(a, b)
        with t.span("metastats.tau_c"):
            tau_c = metastats.kendall_tau_c(a, b)
        with t.span("metastats.hist"):
            metastats.histogram(a, HIST_BINS, 0.0, 1.0)
        return [f"n\t{len(a)}", f"mae\t{mae!r}", f"tau_a\t{tau_a!r}", f"tau_c\t{tau_c!r}"]

    def _fixed_metrics(self, env: dict[str, str]) -> dict[str, float]:
        """Metrics measured once per run rather than once per pass."""
        fixed = {"cli.import_s": statistics.median(_import_time(env) for _ in range(PROBES))}
        if self.workload.name == "external-sharded":
            fixed["scorer.external_spawn_s"] = statistics.median(_spawn_time() for _ in range(PROBES))
        if self.workload.name == "meta-compare":
            a = read_score_table(self.inputs.files["a"]).scores
            b = read_score_table(self.inputs.files["b"]).scores
            tracemalloc.start()
            try:
                metastats.mae(a, b)
                metastats.kendall_tau_a(a, b)
                metastats.kendall_tau_c(a, b)
                metastats.histogram(a, HIST_BINS, 0.0, 1.0)
                fixed["metastats.peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()
        return fixed

    def metrics(self, untraced_wall_s: float) -> dict[str, float]:
        """Per-layer metrics: medians over the passes, 0 where not reached."""
        result = {name: 0.0 for name in PER_LAYER}
        for name in result:
            values = [p[name] for p in self.passes if name in p]
            if values:
                result[name] = statistics.median(values)
        result.update(self.fixed)
        result["trace.overhead_ratio"] = statistics.median(p["trace.total_s"] for p in self.passes) / untraced_wall_s
        return result


def _import_time(env: dict[str, str]) -> float:
    """Seconds to import mtharness.cli in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env, capture_output=True, text=True, check=True, timeout=60)
    return float(proc.stdout)


def _spawn_time() -> float:
    """Wall seconds to start the bundled child scorer and have it answer no requests."""
    start = time.perf_counter()
    subprocess.run(external_command(), input=b"", capture_output=True, check=True, timeout=60)
    return time.perf_counter() - start
