"""Meta-evaluation statistics over segment scores and system rankings.

MAE works on paired segment vectors; Kendall tau-a, tau-c and pairwise
accuracy compare orderings (ties matter, see each docstring);
histograms describe score distributions. Everything here is a pure function.

Kendall tau takes O(n log n) time and O(n) memory: concordant minus
discordant pairs comes from tie counts over sorted runs plus a
merge-sort count of discordant pairs (Knight 1966), as an exact
integer, so both tau variants match the all-pairs definition bit for
bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .evalset import read_score_rows


@dataclass(frozen=True)
class SystemRanking:
    """Named systems with scores; order of entries carries no meaning."""

    entries: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple((name, float(score)) for name, score in self.entries))
        names = [name for name, _ in self.entries]
        if len(set(names)) != len(names):
            raise ValueError("system names in a ranking must be unique")

    def as_dict(self) -> dict[str, float]:
        return dict(self.entries)


def read_ranking(path: str | Path) -> SystemRanking:
    """Load a ``system<TAB>score`` TSV (see read_score_rows); each system
    name appears once."""
    entries = []
    first_line: dict[str, int] = {}
    for lineno, name, score in read_score_rows(path, "system"):
        if first_line.setdefault(name, lineno) != lineno:
            raise ValueError(
                f"{path}: line {lineno}: system {name!r} repeats line {first_line[name]};"
                " system names in a ranking must be unique"
            )
        entries.append((name, score))
    return SystemRanking(tuple(entries))


@dataclass(frozen=True)
class MetaReport:
    n: int
    mae: float
    tau_a: float | None = None
    tau_c: float | None = None
    pairwise_acc: float | None = None


def _check_paired(a: Sequence[float], b: Sequence[float], what: str) -> None:
    if len(a) != len(b):
        raise ValueError(f"{what}: length mismatch ({len(a)} vs {len(b)})")


def mae(pred: Sequence[float], gold: Sequence[float]) -> float:
    """Mean absolute error, in the units of the inputs (no implicit x100)."""
    _check_paired(pred, gold, "mae")
    if not pred:
        raise ValueError("mae: empty input")
    return math.fsum(abs(p - g) for p, g in zip(pred, gold)) / len(pred)


def _run_starts(*columns: np.ndarray) -> np.ndarray:
    """True where a row differs (by ``!=``) from the row before it in
    any column; ``-0.0`` and ``0.0`` are the same value here."""
    starts = np.zeros(columns[0].size, dtype=bool)
    starts[0] = True
    for column in columns:
        starts[1:] |= column[1:] != column[:-1]
    return starts


def _tied_pairs(starts: np.ndarray) -> int:
    """Pairs inside the same run, for runs marked by ``_run_starts``."""
    sizes = np.diff(np.flatnonzero(np.append(starts, True)))
    return int((sizes * (sizes - 1) // 2).sum())


def _inversions(ranks: np.ndarray) -> int:
    """Pairs i < j with ranks[i] > ranks[j], by bottom-up merge sort.

    Each level stably sorts the array by (block of 2 * width, rank),
    which merges the two sorted halves of every block. The merge moves
    each right-half element left past exactly the left-half elements
    greater than it, and moves no left-half element left, so the
    level's inversions are half the total displacement.
    """
    index = np.arange(ranks.size)
    span = int(ranks.max()) + 1
    inversions = 0
    width = 1
    while width < ranks.size:
        order = np.argsort(index // (2 * width) * span + ranks, kind="stable")
        inversions += int(np.abs(order - index).sum()) // 2
        ranks = ranks[order]
        width *= 2
    return inversions


def _concordance(x: Sequence[float], y: Sequence[float]) -> int:
    """Concordant minus discordant pairs over all unordered index pairs.

    The pairs tied in neither x nor y number n0 - n1 - n2 + n3: all
    pairs, minus the x-tied and the y-tied, plus the jointly tied that
    were subtracted twice. With rows sorted by (x, y), every strict
    inversion of y is a pair with x strictly increasing, so the
    inversions are exactly the discordant pairs. A pair with a NaN is
    neither.
    """
    xs = np.asarray(x, dtype=float)
    ys = np.asarray(y, dtype=float)
    comparable = ~(np.isnan(xs) | np.isnan(ys))
    xs, ys = xs[comparable], ys[comparable]
    n = xs.size
    if n < 2:
        return 0
    order = np.lexsort((ys, xs))
    xs, ys = xs[order], ys[order]
    by_y = np.argsort(ys, kind="stable")
    y_starts = _run_starts(ys[by_y])
    ranks = np.empty(n, dtype=np.int64)
    ranks[by_y] = np.cumsum(y_starts) - 1
    return (
        n * (n - 1) // 2
        - _tied_pairs(_run_starts(xs))
        - _tied_pairs(y_starts)
        + _tied_pairs(_run_starts(xs, ys))
        - 2 * _inversions(ranks)
    )


def _check_tau_input(x: Sequence[float], y: Sequence[float]) -> None:
    _check_paired(x, y, "kendall tau")
    if len(x) < 2:
        raise ValueError("kendall tau needs at least two points")


def kendall_tau_a(x: Sequence[float], y: Sequence[float]) -> float:
    """(C - D) / (n(n-1)/2); tied pairs count toward neither C nor D."""
    _check_tau_input(x, y)
    n = len(x)
    return _concordance(x, y) / (n * (n - 1) / 2)


def kendall_tau_c(x: Sequence[float], y: Sequence[float]) -> float:
    """(C - D) * 2m / (n^2 (m-1)) with m = min distinct values; 0 when m = 1."""
    _check_tau_input(x, y)
    m = min(np.unique(np.asarray(x, dtype=float)).size, np.unique(np.asarray(y, dtype=float)).size)
    if m == 1:
        return 0.0
    n = len(x)
    return _concordance(x, y) * 2 * m / (n * n * (m - 1))


def pairwise_accuracy(metric: SystemRanking, human: SystemRanking) -> float:
    """Share of system pairs ordered the same way by both rankings.

    A pair agrees when both rankings order it strictly the same or both
    tie it; a tie against a strict order disagrees. Hence any ranking
    compared with itself scores 1.
    """
    metric_scores = metric.as_dict()
    human_scores = human.as_dict()
    if set(metric_scores) != set(human_scores):
        raise ValueError("rankings cover different system sets")
    names = sorted(metric_scores)
    if len(names) < 2:
        raise ValueError("pairwise accuracy needs at least two systems")
    agree = total = 0
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            sign_m = (metric_scores[a] > metric_scores[b]) - (metric_scores[a] < metric_scores[b])
            sign_h = (human_scores[a] > human_scores[b]) - (human_scores[a] < human_scores[b])
            agree += sign_m == sign_h
            total += 1
    return agree / total


def histogram(scores: Sequence[float], bin_count: int, lo: float, hi: float) -> list[tuple[float, int]]:
    """Counts over uniform bins on [lo, hi]; out-of-range values clamp
    to the end bins, so the counts always sum to len(scores)."""
    if bin_count < 1:
        raise ValueError("bin_count must be at least 1")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"invalid histogram range [{lo}, {hi}]")
    width = (hi - lo) / bin_count
    counts = [0] * bin_count
    for score in scores:
        k = int((score - lo) // width)
        counts[min(max(k, 0), bin_count - 1)] += 1
    return [(lo + (k + 0.5) * width, counts[k]) for k in range(bin_count)]


def format_meta_report(report: MetaReport, tsv: bool = False) -> str:
    """Aligned ``key  value`` lines, or ``key<TAB>value`` rows with
    ``tsv``; absent statistics are omitted."""
    rows = [(f.name, repr(value)) for f in fields(report) if (value := getattr(report, f.name)) is not None]
    if tsv:
        return "".join(f"{key}\t{value}\n" for key, value in rows)
    width = max(len(key) for key, _ in rows)
    return "".join(f"{key.ljust(width)}  {value}\n" for key, value in rows)
