"""Meta-evaluation statistics over segment scores and system rankings.

MAE works on paired segment vectors; Kendall tau-a, tau-c and pairwise
accuracy compare orderings (ties matter, see each docstring);
histograms describe score distributions. Everything here is a pure function.

Kendall tau takes O(n log n) time and O(n) memory: concordant minus
discordant pairs comes from tie counts plus a merge-sort count of
discordant pairs (Knight 1966), as an exact integer, so both tau
variants match the all-pairs definition bit for bit.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from itertools import pairwise, repeat
from pathlib import Path
from typing import Iterator, Sequence

from .evalset import Record, read_score_rows

_LEAF = 256  # values per insertion-sorted leaf of the merge sort


class SystemRanking(Record):
    """Named systems with scores; order of entries carries no meaning."""

    __slots__ = ("entries",)
    entries: tuple[tuple[str, float], ...]

    def __init__(self, entries: Sequence[tuple[str, float]]) -> None:
        entries = tuple((name, float(score)) for name, score in entries)
        names = [name for name, _ in entries]
        if len(set(names)) != len(names):
            raise ValueError("system names in a ranking must be unique")
        super().__init__(entries)


def read_ranking(path: str | Path) -> SystemRanking:
    """Load a ``system<TAB>score`` TSV (see read_score_rows); each system
    name appears once."""
    entries = []
    first_line: dict[str, int] = {}
    for lineno, name, score in read_score_rows(path, "system"):
        if not name:
            raise ValueError(f"{path}: line {lineno}: empty system name")
        if first_line.setdefault(name, lineno) != lineno:
            raise ValueError(
                f"{path}: line {lineno}: system {name!r} repeats line {first_line[name]};"
                " system names in a ranking must be unique"
            )
        entries.append((name, score))
    return SystemRanking(tuple(entries))


def _check_paired(a: Sequence[float], b: Sequence[float], what: str) -> None:
    if len(a) != len(b):
        raise ValueError(f"{what}: length mismatch ({len(a)} vs {len(b)})")


def mae(pred: Sequence[float], gold: Sequence[float]) -> float:
    """Mean absolute error, in the units of the inputs (no implicit x100)."""
    _check_paired(pred, gold, "mae")
    if not pred:
        raise ValueError("mae: empty input")
    error = math.fsum(abs(p - g) for p, g in zip(pred, gold)) / len(pred)
    if not math.isfinite(error):
        raise OverflowError(f"mae: the mean absolute error {error!r} is not finite")
    return error


def _tied_pairs(groups: Counter) -> int:
    """Pairs inside the same group, for a Counter of group sizes."""
    return sum(size * (size - 1) // 2 for size in groups.values())


def _discordant(ys: list[float]) -> int:
    """Pairs i < j with ys[i] > ys[j], by bottom-up merge sort.

    Leaves of ``_LEAF`` values are sorted by insertion. Merging a left
    block L with the right block R after it adds, for every r in R, the
    values of L greater than r: len(L) * len(R) minus those not greater.
    """
    discordant = 0
    blocks = []
    for start in range(0, len(ys), _LEAF):
        leaf: list[float] = []
        for i, value in enumerate(ys[start : start + _LEAF]):
            at = bisect_right(leaf, value)
            discordant += i - at
            leaf.insert(at, value)
        blocks.append(leaf)
    while len(blocks) > 1:
        merged = []
        for left, right in zip(blocks[::2], blocks[1::2]):
            discordant += len(left) * len(right) - sum(map(bisect_right, repeat(left), right))
            left += right
            left.sort()  # two sorted runs: one linear merge
            merged.append(left)
        blocks = merged + blocks[len(merged) * 2 :]
    return discordant


def _concordance(x: Sequence[float], y: Sequence[float]) -> int:
    """Concordant minus discordant pairs over all unordered index pairs.

    The pairs tied in neither x nor y number n0 - n1 - n2 + n3: all
    pairs, minus the x-tied and the y-tied, plus the jointly tied that
    were subtracted twice. With rows sorted by (x, y), every strict
    inversion of y is a pair with x strictly increasing, so the
    inversions are exactly the discordant pairs. A pair with a NaN is
    neither. Ties follow ``==``, so ``-0.0`` ties ``0.0``.
    """
    rows = sorted((a, b) for a, b in zip(x, y) if a == a and b == b)  # NaN != NaN
    xs = [a for a, _ in rows]
    ys = [b for _, b in rows]
    n = len(rows)
    return (
        n * (n - 1) // 2
        - _tied_pairs(Counter(xs))
        - _tied_pairs(Counter(ys))
        + _tied_pairs(Counter(rows))
        - 2 * _discordant(ys)
    )


def _distinct(values: Sequence[float]) -> int:
    """Distinct values, counted as ``np.unique`` counts them: ``-0.0``
    is ``0.0`` and all NaNs are one value."""
    distinct = set(values)
    numbers = {v for v in distinct if v == v}
    return len(numbers) + (len(numbers) < len(distinct))


def kendall_taus(x: Sequence[float], y: Sequence[float]) -> tuple[float, float]:
    """(tau-a, tau-c) from one count of concordant minus discordant pairs.

    tau-a is (C - D) / (n(n-1)/2); tied pairs count toward neither C
    nor D. tau-c is (C - D) * 2m / (n^2 (m-1)) with m the smaller
    number of distinct values in x or y, and 0 when m = 1.
    """
    _check_paired(x, y, "kendall tau")
    n = len(x)
    if n < 2:
        raise ValueError("kendall tau needs at least two points")
    concordance = _concordance(x, y)
    m = min(_distinct(x), _distinct(y))
    tau_c = concordance * 2 * m / (n * n * (m - 1)) if m > 1 else 0.0
    return concordance / (n * (n - 1) / 2), tau_c


def kendall_tau_a(x: Sequence[float], y: Sequence[float]) -> float:
    """tau-a of ``kendall_taus``."""
    return kendall_taus(x, y)[0]


def kendall_tau_c(x: Sequence[float], y: Sequence[float]) -> float:
    """tau-c of ``kendall_taus``."""
    return kendall_taus(x, y)[1]


def pairwise_accuracy(metric: SystemRanking, human: SystemRanking) -> float:
    """Share of system pairs ordered the same way by both rankings.

    A pair agrees when both rankings order it strictly the same or both
    tie it; a tie against a strict order disagrees. Hence any ranking
    compared with itself scores 1.
    """
    metric_scores = dict(metric.entries)
    human_scores = dict(human.entries)
    if metric_scores.keys() != human_scores.keys():
        name = min(metric_scores.keys() ^ human_scores.keys())
        side = "metric" if name in metric_scores else "human"
        raise ValueError(f"rankings cover different system sets: system {name!r} is only in the {side} ranking")
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


def _centres(bin_count: int, lo: float, width: float) -> Iterator[float]:
    """The centres of ``bin_count`` bins of ``width`` from ``lo``, in order."""
    return (lo + (k + 0.5) * width for k in range(bin_count))


def check_histogram(bin_count: int, lo: float, hi: float) -> None:
    """Raise a ValueError unless ``histogram`` can make ``bin_count`` bins
    on [lo, hi]: at least one bin, lo < hi with a finite width, and bin
    centres that are all distinct floats."""
    if bin_count < 1:
        raise ValueError(f"histogram bin count must be at least 1, got {bin_count}")
    if not (lo < hi and math.isfinite(hi - lo)):
        raise ValueError(f"invalid histogram range [{lo}, {hi}]")
    # the centres never decrease, so they are distinct if each is above the one before
    if not all(a < b for a, b in pairwise(_centres(bin_count, lo, (hi - lo) / bin_count))):
        raise ValueError(f"invalid histogram range [{lo}, {hi}]: too narrow for {bin_count} distinct bin centres")


def histogram(scores: Sequence[float], bin_count: int, lo: float, hi: float) -> list[tuple[float, int]]:
    """Counts over uniform bins on [lo, hi]; out-of-range values clamp
    to the end bins, so the counts always sum to len(scores)."""
    check_histogram(bin_count, lo, hi)
    width = (hi - lo) / bin_count
    counts = [0] * bin_count
    for score in scores:  # clamped into [lo, hi] first, so a huge score cannot overflow to inf
        counts[min(int((min(max(score, lo), hi) - lo) // width), bin_count - 1)] += 1
    return list(zip(_centres(bin_count, lo, width), counts))


def format_meta_report(stats: dict[str, float | None], tsv: bool = False) -> list[str]:
    """Aligned ``key  value`` lines, or ``key<TAB>value`` rows with
    ``tsv``, in the order of ``stats``; a None statistic is omitted."""
    rows = [(name, repr(value)) for name, value in stats.items() if value is not None]
    width = max(len(key) for key, _ in rows)
    return [f"{key}\t{value}" if tsv else f"{key.ljust(width)}  {value}" for key, value in rows]
