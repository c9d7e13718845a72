"""Pluggable segment scorers.

Three backends share one batch interface: a precomputed index-keyed
score table, an external process spoken to over a bit-exact
line-oriented wire protocol, and a built-in deterministic lexical
surrogate for tests and demos. Real neural metrics stay out of process
by design; this module only moves triples in and scores out.
"""

from __future__ import annotations

import math
import subprocess
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Sequence

from .evalset import EvalSet, ScoreTable, read_score_table


class ScorerError(RuntimeError):
    """A backend failed to produce one finite score per request."""


@dataclass(frozen=True)
class ScoreRequest:
    """One (source, hypothesis, reference) triple; reference None = QE."""

    source: str
    hypothesis: str
    reference: str | None = None


# --- wire protocol -----------------------------------------------------
#
# One request per line on the child's stdin: source,	hypothesis and
# reference joined by literal TABs (two fields in QE mode). Literal
# backslash, TAB and LF inside a field are escaped as \\, \t and \n, so
# the protocol stays line-oriented and bit-exact. The child answers
# with exactly one decimal number per line, in order.


def escape_field(text: str) -> str:
    """Escape one field for the wire (backslash first, then TAB, LF)."""
    return text.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n")


def unescape_field(text: str) -> str:
    """Invert escape_field with a single left-to-right scan."""
    out: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        if i + 1 >= len(text):
            raise ScorerError("dangling backslash at end of wire field")
        nxt = text[i + 1]
        if nxt == "\\":
            out.append("\\")
        elif nxt == "t":
            out.append("\t")
        elif nxt == "n":
            out.append("\n")
        else:
            raise ScorerError(f"invalid wire escape \\{nxt}")
        i += 2
    return "".join(out)


def format_request_line(request: ScoreRequest) -> str:
    fields = [request.source, request.hypothesis]
    if request.reference is not None:
        fields.append(request.reference)
    return "\t".join(escape_field(f) for f in fields)


def _check_homogeneous(requests: Sequence[ScoreRequest]) -> None:
    modes = {req.reference is None for req in requests}
    if len(modes) > 1:
        raise ValueError("cannot mix QE and reference-based requests in one batch")


# --- surrogate ---------------------------------------------------------

NGRAM_ORDERS = (1, 2, 3, 4)

# Per n: the character n-gram counts of a text and their total.
Profile = list[tuple[Counter, int]]


def _ngram_profile(text: str) -> Profile:
    """Character n-gram counts for n = 1..4, counted at C level."""
    profile = []
    for n in NGRAM_ORDERS:
        grams = text if n == 1 else map("".join, zip(*(text[i:] for i in range(n))))
        profile.append((Counter(grams), max(len(text) - n + 1, 0)))
    return profile


def _overlap(a: Counter, b: Counter) -> int:
    """Multiset intersection size, iterating over the smaller side."""
    if len(b) < len(a):
        a, b = b, a
    return sum(map(min, a.values(), map(b.get, a, repeat(0))))


def _profile_similarity(a: Profile, b: Profile) -> float:
    """Mean char n-gram F1 for n = 1..4, skipping orders absent on both sides.

    All counting is integer; the division and fsum are the only float
    steps, in order n = 1..4, so equal inputs give bit-identical scores.
    """
    values = []
    for (grams_a, total_a), (grams_b, total_b) in zip(a, b):
        if not total_a and not total_b:
            continue
        if not total_a or not total_b:
            values.append(0.0)
        else:
            values.append(2.0 * _overlap(grams_a, grams_b) / (total_a + total_b))
    if not values:
        return 0.0
    return math.fsum(values) / len(values)


class _PairMemo:
    """Per-batch hypothesis↔other similarities, each computed once.

    The memo holds floats only. The one n-gram profile kept across
    calls is that of the latest hypothesis, since a segment's requests
    arrive together, so memory grows with the number of distinct pairs,
    not with the n-grams of every text in the batch.
    """

    def __init__(self) -> None:
        self._memo: dict[tuple[str, str], float] = {}
        self._hyp: str | None = None
        self._hyp_profile: Profile = []

    def __call__(self, hyp: str, other: str) -> float:
        key = (hyp, other)
        value = self._memo.get(key)
        if value is None:
            if hyp != self._hyp:
                self._hyp, self._hyp_profile = hyp, _ngram_profile(hyp)
            value = self._memo[key] = _profile_similarity(self._hyp_profile, _ngram_profile(other))
        return value


# Reference-mode weights of hypothesis↔reference and hypothesis↔source.
W_REF = 0.9
W_SRC = 0.1


def _blend(request: ScoreRequest, similarity: _PairMemo) -> float:
    if request.reference is None:
        return similarity(request.hypothesis, request.source)
    return W_REF * similarity(request.hypothesis, request.reference) + W_SRC * similarity(request.hypothesis, request.source)


def surrogate_score(request: ScoreRequest) -> float:
    """Deterministic lexical stand-in score in [0, 1].

    Reference mode blends hypothesis↔reference with hypothesis↔source
    similarity (the source term makes reference/source swaps visibly
    change the score); QE mode is hypothesis↔source only.
    """
    return _blend(request, _PairMemo())


class SurrogateBackend:
    """In-process lexical scorer; pure, deterministic, freely parallel."""

    def score_batch(self, requests: Sequence[ScoreRequest]) -> list[float]:
        _check_homogeneous(requests)
        similarity = _PairMemo()
        return [_blend(req, similarity) for req in requests]


class PrecomputedBackend:
    """Serves stored scores keyed by batch position (= segment index).

    Index keys avoid any text-normalization ambiguity: request i of the
    batch is answered with the stored score for index i. The batch must
    have exactly one request per stored score; a longer or shorter
    table is misaligned and is an error, never truncated.
    """

    def __init__(self, table: ScoreTable | str | Path) -> None:
        if not isinstance(table, ScoreTable):
            table = read_score_table(table)
        self._scores = table.scores
        self._source = table.system_name

    def score_batch(self, requests: Sequence[ScoreRequest]) -> list[float]:
        _check_homogeneous(requests)
        if len(requests) > len(self._scores):
            raise ScorerError(
                f"precomputed table {self._source} has {len(self._scores)} scores but index {len(requests) - 1} was requested"
            )
        if len(requests) < len(self._scores):
            raise ScorerError(
                f"precomputed table {self._source} has {len(self._scores)} scores but only {len(requests)} were requested"
            )
        return list(self._scores)


class ExternalBackend:
    """Scores via a child process speaking the wire protocol.

    Each batch (or each shard of ``shard_size`` requests) is served by
    one child process, run sequentially in order and reassembled, so
    results do not depend on scheduling. Any shortfall in the child's
    output is an error — never a silent truncation. A child still running
    ``timeout`` seconds after it started is killed and reaped, and the
    shard fails; with no timeout the backend waits for as long as it takes.
    """

    def __init__(self, command: Sequence[str], shard_size: int | None = None, timeout: float | None = None) -> None:
        if not command:
            raise ValueError("external backend needs a non-empty command")
        if shard_size is not None and shard_size < 1:
            raise ValueError("shard_size must be at least 1")
        if timeout is not None and not (timeout > 0 and math.isfinite(timeout)):
            raise ValueError("timeout must be positive and finite")
        self.command = tuple(command)
        self.shard_size = shard_size
        self.timeout = timeout

    def _run_shard(self, lines: list[str], start: int) -> list[float]:
        payload = "".join(line + "\n" for line in lines).encode("utf-8")
        try:
            proc = subprocess.run(self.command, input=payload, capture_output=True, timeout=self.timeout)
        except OSError as exc:
            raise ScorerError(f"could not run external scorer {self.command[0]!r}: {exc}") from None
        except subprocess.TimeoutExpired:
            raise ScorerError(
                f"external scorer for requests {start}..{start + len(lines) - 1}"
                f" did not finish within {self.timeout:g} s and was killed"
            ) from None
        stderr = proc.stderr.decode("utf-8", errors="replace").strip()
        if proc.returncode != 0:
            detail = f": {stderr}" if stderr else ""
            raise ScorerError(f"external scorer exited with status {proc.returncode}{detail}")
        try:
            out_lines = proc.stdout.decode("utf-8").split("\n")
        except UnicodeDecodeError as exc:
            raise ScorerError(
                f"external scorer output for requests {start}..{start + len(lines) - 1}"
                f" is not valid UTF-8 ({exc.reason})"
            ) from None
        if out_lines and out_lines[-1] == "":
            out_lines.pop()
        if len(out_lines) != len(lines):
            raise ScorerError(f"external scorer answered {len(out_lines)} lines for {len(lines)} requests")
        scores: list[float] = []
        # number lines across the whole batch, as an unsharded run would
        for lineno, line in enumerate(out_lines, start=start + 1):
            try:
                score = float(line.strip())
            except ValueError:
                score = None
            if score is None or "_" in line:  # float() also accepts digit groups such as 1_0
                raise ScorerError(f"external scorer output line {lineno} is not a number: {line!r}")
            if not math.isfinite(score):
                raise ScorerError(f"external scorer output line {lineno} is not finite: {line!r}")
            scores.append(score)
        return scores

    def score_batch(self, requests: Sequence[ScoreRequest]) -> list[float]:
        _check_homogeneous(requests)
        lines = [format_request_line(req) for req in requests]
        if not lines:
            return []
        size = self.shard_size or len(lines)
        scores: list[float] = []
        for start in range(0, len(lines), size):
            scores.extend(self._run_shard(lines[start : start + size], start))
        return scores


def requests_from_evalset(evalset: EvalSet) -> list[ScoreRequest]:
    """Plain single-pass requests: first reference if any, else QE."""
    if evalset.n_references > 1:
        raise ValueError("evalset has multiple references; pick a multi-reference strategy instead of plain scoring")
    return [
        ScoreRequest(
            source=seg.source,
            hypothesis=seg.hypothesis,
            reference=seg.references[0] if seg.references else None,
        )
        for seg in evalset.segments
    ]


def score_evalset(backend, evalset: EvalSet) -> ScoreTable:
    scores = backend.score_batch(requests_from_evalset(evalset))
    return ScoreTable(system_name=evalset.system_name, scores=tuple(scores))
