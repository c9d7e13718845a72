"""Aligned evaluation sets and per-segment score tables.

Input files are plain text, one segment per line, UTF-8, LF or CRLF.
Score tables persist as TSV ``index<TAB>score`` with scores rendered as
the shortest round-tripping decimal. Text is deliberately not normalised
at load time: scorer backends must see the bytes the user supplied.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Iterator, Sequence


class Record:
    """Base of the package's immutable records.

    A subclass names the fields it adds, in order, in ``__slots__``. Its
    fields are those of the records it derives from, then its own; they
    are learnt once, into ``_fields``, when the class is created. Its
    ``__init__`` checks and converts its arguments, then passes one value
    per field, in field order, to ``Record.__init__``. Two records are
    equal, and hash alike, when they are of the same class and their
    fields are equal; the repr is ``Name(field=value, ...)``; assigning or
    deleting an attribute raises AttributeError. (The standard library's
    frozen-record decorator would give the same, but importing its module
    costs every command several ms.)
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields += cls.__dict__.get("__slots__", ())
        # each slot's own setter: binding through it skips the attribute
        # lookup that object.__setattr__ makes
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._fields)

    def __init__(self, *values) -> None:
        for setter, value in zip(self._setters, values):
            setter(self, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()  # type: ignore[attr-defined]
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


def check_language_code(code: str) -> None:
    """Raise a ValueError unless ``code`` is two lowercase ASCII letters."""
    if len(code) != 2 or not code.isascii() or not code.isalpha() or not code.islower():
        raise ValueError(f"invalid language code {code!r}: expected two lowercase ASCII letters")


class Direction(Record):
    """A translation direction such as en-de.

    Codes are two-letter lowercase ASCII; source and target must differ.
    """

    __slots__ = ("src_lang", "tgt_lang")
    src_lang: str
    tgt_lang: str

    def __init__(self, src_lang: str, tgt_lang: str) -> None:
        check_language_code(src_lang)
        check_language_code(tgt_lang)
        if src_lang == tgt_lang:
            raise ValueError(f"source and target language are both {src_lang!r}")
        super().__init__(src_lang, tgt_lang)

    @classmethod
    def parse(cls, text: str) -> "Direction":
        """Parse a direction written as ``src-tgt``, e.g. ``en-de``."""
        parts = text.split("-")
        if len(parts) != 2:
            raise ValueError(f"invalid direction {text!r}: expected the form src-tgt, e.g. en-de")
        return cls(parts[0], parts[1])

    def __str__(self) -> str:
        return f"{self.src_lang}-{self.tgt_lang}"


class Segment(Record):
    """One aligned (source, hypothesis, references) tuple."""

    __slots__ = ("index", "source", "hypothesis", "references")
    index: int
    source: str
    hypothesis: str
    references: tuple[str, ...]

    def __init__(self, index: int, source: str, hypothesis: str, references: Sequence[str] = ()) -> None:
        super().__init__(index, source, hypothesis, tuple(references))


class EvalSet(Record):
    """An ordered, aligned collection of segments for one system.

    Segment indices are contiguous from 0 and every segment carries the
    same number of references. Zero segments are accepted (aggregation
    rejects them later); zero references per segment means QE mode.
    """

    __slots__ = ("direction", "system_name", "segments")
    direction: Direction
    system_name: str
    segments: tuple[Segment, ...]

    def __init__(self, direction: Direction, system_name: str, segments: Sequence[Segment]) -> None:
        segments = tuple(segments)
        if not system_name:
            raise ValueError("system_name must be non-empty")
        for position, seg in enumerate(segments):
            if seg.index != position:
                raise ValueError(f"segment indices must be contiguous from 0; position {position} has index {seg.index}")
        counts = {len(seg.references) for seg in segments}
        if len(counts) > 1:
            raise ValueError(f"all segments must carry the same reference count, found {sorted(counts)}")
        super().__init__(direction, system_name, segments)

    def __len__(self) -> int:
        return len(self.segments)

    @property
    def n_references(self) -> int:
        return len(self.segments[0].references) if self.segments else 0


class ScoreTable(Record):
    """Per-segment scores.

    Scores are positional: the score at position i belongs to segment
    index i of the associated EvalSet. What a guard zeroed is recorded
    in its GuardReport, not here.
    """

    __slots__ = ("scores",)
    scores: tuple[float, ...]

    def __init__(self, scores: Sequence[float]) -> None:
        scores = tuple(map(float, scores))
        if not all(map(math.isfinite, scores)):
            i = next(i for i, score in enumerate(scores) if not math.isfinite(score))
            raise ValueError(f"score at index {i} is not finite: {scores[i]!r}")
        super().__init__(scores)

    def __len__(self) -> int:
        return len(self.scores)


def system_score(table: ScoreTable) -> float:
    """Arithmetic mean of the segment scores (the system-level score)."""
    if len(table) == 0:
        raise ValueError("cannot compute a system score for an empty score table")
    return math.fsum(table.scores) / len(table)


def read_lines(path: str | Path) -> list[str]:
    """Read one-segment-per-line UTF-8 text, accepting LF or CRLF.

    Undecodable bytes are reported with their 1-based line number, and
    with the reason that line gives when decoded alone, so a line cut off
    in the middle of a character reads as "unexpected end of data".
    """
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError:
        # LF and CR are never part of a character, so the first line that
        # does not decode alone holds the file's first undecodable byte
        for lineno, line in enumerate(raw.split(b"\n"), start=1):
            try:
                line.removesuffix(b"\r").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}: line {lineno} is not valid UTF-8 ({exc.reason})") from None
        raise
    return split_lines(text)


def split_lines(text: str) -> list[str]:
    """The one definition of a line: split on LF, drop the empty line after
    a final LF, and strip one trailing CR, so LF and CRLF text agree."""
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return [line.removesuffix("\r") for line in lines]


def load_evalset(
    src_path: str | Path,
    hyp_path: str | Path,
    ref_paths: Sequence[str | Path],
    direction: Direction,
    system_name: str,
) -> EvalSet:
    """Build an EvalSet from aligned line files.

    Reference k of segment i is line i of ``ref_paths[k]``; an empty
    ``ref_paths`` yields a reference-free (QE) EvalSet. All files must
    have the same line count or a ValueError names each file and its
    count.
    """
    paths = [src_path, hyp_path, *ref_paths]
    columns = [read_lines(path) for path in paths]
    if len({len(lines) for lines in columns}) > 1:
        detail = ", ".join(f"{path}: {len(lines)} lines" for path, lines in zip(paths, columns))
        raise ValueError(f"line count mismatch across input files ({detail})")
    segments = [Segment(i, src, hyp, refs) for i, (src, hyp, *refs) in enumerate(zip(*columns))]
    return EvalSet(direction, system_name, segments)


def format_score_rows(table: ScoreTable) -> list[str]:
    """Render a score table as ``index<TAB>score`` rows."""
    return [f"{i}\t{score!r}" for i, score in enumerate(table.scores)]


def parse_score(text: str) -> float:
    """The score that ``text`` spells: what ``float()`` reads, except digit
    groups such as ``0_5``, and finite. Otherwise a ValueError says the
    text "is not a number" or, for nan and inf, "is not finite"."""
    try:
        score = float(text)
    except ValueError:
        score = None
    if score is None or "_" in text:
        raise ValueError("is not a number")
    if not math.isfinite(score):
        raise ValueError("is not finite")
    return score


def read_score_rows(path: str | Path, key: str) -> Iterator[tuple[int, str, float]]:
    """Yield ``(lineno, key, score)`` for each ``KEY<TAB>score`` row.

    Blank lines and ``#`` lines (e.g. trailers) are skipped. Every row
    has exactly two TAB-separated fields with no whitespace around
    either, and a finite score, or a ValueError names the file and the
    line; ``key`` names the first field in that message.
    """
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError(f"{path}: line {lineno}: expected {key}<TAB>score, got {line!r}")
        if parts[0] != parts[0].strip() or parts[1] != parts[1].strip():
            raise ValueError(f"{path}: line {lineno}: whitespace around a field in {line!r}")
        try:
            score = parse_score(parts[1])
        except ValueError as exc:  # parse_score says why: not a number, or not finite
            raise ValueError(f"{path}: line {lineno}: score {parts[1]!r} {exc}") from None
        yield lineno, parts[0], score


def read_score_table(path: str | Path) -> ScoreTable:
    """Load a score TSV of ``index<TAB>score`` rows (see read_score_rows).

    Indices must be exactly 0..n-1 in order, written as plain decimals
    (no sign, space, leading zero or digit group): one score per segment
    index, no duplicates or gaps.
    """
    scores: list[float] = []
    for lineno, key, score in read_score_rows(path, "index"):
        if key != str(len(scores)):
            raise ValueError(f"{path}: line {lineno}: expected index {len(scores)}, got {key!r}")
        scores.append(score)
    return ScoreTable(scores)
