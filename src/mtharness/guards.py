"""Pre-aggregation guardrails for empty and wrong-language hypotheses.

Both guards replace the raw segment score with exactly 0.0 and record
what happened in an audit report; they never touch any other score.
Language identification is rank-order character n-gram matching over
small seed-corpus profiles — deterministic, dependency-free, and good
enough to catch whole-segment wrong-language output.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

from .evalset import EvalSet, Record, ScoreTable, check_language_code, read_lines
from .scorer import char_ngrams, map_chunks

NGRAM_ORDERS = (1, 2, 3, 4)
DEFAULT_PROFILE_SIZE = 300
DEFAULT_MIN_LEN = 20
DEFAULT_MIN_MARGIN = 0.05

REASON_EMPTY = "empty"
REASON_LANG = "lang_mismatch"

_SEED_DIR = Path(__file__).parent / "data" / "seeds"
# serialize_profile(build_language_profile(load_seed_lines(lang), lang)) for
# each bundled language, shipped built: reading one takes far less time than
# counting its corpus. A test rebuilds them from the seeds.
_PROFILE_DIR = Path(__file__).parent / "data" / "profiles"
BUNDLED_SEED_LANGS = ("de", "en", "ru", "uk", "zh")


class GuardEntry(Record):
    """One guarded (or borderline) segment in an audit report."""

    __slots__ = ("index", "reason", "detected_lang", "confidence")
    index: int
    reason: str
    detected_lang: str | None
    confidence: float

    def __init__(self, index: int, reason: str, detected_lang: str | None = None, confidence: float = 1.0) -> None:
        super().__init__(index, reason, detected_lang, confidence)


class GuardReport(Record):
    """Audit of one guard pass: what was zeroed, and what looked odd.

    per_segment holds exactly the guarded segments (guarded_count is its
    length); unreliable holds segments that raised suspicion but stayed
    below the confidence threshold and were left untouched.
    """

    __slots__ = ("total", "per_segment", "unreliable")
    total: int
    per_segment: tuple[GuardEntry, ...]
    unreliable: tuple[GuardEntry, ...]

    def __init__(
        self, total: int, per_segment: Sequence[GuardEntry] = (), unreliable: Sequence[GuardEntry] = ()
    ) -> None:
        per_segment = tuple(per_segment)
        if len(per_segment) > total:
            raise ValueError("more guarded segments than segments")
        super().__init__(total, per_segment, tuple(unreliable))

    @property
    def guarded_count(self) -> int:
        return len(self.per_segment)


def format_guard_report(report: GuardReport) -> list[str]:
    """Render a report as trailer notes: a count, then a TSV header and
    rows."""
    notes = [f"guarded {report.guarded_count} of {report.total} segments", "index\treason\tdetected_lang\tconfidence"]
    for entry in report.per_segment + report.unreliable:
        detected = entry.detected_lang if entry.detected_lang is not None else "-"
        notes.append(f"{entry.index}\t{entry.reason}\t{detected}\t{entry.confidence:.4f}")
    return notes


def _zero_guarded(scores: ScoreTable, report: GuardReport) -> ScoreTable:
    """The table with the score of each segment in report.per_segment
    set to exactly 0.0; it must hold one score per segment of the report."""
    if len(scores) != report.total:
        raise ValueError(f"score table has {len(scores)} rows for {report.total} segments")
    new_scores = list(scores.scores)
    for entry in report.per_segment:
        new_scores[entry.index] = 0.0
    return ScoreTable(new_scores)


# --- empty-hypothesis guard ---------------------------------------------


def is_empty_hypothesis(text: str) -> bool:
    """True iff the text is empty after trimming Unicode whitespace."""
    return text.strip() == ""


def apply_empty_guard(evalset: EvalSet, scores: ScoreTable) -> tuple[ScoreTable, GuardReport]:
    """Zero the score of every whitespace-only hypothesis."""
    entries = [GuardEntry(seg.index, REASON_EMPTY) for seg in evalset.segments if is_empty_hypothesis(seg.hypothesis)]
    report = GuardReport(total=len(evalset), per_segment=entries)
    return _zero_guarded(scores, report), report


# --- language profiles ---------------------------------------------------


class LanguageProfile(Record):
    """Top-K character n-grams of a language, most frequent first."""

    __slots__ = ("lang", "ranked_ngrams")
    lang: str
    ranked_ngrams: tuple[str, ...]

    def __init__(self, lang: str, ranked_ngrams: Sequence[str]) -> None:
        ranked_ngrams = tuple(ranked_ngrams)
        if not ranked_ngrams:
            raise ValueError("a profile must hold at least one n-gram")
        if len(set(ranked_ngrams)) != len(ranked_ngrams):
            raise ValueError("profile contains duplicate n-grams")
        super().__init__(lang, ranked_ngrams)

    def __len__(self) -> int:
        return len(self.ranked_ngrams)


# The memo keeps at most _TOKEN_MEMO_SIZE tokens of at most _MEMO_TOKEN_LEN
# characters, so at most 1024 * 66 n-grams (about 6 MB of 16-character CJK
# tokens) whatever the input. Words repeat; a spaceless zh line is one token
# that rarely does, and would keep about 4 n-grams per character. The
# 2000-segment benchmark set has about 1000 distinct tokens: 1024 entries
# miss 5% of its lookups, as 4096 and an unbounded memo do, and 256 miss 39%.
_TOKEN_MEMO_SIZE = 1024
_MEMO_TOKEN_LEN = 16


@lru_cache(maxsize=_TOKEN_MEMO_SIZE)
def _memo_token_grams(token: str) -> tuple[str, ...]:
    """_token_grams of a short token; a tuple, so no caller can change
    the memo's copy."""
    return tuple(char_ngrams(f" {token} ", NGRAM_ORDERS))


def _token_grams(token: str) -> Sequence[str]:
    """The n-grams of ``token`` padded with one space on each side, of
    every order in NGRAM_ORDERS."""
    if len(token) <= _MEMO_TOKEN_LEN:
        return _memo_token_grams(token)
    return char_ngrams(f" {token} ", NGRAM_ORDERS)


def _count_ngrams(lines: Iterable[str]) -> Counter:
    """n-gram counts over space-padded tokens, counted at C level.

    A line's n-grams are those of its str.split() tokens, each padded
    on its own, so no n-gram crosses a token boundary. A short token's
    n-grams are built once while the memo holds it: words repeat within
    and across texts.
    """
    return Counter(chain.from_iterable(map(_token_grams, chain.from_iterable(map(str.split, lines)))))


def _ranked(counts: dict[str, int], k: int) -> tuple[str, ...]:
    """Top k grams by descending count, ties in lexicographic order."""
    grams = sorted(counts)
    grams.sort(key=counts.__getitem__, reverse=True)  # stable: ties keep gram order
    return tuple(grams[:k])


def build_language_profile(corpus_lines: Sequence[str], lang: str, k: int = DEFAULT_PROFILE_SIZE) -> LanguageProfile:
    """Profile a corpus: count n-grams over space-padded tokens, keep top k.

    Ranking is by descending frequency with lexicographic tie-break, so
    two builds from the same corpus are identical. ``lang`` must be a code
    a direction can name (two lowercase ASCII letters).
    """
    check_language_code(lang)
    if k < 1:
        raise ValueError(f"profile size must be at least 1, got {k}")
    if not corpus_lines:
        raise ValueError("cannot build a language profile from an empty corpus")
    tokens = Counter(chain.from_iterable(map(str.split, corpus_lines)))
    # each distinct token is cut up once: the grams of those that occur once
    # are counted at C level, and each gram of a repeated token adds its count
    counts = Counter(chain.from_iterable(char_ngrams(f" {t} ", NGRAM_ORDERS) for t, n in tokens.items() if n == 1))
    for token, n in tokens.items():
        if n > 1:
            for gram in char_ngrams(f" {token} ", NGRAM_ORDERS):
                counts[gram] += n
    if not counts:
        raise ValueError("corpus contains no tokens")
    import heapq  # only profile building needs it

    # only grams that reach the k-th largest count can make the top k, and
    # a corpus has millions of grams for a few hundred kept
    floor = heapq.nlargest(k, counts.values())[-1]
    return LanguageProfile(lang=lang, ranked_ngrams=_ranked({g: n for g, n in counts.items() if n >= floor}, k))


def serialize_profile(profile: LanguageProfile) -> str:
    """Text form: header `lang<TAB>K`, then one n-gram per line in rank order."""
    lines = [f"{profile.lang}\t{len(profile)}"]
    lines.extend(profile.ranked_ngrams)
    return "".join(line + "\n" for line in lines)


def _profile_from_lines(lines: Sequence[str]) -> LanguageProfile:
    if not lines:
        raise ValueError("empty profile text")
    header = lines[0].split("\t")
    if len(header) != 2:
        raise ValueError(f"bad profile header {lines[0]!r}: expected lang<TAB>K")
    lang, k_text = header
    check_language_code(lang)  # else no --direction could ever select this profile
    try:
        k = int(k_text)
    except ValueError:
        raise ValueError(f"bad profile header {lines[0]!r}: K is not an integer") from None
    if k < 1:
        raise ValueError(f"bad profile header {lines[0]!r}: K must be at least 1")
    grams = lines[1 : 1 + k]  # grams keep their padding spaces; do not strip
    if len(grams) != k:
        raise ValueError(f"profile header promises {k} n-grams but {len(grams)} follow")
    first_line: dict[str, int] = {}
    for lineno, gram in enumerate(grams, start=2):
        if not gram:
            raise ValueError(f"line {lineno}: empty n-gram")
        if first_line.setdefault(gram, lineno) != lineno:
            raise ValueError(f"line {lineno}: n-gram {gram!r} repeats line {first_line[gram]}")
    for extra in lines[1 + k :]:
        if not extra.startswith("#"):
            raise ValueError(f"unexpected line after the {k} profile n-grams: {extra!r}")
    return LanguageProfile(lang=lang, ranked_ngrams=tuple(grams))


def read_profile(path: str | Path) -> LanguageProfile:
    """Parse a profile file; a malformed one raises a ValueError naming it."""
    lines = read_lines(path)  # names the file, and the line of a bad byte
    try:
        return _profile_from_lines(lines)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def load_seed_lines(lang: str) -> list[str]:
    """Lines of the bundled seed corpus for one of the shipped languages."""
    path = _SEED_DIR / f"{lang}.txt"
    if not path.exists():
        raise ValueError(f"no bundled seed corpus for {lang!r} (have {', '.join(BUNDLED_SEED_LANGS)})")
    return read_lines(path)


def bundled_profiles() -> list[LanguageProfile]:
    """The profiles of the bundled languages, in BUNDLED_SEED_LANGS order,
    each as built from its seed corpus with the default size."""
    return [read_profile(_PROFILE_DIR / f"{lang}.txt") for lang in BUNDLED_SEED_LANGS]


# --- language identification ---------------------------------------------


class _RankTable:
    """The ranks of every profile, for distances to all profiles at once.

    Each gram of any profile maps to the (profile column, rank) pairs of
    the profiles that hold it, and to no entry for those that lack it. A
    distance starts at ``penalty`` for every text gram, as if no profile
    held any, and each pair of a text gram at position i replaces that
    charge with ``|i - rank|``. So a text gram costs one dict lookup plus
    one step per profile that holds it. Each distance equals the
    out-of-place distance to that profile alone, as the tests' reference
    ``_out_of_place_distance`` in tests/helpers.py computes it one
    profile at a time; all arithmetic is on integers, so exactly.
    """

    def __init__(self, profiles: Sequence[LanguageProfile]) -> None:
        if len({p.lang for p in profiles}) < 2:
            raise ValueError("profiles cover fewer than two distinct languages; identification needs at least two")
        self.langs = tuple(p.lang for p in profiles)
        # shared across the whole profile set: charging absent grams
        # len(profile) would make smaller profiles win on mismatches alone
        # when profile sizes differ
        self.penalty = max(len(p) for p in profiles)
        ranks: dict[str, list[tuple[int, int]]] = {}
        for column, profile in enumerate(profiles):
            for rank, gram in enumerate(profile.ranked_ngrams):
                ranks.setdefault(gram, []).append((column, rank))
        self._ranks = {gram: tuple(pairs) for gram, pairs in ranks.items()}

    def distances(self, text_grams: Sequence[str]) -> list[int]:
        """Out-of-place distance of ranked text grams to each profile."""
        penalty = self.penalty
        totals = [len(text_grams) * penalty] * len(self.langs)
        for i, pairs in enumerate(map(self._ranks.get, text_grams)):
            if pairs is not None:
                for column, r in pairs:
                    totals[column] += (i - r if i > r else r - i) - penalty
        return totals

    def identify(self, text: str, min_len: int) -> tuple[str | None, float]:
        if len(text.strip()) < min_len:
            return None, 0.0
        # sorted by distance, then language: the best language comes first,
        # and the runner-up is the first entry of any other language
        ranking = sorted(zip(self.distances(_ranked(_count_ngrams([text]), self.penalty)), self.langs))
        d1, best_lang = ranking[0]
        d2 = next(d for d, lang in ranking if lang != best_lang)
        # a tie names no language: a text that shares no gram with any
        # profile, an empty one included, is equally far from all of them
        return (best_lang, (d2 - d1) / d2) if d1 < d2 else (None, 0.0)


def identify_language(
    text: str,
    profiles: Sequence[LanguageProfile],
    min_len: int = DEFAULT_MIN_LEN,
) -> tuple[str | None, float]:
    """Best-matching language and its margin over the runner-up.

    Returns (None, 0.0) for text shorter than min_len after trimming,
    and for text that is as close to some other language as to the best
    — an unreliable outcome, not an error. Otherwise the margin is
    (second_best - best) / second_best over distinct languages, in
    (0, 1]; duplicate profiles for one language do not change it.
    """
    return _rank_table(tuple(profiles)).identify(text, min_len)


@lru_cache(maxsize=4)
def _rank_table(profiles: tuple[LanguageProfile, ...]) -> _RankTable:
    """The table of a profile set, built once: building it takes several
    times as long as identifying one text with it."""
    return _RankTable(profiles)


def apply_lang_guard(
    evalset: EvalSet,
    scores: ScoreTable,
    profiles: Sequence[LanguageProfile],
    expected_lang: str,
    min_len: int = DEFAULT_MIN_LEN,
    min_margin: float = DEFAULT_MIN_MARGIN,
) -> tuple[ScoreTable, GuardReport]:
    """Zero segments confidently identified as the wrong language.

    Hypotheses identification names no language for (too short, or
    tied between languages, as every empty one is) are untouched.
    Segments that look like another language but miss the margin
    threshold stay unguarded and appear in the report's unreliable list.
    """
    if expected_lang not in {p.lang for p in profiles}:
        raise ValueError(f"no profile for expected language {expected_lang!r}")
    table = _rank_table(tuple(profiles))

    def identify_chunk(hyps: Sequence[str]) -> list[tuple[str | None, float]]:
        return [table.identify(hyp, min_len) for hyp in hyps]

    detections = map_chunks(identify_chunk, [seg.hypothesis for seg in evalset.segments])
    entries: list[GuardEntry] = []
    unreliable: list[GuardEntry] = []
    for seg, (detected, margin) in zip(evalset.segments, detections):
        if detected is not None and detected != expected_lang:
            (entries if margin >= min_margin else unreliable).append(GuardEntry(seg.index, REASON_LANG, detected, margin))
    report = GuardReport(total=len(evalset), per_segment=entries, unreliable=unreliable)
    return _zero_guarded(scores, report), report
