"""Pre-aggregation guardrails for empty and wrong-language hypotheses.

Both guards replace the raw segment score with exactly 0.0 and record
what happened in an audit report; they never touch any other score.
Language identification is rank-order character n-gram matching over
small seed-corpus profiles — deterministic, dependency-free, and good
enough to catch whole-segment wrong-language output.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .evalset import GUARD_EMPTY, GUARD_LANG, EvalSet, ScoreTable, read_lines

NGRAM_ORDERS = (1, 2, 3, 4)
DEFAULT_PROFILE_SIZE = 300
DEFAULT_MIN_LEN = 20
DEFAULT_MIN_MARGIN = 0.05

REASON_EMPTY = "empty"
REASON_LANG = "lang_mismatch"

_SEED_DIR = Path(__file__).parent / "data" / "seeds"
BUNDLED_SEED_LANGS = ("de", "en", "ru", "uk", "zh")


@dataclass(frozen=True)
class GuardEntry:
    """One guarded (or borderline) segment in an audit report."""

    index: int
    reason: str
    detected_lang: str | None = None
    confidence: float = 1.0


@dataclass(frozen=True)
class GuardReport:
    """Audit of one guard pass: what was zeroed, and what looked odd.

    per_segment holds exactly the guarded segments (guarded_count is its
    length); unreliable holds segments that raised suspicion but stayed
    below the confidence threshold and were left untouched.
    """

    total: int
    per_segment: tuple[GuardEntry, ...] = ()
    unreliable: tuple[GuardEntry, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "per_segment", tuple(self.per_segment))
        object.__setattr__(self, "unreliable", tuple(self.unreliable))
        if self.guarded_count > self.total:
            raise ValueError("more guarded segments than segments")

    @property
    def guarded_count(self) -> int:
        return len(self.per_segment)


def format_guard_report(report: GuardReport) -> str:
    """Render a report as TSV with a `#` comment header."""
    lines = [
        f"# guarded {report.guarded_count} of {report.total} segments",
        "# index\treason\tdetected_lang\tconfidence",
    ]
    for entry in report.per_segment + report.unreliable:
        detected = entry.detected_lang if entry.detected_lang is not None else "-"
        lines.append(f"{entry.index}\t{entry.reason}\t{detected}\t{entry.confidence:.4f}")
    return "".join(line + "\n" for line in lines)


# --- empty-hypothesis guard ---------------------------------------------


def is_empty_hypothesis(text: str) -> bool:
    """True iff the text is empty after trimming Unicode whitespace."""
    return text.strip() == ""


def apply_empty_guard(evalset: EvalSet, scores: ScoreTable) -> tuple[ScoreTable, GuardReport]:
    """Zero the score of every whitespace-only hypothesis."""
    if len(scores) != len(evalset):
        raise ValueError(f"score table has {len(scores)} rows for {len(evalset)} segments")
    new_scores = list(scores.scores)
    new_flags = list(scores.guard_flags)
    entries = []
    for seg in evalset.segments:
        if is_empty_hypothesis(seg.hypothesis):
            new_scores[seg.index] = 0.0
            new_flags[seg.index] = GUARD_EMPTY
            entries.append(GuardEntry(index=seg.index, reason=REASON_EMPTY))
    guarded = ScoreTable(scores.system_name, tuple(new_scores), tuple(new_flags))
    return guarded, GuardReport(total=len(evalset), per_segment=tuple(entries))


# --- language profiles ---------------------------------------------------


@dataclass(frozen=True)
class LanguageProfile:
    """Top-K character n-grams of a language, most frequent first."""

    lang: str
    ranked_ngrams: tuple[str, ...]
    # rank lookup is derived, not part of equality or serialization
    _ranks: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "ranked_ngrams", tuple(self.ranked_ngrams))
        if len(set(self.ranked_ngrams)) != len(self.ranked_ngrams):
            raise ValueError("profile contains duplicate n-grams")
        object.__setattr__(self, "_ranks", {gram: i for i, gram in enumerate(self.ranked_ngrams)})

    def __len__(self) -> int:
        return len(self.ranked_ngrams)


def _count_ngrams(lines: Iterable[str]) -> Counter:
    """n-gram counts over space-padded tokens, counted at C level.

    Each line's padded tokens are joined with LF, which str.split()
    never leaves inside a token, so the n-grams that contain an LF are
    exactly those that cross a token boundary; they are dropped at the
    end.
    """
    counts: Counter = Counter()
    for line in lines:
        text = "\n".join(f" {token} " for token in line.split())
        for n in NGRAM_ORDERS:
            counts.update(text if n == 1 else map("".join, zip(*(text[i:] for i in range(n)))))
    for gram in [gram for gram in counts if "\n" in gram]:
        counts.pop(gram)
    return counts


def _ranked(counts: Counter, k: int) -> tuple[str, ...]:
    """Top k grams by descending count, ties in lexicographic order."""
    grams = sorted(counts)
    grams.sort(key=counts.__getitem__, reverse=True)  # stable: ties keep gram order
    return tuple(grams[:k])


def build_language_profile(corpus_lines: Sequence[str], lang: str, k: int = DEFAULT_PROFILE_SIZE) -> LanguageProfile:
    """Profile a corpus: count n-grams over space-padded tokens, keep top k.

    Ranking is by descending frequency with lexicographic tie-break, so
    two builds from the same corpus are identical.
    """
    if not corpus_lines:
        raise ValueError("cannot build a language profile from an empty corpus")
    counts = _count_ngrams(corpus_lines)
    if not counts:
        raise ValueError("corpus contains no tokens")
    return LanguageProfile(lang=lang, ranked_ngrams=_ranked(counts, k))


def serialize_profile(profile: LanguageProfile) -> str:
    """Text form: header `lang<TAB>K`, then one n-gram per line in rank order."""
    lines = [f"{profile.lang}\t{len(profile)}"]
    lines.extend(profile.ranked_ngrams)
    return "".join(line + "\n" for line in lines)


def parse_profile(text: str) -> LanguageProfile:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ValueError("empty profile text")
    header = lines[0].split("\t")
    if len(header) != 2:
        raise ValueError(f"bad profile header {lines[0]!r}: expected lang<TAB>K")
    lang, k_text = header
    try:
        k = int(k_text)
    except ValueError:
        raise ValueError(f"bad profile header {lines[0]!r}: K is not an integer") from None
    grams = lines[1 : 1 + k]  # grams keep their padding spaces; do not strip
    if len(grams) != k:
        raise ValueError(f"profile header promises {k} n-grams but {len(grams)} follow")
    for extra in lines[1 + k :]:
        if not extra.startswith("#"):
            raise ValueError(f"unexpected line after the {k} profile n-grams: {extra!r}")
    return LanguageProfile(lang=lang, ranked_ngrams=tuple(grams))


def read_profile(path: str | Path) -> LanguageProfile:
    return parse_profile(Path(path).read_text(encoding="utf-8"))


def load_seed_lines(lang: str) -> list[str]:
    """Lines of the bundled seed corpus for one of the shipped languages."""
    path = _SEED_DIR / f"{lang}.txt"
    if not path.exists():
        raise ValueError(f"no bundled seed corpus for {lang!r} (have {', '.join(BUNDLED_SEED_LANGS)})")
    return read_lines(path)


def bundled_profiles(langs: Sequence[str] = BUNDLED_SEED_LANGS, k: int = DEFAULT_PROFILE_SIZE) -> list[LanguageProfile]:
    return [build_language_profile(load_seed_lines(lang), lang, k) for lang in langs]


# --- language identification ---------------------------------------------


def _out_of_place_distance(text_grams: Sequence[str], profile: LanguageProfile, penalty: int) -> int:
    # penalty must be shared across the whole profile set: charging
    # absent grams len(profile) would make smaller profiles win on
    # mismatches alone when profile sizes differ.
    ranks = profile._ranks
    return sum(abs(i - ranks[gram]) if gram in ranks else penalty for i, gram in enumerate(text_grams))


def identify_language(
    text: str,
    profiles: Sequence[LanguageProfile],
    min_len: int = DEFAULT_MIN_LEN,
) -> tuple[str | None, float]:
    """Best-matching language and its margin over the runner-up.

    Returns (None, 0.0) for text shorter than min_len after trimming —
    an unreliable outcome, not an error. The margin is
    (second_best - best) / second_best over distinct languages, in
    [0, 1]; duplicate profiles for one language do not change it.
    """
    if len(profiles) < 2:
        raise ValueError("need at least two language profiles to identify against")
    if len(text.strip()) < min_len:
        return None, 0.0
    penalty = max(len(p) for p in profiles)
    text_grams = _ranked(_count_ngrams([text]), penalty)
    best_per_lang: dict[str, int] = {}
    for profile in profiles:
        d = _out_of_place_distance(text_grams, profile, penalty)
        if profile.lang not in best_per_lang or d < best_per_lang[profile.lang]:
            best_per_lang[profile.lang] = d
    if len(best_per_lang) < 2:
        raise ValueError("profiles cover fewer than two distinct languages")
    ranking = sorted(best_per_lang.items(), key=lambda item: (item[1], item[0]))
    (best_lang, d1), (_, d2) = ranking[0], ranking[1]
    margin = (d2 - d1) / d2 if d2 > 0 else 0.0
    return best_lang, margin


def apply_lang_guard(
    evalset: EvalSet,
    scores: ScoreTable,
    profiles: Sequence[LanguageProfile],
    expected_lang: str,
    min_len: int = DEFAULT_MIN_LEN,
    min_margin: float = DEFAULT_MIN_MARGIN,
) -> tuple[ScoreTable, GuardReport]:
    """Zero segments confidently identified as the wrong language.

    Empty and too-short hypotheses are untouched. Segments that look
    like another language but miss the margin threshold stay unguarded
    and appear in the report's unreliable list.
    """
    if len(scores) != len(evalset):
        raise ValueError(f"score table has {len(scores)} rows for {len(evalset)} segments")
    if expected_lang not in {p.lang for p in profiles}:
        raise ValueError(f"no profile for expected language {expected_lang!r}")
    new_scores = list(scores.scores)
    new_flags = list(scores.guard_flags)
    entries = []
    unreliable = []
    for seg in evalset.segments:
        hyp = seg.hypothesis
        if is_empty_hypothesis(hyp):
            continue
        detected, margin = identify_language(hyp, profiles, min_len=min_len)
        if detected is None or detected == expected_lang:
            continue
        if margin >= min_margin:
            new_scores[seg.index] = 0.0
            new_flags[seg.index] = GUARD_LANG
            entries.append(GuardEntry(seg.index, REASON_LANG, detected, margin))
        else:
            unreliable.append(GuardEntry(seg.index, REASON_LANG, detected, margin))
    guarded = ScoreTable(scores.system_name, tuple(new_scores), tuple(new_flags))
    report = GuardReport(total=len(evalset), per_segment=tuple(entries), unreliable=tuple(unreliable))
    return guarded, report
