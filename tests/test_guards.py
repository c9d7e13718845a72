"""Tests for the empty-hypothesis and wrong-language guards.

Profile building and language identification are checked against an
oracle that counts n-grams with plain Python loops over every padded
token, ranks with a (-count, gram) sort key and walks the profile ranks
one gram at a time; the guards must equal it exactly.
"""

import re
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mtharness.cli import EXIT_OK, main
from mtharness.evalset import GUARD_EMPTY, GUARD_LANG, Direction, EvalSet, ScoreTable, Segment, system_score
from mtharness.guards import (
    BUNDLED_SEED_LANGS,
    DEFAULT_MIN_LEN,
    DEFAULT_PROFILE_SIZE,
    LanguageProfile,
    _count_ngrams,
    _out_of_place_distance,
    _ranked,
    _RankTable,
    apply_empty_guard,
    apply_lang_guard,
    build_language_profile,
    bundled_profiles,
    format_guard_report,
    identify_language,
    is_empty_hypothesis,
    load_seed_lines,
    parse_profile,
    read_profile,
    serialize_profile,
)

from helpers import chunking, reaped


def oracle_count_ngrams(lines):
    counts = Counter()
    for line in lines:
        for token in line.split():
            padded = f" {token} "
            for n in (1, 2, 3, 4):
                for i in range(len(padded) - n + 1):
                    counts[padded[i : i + n]] += 1
    return counts


def oracle_ranked(counts, k):
    ordered = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return tuple(gram for gram, _ in ordered[:k])


def oracle_profile(lines, k=DEFAULT_PROFILE_SIZE):
    return oracle_ranked(oracle_count_ngrams(lines), k)


def oracle_distance(text_grams, ranked_ngrams, penalty):
    ranks = {gram: i for i, gram in enumerate(ranked_ngrams)}
    return sum(abs(i - ranks[gram]) if gram in ranks else penalty for i, gram in enumerate(text_grams))


def oracle_identify(text, profiles, min_len=DEFAULT_MIN_LEN):
    if len(text.strip()) < min_len:
        return None, 0.0
    penalty = max(len(p.ranked_ngrams) for p in profiles)
    text_grams = oracle_ranked(oracle_count_ngrams([text]), penalty)
    best = {}
    for profile in profiles:
        d = oracle_distance(text_grams, profile.ranked_ngrams, penalty)
        if profile.lang not in best or d < best[profile.lang]:
            best[profile.lang] = d
    (best_lang, d1), (_, d2) = sorted(best.items(), key=lambda item: (item[1], item[0]))[:2]
    return best_lang, (d2 - d1) / d2 if d2 > 0 else 0.0


# Every kind of whitespace str.split() breaks on (LF included, which
# the counting code uses internally), plus combining, non-BMP and CJK
# characters, from a small alphabet so that n-grams and counts tie.
LINES = st.text(alphabet="ab c\t\n\r\x0b\x85\u2028\u3000e\u0301😀𝔸雨я", max_size=30)


@pytest.fixture(scope="module")
def profiles():
    return bundled_profiles()


def evalset_from_hyps(hyps, direction=("en", "de")):
    segs = tuple(Segment(i, f"source {i}", hyp, (f"ref {i}",)) for i, hyp in enumerate(hyps))
    return EvalSet(Direction(*direction), "sys", segs)


class TestEmptyGuard:
    @pytest.mark.parametrize("text,expected", [("", True), (" \t ", True), ("Hallo.", False), ("  ", True)])
    def test_is_empty_hypothesis(self, text, expected):
        assert is_empty_hypothesis(text) is expected

    def test_noop_without_empties(self):
        es = evalset_from_hyps(["eins", "zwei"])
        table = ScoreTable("sys", (0.4, 0.6))
        guarded, report = apply_empty_guard(es, table)
        assert guarded == table
        assert report.guarded_count == 0
        assert report.total == 2

    def test_empty_hypothesis_zeroed(self):
        es = evalset_from_hyps([""])
        guarded, report = apply_empty_guard(es, ScoreTable("sys", (0.353,)))
        assert guarded.scores == (0.0,)
        assert guarded.guard_flags == (GUARD_EMPTY,)
        assert report.per_segment[0].reason == "empty"

    def test_two_empties_shift_system_score(self):
        hyps = [""] * 2 + ["text"] * 8
        es = evalset_from_hyps(hyps)
        guarded, report = apply_empty_guard(es, ScoreTable("sys", (0.5,) * 10))
        assert report.guarded_count == 2
        assert system_score(guarded) == pytest.approx(0.4)

    def test_other_scores_bit_identical(self):
        es = evalset_from_hyps(["", "bleibt"])
        raw = ScoreTable("sys", (0.7, 0.123456789012345))
        guarded, _ = apply_empty_guard(es, raw)
        assert guarded.scores[1] == raw.scores[1]

    def test_misaligned_rejected(self):
        es = evalset_from_hyps(["a", "b"])
        with pytest.raises(ValueError, match="2 segments"):
            apply_empty_guard(es, ScoreTable("sys", (0.5,)))

    def test_idempotent(self):
        es = evalset_from_hyps(["", "x", "  "])
        once, _ = apply_empty_guard(es, ScoreTable("sys", (0.3, 0.4, 0.5)))
        twice, _ = apply_empty_guard(es, once)
        assert twice == once


class TestProfiles:
    def test_single_symbol_dominates(self):
        profile = build_language_profile(["aaaa"], "xx")
        assert profile.ranked_ngrams[0] == "a"

    def test_deterministic(self):
        lines = load_seed_lines("de")
        assert build_language_profile(lines, "de") == build_language_profile(lines, "de")

    def test_german_ranks_e_above_q(self):
        profile = build_language_profile(load_seed_lines("de"), "de")
        grams = profile.ranked_ngrams
        assert "e" in grams
        assert "q" not in grams or grams.index("e") < grams.index("q")

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty corpus"):
            build_language_profile([], "xx")
        with pytest.raises(ValueError, match="no tokens"):
            build_language_profile(["   ", ""], "xx")

    def test_serialization_roundtrip(self):
        profile = build_language_profile(load_seed_lines("uk"), "uk", k=120)
        text = serialize_profile(profile)
        assert text.startswith("uk\t120\n")
        assert parse_profile(text) == profile

    def test_padding_spaces_survive_roundtrip(self):
        profile = build_language_profile(["ab ab ab"], "xx", k=10)
        padded = [g for g in profile.ranked_ngrams if g != g.strip()]
        assert padded, "expected boundary-padded n-grams in the profile"
        assert parse_profile(serialize_profile(profile)) == profile

    def test_parse_rejects_bad_header(self):
        with pytest.raises(ValueError, match="header"):
            parse_profile("just one field\n")
        with pytest.raises(ValueError, match="promises"):
            parse_profile("xx\t3\na\n")

    @pytest.mark.parametrize("text, message", [
        ("de\t0\n", "bad profile header 'de\\t0': K must be at least 1"),
        ("de\t-1\n", "bad profile header 'de\\t-1': K must be at least 1"),
        ("xx\t3\nab\ncd\nab\n", "line 4: n-gram 'ab' repeats line 2"),
        ("xx\t2\nab\n\n", "line 3: empty n-gram"),
    ], ids=["k-zero", "k-negative", "duplicate", "empty-gram"])
    def test_parse_rejects_malformed_grams(self, text, message):
        with pytest.raises(ValueError) as exc:
            parse_profile(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("text", ["", "de\t0\n", "xx\t2\nab\nab\n", "\xff"], ids=["empty", "k-zero", "duplicate", "not-utf8"])
    def test_read_profile_names_the_file(self, tmp_path, text):
        path = tmp_path / "bad.profile"
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
            read_profile(path)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(LINES, min_size=1, max_size=6), st.integers(1, 60))
    def test_property_equals_oracle_exactly(self, lines, k):
        expected = oracle_profile(lines, k)
        if not expected:
            with pytest.raises(ValueError, match="no tokens"):
                build_language_profile(lines, "xx", k)
        else:
            assert build_language_profile(lines, "xx", k).ranked_ngrams == expected

    @pytest.mark.parametrize("lang", BUNDLED_SEED_LANGS)
    def test_seed_profiles_equal_oracle_exactly(self, lang):
        lines = load_seed_lines(lang)
        for k in (DEFAULT_PROFILE_SIZE, 5000):
            assert build_language_profile(lines, lang, k).ranked_ngrams == oracle_profile(lines, k)

    @pytest.mark.parametrize("lang", BUNDLED_SEED_LANGS)
    def test_profiles_command_writes_oracle_profile(self, lang, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "corpus.txt").write_text("".join(line + "\n" for line in load_seed_lines(lang)), encoding="utf-8")
        assert main(["profiles", "build", "--lang", lang, "--input", "corpus.txt", "--out", "p.txt"]) == EXIT_OK
        expected = serialize_profile(LanguageProfile(lang, oracle_profile(load_seed_lines(lang))))
        written = (tmp_path / "p.txt").read_text(encoding="utf-8")
        assert written.startswith(expected)
        assert all(line.startswith("# ") for line in written[len(expected) :].splitlines())

    def test_parse_ignores_comment_trailer(self):
        profile = build_language_profile(["ab ab ab"], "xx", k=10)
        text = serialize_profile(profile) + "# signature whatever\n# command mtharness profiles build\n"
        assert parse_profile(text) == profile
        with pytest.raises(ValueError, match="unexpected line"):
            parse_profile(serialize_profile(profile) + "stray gram\n")


class TestIdentifyLanguage:
    def test_han_script_wins(self, profiles):
        lang, _ = identify_language("这是一个完全用中文写成的句子，长度足够用来识别。", profiles)
        assert lang == "zh"

    def test_self_match(self, profiles):
        for lang in ("en", "de", "ru"):
            line = load_seed_lines(lang)[0]
            assert identify_language(line, profiles)[0] == lang

    def test_short_text_unreliable(self, profiles):
        assert identify_language("zu kurz", profiles) == (None, 0.0)

    def test_duplicate_profiles_do_not_change_result(self, profiles):
        text = "The ferry crosses the strait twice a day in winter."
        assert identify_language(text, profiles) == identify_language(text, list(profiles) * 2)

    @settings(max_examples=300, deadline=None)
    @given(LINES, st.integers(0, 6))
    def test_property_equals_oracle_exactly(self, profiles, text, min_len):
        assert identify_language(text, profiles, min_len) == oracle_identify(text, profiles, min_len)

    @settings(deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["p", "q", "r"]), st.lists(LINES, min_size=1, max_size=3)), min_size=2, max_size=4),
           st.integers(1, 40), LINES)
    def test_small_profiles_equal_oracle_exactly(self, corpora, k, text):
        built = [(lang, oracle_profile(lines, k)) for lang, lines in corpora]
        small = [LanguageProfile(lang, grams) for lang, grams in built if grams]
        assume(len({p.lang for p in small}) >= 2)
        assert identify_language(text, small, 0) == oracle_identify(text, small, 0)

    def test_seed_lines_equal_oracle_exactly(self, profiles):
        for lang in BUNDLED_SEED_LANGS:
            for line in load_seed_lines(lang)[:40]:
                assert identify_language(line, profiles) == oracle_identify(line, profiles)

    @settings(max_examples=200, deadline=None)
    @given(LINES)
    def test_all_profile_distances_equal_one_at_a_time(self, profiles, text):
        table = _RankTable(profiles)
        for grams in (_ranked(_count_ngrams([text]), table.penalty), text.split()):
            assert table.distances(grams) == [_out_of_place_distance(grams, p, table.penalty) for p in profiles]

    @settings(deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["p", "q"]), st.lists(LINES, min_size=1, max_size=3)), min_size=2, max_size=4),
           st.integers(1, 40), LINES)
    def test_small_profile_distances_equal_one_at_a_time(self, corpora, k, text):
        small = [LanguageProfile(lang, grams) for lang, lines in corpora if (grams := oracle_profile(lines, k))]
        assume(len({p.lang for p in small}) >= 2)
        table = _RankTable(small)
        grams = _ranked(_count_ngrams([text]), table.penalty)
        assert table.distances(grams) == [_out_of_place_distance(grams, p, table.penalty) for p in small]

    def test_seed_line_distances_equal_one_at_a_time(self, profiles):
        small_uk = build_language_profile(load_seed_lines("uk"), "uk", k=120)  # sizes differ
        for profile_set in (profiles, [*profiles, small_uk]):
            table = _RankTable(profile_set)
            for lang in BUNDLED_SEED_LANGS:
                for line in load_seed_lines(lang)[:20]:
                    grams = _ranked(_count_ngrams([line]), table.penalty)
                    expected = [_out_of_place_distance(grams, p, table.penalty) for p in profile_set]
                    assert table.distances(grams) == expected

    def test_needs_two_profiles(self, profiles):
        with pytest.raises(ValueError, match="at least two"):
            identify_language("whatever text this is", profiles[:1])

    def test_mixed_profile_sizes_do_not_skew(self, profiles):
        # a smaller profile must not win on absent-gram penalties alone
        small_uk = build_language_profile(load_seed_lines("uk"), "uk", k=120)
        mixed = [p for p in profiles if p.lang != "uk"] + [small_uk]
        for lang in ("en", "de", "ru"):
            for line in load_seed_lines(lang)[:10]:
                if len(line) >= 40:
                    assert identify_language(line, mixed)[0] == lang

    def test_margin_in_unit_interval(self, profiles):
        for lang in ("en", "de", "zh", "ru", "uk"):
            for line in load_seed_lines(lang)[:10]:
                _, margin = identify_language(line, profiles)
                assert 0.0 <= margin <= 1.0

    def test_holdout_accuracy(self, profiles):
        # quick smoke version of the full acceptance measurement
        correct = total = 0
        for lang in ("en", "zh"):
            for line in load_seed_lines(lang)[::7]:
                detected, _ = identify_language(line, profiles)
                correct += detected == lang
                total += 1
        assert correct == total


class TestLangGuard:
    def test_identity_when_language_matches(self, profiles):
        hyps = load_seed_lines("de")[:4]
        es = evalset_from_hyps(hyps)
        table = ScoreTable("sys", (0.1, 0.2, 0.3, 0.4))
        guarded, report = apply_lang_guard(es, table, profiles, "de")
        assert guarded == table
        assert report.guarded_count == 0

    def test_wrong_language_zeroed(self, profiles):
        hyps = load_seed_lines("zh")[:5]
        es = evalset_from_hyps(hyps, direction=("en", "ru"))
        table = ScoreTable("sys", (0.536,) * 5)
        guarded, report = apply_lang_guard(es, table, profiles, "ru")
        assert guarded.scores == (0.0,) * 5
        assert set(guarded.guard_flags) == {GUARD_LANG}
        assert report.guarded_count == 5
        assert all(e.detected_lang == "zh" for e in report.per_segment)

    def test_borderline_listed_unreliable(self, profiles):
        # Ukrainian reads as uk but with a margin under the default
        # threshold against ru, so it must stay unguarded yet be noted.
        hyp = "Це речення написане українською мовою і достатньо довге."
        es = evalset_from_hyps([hyp], direction=("en", "ru"))
        table = ScoreTable("sys", (0.77,))
        guarded, report = apply_lang_guard(es, table, profiles, "ru")
        assert guarded == table
        assert report.guarded_count == 0
        assert len(report.unreliable) == 1
        assert report.unreliable[0].detected_lang == "uk"
        assert report.unreliable[0].confidence < 0.05

    def test_empty_and_short_untouched(self, profiles):
        es = evalset_from_hyps(["", "kurz", load_seed_lines("de")[0]])
        table = ScoreTable("sys", (0.5, 0.5, 0.5))
        guarded, report = apply_lang_guard(es, table, profiles, "en")
        # only the long German hypothesis can be guarded under expected en
        assert guarded.scores[:2] == (0.5, 0.5)
        assert guarded.scores[2] == 0.0
        assert report.guarded_count == 1

    def test_empty_untouched_without_a_length_floor(self, profiles):
        es = evalset_from_hyps(["", " \t", "zu kurz"])
        guarded, report = apply_lang_guard(es, ScoreTable("sys", (0.5,) * 3), profiles, "en", min_len=0)
        assert [entry.index for entry in report.per_segment + report.unreliable] == [2]
        assert guarded.scores[:2] == (0.5, 0.5)

    def test_expected_lang_needs_profile(self, profiles):
        es = evalset_from_hyps(["whatever"])
        with pytest.raises(ValueError, match="no profile"):
            apply_lang_guard(es, ScoreTable("sys", (0.5,)), profiles, "fr")

    def test_idempotent(self, profiles):
        hyps = [load_seed_lines("zh")[0], load_seed_lines("ru")[0]]
        es = evalset_from_hyps(hyps, direction=("en", "ru"))
        once, _ = apply_lang_guard(es, ScoreTable("sys", (0.6, 0.7)), profiles, "ru")
        twice, _ = apply_lang_guard(es, once, profiles, "ru")
        assert twice == once

    def test_composition_commutes(self, profiles):
        hyps = ["", load_seed_lines("zh")[0], load_seed_lines("ru")[0]]
        es = evalset_from_hyps(hyps, direction=("en", "ru"))
        table = ScoreTable("sys", (0.3, 0.6, 0.9))
        a, _ = apply_empty_guard(es, table)
        a, _ = apply_lang_guard(es, a, profiles, "ru")
        b, _ = apply_lang_guard(es, table, profiles, "ru")
        b, _ = apply_empty_guard(es, b)
        assert a == b

    def test_guards_never_raise_scores(self, profiles):
        hyps = ["", "kurz", load_seed_lines("zh")[0], load_seed_lines("ru")[1]]
        es = evalset_from_hyps(hyps, direction=("en", "ru"))
        table = ScoreTable("sys", (0.1, 0.2, 0.3, 0.4))
        guarded, _ = apply_empty_guard(es, table)
        guarded, _ = apply_lang_guard(es, guarded, profiles, "ru")
        for before, after, flag in zip(table.scores, guarded.scores, guarded.guard_flags):
            assert after <= before
            if flag is None:
                assert after == before


# Hypotheses the language guard treats differently: empty, too short,
# non-BMP, foreign and expected-language seed lines.
GUARD_HYPS = st.one_of(
    st.sampled_from(["", " \t ", "zu kurz", "😀" * 25, "𝔸𝔹 " * 10]),
    st.sampled_from([line for lang in BUNDLED_SEED_LANGS for line in load_seed_lines(lang)[:4]]),
    LINES,
)


class TestChunkedLangGuard:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(GUARD_HYPS, max_size=12), st.integers(1, 8), st.sampled_from(["de", "ru"]))
    def test_equals_serial_for_any_cpu_count(self, profiles, hyps, cpus, expected):
        es = evalset_from_hyps(hyps, direction=("en", expected))
        table = ScoreTable("sys", tuple(0.5 + i / 100 for i in range(len(hyps))))
        with chunking(1):
            serial = apply_lang_guard(es, table, profiles, expected)
        with chunking(cpus) as forked:
            chunked = apply_lang_guard(es, table, profiles, expected)
        assert chunked == serial  # the guarded table and the report
        assert format_guard_report(chunked[1]) == format_guard_report(serial[1])
        assert len(forked) == max(min(cpus, len(hyps)) - 1, 0)
        assert all(map(reaped, forked))

    def test_worker_error_is_the_serial_error(self, profiles, monkeypatch):
        identify = _RankTable.identify

        def failing_identify(self, text, min_len):
            if text == "the second hypothesis fails here":
                raise ValueError("identification failed")
            return identify(self, text, min_len)

        monkeypatch.setattr(_RankTable, "identify", failing_identify)
        # three chunks of one hypothesis: the second is the worker's first
        german = "ein deutscher Satz, lang genug"
        es = evalset_from_hyps([german, "the second hypothesis fails here", german])
        with chunking(2) as forked, pytest.raises(ValueError, match="^identification failed$"):
            apply_lang_guard(es, ScoreTable("sys", (0.5,) * 3), profiles, "de")
        assert len(forked) == 1 and reaped(forked[0])


class TestGuardReportFormat:
    def test_tsv_with_comment_header(self):
        es = evalset_from_hyps(["", "ok"])
        _, report = apply_empty_guard(es, ScoreTable("sys", (0.1, 0.2)))
        text = format_guard_report(report)
        lines = text.splitlines()
        assert lines[0].startswith("# guarded 1 of 2")
        assert lines[1].startswith("# index")
        assert lines[2].split("\t")[0:2] == ["0", "empty"]
