"""Tests for the data model and line-file ingestion."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtharness.evalset import (
    Direction,
    EvalSet,
    ScoreTable,
    Segment,
    format_score_rows,
    load_evalset,
    read_lines,
    read_score_table,
    system_score,
)

from helpers import write_evalset, write_score_table


def oracle_read_lines(path):
    """Reference for read_lines: splits the bytes into lines first, then
    decodes each line alone."""
    raw_lines = path.read_bytes().split(b"\n")
    if raw_lines[-1] == b"":
        raw_lines.pop()
    lines = []
    for lineno, raw_line in enumerate(raw_lines, start=1):
        try:
            lines.append(raw_line.removesuffix(b"\r").decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: line {lineno} is not valid UTF-8 ({exc.reason})") from None
    return lines


def outcome(read, path):
    try:
        return read(path)
    except ValueError as exc:
        return str(exc)


# line breaks, a CR, whole and cut-off multi-byte characters, stray
# continuation and invalid bytes, and an encoded surrogate
LINE_FILE_PIECES = [b"a", b" ", b"\n", b"\r", b"\xc3\xa4", b"\xc3", b"\xe2\x82\xac", b"\xe2\x82", b"\x80",
                    b"\xff", b"\xf0\x9f\x98\x80", b"\xf0\x9f", b"\xed\xa0\x80"]


def make_evalset(n, n_refs=1, system="sysA"):
    segments = tuple(
        Segment(index=i, source=f"src {i}", hypothesis=f"hyp {i}", references=tuple(f"ref{k} {i}" for k in range(n_refs)))
        for i in range(n)
    )
    return EvalSet(direction=Direction("en", "de"), system_name=system, segments=segments)


class TestDirection:
    def test_parse_roundtrip(self):
        d = Direction.parse("en-de")
        assert d.src_lang == "en"
        assert d.tgt_lang == "de"
        assert str(d) == "en-de"

    def test_rejects_same_languages(self):
        with pytest.raises(ValueError):
            Direction.parse("en-en")

    @pytest.mark.parametrize("bad", ["en", "en-de-fr", "EN-de", "e1-de", "eng-de", "en-", "-de"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            Direction.parse(bad)


class TestEvalSet:
    def test_empty_is_allowed(self):
        es = make_evalset(0)
        assert len(es) == 0
        assert es.n_references == 0

    def test_indices_must_be_contiguous(self):
        segs = (Segment(0, "a", "b"), Segment(2, "c", "d"))
        with pytest.raises(ValueError, match="contiguous"):
            EvalSet(Direction("en", "de"), "sys", segs)

    def test_reference_count_must_be_uniform(self):
        segs = (Segment(0, "a", "b", ("r",)), Segment(1, "c", "d", ("r", "r2")))
        with pytest.raises(ValueError, match="reference count"):
            EvalSet(Direction("en", "de"), "sys", segs)

    def test_system_name_must_be_nonempty(self):
        with pytest.raises(ValueError, match="system_name"):
            EvalSet(Direction("en", "de"), "", ())

    def test_qe_mode_has_zero_references(self):
        es = make_evalset(3, n_refs=0)
        assert es.n_references == 0


class TestScoreTable:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            ScoreTable("sys", (0.5, math.nan))
        with pytest.raises(ValueError, match="finite"):
            ScoreTable("sys", (math.inf,))


class TestSystemScore:
    def test_known_mean(self):
        # [0.0, 1.0, 0.5, 0.5] averages to exactly 0.5
        assert system_score(ScoreTable("sys", (0.0, 1.0, 0.5, 0.5))) == 0.5

    def test_single_segment_is_identity(self):
        assert system_score(ScoreTable("sys", (0.731,))) == 0.731

    def test_constant_scores(self):
        assert system_score(ScoreTable("sys", (0.25,) * 9)) == pytest.approx(0.25, abs=0)

    def test_empty_table_raises(self):
        with pytest.raises(ValueError, match="empty"):
            system_score(ScoreTable("sys", ()))

    def test_permutation_invariance(self):
        rng = random.Random(7)
        scores = [rng.uniform(-1, 1) for _ in range(50)]
        base = system_score(ScoreTable("sys", tuple(scores)))
        for _ in range(5):
            rng.shuffle(scores)
            assert system_score(ScoreTable("sys", tuple(scores))) == pytest.approx(base, abs=1e-12)


class TestLineFiles:
    def test_crlf_and_lf_agree(self, tmp_path):
        lf = tmp_path / "lf.txt"
        crlf = tmp_path / "crlf.txt"
        lf.write_bytes("ein Satz\nzwei Sätze\n".encode("utf-8"))
        crlf.write_bytes("ein Satz\r\nzwei Sätze\r\n".encode("utf-8"))
        assert read_lines(lf) == read_lines(crlf) == ["ein Satz", "zwei Sätze"]

    def test_missing_final_newline_ok(self, tmp_path):
        p = tmp_path / "x.txt"
        p.write_bytes(b"a\nb")
        assert read_lines(p) == ["a", "b"]

    def test_bad_utf8_names_line(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_bytes(b"fine\n\xff\xfe broken\n")
        with pytest.raises(ValueError, match="line 2"):
            read_lines(p)

    @pytest.mark.parametrize("data, line, reason", [
        (b"fine\nab\xc3\xa4\xc3\ncd\n", 2, "unexpected end of data"),
        (b"fine\nab\xc3\xa4\xc3\r\ncd\r\n", 2, "unexpected end of data"),
        (b"fine\nok\n\xe2\x82", 3, "unexpected end of data"),
        (b"fine\n\xc3x\n", 2, "invalid continuation byte"),
        (b"fine\r\n\xc3x\r\n", 2, "invalid continuation byte"),
        (b"\xff\n", 1, "invalid start byte"),
    ], ids=["cut-off-lf", "cut-off-crlf", "cut-off-at-eof", "continuation-lf", "continuation-crlf", "start-byte"])
    def test_bad_utf8_gives_the_lines_own_reason(self, tmp_path, data, line, reason):
        p = tmp_path / "bad.txt"
        p.write_bytes(data)
        with pytest.raises(ValueError) as exc:
            read_lines(p)
        assert str(exc.value) == f"{p}: line {line} is not valid UTF-8 ({reason})"

    def test_only_the_final_cr_of_a_line_is_stripped(self, tmp_path):
        p = tmp_path / "cr.txt"
        p.write_bytes(b"a\rb\r\nc\r\r\n\r\nd\r")
        assert read_lines(p) == ["a\rb", "c\r", "", "d"]

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.sampled_from(LINE_FILE_PIECES), max_size=16).map(b"".join))
    def test_equals_the_line_by_line_oracle(self, tmp_path_factory, data):
        p = tmp_path_factory.mktemp("lines") / "x.txt"
        p.write_bytes(data)
        assert outcome(read_lines, p) == outcome(oracle_read_lines, p)

    def test_load_happy_path(self, tmp_path):
        (tmp_path / "src").write_text("s0\ns1\n")
        (tmp_path / "hyp").write_text("h0\nh1\n")
        (tmp_path / "ref").write_text("r0\nr1\n")
        es = load_evalset(tmp_path / "src", tmp_path / "hyp", [tmp_path / "ref"], Direction("en", "de"), "sysA")
        assert len(es) == 2
        assert es.segments[1] == Segment(1, "s1", "h1", ("r1",))

    def test_line_count_mismatch_names_files(self, tmp_path):
        (tmp_path / "src").write_text("s0\ns1\n")
        (tmp_path / "hyp").write_text("h0\n")
        with pytest.raises(ValueError) as err:
            load_evalset(tmp_path / "src", tmp_path / "hyp", [], Direction("en", "de"), "sysA")
        assert "src: 2 lines" in str(err.value)
        assert "hyp: 1 lines" in str(err.value)

    def test_write_then_load_roundtrip(self, tmp_path):
        es = make_evalset(5, n_refs=2)
        paths = (tmp_path / "s", tmp_path / "h", [tmp_path / "r0", tmp_path / "r1"])
        write_evalset(es, *paths)
        again = load_evalset(*paths, direction=es.direction, system_name=es.system_name)
        assert again == es

    def test_write_rejects_embedded_newline(self, tmp_path):
        es = EvalSet(Direction("en", "de"), "sys", (Segment(0, "a\nb", "h", ()),))
        with pytest.raises(ValueError, match="line break"):
            write_evalset(es, tmp_path / "s", tmp_path / "h", [])


class TestScoreTableIO:
    def test_rows_use_repr(self):
        t = ScoreTable("sys", (0.1, 1.0 / 3.0))
        rows = format_score_rows(t)
        assert rows[0] == "0\t0.1"
        assert rows[1] == f"1\t{1.0 / 3.0!r}"

    def test_roundtrip_is_exact(self, tmp_path):
        rng = random.Random(13)
        t = ScoreTable("sys", tuple(rng.uniform(-2, 2) for _ in range(200)))
        p = tmp_path / "scores.tsv"
        write_score_table(t, p)
        again = read_score_table(p, "sys")
        assert again.scores == t.scores

    def test_comments_skipped(self, tmp_path):
        p = tmp_path / "scores.tsv"
        p.write_text("0\t0.5\n1\t0.25\n# trailer line\n")
        assert read_score_table(p).scores == (0.5, 0.25)

    def test_gap_in_indices_rejected(self, tmp_path):
        p = tmp_path / "scores.tsv"
        p.write_text("0\t0.5\n2\t0.25\n")
        with pytest.raises(ValueError, match="expected index 1"):
            read_score_table(p)

    @pytest.mark.parametrize("index", ["+1", " 1", "1 ", "01", "\u0661", "1_0"])
    def test_index_must_be_plain_decimal(self, tmp_path, index):
        expected = int(index)  # int() reads each as the next index
        p = tmp_path / "scores.tsv"
        p.write_text("".join(f"{i}\t0.5\n" for i in range(expected)) + f"{index}\t0.25\n", encoding="utf-8")
        with pytest.raises(ValueError) as info:
            read_score_table(p)
        assert str(info.value) == f"{p}: line {expected + 1}: expected index {expected}, got {index!r}"

    def test_malformed_row_rejected(self, tmp_path):
        p = tmp_path / "scores.tsv"
        p.write_text("0\t0.5\tsurplus\n")
        with pytest.raises(ValueError, match="index<TAB>score"):
            read_score_table(p)
