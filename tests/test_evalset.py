"""Tests for the data model and line-file ingestion."""

import math
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtharness.evalset import (
    Direction,
    EvalSet,
    Record,
    ScoreTable,
    Segment,
    format_score_rows,
    load_evalset,
    read_lines,
    read_score_table,
    system_score,
)

from mtharness.biaslab import DistBiasReport, SynthExample, TagBiasReport
from mtharness.guards import GuardEntry, GuardReport, LanguageProfile
from mtharness.metastats import SystemRanking
from mtharness.provenance import CitationRecord, Signature
from mtharness.scorer import ScoreRequest

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
            ScoreTable((0.5, math.nan))
        with pytest.raises(ValueError, match="finite"):
            ScoreTable((math.inf,))


class TestSystemScore:
    def test_known_mean(self):
        # [0.0, 1.0, 0.5, 0.5] averages to exactly 0.5
        assert system_score(ScoreTable((0.0, 1.0, 0.5, 0.5))) == 0.5

    def test_single_segment_is_identity(self):
        assert system_score(ScoreTable((0.731,))) == 0.731

    def test_constant_scores(self):
        assert system_score(ScoreTable((0.25,) * 9)) == pytest.approx(0.25, abs=0)

    def test_empty_table_raises(self):
        with pytest.raises(ValueError, match="empty"):
            system_score(ScoreTable(()))

    def test_permutation_invariance(self):
        rng = random.Random(7)
        scores = [rng.uniform(-1, 1) for _ in range(50)]
        base = system_score(ScoreTable(tuple(scores)))
        for _ in range(5):
            rng.shuffle(scores)
            assert system_score(ScoreTable(tuple(scores))) == pytest.approx(base, abs=1e-12)


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
        t = ScoreTable((0.1, 1.0 / 3.0))
        rows = format_score_rows(t)
        assert rows[0] == "0\t0.1"
        assert rows[1] == f"1\t{1.0 / 3.0!r}"

    def test_roundtrip_is_exact(self, tmp_path):
        rng = random.Random(13)
        t = ScoreTable(tuple(rng.uniform(-2, 2) for _ in range(200)))
        p = tmp_path / "scores.tsv"
        write_score_table(t, p)
        again = read_score_table(p)
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
        row = f"{index}\t0.25"
        p.write_text("".join(f"{i}\t0.5\n" for i in range(expected)) + row + "\n", encoding="utf-8")
        with pytest.raises(ValueError) as info:
            read_score_table(p)
        if index != index.strip():  # read_score_rows rejects it before the index is read
            problem = f"whitespace around a field in {row!r}"
        else:
            problem = f"expected index {expected}, got {index!r}"
        assert str(info.value) == f"{p}: line {expected + 1}: {problem}"

    @pytest.mark.parametrize("row", ["1\t0.25 ", "1\t 0.25", "1 \t0.25", "1\t0.25\u3000", "1\t0.25\x0b"])
    def test_whitespace_around_a_field_rejected(self, tmp_path, row):
        p = tmp_path / "scores.tsv"
        p.write_text(f"0\t0.5\n{row}\n", encoding="utf-8")
        with pytest.raises(ValueError) as info:
            read_score_table(p)
        assert str(info.value) == f"{p}: line 2: whitespace around a field in {row!r}"

    def test_malformed_row_rejected(self, tmp_path):
        p = tmp_path / "scores.tsv"
        p.write_text("0\t0.5\tsurplus\n")
        with pytest.raises(ValueError, match="index<TAB>score"):
            read_score_table(p)


# --- records -----------------------------------------------------------------

EN_DE = Direction("en", "de")
SEG = Segment(0, "a", "b", ("c",))


class DirectionSubclass(Direction):
    __slots__ = ()  # adds no field: it has Direction's


# (class, every field by keyword, the dataclass-style repr of that record,
#  one field changed, the fields a call with only the required ones fills in)
RECORDS = [
    pytest.param(
        Direction, {"src_lang": "en", "tgt_lang": "de"}, "Direction(src_lang='en', tgt_lang='de')",
        {"tgt_lang": "zh"}, None, id="Direction",
    ),
    pytest.param(
        Segment, {"index": 0, "source": "a", "hypothesis": "b", "references": ("c",)},
        "Segment(index=0, source='a', hypothesis='b', references=('c',))",
        {"index": 1}, {"references": ()}, id="Segment",
    ),
    pytest.param(
        EvalSet, {"direction": EN_DE, "system_name": "sys", "segments": (SEG,)},
        "EvalSet(direction=Direction(src_lang='en', tgt_lang='de'), system_name='sys',"
        " segments=(Segment(index=0, source='a', hypothesis='b', references=('c',)),))",
        {"system_name": "other"}, None, id="EvalSet",
    ),
    pytest.param(
        ScoreTable, {"scores": (0.5, 0.25)}, "ScoreTable(scores=(0.5, 0.25))",
        {"scores": (0.5,)}, None, id="ScoreTable",
    ),
    pytest.param(
        Signature, {"model": "m", "interpreter_version": "3.11", "framework_version": "2.2", "precision": "fp32"},
        "Signature(model='m', interpreter_version='3.11', framework_version='2.2', precision='fp32')",
        {"precision": "fp16"}, {"interpreter_version": "unk", "framework_version": "unk", "precision": "unk"},
        id="Signature",
    ),
    pytest.param(
        CitationRecord, {"url": "https://x", "bibtex": "@misc{k}"},
        "CitationRecord(url='https://x', bibtex='@misc{k}')",
        {"url": "https://y"}, None, id="CitationRecord",
    ),
    pytest.param(
        SystemRanking, {"entries": (("a", 1.0), ("b", 0.5))}, "SystemRanking(entries=(('a', 1.0), ('b', 0.5)))",
        {"entries": ()}, None, id="SystemRanking",
    ),
    pytest.param(
        GuardEntry, {"index": 2, "reason": "lang_mismatch", "detected_lang": "en", "confidence": 0.5},
        "GuardEntry(index=2, reason='lang_mismatch', detected_lang='en', confidence=0.5)",
        {"confidence": 0.25}, {"detected_lang": None, "confidence": 1.0}, id="GuardEntry",
    ),
    pytest.param(
        GuardReport, {"total": 3, "per_segment": (GuardEntry(0, "empty"),), "unreliable": ()},
        "GuardReport(total=3, per_segment=(GuardEntry(index=0, reason='empty', detected_lang=None, confidence=1.0),),"
        " unreliable=())",
        {"total": 4}, {"per_segment": (), "unreliable": ()}, id="GuardReport",
    ),
    pytest.param(
        LanguageProfile, {"lang": "de", "ranked_ngrams": (" ", "e")}, "LanguageProfile(lang='de', ranked_ngrams=(' ', 'e'))",
        {"lang": "en"}, None, id="LanguageProfile",
    ),
    pytest.param(
        ScoreRequest, {"source": "s", "hypothesis": "h", "reference": "r"},
        "ScoreRequest(source='s', hypothesis='h', reference='r')",
        {"reference": None}, {"reference": None}, id="ScoreRequest",
    ),
    pytest.param(
        SynthExample,
        {"direction": EN_DE, "source": "s", "hypothesis": "h", "reference": "r", "gold_da": 0.5, "quality": 0.25,
         "tag": "2020"},
        "SynthExample(direction=Direction(src_lang='en', tgt_lang='de'), source='s', hypothesis='h', reference='r',"
        " gold_da=0.5, quality=0.25, tag='2020')",
        {"gold_da": 0.75}, {"tag": None}, id="SynthExample",
    ),
    pytest.param(
        DistBiasReport, {"directions": ("en-de", "en-zh"), "rows": (("all", 0.5, 0.25),)},
        "DistBiasReport(directions=('en-de', 'en-zh'), rows=(('all', 0.5, 0.25),))",
        {"rows": ()}, None, id="DistBiasReport",
    ),
    pytest.param(
        TagBiasReport, {"rows": (("2019", 0.5, True),)}, "TagBiasReport(rows=(('2019', 0.5, True),))",
        {"rows": ()}, None, id="TagBiasReport",
    ),
    pytest.param(
        DirectionSubclass, {"src_lang": "en", "tgt_lang": "de"}, "DirectionSubclass(src_lang='en', tgt_lang='de')",
        {"src_lang": "fr"}, None, id="subclass-without-fields",
    ),
]


@pytest.mark.parametrize("cls, fields, expected_repr, changed, defaults", RECORDS)
class TestRecords:
    def test_fields_in_order(self, cls, fields, expected_repr, changed, defaults):
        assert issubclass(cls, Record)
        assert cls._fields == tuple(fields)
        record = cls(*fields.values())
        assert {name: getattr(record, name) for name in fields} == fields
        assert not hasattr(record, "__dict__")

    def test_equal_fields_give_equal_records_and_hashes(self, cls, fields, expected_repr, changed, defaults):
        a, b = cls(**fields), cls(*fields.values())
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        other = cls(**{**fields, **changed})
        assert other != a and not other == a

    def test_never_equal_to_another_class(self, cls, fields, expected_repr, changed, defaults):
        other = type(cls.__name__, (cls,), {"__slots__": ()})  # same name, same fields
        record = cls(**fields)
        assert record != other(**fields) and other(**fields) != record
        assert record != tuple(fields.values())

    def test_repr_has_dataclass_form(self, cls, fields, expected_repr, changed, defaults):
        assert repr(cls(**fields)) == expected_repr

    def test_assigning_or_deleting_raises(self, cls, fields, expected_repr, changed, defaults):
        record = cls(**fields)
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(record, name, fields[name])
            with pytest.raises(AttributeError):
                delattr(record, name)
            assert getattr(record, name) == fields[name]
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_defaults_and_keywords(self, cls, fields, expected_repr, changed, defaults):
        if defaults is None:
            with pytest.raises(TypeError):
                cls(*list(fields.values())[:-1])
            return
        required = {name: value for name, value in fields.items() if name not in defaults}
        record = cls(**required)
        assert {name: getattr(record, name) for name in defaults} == defaults
        assert record == cls(*required.values(), **defaults)

    def test_pickle_round_trip(self, cls, fields, expected_repr, changed, defaults):
        record = cls(**fields)
        assert pickle.loads(pickle.dumps(record)) == record


@pytest.mark.parametrize("cls, arguments, message", [
    (Direction, ("en", "en"), "source and target language are both 'en'"),
    (Direction, ("EN", "de"), "invalid language code 'EN'"),
    (EvalSet, (EN_DE, "", ()), "system_name must be non-empty"),
    (EvalSet, (EN_DE, "sys", (Segment(1, "a", "b"),)), "position 0 has index 1"),
    (EvalSet, (EN_DE, "sys", (Segment(0, "a", "b"), Segment(1, "a", "b", ("c",)))), "same reference count, found [0, 1]"),
    (ScoreTable, ((0.5, math.nan),), "score at index 1 is not finite: nan"),
    (ScoreTable, ((math.inf,),), "score at index 0 is not finite: inf"),
    (Signature, ("",), "signature needs a non-empty model identifier"),
    (Signature, ("m", ""), "signature field interpreter_version must not be empty"),
    (Signature, ("m", "unk", "unk", "fp64"), "precision must be one of fp32, fp16, qint8, unk, got 'fp64'"),
    (Signature, ("m", "unk", "2|2"), "signature field framework_version must not contain '|'"),
    (Signature, ("m", "unk", ""), "signature field framework_version must not be empty"),
    (Signature, ("m|n",), "signature field model must not contain '|'"),
    (SystemRanking, ((("a", 1.0), ("a", 0.5)),), "system names in a ranking must be unique"),
    (GuardReport, (0, [GuardEntry(0, "empty")]), "more guarded segments than segments"),
    (LanguageProfile, ("de", ["e", "e"]), "profile contains duplicate n-grams"),
    (LanguageProfile, ("de", []), "a profile must hold at least one n-gram"),
])
def test_record_validation_still_raises(cls, arguments, message):
    with pytest.raises(ValueError) as info:
        cls(*arguments)
    assert message in str(info.value)


@pytest.mark.parametrize("cls, arguments, field, expected", [
    (Segment, (0, "a", "b", ["c"]), "references", ("c",)),
    (EvalSet, (EN_DE, "sys", [SEG]), "segments", (SEG,)),
    (ScoreTable, ([1, 0.5],), "scores", (1.0, 0.5)),
    (SystemRanking, ([["a", 1]],), "entries", (("a", 1.0),)),
    (GuardReport, (2, [GuardEntry(0, "empty")], [GuardEntry(1, "empty")]), "unreliable", (GuardEntry(1, "empty"),)),
    (LanguageProfile, ("de", ["e"]), "ranked_ngrams", ("e",)),
])
def test_record_sequences_become_tuples(cls, arguments, field, expected):
    value = getattr(cls(*arguments), field)
    assert type(value) is tuple and value == expected
    assert all(type(v) is type(e) for v, e in zip(value, expected))
