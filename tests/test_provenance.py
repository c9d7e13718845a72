"""Tests for signatures, citations, and the model-reporting check."""

import random

import pytest

from mtharness.provenance import (
    PRECISIONS,
    Signature,
    check_reporting,
    cite,
    make_signature,
    parse_signature,
)

from helpers import known_models


class TestSignature:
    def test_example_rendering(self):
        got = make_signature("unite-mup", interpreter_version="3.11.8", framework_version="2.2.2", precision="fp32")
        assert got == "Python3.11.8|Comet2.2.2|fp32|unite-mup"

    def test_unknown_fields_render_unk(self):
        assert make_signature("m") == "Pythonunk|Cometunk|unk|m"

    def test_exactly_three_separators(self):
        assert make_signature("wmt22-comet-da", precision="fp16").count("|") == 3

    def test_pipe_in_field_rejected(self):
        with pytest.raises(ValueError, match="'[|]'"):
            make_signature("bad|model")

    def test_empty_model_rejected(self):
        with pytest.raises(ValueError, match="non-empty model"):
            make_signature("")

    @pytest.mark.parametrize("field", ["interpreter_version", "framework_version"])
    def test_empty_version_rejected(self, field):
        with pytest.raises(ValueError, match=f"^signature field {field} must not be empty; 'unk' marks"):
            Signature("m", **{field: ""})

    @pytest.mark.parametrize("text, field", [
        ("Python|Comet|unk|x", "interpreter_version"),
        ("Python3.11.8|Comet|unk|x", "framework_version"),
        ("Python|Comet2.2.2|fp32|x", "interpreter_version"),
    ])
    def test_parse_rejects_empty_version(self, text, field):
        with pytest.raises(ValueError, match=f"signature field {field} must not be empty"):
            parse_signature(text)

    def test_bad_precision_rejected(self):
        with pytest.raises(ValueError, match="precision"):
            Signature("m", precision="int8")

    def test_parse_render_roundtrip(self):
        rng = random.Random(61)
        letters = "abcdefghij0123456789.-_"
        for _ in range(200):
            sig = Signature(
                model="".join(rng.choice(letters) for _ in range(rng.randrange(1, 12))),
                interpreter_version=rng.choice(["unk", "3.10.12", "3.11.8", "3.12.0"]),
                framework_version=rng.choice(["unk", "2.2.2", "2.0.1", "1.10"]),
                precision=rng.choice(PRECISIONS),
            )
            assert parse_signature(sig.render()) == sig

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValueError, match="four"):
            parse_signature("Python3.11|Comet2.2|fp32")
        with pytest.raises(ValueError, match="malformed"):
            parse_signature("Py3.11|Comet2.2|fp32|m")


class TestCite:
    def test_xcomet_example(self):
        record = cite("Unbabel/xcomet-xl")
        assert record.url == "https://arxiv.org/abs/2310.10482"
        assert record.bibtex.startswith("@misc{guerreiro2023xcomet")

    def test_case_and_prefix_insensitive(self):
        assert cite("unbabel/XCOMET-XL") == cite("xcomet-xl")
        assert cite("Unbabel/wmt22-comet-da") == cite("WMT22-COMET-DA")

    def test_wmt22_is_not_the_base_paper(self):
        record = cite("wmt22-comet-da")
        assert record.url == "https://aclanthology.org/2022.wmt-1.52"
        assert "2020" not in record.url

    def test_base_paper_only_when_explicit(self):
        record = cite("comet")
        assert record.url == "https://aclanthology.org/2020.emnlp-main.213"

    def test_unknown_model_suggests_three(self):
        with pytest.raises(KeyError) as err:
            cite("xcomet-large")
        message = str(err.value)
        assert "xcomet-xl" in message
        suggestions = message.split("nearest known keys: ")[1].rstrip("'\"")
        assert len(suggestions.split(", ")) == 3

    def test_database_is_well_formed(self):
        assert len(known_models()) >= 9
        for name in known_models():
            record = cite(name)
            assert record.url.startswith("https://")
            assert record.bibtex.startswith("@")


class TestCheckReporting:
    def test_versioned_name_matches_once(self):
        assert check_reporting("we use wmt22-comet-da") == ["wmt22-comet"]

    def test_bare_comet_does_not_match(self):
        assert check_reporting("we use COMET for evaluation") == []

    def test_two_matches(self):
        assert check_reporting("scores from xcomet-xl and comet 22") == ["xcomet-", "comet 22"]

    def test_case_insensitive(self):
        assert check_reporting("WMT-DA-ESTIMATOR was used") == ["WMT-DA-ESTIMATOR"]

    def test_concatenation_only_adds_matches(self):
        rng = random.Random(67)
        pieces = [
            "we evaluate with comet-da on all pairs",
            "nothing to see here",
            "xcomet-xxl scores",
            "the wmt21-comet model",
            "plain text about translation",
        ]
        for _ in range(50):
            t1, t2 = rng.choice(pieces), rng.choice(pieces)
            combined = check_reporting(t1 + " " + t2)
            for match in check_reporting(t1) + check_reporting(t2):
                assert match in combined
