"""Tests for the scorer backends and the external wire protocol.

The surrogate is checked against an oracle that rebuilds every n-gram
Counter per pair with plain Python loops, independently of the shared
profiles and the per-batch pair memo, and must equal it exactly.
"""

import math
import random
import sys
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtharness.evalset import Direction, EvalSet, ScoreTable, Segment
from mtharness.guards import load_seed_lines
from mtharness.scorer import (
    ExternalBackend,
    PrecomputedBackend,
    ScoreRequest,
    ScorerError,
    SurrogateBackend,
    escape_field,
    format_request_line,
    score_evalset,
    surrogate_score,
    unescape_field,
)

# A child scorer with its own unescaping logic (independent of the
# library), answering each request with a checksum over the decoded
# field characters. If any byte were mangled on the wire, the checksum
# would disagree with one computed locally from the original strings.
CHECKSUM_CHILD = r'''
import sys

TABLE = {"\\": "\\", "t": "\t", "n": "\n"}

def unescape(field):
    chars = []
    i = 0
    while i < len(field):
        if field[i] == "\\":
            chars.append(TABLE[field[i + 1]])
            i += 2
        else:
            chars.append(field[i])
            i += 1
    return "".join(chars)

data = sys.stdin.buffer.read().decode("utf-8")
lines = data.split("\n")
if lines and lines[-1] == "":
    lines.pop()
for line in lines:
    fields = [unescape(f) for f in line.split("\t")]
    total = sum(ord(c) for f in fields for c in f)
    sys.stdout.write(repr((total % 9973) / 9973.0) + "\n")
'''

ECHO_HALF_CHILD = "import sys\nfor _ in sys.stdin.buffer.read().split(b'\\n')[:-1]:\n    print('0.5')\n"

# Answers 0.5 per request, but a request mentioning "bad" gets the
# Latin-1 byte for "é", which is not UTF-8.
LATIN1_ON_BAD_CHILD = r"""
import sys
for line in sys.stdin.buffer.read().split(b"\n")[:-1]:
    sys.stdout.buffer.write(b"0.5\xe9\n" if b"bad" in line else b"0.5\n")
"""


def checksum(fields):
    total = sum(ord(c) for f in fields for c in f)
    return (total % 9973) / 9973.0


def child(tmp_path, source, name="child.py"):
    script = tmp_path / name
    script.write_text(source)
    return [sys.executable, str(script)]


def nasty_strings(rng, n):
    alphabet = "ab\\\t\n xyzäöü雨 \\n"
    return ["".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 30))) for _ in range(n)]


def oracle_ngram_f1(a, b, n):
    """Multiset F1 over character n-grams; None when both sides lack them."""
    grams_a = Counter(a[i : i + n] for i in range(len(a) - n + 1))
    grams_b = Counter(b[i : i + n] for i in range(len(b) - n + 1))
    if not grams_a and not grams_b:
        return None
    if not grams_a or not grams_b:
        return 0.0
    overlap = sum(min(count, grams_b[gram]) for gram, count in grams_a.items())
    return 2.0 * overlap / (sum(grams_a.values()) + sum(grams_b.values()))


def oracle_similarity(a, b):
    values = [f1 for n in range(1, 5) if (f1 := oracle_ngram_f1(a, b, n)) is not None]
    if not values:
        return 0.0
    return math.fsum(values) / len(values)


def oracle_score(request):
    if request.reference is None:
        return oracle_similarity(request.hypothesis, request.source)
    return 0.9 * oracle_similarity(request.hypothesis, request.reference) + 0.1 * oracle_similarity(
        request.hypothesis, request.source
    )


# Empty, whitespace-only, shorter than 4 characters, non-BMP, combining
# and CJK text, plus characters drawn from a small alphabet so that
# n-grams repeat within and across texts.
EDGE_TEXTS = ["", " ", "\t \n", "a", "ab", "abc", "e\u0301", "😀", "😀😀a", "𝔸𝔹", "雨が降る", "aaaa", "abab ab"]
TEXTS = st.one_of(
    st.sampled_from(EDGE_TEXTS),
    st.text(alphabet="ab \te\u0301😀雨", max_size=12),
    st.text(max_size=8),
)


@st.composite
def batches(draw, qe):
    """Requests over a small pool of texts, so texts and pairs repeat."""
    pool = draw(st.lists(TEXTS, min_size=1, max_size=5))
    pick = st.sampled_from(pool)
    n = draw(st.integers(0, 12))
    requests = [ScoreRequest(draw(pick), draw(pick), None if qe else draw(pick)) for _ in range(n)]
    return requests + requests[: draw(st.integers(0, n))]


class TestWireEscaping:
    def test_known_escapes(self):
        assert escape_field("a\tb") == "a\\tb"
        assert escape_field("a\nb") == "a\\nb"
        assert escape_field("a\\tb") == "a\\\\tb"
        assert unescape_field("a\\\\tb") == "a\\tb"

    def test_roundtrip_random(self):
        rng = random.Random(99)
        for text in nasty_strings(rng, 300):
            escaped = escape_field(text)
            assert "\t" not in escaped and "\n" not in escaped
            assert unescape_field(escaped) == text

    def test_invalid_escape_rejected(self):
        with pytest.raises(ScorerError):
            unescape_field("bad \\x escape")
        with pytest.raises(ScorerError):
            unescape_field("dangling\\")

    def test_request_line_field_count(self):
        assert format_request_line(ScoreRequest("s", "h", "r")).count("\t") == 2
        assert format_request_line(ScoreRequest("s", "h")).count("\t") == 1


class TestSurrogate:
    def test_identical_strings_score_one(self):
        assert surrogate_score(ScoreRequest("abc", "abc", "abc")) == 1.0

    def test_empty_hypothesis_scores_zero(self):
        assert surrogate_score(ScoreRequest("src", "", "ref")) == 0.0

    def test_handcomputed_blend(self):
        # hyp == ref gives F=1, hyp vs src shares nothing: 0.9*1 + 0.1*0
        assert surrogate_score(ScoreRequest("zz", "ab", "ab")) == pytest.approx(0.9)

    def test_qe_mode_uses_source(self):
        assert surrogate_score(ScoreRequest("abc", "abc")) == 1.0
        assert surrogate_score(ScoreRequest("zz", "ab")) == 0.0

    def test_bounded(self):
        rng = random.Random(3)
        for _ in range(200):
            req = ScoreRequest(
                "".join(rng.choice("abcd ") for _ in range(rng.randrange(0, 12))),
                "".join(rng.choice("abcd ") for _ in range(rng.randrange(0, 12))),
                "".join(rng.choice("abcd ") for _ in range(rng.randrange(0, 12))),
            )
            assert 0.0 <= surrogate_score(req) <= 1.0

    def test_self_similarity_is_one(self):
        for text in ("a", "ab", "hello world", "雨が降る"):
            assert surrogate_score(ScoreRequest(text, text, text)) == 1.0

    def test_permutation_equivariance(self):
        rng = random.Random(17)
        reqs = [ScoreRequest(s, h, r) for s, h, r in zip(nasty_strings(rng, 40), nasty_strings(rng, 40), nasty_strings(rng, 40))]
        backend = SurrogateBackend()
        base = backend.score_batch(reqs)
        perm = list(range(len(reqs)))
        rng.shuffle(perm)
        shuffled = backend.score_batch([reqs[i] for i in perm])
        assert shuffled == [base[i] for i in perm]

    def test_mixed_modes_rejected(self):
        backend = SurrogateBackend()
        with pytest.raises(ValueError, match="mix"):
            backend.score_batch([ScoreRequest("s", "h", "r"), ScoreRequest("s", "h")])


class TestSurrogateOracle:
    @settings(max_examples=300, deadline=None)
    @given(batches(qe=False))
    def test_reference_mode_equals_oracle_exactly(self, requests):
        assert SurrogateBackend().score_batch(requests) == [oracle_score(req) for req in requests]

    @settings(max_examples=300, deadline=None)
    @given(batches(qe=True))
    def test_qe_mode_equals_oracle_exactly(self, requests):
        assert SurrogateBackend().score_batch(requests) == [oracle_score(req) for req in requests]

    @settings(deadline=None)
    @given(TEXTS, TEXTS, TEXTS)
    def test_single_request_equals_oracle_exactly(self, source, hypothesis, reference):
        for req in (ScoreRequest(source, hypothesis, reference), ScoreRequest(source, hypothesis)):
            assert surrogate_score(req) == oracle_score(req)

    def test_agg_batch_equals_oracle_exactly(self):
        # the six arrangements of multiref agg share three pairs per segment
        rng = random.Random(8)
        requests = []
        for src, hyp, ref, alt in zip(*(nasty_strings(rng, 30) for _ in range(4))):
            requests += [
                ScoreRequest(src, hyp, ref), ScoreRequest(ref, hyp, src), ScoreRequest(src, hyp, alt),
                ScoreRequest(alt, hyp, src), ScoreRequest(ref, hyp, alt), ScoreRequest(alt, hyp, ref),
            ]
        assert SurrogateBackend().score_batch(requests) == [oracle_score(req) for req in requests]

    def test_memory_stays_bounded(self):
        # 4000 distinct ~70-character requests; holding every text's n-gram
        # Counters for the whole batch would take hundreds of MB.
        rng = random.Random(4)
        words = [w for line in load_seed_lines("de") + load_seed_lines("en") for w in line.split()]

        def sentence():
            text = ""
            while len(text) < 70:
                text += rng.choice(words) + " "
            return text.strip()

        requests = [ScoreRequest(sentence(), sentence(), sentence()) for _ in range(4000)]
        assert len({text for req in requests for text in (req.source, req.hypothesis, req.reference)}) == 12000
        backend = SurrogateBackend()
        tracemalloc.start()
        try:
            backend.score_batch(requests)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestPrecomputed:
    def test_lookup_by_index(self):
        backend = PrecomputedBackend(ScoreTable("stored", (0.837,)))
        assert backend.score_batch([ScoreRequest("s", "h", "r")]) == [0.837]

    def test_missing_index_is_error(self):
        backend = PrecomputedBackend(ScoreTable("stored", (0.5, 0.6)))
        reqs = [ScoreRequest("s", "h", "r")] * 3
        with pytest.raises(ScorerError, match="index 2"):
            backend.score_batch(reqs)

    def test_extra_scores_are_error(self):
        backend = PrecomputedBackend(ScoreTable("stored.tsv", (0.5, 0.6, 0.7, 0.8)))
        with pytest.raises(ScorerError, match=r"stored\.tsv has 4 scores but only 2 were requested"):
            backend.score_batch([ScoreRequest("s", "h", "r")] * 2)

    def test_loads_from_tsv(self, tmp_path):
        p = tmp_path / "scores.tsv"
        p.write_text("0\t0.25\n1\t0.75\n# trailer\n")
        backend = PrecomputedBackend(p)
        assert backend.score_batch([ScoreRequest("s", "h")] * 2) == [0.25, 0.75]


class TestExternal:
    def test_echo_half(self, tmp_path):
        backend = ExternalBackend(child(tmp_path, ECHO_HALF_CHILD))
        reqs = [ScoreRequest(f"s{i}", f"h{i}", f"r{i}") for i in range(7)]
        assert backend.score_batch(reqs) == [0.5] * 7

    def test_checksum_roundtrip(self, tmp_path):
        rng = random.Random(41)
        reqs = [
            ScoreRequest(s, h, r)
            for s, h, r in zip(nasty_strings(rng, 200), nasty_strings(rng, 200), nasty_strings(rng, 200))
        ]
        backend = ExternalBackend(child(tmp_path, CHECKSUM_CHILD))
        got = backend.score_batch(reqs)
        expected = [checksum([req.source, req.hypothesis, req.reference]) for req in reqs]
        assert got == expected

    def test_sharding_matches_single_process(self, tmp_path):
        rng = random.Random(42)
        reqs = [ScoreRequest(s, h) for s, h in zip(nasty_strings(rng, 50), nasty_strings(rng, 50))]
        cmd = child(tmp_path, CHECKSUM_CHILD)
        whole = ExternalBackend(cmd).score_batch(reqs)
        sharded = ExternalBackend(cmd, shard_size=7).score_batch(reqs)
        assert sharded == whole

    def test_nonzero_exit_reports_stderr(self, tmp_path):
        cmd = child(tmp_path, "import sys\nsys.stderr.write('kaboom: no model')\nsys.exit(4)\n")
        backend = ExternalBackend(cmd)
        with pytest.raises(ScorerError, match="status 4.*kaboom"):
            backend.score_batch([ScoreRequest("s", "h")])

    def test_short_output_is_error(self, tmp_path):
        cmd = child(tmp_path, "print('0.5')\n")
        backend = ExternalBackend(cmd)
        with pytest.raises(ScorerError, match="answered 1 lines for 3"):
            backend.score_batch([ScoreRequest("s", "h")] * 3)

    def test_non_numeric_output_names_line(self, tmp_path):
        cmd = child(tmp_path, "print('0.5')\nprint('oops')\n")
        backend = ExternalBackend(cmd)
        with pytest.raises(ScorerError, match="line 2"):
            backend.score_batch([ScoreRequest("s", "h")] * 2)

    def test_non_utf8_output_names_shard(self, tmp_path):
        cmd = child(tmp_path, LATIN1_ON_BAD_CHILD)
        backend = ExternalBackend(cmd, shard_size=2)
        reqs = [ScoreRequest("s", "h"), ScoreRequest("s", "h"), ScoreRequest("s", "h"), ScoreRequest("s", "bad")]
        with pytest.raises(ScorerError, match=r"requests 2\.\.3 is not valid UTF-8"):
            backend.score_batch(reqs)

    def test_sharded_errors_name_the_line_in_the_batch(self, tmp_path):
        # the third request (index 2) opens the second shard of two
        reqs = [ScoreRequest("s", f"h{i}") for i in range(4)]
        for answer, problem in (("oops", "not a number"), ("inf", "not finite")):
            cmd = child(tmp_path, f"import sys\nfor line in sys.stdin:\n    print({answer!r} if 'h2' in line else 0.5)\n")
            with pytest.raises(ScorerError, match=f"output line 3 is {problem}: '{answer}'"):
                ExternalBackend(cmd, shard_size=2).score_batch(reqs)

    def test_digit_group_underscore_rejected(self, tmp_path):
        assert float("1_0") == 10.0  # what a bare float() would accept
        cmd = child(tmp_path, "print('0.5')\nprint('1_0')\n")
        backend = ExternalBackend(cmd)
        with pytest.raises(ScorerError, match="line 2 is not a number: '1_0'"):
            backend.score_batch([ScoreRequest("s", "h")] * 2)

    def test_timeout_names_the_hung_shard(self, tmp_path):
        # answers the first shard, hangs on the second (requests 2..3)
        cmd = child(tmp_path, "import sys, time\nif 'h2' in sys.stdin.read():\n    time.sleep(60)\n"
                              "print(0.5)\nprint(0.5)\n")
        reqs = [ScoreRequest("s", f"h{i}") for i in range(4)]
        with pytest.raises(ScorerError, match=r"requests 2\.\.3 did not finish within 2 s and was killed"):
            ExternalBackend(cmd, shard_size=2, timeout=2).score_batch(reqs)

    def test_fast_child_within_timeout_scores(self, tmp_path):
        backend = ExternalBackend(child(tmp_path, ECHO_HALF_CHILD), timeout=30)
        assert backend.score_batch([ScoreRequest("s", "h")] * 3) == [0.5] * 3

    @pytest.mark.parametrize("timeout", [0, -1.0, math.nan, math.inf])
    def test_timeout_must_be_positive_and_finite(self, timeout):
        with pytest.raises(ValueError, match="timeout must be positive and finite"):
            ExternalBackend(["scorer"], timeout=timeout)

    def test_empty_batch_spawns_nothing(self):
        backend = ExternalBackend(["/nonexistent/scorer"])
        assert backend.score_batch([]) == []

    def test_missing_command_errors(self):
        backend = ExternalBackend(["/nonexistent/scorer"])
        with pytest.raises(ScorerError, match="could not run"):
            backend.score_batch([ScoreRequest("s", "h")])


class TestScoreEvalset:
    def test_single_reference(self):
        segs = (Segment(0, "aa", "aa", ("aa",)), Segment(1, "bb", "", ("bb",)))
        es = EvalSet(Direction("en", "de"), "sys", segs)
        table = score_evalset(SurrogateBackend(), es)
        assert table.scores == (1.0, 0.0)
        assert table.system_name == "sys"

    def test_qe_mode(self):
        segs = (Segment(0, "aa", "aa"),)
        es = EvalSet(Direction("en", "de"), "sys", segs)
        assert score_evalset(SurrogateBackend(), es).scores == (1.0,)

    def test_multi_reference_refused(self):
        segs = (Segment(0, "s", "h", ("r1", "r2")),)
        es = EvalSet(Direction("en", "de"), "sys", segs)
        with pytest.raises(ValueError, match="multi-reference"):
            score_evalset(SurrogateBackend(), es)
