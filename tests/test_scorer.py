"""Tests for the scorer backends and the external wire protocol.

The surrogate is checked against an oracle that rebuilds every n-gram
Counter per pair with plain Python loops, independently of the
hypothesis counts a segment's pairs share, the counting of shared
n-grams only and the per-batch pair memo, and must equal it exactly.
"""

import errno
import math
import os
import random
import select
import shlex
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from collections import Counter
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtharness import scorer
from mtharness.cli import EXIT_CONFIG, main
from mtharness.evalset import Direction, EvalSet, Segment, read_score_table
from mtharness.guards import load_seed_lines
from mtharness.scorer import (
    ExternalBackend,
    ScoreRequest,
    ScorerError,
    SurrogateBackend,
    escape_field,
    format_request_line,
    map_chunks,
    score_evalset,
)

from helpers import chunking, hard_timeout, kill_quietly, process_gone, reaped, surrogate_score, unescape_field

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


def agg_requests(src, hyp, ref, alt):
    """The six arrangements of multiref agg, which share three pairs per segment."""
    return [
        ScoreRequest(src, hyp, ref), ScoreRequest(ref, hyp, src), ScoreRequest(src, hyp, alt),
        ScoreRequest(alt, hyp, src), ScoreRequest(ref, hyp, alt), ScoreRequest(alt, hyp, ref),
    ]


AGG_BATCHES = st.lists(st.tuples(TEXTS, TEXTS, TEXTS, TEXTS), max_size=4).map(
    lambda segments: [req for segment in segments for req in agg_requests(*segment)]
)


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
            requests += agg_requests(src, hyp, ref, alt)
        assert SurrogateBackend().score_batch(requests) == [oracle_score(req) for req in requests]

    @pytest.mark.parametrize("orders", [(1, 2, 3, 4), (1, 2, 3), (2, 4), (3,)])
    @pytest.mark.parametrize("text", ["", "a", "ab", "abc", "abcd", "aaaa", "😀", "😀𝔸😀", "e\u0301", "e\u0301e\u0301", "雨が降る"])
    def test_char_ngrams_equal_slices_order_by_order(self, text, orders):
        assert scorer.char_ngrams(text, orders) == [text[i : i + n] for n in orders for i in range(len(text) - n + 1)]

    def test_every_pair_of_short_lengths_equals_oracle_exactly(self):
        # lengths 0..5 over a repeating alphabet: "aaaa" against "aa" shares
        # grams of orders 1-2 and only one side has orders 3-4
        texts = {text[:length] for length in range(6) for text in ("aaaaa", "ababa", "aabab", "abcab")}
        for hyp, other in product(sorted(texts), repeat=2):
            req = ScoreRequest(other, hyp)
            assert surrogate_score(req) == oracle_score(req), (hyp, other)

    @settings(deadline=None)
    @given(TEXTS.filter(bool))
    def test_identical_texts_score_exactly_one(self, text):
        assert surrogate_score(ScoreRequest(text, text, text)) == 1.0
        assert surrogate_score(ScoreRequest(text, text)) == 1.0

    def test_agg_shares_three_similarities_per_segment(self):
        # each segment pairs its hypothesis with its source and two references
        n = 25
        requests = [
            req for i in range(n) for req in agg_requests(f"source {i}", f"hypothesis {i}", f"reference {i}", f"other {i}")
        ]
        with chunking(1, min_chunk=None), \
                mock.patch.object(scorer, "_similarity", wraps=scorer._similarity) as similarity, \
                mock.patch.object(scorer, "char_ngrams", wraps=scorer.char_ngrams) as ngrams:
            scores = SurrogateBackend().score_batch(requests)
        assert scores == [oracle_score(req) for req in requests]
        assert similarity.call_count == 3 * n
        # n-grams are made once per hypothesis and once per other text
        counted = Counter(call.args[0] for call in ngrams.call_args_list)
        assert len(counted) == 4 * n and set(counted.values()) == {1}

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
            with chunking(1, min_chunk=None):  # the whole batch in this process, where tracemalloc sees it
                backend.score_batch(requests)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


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

    @pytest.mark.parametrize("failure, message", [
        ("sys.stderr.write('kaboom')\n    sys.exit(4)", r"requests 2\.\.3 exited with status 4: kaboom"),
        ("print(0.5)\n    sys.exit()", r"requests 2\.\.3 answered 1 lines for 2 requests"),
    ], ids=["status", "line-count"])
    def test_sharded_shard_errors_name_the_shard(self, tmp_path, failure, message):
        # only the second shard of two (requests 2..3) fails
        cmd = child(tmp_path, f"import sys\ndata = sys.stdin.read()\nif 'h2' in data:\n    {failure}\n"
                              "print(0.5)\nprint(0.5)\n")
        reqs = [ScoreRequest("s", f"h{i}") for i in range(4)]
        with pytest.raises(ScorerError, match=f"^external scorer for {message}$"):
            ExternalBackend(cmd, shard_size=2).score_batch(reqs)

    def test_digit_group_underscore_rejected(self, tmp_path):
        assert float("1_0") == 10.0  # what a bare float() would accept
        cmd = child(tmp_path, "print('0.5')\nprint('1_0')\n")
        backend = ExternalBackend(cmd)
        with pytest.raises(ScorerError, match="line 2 is not a number: '1_0'"):
            backend.score_batch([ScoreRequest("s", "h")] * 2)

    @pytest.mark.parametrize("spelling, problem", [
        ("0.5", None), (" 0.5", None), ("1e-3", None), ("0_5", "is not a number"), ("1_0.0", "is not a number"),
        ("nan", "is not finite"), ("inf", "is not finite"), ("junk", "is not a number"),
    ])
    def test_score_table_and_child_read_a_number_alike(self, tmp_path, spelling, problem):
        # a table also rejects whitespace around a field; a child's answer line may carry it
        table = tmp_path / "scores.tsv"
        table.write_text(f"0\t{spelling}\n", encoding="utf-8")
        backend = ExternalBackend(child(tmp_path, f"print({spelling!r})\n"))
        table_problem = "whitespace around a field" if spelling != spelling.strip() else problem
        for read, expected in (
            (lambda: list(read_score_table(table).scores), table_problem),
            (lambda: backend.score_batch([ScoreRequest("s", "h")]), problem),
        ):
            if expected is None:
                assert read() == [float(spelling)]
            else:
                with pytest.raises(ValueError, match=expected):  # a ScorerError is a ValueError
                    read()

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

    @pytest.mark.parametrize("command, shard_size, message", [
        ([], None, "external backend needs a non-empty command"),
        (["scorer"], 0, "shard size must be at least 1, got 0"),
    ], ids=["empty-command", "shard-size-zero"])
    def test_constructor_rejects(self, command, shard_size, message):
        with pytest.raises(ValueError, match=message):
            ExternalBackend(command, shard_size=shard_size)

    def test_empty_batch_spawns_nothing(self):
        backend = ExternalBackend(["/nonexistent/scorer"])
        assert backend.score_batch([]) == []

    def test_missing_command_errors(self):
        backend = ExternalBackend(["/nonexistent/scorer"])
        with pytest.raises(ScorerError, match="could not run"):
            backend.score_batch([ScoreRequest("s", "h")])


# Children for the shard pool. Each serves one request "h<i>" (shard i
# with shard_size=1) and gets the test's directory as its argument.
POOL_CHILD_HEAD = """\
import os, pathlib, re, sys, time
here = pathlib.Path(sys.argv[1])
shard = int(re.search(r"h(\\d+)", sys.stdin.read()).group(1))

def publish(name, text):
    (here / (name + ".tmp")).write_text(text)
    os.replace(here / (name + ".tmp"), here / name)

def wait_for(name):
    deadline = time.monotonic() + 20
    while not (here / name).exists():
        if time.monotonic() > deadline:
            sys.exit(f"shard {shard} waited 20 s for {name}")
        time.sleep(0.01)
"""

# Each shard of two waits for the other's marker, so both finish only if
# they run at the same time.
MEETING_CHILD = POOL_CHILD_HEAD + """\
publish(f"marker{shard}", "")
wait_for(f"marker{1 - shard}")
print(0.5)
"""

# Fails if another scorer holds the lock file while it runs.
LOCKING_CHILD = POOL_CHILD_HEAD + """\
try:
    fd = os.open(here / "lock", os.O_CREAT | os.O_EXCL | os.O_WRONLY)
except FileExistsError:
    sys.exit(f"shard {shard} found the lock taken")
time.sleep(0.2)
os.close(fd)
os.unlink(here / "lock")
print(0.5)
"""

# Shard 0 answers junk after 1 s; shard 1 exits 3 at once.
SLOW_JUNK_CHILD = POOL_CHILD_HEAD + """\
if shard == 0:
    time.sleep(1)
    print("junk")
else:
    sys.exit(3)
"""

# Logs its pid; shard 0 exits 5 once shard 1 has published its pid, and
# every other shard sleeps.
FAIL_FIRST_CHILD = POOL_CHILD_HEAD + """\
with open(here / "spawns", "a") as log:
    log.write(f"{os.getpid()}\\n")
if shard == 0:
    wait_for("pid1")
    sys.exit(5)
publish(f"pid{shard}", str(os.getpid()))
time.sleep(60)
"""

# Publishes its pid and sleeps.
SLEEPING_CHILD = POOL_CHILD_HEAD + """\
publish(f"pid{shard}", str(os.getpid()))
time.sleep(60)
"""

# Leaves behind a grandchild in a session of its own, which keeps the
# child's stdout and stderr open for 60 s, and publishes its pid.
LEAVE_GRANDCHILD = """\
import subprocess
escaped = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"], start_new_session=True)
publish(f"escaped{shard}", str(escaped.pid))
"""
# Leaves the escaped grandchild behind and sleeps.
ESCAPE = LEAVE_GRANDCHILD + "time.sleep(60)\n"
ESCAPING_CHILD = POOL_CHILD_HEAD + ESCAPE

# Leaves the escaped grandchild behind, answers and exits 0.
ANSWER_BESIDE_ESCAPED_CHILD = POOL_CHILD_HEAD + LEAVE_GRANDCHILD + "print(0.5)\n"

# Shard 0 exits 5 once shard 1 has left its escaped grandchild behind.
FAIL_BESIDE_ESCAPED_CHILD = POOL_CHILD_HEAD + """\
if shard == 0:
    wait_for("escaped1")
    sys.exit(5)
""" + ESCAPE


def escaped_pids(tmp_path):
    return [int(path.read_text()) for path in tmp_path.glob("escaped*")]


@pytest.fixture
def cpus(monkeypatch):
    """Makes the backend see this many usable CPUs."""
    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    return set_cpus


def pool_backend(tmp_path, source, **kwargs):
    return ExternalBackend([*child(tmp_path, source), str(tmp_path)], shard_size=1, **kwargs)


def shard_requests(n):
    return [ScoreRequest("s", f"h{i}") for i in range(n)]


def open_fds():
    """How many file descriptors this process holds open."""
    return len(os.listdir("/proc/self/fd"))


def pidfds_work():
    try:
        os.close(os.pidfd_open(os.getpid()))
    except (AttributeError, OSError):
        return False
    return True


def refuse_pidfd(pid):
    raise OSError(errno.ENOSYS, "pidfd_open refused")


class TestExternalPool:
    def test_two_cpus_run_two_shards_at_once(self, tmp_path, cpus):
        cpus(2)
        with hard_timeout(60):
            assert pool_backend(tmp_path, MEETING_CHILD).score_batch(shard_requests(2)) == [0.5, 0.5]

    def test_one_cpu_runs_one_child_at_a_time(self, tmp_path, cpus):
        cpus(1)
        with hard_timeout(60):
            assert pool_backend(tmp_path, LOCKING_CHILD).score_batch(shard_requests(4)) == [0.5] * 4

    def test_more_cpus_than_cores_give_the_unsharded_result(self, tmp_path, cpus):
        cpus(8)
        rng = random.Random(43)
        reqs = [ScoreRequest(s, h, r) for s, h, r in zip(*(nasty_strings(rng, 120) for _ in range(3)))]
        cmd = child(tmp_path, CHECKSUM_CHILD)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, so a race on the pool's state would show
        try:
            with hard_timeout(120):
                sharded = ExternalBackend(cmd, shard_size=2).score_batch(reqs)
        finally:
            sys.setswitchinterval(interval)
        assert sharded == ExternalBackend(cmd).score_batch(reqs)
        assert sharded == [checksum([req.source, req.hypothesis, req.reference]) for req in reqs]

    def test_earliest_failing_shard_names_the_error(self, tmp_path, cpus):
        # shard 1 fails first, but a serial run would report shard 0
        cpus(2)
        with hard_timeout(30), pytest.raises(ScorerError, match="^external scorer output line 1 is not a number: 'junk'$"):
            pool_backend(tmp_path, SLOW_JUNK_CHILD).score_batch(shard_requests(2))

    def test_failure_starts_no_shard_and_kills_later_ones(self, tmp_path, cpus):
        cpus(2)
        fds = open_fds()
        try:
            with hard_timeout(30), pytest.raises(ScorerError, match=r"requests 0\.\.0 exited with status 5"):
                pool_backend(tmp_path, FAIL_FIRST_CHILD).score_batch(shard_requests(6))
            assert open_fds() == fds
            spawned = (tmp_path / "spawns").read_text().split()
            assert len(spawned) == 2  # shards 0 and 1; no shard started after the failure
            sibling = int((tmp_path / "pid1").read_text())
            with pytest.raises(ProcessLookupError):  # killed and reaped before score_batch returned
                os.kill(sibling, 0)
        finally:
            kill_quietly(*map(int, (tmp_path / "spawns").read_text().split()))

    def test_interrupt_kills_and_reaps_every_child(self, tmp_path, cpus):
        cpus(2)
        pid_files = [tmp_path / "pid0", tmp_path / "pid1"]

        def interrupt_once_both_run(signum, frame):
            if all(path.exists() for path in pid_files):
                raise KeyboardInterrupt
            signal.setitimer(signal.ITIMER_REAL, 0.05)

        fds = open_fds()
        previous = signal.signal(signal.SIGALRM, interrupt_once_both_run)
        signal.setitimer(signal.ITIMER_REAL, 0.05)
        started = time.monotonic()
        try:
            with pytest.raises(KeyboardInterrupt):
                pool_backend(tmp_path, SLEEPING_CHILD).score_batch(shard_requests(3))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert time.monotonic() - started < 30
        assert open_fds() == fds
        pids = [int(path.read_text()) for path in pid_files]
        try:
            for pid in pids:
                with pytest.raises(ProcessLookupError):
                    os.kill(pid, 0)
            assert not (tmp_path / "pid2").exists()
        finally:
            kill_quietly(*pids)

    def test_timeout_kills_the_child_process_group(self, tmp_path, cpus):
        cpus(1)
        script = tmp_path / "sleeper.py"
        script.write_text(SLEEPING_CHILD)
        backend = ExternalBackend(["sh", "-c", f"{sys.executable} {script} {tmp_path}; true"], timeout=1)
        try:
            with hard_timeout(30), pytest.raises(ScorerError, match=r"requests 0\.\.0 did not finish within 1 s"):
                backend.score_batch(shard_requests(1))
            assert process_gone(int((tmp_path / "pid0").read_text()))
        finally:
            kill_quietly(int((tmp_path / "pid0").read_text()))

    def test_no_process_groups_or_poll_exits_2_before_any_child(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "hyp.txt").write_text("h0\n", encoding="utf-8")
        command = [*child(tmp_path, POOL_CHILD_HEAD + 'publish("pid0", str(os.getpid()))\nprint(0.5)\n'), str(tmp_path)]
        argv = ["score", "--src", str(tmp_path / "hyp.txt"), "--hyp", str(tmp_path / "hyp.txt"), "--direction", "en-de",
                "--backend", f"external:{shlex.join(command)}"]
        for module, name in ((os, "killpg"), (select, "poll")):
            with monkeypatch.context() as platform, hard_timeout(30):
                platform.delattr(module, name)
                with pytest.raises(ValueError, match="needs process groups"):
                    ExternalBackend(command)
                assert main(argv) == EXIT_CONFIG
            assert capsys.readouterr().err == (
                "mtharness: error: an external backend needs process groups (os.killpg) and select.poll,"
                " which this platform lacks\n"
            )
        assert not (tmp_path / "pid0").exists()  # no child ran

    # The escaped grandchild sleeps 60 s: waiting for it to close the pipes
    # would run into the hard timeout.
    def test_timeout_does_not_wait_for_an_escaped_grandchild(self, tmp_path, cpus):
        cpus(1)
        try:
            with hard_timeout(30), pytest.raises(ScorerError, match=r"requests 0\.\.0 did not finish within 2 s"):
                pool_backend(tmp_path, ESCAPING_CHILD, timeout=2).score_batch(shard_requests(1))
            assert len(escaped_pids(tmp_path)) == 1
        finally:
            kill_quietly(*escaped_pids(tmp_path))

    def test_failure_does_not_wait_for_a_later_shards_escaped_grandchild(self, tmp_path, cpus):
        cpus(2)
        try:
            with hard_timeout(30), pytest.raises(ScorerError, match=r"requests 0\.\.0 exited with status 5"):
                pool_backend(tmp_path, FAIL_BESIDE_ESCAPED_CHILD).score_batch(shard_requests(2))
            assert len(escaped_pids(tmp_path)) == 1
        finally:
            kill_quietly(*escaped_pids(tmp_path))

    @pytest.mark.parametrize("timeout", [None, 2], ids=["no-timeout", "timeout"])
    def test_success_does_not_wait_for_an_escaped_grandchild(self, tmp_path, cpus, timeout):
        cpus(1)
        try:
            with hard_timeout(30):
                scores = pool_backend(tmp_path, ANSWER_BESIDE_ESCAPED_CHILD, timeout=timeout).score_batch(shard_requests(1))
            assert scores == [0.5]
            assert len(escaped_pids(tmp_path)) == 1
        finally:
            kill_quietly(*escaped_pids(tmp_path))

    @pytest.mark.parametrize("wait, timeout", [
        ("pidfd", None), ("pidfd", 30), ("no-pidfd_open", None), ("pidfd_open-refused", 30),
    ], ids=["pidfd", "pidfd-timeout", "no-pidfd_open", "pidfd_open-refused"])
    def test_waits_for_a_child_without_polling(self, tmp_path, cpus, monkeypatch, wait, timeout):
        cpus(2)
        if wait == "pidfd" and not pidfds_work():
            pytest.skip("this platform gives no pidfd")
        if wait == "no-pidfd_open":
            monkeypatch.delattr(os, "pidfd_open", raising=False)
        if wait == "pidfd_open-refused":
            monkeypatch.setattr(os, "pidfd_open", refuse_pidfd, raising=False)
        polls = []  # each wakeup of the loop polls every running child once
        poll = subprocess.Popen.poll
        monkeypatch.setattr(subprocess.Popen, "poll", lambda proc: polls.append(1) or poll(proc))
        # shard 0 answers at once, shard 1 after 0.5 s
        source = "import sys, time\nif 'h1' in sys.stdin.read():\n    time.sleep(0.5)\nprint(0.5)\n"
        backend = ExternalBackend(child(tmp_path, source), shard_size=1, timeout=timeout)
        fds = open_fds()
        with hard_timeout(30):
            assert backend.score_batch(shard_requests(2)) == [0.5, 0.5]
        assert open_fds() == fds
        if wait == "pidfd":
            assert len(polls) <= 6  # a 2 ms poll wakes about 250 times
        else:
            assert len(polls) > 6  # the 2 ms poll is the fallback

    def test_signal_handlers_are_left_as_found(self, tmp_path):
        previous = signal.signal(signal.SIGHUP, signal.SIG_IGN)  # as under nohup
        try:
            assert ExternalBackend(child(tmp_path, "print(0.5)\n")).score_batch(shard_requests(1)) == [0.5]
            assert signal.getsignal(signal.SIGHUP) is signal.SIG_IGN
            assert signal.getsignal(signal.SIGTERM) is signal.SIG_DFL
        finally:
            signal.signal(signal.SIGHUP, previous)

    def test_unsharded_batch_spawns_one_child(self, tmp_path, cpus):
        cpus(8)
        cmd = child(tmp_path, "import os, sys\nn = len(sys.stdin.readlines())\nprint(*[os.getpid()] * n, sep='\\n')\n")
        assert len(set(ExternalBackend(cmd).score_batch(shard_requests(5)))) == 1


class LockedError(ValueError):
    """Cannot be pickled: it holds a lock."""

    def __init__(self, message):
        super().__init__(message)
        self.lock = threading.Lock()


class TwoPartError(ValueError):
    """Pickles, but cannot be rebuilt from its one pickled argument."""

    def __init__(self, first, second):
        super().__init__(f"{first} {second}")


def numbered_requests(n):
    return [ScoreRequest("s", f"h{i}", "r") for i in range(n)]


@pytest.fixture
def actions(monkeypatch):
    """Maps a hypothesis to something the surrogate does before scoring it."""
    on_hypothesis = {}
    blend = scorer._blend

    def acting_blend(request, similarity):
        if request.hypothesis in on_hypothesis:
            on_hypothesis[request.hypothesis]()
        return blend(request, similarity)

    monkeypatch.setattr(scorer, "_blend", acting_blend)
    return on_hypothesis


def raising(exc):
    def act():
        raise exc
    return act


class TestChunkedSurrogate:
    @settings(max_examples=60, deadline=None)
    @given(st.one_of(batches(qe=False), batches(qe=True), AGG_BATCHES), st.integers(1, 8))
    def test_equals_serial_for_any_cpu_count(self, requests, cpus):
        with chunking(1):
            serial = SurrogateBackend().score_batch(requests)
        with chunking(cpus) as forked:
            assert SurrogateBackend().score_batch(requests) == serial
        assert len(forked) == max(min(cpus, len(requests)) - 1, 0)  # K - 1 workers
        assert all(map(reaped, forked))

    def test_one_cpu_forks_nothing(self):
        with chunking(1, min_chunk=None) as forked:
            SurrogateBackend().score_batch(numbered_requests(8 * scorer._MIN_CHUNK))
        assert forked == []

    def test_a_batch_below_two_minimum_chunks_forks_nothing(self):
        with chunking(8, min_chunk=None) as forked:
            SurrogateBackend().score_batch(numbered_requests(2 * scorer._MIN_CHUNK - 1))
            assert forked == []
            SurrogateBackend().score_batch(numbered_requests(2 * scorer._MIN_CHUNK))
        assert len(forked) == 1

    def test_another_live_thread_forks_nothing(self):
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(30,))
        thread.start()
        try:
            with chunking(8) as forked:
                SurrogateBackend().score_batch(numbered_requests(16))
        finally:
            release.set()
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert forked == []

    # 8 chunks of one request on 4 CPUs: the parent works h0 first and
    # worker j works hj; h4 to h7 go to whichever process asks first
    @pytest.mark.parametrize("failing, message", [
        ({"h3": "h3"}, "h3"),
        ({"h5": "h5", "h7": "h7"}, "h5"),
        ({"h0": "h0", "h6": "h6"}, "h0"),
    ], ids=["worker", "earliest-worker", "parent-before-worker"])
    def test_failing_chunk_raises_the_serial_error(self, actions, failing, message):
        for hyp, text in failing.items():
            actions[hyp] = raising(ValueError(f"{text} failed"))
        with chunking(1), pytest.raises(ValueError) as serial:
            SurrogateBackend().score_batch(numbered_requests(8))
        with hard_timeout(30), chunking(4) as forked, pytest.raises(ValueError) as chunked:
            SurrogateBackend().score_batch(numbered_requests(8))
        assert (type(chunked.value), str(chunked.value)) == (type(serial.value), str(serial.value)) == (
            ValueError, f"{message} failed"
        )
        assert len(forked) == 3
        assert all(map(reaped, forked))

    def test_parent_error_waits_for_an_earlier_worker_error(self, actions):
        def slow_failure():
            time.sleep(0.5)  # the parent meanwhile takes h2 from the queue
            raise ValueError("h1 failed")

        actions["h1"] = slow_failure  # the worker's first chunk
        actions["h2"] = actions["h3"] = raising(ValueError("h2 or h3 failed"))
        with hard_timeout(30), chunking(2) as forked, pytest.raises(ValueError, match="^h1 failed$"):
            SurrogateBackend().score_batch(numbered_requests(4))
        assert len(forked) == 1 and reaped(forked[0])

    @pytest.mark.parametrize("error", [LockedError("h1 failed"), TwoPartError("h1", "failed")],
                             ids=["unpicklable", "unrebuildable"])
    def test_worker_error_that_cannot_travel_keeps_its_message(self, actions, error):
        actions["h1"] = raising(error)  # the worker's first chunk
        with hard_timeout(30), chunking(2) as forked:
            with pytest.raises(ScorerError, match=f"^{type(error).__name__}: h1 failed$"):
                SurrogateBackend().score_batch(numbered_requests(4))
        assert all(map(reaped, forked))

    @pytest.mark.parametrize("error", [ValueError("h0 failed"), KeyboardInterrupt()], ids=["error", "interrupt"])
    def test_parent_chunk_leaving_early_kills_a_running_worker(self, actions, error):
        actions["h0"] = raising(error)
        actions["h1"] = lambda: time.sleep(60)  # the worker's first chunk
        started = time.monotonic()
        with hard_timeout(30), chunking(2) as forked, pytest.raises(type(error)):
            SurrogateBackend().score_batch(numbered_requests(4))
        assert time.monotonic() - started < 20
        assert len(forked) == 1 and reaped(forked[0])

    def test_worker_that_dies_fails_the_batch(self, actions):
        actions["h1"] = lambda: os._exit(3)  # the worker's first chunk
        with hard_timeout(30), chunking(2) as forked:
            with pytest.raises(ScorerError, match=r"^worker process [0-9]+ exited with status 3$"):
                SurrogateBackend().score_batch(numbered_requests(4))
        assert len(forked) == 1 and reaped(forked[0])

    def test_worker_never_returns_into_the_callers_stack(self):
        # SystemExit is no Exception: were it to escape the worker, the
        # worker would go on to run the rest of the test session
        parent = os.getpid()

        def work(chunk):
            if os.getpid() != parent:
                raise SystemExit(0)
            return list(chunk)

        with hard_timeout(30), chunking(2) as forked:
            with pytest.raises(ScorerError, match=r"^worker process [0-9]+ exited with status 1$"):
                map_chunks(work, [0, 1])
        assert len(forked) == 1 and reaped(forked[0])

    def test_worker_resets_inherited_signal_handlers(self):
        # SIGINT too: a shell starts a background job with it ignored
        previous_int = signal.signal(signal.SIGINT, signal.default_int_handler)
        previous = signal.signal(signal.SIGUSR1, lambda signum, frame: None)
        try:
            with chunking(2):
                handlers = map_chunks(
                    lambda chunk: [(signal.getsignal(signal.SIGINT), signal.getsignal(signal.SIGUSR1)) for _ in chunk],
                    [0, 1],
                )
        finally:
            signal.signal(signal.SIGUSR1, previous)
            signal.signal(signal.SIGINT, previous_int)
        assert handlers[0][0] is signal.default_int_handler  # the parent's chunk, under the parent's handlers
        assert handlers[1] == (signal.SIG_DFL, signal.SIG_DFL)


class TestScoreEvalset:
    def test_single_reference(self):
        segs = (Segment(0, "aa", "aa", ("aa",)), Segment(1, "bb", "", ("bb",)))
        es = EvalSet(Direction("en", "de"), "sys", segs)
        table = score_evalset(SurrogateBackend(), es)
        assert table.scores == (1.0, 0.0)

    def test_qe_mode(self):
        segs = (Segment(0, "aa", "aa"),)
        es = EvalSet(Direction("en", "de"), "sys", segs)
        assert score_evalset(SurrogateBackend(), es).scores == (1.0,)

    def test_multi_reference_refused(self):
        segs = (Segment(0, "s", "h", ("r1", "r2")),)
        es = EvalSet(Direction("en", "de"), "sys", segs)
        with pytest.raises(ValueError, match="multi-reference"):
            score_evalset(SurrogateBackend(), es)

    @pytest.mark.parametrize("answered", [1, 3], ids=["short", "long"])
    def test_a_wrong_answer_count_is_an_error(self, answered):
        es = EvalSet(Direction("en", "de"), "sys", (Segment(0, "a", "a"), Segment(1, "b", "b")))
        backend = mock.Mock(score_batch=lambda requests: [0.5] * answered)
        with pytest.raises(ScorerError, match=f"^backend answered {answered} scores for 2 requests$"):
            score_evalset(backend, es)
