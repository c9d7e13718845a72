"""Tests for the max/avg/agg multi-reference strategies."""

import random
import statistics

import pytest

from mtharness.evalset import Direction, EvalSet, Segment, system_score
from mtharness.multiref import STRATEGIES, evaluate_system_multiref, multiref_agg
from mtharness.scorer import ScoreRequest, ScorerError, SurrogateBackend, score_evalset

from helpers import surrogate_score


class QueueBackend:
    """Answers scripted scores in order and records every request."""

    def __init__(self, scores):
        self.scores = list(scores)
        self.requests = []
        self.batches = 0

    def score_batch(self, requests):
        self.batches += 1
        self.requests.extend(requests)
        out, self.scores = self.scores[: len(requests)], self.scores[len(requests) :]
        return out


class MiscountingBackend:
    """Answers ``extra`` scores more than it was asked for (fewer when negative)."""

    def __init__(self, extra):
        self.extra = extra

    def score_batch(self, requests):
        return [0.5] * (len(requests) + self.extra)


def agg_oracle(scores):
    """Independent combiner: plain statistics over the six passes."""
    return statistics.mean(scores) * (1 - statistics.pstdev(scores))


def random_text(rng, lo=1, hi=12):
    return "".join(rng.choice("abcd e") for _ in range(rng.randrange(lo, hi)))


def two_ref_evalset(rng, n):
    segs = tuple(
        Segment(i, random_text(rng), random_text(rng), (random_text(rng), random_text(rng))) for i in range(n)
    )
    return EvalSet(Direction("en", "de"), "sys", segs)


def segment_score(strategy, backend, src, hyp, refs):
    """One segment's score under a strategy, through the whole-set path."""
    evalset = EvalSet(Direction("en", "de"), "sys", (Segment(0, src, hyp, tuple(refs)),))
    (score,) = evaluate_system_multiref(strategy, evalset, backend).scores
    return score


class TestMaxAvg:
    def test_single_ref_equals_plain_score(self):
        backend = SurrogateBackend()
        req = ScoreRequest("src text", "hyp text", "ref text")
        plain = surrogate_score(req)
        assert segment_score("max", backend, req.source, req.hypothesis, [req.reference]) == plain
        assert segment_score("avg", backend, req.source, req.hypothesis, [req.reference]) == plain

    def test_known_values(self):
        assert segment_score("max", QueueBackend([0.3, 0.7]), "s", "h", ["r1", "r2"]) == 0.7
        assert segment_score("avg", QueueBackend([0.3, 0.7]), "s", "h", ["r1", "r2"]) == pytest.approx(0.5)

    def test_identical_reference_wins_max(self):
        backend = SurrogateBackend()
        hyp = "xy"
        per_ref = {ref: surrogate_score(ScoreRequest("zz", hyp, ref)) for ref in ("ab", hyp)}
        assert per_ref[hyp] > per_ref["ab"]
        assert segment_score("max", backend, "zz", hyp, ["ab", hyp]) == per_ref[hyp]

    def test_empty_refs_rejected(self):
        with pytest.raises(ValueError, match="at least one reference"):
            segment_score("max", SurrogateBackend(), "s", "h", [])
        with pytest.raises(ValueError, match="at least one reference"):
            segment_score("avg", SurrogateBackend(), "s", "h", [])

    def test_avg_never_exceeds_max(self):
        rng = random.Random(5)
        backend = SurrogateBackend()
        for _ in range(100):
            src, hyp = random_text(rng), random_text(rng)
            refs = [random_text(rng) for _ in range(rng.randrange(1, 5))]
            assert segment_score("avg", backend, src, hyp, refs) <= segment_score("max", backend, src, hyp, refs) + 1e-15


class TestAgg:
    def test_arrangement_order(self):
        backend = QueueBackend([0.1] * 6)
        multiref_agg(backend, "s", "h", "r", "R")
        pairs = [(req.source, req.reference) for req in backend.requests]
        assert pairs == [("s", "r"), ("r", "s"), ("s", "R"), ("R", "s"), ("r", "R"), ("R", "r")]
        assert all(req.hypothesis == "h" for req in backend.requests)

    def test_constant_backend_is_identity(self):
        third = 1.0 / 3.0
        assert multiref_agg(QueueBackend([third] * 6), "s", "h", "r", "R") == third

    def test_known_six_scores(self):
        six = [1.0, 1.0, 1.0, 1.0, 0.0, 0.0]
        got = multiref_agg(QueueBackend(six), "s", "h", "r", "R")
        assert got == pytest.approx(agg_oracle(six), abs=1e-12)
        assert got == pytest.approx(2 / 3 * (1 - math_sqrt2_over_3()), abs=1e-9)

    def test_matches_independent_transcript(self):
        backend = SurrogateBackend()
        src, hyp, ref, alt = "the cat sat", "a cat sat down", "the cat sat down", "one cat was sitting"
        passes = [
            surrogate_score(ScoreRequest(a, hyp, b))
            for a, b in [(src, ref), (ref, src), (src, alt), (alt, src), (ref, alt), (alt, ref)]
        ]
        assert multiref_agg(backend, src, hyp, ref, alt) == pytest.approx(agg_oracle(passes), abs=1e-12)

    def test_symmetric_in_references(self):
        rng = random.Random(11)
        backend = SurrogateBackend()
        for _ in range(50):
            src, hyp, r1, r2 = (random_text(rng) for _ in range(4))
            assert multiref_agg(backend, src, hyp, r1, r2) == pytest.approx(
                multiref_agg(backend, src, hyp, r2, r1), abs=1e-12
            )

    def test_never_exceeds_mean(self):
        rng = random.Random(13)
        for _ in range(200):
            six = [rng.uniform(0, 1) for _ in range(6)]
            assert multiref_agg(QueueBackend(six), "s", "h", "r", "R") <= statistics.mean(six) + 1e-15

    def test_missing_altref_rejected(self):
        with pytest.raises(ValueError, match="agg requires exactly two references"):
            multiref_agg(SurrogateBackend(), "s", "h", "r", None)


def math_sqrt2_over_3():
    return statistics.pstdev([1.0, 1.0, 1.0, 1.0, 0.0, 0.0])


class TestEvaluateSystem:
    def test_single_ref_strategies_coincide_with_plain(self):
        segs = tuple(Segment(i, f"s {i}", f"h {i} x", (f"h {i}",)) for i in range(4))
        es = EvalSet(Direction("en", "de"), "sys", segs)
        backend = SurrogateBackend()
        plain = score_evalset(backend, es)
        assert evaluate_system_multiref("max", es, backend).scores == plain.scores
        assert evaluate_system_multiref("avg", es, backend).scores == plain.scores

    def test_agg_needs_two_references(self):
        segs = (Segment(0, "s", "h", ("r",)),)
        es = EvalSet(Direction("en", "de"), "sys", segs)
        with pytest.raises(ValueError, match="exactly two references"):
            evaluate_system_multiref("agg", es, SurrogateBackend())

    def test_empty_evalset_gives_an_empty_table(self):
        # an evalset with no segments says nothing about its references
        es = EvalSet(Direction("en", "de"), "sys", ())
        for strategy in STRATEGIES:
            assert evaluate_system_multiref(strategy, es, SurrogateBackend()).scores == ()

    def test_unknown_strategy_rejected(self):
        es = EvalSet(Direction("en", "de"), "sys", ())
        with pytest.raises(ValueError, match="unknown multi-reference strategy"):
            evaluate_system_multiref("median", es, SurrogateBackend())
        assert STRATEGIES == ("max", "avg", "agg")

    def test_system_max_dominates_avg(self):
        rng = random.Random(21)
        es = two_ref_evalset(rng, 20)
        backend = SurrogateBackend()
        hi = system_score(evaluate_system_multiref("max", es, backend))
        lo = system_score(evaluate_system_multiref("avg", es, backend))
        assert hi >= lo

    def test_agg_segments_match_single_calls(self):
        rng = random.Random(23)
        es = two_ref_evalset(rng, 10)
        backend = SurrogateBackend()
        table = evaluate_system_multiref("agg", es, backend)
        for seg, got in zip(es.segments, table.scores):
            want = multiref_agg(backend, seg.source, seg.hypothesis, seg.references[0], seg.references[1])
            assert got == pytest.approx(want, abs=1e-12)

    def test_whole_evalset_uses_one_batch(self):
        rng = random.Random(27)
        es = two_ref_evalset(rng, 7)
        backend = QueueBackend([0.5] * (7 * 6))
        evaluate_system_multiref("agg", es, backend)
        assert backend.batches == 1

    @pytest.mark.parametrize("extra", [-1, 1], ids=["short", "long"])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_a_wrong_answer_count_is_an_error(self, strategy, extra):
        es = two_ref_evalset(random.Random(29), 3)
        asked = 3 * (6 if strategy == "agg" else 2)
        with pytest.raises(ScorerError, match=f"^backend answered {asked + extra} scores for {asked} requests$"):
            evaluate_system_multiref(strategy, es, MiscountingBackend(extra))

    @pytest.mark.parametrize("extra", [-1, 1], ids=["short", "long"])
    def test_a_wrong_answer_count_is_an_error_for_one_agg_segment(self, extra):
        with pytest.raises(ScorerError, match=f"^backend answered {6 + extra} scores for 6 requests$"):
            multiref_agg(MiscountingBackend(extra), "s", "h", "r1", "r2")

    def test_refless_evalset_rejected_for_max(self):
        segs = (Segment(0, "s", "h"),)
        es = EvalSet(Direction("en", "de"), "sys", segs)
        with pytest.raises(ValueError, match="at least one reference"):
            evaluate_system_multiref("max", es, SurrogateBackend())
