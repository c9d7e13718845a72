"""Tests for the meta-evaluation statistics.

The Kendall statistics are checked against a brute-force oracle that
enumerates index pairs with plain Python loops, independently of the
merge-sort implementation, and must equal it exactly.
"""

import math
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtharness.metastats import (
    SystemRanking,
    check_histogram,
    format_meta_report,
    histogram,
    kendall_tau_a,
    kendall_tau_c,
    kendall_taus,
    mae,
    pairwise_accuracy,
    read_ranking,
)


def brute_pair_counts(x, y):
    concordant = discordant = 0
    for i in range(len(x)):
        for j in range(i + 1, len(x)):
            dx = (x[i] > x[j]) - (x[i] < x[j])
            dy = (y[i] > y[j]) - (y[i] < y[j])
            if dx * dy > 0:
                concordant += 1
            elif dx * dy < 0:
                discordant += 1
    return concordant, discordant


def brute_tau_a(x, y):
    c, d = brute_pair_counts(x, y)
    n = len(x)
    return (c - d) / (n * (n - 1) / 2)


def brute_tau_c(x, y):
    m = min(len(set(x)), len(set(y)))
    if m == 1:
        return 0.0
    c, d = brute_pair_counts(x, y)
    n = len(x)
    return (c - d) * 2 * m / (n * n * (m - 1))


def tied_vectors(rng, n):
    # small integer draws so ties actually occur
    return [float(rng.randrange(0, 4)) for _ in range(n)]


# -0.0 and 0.0 are distinct draws that must tie, as IEEE == says.
TIE_VALUES = st.sampled_from([-0.0, 0.0, 0.25, 1.0, -3.5, 7.0])


@st.composite
def few_valued_list(draw, n):
    """n values drawn from a pool of 1 to 4 distinct floats."""
    pool = draw(st.lists(TIE_VALUES, min_size=1, max_size=4, unique_by=repr))
    return draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))


@st.composite
def tied_pair(draw):
    n = draw(st.integers(2, 80))
    x = draw(few_valued_list(n))
    shape = draw(st.sampled_from(["independent", "x_constant", "y_constant", "reversed", "sorted_reversed"]))
    if shape == "x_constant":
        return [x[0]] * n, draw(few_valued_list(n))
    if shape == "y_constant":
        return x, [x[0]] * n
    if shape == "reversed":
        return x, x[::-1]
    if shape == "sorted_reversed":
        return sorted(x), sorted(x, reverse=True)
    return x, draw(few_valued_list(n))


def assert_matches_oracle(x, y):
    assert kendall_tau_a(x, y) == brute_tau_a(x, y)
    assert kendall_tau_c(x, y) == brute_tau_c(x, y)


class TestMae:
    def test_identical_is_zero(self):
        assert mae([0.1, 0.9, 0.4], [0.1, 0.9, 0.4]) == 0.0

    def test_two_point(self):
        assert mae([0.0, 1.0], [1.0, 1.0]) == 0.5

    def test_hand_sum(self):
        assert mae([0.1, 0.2, 0.3], [0.2, 0.2, 0.0]) == pytest.approx(0.4 / 3)

    def test_unit_preserving(self):
        assert mae([10.0, 20.0], [20.0, 20.0]) == 5.0

    def test_errors(self):
        with pytest.raises(ValueError, match="length mismatch"):
            mae([0.1], [0.1, 0.2])
        with pytest.raises(ValueError, match="empty"):
            mae([], [])

    def test_overflow_raises(self):
        # each difference is 2e308, past the largest float
        with pytest.raises(OverflowError, match=re.escape("mae: the mean absolute error inf is not finite")):
            mae([1e308, -1e308], [-1e308, 1e308])
        assert mae([1e308], [0.0]) == 1e308


class TestKendall:
    def test_identity_is_one(self):
        x = [3.0, 1.0, 4.0, 1.5, 5.0]
        assert kendall_tau_a(x, x) == 1.0
        assert kendall_tau_c(x, x) == 1.0

    def test_reversal_is_minus_one(self):
        x = [1.0, 2.0, 3.0, 4.0]
        y = [4.0, 3.0, 2.0, 1.0]
        assert kendall_tau_a(x, y) == -1.0

    def test_constant_input_tau_c_zero(self):
        assert kendall_tau_c([1.0, 1.0, 1.0], [0.3, 0.2, 0.9]) == 0.0

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="at least two"):
            kendall_tau_a([1.0], [1.0])
        with pytest.raises(ValueError, match="length mismatch"):
            kendall_tau_c([1.0, 2.0], [1.0])

    def test_matches_bruteforce_with_ties(self):
        rng = random.Random(31)
        for _ in range(300):
            n = rng.randrange(2, 9)
            x, y = tied_vectors(rng, n), tied_vectors(rng, n)
            assert kendall_tau_a(x, y) == pytest.approx(brute_tau_a(x, y), abs=1e-12)
            assert kendall_tau_c(x, y) == pytest.approx(brute_tau_c(x, y), abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(tied_pair())
    def test_property_equals_oracle_exactly(self, pair):
        assert_matches_oracle(*pair)

    @settings(deadline=None)
    @given(st.lists(st.tuples(TIE_VALUES, TIE_VALUES), min_size=2, max_size=80))
    def test_property_signed_zeros_tie(self, rows):
        x, y = [a for a, _ in rows], [b for _, b in rows]
        flipped = [0.0 if v == 0.0 else v for v in x]
        assert kendall_tau_a(x, y) == kendall_tau_a(flipped, y)
        assert kendall_tau_c(x, y) == kendall_tau_c(flipped, y)
        assert_matches_oracle(x, y)

    def test_long_mixed_input_equals_oracle_exactly(self):
        # deep enough for ten merge levels, with both unique and tied values
        rng = random.Random(57)
        x = [rng.choice([0.0, 1.0, rng.random()]) for _ in range(600)]
        y = [round(v + rng.gauss(0, 0.3), 1) for v in x]
        assert_matches_oracle(x, y)

    def test_many_merge_levels_equal_oracle_exactly(self):
        # several merge levels above the leaf size, an odd block carried up, heavy ties
        rng = random.Random(67)
        x = [rng.choice([0.0, -0.0, 0.5, 1.0, rng.random()]) for _ in range(1100)]
        y = [rng.choice([v, 0.0, round(rng.random(), 1)]) for v in x]
        assert_matches_oracle(x, y)

    def test_tau_c_counts_all_nans_as_one_value(self):
        # only the last two rows are comparable, and concordant: C - D = 1;
        # m = min(|{nan, 1, 2}|, |{1, 2, 3, 4}|) = 3, so tau-c = 1 * 2 * 3 / (4 * 4 * 2)
        x = [float("nan"), float("nan"), 1.0, 2.0]
        y = [1.0, 2.0, 3.0, 4.0]
        assert kendall_tau_c(x, y) == 0.1875
        assert kendall_tau_a(x, y) == 1 / 6

    def test_taus_equal_the_single_variants(self):
        rng = random.Random(71)
        for _ in range(50):
            n = rng.randrange(2, 40)
            x, y = tied_vectors(rng, n), [rng.choice([0.0, rng.random()]) for _ in range(n)]
            assert kendall_taus(x, y) == (kendall_tau_a(x, y), kendall_tau_c(x, y))

    def test_nan_pairs_count_as_neither(self):
        x = [float("nan"), 1.0, 2.0, 3.0, float("inf"), float("inf")]
        y = [1.0, float("nan"), 2.0, 1.0, float("-inf"), 5.0]
        assert kendall_tau_a(x, y) == brute_tau_a(x, y)

    def test_matches_scipy_tau_c(self):
        stats = pytest.importorskip("scipy.stats")
        rng = random.Random(59)
        for _ in range(50):
            n = rng.randrange(2, 300)
            x, y = tied_vectors(rng, n), [rng.choice([0.0, rng.random()]) for _ in range(n)]
            if min(len(set(x)), len(set(y))) == 1:
                continue
            expected = stats.kendalltau(x, y, variant="c").statistic
            assert kendall_tau_c(x, y) == pytest.approx(expected, abs=1e-12)

    def test_memory_stays_linear(self):
        # the all-pairs sign matrices needed about 320 MB at this size
        rng = random.Random(61)
        x = [rng.random() for _ in range(3000)]
        y = [round(v + rng.gauss(0, 0.2), 1) for v in x]
        tracemalloc.start()
        try:
            kendall_tau_a(x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_antisymmetric_under_negation(self):
        rng = random.Random(37)
        for _ in range(50):
            n = rng.randrange(2, 9)
            x = [rng.uniform(-5, 5) for _ in range(n)]
            y = [rng.uniform(-5, 5) for _ in range(n)]
            assert kendall_tau_a(x, [-v for v in y]) == pytest.approx(-kendall_tau_a(x, y), abs=1e-12)
            assert kendall_tau_c(x, [-v for v in y]) == pytest.approx(-kendall_tau_c(x, y), abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = random.Random(41)
        transforms = [lambda v: v**3, lambda v: 2 * v + 3, lambda v: math.exp(v / 25)]
        for _ in range(50):
            n = rng.randrange(2, 9)
            x = [float(rng.randrange(-40, 40)) for _ in range(n)]
            y = [float(rng.randrange(-40, 40)) for _ in range(n)]
            base_a, base_c = kendall_tau_a(x, y), kendall_tau_c(x, y)
            for f in transforms:
                fx = [f(v) for v in x]
                assert kendall_tau_a(fx, y) == base_a
                assert kendall_tau_c(fx, y) == base_c


class TestPairwiseAccuracy:
    def test_identical_rankings(self):
        r = SystemRanking((("a", 0.3), ("b", 0.2), ("c", 0.1)))
        assert pairwise_accuracy(r, r) == 1.0

    def test_two_systems_opposite(self):
        m = SystemRanking((("a", 1.0), ("b", 0.0)))
        h = SystemRanking((("a", 0.0), ("b", 1.0)))
        assert pairwise_accuracy(m, h) == 0.0

    def test_four_system_example(self):
        metric = SystemRanking((("A", 4.0), ("B", 3.0), ("C", 2.0), ("D", 1.0)))
        human = SystemRanking((("A", 4.0), ("C", 3.0), ("B", 2.0), ("D", 1.0)))
        assert pairwise_accuracy(metric, human) == pytest.approx(5 / 6)

    def test_self_comparison_with_ties(self):
        r = SystemRanking((("a", 0.5), ("b", 0.5), ("c", 0.1)))
        assert pairwise_accuracy(r, r) == 1.0

    def test_tie_vs_strict_disagrees(self):
        m = SystemRanking((("a", 0.5), ("b", 0.5)))
        h = SystemRanking((("a", 0.6), ("b", 0.4)))
        assert pairwise_accuracy(m, h) == 0.0

    def test_mismatched_sets_rejected(self):
        m = SystemRanking((("a", 0.5), ("b", 0.4)))
        h = SystemRanking((("a", 0.5), ("c", 0.4)))
        with pytest.raises(ValueError, match="different system sets"):
            pairwise_accuracy(m, h)

    def test_mismatched_sets_name_a_system_only_one_lists(self):
        m = SystemRanking((("a", 0.5), ("c", 0.4), ("d", 0.1)))
        h = SystemRanking((("a", 0.5), ("b", 0.4), ("d", 0.1)))
        with pytest.raises(ValueError, match="^rankings cover different system sets: system 'b' is only in the human ranking$"):
            pairwise_accuracy(m, h)
        with pytest.raises(ValueError, match="system 'b' is only in the metric ranking$"):
            pairwise_accuracy(h, m)

    def test_one_system_rejected(self):
        r = SystemRanking((("a", 0.5),))
        with pytest.raises(ValueError, match="needs at least two systems"):
            pairwise_accuracy(r, r)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            SystemRanking((("a", 0.5), ("a", 0.4)))

    def test_monotone_transform_invariance(self):
        rng = random.Random(43)
        names = ["s1", "s2", "s3", "s4", "s5"]
        for _ in range(50):
            m_scores = [float(rng.randrange(0, 4)) for _ in names]
            h_scores = [float(rng.randrange(0, 4)) for _ in names]
            m = SystemRanking(tuple(zip(names, m_scores)))
            h = SystemRanking(tuple(zip(names, h_scores)))
            base = pairwise_accuracy(m, h)
            m2 = SystemRanking(tuple((n, 3 * s + 1) for n, s in zip(names, m_scores)))
            assert pairwise_accuracy(m2, h) == base


class TestHistogram:
    def test_all_at_lo(self):
        bins = histogram([0.0, 0.0, 0.0], 4, 0.0, 1.0)
        assert [count for _, count in bins] == [3, 0, 0, 0]

    def test_counts_conserved_and_order_free(self):
        rng = random.Random(47)
        scores = [rng.uniform(-1, 2) for _ in range(500)]  # some out of range
        bins = histogram(scores, 7, 0.0, 1.0)
        assert sum(count for _, count in bins) == 500
        rng.shuffle(scores)
        assert histogram(scores, 7, 0.0, 1.0) == bins

    def test_out_of_range_clamps_to_end_bins(self):
        bins = histogram([-5.0, 99.0], 3, 0.0, 1.0)
        assert bins[0][1] == 1
        assert bins[-1][1] == 1
        # however far out: a huge score must not overflow on its way to a bin
        assert [count for _, count in histogram([-1e308, 1e308, -math.inf, math.inf], 7, 0.0, 1.0)] == [2, 0, 0, 0, 0, 0, 2]

    def test_29_bin_centers(self):
        bins = histogram([50.0], 29, 0.0, 100.0)
        centers = [center for center, _ in bins]
        expected = [(2 * k + 1) * 100.0 / (2 * 29) for k in range(29)]
        assert centers == pytest.approx(expected, abs=1e-12)
        assert centers[12] == pytest.approx(43.103, abs=1e-3)
        assert centers[13] == pytest.approx(46.552, abs=1e-3)

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError, match="invalid histogram range"):
            histogram([0.5], 3, 1.0, 1.0)
        with pytest.raises(ValueError, match="histogram bin count must be at least 1, got 0"):
            histogram([0.5], 0, 0.0, 1.0)

    @pytest.mark.parametrize("lo, hi", [(0.0, math.inf), (-math.inf, 1.0), (-1e308, 1e308)])
    def test_non_finite_range_rejected(self, lo, hi):
        with pytest.raises(ValueError, match=re.escape(f"invalid histogram range [{lo}, {hi}]")):
            histogram([0.5], 3, lo, hi)

    @pytest.mark.parametrize("bins, lo, hi", [
        (2, 0.0, 5e-324),  # the width rounds to 0
        (3, 0.0, 1e-323),  # centres 0.0, 1e-323, 1e-323
        (3, 1.0, 1.0000000000000002),  # one float apart: three centres on two floats
        (4, 1e16, 1e16 + 2),
    ])
    def test_range_too_narrow_for_distinct_centres_rejected(self, bins, lo, hi):
        message = f"invalid histogram range [{lo}, {hi}]: too narrow for {bins} distinct bin centres"
        with pytest.raises(ValueError, match=re.escape(message)):
            check_histogram(bins, lo, hi)
        with pytest.raises(ValueError, match=re.escape(message)):
            histogram([lo], bins, lo, hi)

    @pytest.mark.parametrize("bins, lo, hi", [
        (1, 0.0, 5e-324), (2, 0.0, 2e-323), (2, 1.0, 1.0000000000000002), (1000, 0.0, 1.0), (20, -1e300, 1e300),
    ])
    def test_narrow_ranges_with_distinct_centres_accepted(self, bins, lo, hi):
        check_histogram(bins, lo, hi)
        centres = [centre for centre, _ in histogram([lo, hi], bins, lo, hi)]
        assert len(set(centres)) == bins


class TestMetaReportFormat:
    def test_aligned_and_skips_absent(self):
        lines = format_meta_report({"n": 4, "mae": 0.25, "tau_a": None, "tau_c": None, "pairwise_acc": None})
        assert lines[0].startswith("n ")
        assert any(line.startswith("mae") for line in lines)
        assert not any("tau" in line for line in lines)

    def test_full_report_tsv(self):
        stats = {"n": 4, "mae": 0.25, "tau_a": 0.5, "tau_c": 0.4, "pairwise_acc": 0.75}
        rows = format_meta_report(stats, tsv=True)
        assert rows[0] == "n\t4"
        assert "tau_a\t0.5" in rows
        assert "pairwise_acc\t0.75" in rows

    def test_both_formats_exact_bytes(self):
        stats = {"n": 4, "mae": 0.25, "tau_a": 0.5, "tau_c": -0.4, "pairwise_acc": 0.75}
        assert format_meta_report(stats) == [
            "n             4",
            "mae           0.25",
            "tau_a         0.5",
            "tau_c         -0.4",
            "pairwise_acc  0.75",
        ]
        assert format_meta_report(stats, tsv=True) == [
            "n\t4", "mae\t0.25", "tau_a\t0.5", "tau_c\t-0.4", "pairwise_acc\t0.75",
        ]
        short = {"n": 2, "mae": 0.5, "tau_a": None, "tau_c": None, "pairwise_acc": None}
        assert format_meta_report(short) == ["n    2", "mae  0.5"]
        assert format_meta_report(short, tsv=True) == ["n\t2", "mae\t0.5"]


class TestReadRanking:
    def test_reads_tsv_with_comments(self, tmp_path):
        path = tmp_path / "ranking.tsv"
        path.write_text("# human ranking\nalpha\t0.5\nbeta\t0.75\n", encoding="utf-8")
        assert read_ranking(path) == SystemRanking((("alpha", 0.5), ("beta", 0.75)))

    def test_rejects_bad_rows(self, tmp_path):
        path = tmp_path / "ranking.tsv"
        path.write_text("alpha\t0.5\tjunk\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 1"):
            read_ranking(path)
        path.write_text("alpha\tnot-a-number\n", encoding="utf-8")
        with pytest.raises(ValueError, match="not a number"):
            read_ranking(path)
        path.write_text("alpha\t0.5\nalpha\t0.6\n", encoding="utf-8")
        with pytest.raises(ValueError, match="unique"):
            read_ranking(path)

    def test_rejects_an_empty_system_name(self, tmp_path):
        path = tmp_path / "ranking.tsv"
        path.write_text("alpha\t0.5\n# comment\n\t0.5\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 3: empty system name$"):
            read_ranking(path)
