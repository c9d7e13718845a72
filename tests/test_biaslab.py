"""Tests for the synthetic-data generator, the hashed linear scorer, and
the two training-data bias experiments."""

import random

import numpy as np
import pytest

from mtharness.biaslab import (
    DIM,
    TAG_DIRECTION,
    TAG_TRAIN_MEANS,
    TEST_TAGS,
    SynthExample,
    ToyScorer,
    corrupt_text,
    distribution_bias_experiment,
    experiment_rows,
    featurize,
    filter_fraction,
    generate_synth,
    mean_score,
    tag_bias_experiment,
    train,
)
from mtharness.evalset import Direction

from helpers import assert_no_token_collisions

EN_DE = Direction("en", "de")
EN_ZH = Direction("en", "zh")

SMALL_DIM = 2**12


def make_example(hyp, ref, gold=0.5, direction=EN_DE, tag=None):
    return SynthExample(
        direction=direction, source="src", hypothesis=hyp, reference=ref,
        gold_da=gold, quality=0.5, tag=tag,
    )


# --- generation ------------------------------------------------------------


def test_generate_is_deterministic():
    a = generate_synth([(EN_DE, 0.7)], 50, seed="gen")
    b = generate_synth([(EN_DE, 0.7)], 50, seed="gen")
    assert a == b


def test_generate_seeds_differ():
    a = generate_synth([(EN_DE, 0.7)], 50, seed="gen-1")
    b = generate_synth([(EN_DE, 0.7)], 50, seed="gen-2")
    assert a != b


def test_generate_rejects_bad_mean():
    with pytest.raises(ValueError, match="must be in \\[0,1\\]"):
        generate_synth([(EN_DE, 1.2)], 10, seed=0)


def test_zero_corruption_is_identity():
    rng = random.Random("c0")
    for _ in range(20):
        ref = "".join(rng.choice("abcdefgh") for _ in range(rng.randrange(5, 30)))
        assert corrupt_text(ref, 0.0, "abcdefgh", rng) == ref


def test_corruption_never_lengthens():
    # substitutions keep length, deletions shrink it
    data = generate_synth([(EN_DE, 0.6), (EN_ZH, 0.6)], 200, seed="len")
    assert all(len(ex.hypothesis) <= len(ex.reference) for ex in data)


def test_gold_clamped_and_quality_in_unit_interval():
    data = generate_synth([(EN_DE, 0.95)], 300, seed="clamp")
    assert all(0.0 <= ex.gold_da <= 1.0 for ex in data)
    assert all(0.0 <= ex.quality <= 1.0 for ex in data)


def test_prior_separation_shows_up_in_sample_means():
    # Generated gold means should sit near the configured priors; the
    # clamp at 1.0 shaves a little off the very high one.
    data = generate_synth([(Direction("hi", "bn"), 0.910), (Direction("en", "gu"), 0.514)], 400, seed="prior")
    hi = [ex.gold_da for ex in data if ex.direction == Direction("hi", "bn")]
    gu = [ex.gold_da for ex in data if ex.direction == Direction("en", "gu")]
    diff = sum(hi) / len(hi) - sum(gu) / len(gu)
    assert abs(diff - 0.396) < 0.05


def test_tag_is_carried_through():
    data = generate_synth([(EN_DE, 0.7)], 5, seed=0, tag="2020")
    assert all(ex.tag == "2020" for ex in data)


# --- featurization ----------------------------------------------------------


def test_featurize_empty_texts_leave_only_direction_feature():
    features = featurize(make_example("", ""))
    assert len(features) == 1
    tagged = featurize(make_example("", "", tag="2020"))
    assert len(tagged) == 2


def test_featurize_identical_examples_identical_vectors():
    a = featurize(make_example("abca", "abcb"))
    b = featurize(make_example("abca", "abcb"))
    assert a == b


def test_featurize_counts_ngrams():
    # "abab": unigrams a,b twice each; bigrams ab x2, ba x1; trigrams aba, bab
    features = featurize(make_example("abab", ""), dim=SMALL_DIM)
    counts = sorted(features.values())
    assert counts == [1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0]


def test_hyp_and_ref_namespaces_are_separate():
    both = featurize(make_example("xyz", "xyz"))
    hyp_only = featurize(make_example("xyz", ""))
    ref_only = featurize(make_example("", "xyz"))
    assert set(both) == set(hyp_only) | set(ref_only)
    assert not (set(hyp_only) & set(ref_only)) - set(featurize(make_example("", "")))


def test_changing_tag_changes_exactly_one_active_index():
    a = set(featurize(make_example("abc", "abd", tag="2019")))
    b = set(featurize(make_example("abc", "abd", tag="2020")))
    assert len(a - b) == 1 and len(b - a) == 1


def test_token_collision_check():
    # the tokens tag_bias_experiment uses must not collide at the real dimension
    assert_no_token_collisions([("tag", tag) for tag in TEST_TAGS] + [("dir", str(TAG_DIRECTION))])
    assert_no_token_collisions([("tag", "2019"), ("tag", "2019")], dim=1)
    with pytest.raises(ValueError, match="hash collision"):
        assert_no_token_collisions([("tag", "2019"), ("tag", "2020")], dim=1)


# --- the linear scorer -------------------------------------------------------


def test_dim_must_be_power_of_two():
    with pytest.raises(ValueError, match="power of two"):
        ToyScorer(dim=1000)


def test_prediction_is_linear_in_features():
    scorer = ToyScorer(dim=SMALL_DIM)
    rng = np.random.default_rng(7)
    scorer.weights[:] = rng.normal(size=SMALL_DIM)
    scorer.bias = 0.25
    features = {3: 1.0, 17: 2.0, 99: 5.0}
    doubled = {i: 2.0 * v for i, v in features.items()}
    assert scorer.predict_features(doubled) - scorer.bias == 2.0 * (
        scorer.predict_features(features) - scorer.bias
    )


def test_squared_error_overflows_to_inf():
    scorer = ToyScorer(dim=SMALL_DIM)
    scorer.weights[3] = 1e200
    assert scorer.step({3: 1.0}, 0.0, 5e-4) == float("inf")


def test_gradient_matches_central_finite_differences():
    """The step training takes moves each weight and the bias by the
    learning rate times the derivative of (prediction - gold) ** 2."""
    rng = np.random.default_rng(11)
    scorer = ToyScorer(dim=SMALL_DIM)
    scorer.weights[:] = rng.normal(scale=0.05, size=SMALL_DIM)
    scorer.bias = 0.1
    data = generate_synth([(EN_DE, 0.7)], 10, seed="grad")
    h = 1e-6
    learning_rate = 5e-4

    def squared_error(features, gold):
        return (scorer.predict_features(features) - gold) ** 2

    for ex in data:
        features = featurize(ex, dim=SMALL_DIM)
        picked = rng.choice(sorted(features), size=min(10, len(features)), replace=False)
        numeric_w = {}
        for idx in picked:
            orig = scorer.weights[idx]
            scorer.weights[idx] = orig + h
            up = squared_error(features, ex.gold_da)
            scorer.weights[idx] = orig - h
            down = squared_error(features, ex.gold_da)
            scorer.weights[idx] = orig
            numeric_w[idx] = (up - down) / (2 * h)
        b_before = scorer.bias
        scorer.bias = b_before + h
        up = squared_error(features, ex.gold_da)
        scorer.bias = b_before - h
        down = squared_error(features, ex.gold_da)
        scorer.bias = b_before
        numeric_b = (up - down) / (2 * h)
        w_before = list(scorer.weights)
        scorer.step(features, ex.gold_da, learning_rate)
        for idx, numeric in numeric_w.items():
            grad_w = (w_before[idx] - scorer.weights[idx]) / learning_rate
            assert abs(grad_w - numeric) / max(abs(numeric), 1e-8) < 1e-4
        grad_b = (b_before - scorer.bias) / learning_rate
        assert abs(grad_b - numeric_b) / max(abs(numeric_b), 1e-8) < 1e-4


def test_training_memorizes_single_example():
    ex = generate_synth([(EN_DE, 0.7)], 1, seed="memo")[0]
    scorer = train([ex], epochs=60, dim=SMALL_DIM)
    assert abs(scorer.predict_features(featurize(ex, SMALL_DIM)) - ex.gold_da) < 1e-3


def test_epoch_losses_recorded_finite_and_shrinking():
    data = generate_synth([(EN_DE, 0.7)], 60, seed="loss")
    scorer = train(data, epochs=15, dim=SMALL_DIM)
    assert len(scorer.epoch_losses) == 15
    assert all(np.isfinite(loss) for loss in scorer.epoch_losses)
    assert scorer.epoch_losses[-1] < scorer.epoch_losses[0]


def test_training_is_bit_identical_across_runs():
    data = generate_synth([(EN_DE, 0.7)], 40, seed="det")
    a = train(data, epochs=5, seed="t", dim=SMALL_DIM)
    b = train(data, epochs=5, seed="t", dim=SMALL_DIM)
    assert np.array_equal(a.weights, b.weights)
    assert a.bias == b.bias
    assert a.epoch_losses == b.epoch_losses


def test_training_rejects_empty_dataset():
    with pytest.raises(ValueError, match="empty dataset"):
        train([])


def test_training_reports_divergence():
    data = generate_synth([(EN_DE, 0.7)], 40, seed="diverge")
    with pytest.raises(ValueError, match="diverged"):
        train(data, epochs=20, learning_rate=0.5, dim=SMALL_DIM)


def test_mean_score_rejects_empty():
    with pytest.raises(ValueError, match="empty"):
        mean_score(ToyScorer(dim=SMALL_DIM), [])


# --- dataset surgery ---------------------------------------------------------


def test_filter_fraction_one_is_identity():
    data = generate_synth([(EN_DE, 0.7)], 30, seed="id")
    assert filter_fraction(data, EN_DE, "top", 1.0) == data


@pytest.mark.parametrize("keep", ["top", "bottom"])
def test_filter_keeping_zero_examples_keeps_none_of_the_direction(keep):
    data = generate_synth([(EN_DE, 0.7), (EN_ZH, 0.6)], 4, seed=1)  # 0.1 of 4 rounds to 0
    assert filter_fraction(data, EN_DE, keep, 0.1) == [ex for ex in data if ex.direction == EN_ZH]


def test_filter_keeps_highest_75():
    data = generate_synth([(EN_DE, 0.7)], 100, seed="top")
    kept = filter_fraction(data, EN_DE, "top", 0.75)
    assert len(kept) == 75
    cutoff = sorted(ex.gold_da for ex in data)[25]
    assert all(ex.gold_da >= cutoff for ex in kept)


def test_filter_mean_ordering():
    data = generate_synth([(EN_DE, 0.7)], 100, seed="order")
    mean = lambda rows: sum(ex.gold_da for ex in rows) / len(rows)
    top = filter_fraction(data, EN_DE, "top", 0.75)
    bottom = filter_fraction(data, EN_DE, "bottom", 0.75)
    assert mean(top) > mean(data) > mean(bottom)


def test_filter_leaves_other_directions_untouched():
    data = generate_synth([(EN_DE, 0.8), (EN_ZH, 0.6)], 50, seed="mix")
    kept = filter_fraction(data, EN_DE, "bottom", 0.5)
    assert [ex for ex in kept if ex.direction == EN_ZH] == [ex for ex in data if ex.direction == EN_ZH]
    # original interleaving preserved for the survivors
    survivors = [ex for ex in data if ex in kept]
    assert survivors == kept


def test_filter_ties_break_by_original_index():
    data = [
        SynthExample(ex.direction, ex.source, ex.hypothesis, ex.reference, 0.5, ex.quality, ex.tag)
        for ex in generate_synth([(EN_DE, 0.5)], 10, seed="tie")
    ]
    kept = filter_fraction(data, EN_DE, "top", 0.5)
    assert kept == data[5:]
    assert filter_fraction(data, EN_DE, "bottom", 0.5) == data[:5]


def test_filter_rejects_bad_arguments():
    data = generate_synth([(EN_DE, 0.7)], 10, seed="bad")
    with pytest.raises(ValueError, match="fraction"):
        filter_fraction(data, EN_DE, "top", 0.0)
    with pytest.raises(ValueError, match="fraction"):
        filter_fraction(data, EN_DE, "top", 1.5)
    with pytest.raises(ValueError, match="keep"):
        filter_fraction(data, EN_DE, "middle", 0.5)
    with pytest.raises(ValueError, match="no examples"):
        filter_fraction(data, EN_ZH, "top", 0.5)


# --- experiment reports -------------------------------------------------------


def test_experiment_rows_rejects_unknown_mode():
    with pytest.raises(ValueError, match="unknown biaslab mode 'x': expected dist or tags"):
        experiment_rows("x", [0])


def test_distribution_report_shape():
    report = distribution_bias_experiment("shape", n_per_group=40, n_test=20, epochs=2)
    assert report.directions == ("en-de", "en-zh")
    assert len(report.rows) == 5
    configs = [row[0] for row in report.rows]
    assert configs == ["all", "top75:en-de", "bottom75:en-de", "top75:en-zh", "bottom75:en-zh"]
    assert all(np.isfinite(row[1]) and np.isfinite(row[2]) for row in report.rows)


def test_distribution_experiment_deterministic():
    a = distribution_bias_experiment("rep", n_per_group=30, n_test=15, epochs=2)
    b = distribution_bias_experiment("rep", n_per_group=30, n_test=15, epochs=2)
    assert a == b


def test_tag_report_shape_and_seen_flags():
    report = tag_bias_experiment("shape", n_per_group=40, n_test=30, epochs=3)
    assert [row[0] for row in report.rows] == list(TEST_TAGS)
    assert {row[0] for row in report.rows if row[2]} == set(TAG_TRAIN_MEANS)


def test_tag_changes_score_and_unseen_tags_tie():
    report = tag_bias_experiment("tiny", n_per_group=40, n_test=30, epochs=3)
    means = {tag: m for tag, m, _ in report.rows}
    assert len({means[tag] for tag in TAG_TRAIN_MEANS}) == 3
    # an unseen tag's slot carries zero weight, so they all tie exactly
    unseen = [means[tag] for tag, _, seen in report.rows if not seen]
    assert max(unseen) == min(unseen)
    assert unseen[0] != means["2020"]


def test_tag_experiment_deterministic():
    a = tag_bias_experiment("rep", n_per_group=30, n_test=20, epochs=2)
    b = tag_bias_experiment("rep", n_per_group=30, n_test=20, epochs=2)
    assert a == b
