"""Toy-scale laboratory for training-data bias effects.

A linear regressor over hashed character n-grams stands in for a
neural metric: big enough to learn that corrupted hypotheses score
low, small enough to train in seconds. Two experiments show how its
scores drift when the training data is skewed — by filtering one
translation direction's score distribution, and by year tags attached
to the training examples.
"""

from __future__ import annotations

import math
import random
import string
import zlib
from collections import Counter
from typing import Sequence

from .evalset import Direction, Record

# Experiment knobs, not claims. gold_da = clamp(mean + DA_SLOPE*(q-1/2) + noise),
# and a quality-q hypothesis keeps its reference chars with prob 1 - (1-q)*CORRUPTION_SCALE.
CORRUPTION_SCALE = 0.5
DA_SLOPE = 0.3
DA_NOISE_SIGMA = 0.05
DIM = 2**18  # power of two
NGRAM_ORDERS = (1, 2, 3)
ALPHABET_SIZE = 10
REF_LEN_RANGE = (15, 28)

# Per-direction mean human scores used as synthetic-data priors.
DIST_DIRECTIONS: tuple[tuple[Direction, float], ...] = (
    (Direction("en", "de"), 0.841),
    (Direction("en", "zh"), 0.775),
)
TAG_DIRECTION = Direction("en", "de")
TAG_TRAIN_MEANS = {"2019": 0.721, "2020": 0.735, "2021": 0.749}
TEST_TAGS = tuple(str(year) for year in range(2018, 2026))


class SynthExample(Record):
    __slots__ = ("direction", "source", "hypothesis", "reference", "gold_da", "quality", "tag")
    direction: Direction
    source: str
    hypothesis: str
    reference: str
    gold_da: float
    quality: float
    tag: str | None

    def __init__(
        self,
        direction: Direction,
        source: str,
        hypothesis: str,
        reference: str,
        gold_da: float,
        quality: float,
        tag: str | None = None,
    ) -> None:
        super().__init__(direction, source, hypothesis, reference, gold_da, quality, tag)


def _direction_alphabet(direction: Direction, side: str) -> str:
    rng = random.Random(f"alphabet:{side}:{direction}")
    return "".join(rng.sample(string.ascii_lowercase, ALPHABET_SIZE))


def corrupt_text(reference: str, rate: float, alphabet: str, rng: random.Random) -> str:
    """Each character survives with probability 1-rate; a corrupted one is
    equally likely replaced by a random alphabet character or dropped."""
    chars = []
    for ch in reference:
        if rng.random() >= rate:
            chars.append(ch)
        elif rng.random() < 0.5:
            chars.append(rng.choice(alphabet))
    return "".join(chars)


def generate_synth(
    directions: Sequence[tuple[Direction, float]],
    n_per_direction: int,
    seed: int | str,
    tag: str | None = None,
) -> list[SynthExample]:
    """Deterministic synthetic (reference, hypothesis, gold_da) triples.

    Per example: latent quality q ~ U[0,1]; the reference is a random
    string over a direction-specific alphabet; the hypothesis is the
    reference with substitution/deletion noise at rate (1-q)*0.5, so
    q = 1 reproduces it exactly; gold_da couples to q with slope 0.3
    plus N(0, 0.05) noise, clamped to [0,1].
    """
    examples = []
    for direction, mean_da in directions:
        if not 0.0 <= mean_da <= 1.0:
            raise ValueError(f"mean DA for {direction} must be in [0,1], got {mean_da}")
        tgt_alphabet = _direction_alphabet(direction, "tgt")
        src_alphabet = _direction_alphabet(direction, "src")
        rng = random.Random(f"synth:{seed}:{direction}:{tag}")
        for _ in range(n_per_direction):
            quality = rng.random()
            length = rng.randrange(*REF_LEN_RANGE)
            reference = "".join(rng.choice(tgt_alphabet) for _ in range(length))
            rate = (1.0 - quality) * CORRUPTION_SCALE
            hypothesis = corrupt_text(reference, rate, tgt_alphabet, rng)
            source = "".join(rng.choice(src_alphabet) for _ in range(length))
            gold = min(max(mean_da + DA_SLOPE * (quality - 0.5) + rng.gauss(0.0, DA_NOISE_SIGMA), 0.0), 1.0)
            examples.append(SynthExample(direction, source, hypothesis, reference, gold, quality, tag))
    return examples


# --- featurization and the linear scorer ---------------------------------


def _slot(namespace: str, token: str, dim: int) -> int:
    key = f"0\x1f{namespace}\x1f{token}".encode("utf-8")  # "0" is the hash seed; every feature slot depends on it
    return zlib.crc32(key) % dim


def featurize(example: SynthExample, dim: int = DIM) -> Counter[int]:
    """Hashed sparse counts: hyp and ref n-grams in separate namespaces,
    one direction token, and one tag token when a tag is present. Slots
    come in the order they are first seen."""
    features: Counter[int] = Counter()
    for namespace, text in (("hyp", example.hypothesis), ("ref", example.reference)):
        for n in NGRAM_ORDERS:
            features.update(_slot(namespace, text[i : i + n], dim) for i in range(len(text) - n + 1))
    features[_slot("dir", str(example.direction), dim)] += 1
    if example.tag is not None:
        features[_slot("tag", example.tag, dim)] += 1
    return features


class ToyScorer:
    """Dense-weight linear regressor over hashed features."""

    def __init__(self, dim: int = DIM) -> None:
        if dim & (dim - 1) != 0 or dim <= 0:
            raise ValueError("feature dimension must be a power of two")
        self.dim = dim
        self.weights = [0.0] * dim
        self.bias = 0.0
        self.epoch_losses: tuple[float, ...] = ()

    def predict_features(self, features: dict[int, float]) -> float:
        """The model's one prediction: products added one at a time in the
        features' order, then the bias. No BLAS dot (its summation order
        depends on the CPU) and no ``sum()`` (its float algorithm changed in
        Python 3.12), so the result is the same on every CPU and Python."""
        weights = self.weights
        total = 0.0
        for i, v in features.items():
            total += weights[i] * v
        return self.bias + total

    def step(self, features: dict[int, float], gold: float, learning_rate: float) -> float:
        """One SGD step on the squared error of one example: each weight and
        the bias move by ``learning_rate`` times their derivative, 2 * err * v
        and 2 * err. Returns the squared error before the step."""
        err = self.predict_features(features) - gold
        step = 2.0 * learning_rate * err
        weights = self.weights
        for i, v in features.items():
            weights[i] -= step * v
        self.bias -= step
        return err * err


def train(
    dataset: Sequence[SynthExample],
    epochs: int = 30,
    learning_rate: float = 5e-4,
    seed: int | str = 0,
    dim: int = DIM,
) -> ToyScorer:
    """Plain SGD on squared error with a per-epoch deterministic shuffle.

    The default learning rate is small because features are raw counts:
    a per-example step of 2*lr*|x|^2 beyond 1 oscillates, and |x|^2 is
    a few hundred here.
    """
    if not dataset:
        raise ValueError("cannot train on an empty dataset")
    cached = [(featurize(ex, dim), ex.gold_da) for ex in dataset]
    scorer = ToyScorer(dim=dim)
    rng = random.Random(f"train:{seed}")
    order = list(range(len(cached)))
    losses = []
    for _ in range(epochs):
        rng.shuffle(order)
        epoch_loss = 0.0
        for k in order:
            features, gold = cached[k]  # not step(*cached[k], ...): a star call costs about 10% of training
            epoch_loss += scorer.step(features, gold, learning_rate)
        mean_loss = epoch_loss / len(cached)
        if not math.isfinite(mean_loss):
            raise ValueError(f"training diverged (epoch loss {mean_loss}); lower the learning rate")
        losses.append(mean_loss)
    scorer.epoch_losses = tuple(losses)
    return scorer


def mean_score(scorer: ToyScorer, dataset: Sequence[SynthExample]) -> float:
    if not dataset:
        raise ValueError("cannot average over an empty dataset")
    return math.fsum(scorer.predict_features(featurize(ex, scorer.dim)) for ex in dataset) / len(dataset)


# --- dataset surgery ------------------------------------------------------


def filter_fraction(
    dataset: Sequence[SynthExample],
    direction: Direction,
    keep: str,
    fraction: float,
) -> list[SynthExample]:
    """Keep only the top/bottom fraction (by gold_da) of one direction.

    Other directions pass through untouched; the output preserves the
    original dataset order. Ties break by original index.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    if keep not in ("top", "bottom"):
        raise ValueError(f"keep must be 'top' or 'bottom', got {keep!r}")
    in_direction = [(ex.gold_da, i) for i, ex in enumerate(dataset) if ex.direction == direction]
    if not in_direction:
        raise ValueError(f"no examples for direction {direction}")
    in_direction.sort()
    k = round(fraction * len(in_direction))
    chosen = in_direction[len(in_direction) - k :] if keep == "top" else in_direction[:k]
    kept_indices = {i for _, i in chosen}
    return [ex for i, ex in enumerate(dataset) if ex.direction != direction or i in kept_indices]


# --- experiments ----------------------------------------------------------


class DistBiasReport(Record):
    """Mean test-set score per direction for each training-data filter."""

    __slots__ = ("directions", "rows")
    directions: tuple[str, str]
    rows: tuple[tuple[str, float, float], ...]  # (config, mean A, mean B)

    def __init__(self, directions: tuple[str, str], rows: tuple[tuple[str, float, float], ...]) -> None:
        super().__init__(directions, rows)


def distribution_bias_experiment(
    seed: int | str,
    n_per_group: int = 250,
    n_test: int = 200,
    epochs: int = 30,
    learning_rate: float = 5e-4,
) -> DistBiasReport:
    """Train on {all, top/bottom-75% of each direction}, score one test set.

    Each direction is a group of ``n_per_group`` training examples (and
    ``n_test`` test examples) before filtering. The priors 0.841 and
    0.775 are per-direction mean human scores; filtering shifts the
    filtered direction's training mean and the scorer follows it, while
    the untouched direction should barely move.
    """
    (dir_a, mean_a), (dir_b, mean_b) = DIST_DIRECTIONS
    train_set = generate_synth(DIST_DIRECTIONS, n_per_group, seed=f"{seed}/train")
    test_set = generate_synth(DIST_DIRECTIONS, n_test, seed=f"{seed}/test")
    test_a = [ex for ex in test_set if ex.direction == dir_a]
    test_b = [ex for ex in test_set if ex.direction == dir_b]

    configs = [
        ("all", train_set),
        (f"top75:{dir_a}", filter_fraction(train_set, dir_a, "top", 0.75)),
        (f"bottom75:{dir_a}", filter_fraction(train_set, dir_a, "bottom", 0.75)),
        (f"top75:{dir_b}", filter_fraction(train_set, dir_b, "top", 0.75)),
        (f"bottom75:{dir_b}", filter_fraction(train_set, dir_b, "bottom", 0.75)),
    ]
    rows = []
    for name, data in configs:
        scorer = train(data, epochs=epochs, learning_rate=learning_rate, seed=seed)
        rows.append((name, mean_score(scorer, test_a), mean_score(scorer, test_b)))
    return DistBiasReport(directions=(str(dir_a), str(dir_b)), rows=tuple(rows))


class TagBiasReport(Record):
    """Mean predicted score when the whole test set carries one tag."""

    __slots__ = ("rows",)
    rows: tuple[tuple[str, float, bool], ...]  # (tag, mean score, seen in training)

    def __init__(self, rows: tuple[tuple[str, float, bool], ...]) -> None:
        super().__init__(rows)


def tag_bias_experiment(
    seed: int | str,
    n_per_group: int = 400,
    n_test: int = 200,
    epochs: int = 150,
    learning_rate: float = 1e-3,
) -> TagBiasReport:
    """Train with year tags 2019-2021 whose gold means rise with the year,
    then score one fixed test set once per tag 2018-2025.

    Each tag is a group of ``n_per_group`` training examples, and a
    same-sized untagged portion trains alongside the tagged groups.
    It anchors the intercept at the overall mean so each tag weight
    converges to that year's offset (2019's below zero, 2021's above);
    without the anchor the intercept/tag split is underdetermined and
    the tag weights absorb a large share of the common level, pushing
    every unseen tag below every seen one.  Convergence matters as much
    as the anchor: groups must be large enough that the n-gram weights
    cannot memorize individual examples, and training long enough that
    the slowly-moving tag-vs-intercept direction actually settles.
    """
    base_mean = math.fsum(TAG_TRAIN_MEANS.values()) / len(TAG_TRAIN_MEANS)
    train_set: list[SynthExample] = []
    for tag, mean_da in TAG_TRAIN_MEANS.items():
        train_set.extend(
            generate_synth([(TAG_DIRECTION, mean_da)], n_per_group, seed=f"{seed}/tag{tag}", tag=tag)
        )
    train_set.extend(generate_synth([(TAG_DIRECTION, base_mean)], n_per_group, seed=f"{seed}/anchor"))
    scorer = train(train_set, epochs=epochs, learning_rate=learning_rate, seed=seed)
    test_set = generate_synth([(TAG_DIRECTION, base_mean)], n_test, seed=f"{seed}/test")
    rows = []
    for tag in TEST_TAGS:
        retagged = [
            SynthExample(ex.direction, ex.source, ex.hypothesis, ex.reference, ex.gold_da, ex.quality, tag)
            for ex in test_set
        ]
        rows.append((tag, mean_score(scorer, retagged), tag in TAG_TRAIN_MEANS))
    return TagBiasReport(rows=tuple(rows))


def experiment_rows(mode: str, seeds: Sequence[int], **knobs) -> tuple[list[str], list[str]]:
    """Run one experiment (``dist`` or ``tags``) for each seed, in order.

    Returns the TSV rows, header first, and the summary lines that say in
    how many seeds the expected pattern showed. ``knobs`` go to the
    experiment unchanged.
    """
    if mode == "dist":
        rows = ["seed\tconfig\tmean_en-de\tmean_en-zh"]
        up = down = 0
        touched_shifts: list[float] = []
        untouched_shifts: list[float] = []
        for seed in seeds:
            report = distribution_bias_experiment(seed, **knobs)
            means = {name: (a, b) for name, a, b in report.rows}
            for name, mean_a, mean_b in report.rows:
                rows.append(f"{seed}\t{name}\t{mean_a!r}\t{mean_b!r}")
            base_a, base_b = means["all"]
            dir_a, dir_b = report.directions
            up += means[f"top75:{dir_a}"][0] > base_a
            down += means[f"bottom75:{dir_a}"][0] < base_a
            touched_shifts += [
                abs(means[f"top75:{dir_a}"][0] - base_a),
                abs(means[f"bottom75:{dir_a}"][0] - base_a),
            ]
            untouched_shifts += [
                abs(means[f"top75:{dir_a}"][1] - base_b),
                abs(means[f"bottom75:{dir_a}"][1] - base_b),
            ]
        touched = math.fsum(touched_shifts) / len(touched_shifts)
        untouched = math.fsum(untouched_shifts) / len(untouched_shifts)
        summary = [
            f"top-75% filtering raised the filtered direction in {up}/{len(seeds)} seeds",
            f"bottom-75% filtering lowered it in {down}/{len(seeds)} seeds",
            f"mean shift {touched:.4f} on the filtered direction vs {untouched:.4f} on the other"
            f" (pattern {'held' if untouched < touched / 2 else 'did not hold'})",
        ]
    elif mode == "tags":
        rows = ["seed\ttag\tmean_score\tseen"]
        nondecreasing = 0
        unseen_above = 0
        for seed in seeds:
            report = tag_bias_experiment(seed, **knobs)
            means = {tag: mean for tag, mean, _ in report.rows}
            for tag, mean, seen in report.rows:
                rows.append(f"{seed}\t{tag}\t{mean!r}\t{int(seen)}")
            nondecreasing += means["2019"] <= means["2020"] <= means["2021"]
            best_unseen = max(means[t] for t, _, seen in report.rows if not seen and t != "2018")
            unseen_above += best_unseen > means["2019"]
        summary = [
            f"score non-decreasing across seen tags 2019->2021 in {nondecreasing}/{len(seeds)} seeds",
            f"an unseen tag (2022-2025) beat the 2019 tag in {unseen_above}/{len(seeds)} seeds",
        ]
    else:
        raise ValueError(f"unknown biaslab mode {mode!r}: expected dist or tags")
    return rows, summary
