"""Whole-package acceptance checks.

Each test covers one numbered criterion, carries its tolerance and
runtime budget inline, and prints a single pass/fail line even under
captured output (run plain ``pytest`` and watch the lines appear).
"""

import math
import random
import statistics
import string
import sys
import time

import pytest

from mtharness.biaslab import (
    ToyScorer,
    distribution_bias_experiment,
    featurize,
    generate_synth,
    tag_bias_experiment,
)
from mtharness.cli import EXIT_OK, main
from mtharness.evalset import Direction, EvalSet, ScoreTable, Segment, system_score
from mtharness.guards import (
    apply_empty_guard,
    apply_lang_guard,
    build_language_profile,
    bundled_profiles,
    identify_language,
    load_seed_lines,
    BUNDLED_SEED_LANGS,
)
from mtharness.metastats import SystemRanking, kendall_tau_a, kendall_tau_c, pairwise_accuracy
from mtharness.multiref import multiref_agg
from mtharness.provenance import check_reporting, make_signature, parse_signature
from mtharness.scorer import ExternalBackend, ScoreRequest, SurrogateBackend, score_evalset


@pytest.fixture
def criterion(capsys):
    """Runs one acceptance body, enforcing its runtime budget and
    printing the verdict past pytest's capture."""

    def run(number, name, body, budget=None):
        start = time.perf_counter()
        try:
            body()
            elapsed = time.perf_counter() - start
            if budget is not None and elapsed >= budget:
                raise AssertionError(f"runtime {elapsed:.2f}s exceeds the {budget}s budget")
        except BaseException:
            with capsys.disabled():
                print(f"criterion {number:2d} {name}: FAIL")
            raise
        with capsys.disabled():
            print(f"criterion {number:2d} {name}: PASS ({elapsed:.2f}s)")

    return run


# --- 1: signature ------------------------------------------------------------


def test_01_signature_exactness(criterion, capsys):
    def body():
        assert main(["signature", "--model", "unite-mup", "--prec", "fp32",
                     "--interp", "3.11.8", "--framework", "2.2.2"]) == EXIT_OK
        assert capsys.readouterr().out == "Python3.11.8|Comet2.2.2|fp32|unite-mup\n"
        rng = random.Random("acceptance:signature")
        version_chars = string.digits
        model_chars = string.ascii_letters + string.digits + "-._/"
        for _ in range(1000):
            def version():
                if rng.random() < 0.1:
                    return "unk"
                return ".".join(str(rng.randrange(100)) for _ in range(rng.randrange(1, 4)))
            model = "".join(rng.choice(model_chars) for _ in range(rng.randrange(1, 30)))
            precision = rng.choice(["fp32", "fp16", "qint8", "unk"])
            rendered = make_signature(model, version(), version(), precision)
            assert parse_signature(rendered).render() == rendered

    criterion(1, "signature-exactness", body, budget=1.0)


# --- 2: citations -------------------------------------------------------------


def test_02_citation_exactness(criterion, capsys):
    def body():
        assert main(["cite", "Unbabel/xcomet-xl"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "https://arxiv.org/abs/2310.10482"
        assert main(["cite", "wmt22-comet-da"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "https://aclanthology.org/2022.wmt-1.52"
        assert "2020" not in out

    criterion(2, "citation-exactness", body)


# --- 3: reporting regex --------------------------------------------------------

REPORTING_FIXTURE = [
    ("we use wmt22-comet-da", ["wmt22-comet"]),
    ("COMET-20 scores", ["COMET-20"]),
    ("plain COMET everywhere", []),
    ("xcomet-xl and xcomet-xxl", ["xcomet-", "xcomet-"]),
    ("wmt-da-estimator v2", ["wmt-da-estimator"]),
    ("WMT21-COMET-QE-MQM", ["WMT21-COMET"]),
    ("comet da", ["comet da"]),
    ("cometda", []),
    ("the comet-22 model", ["comet-22"]),
    ("wmt19-comet", []),
    ("WMT22-comet-DA and other comet-das", ["WMT22-comet", "comet-da"]),
    ("Xcomet-XXL at fp16", ["Xcomet-"]),
    ("", []),
    ("wmt20-comet-qe-da baseline", ["wmt20-comet"]),
    ("uses comet-21 and comet 23", ["comet-21", "comet 23"]),
    ("wmt23-cometkiwi-da-xl", ["wmt23-comet"]),
    ("tomcomet-da", ["comet-da"]),
    ("COMET-QE", []),
    ("xcomet", []),
    ("WMT-DA-Estimator and xcomet-xl mix", ["WMT-DA-Estimator", "xcomet-"]),
]


def test_03_reporting_regex_fixture(criterion):
    def body():
        assert len(REPORTING_FIXTURE) == 20
        for text, expected in REPORTING_FIXTURE:
            assert check_reporting(text) == expected, f"fixture case {text!r}"

    criterion(3, "reporting-regex-fixture", body)


# --- 4: agg combiner ------------------------------------------------------------


class _ScriptedBackend:
    def __init__(self, scores):
        self.scores = list(scores)

    def score_batch(self, requests):
        assert len(requests) == len(self.scores)
        return list(self.scores)


def test_04_agg_formula_oracle(criterion):
    def body():
        rng = random.Random("acceptance:agg")
        for i in range(1000):
            if i % 10 == 0:
                scores = [rng.uniform(-1, 1)] * 6
            else:
                scores = [rng.uniform(-1, 1) for _ in range(6)]
            got = multiref_agg(_ScriptedBackend(scores), "s", "h", "r1", "r2")
            if max(scores) == min(scores):
                assert got == scores[0]
            else:
                oracle = statistics.mean(scores) * (1 - statistics.pstdev(scores))
                assert abs(got - oracle) <= 1e-12

    criterion(4, "agg-formula-oracle", body)


# --- 5: rank statistics -----------------------------------------------------------


def _brute_taus(x, y):
    n = len(x)
    concordant = discordant = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = (x[i] > x[j]) - (x[i] < x[j])
            dy = (y[i] > y[j]) - (y[i] < y[j])
            concordant += dx * dy > 0
            discordant += dx * dy < 0
    tau_a = (concordant - discordant) / (n * (n - 1) / 2)
    m = min(len(set(x)), len(set(y)))
    tau_c = 0.0 if m == 1 else (concordant - discordant) * 2 * m / (n * n * (m - 1))
    return tau_a, tau_c


def _brute_pairwise(metric, human):
    names = sorted(metric)
    agree = total = 0
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            a, b = names[i], names[j]
            dm = (metric[a] > metric[b]) - (metric[a] < metric[b])
            dh = (human[a] > human[b]) - (human[a] < human[b])
            agree += dm == dh
            total += 1
    return agree / total


def test_05_rank_statistics_oracle(criterion):
    def body():
        rng = random.Random("acceptance:rank")
        for case in range(1000):
            n = rng.randrange(2, 11)
            if case % 2 == 0:  # tie-heavy integer scores
                x = [float(rng.randrange(4)) for _ in range(n)]
                y = [float(rng.randrange(4)) for _ in range(n)]
            else:
                x = [rng.uniform(0, 1) for _ in range(n)]
                y = [rng.uniform(0, 1) for _ in range(n)]
            oracle_a, oracle_c = _brute_taus(x, y)
            assert abs(kendall_tau_a(x, y) - oracle_a) <= 1e-12
            assert abs(kendall_tau_c(x, y) - oracle_c) <= 1e-12
            names = [f"sys{i}" for i in range(n)]
            metric = SystemRanking(tuple(zip(names, x)))
            human = SystemRanking(tuple(zip(names, y)))
            oracle_acc = _brute_pairwise(dict(zip(names, x)), dict(zip(names, y)))
            assert abs(pairwise_accuracy(metric, human) - oracle_acc) <= 1e-12
        for _ in range(100):
            n = rng.randrange(2, 11)
            x = [float(rng.randrange(5)) for _ in range(n)]
            y = [float(rng.randrange(5)) for _ in range(n)]
            fx = [v**3 for v in x]  # strictly increasing transforms
            gy = [math.exp(v / 3) for v in y]
            assert kendall_tau_a(fx, gy) == kendall_tau_a(x, y)
            assert kendall_tau_c(fx, gy) == kendall_tau_c(x, y)
            names = [f"sys{i}" for i in range(n)]
            assert pairwise_accuracy(
                SystemRanking(tuple(zip(names, fx))), SystemRanking(tuple(zip(names, gy)))
            ) == pairwise_accuracy(
                SystemRanking(tuple(zip(names, x))), SystemRanking(tuple(zip(names, y)))
            )

    criterion(5, "rank-statistics-oracle", body)


# --- 6: guards ---------------------------------------------------------------------


def _random_evalset(rng, n, whitespace_rate=0.2):
    de_lines = load_seed_lines("de")
    zh_lines = load_seed_lines("zh")
    segments = []
    for i in range(n):
        roll = rng.random()
        if roll < whitespace_rate:
            hyp = rng.choice(["", " ", "\t", "  \t "])
        elif roll < 0.6:
            hyp = rng.choice(de_lines)
        elif roll < 0.75:
            hyp = rng.choice(zh_lines)
        else:
            hyp = "".join(rng.choice("abcdefgh ") for _ in range(rng.randrange(1, 60)))
        segments.append(
            Segment(i, source=f"source {i}", hypothesis=hyp, references=(rng.choice(de_lines),))
        )
    return EvalSet(Direction("en", "de"), f"sys{rng.randrange(10)}", tuple(segments))


def test_06_guards(criterion):
    def body():
        rng = random.Random("acceptance:guards")
        profiles = bundled_profiles()
        backend = SurrogateBackend()
        # exact zeroes on whitespace-only hypotheses
        for _ in range(50):
            evalset = _random_evalset(rng, rng.randrange(2, 12))
            table, _ = apply_empty_guard(evalset, score_evalset(backend, evalset))
            for seg in evalset.segments:
                if seg.hypothesis.strip() == "":
                    assert table.scores[seg.index] == 0.0
        # idempotence of the composed guards on 100 random EvalSets
        for _ in range(100):
            evalset = _random_evalset(rng, rng.randrange(2, 10))
            table = score_evalset(backend, evalset)
            once, _ = apply_empty_guard(evalset, table)
            once, _ = apply_lang_guard(evalset, once, profiles, "de")
            twice, _ = apply_empty_guard(evalset, once)
            twice, _ = apply_lang_guard(evalset, twice, profiles, "de")
            assert twice == once
        # injecting 10% empties strictly lowers the system score
        de_lines = load_seed_lines("de")
        segments = [
            Segment(i, f"src {i}", de_lines[i % len(de_lines)], (de_lines[i % len(de_lines)],))
            for i in range(100)
        ]
        clean = EvalSet(Direction("en", "de"), "clean", tuple(segments))
        clean_table, _ = apply_empty_guard(clean, score_evalset(backend, clean))
        dropped = rng.sample(range(100), 10)
        damaged_segments = [
            Segment(s.index, s.source, "" if s.index in dropped else s.hypothesis, s.references)
            for s in segments
        ]
        damaged = EvalSet(Direction("en", "de"), "damaged", tuple(damaged_segments))
        damaged_table, report = apply_empty_guard(damaged, score_evalset(backend, damaged))
        assert report.guarded_count == 10
        assert system_score(damaged_table) < system_score(clean_table)

    criterion(6, "guards", body)


# --- 7: language identification -------------------------------------------------------


def test_07_language_id_holdout(criterion):
    def body():
        held_out = []
        profiles = []
        for lang in BUNDLED_SEED_LANGS:
            lines = load_seed_lines(lang)
            profiles.append(build_language_profile(lines[::2], lang))
            held_out.extend((lang, line) for line in lines[1::2] if len(line) >= 40)
        assert len(held_out) >= 50, "holdout too small to be meaningful"
        correct = sum(
            identify_language(line, profiles)[0] == lang for lang, line in held_out
        )
        accuracy = correct / len(held_out)
        assert accuracy >= 0.95, f"holdout accuracy {accuracy:.3f} on {len(held_out)} sentences"

    criterion(7, "language-id-holdout", body, budget=10.0)


# --- 8 and 9: training-data bias patterns -----------------------------------------------


def test_08_distribution_bias_pattern(criterion):
    def body():
        raised = lowered = 0
        filtered_shifts = []
        other_shifts = []
        for seed in range(5):
            report = distribution_bias_experiment(seed)
            means = {config: (a, b) for config, a, b in report.rows}
            dir_a = report.directions[0]
            base_a, base_b = means["all"]
            top_a = means[f"top75:{dir_a}"]
            bottom_a = means[f"bottom75:{dir_a}"]
            raised += top_a[0] > base_a
            lowered += bottom_a[0] < base_a
            filtered_shifts += [abs(top_a[0] - base_a), abs(bottom_a[0] - base_a)]
            other_shifts += [abs(top_a[1] - base_b), abs(bottom_a[1] - base_b)]
        assert raised >= 4, f"top-75% raised the filtered direction in only {raised}/5 seeds"
        assert lowered >= 4, f"bottom-75% lowered it in only {lowered}/5 seeds"
        avg_filtered = sum(filtered_shifts) / len(filtered_shifts)
        avg_other = sum(other_shifts) / len(other_shifts)
        assert avg_other < avg_filtered / 2, (
            f"untouched direction moved {avg_other:.4f} vs {avg_filtered:.4f} filtered"
        )

    criterion(8, "distribution-bias-pattern", body, budget=120.0)


def test_09_tag_bias_pattern(criterion):
    def body():
        nondecreasing = 0
        unseen_above = 0
        gaps = []
        for seed in range(5):
            report = tag_bias_experiment(seed)
            means = {tag: mean for tag, mean, _ in report.rows}
            nondecreasing += means["2019"] <= means["2020"] <= means["2021"]
            gap = max(means[t] for t in ("2022", "2023", "2024", "2025")) - means["2019"]
            gaps.append(gap)
            unseen_above += gap > 0
        assert nondecreasing >= 4, f"non-decreasing 2019->2021 in only {nondecreasing}/5 seeds"
        assert unseen_above >= 4, f"an unseen tag beat 2019 in only {unseen_above}/5 seeds"
        assert sum(gaps) / len(gaps) > 0, f"mean unseen-vs-2019 gap {sum(gaps)/len(gaps):+.4f}"

    criterion(9, "tag-bias-pattern", body, budget=120.0)


# --- 10: determinism across reruns ---------------------------------------------------------

ECHO_CHILD = """\
import sys
for i, line in enumerate(sys.stdin):
    print((i % 17) / 17)
"""


def test_10_rerun_determinism(criterion, run_module, tmp_path):
    def body():
        write = lambda name, text: (tmp_path / name).write_text(text, encoding="utf-8")
        write("src.txt", "a cat\nthe dog runs\nrain again\n")
        write("hyp.txt", "die katze\n\nder regen kommt wieder\n")
        write("ref.txt", "die katze\nder hund rennt\nschon wieder regen\n")
        write("ref2.txt", "eine katze\nder hund laeuft\nregen, schon wieder\n")
        write("child.py", ECHO_CHILD)
        write("a.tsv", "0\t0.25\n1\t0.5\n2\t0.75\n")
        write("corpus.txt", "".join(line + "\n" for line in load_seed_lines("uk")[:20]))
        runs = [
            (["score", "--src", "src.txt", "--hyp", "hyp.txt", "--ref", "ref.txt",
              "--direction", "en-de", "--guard-empty", "--guard-lang", "--out", "scores.tsv"],
             ["scores.tsv"]),
            (["score", "--src", "src.txt", "--hyp", "hyp.txt", "--ref", "ref.txt",
              "--direction", "en-de", "--backend", f"external:{sys.executable} child.py",
              "--shard-size", "2", "--out", "external.tsv"],
             ["external.tsv"]),
            (["multiref", "--src", "src.txt", "--hyp", "hyp.txt", "--ref", "ref.txt",
              "--ref", "ref2.txt", "--direction", "en-de", "--multiref", "agg",
              "--out", "agg.tsv"],
             ["agg.tsv"]),
            (["meta", "a.tsv", "a.tsv", "--tsv", "--out", "meta.tsv",
              "--hist-bins", "3", "--hist-out", "hist.tsv"],
             ["meta.tsv", "hist.tsv"]),
            (["biaslab", "dist", "--seeds", "1", "--n-per-group", "30", "--n-test", "20",
              "--epochs", "2", "--out", "dist.tsv"],
             ["dist.tsv"]),
            (["biaslab", "tags", "--seeds", "1", "--n-per-group", "30", "--n-test", "20",
              "--epochs", "2", "--out", "tags.tsv"],
             ["tags.tsv"]),
            (["profiles", "build", "--lang", "uk", "--input", "corpus.txt",
              "--size", "100", "--out", "uk.profile"],
             ["uk.profile"]),
        ]
        for args, outputs in runs:
            first = {}
            for round_no in range(2):
                proc = run_module(args, cwd=tmp_path)
                assert proc.returncode == EXIT_OK, f"{args[0]} failed: {proc.stderr}"
                for name in outputs:
                    data = (tmp_path / name).read_bytes()
                    if round_no == 0:
                        first[name] = data
                    else:
                        assert data == first[name], f"{name} differs between reruns of {args[0]}"

    criterion(10, "rerun-determinism", body)


# --- 11: gradient check -----------------------------------------------------------------


def test_11_gradient_check(criterion):
    def body():
        rng = random.Random("acceptance:grad")
        dim = 2**12
        scorer = ToyScorer(dim=dim)
        for i in range(dim):
            scorer.weights[i] = rng.gauss(0.0, 0.05)
        scorer.bias = rng.uniform(-0.2, 0.2)
        examples = generate_synth([(Direction("en", "de"), 0.7)], 10, seed="acceptance:grad")
        h = 1e-6
        learning_rate = 5e-4

        def squared_error(features, gold):
            return (scorer.predict_features(features) - gold) ** 2

        for ex in examples:
            features = featurize(ex, dim=dim)
            numeric_w = {}
            for idx in rng.sample(sorted(features), min(10, len(features))):
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
            scorer.step(features, ex.gold_da, learning_rate)  # the step train takes
            for idx, numeric in numeric_w.items():
                relative = abs((w_before[idx] - scorer.weights[idx]) / learning_rate - numeric) / max(abs(numeric), 1e-8)
                assert relative < 1e-4, f"gradient off by {relative:.2e} at slot {idx}"
            relative = abs((b_before - scorer.bias) / learning_rate - numeric_b) / max(abs(numeric_b), 1e-8)
            assert relative < 1e-4, f"bias gradient off by {relative:.2e}"

    criterion(11, "gradient-check", body)


# --- 12: wire protocol ---------------------------------------------------------------------

CHECKSUM_CHILD = r'''
import sys

TABLE = {"\\": "\\", "t": "\t", "n": "\n"}

def unescape(text):
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\":
            out.append(TABLE[text[i + 1]])
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)

for raw in sys.stdin:
    fields = [unescape(f) for f in raw.rstrip("\n").split("\t")]
    total = sum(ord(c) for f in fields for c in f)
    print(repr((total % 9973) / 9973.0))
'''

NASTY_ALPHABET = "ab \t\n\\ä中\"'"


def test_12_wire_protocol_roundtrip(criterion, tmp_path):
    def body():
        child = tmp_path / "checksum_child.py"
        child.write_text(CHECKSUM_CHILD, encoding="utf-8")
        rng = random.Random("acceptance:wire")
        nasty = lambda: "".join(
            rng.choice(NASTY_ALPHABET) for _ in range(rng.randrange(0, 20))
        )
        requests = [
            ScoreRequest(source=nasty(), hypothesis=nasty(), reference=nasty())
            for _ in range(10_000)
        ]
        backend = ExternalBackend((sys.executable, str(child)))
        scores = backend.score_batch(requests)
        assert len(scores) == 10_000
        for req, got in zip(requests, scores):
            total = sum(ord(c) for c in req.source + req.hypothesis + req.reference)
            assert got == (total % 9973) / 9973.0

    criterion(12, "wire-protocol-roundtrip", body)
