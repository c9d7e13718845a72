"""Seeded benchmark inputs built from the bundled seed corpora.

Segments are random word draws over the de/en/ru/uk/zh seed corpora, so
(source, hypothesis, reference) triples are nearly all distinct, as in
a real test set. The program under test receives only the files under
``<workdir>/inputs``; what the benchmark needs to check its outputs
(which hypotheses were injected as empty or foreign) is written to
``<workdir>/injected.json`` beside them.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

from mtharness.evalset import Direction, format_score_rows, load_evalset
from mtharness.guards import apply_empty_guard, apply_lang_guard, bundled_profiles, load_seed_lines
from mtharness.scorer import SurrogateBackend, score_evalset

DIRECTION = "en-de"
SOURCE_LANG, TARGET_LANG = DIRECTION.split("-")
FOREIGN_LANGS = ("en", "ru", "uk", "zh")
SEGMENT_CHARS = 70
HYP_EDIT_RATE = 0.3
ALTREF_EDIT_RATE = 0.4
EMPTY_SHARE = 0.05
FOREIGN_SHARE = 0.05
WHITESPACE = (" ", "  ", "\t", " \t ", "　")


@dataclass(frozen=True)
class Inputs:
    """Paths of one generated workload and what was injected into it."""

    workdir: Path
    n: int
    files: dict[str, Path]
    empty: tuple[int, ...]
    foreign: tuple[int, ...]
    sha256: str


def _vocabulary(lang: str) -> tuple[list[str], str]:
    """Word list and word separator for one seed language.

    The zh corpus has no spaces, so its "words" are two-character
    slices joined without a separator.
    """
    lines = load_seed_lines(lang)
    if lang == "zh":
        return [line[i : i + 2] for line in lines for i in range(0, len(line) - 1, 2)], ""
    return [word for line in lines for word in line.split()], " "


def _sentence(rng: random.Random, vocab: list[str], sep: str) -> str:
    words: list[str] = []
    length = 0
    while length < SEGMENT_CHARS:
        word = rng.choice(vocab)
        words.append(word)
        length += len(word) + len(sep)
    return sep.join(words)


def _edit(rng: random.Random, sentence: str, vocab: list[str], rate: float) -> str:
    """Replace about ``rate`` of the words, as a translation would differ."""
    return " ".join(rng.choice(vocab) if rng.random() < rate else word for word in sentence.split(" "))


def _write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def _hash_files(files: dict[str, Path]) -> str:
    digest = hashlib.sha256()
    for name in sorted(files):
        digest.update(name.encode() + b"\0" + files[name].read_bytes() + b"\0")
    return digest.hexdigest()


def generate(workdir: Path, seed: int, n: int, n_refs: int, inject: bool, score_tables: bool = False) -> Inputs:
    """Write a seeded en-de set of ``n`` segments under ``workdir``.

    With ``inject``, about 5% of hypotheses are whitespace-only and
    about 5% are written in en/ru/uk/zh. With ``score_tables``, the set
    is scored with the surrogate backend and only the unguarded and the
    guarded score tables (``a.tsv``, ``b.tsv``) are kept as inputs.
    """
    rng = random.Random(f"mtharness-bench:{seed}:{n}:{n_refs}:{inject}:{score_tables}")
    vocab = {lang: _vocabulary(lang) for lang in (SOURCE_LANG, TARGET_LANG, *FOREIGN_LANGS)}
    tgt_words, tgt_sep = vocab[TARGET_LANG]
    sources = [_sentence(rng, *vocab[SOURCE_LANG]) for _ in range(n)]
    refs = [[_sentence(rng, tgt_words, tgt_sep) for _ in range(n)]]
    if n_refs == 2:
        refs.append([_edit(rng, ref, tgt_words, ALTREF_EDIT_RATE) for ref in refs[0]])
    hyps = [_edit(rng, ref, tgt_words, HYP_EDIT_RATE) for ref in refs[0]]
    empty: list[int] = []
    foreign: list[int] = []
    if inject:
        picked = rng.sample(range(n), round(n * EMPTY_SHARE) + round(n * FOREIGN_SHARE))
        empty = sorted(picked[: round(n * EMPTY_SHARE)])
        foreign = sorted(picked[round(n * EMPTY_SHARE) :])
        for i in empty:
            hyps[i] = rng.choice(WHITESPACE)
        for i in foreign:
            hyps[i] = _sentence(rng, *vocab[rng.choice(FOREIGN_LANGS)])

    if workdir.exists():
        shutil.rmtree(workdir)
    inputs_dir = workdir / "inputs"
    inputs_dir.mkdir(parents=True)
    text_files = {"src": inputs_dir / "src.txt", "hyp": inputs_dir / "hyp.txt"}
    text_files.update({f"ref{k + 1}": inputs_dir / f"ref{k + 1}.txt" for k in range(n_refs)})
    _write_lines(text_files["src"], sources)
    _write_lines(text_files["hyp"], hyps)
    for k in range(n_refs):
        _write_lines(text_files[f"ref{k + 1}"], refs[k])
    files = text_files
    if score_tables:
        files = _write_score_tables(inputs_dir, text_files)
        for path in text_files.values():
            path.unlink()
    sha256 = _hash_files(files)
    injected = {"seed": seed, "n": n, "inputs_sha256": sha256, "empty": empty, "foreign": foreign}
    (workdir / "injected.json").write_text(json.dumps(injected), encoding="utf-8")
    return Inputs(workdir, n, files, tuple(empty), tuple(foreign), sha256)


def _write_score_tables(inputs_dir: Path, text_files: dict[str, Path]) -> dict[str, Path]:
    evalset = load_evalset(
        text_files["src"], text_files["hyp"], [text_files["ref1"]], Direction.parse(DIRECTION), "bench"
    )
    unguarded = score_evalset(SurrogateBackend(), evalset)
    guarded, _ = apply_empty_guard(evalset, unguarded)
    guarded, _ = apply_lang_guard(evalset, guarded, bundled_profiles(), TARGET_LANG)
    files = {"a": inputs_dir / "a.tsv", "b": inputs_dir / "b.tsv"}
    _write_lines(files["a"], format_score_rows(unguarded))
    _write_lines(files["b"], format_score_rows(guarded))
    return files
