"""Golden outputs: every command of a fixed matrix writes the bytes pinned
in ``golden.json``.

Criterion 10 compares a rerun with a first run of the same code, so a
change that moves every row passes it. This test compares each output
with a digest taken once and checked in: the SHA-256 of its rows, and of
its trailer without the ``# signature`` and ``# command`` lines (they name
the interpreter and the paths of this run). Commands whose work is split
over the usable CPUs run a second time on one CPU, and the whole matrix
runs again under each other CPython 3.10-3.13 that pyenv has installed;
all must match the same digests. The CLI needs only the standard library,
so those interpreters need no pytest.

When ``golden.json`` is missing, the test writes it from the code under
test and fails, naming the file: delete it to regenerate, and name each
changed digest and the reason in CHANGES.md.
"""

import hashlib
import json
import os
import random
import shutil
import sys
from pathlib import Path

import pytest

from mtharness.guards import load_seed_lines

GOLDEN = Path(__file__).with_name("golden.json")

# Picked so that language-ID margins of foreign hypotheses lie within 0.001
# on both sides of the guard's default minimum margin (0.0499 and 0.0503),
# so a change to that default moves a segment across it.
SEED = 36
N_SEGMENTS = 300
N_EXTERNAL = 24  # the external cells start a child per shard: keep them small
SEGMENT_CHARS = 70
FOREIGN_LANGS = ("en", "ru", "uk", "zh")
WHITESPACE = (" ", "  ", "\t", " \t ", "　")

# answers each wire line with a number that depends on every byte of it
CHILD = """\
import sys, zlib
for line in sys.stdin.buffer:
    print(zlib.crc32(line) / 2**32)
"""


def _vocabulary(lang):
    lines = load_seed_lines(lang)
    if lang == "zh":  # no spaces: two-character "words", joined without a separator
        return [line[i : i + 2] for line in lines for i in range(0, len(line) - 1, 2)], ""
    return [word for line in lines for word in line.split()], " "


def _sentence(rng, words, sep):
    chosen = []
    length = 0
    while length < SEGMENT_CHARS:
        chosen.append(rng.choice(words))
        length += len(chosen[-1]) + len(sep)
    return sep.join(chosen)


def _edit(rng, sentence, words, rate):
    return " ".join(rng.choice(words) if rng.random() < rate else word for word in sentence.split(" "))


def _write(path, lines, newline="\n"):
    path.write_bytes("".join(line + newline for line in lines).encode("utf-8"))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """An en-de set: LF and CRLF copies of the source, two references, a
    hypothesis file with 15 whitespace-only and 15 foreign lines, the
    first ``N_EXTERNAL`` segments of each, and the test child."""
    rng = random.Random(SEED)
    vocab = {lang: _vocabulary(lang) for lang in ("en", "de", *FOREIGN_LANGS)}
    de_words, de_sep = vocab["de"]
    src = [_sentence(rng, *vocab["en"]) for _ in range(N_SEGMENTS)]
    ref1 = [_sentence(rng, de_words, de_sep) for _ in range(N_SEGMENTS)]
    ref2 = [_edit(rng, ref, de_words, 0.4) for ref in ref1]
    hyp = [_edit(rng, ref, de_words, 0.3) for ref in ref1]
    picked = rng.sample(range(N_SEGMENTS), 30)
    for i in picked[:15]:
        hyp[i] = rng.choice(WHITESPACE)
    for i in picked[15:]:
        hyp[i] = _sentence(rng, *vocab[rng.choice(FOREIGN_LANGS)])
    root = tmp_path_factory.mktemp("golden-inputs")
    for name, lines in (("src", src), ("hyp", hyp), ("ref1", ref1), ("ref2", ref2)):
        _write(root / f"{name}.txt", lines)
        _write(root / f"{name}-{N_EXTERNAL}.txt", lines[:N_EXTERNAL])
    _write(root / "src-crlf.txt", src, newline="\r\n")
    (root / "child.py").write_text(CHILD, encoding="utf-8")
    return root


SCORE = ["--src", "src.txt", "--hyp", "hyp.txt", "--direction", "en-de"]
SCORE_CRLF = ["--src", "src-crlf.txt", "--hyp", "hyp.txt", "--direction", "en-de"]
SMALL = ["--src", f"src-{N_EXTERNAL}.txt", "--hyp", f"hyp-{N_EXTERNAL}.txt",
         "--ref", f"ref1-{N_EXTERNAL}.txt", "--direction", "en-de"]
REFS = ["--ref", "ref1.txt", "--ref", "ref2.txt"]
EXTERNAL = f"external:{sys.executable} -S child.py"
BIASLAB = ["--seeds", "2", "--n-per-group", "20", "--n-test", "10", "--epochs", "3"]

# (name, arguments, output files, whether the work is split over the usable
# CPUs). In this order: plain.tsv and guarded.tsv are read by later cells.
MATRIX = [
    ("score-plain", ["score", *SCORE, "--ref", "ref1.txt", "--out", "plain.tsv"], ["plain.tsv"], True),
    ("score-crlf", ["score", *SCORE_CRLF, "--ref", "ref1.txt", "--out", "crlf.tsv"],
     ["crlf.tsv"], True),
    ("score-qe", ["score", *SCORE, "--out", "qe.tsv"], ["qe.tsv"], True),
    ("score-guarded", ["score", *SCORE, "--ref", "ref1.txt", "--guard-empty", "--guard-lang",
                       "--out", "guarded.tsv"], ["guarded.tsv"], True),
    ("score-precomputed", ["score", *SCORE, "--ref", "ref1.txt", "--backend", "precomputed:guarded.tsv",
                           "--out", "precomputed.tsv"], ["precomputed.tsv"], False),
    ("external-shard-1", ["score", *SMALL, "--backend", EXTERNAL, "--shard-size", "1", "--out", "ext1.tsv"],
     ["ext1.tsv"], True),
    ("external-shard-7", ["score", *SMALL, "--backend", EXTERNAL, "--shard-size", "7", "--out", "ext7.tsv"],
     ["ext7.tsv"], True),
    ("external-unsharded", ["score", *SMALL, "--backend", EXTERNAL, "--out", "ext.tsv"], ["ext.tsv"], True),
    ("multiref-max", ["multiref", *SCORE, *REFS, "--multiref", "max", "--out", "max.tsv"], ["max.tsv"], True),
    ("multiref-avg", ["multiref", *SCORE, *REFS, "--multiref", "avg", "--out", "avg.tsv"], ["avg.tsv"], True),
    ("multiref-agg", ["multiref", *SCORE, *REFS, "--multiref", "agg", "--out", "agg.tsv"], ["agg.tsv"], True),
    ("meta-text", ["meta", "plain.tsv", "guarded.tsv", "--out", "meta.txt"], ["meta.txt"], False),
    ("meta-tsv", ["meta", "plain.tsv", "guarded.tsv", "--tsv", "--out", "meta.tsv"], ["meta.tsv"], False),
    ("meta-hist", ["meta", "plain.tsv", "guarded.tsv", "--out", "meta-hist.txt", "--hist-bins", "7",
                   "--hist-out", "hist.tsv"], ["meta-hist.txt", "hist.tsv"], False),
    ("profiles-build", ["profiles", "build", "--lang", "de", "--input", "ref2.txt", "--size", "120",
                        "--out", "de.profile"], ["de.profile"], False),
    ("biaslab-dist", ["biaslab", "dist", *BIASLAB, "--out", "dist.tsv"], ["dist.tsv"], False),
    ("biaslab-tags", ["biaslab", "tags", *BIASLAB, "--out", "tags.tsv"], ["tags.tsv"], False),
]


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _digests(data):
    """The digest of the rows and of the trailer, less the lines that name
    the interpreter and the command line. Lines end at LF only, so a CR
    or a missing final LF changes a digest."""
    lines = data.split(b"\n")
    rows = [line for line in lines if not line.startswith(b"#")]
    trailer = [line for line in lines if line.startswith(b"#")
               and not line.startswith((b"# signature ", b"# command "))]
    return {"rows": _sha256(b"\n".join(rows)), "trailer": _sha256(b"\n".join(trailer))}


def _run_matrix(run_module, inputs, workdir, launcher, cells, python=sys.executable):
    for path in inputs.iterdir():
        shutil.copy(path, workdir)
    results = {}
    for name, args, outputs, _ in cells:
        proc = run_module(args, cwd=workdir, launcher=launcher, python=python)
        result = {"exit": proc.returncode, "stdout": _sha256(proc.stdout.encode("utf-8")), "stderr": proc.stderr}
        for output in outputs:
            path = workdir / output
            result[output] = _digests(path.read_bytes()) if path.exists() else None
        results[name] = result
    return results


def _mismatches(got, golden):
    return [name for name in got if got[name] != golden.get(name)]


def _golden():
    if not GOLDEN.exists():
        pytest.fail(f"{GOLDEN} is missing; test_outputs_match_golden writes it")
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_outputs_match_golden(run_module, inputs, tmp_path):
    got = _run_matrix(run_module, inputs, tmp_path, [], MATRIX)
    assert got["score-crlf"]["crlf.tsv"]["rows"] == got["score-plain"]["plain.tsv"]["rows"], \
        "a CRLF copy of the source scores differently from the LF one"
    if not GOLDEN.exists():
        GOLDEN.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        pytest.fail(f"{GOLDEN} was missing and has been written from this code; check it in")
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(got), "the matrix and the golden file name different cells"
    bad = _mismatches(got, golden)
    assert not bad, f"outputs differ from {GOLDEN.name} in {bad}: " + json.dumps({n: got[n] for n in bad}, indent=1)


@pytest.mark.skipif(shutil.which("taskset") is None, reason="needs taskset to restrict the CPUs")
def test_outputs_on_one_cpu_match_golden(run_module, inputs, tmp_path):
    golden = _golden()
    cells = [cell for cell in MATRIX if cell[3]]
    got = _run_matrix(run_module, inputs, tmp_path, ["taskset", "-c", "0"], cells)
    bad = _mismatches(got, golden)
    assert not bad, f"one-CPU outputs differ from {GOLDEN.name} in {bad}: " + json.dumps({n: got[n] for n in bad}, indent=1)


def _other_interpreters():
    """Each CPython 3.10-3.13 that pyenv has installed, other than this one."""
    versions = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"
    this = Path(sys.executable).resolve()
    return [path for path in sorted(versions.glob("3.1[0-3]*/bin/python3")) if path.resolve() != this]


@pytest.mark.parametrize("python", _other_interpreters() or [None], ids=lambda python: python and python.parts[-3])
def test_outputs_under_other_interpreters_match_golden(run_module, inputs, tmp_path, python):
    if python is None:
        pytest.skip("pyenv has installed no other CPython 3.10-3.13")
    golden = _golden()
    got = _run_matrix(run_module, inputs, tmp_path, [], MATRIX, python=str(python))
    bad = _mismatches(got, golden)
    assert not bad, f"outputs under {python} differ from {GOLDEN.name} in {bad}: " + json.dumps({n: got[n] for n in bad}, indent=1)
