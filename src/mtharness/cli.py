"""Command-line entry point wiring the score -> guard -> aggregate -> report pipeline.

Every file this tool writes ends in a `#` trailer carrying the run's
signature and the exact command line, so any output can be reproduced
byte-for-byte by re-running its own trailer. Exit codes: 0 success,
2 invalid configuration (nothing written), 3 no match (check-reporting),
1 runtime failure.
"""

from __future__ import annotations

import argparse
import math
import os
import shlex
import sys
from pathlib import Path
from typing import Sequence

# The scoring stack (scorer, guards, multiref), metastats and biaslab are
# imported inside the checks and handlers that use them, so each subcommand
# loads only its own code: meta, signature, cite and check-reporting never
# load the scorer. The parser therefore spells out the few library
# constants it shows; tests check them against the library.
from .evalset import (
    Direction,
    EvalSet,
    check_language_code,
    format_score_rows,
    load_evalset,
    read_lines,
    read_score_table,
    system_score,
)
from .provenance import Signature, check_reporting, cite, make_signature

# what platform.python_version() returns, without importing platform
_PYTHON_VERSION = sys.version.partition(" ")[0]

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2
EXIT_NO_MATCH = 3


class ConfigError(ValueError):
    """Invalid invocation discovered after parsing; exits 2, writes nothing."""


def _existing_file(path: str, what: str) -> Path:
    resolved = Path(path)
    if resolved.is_file():
        return resolved
    if not path or not resolved.exists():  # Path("") is ".", which exists
        raise ConfigError(f"{what} file not found: {path}")
    kind = "is a directory" if resolved.is_dir() else "is not a regular file"
    raise ConfigError(f"{what} file {kind}: {path}")


# --- validation: each subparser's `validate` runs before its handler ------
#
# A ValueError raised here exits 2 before anything is written. The checks
# replace file arguments by Paths, the direction by a Direction and the
# backend spec by what scores the run (see _check_scoring).


def _file_identity(path: str | Path) -> tuple[int, int] | Path:
    """What tells files apart: an existing file's device and inode, so a
    hard or symbolic link is the file it leads to (as ``os.path.samestat``
    compares them), else the path it would be created at."""
    try:
        stat = os.stat(path)  # follows links as open does: /dev/stdout on a pipe exists
    except OSError:
        return Path(path).resolve()
    return stat.st_dev, stat.st_ino


def _check_outputs(inputs: Sequence[Path | None], *outputs: tuple[str, str | None]) -> None:
    """No output given (an omitted one is stdout) may be a file the run reads, or another output,
    by any link: writing it would destroy the file. Each must be a file the file system lets this
    run open for append, which is asked before any work; a file the probe created is removed again,
    through any link, so the link stays. A named pipe is not opened: closing it would end its
    reader's input."""
    taken = {_file_identity(path): "a file this run reads" for path in inputs if path}
    for flag, path in outputs:
        if path == "":
            raise ConfigError(f"{flag} must name a file")
        if path is not None:
            identity = _file_identity(path)
            if identity in taken:
                raise ConfigError(f"{flag} {path} names {taken[identity]}")
            taken[identity] = f"the same file as {flag}"
            try:
                if not Path(path).is_fifo():
                    open(path, "a").close()
            except OSError as exc:
                raise ConfigError(f"{flag} {path}: {exc.strerror}") from None
            if isinstance(identity, Path):  # it did not exist: remove what the probe created, not a link to it
                identity.unlink()


def _check_scoring(ns: argparse.Namespace) -> list[Path]:
    """Checks the arguments score and multiref share; returns the input files among them.

    ``--backend`` becomes ``ns.scorer``: a SurrogateBackend for
    ``surrogate``, an ExternalBackend for ``external:COMMAND`` (COMMAND
    is shell-split; the backend checks its own arguments), and the
    table's Path for ``precomputed:PATH``.
    """
    from .scorer import ExternalBackend, SurrogateBackend

    if not ns.system:
        raise ConfigError("--system must be non-empty")
    ns.src = _existing_file(ns.src, "source")
    ns.hyp = _existing_file(ns.hyp, "hypothesis")
    ns.ref = [_existing_file(ref, "reference") for ref in ns.ref or []]
    ns.direction = Direction.parse(ns.direction)
    if "|" in ns.backend:
        raise ConfigError("backend spec must not contain '|' (it is embedded in the signature)")
    kind, _, rest = ns.backend.partition(":")
    if ns.backend == "surrogate":
        ns.scorer = SurrogateBackend()
    elif kind == "precomputed" and rest:
        ns.scorer = _existing_file(rest, "precomputed score")
    elif kind == "external" and rest:
        ns.scorer = ExternalBackend(shlex.split(rest), shard_size=ns.shard_size, timeout=ns.timeout)
    else:
        raise ConfigError(
            f"unknown backend spec {ns.backend!r}: use surrogate, precomputed:PATH or external:COMMAND"
        )
    for flag, value in (("--shard-size", ns.shard_size), ("--timeout", ns.timeout)):
        if value is not None and kind != "external":
            raise ConfigError(f"{flag} only applies to an external backend")
    return [ns.src, ns.hyp, *ns.ref, ns.scorer if isinstance(ns.scorer, Path) else None]


def _check_score(ns: argparse.Namespace) -> None:
    inputs = _check_scoring(ns)
    if len(ns.ref) > 1:
        raise ConfigError("score takes at most one --ref; use the multiref subcommand")
    if ns.min_len is not None and ns.min_len < 0:
        raise ConfigError("--min-len must be nonnegative")
    if ns.min_margin is not None and not 0.0 <= ns.min_margin <= 1.0:
        raise ConfigError("--min-margin must be in [0, 1]")
    for flag, value in (("--profile", ns.profile), ("--min-len", ns.min_len), ("--min-margin", ns.min_margin)):
        if value is not None and not ns.guard_lang:
            raise ConfigError(f"{flag} only applies with --guard-lang")
    ns.profile = [_existing_file(path, "profile") for path in ns.profile or []]
    _check_outputs([*inputs, *ns.profile], ("--out", ns.out))


def _check_multiref(ns: argparse.Namespace) -> None:
    _check_outputs(_check_scoring(ns), ("--out", ns.out))
    if ns.strategy == "agg" and len(ns.ref) != 2:
        raise ConfigError("agg requires exactly two --ref flags")
    if not ns.ref:
        raise ConfigError("multiref needs at least one --ref")
    if isinstance(ns.scorer, Path):
        raise ConfigError(
            "multiref cannot use a precomputed backend: its scores are keyed by segment,"
            " not by (segment, reference) request"
        )


def _check_meta(ns: argparse.Namespace) -> None:
    ns.scores = [_existing_file(path, "score") for path in ns.scores]
    if (ns.ranking_metric is None) != (ns.ranking_human is None):
        raise ConfigError("--ranking-metric and --ranking-human must be given together")
    if ns.ranking_metric is not None:
        ns.ranking_metric = _existing_file(ns.ranking_metric, "ranking")
        ns.ranking_human = _existing_file(ns.ranking_human, "ranking")
    if (ns.hist_bins is None) != (ns.hist_out is None):
        raise ConfigError("--hist-bins and --hist-out must be given together")
    _check_outputs([*ns.scores, ns.ranking_metric, ns.ranking_human], ("--out", ns.out), ("--hist-out", ns.hist_out))
    if ns.hist_bins is not None:
        from .metastats import check_histogram

        ns.hist_range = ns.hist_range or (0.0, 1.0)
        check_histogram(ns.hist_bins, *ns.hist_range)
    elif ns.hist_range is not None:
        raise ConfigError("--hist-range only applies with --hist-bins")


def _check_signature(ns: argparse.Namespace) -> None:
    ns.signature = Signature(ns.model, ns.interp, ns.framework, ns.prec)


def _check_document(ns: argparse.Namespace) -> None:
    ns.document = _existing_file(ns.document, "document")


def _check_biaslab(ns: argparse.Namespace) -> None:
    _check_outputs([], ("--out", ns.out))
    if ns.seeds < 1:
        raise ConfigError("--seeds must be at least 1")
    for knob in ("n_per_group", "n_test", "epochs"):
        value = getattr(ns, knob)
        if value is not None and value < 1:
            raise ConfigError(f"--{knob.replace('_', '-')} must be at least 1")
    if ns.learning_rate is not None and not (ns.learning_rate > 0 and math.isfinite(ns.learning_rate)):
        raise ConfigError(f"--learning-rate must be positive and finite, got {ns.learning_rate}")


def _check_profiles(ns: argparse.Namespace) -> None:
    check_language_code(ns.lang)
    ns.input = _existing_file(ns.input, "corpus")
    _check_outputs([ns.input], ("--out", ns.out))
    if ns.k is not None and ns.k < 1:
        raise ConfigError("--size must be at least 1")


# --- output ----------------------------------------------------------------


def _write(
    ns: argparse.Namespace, model: str, rows: Sequence[str], notes: Sequence[str] = (), out: str | None = None
) -> None:
    """Writes the rows, then the trailer: each note, the signature and the
    command, each as a `# ` line; to ``out``, or to stdout if it is None.
    The only code that renders a trailer line."""
    signature = make_signature(model=model, interpreter_version=_PYTHON_VERSION)
    trailer = [*notes, f"signature {signature}", f"command {shlex.join(['mtharness', *ns.argv])}"]
    text = "".join([*(row + "\n" for row in rows), *(f"# {note}\n" for note in trailer)])
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8", newline="\n")


# --- subcommands -----------------------------------------------------------


def _given(ns: argparse.Namespace, *names: str) -> dict[str, object]:
    """The knobs among ``names`` that the command line gave, by name: the
    library functions they go to own every default."""
    return {name: getattr(ns, name) for name in names if getattr(ns, name) is not None}


def _load(ns: argparse.Namespace) -> EvalSet:
    """The evalset that score and multiref read: input files with no
    line to score are an error that names them."""
    evalset = load_evalset(ns.src, ns.hyp, ns.ref, ns.direction, ns.system)
    if not evalset.segments:
        raise ValueError(f"no segments to score: {', '.join(map(str, [ns.src, ns.hyp, *ns.ref]))} are empty")
    return evalset


def run_score(ns: argparse.Namespace) -> int:
    if ns.guard_empty or ns.guard_lang:
        from . import guards

    expected = ns.direction.tgt_lang
    if ns.guard_lang:
        # Checked before any scoring. A --profile for a bundled language is
        # fine: identification keeps the best match per language.
        profiles = guards.bundled_profiles() + [guards.read_profile(path) for path in ns.profile]
        if expected not in {p.lang for p in profiles}:
            raise ConfigError(f"no language profile for expected language {expected!r}; pass --profile files")
    evalset = _load(ns)
    if isinstance(ns.scorer, Path):
        table = read_score_table(ns.scorer)
        if len(table) != len(evalset):
            raise ValueError(f"precomputed table {ns.scorer} has {len(table)} scores for {len(evalset)} segments")
    else:
        from .scorer import score_evalset

        table = score_evalset(ns.scorer, evalset)
    guard_notes: list[str] = []
    if ns.guard_empty:
        table, report = guards.apply_empty_guard(evalset, table)
        guard_notes += ["guard empty", *guards.format_guard_report(report)]
    if ns.guard_lang:
        table, report = guards.apply_lang_guard(evalset, table, profiles, expected, **_given(ns, "min_len", "min_margin"))
        guard_notes += ["guard lang", *guards.format_guard_report(report)]
    notes = [f"system-score {system_score(table)!r}", *guard_notes]
    _write(ns, ns.backend, format_score_rows(table), notes, ns.out)
    return EXIT_OK


def run_multiref(ns: argparse.Namespace) -> int:
    from . import multiref

    table = multiref.evaluate_system_multiref(ns.strategy, _load(ns), ns.scorer)
    notes = [f"system-score {system_score(table)!r}", f"multiref {ns.strategy} over {len(ns.ref)} references"]
    _write(ns, ns.backend, format_score_rows(table), notes, ns.out)
    return EXIT_OK


def run_meta(ns: argparse.Namespace) -> int:
    from . import metastats

    path_a, path_b = ns.scores
    a = read_score_table(path_a).scores
    b = read_score_table(path_b).scores
    if len(a) != len(b):
        raise ValueError(f"score tables are not paired: {path_a} has {len(a)} rows but {path_b} has {len(b)}")
    if not a:
        raise ValueError(f"score tables {path_a} and {path_b} have no rows to compare")
    pairwise = None
    if ns.ranking_metric is not None:
        metric, human = metastats.read_ranking(ns.ranking_metric), metastats.read_ranking(ns.ranking_human)
        try:
            pairwise = metastats.pairwise_accuracy(metric, human)
        except ValueError as exc:  # its message cannot name the files
            raise ValueError(f"{ns.ranking_metric} and {ns.ranking_human}: {exc}") from None
    tau_a, tau_c = metastats.kendall_taus(a, b) if len(a) >= 2 else (None, None)
    stats = {"n": len(a), "mae": metastats.mae(a, b), "tau_a": tau_a, "tau_c": tau_c, "pairwise_acc": pairwise}
    _write(ns, "meta", metastats.format_meta_report(stats, tsv=ns.tsv), out=ns.out)
    if ns.hist_bins is not None:
        bins = metastats.histogram(a, ns.hist_bins, *ns.hist_range)
        hist_rows = [f"{center!r}\t{count}" for center, count in bins]
        _write(ns, "meta", hist_rows, ["histogram of first score file"], ns.hist_out)
    return EXIT_OK


def run_signature(ns: argparse.Namespace) -> int:
    print(ns.signature.render())
    return EXIT_OK


def run_cite(ns: argparse.Namespace) -> int:
    record = cite(ns.model)
    print(record.url)
    print(record.bibtex)
    return EXIT_OK


def run_check_reporting(ns: argparse.Namespace) -> int:
    matches = check_reporting("\n".join(read_lines(ns.document)))
    for match in matches:
        print(match)
    return EXIT_OK if matches else EXIT_NO_MATCH


def run_biaslab(ns: argparse.Namespace) -> int:
    from . import biaslab

    seeds = [ns.seed + i for i in range(ns.seeds)]
    rows, summary = biaslab.experiment_rows(ns.mode, seeds, **_given(ns, "n_per_group", "n_test", "epochs", "learning_rate"))
    _write(ns, f"biaslab-{ns.mode}", rows, summary, ns.out)
    if ns.out:
        for line in summary:
            print(line)
    return EXIT_OK


def run_profiles(ns: argparse.Namespace) -> int:
    from . import guards

    profile = guards.build_language_profile(read_lines(ns.input), ns.lang, **_given(ns, "k"))
    _write(ns, "profiles-build", guards.serialize_profile(profile).splitlines(), out=ns.out)
    return EXIT_OK


# --- argument parsing -------------------------------------------------------


def _add_scoring_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--src", required=True, help="source segments, one per line")
    parser.add_argument("--hyp", required=True, help="hypothesis segments, one per line")
    parser.add_argument("--ref", action="append", help="reference segments (repeatable)")
    parser.add_argument("--direction", required=True, help="translation direction, e.g. en-de")
    parser.add_argument("--system", default="system", help="system name for the score table")
    parser.add_argument(
        "--backend",
        default="surrogate",
        help="surrogate, precomputed:PATH, or external:COMMAND",
    )
    parser.add_argument(
        "--shard-size", type=int,
        help="external backend: requests per child process; shards run concurrently,"
        " at most one child per usable CPU",
    )
    parser.add_argument(
        "--timeout", type=float, metavar="SECONDS",
        help="external backend: seconds each child process may run before it is killed",
    )
    parser.add_argument("--out", help="output file (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtharness",
        description="Score MT output, guard degenerate hypotheses, and report "
        "provenance. Scores are unit-preserving: scale inputs yourself if you "
        "want 0-100 reporting.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    score = sub.add_parser("score", help="score one system and write a segment TSV")
    score.set_defaults(handler=run_score, validate=_check_score)
    _add_scoring_args(score)
    score.add_argument("--guard-empty", action="store_true", help="zero empty hypotheses")
    score.add_argument(
        "--guard-lang", action="store_true", help="zero hypotheses detected as the wrong language"
    )
    score.add_argument("--profile", action="append", help="language profile file (repeatable)")
    score.add_argument(
        "--min-len", type=int,
        help="shortest hypothesis the language guard will judge (default 20)",
    )
    score.add_argument(
        "--min-margin", type=float,
        help="minimum language-detection margin to act on (default 0.05)",
    )

    mref = sub.add_parser("multiref", help="score against several references")
    mref.set_defaults(handler=run_multiref, validate=_check_multiref)
    _add_scoring_args(mref)
    mref.add_argument(
        "--multiref", dest="strategy", required=True, choices=("max", "avg", "agg"),
        help="how to combine per-reference scores",
    )

    meta = sub.add_parser("meta", help="compare two score tables")
    meta.set_defaults(handler=run_meta, validate=_check_meta)
    meta.add_argument("scores", nargs=2, help="two segment-score TSV files, paired by index")
    meta.add_argument("--ranking-metric", help="system<TAB>score TSV ranked by the metric")
    meta.add_argument("--ranking-human", help="system<TAB>score TSV ranked by humans")
    meta.add_argument("--tsv", action="store_true", help="emit TSV instead of aligned text")
    meta.add_argument("--out", help="output file (default: stdout)")
    meta.add_argument("--hist-bins", type=int, help="also write a histogram with this many bins")
    meta.add_argument(
        "--hist-range", type=float, nargs=2, metavar=("LO", "HI"),
        help="histogram range (default 0 1)",
    )
    meta.add_argument("--hist-out", help="histogram output file")

    signature = sub.add_parser("signature", help="print a provenance signature")
    signature.set_defaults(handler=run_signature, validate=_check_signature)
    signature.add_argument("--model", default="unk")
    signature.add_argument("--prec", default="unk", help="fp32, fp16, qint8 or unk")
    signature.add_argument("--interp", default=_PYTHON_VERSION)
    signature.add_argument("--framework", default="unk")

    cite_parser = sub.add_parser("cite", help="print URL and BibTeX for a model")
    cite_parser.set_defaults(handler=run_cite, validate=lambda ns: None)
    cite_parser.add_argument("model")

    check = sub.add_parser(
        "check-reporting", help="scan a document for telltale metric names; exit 3 if none"
    )
    check.set_defaults(handler=run_check_reporting, validate=_check_document)
    check.add_argument("document")

    bias = sub.add_parser("biaslab", help="run a training-data bias experiment")
    bias.set_defaults(handler=run_biaslab, validate=_check_biaslab)
    bias.add_argument("mode", choices=("dist", "tags"))
    bias.add_argument("--seeds", type=int, default=5, help="number of consecutive seeds to run")
    bias.add_argument("--seed", type=int, default=0, help="first seed")
    bias.add_argument(
        "--n-per-group", type=int, default=None,
        help="training examples per direction (dist) or per tag (tags)",
    )
    bias.add_argument("--n-test", type=int, default=None)
    bias.add_argument("--epochs", type=int, default=None)
    bias.add_argument("--learning-rate", type=float, default=None)
    bias.add_argument("--out", help="TSV output file (default: stdout)")

    profiles = sub.add_parser("profiles", help="language profile tools")
    profiles.set_defaults(handler=run_profiles, validate=_check_profiles)
    profiles.add_argument("action", choices=("build",))
    profiles.add_argument("--lang", required=True, help="language code the corpus is in")
    profiles.add_argument("--input", required=True, help="corpus file, one line per sentence")
    profiles.add_argument("--size", type=int, dest="k")
    profiles.add_argument("--out", required=True, help="profile output file")

    return parser


# Characters that would break the one-line `# command` trailer: all of
# C0 plus the other separators str.splitlines() breaks on.
_TRAILER_BREAKERS = frozenset(map(chr, range(0x20))) | {"\x85", "\u2028", "\u2029"}


def main(argv: Sequence[str] | None = None) -> int:
    raw_args = list(sys.argv[1:] if argv is None else argv)
    for arg in raw_args:
        if not _TRAILER_BREAKERS.isdisjoint(arg):
            print(f"mtharness: error: argument {arg!r} contains a control character", file=sys.stderr)
            return EXIT_CONFIG
        # an undecodable byte of sys.argv arrives as a lone surrogate, which UTF-8 cannot encode
        if any("\ud800" <= char <= "\udfff" for char in arg):
            print(f"mtharness: error: argument {arg!r} is not valid UTF-8", file=sys.stderr)
            return EXIT_CONFIG
    ns = build_parser().parse_args(raw_args)
    ns.argv = raw_args  # reproduced verbatim in trailers
    try:
        ns.validate(ns)
    except ValueError as exc:
        print(f"mtharness: error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return ns.handler(ns)
    except ConfigError as exc:
        print(f"mtharness: error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, KeyError, OSError, OverflowError) as exc:  # a ScorerError is a ValueError
        if isinstance(exc, OSError):
            # its args[0] is the errno: name the file and the cause instead
            message = f"{exc.filename}: {exc.strerror}" if exc.filename is not None and exc.strerror else str(exc)
        else:
            message = exc.args[0] if exc.args else str(exc)
        print(f"mtharness: error: {message}", file=sys.stderr)
        return EXIT_RUNTIME
