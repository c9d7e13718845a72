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
import platform
import shlex
import sys
from pathlib import Path
from typing import Sequence

from . import guards, multiref
from .evalset import (
    Direction,
    format_score_rows,
    load_evalset,
    read_lines,
    read_score_table,
    system_score,
)
from .provenance import Signature, check_reporting, cite, make_signature
from .scorer import ExternalBackend, PrecomputedBackend, ScorerError, SurrogateBackend, score_evalset

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2
EXIT_NO_MATCH = 3


class ConfigError(ValueError):
    """Invalid invocation discovered after parsing; exits 2, writes nothing."""


def _existing_file(path: str, what: str) -> Path:
    resolved = Path(path)
    if not resolved.is_file():
        raise ConfigError(f"{what} file not found: {path}")
    return resolved


def _parse_backend_spec(spec: str) -> tuple[str, tuple[str, ...]]:
    """Split a backend spec into (kind, details).

    Accepted forms: ``surrogate``, ``precomputed:PATH``, and
    ``external:COMMAND`` (COMMAND is shell-split).
    """
    if "|" in spec:
        raise ConfigError("backend spec must not contain '|' (it is embedded in the signature)")
    if spec == "surrogate":
        return "surrogate", ()
    kind, _, rest = spec.partition(":")
    if kind == "precomputed" and rest:
        _existing_file(rest, "precomputed score")
        return "precomputed", (rest,)
    if kind == "external" and rest:
        command = tuple(shlex.split(rest))
        if not command:
            raise ConfigError("external backend command is empty")
        return "external", command
    raise ConfigError(
        f"unknown backend spec {spec!r}: use surrogate, precomputed:PATH or external:COMMAND"
    )


# --- validation: each subparser's `validate` runs before its handler ------
#
# A ValueError raised here exits 2 before anything is written. The checks
# replace file arguments by Paths and the direction by a Direction.


def _check_scoring(ns: argparse.Namespace) -> None:
    ns.src = _existing_file(ns.src, "source")
    ns.hyp = _existing_file(ns.hyp, "hypothesis")
    ns.ref = [_existing_file(ref, "reference") for ref in ns.ref or []]
    ns.direction = Direction.parse(ns.direction)
    ns.backend_kind, ns.backend_args = _parse_backend_spec(ns.backend)
    if ns.shard_size is not None:
        if ns.backend_kind != "external":
            raise ConfigError("--shard-size only applies to an external backend")
        if ns.shard_size < 1:
            raise ConfigError("--shard-size must be at least 1")
    if ns.timeout is not None:
        if ns.backend_kind != "external":
            raise ConfigError("--timeout only applies to an external backend")
        if not (ns.timeout > 0 and math.isfinite(ns.timeout)):
            raise ConfigError(f"--timeout must be positive and finite, got {ns.timeout}")


def _check_score(ns: argparse.Namespace) -> None:
    _check_scoring(ns)
    if len(ns.ref) > 1:
        raise ConfigError("score takes at most one --ref; use the multiref subcommand")
    if ns.profile and not ns.guard_lang:
        raise ConfigError("--profile only applies with --guard-lang")
    ns.profile = [_existing_file(path, "profile") for path in ns.profile or []]
    if ns.min_len < 0:
        raise ConfigError("--min-len must be nonnegative")
    if not 0.0 <= ns.min_margin <= 1.0:
        raise ConfigError("--min-margin must be in [0, 1]")
    expected = ns.direction.tgt_lang
    if ns.guard_lang and not ns.profile and expected not in guards.BUNDLED_SEED_LANGS:
        raise ConfigError(f"no bundled language profile for {expected!r}; pass --profile files")


def _check_multiref(ns: argparse.Namespace) -> None:
    _check_scoring(ns)
    if ns.strategy == "agg" and len(ns.ref) != 2:
        raise ConfigError("agg requires exactly two --ref flags")
    if not ns.ref:
        raise ConfigError("multiref needs at least one --ref")
    if ns.backend_kind == "precomputed":
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
    if ns.hist_bins is not None:
        if ns.hist_bins < 1:
            raise ConfigError("--hist-bins must be at least 1")
        lo, hi = ns.hist_range
        if lo >= hi:
            raise ConfigError(f"--hist-range needs LO < HI, got {lo} {hi}")


def _check_signature(ns: argparse.Namespace) -> None:
    ns.signature = Signature(ns.model, ns.interp, ns.framework, ns.prec)


def _check_document(ns: argparse.Namespace) -> None:
    ns.document = _existing_file(ns.document, "document")


def _check_biaslab(ns: argparse.Namespace) -> None:
    if ns.seeds < 1:
        raise ConfigError("--seeds must be at least 1")
    for knob in ("n_per_group", "n_test", "epochs"):
        value = getattr(ns, knob)
        if value is not None and value < 1:
            raise ConfigError(f"--{knob.replace('_', '-')} must be at least 1")
    if ns.learning_rate is not None and ns.learning_rate <= 0:
        raise ConfigError("--learning-rate must be positive")


def _check_profiles(ns: argparse.Namespace) -> None:
    ns.input = _existing_file(ns.input, "corpus")
    if ns.size < 1:
        raise ConfigError("--size must be at least 1")


# --- output helpers --------------------------------------------------------


def _trailer(ns: argparse.Namespace, model: str, extra: Sequence[str] = ()) -> list[str]:
    signature = make_signature(model=model, interpreter_version=platform.python_version())
    return [*extra, f"# signature {signature}", f"# command {shlex.join(['mtharness', *ns.argv])}"]


def _emit(lines: Sequence[str], out: str | None) -> None:
    text = "".join(line + "\n" for line in lines)
    if not out:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8", newline="\n")


def _as_comments(block: str) -> list[str]:
    return [line if line.startswith("#") else f"# {line}" for line in block.splitlines()]


# --- subcommands -----------------------------------------------------------


def _build_backend(ns: argparse.Namespace):
    if ns.backend_kind == "surrogate":
        return SurrogateBackend()
    if ns.backend_kind == "precomputed":
        return PrecomputedBackend(ns.backend_args[0])
    return ExternalBackend(ns.backend_args, shard_size=ns.shard_size, timeout=ns.timeout)


def run_score(ns: argparse.Namespace) -> int:
    expected = ns.direction.tgt_lang
    if ns.guard_lang:
        # Checked before any scoring. A --profile for a bundled language is
        # fine: identification keeps the best match per language.
        profiles = guards.bundled_profiles() + [guards.read_profile(path) for path in ns.profile]
        if expected not in {p.lang for p in profiles}:
            raise ConfigError(f"no language profile for expected language {expected!r}")
    evalset = load_evalset(ns.src, ns.hyp, ns.ref, ns.direction, ns.system)
    table = score_evalset(_build_backend(ns), evalset)
    guard_blocks: list[str] = []
    if ns.guard_empty:
        table, report = guards.apply_empty_guard(evalset, table)
        guard_blocks.append("# guard empty")
        guard_blocks.extend(_as_comments(guards.format_guard_report(report)))
    if ns.guard_lang:
        table, report = guards.apply_lang_guard(
            evalset, table, profiles, expected, min_len=ns.min_len, min_margin=ns.min_margin
        )
        guard_blocks.append("# guard lang")
        guard_blocks.extend(_as_comments(guards.format_guard_report(report)))
    extra = [f"# system-score {system_score(table)!r}", *guard_blocks]
    _emit(format_score_rows(table) + _trailer(ns, model=ns.backend, extra=extra), ns.out)
    return EXIT_OK


def run_multiref(ns: argparse.Namespace) -> int:
    evalset = load_evalset(ns.src, ns.hyp, ns.ref, ns.direction, ns.system)
    table = multiref.evaluate_system_multiref(ns.strategy, evalset, _build_backend(ns))
    extra = [
        f"# system-score {system_score(table)!r}",
        f"# multiref {ns.strategy} over {evalset.n_references} references",
    ]
    _emit(format_score_rows(table) + _trailer(ns, model=ns.backend, extra=extra), ns.out)
    return EXIT_OK


def run_meta(ns: argparse.Namespace) -> int:
    from . import metastats  # imported here: only meta and biaslab load numpy

    path_a, path_b = ns.scores
    a = read_score_table(path_a).scores
    b = read_score_table(path_b).scores
    if len(a) != len(b):
        raise ValueError(f"score tables are not paired: {path_a} has {len(a)} rows but {path_b} has {len(b)}")
    pairwise = None
    if ns.ranking_metric is not None:
        pairwise = metastats.pairwise_accuracy(
            metastats.read_ranking(ns.ranking_metric), metastats.read_ranking(ns.ranking_human)
        )
    report = metastats.MetaReport(
        n=len(a),
        mae=metastats.mae(a, b),
        tau_a=metastats.kendall_tau_a(a, b) if len(a) >= 2 else None,
        tau_c=metastats.kendall_tau_c(a, b) if len(a) >= 2 else None,
        pairwise_acc=pairwise,
    )
    _emit(metastats.format_meta_report(report, tsv=ns.tsv).splitlines() + _trailer(ns, model="meta"), ns.out)
    if ns.hist_bins is not None:
        bins = metastats.histogram(a, ns.hist_bins, *ns.hist_range)
        hist_rows = [f"{center!r}\t{count}" for center, count in bins]
        _emit(hist_rows + _trailer(ns, model="meta", extra=["# histogram of first score file"]), ns.hist_out)
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
    matches = check_reporting(ns.document.read_text(encoding="utf-8"))
    for match in matches:
        print(match)
    return EXIT_OK if matches else EXIT_NO_MATCH


def run_biaslab(ns: argparse.Namespace) -> int:
    from . import biaslab  # imported here: only meta and biaslab load numpy

    seeds = [ns.seed + i for i in range(ns.seeds)]
    # only the knobs given on the command line; the experiments own the defaults
    given = {
        "n_per_direction" if ns.mode == "dist" else "n_per_tag": ns.n_per_group,
        "n_test": ns.n_test,
        "epochs": ns.epochs,
        "learning_rate": ns.learning_rate,
    }
    knobs = {name: value for name, value in given.items() if value is not None}
    rows: list[str] = []
    if ns.mode == "dist":
        rows.append("seed\tconfig\tmean_en-de\tmean_en-zh")
        up = down = 0
        touched_shifts: list[float] = []
        untouched_shifts: list[float] = []
        for seed in seeds:
            report = biaslab.distribution_bias_experiment(seed, **knobs)
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
        touched = sum(touched_shifts) / len(touched_shifts)
        untouched = sum(untouched_shifts) / len(untouched_shifts)
        summary = [
            f"top-75% filtering raised the filtered direction in {up}/{len(seeds)} seeds",
            f"bottom-75% filtering lowered it in {down}/{len(seeds)} seeds",
            f"mean shift {touched:.4f} on the filtered direction vs {untouched:.4f} on the other"
            f" (pattern {'held' if untouched < touched / 2 else 'did not hold'})",
        ]
    else:
        rows.append("seed\ttag\tmean_score\tseen")
        nondecreasing = 0
        unseen_above = 0
        for seed in seeds:
            report = biaslab.tag_bias_experiment(seed, **knobs)
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
    _emit(rows + _trailer(ns, model=f"biaslab-{ns.mode}", extra=[f"# {s}" for s in summary]), ns.out)
    if ns.out:
        for line in summary:
            print(line)
    return EXIT_OK


def run_profiles(ns: argparse.Namespace) -> int:
    profile = guards.build_language_profile(read_lines(ns.input), ns.lang, k=ns.size)
    _emit(guards.serialize_profile(profile).splitlines() + _trailer(ns, model="profiles-build"), ns.out)
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
        "--min-len", type=int, default=guards.DEFAULT_MIN_LEN,
        help="shortest hypothesis the language guard will judge",
    )
    score.add_argument(
        "--min-margin", type=float, default=guards.DEFAULT_MIN_MARGIN,
        help="minimum language-detection margin to act on",
    )

    mref = sub.add_parser("multiref", help="score against several references")
    mref.set_defaults(handler=run_multiref, validate=_check_multiref)
    _add_scoring_args(mref)
    mref.add_argument(
        "--multiref", dest="strategy", required=True, choices=multiref.STRATEGIES,
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
        "--hist-range", type=float, nargs=2, default=(0.0, 1.0), metavar=("LO", "HI"),
        help="histogram range (default 0 1)",
    )
    meta.add_argument("--hist-out", help="histogram output file")

    signature = sub.add_parser("signature", help="print a provenance signature")
    signature.set_defaults(handler=run_signature, validate=_check_signature)
    signature.add_argument("--model", default="unk")
    signature.add_argument("--prec", default="unk", help="fp32, fp16, qint8 or unk")
    signature.add_argument("--interp", default=platform.python_version())
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
    bias.add_argument("--n-test", type=int, default=200)
    bias.add_argument("--epochs", type=int, default=None)
    bias.add_argument("--learning-rate", type=float, default=None)
    bias.add_argument("--out", help="TSV output file (default: stdout)")

    profiles = sub.add_parser("profiles", help="language profile tools")
    profiles.set_defaults(handler=run_profiles, validate=_check_profiles)
    profiles.add_argument("action", choices=("build",))
    profiles.add_argument("--lang", required=True, help="language code the corpus is in")
    profiles.add_argument("--input", required=True, help="corpus file, one line per sentence")
    profiles.add_argument("--size", type=int, default=guards.DEFAULT_PROFILE_SIZE)
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
    except (ValueError, KeyError, ScorerError, OSError) as exc:
        if isinstance(exc, OSError):
            # its args[0] is the errno: name the file and the cause instead
            message = f"{exc.filename}: {exc.strerror}" if exc.filename is not None and exc.strerror else str(exc)
        else:
            message = exc.args[0] if exc.args else str(exc)
        print(f"mtharness: error: {message}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
