"""Command-line entry point wiring the score -> guard -> aggregate -> report pipeline.

Every file this tool writes ends in a `#` trailer carrying the run's
signature and the exact command line, so any output can be reproduced
byte-for-byte by re-running its own trailer. Exit codes: 0 success,
2 invalid configuration (nothing written), 3 no match (check-reporting),
1 runtime failure.
"""

from __future__ import annotations

import argparse
import platform
import shlex
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from . import biaslab, guards, metastats, multiref
from .evalset import (
    Direction,
    format_score_rows,
    load_evalset,
    read_lines,
    read_score_table,
    system_score,
)
from .provenance import check_reporting, cite, make_signature
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


@dataclass(frozen=True)
class RunConfig:
    """One fully validated invocation; constructing it does no work yet."""

    subcommand: str
    argv: tuple[str, ...]  # raw arguments, reproduced verbatim in trailers
    options: dict = field(default_factory=dict)

    def __getattr__(self, name: str):
        try:
            return self.options[name]
        except KeyError:
            raise AttributeError(name) from None


def _validate_scoring_args(ns: argparse.Namespace, options: dict) -> None:
    options["src"] = _existing_file(ns.src, "source")
    options["hyp"] = _existing_file(ns.hyp, "hypothesis")
    options["refs"] = tuple(_existing_file(ref, "reference") for ref in ns.ref or [])
    options["direction"] = Direction.parse(ns.direction)
    options["system"] = ns.system
    options["backend"] = _parse_backend_spec(ns.backend)
    options["backend_spec"] = ns.backend
    if ns.shard_size is not None:
        if options["backend"][0] != "external":
            raise ConfigError("--shard-size only applies to an external backend")
        if ns.shard_size < 1:
            raise ConfigError("--shard-size must be at least 1")
    options["shard_size"] = ns.shard_size
    options["out"] = Path(ns.out) if ns.out else None


def _build_config(ns: argparse.Namespace, argv: Sequence[str]) -> RunConfig:
    subcommand = ns.subcommand
    options: dict = {}
    if subcommand == "score":
        _validate_scoring_args(ns, options)
        if len(options["refs"]) > 1:
            raise ConfigError("score takes at most one --ref; use the multiref subcommand")
        options["guard_empty"] = ns.guard_empty
        options["guard_lang"] = ns.guard_lang
        options["profiles"] = tuple(_existing_file(p, "profile") for p in ns.profile or [])
        if ns.min_len < 0:
            raise ConfigError("--min-len must be nonnegative")
        if not 0.0 <= ns.min_margin <= 1.0:
            raise ConfigError("--min-margin must be in [0, 1]")
        options["min_len"] = ns.min_len
        options["min_margin"] = ns.min_margin
        if ns.guard_lang and not ns.profile:
            expected = options["direction"].tgt_lang
            if expected not in guards.BUNDLED_SEED_LANGS:
                raise ConfigError(
                    f"no bundled language profile for {expected!r}; pass --profile files"
                )
    elif subcommand == "multiref":
        _validate_scoring_args(ns, options)
        options["strategy"] = ns.strategy
        if ns.strategy == "agg" and len(options["refs"]) != 2:
            raise ConfigError("agg requires exactly two --ref flags")
        if not options["refs"]:
            raise ConfigError("multiref needs at least one --ref")
        if options["backend"][0] == "precomputed":
            raise ConfigError(
                "multiref cannot use a precomputed backend: its scores are keyed by segment,"
                " not by (segment, reference) request"
            )
    elif subcommand == "meta":
        options["scores_a"] = _existing_file(ns.scores[0], "score")
        options["scores_b"] = _existing_file(ns.scores[1], "score")
        if (ns.ranking_metric is None) != (ns.ranking_human is None):
            raise ConfigError("--ranking-metric and --ranking-human must be given together")
        options["ranking_metric"] = (
            _existing_file(ns.ranking_metric, "ranking") if ns.ranking_metric else None
        )
        options["ranking_human"] = (
            _existing_file(ns.ranking_human, "ranking") if ns.ranking_human else None
        )
        options["tsv"] = ns.tsv
        options["out"] = Path(ns.out) if ns.out else None
        if (ns.hist_bins is None) != (ns.hist_out is None):
            raise ConfigError("--hist-bins and --hist-out must be given together")
        if ns.hist_bins is not None and ns.hist_bins < 1:
            raise ConfigError("--hist-bins must be at least 1")
        lo, hi = ns.hist_range
        if ns.hist_bins is not None and lo >= hi:
            raise ConfigError(f"--hist-range needs LO < HI, got {lo} {hi}")
        options["hist_bins"] = ns.hist_bins
        options["hist_range"] = (lo, hi)
        options["hist_out"] = Path(ns.hist_out) if ns.hist_out else None
    elif subcommand == "signature":
        options.update(model=ns.model, prec=ns.prec, interp=ns.interp, framework=ns.framework)
    elif subcommand == "cite":
        options["model"] = ns.model
    elif subcommand == "check-reporting":
        options["document"] = _existing_file(ns.document, "document")
    elif subcommand == "biaslab":
        if ns.seeds < 1:
            raise ConfigError("--seeds must be at least 1")
        for knob in ("n_per_group", "n_test", "epochs"):
            if getattr(ns, knob) < 1:
                raise ConfigError(f"--{knob.replace('_', '-')} must be at least 1")
        if ns.learning_rate <= 0:
            raise ConfigError("--learning-rate must be positive")
        options.update(
            mode=ns.mode,
            seeds=ns.seeds,
            seed=ns.seed,
            n_per_group=ns.n_per_group,
            n_test=ns.n_test,
            epochs=ns.epochs,
            learning_rate=ns.learning_rate,
            out=Path(ns.out) if ns.out else None,
        )
    elif subcommand == "profiles":
        options["lang"] = ns.lang
        options["input"] = _existing_file(ns.input, "corpus")
        if ns.size < 1:
            raise ConfigError("--size must be at least 1")
        options["size"] = ns.size
        options["out"] = Path(ns.out)
    return RunConfig(subcommand=subcommand, argv=tuple(argv), options=options)


# --- output helpers --------------------------------------------------------


def _run_signature(model: str) -> str:
    return make_signature(model=model, interpreter_version=platform.python_version())


def _trailer(config: RunConfig, model: str, extra: Sequence[str] = ()) -> list[str]:
    lines = list(extra)
    lines.append(f"# signature {_run_signature(model)}")
    lines.append(f"# command {shlex.join(['mtharness', *config.argv])}")
    return lines


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text, encoding="utf-8", newline="\n")


def _as_comments(block: str) -> list[str]:
    return [line if line.startswith("#") else f"# {line}" for line in block.splitlines()]


# --- subcommands -----------------------------------------------------------


def _build_backend(config: RunConfig):
    kind, details = config.backend
    if kind == "surrogate":
        return SurrogateBackend()
    if kind == "precomputed":
        return PrecomputedBackend(details[0])
    return ExternalBackend(details, shard_size=config.shard_size)


def _load_profiles(config: RunConfig) -> list[guards.LanguageProfile]:
    """Bundled profiles plus any --profile files; a second profile for a
    bundled language is fine (identification keeps the best match per
    language)."""
    extra = [guards.read_profile(path) for path in config.profiles]
    return guards.bundled_profiles() + extra


def run_score(config: RunConfig) -> int:
    evalset = load_evalset(
        config.src, config.hyp, config.refs, config.direction, config.system
    )
    table = score_evalset(_build_backend(config), evalset)
    guard_blocks: list[str] = []
    if config.guard_empty:
        table, report = guards.apply_empty_guard(evalset, table)
        guard_blocks.append("# guard empty")
        guard_blocks.extend(_as_comments(guards.format_guard_report(report)))
    if config.guard_lang:
        profiles = _load_profiles(config)
        expected = config.direction.tgt_lang
        if expected not in {p.lang for p in profiles}:
            raise ConfigError(f"no language profile for expected language {expected!r}")
        table, report = guards.apply_lang_guard(
            evalset, table, profiles, expected,
            min_len=config.min_len, min_margin=config.min_margin,
        )
        guard_blocks.append("# guard lang")
        guard_blocks.extend(_as_comments(guards.format_guard_report(report)))
    rows = format_score_rows(table)
    extra = [f"# system-score {system_score(table)!r}", *guard_blocks]
    lines = rows + _trailer(config, model=config.backend_spec, extra=extra)
    _emit("".join(line + "\n" for line in lines), config.out)
    return EXIT_OK


def run_multiref(config: RunConfig) -> int:
    evalset = load_evalset(
        config.src, config.hyp, config.refs, config.direction, config.system
    )
    table = multiref.evaluate_system_multiref(config.strategy, evalset, _build_backend(config))
    rows = format_score_rows(table)
    extra = [
        f"# system-score {system_score(table)!r}",
        f"# multiref {config.strategy} over {evalset.n_references} references",
    ]
    lines = rows + _trailer(config, model=config.backend_spec, extra=extra)
    _emit("".join(line + "\n" for line in lines), config.out)
    return EXIT_OK


def run_meta(config: RunConfig) -> int:
    table_a = read_score_table(config.scores_a)
    table_b = read_score_table(config.scores_b)
    a, b = table_a.scores, table_b.scores
    if len(a) != len(b):
        raise ValueError(
            f"score tables are not paired: {config.scores_a} has {len(a)} rows but {config.scores_b} has {len(b)}"
        )
    pairwise = None
    if config.ranking_metric is not None:
        pairwise = metastats.pairwise_accuracy(
            metastats.read_ranking(config.ranking_metric),
            metastats.read_ranking(config.ranking_human),
        )
    report = metastats.MetaReport(
        n=len(a),
        mae=metastats.mae(a, b),
        tau_a=metastats.kendall_tau_a(a, b) if len(a) >= 2 else None,
        tau_c=metastats.kendall_tau_c(a, b) if len(a) >= 2 else None,
        pairwise_acc=pairwise,
    )
    lines = metastats.format_meta_report(report, tsv=config.tsv).splitlines() + _trailer(config, model="meta")
    _emit("".join(line + "\n" for line in lines), config.out)
    if config.hist_bins is not None:
        lo, hi = config.hist_range
        bins = metastats.histogram(a, config.hist_bins, lo, hi)
        hist_rows = [f"{center!r}\t{count}" for center, count in bins]
        hist_lines = hist_rows + _trailer(config, model="meta", extra=["# histogram of first score file"])
        _emit("".join(line + "\n" for line in hist_lines), config.hist_out)
    return EXIT_OK


def run_signature(config: RunConfig) -> int:
    print(
        make_signature(
            model=config.model,
            interpreter_version=config.interp,
            framework_version=config.framework,
            precision=config.prec,
        )
    )
    return EXIT_OK


def run_cite(config: RunConfig) -> int:
    record = cite(config.model)
    print(record.url)
    print(record.bibtex)
    return EXIT_OK


def run_check_reporting(config: RunConfig) -> int:
    text = config.document.read_text(encoding="utf-8")
    matches = check_reporting(text)
    for match in matches:
        print(match)
    return EXIT_OK if matches else EXIT_NO_MATCH


def run_biaslab(config: RunConfig) -> int:
    seeds = [config.seed + i for i in range(config.seeds)]
    rows: list[str] = []
    if config.mode == "dist":
        rows.append("seed\tconfig\tmean_en-de\tmean_en-zh")
        up = down = 0
        touched_shifts: list[float] = []
        untouched_shifts: list[float] = []
        for seed in seeds:
            report = biaslab.distribution_bias_experiment(
                seed,
                n_per_direction=config.n_per_group,
                n_test=config.n_test,
                epochs=config.epochs,
                learning_rate=config.learning_rate,
            )
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
            report = biaslab.tag_bias_experiment(
                seed,
                n_per_tag=config.n_per_group,
                n_test=config.n_test,
                epochs=config.epochs,
                learning_rate=config.learning_rate,
            )
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
    lines = rows + _trailer(config, model=f"biaslab-{config.mode}", extra=[f"# {s}" for s in summary])
    _emit("".join(line + "\n" for line in lines), config.out)
    if config.out is not None:
        for line in summary:
            print(line)
    return EXIT_OK


def run_profiles(config: RunConfig) -> int:
    corpus = read_lines(config.input)
    profile = guards.build_language_profile(corpus, config.lang, k=config.size)
    text = guards.serialize_profile(profile)
    lines = text.splitlines() + _trailer(config, model="profiles-build")
    _emit("".join(line + "\n" for line in lines), config.out)
    return EXIT_OK


_HANDLERS = {
    "score": run_score,
    "multiref": run_multiref,
    "meta": run_meta,
    "signature": run_signature,
    "cite": run_cite,
    "check-reporting": run_check_reporting,
    "biaslab": run_biaslab,
    "profiles": run_profiles,
}


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
    parser.add_argument("--shard-size", type=int, help="external backend: requests per child process")
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
    _add_scoring_args(mref)
    mref.add_argument(
        "--multiref", dest="strategy", required=True, choices=multiref.STRATEGIES,
        help="how to combine per-reference scores",
    )

    meta = sub.add_parser("meta", help="compare two score tables")
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
    signature.add_argument("--model", default="unk")
    signature.add_argument("--prec", default="unk", help="fp32, fp16, qint8 or unk")
    signature.add_argument("--interp", default=platform.python_version())
    signature.add_argument("--framework", default="unk")

    cite_parser = sub.add_parser("cite", help="print URL and BibTeX for a model")
    cite_parser.add_argument("model")

    check = sub.add_parser(
        "check-reporting", help="scan a document for telltale metric names; exit 3 if none"
    )
    check.add_argument("document")

    bias = sub.add_parser("biaslab", help="run a training-data bias experiment")
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
    profiles.add_argument("action", choices=("build",))
    profiles.add_argument("--lang", required=True, help="language code the corpus is in")
    profiles.add_argument("--input", required=True, help="corpus file, one line per sentence")
    profiles.add_argument("--size", type=int, default=guards.DEFAULT_PROFILE_SIZE)
    profiles.add_argument("--out", required=True, help="profile output file")

    return parser


_BIASLAB_DEFAULTS = {
    "dist": {"n_per_group": 250, "epochs": 30, "learning_rate": 5e-4},
    "tags": {"n_per_group": 400, "epochs": 150, "learning_rate": 1e-3},
}


# Characters that would break the one-line `# command` trailer: all of
# C0 plus the other separators str.splitlines() breaks on.
_TRAILER_BREAKERS = frozenset(map(chr, range(0x20))) | {"\x85", "\u2028", "\u2029"}


def main(argv: Sequence[str] | None = None) -> int:
    raw_args = list(sys.argv[1:] if argv is None else argv)
    for arg in raw_args:
        if not _TRAILER_BREAKERS.isdisjoint(arg):
            print(f"mtharness: error: argument {arg!r} contains a control character", file=sys.stderr)
            return EXIT_CONFIG
    parser = build_parser()
    ns = parser.parse_args(raw_args)
    if ns.subcommand == "biaslab":
        for knob, value in _BIASLAB_DEFAULTS[ns.mode].items():
            if getattr(ns, knob) is None:
                setattr(ns, knob, value)
    try:
        config = _build_config(ns, raw_args)
    except ValueError as exc:
        print(f"mtharness: error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return _HANDLERS[config.subcommand](config)
    except ConfigError as exc:
        print(f"mtharness: error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, KeyError, ScorerError, OSError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"mtharness: error: {message}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
