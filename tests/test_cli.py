"""End-to-end tests for the command-line interface: output format,
trailers, exit codes, and rerun determinism."""

import importlib.metadata
import os
import platform
import shlex
import shutil
import signal
import subprocess
import sys
import sysconfig
import time
from pathlib import Path

import pytest

from mtharness import scorer
from mtharness.cli import EXIT_CONFIG, EXIT_NO_MATCH, EXIT_OK, EXIT_RUNTIME, main
from mtharness.evalset import Direction, read_score_table
from mtharness.guards import build_language_profile, load_seed_lines, read_profile
from mtharness.multiref import evaluate_system_multiref
from mtharness.scorer import ScoreRequest, SurrogateBackend, surrogate_score

from helpers import chunking, hard_timeout, kill_quietly, process_gone, write_profile

SRC_LINES = ["the cat sat on the mat", "a quick brown fox", "rain falls in autumn"]
HYP_LINES = ["die katze sass auf der matte", "ein schneller brauner fuchs", "regen faellt im herbst"]
REF_LINES = ["die katze sass auf matte", "ein flinker brauner fuchs", "im herbst faellt der regen"]

SCORE_ARGS = ["--src", "src.txt", "--hyp", "hyp.txt", "--ref", "ref.txt", "--direction", "en-de"]

ECHO_CHILD = """\
import sys
for line in sys.stdin:
    print(0.25)
"""

# answers 0.25 per request, leaving a child-ran file behind
RECORDING_CHILD = """\
import pathlib, sys
pathlib.Path("child-ran").touch()
for line in sys.stdin:
    print(0.25)
"""


@pytest.fixture
def corpus(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, lines in (("src.txt", SRC_LINES), ("hyp.txt", HYP_LINES), ("ref.txt", REF_LINES)):
        (tmp_path / name).write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return tmp_path


def trailer_of(path):
    return [line for line in path.read_text(encoding="utf-8").splitlines() if line.startswith("#")]


class TestScore:
    def test_writes_rows_and_trailer(self, corpus):
        args = ["score", "--src", "src.txt", "--hyp", "hyp.txt", "--ref", "ref.txt",
                "--direction", "en-de", "--out", "scores.tsv"]
        assert main(args) == EXIT_OK
        out = corpus / "scores.tsv"
        table = read_score_table(out)
        assert len(table) == 3
        trailer = trailer_of(out)
        assert any(line.startswith("# system-score ") for line in trailer)
        assert any(line.startswith("# signature Python") for line in trailer)
        assert trailer[-1] == f"# command {shlex.join(['mtharness', *args])}"

    def test_hyp_equals_ref_matches_surrogate_definition(self, corpus):
        (corpus / "hyp.txt").write_text("".join(l + "\n" for l in REF_LINES), encoding="utf-8")
        assert main(["score", "--src", "src.txt", "--hyp", "hyp.txt", "--ref", "ref.txt",
                     "--direction", "en-de", "--out", "scores.tsv"]) == EXIT_OK
        expected = [
            surrogate_score(ScoreRequest(source=s, hypothesis=r, reference=r))
            for s, r in zip(SRC_LINES, REF_LINES)
        ]
        table = read_score_table(corpus / "scores.tsv")
        assert list(table.scores) == expected
        score_line = next(l for l in trailer_of(corpus / "scores.tsv") if l.startswith("# system-score"))
        assert float(score_line.split()[-1]) == sum(expected) / len(expected)

    def test_stdout_when_no_out_flag(self, corpus, capsys):
        assert main(["score", "--src", "src.txt", "--hyp", "hyp.txt", "--ref", "ref.txt",
                     "--direction", "en-de"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("0\t")
        assert lines[-1].startswith("# command ")

    def test_rerun_is_byte_identical(self, corpus):
        args = ["score", "--src", "src.txt", "--hyp", "hyp.txt", "--ref", "ref.txt",
                "--direction", "en-de", "--out", "scores.tsv"]
        assert main(args) == EXIT_OK
        first = (corpus / "scores.tsv").read_bytes()
        assert main(args) == EXIT_OK
        assert (corpus / "scores.tsv").read_bytes() == first

    def test_sharded_external_rerun_is_byte_identical(self, corpus):
        (corpus / "child.py").write_text(ECHO_CHILD, encoding="utf-8")
        args = ["score", "--src", "src.txt", "--hyp", "hyp.txt", "--ref", "ref.txt",
                "--direction", "en-de", "--backend", f"external:{sys.executable} child.py",
                "--shard-size", "2", "--out", "scores.tsv"]
        assert main(args) == EXIT_OK
        first = (corpus / "scores.tsv").read_bytes()
        assert main(args) == EXIT_OK
        assert (corpus / "scores.tsv").read_bytes() == first
        assert list(read_score_table(corpus / "scores.tsv").scores) == [0.25] * 3

    def test_guard_empty_reports_guarded_count(self, corpus):
        (corpus / "hyp.txt").write_text("die katze sass\n\nregen faellt\n", encoding="utf-8")
        assert main(["score", "--src", "src.txt", "--hyp", "hyp.txt", "--ref", "ref.txt",
                     "--direction", "en-de", "--guard-empty", "--out", "scores.tsv"]) == EXIT_OK
        table = read_score_table(corpus / "scores.tsv")
        assert table.scores[1] == 0.0
        assert "# guarded 1 of 3 segments" in trailer_of(corpus / "scores.tsv")

    def test_guard_lang_zeroes_wrong_language(self, corpus):
        hyps = [load_seed_lines("de")[0], load_seed_lines("zh")[0], load_seed_lines("de")[1]]
        (corpus / "hyp.txt").write_text("".join(h + "\n" for h in hyps), encoding="utf-8")
        assert main(["score", "--src", "src.txt", "--hyp", "hyp.txt", "--ref", "ref.txt",
                     "--direction", "en-de", "--guard-lang", "--out", "scores.tsv"]) == EXIT_OK
        table = read_score_table(corpus / "scores.tsv")
        assert table.scores[1] == 0.0
        assert table.scores[0] > 0.0 and table.scores[2] > 0.0
        assert any("zh" in line for line in trailer_of(corpus / "scores.tsv"))

    def test_profile_flag_extends_bundled_set(self, corpus):
        # a uk profile alongside the bundled ones must not hide the de one
        profile = build_language_profile(load_seed_lines("uk"), "uk", k=120)
        write_profile(profile, corpus / "uk.profile")
        assert main(["score", "--src", "src.txt", "--hyp", "hyp.txt", "--ref", "ref.txt",
                     "--direction", "en-de", "--guard-lang", "--profile", "uk.profile",
                     "--out", "scores.tsv"]) == EXIT_OK
        table = read_score_table(corpus / "scores.tsv")
        assert all(score > 0.0 for score in table.scores)

    def test_trailer_command_reparses_to_original_argv(self, corpus):
        args = ["score", "--src", "src.txt", "--hyp", "hyp.txt", "--ref", "ref.txt",
                "--direction", "en-de", "--system", "my system", "--out", "scores.tsv"]
        assert main(args) == EXIT_OK
        command = trailer_of(corpus / "scores.tsv")[-1].removeprefix("# command ")
        assert shlex.split(command) == ["mtharness", *args]


class TestConfigErrors:
    def test_missing_input_exits_2_without_output(self, corpus, capsys):
        args = ["score", "--src", "missing.txt", "--hyp", "hyp.txt", "--ref", "ref.txt",
                "--direction", "en-de", "--out", "scores.tsv"]
        assert main(args) == EXIT_CONFIG
        assert not (corpus / "scores.tsv").exists()
        assert "missing.txt" in capsys.readouterr().err

    def test_bad_direction_exits_2(self, corpus):
        assert main(["score", "--src", "src.txt", "--hyp", "hyp.txt",
                     "--direction", "english-german"]) == EXIT_CONFIG

    def test_bad_backend_exits_2(self, corpus):
        assert main(["score", "--src", "src.txt", "--hyp", "hyp.txt",
                     "--direction", "en-de", "--backend", "neural"]) == EXIT_CONFIG

    def test_shard_size_without_external_exits_2(self, corpus):
        assert main(["score", "--src", "src.txt", "--hyp", "hyp.txt",
                     "--direction", "en-de", "--shard-size", "2"]) == EXIT_CONFIG

    def test_agg_needs_exactly_two_refs(self, corpus):
        assert main(["multiref", "--src", "src.txt", "--hyp", "hyp.txt", "--ref", "ref.txt",
                     "--direction", "en-de", "--multiref", "agg"]) == EXIT_CONFIG

    def test_multiref_rejects_precomputed_backend(self, corpus, capsys):
        (corpus / "pre.tsv").write_text("".join(f"{i}\t0.5\n" for i in range(6)), encoding="utf-8")
        assert main(["multiref", "--src", "src.txt", "--hyp", "hyp.txt", "--ref", "ref.txt",
                     "--ref", "ref.txt", "--direction", "en-de", "--multiref", "max",
                     "--backend", "precomputed:pre.tsv", "--out", "scores.tsv"]) == EXIT_CONFIG
        assert not (corpus / "scores.tsv").exists()
        assert "precomputed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "char", ["\n", "\r", "\t", "\x00", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f",
                 "\x85", "\u2028", "\u2029"],
        ids=lambda char: f"U+{ord(char):04X}",
    )
    def test_control_character_in_argument_exits_2(self, corpus, capsys, char):
        assert main(["score", "--src", "src.txt", "--hyp", "hyp.txt", "--ref", "ref.txt",
                     "--direction", "en-de", "--system", f"sys{char}tem", "--out", "scores.tsv"]) == EXIT_CONFIG
        assert not (corpus / "scores.tsv").exists()
        assert "control character" in capsys.readouterr().err

    def test_printable_unicode_argument_is_accepted(self, corpus):
        args = ["score", "--src", "src.txt", "--hyp", "hyp.txt", "--ref", "ref.txt",
                "--direction", "en-de", "--system", "système\x7f", "--out", "scores.tsv"]
        assert main(args) == EXIT_OK
        assert trailer_of(corpus / "scores.tsv")[-1] == f"# command {shlex.join(['mtharness', *args])}"

    def test_newline_in_existing_file_name_exits_2(self, corpus):
        (corpus / "h\nyp.txt").write_text("".join(line + "\n" for line in HYP_LINES), encoding="utf-8")
        assert main(["score", "--src", "src.txt", "--hyp", "h\nyp.txt", "--ref", "ref.txt",
                     "--direction", "en-de", "--out", "scores.tsv"]) == EXIT_CONFIG
        assert not (corpus / "scores.tsv").exists()

    def test_missing_expected_profile_exits_2_before_scoring(self, corpus, capsys):
        (corpus / "child.py").write_text(RECORDING_CHILD, encoding="utf-8")
        write_profile(build_language_profile(load_seed_lines("de"), "fr", k=50), corpus / "fr.profile")
        assert main(["score", "--src", "src.txt", "--hyp", "hyp.txt", "--direction", "en-it",
                     "--guard-lang", "--profile", "fr.profile",
                     "--backend", f"external:{sys.executable} child.py", "--out", "scores.tsv"]) == EXIT_CONFIG
        assert not (corpus / "child-ran").exists()
        assert not (corpus / "scores.tsv").exists()
        assert "no language profile for expected language 'it'" in capsys.readouterr().err

    def test_malformed_profile_exits_1_before_scoring(self, corpus, capsys):
        (corpus / "child.py").write_text(RECORDING_CHILD, encoding="utf-8")
        (corpus / "bad.profile").write_text("not a profile\n", encoding="utf-8")
        assert main(["score", *SCORE_ARGS, "--guard-lang", "--profile", "bad.profile",
                     "--backend", f"external:{sys.executable} child.py", "--out", "scores.tsv"]) == EXIT_RUNTIME
        assert not (corpus / "child-ran").exists()
        assert not (corpus / "scores.tsv").exists()

    @pytest.mark.parametrize("text, message", [
        ("de\t0\n", "bad profile header 'de\\t0': K must be at least 1"),
        ("", "empty profile text"),
        ("de\t3\nab\ncd\nab\n", "line 4: n-gram 'ab' repeats line 2"),
    ], ids=["k-zero", "empty", "duplicate"])
    def test_malformed_profile_names_the_file(self, corpus, capsys, text, message):
        (corpus / "child.py").write_text(RECORDING_CHILD, encoding="utf-8")
        (corpus / "bad.profile").write_text(text, encoding="utf-8")
        assert main(["score", *SCORE_ARGS, "--guard-lang", "--profile", "bad.profile",
                     "--backend", f"external:{sys.executable} child.py", "--out", "scores.tsv"]) == EXIT_RUNTIME
        assert not (corpus / "child-ran").exists()
        assert not (corpus / "scores.tsv").exists()
        assert capsys.readouterr().err == f"mtharness: error: bad.profile: {message}\n"

    def test_score_rejects_multiple_refs(self, corpus):
        assert main(["score", "--src", "src.txt", "--hyp", "hyp.txt", "--ref", "ref.txt",
                     "--ref", "ref.txt", "--direction", "en-de"]) == EXIT_CONFIG

    def test_unknown_subcommand_exits_2(self, corpus):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == EXIT_CONFIG

    def test_lone_ranking_flag_exits_2(self, corpus):
        (corpus / "a.tsv").write_text("0\t0.5\n", encoding="utf-8")
        assert main(["meta", "a.tsv", "a.tsv", "--ranking-metric", "a.tsv"]) == EXIT_CONFIG

    @pytest.mark.parametrize("args, message", [
        (["score", *SCORE_ARGS, "--min-len", "-1"], "--min-len must be nonnegative"),
        (["score", *SCORE_ARGS, "--min-margin", "1.5"], "--min-margin must be in [0, 1]"),
        (["score", "--src", "src.txt", "--hyp", "hyp.txt", "--direction", "en-fr", "--guard-lang"],
         "no bundled language profile for 'fr'"),
        (["multiref", "--src", "src.txt", "--hyp", "hyp.txt", "--direction", "en-de", "--multiref", "max"],
         "multiref needs at least one --ref"),
        (["score", *SCORE_ARGS, "--backend", "external:child", "--shard-size", "0"],
         "--shard-size must be at least 1"),
        (["meta", "a.tsv", "a.tsv", "--hist-bins", "5"], "--hist-bins and --hist-out must be given together"),
        (["meta", "a.tsv", "a.tsv", "--hist-bins", "0", "--hist-out", "h.tsv"], "--hist-bins must be at least 1"),
        (["meta", "a.tsv", "a.tsv", "--hist-bins", "5", "--hist-out", "h.tsv", "--hist-range", "1", "0"],
         "--hist-range needs LO < HI, got 1.0 0.0"),
        (["biaslab", "dist", "--n-per-group", "0"], "--n-per-group must be at least 1"),
        (["biaslab", "tags", "--n-test", "0"], "--n-test must be at least 1"),
        (["biaslab", "dist", "--epochs", "0"], "--epochs must be at least 1"),
        (["biaslab", "tags", "--learning-rate", "0"], "--learning-rate must be positive"),
        (["profiles", "build", "--lang", "en", "--input", "src.txt", "--size", "0"], "--size must be at least 1"),
        (["score", *SCORE_ARGS, "--guard-lang", "--profile", "missing.profile"],
         "profile file not found: missing.profile"),
        (["meta", "a.tsv", "a.tsv", "--ranking-metric", "missing.tsv", "--ranking-human", "a.tsv"],
         "ranking file not found: missing.tsv"),
        (["check-reporting", "missing.txt"], "document file not found: missing.txt"),
        (["score", *SCORE_ARGS, "--timeout", "5"], "--timeout only applies to an external backend"),
        (["multiref", *SCORE_ARGS, "--multiref", "max", "--timeout", "5"],
         "--timeout only applies to an external backend"),
        (["score", *SCORE_ARGS, "--backend", "external:child", "--timeout", "0"],
         "--timeout must be positive and finite, got 0.0"),
        (["score", *SCORE_ARGS, "--backend", "external:child", "--timeout", "-1"],
         "--timeout must be positive and finite, got -1.0"),
        (["score", *SCORE_ARGS, "--backend", "external:child", "--timeout", "nan"],
         "--timeout must be positive and finite, got nan"),
        (["multiref", *SCORE_ARGS, "--multiref", "max", "--backend", "external:child", "--timeout", "inf"],
         "--timeout must be positive and finite, got inf"),
        (["meta", "a.tsv", "a.tsv", "--ranking-metric", "a.tsv", "--ranking-human", ""], "ranking file not found"),
        (["meta", "a.tsv", "a.tsv", "--ranking-metric", "", "--ranking-human", ""], "ranking file not found"),
        (["score", *SCORE_ARGS, "--profile", "px.txt"], "--profile only applies with --guard-lang"),
    ], ids=["min-len", "min-margin", "unbundled-lang", "multiref-no-ref", "shard-size", "hist-bins-alone",
            "hist-bins-0", "hist-range", "n-per-group", "n-test", "epochs", "learning-rate", "profile-size",
            "missing-profile", "missing-ranking", "missing-document", "timeout-surrogate",
            "timeout-multiref-surrogate", "timeout-zero", "timeout-negative", "timeout-nan", "timeout-multiref-inf",
            "empty-ranking-human", "empty-rankings", "profile-without-guard-lang"])
    def test_config_error_exits_2_without_output(self, corpus, capsys, args, message):
        (corpus / "a.tsv").write_text("0\t0.5\n1\t0.25\n", encoding="utf-8")
        before = sorted(corpus.iterdir())
        out = [] if args[0] == "check-reporting" else ["--out", "out.txt"]
        assert main([*args, *out]) == EXIT_CONFIG
        assert sorted(corpus.iterdir()) == before
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


class TestRuntimeErrors:
    def test_unparseable_score_table_exits_1(self, corpus, capsys):
        (corpus / "bad.tsv").write_text("0\tnot-a-float\n", encoding="utf-8")
        assert main(["meta", "bad.tsv", "bad.tsv"]) == EXIT_RUNTIME
        assert "could not parse" in capsys.readouterr().err

    def test_short_precomputed_table_exits_1(self, corpus, capsys):
        (corpus / "pre.tsv").write_text("0\t0.5\n", encoding="utf-8")
        assert main(["score", "--src", "src.txt", "--hyp", "hyp.txt", "--ref", "ref.txt",
                     "--direction", "en-de", "--backend", "precomputed:pre.tsv"]) == EXIT_RUNTIME
        assert "1 scores" in capsys.readouterr().err

    def test_long_precomputed_table_exits_1(self, corpus, capsys):
        (corpus / "pre.tsv").write_text("0\t0.5\n1\t0.6\n2\t0.7\n3\t0.8\n", encoding="utf-8")
        assert main(["score", "--src", "src.txt", "--hyp", "hyp.txt", "--ref", "ref.txt",
                     "--direction", "en-de", "--backend", "precomputed:pre.tsv",
                     "--out", "scores.tsv"]) == EXIT_RUNTIME
        assert not (corpus / "scores.tsv").exists()
        assert "pre.tsv has 4 scores but only 3 were requested" in capsys.readouterr().err

    def test_sharded_bad_answer_names_its_line_in_the_batch(self, corpus, capsys):
        (corpus / "src.txt").write_text("s0\ns1\ns2\ns3\n", encoding="utf-8")
        (corpus / "hyp.txt").write_text("h0\nh1\nh2\nh3\n", encoding="utf-8")
        (corpus / "ref.txt").write_text("r0\nr1\nr2\nr3\n", encoding="utf-8")
        # answers 0.5, except "oops" for the request whose hypothesis is h2
        (corpus / "child.py").write_text(
            "import sys\nfor line in sys.stdin:\n    print('oops' if '\\th2\\t' in line else 0.5)\n",
            encoding="utf-8",
        )
        assert main(["score", "--src", "src.txt", "--hyp", "hyp.txt", "--ref", "ref.txt",
                     "--direction", "en-de", "--backend", f"external:{sys.executable} child.py",
                     "--shard-size", "2", "--out", "scores.tsv"]) == EXIT_RUNTIME
        assert not (corpus / "scores.tsv").exists()
        assert "output line 3 is not a number: 'oops'" in capsys.readouterr().err

    def test_worker_error_exits_1_with_the_serial_message(self, corpus, capsys, monkeypatch):
        blend = scorer._blend

        def failing_blend(request, similarity):
            if request.hypothesis == HYP_LINES[1]:
                raise ValueError(f"cannot score {request.hypothesis!r}")
            return blend(request, similarity)

        monkeypatch.setattr(scorer, "_blend", failing_blend)
        args = ["score", *SCORE_ARGS, "--out", "scores.tsv"]
        with chunking(1):
            assert main(args) == EXIT_RUNTIME
        serial = capsys.readouterr().err
        with hard_timeout(30), chunking(2) as forked:  # the failing request is the worker's first chunk
            assert main(args) == EXIT_RUNTIME
        assert capsys.readouterr().err == serial == f"mtharness: error: cannot score {HYP_LINES[1]!r}\n"
        assert len(forked) == 1 and process_gone(forked[0])
        assert not (corpus / "scores.tsv").exists()

    @pytest.mark.parametrize("out, cause", [
        ("missing/scores.tsv", "No such file or directory"),
        ("outdir", "Is a directory"),
    ], ids=["missing-directory", "directory"])
    def test_unwritable_out_names_path_and_cause(self, corpus, capsys, out, cause):
        (corpus / "outdir").mkdir()
        assert main(["score", *SCORE_ARGS, "--out", out]) == EXIT_RUNTIME
        assert capsys.readouterr().err == f"mtharness: error: {out}: {cause}\n"


class TestMultiref:
    def test_agg_matches_library(self, corpus):
        (corpus / "ref2.txt").write_text(
            "der kater sass auf der matte\nein brauner flinker fuchs\nherbstregen faellt\n",
            encoding="utf-8",
        )
        args = ["multiref", "--src", "src.txt", "--hyp", "hyp.txt", "--ref", "ref.txt",
                "--ref", "ref2.txt", "--direction", "en-de", "--multiref", "agg",
                "--out", "agg.tsv"]
        assert main(args) == EXIT_OK
        from mtharness.evalset import load_evalset

        evalset = load_evalset("src.txt", "hyp.txt", ["ref.txt", "ref2.txt"],
                               Direction("en", "de"), "system")
        expected = evaluate_system_multiref("agg", evalset, SurrogateBackend())
        assert read_score_table(corpus / "agg.tsv").scores == expected.scores
        assert "# multiref agg over 2 references" in trailer_of(corpus / "agg.tsv")


class TestMeta:
    def test_identical_files_give_mae_zero(self, corpus, capsys):
        assert main(["score", "--src", "src.txt", "--hyp", "hyp.txt", "--ref", "ref.txt",
                     "--direction", "en-de", "--out", "a.tsv"]) == EXIT_OK
        capsys.readouterr()
        assert main(["meta", "a.tsv", "a.tsv"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "mae    0.0\n" in out
        assert "tau_a  1.0\n" in out

    def test_rankings_add_pairwise_accuracy(self, corpus, capsys):
        (corpus / "a.tsv").write_text("0\t0.5\n1\t0.25\n", encoding="utf-8")
        (corpus / "metric.tsv").write_text("sysA\t0.9\nsysB\t0.6\n", encoding="utf-8")
        (corpus / "human.tsv").write_text("sysA\t0.4\nsysB\t0.7\n", encoding="utf-8")
        assert main(["meta", "a.tsv", "a.tsv", "--ranking-metric", "metric.tsv",
                     "--ranking-human", "human.tsv"]) == EXIT_OK
        assert "pairwise_acc  0.0\n" in capsys.readouterr().out

    def test_tsv_output_and_histogram(self, corpus):
        (corpus / "a.tsv").write_text("0\t0.1\n1\t0.9\n2\t0.5\n", encoding="utf-8")
        assert main(["meta", "a.tsv", "a.tsv", "--tsv", "--out", "report.tsv",
                     "--hist-bins", "2", "--hist-out", "hist.tsv"]) == EXIT_OK
        report = (corpus / "report.tsv").read_text(encoding="utf-8").splitlines()
        assert report[0] == "n\t3"
        assert report[1] == "mae\t0.0"
        hist_rows = [l for l in (corpus / "hist.tsv").read_text(encoding="utf-8").splitlines()
                     if not l.startswith("#")]
        assert [row.split("\t")[0] for row in hist_rows] == ["0.25", "0.75"]
        assert sum(int(row.split("\t")[1]) for row in hist_rows) == 3

    def test_unpaired_tables_name_both_files(self, corpus, capsys):
        (corpus / "a.tsv").write_text("0\t0.1\n1\t0.9\n", encoding="utf-8")
        (corpus / "b.tsv").write_text("0\t0.1\n1\t0.9\n2\t0.5\n", encoding="utf-8")
        assert main(["meta", "a.tsv", "b.tsv", "--out", "report.txt"]) == EXIT_RUNTIME
        assert not (corpus / "report.txt").exists()
        err = capsys.readouterr().err
        assert "a.tsv has 2 rows but b.tsv has 3" in err
        assert "mae" not in err


class TestProvenanceCommands:
    def test_signature_exact_string(self, capsys):
        assert main(["signature", "--model", "unite-mup", "--prec", "fp32",
                     "--interp", "3.11.8", "--framework", "2.2.2"]) == EXIT_OK
        assert capsys.readouterr().out == "Python3.11.8|Comet2.2.2|fp32|unite-mup\n"

    def test_signature_defaults_to_live_interpreter(self, capsys):
        assert main(["signature"]) == EXIT_OK
        assert capsys.readouterr().out == f"Python{platform.python_version()}|Cometunk|unk|unk\n"

    @pytest.mark.parametrize("args, message", [
        (["--prec", "fp64"], "precision must be one of fp32, fp16, qint8, unk, got 'fp64'"),
        (["--model", "a|b"], "signature field model must not contain '|'"),
    ], ids=["prec", "model"])
    def test_invalid_signature_field_exits_2(self, capsys, args, message):
        assert main(["signature", *args]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_cite_prints_url_then_bibtex(self, capsys):
        assert main(["cite", "Unbabel/xcomet-xl"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "https://arxiv.org/abs/2310.10482"
        assert lines[1].startswith("@misc{guerreiro2023xcomet")

    def test_cite_unknown_exits_1_with_suggestions(self, capsys):
        assert main(["cite", "xcomet-gx"]) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "nearest known keys" in err
        assert "xcomet-xl" in err

    def test_check_reporting_exit_codes(self, corpus, capsys):
        (corpus / "doc.txt").write_text("Scores come from wmt22-comet-da.\n", encoding="utf-8")
        assert main(["check-reporting", "doc.txt"]) == EXIT_OK
        assert capsys.readouterr().out == "wmt22-comet\n"
        (corpus / "doc.txt").write_text("We used a COMET model.\n", encoding="utf-8")
        assert main(["check-reporting", "doc.txt"]) == EXIT_NO_MATCH


class TestBiaslab:
    def test_dist_report_and_trailer(self, corpus, capsys):
        args = ["biaslab", "dist", "--seeds", "1", "--n-per-group", "40", "--n-test", "20",
                "--epochs", "2", "--out", "dist.tsv"]
        assert main(args) == EXIT_OK
        lines = (corpus / "dist.tsv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "seed\tconfig\tmean_en-de\tmean_en-zh"
        body = [l for l in lines if not l.startswith("#") and l != lines[0]]
        assert len(body) == 5  # one row per training config
        assert any("filtered direction" in l for l in lines if l.startswith("#"))
        assert "raised the filtered direction" in capsys.readouterr().out

    def test_tags_rerun_byte_identical(self, corpus):
        args = ["biaslab", "tags", "--seeds", "1", "--n-per-group", "30", "--n-test", "20",
                "--epochs", "2", "--out", "tags.tsv"]
        assert main(args) == EXIT_OK
        first = (corpus / "tags.tsv").read_bytes()
        assert main(args) == EXIT_OK
        assert (corpus / "tags.tsv").read_bytes() == first
        lines = first.decode("utf-8").splitlines()
        body = [l for l in lines if not l.startswith("#") and not l.startswith("seed")]
        assert len(body) == 8  # one row per test-time tag

    def test_bad_seeds_exits_2(self, corpus):
        assert main(["biaslab", "dist", "--seeds", "0"]) == EXIT_CONFIG


class TestProfiles:
    def test_build_roundtrip(self, corpus):
        (corpus / "corpus.txt").write_text(
            "".join(line + "\n" for line in load_seed_lines("uk")[:20]), encoding="utf-8"
        )
        assert main(["profiles", "build", "--lang", "uk", "--input", "corpus.txt",
                     "--size", "80", "--out", "uk.profile"]) == EXIT_OK
        profile = read_profile(corpus / "uk.profile")
        assert profile.lang == "uk"
        assert len(profile.ranked_ngrams) == 80
        trailer = trailer_of(corpus / "uk.profile")
        assert trailer and trailer[-1].startswith("# command ")


SIGNATURE_ARGS = ["signature", "--model", "unite-mup", "--prec", "fp32",
                  "--interp", "3.11.8", "--framework", "2.2.2"]
SIGNATURE_LINE = "Python3.11.8|Comet2.2.2|fp32|unite-mup\n"


def _distribution_missing(name):
    try:
        importlib.metadata.distribution(name)
    except importlib.metadata.PackageNotFoundError:
        return True
    return False


def _console_script(name):
    """The installed script: the interpreter's scripts directory first, so
    an unactivated venv still finds its own script, then PATH."""
    candidate = shutil.which(name, path=sysconfig.get_path("scripts"))
    return candidate or shutil.which(name) or name


@pytest.mark.skipif(
    _distribution_missing("mtharness"),
    reason="the mtharness distribution is not installed, so its console script does not "
           "exist; `pip install -e .` provides it",
)
def test_console_script_is_installed():
    proc = subprocess.run(
        [_console_script("mtharness"), *SIGNATURE_ARGS],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == EXIT_OK
    assert proc.stdout == SIGNATURE_LINE


def test_console_script_entry_and_module_launcher(run_module, tmp_path):
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    assert scripts["mtharness"] == "mtharness.cli:main"

    proc = run_module(SIGNATURE_ARGS, cwd=tmp_path)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout == SIGNATURE_LINE


def test_module_launcher_writes_same_bytes_as_main(run_module, corpus):
    args = ["score", "--src", "src.txt", "--hyp", "hyp.txt", "--ref", "ref.txt",
            "--direction", "en-de", "--out"]
    assert main([*args, "in_process.tsv"]) == EXIT_OK
    proc = run_module([*args, "launched.tsv"], cwd=corpus)
    assert proc.returncode == EXIT_OK, proc.stderr
    in_process = (corpus / "in_process.tsv").read_text(encoding="utf-8")
    launched = (corpus / "launched.tsv").read_text(encoding="utf-8")
    assert launched == in_process.replace("in_process.tsv", "launched.tsv")
    assert launched.splitlines()[-1].startswith("# command mtharness score ")


# writes its pid, then sleeps far longer than any timeout below
SLEEPING_CHILD = """\
import os, pathlib, time
pathlib.Path("child.pid").write_text(str(os.getpid()))
time.sleep(120)
"""


def test_timeout_kills_hung_external_scorer(run_module, corpus):
    (corpus / "child.py").write_text(SLEEPING_CHILD, encoding="utf-8")
    proc = run_module(["score", *SCORE_ARGS, "--backend", f"external:{sys.executable} child.py",
                       "--timeout", "1", "--out", "scores.tsv"], cwd=corpus, timeout=30)
    pid = int((corpus / "child.pid").read_text())
    try:
        assert proc.returncode == EXIT_RUNTIME
        assert "external scorer for requests 0..2 did not finish within 1 s" in proc.stderr
        assert not (corpus / "scores.tsv").exists()
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
    finally:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


# Appends its pid to child.pids and sleeps.
LOGGING_SLEEPER = """\
import os, time
with open("child.pids", "a") as log:
    log.write(f"{os.getpid()}\\n")
time.sleep(120)
"""


# Runs LOGGING_SLEEPER under a shell that outlives it, so the sleeper is
# the scorer's grandchild; the shell appends its own pid to sh.pids.
def shell_wrapped_sleeper(corpus):
    (corpus / "sleeper.py").write_text(LOGGING_SLEEPER, encoding="utf-8")
    return f"external:sh -c 'echo $$ >> sh.pids; {sys.executable} sleeper.py; true'"


def logged_pids(corpus):
    return [int(pid) for name in ("sh.pids", "child.pids") if (corpus / name).exists()
            for pid in (corpus / name).read_text().split()]


def test_timeout_kills_grandchildren(run_module, corpus):
    proc = run_module(["score", *SCORE_ARGS, "--backend", shell_wrapped_sleeper(corpus),
                       "--timeout", "1", "--out", "scores.tsv"], cwd=corpus, timeout=30)
    pids = logged_pids(corpus)
    try:
        assert proc.returncode == EXIT_RUNTIME
        assert "external scorer for requests 0..2 did not finish within 1 s" in proc.stderr
        assert len(pids) == 2
        assert all(process_gone(pid) for pid in pids)
    finally:
        kill_quietly(*pids)


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGHUP], ids=["SIGTERM", "SIGHUP"])
def test_signal_ends_every_child_and_grandchild(start_module, corpus, signum):
    proc = start_module(["score", *SCORE_ARGS, "--backend", shell_wrapped_sleeper(corpus),
                         "--shard-size", "1", "--out", "scores.tsv"], cwd=corpus)
    in_flight = min(len(SRC_LINES), len(os.sched_getaffinity(0)))  # shards the CLI runs at once
    deadline = time.monotonic() + 30
    while len(logged_pids(corpus)) < 2 * in_flight and proc.poll() is None and time.monotonic() < deadline:
        time.sleep(0.05)
    pids = logged_pids(corpus)
    try:
        assert len(pids) == 2 * in_flight
        proc.send_signal(signum)
        proc.communicate(timeout=30)
        assert proc.returncode == -signum  # ended by the signal, once its children are gone
        assert all(process_gone(pid) for pid in pids)
        assert not (corpus / "scores.tsv").exists()
    finally:
        kill_quietly(*pids)


def write_guarded_corpus(corpus, n, repeat=1):
    """n segments of German, with every tenth hypothesis empty and every
    tenth Chinese; each text is ``repeat`` seed lines long."""
    de, en, zh = (load_seed_lines(lang) for lang in ("de", "en", "zh"))

    def text(lines, i):
        return " ".join(lines[(i + j) % len(lines)] for j in range(repeat))

    hyps = ["" if i % 10 == 3 else text(zh, i) if i % 10 == 7 else text(de, i + 1) for i in range(n)]
    for name, lines in (("src.txt", [text(en, i) for i in range(n)]), ("hyp.txt", hyps),
                        ("ref.txt", [text(de, i) for i in range(n)])):
        (corpus / name).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


@pytest.mark.skipif(shutil.which("taskset") is None, reason="needs taskset to restrict the CPUs")
def test_guarded_out_bytes_do_not_depend_on_cpu_count(run_module, corpus):
    write_guarded_corpus(corpus, 300)
    args = ["score", *SCORE_ARGS, "--guard-empty", "--guard-lang", "--out", "scores.tsv"]
    outputs = []
    for launcher in (["taskset", "-c", "0"], []):
        proc = run_module(args, cwd=corpus, launcher=launcher)
        assert proc.returncode == EXIT_OK, proc.stderr
        outputs.append((corpus / "scores.tsv").read_bytes())
    with chunking(8, min_chunk=None) as forked:
        assert main(args) == EXIT_OK
    outputs.append((corpus / "scores.tsv").read_bytes())
    assert len(forked) == 2 * 5  # 300 segments: 6 chunks in each of the two stages
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
    assert "# guarded 30 of 300 segments" in outputs[0].decode("utf-8")


def worker_pids(pid):
    return [int(child) for child in Path(f"/proc/{pid}/task/{pid}/children").read_text().split()]


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two usable CPUs for a forked worker")
@pytest.mark.skipif(not Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists(),
                    reason="needs /proc/<pid>/task/<pid>/children to find the workers")
@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGHUP], ids=["SIGTERM", "SIGHUP"])
def test_signal_mid_score_ends_every_worker(start_module, corpus, signum):
    write_guarded_corpus(corpus, 400, repeat=40)  # long texts: about 2 s of scoring on 2 CPUs
    proc = start_module(["score", *SCORE_ARGS, "--guard-empty", "--guard-lang", "--out", "scores.tsv"], cwd=corpus)
    deadline = time.monotonic() + 30
    workers = []
    while not workers and proc.poll() is None and time.monotonic() < deadline:
        time.sleep(0.01)
        workers = worker_pids(proc.pid)
    try:
        assert workers
        proc.send_signal(signum)
        proc.communicate(timeout=30)
        assert proc.returncode == -signum
        # gone the moment the CLI has ended: it killed and reaped them first
        assert all(process_gone(pid, within=0) for pid in workers)
        assert not (corpus / "scores.tsv").exists()
    finally:
        kill_quietly(*workers)


# Each run exits 0 with numpy blocked; (arguments, output file or None for stdout)
NUMPY_FREE_RUNS = {
    "score": (["score", *SCORE_ARGS, "--guard-empty", "--guard-lang", "--out", "out.tsv"], "out.tsv"),
    "multiref": (["multiref", *SCORE_ARGS, "--ref", "ref2.txt", "--multiref", "agg", "--out", "out.tsv"],
                 "out.tsv"),
    "signature": (SIGNATURE_ARGS, None),
    "cite": (["cite", "wmt22-comet-da"], None),
    "check-reporting": (["check-reporting", "doc.txt"], None),
    "profiles": (["profiles", "build", "--lang", "de", "--input", "hyp.txt", "--size", "50",
                  "--out", "out.tsv"], "out.tsv"),
}


@pytest.fixture
def numpy_free_corpus(corpus):
    (corpus / "ref2.txt").write_text("".join(line + "\n" for line in HYP_LINES), encoding="utf-8")
    (corpus / "doc.txt").write_text("Scores come from wmt22-comet-da.\n", encoding="utf-8")
    return corpus


@pytest.mark.parametrize("name", NUMPY_FREE_RUNS)
def test_subcommand_runs_without_numpy(run_module, numpy_free_corpus, capsys, name):
    args, out = NUMPY_FREE_RUNS[name]
    assert main(args) == EXIT_OK
    expected = (numpy_free_corpus / out).read_bytes() if out else capsys.readouterr().out
    if out:
        (numpy_free_corpus / out).unlink()
    proc = run_module(args, cwd=numpy_free_corpus, block={"numpy"})
    assert proc.returncode == EXIT_OK, proc.stderr
    assert ((numpy_free_corpus / out).read_bytes() if out else proc.stdout) == expected


@pytest.mark.parametrize("args", [
    ["meta", "a.tsv", "a.tsv"],
    ["biaslab", "dist", "--seeds", "1"],
], ids=["meta", "biaslab"])
def test_numpy_block_is_felt_by_numpy_subcommands(run_module, corpus, args):
    (corpus / "a.tsv").write_text("0\t0.5\n1\t0.25\n", encoding="utf-8")
    proc = run_module(args, cwd=corpus, block={"numpy"})
    assert proc.returncode == EXIT_RUNTIME
    assert "ModuleNotFoundError: import of numpy halted" in proc.stderr
