"""Writers that only the tests need: they turn in-memory objects back
into the files the library reads."""

from pathlib import Path

from mtharness.evalset import format_score_rows
from mtharness.guards import serialize_profile


def _write_column(path, lines):
    text = ""
    for line in lines:
        if "\n" in line or "\r" in line:
            raise ValueError(f"segment text contains a line break and cannot round-trip through {path}")
        text += line + "\n"
    Path(path).write_text(text, encoding="utf-8")


def write_evalset(evalset, src_path, hyp_path, ref_paths):
    """Write an EvalSet's columns back to one-segment-per-line files."""
    if len(ref_paths) != evalset.n_references:
        raise ValueError(f"evalset has {evalset.n_references} references per segment but {len(ref_paths)} ref paths were given")
    _write_column(src_path, (seg.source for seg in evalset.segments))
    _write_column(hyp_path, (seg.hypothesis for seg in evalset.segments))
    for k, ref_path in enumerate(ref_paths):
        _write_column(ref_path, (seg.references[k] for seg in evalset.segments))


def write_score_table(table, path):
    Path(path).write_text("".join(row + "\n" for row in format_score_rows(table)), encoding="utf-8")


def write_profile(profile, path):
    Path(path).write_text(serialize_profile(profile), encoding="utf-8")
