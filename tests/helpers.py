"""Helpers that only the tests need: writers that turn in-memory objects
back into the files the library reads, process checks for the external
backend, and control over how in-process work is split into chunks."""

import os
import signal
import time
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

from mtharness import scorer
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


@contextmanager
def hard_timeout(seconds):
    """Raises TimeoutError in the main thread once ``seconds`` have passed,
    so a hung call fails the test instead of hanging the run."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after the test's hard timeout of {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def process_gone(pid, within=5.0):
    """True once ``pid`` has exited within ``within`` seconds. A zombie
    counts as gone: an orphan waits as one until PID 1 reaps it."""
    deadline = time.monotonic() + within
    while True:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        try:
            if Path(f"/proc/{pid}/stat").read_text().rpartition(")")[2].split()[0] == "Z":
                return True
        except FileNotFoundError:
            pass  # it has just exited, or this system has no /proc
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)


def kill_quietly(*pids):
    """SIGKILLs whatever a failed test may have left running."""
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


@contextmanager
def chunking(cpus, min_chunk=1):
    """Makes ``map_chunks`` see ``cpus`` usable CPUs and, unless
    ``min_chunk`` is None, split batches down to chunks of that many items.
    Yields the list of the pids it forks, filled in as it forks them."""
    forked = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    with mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cpus)), create=True), \
            mock.patch.object(os, "fork", counting_fork):
        if min_chunk is None:
            yield forked
        else:
            with mock.patch.object(scorer, "_MIN_CHUNK", min_chunk):
                yield forked


def reaped(pid):
    """True once ``pid`` is no child of this process left to wait for."""
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False
