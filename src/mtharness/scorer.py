"""Pluggable segment scorers.

Three backends share one batch interface: a precomputed index-keyed
score table, an external process spoken to over a bit-exact
line-oriented wire protocol, and a built-in deterministic lexical
surrogate for tests and demos. Real neural metrics stay out of process
by design; this module only moves triples in and scores out.
"""

from __future__ import annotations

import math
import os
import signal
import subprocess
import tempfile
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import BinaryIO, Callable, NoReturn, Sequence

from .evalset import EvalSet, ScoreTable, read_score_table


class ScorerError(RuntimeError):
    """A backend failed to produce one finite score per request."""


@dataclass(frozen=True)
class ScoreRequest:
    """One (source, hypothesis, reference) triple; reference None = QE."""

    source: str
    hypothesis: str
    reference: str | None = None


# --- wire protocol -----------------------------------------------------
#
# One request per line on the child's stdin: source,	hypothesis and
# reference joined by literal TABs (two fields in QE mode). Literal
# backslash, TAB and LF inside a field are escaped as \\, \t and \n, so
# the protocol stays line-oriented and bit-exact. The child answers
# with exactly one decimal number per line, in order.


def escape_field(text: str) -> str:
    """Escape one field for the wire (backslash first, then TAB, LF)."""
    return text.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n")


def unescape_field(text: str) -> str:
    """Invert escape_field with a single left-to-right scan."""
    out: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        if i + 1 >= len(text):
            raise ScorerError("dangling backslash at end of wire field")
        nxt = text[i + 1]
        if nxt == "\\":
            out.append("\\")
        elif nxt == "t":
            out.append("\t")
        elif nxt == "n":
            out.append("\n")
        else:
            raise ScorerError(f"invalid wire escape \\{nxt}")
        i += 2
    return "".join(out)


def format_request_line(request: ScoreRequest) -> str:
    fields = [request.source, request.hypothesis]
    if request.reference is not None:
        fields.append(request.reference)
    return "\t".join(escape_field(f) for f in fields)


def _check_homogeneous(requests: Sequence[ScoreRequest]) -> None:
    modes = {req.reference is None for req in requests}
    if len(modes) > 1:
        raise ValueError("cannot mix QE and reference-based requests in one batch")


# --- surrogate ---------------------------------------------------------

NGRAM_ORDERS = (1, 2, 3, 4)

# Per n: the character n-gram counts of a text and their total.
Profile = list[tuple[Counter, int]]


def _ngram_profile(text: str) -> Profile:
    """Character n-gram counts for n = 1..4, counted at C level."""
    profile = []
    for n in NGRAM_ORDERS:
        grams = text if n == 1 else map("".join, zip(*(text[i:] for i in range(n))))
        profile.append((Counter(grams), max(len(text) - n + 1, 0)))
    return profile


def _overlap(a: Counter, b: Counter) -> int:
    """Multiset intersection size, iterating over the smaller side."""
    if len(b) < len(a):
        a, b = b, a
    return sum(map(min, a.values(), map(b.get, a, repeat(0))))


def _profile_similarity(a: Profile, b: Profile) -> float:
    """Mean char n-gram F1 for n = 1..4, skipping orders absent on both sides.

    All counting is integer; the division and fsum are the only float
    steps, in order n = 1..4, so equal inputs give bit-identical scores.
    """
    values = []
    for (grams_a, total_a), (grams_b, total_b) in zip(a, b):
        if not total_a and not total_b:
            continue
        if not total_a or not total_b:
            values.append(0.0)
        else:
            values.append(2.0 * _overlap(grams_a, grams_b) / (total_a + total_b))
    if not values:
        return 0.0
    return math.fsum(values) / len(values)


class _PairMemo:
    """Per-batch hypothesis↔other similarities, each computed once.

    The memo holds floats only. The one n-gram profile kept across
    calls is that of the latest hypothesis, since a segment's requests
    arrive together, so memory grows with the number of distinct pairs,
    not with the n-grams of every text in the batch.
    """

    def __init__(self) -> None:
        self._memo: dict[tuple[str, str], float] = {}
        self._hyp: str | None = None
        self._hyp_profile: Profile = []

    def __call__(self, hyp: str, other: str) -> float:
        key = (hyp, other)
        value = self._memo.get(key)
        if value is None:
            if hyp != self._hyp:
                self._hyp, self._hyp_profile = hyp, _ngram_profile(hyp)
            value = self._memo[key] = _profile_similarity(self._hyp_profile, _ngram_profile(other))
        return value


# Reference-mode weights of hypothesis↔reference and hypothesis↔source.
W_REF = 0.9
W_SRC = 0.1


def _blend(request: ScoreRequest, similarity: _PairMemo) -> float:
    if request.reference is None:
        return similarity(request.hypothesis, request.source)
    return W_REF * similarity(request.hypothesis, request.reference) + W_SRC * similarity(request.hypothesis, request.source)


def surrogate_score(request: ScoreRequest) -> float:
    """Deterministic lexical stand-in score in [0, 1].

    Reference mode blends hypothesis↔reference with hypothesis↔source
    similarity (the source term makes reference/source swaps visibly
    change the score); QE mode is hypothesis↔source only.
    """
    return _blend(request, _PairMemo())


class SurrogateBackend:
    """In-process lexical scorer; pure and deterministic.

    A batch runs on every CPU this process may use, in contiguous chunks
    (``map_chunks``), each with a pair memo of its own. A memo only saves
    work, so the scores are the same for every number of CPUs.
    """

    def score_batch(self, requests: Sequence[ScoreRequest]) -> list[float]:
        _check_homogeneous(requests)
        return map_chunks(_score_chunk, requests)


def _score_chunk(requests: Sequence[ScoreRequest]) -> list[float]:
    similarity = _PairMemo()
    return [_blend(req, similarity) for req in requests]


class PrecomputedBackend:
    """Serves stored scores keyed by batch position (= segment index).

    Index keys avoid any text-normalization ambiguity: request i of the
    batch is answered with the stored score for index i. The batch must
    have exactly one request per stored score; a longer or shorter
    table is misaligned and is an error, never truncated.
    """

    def __init__(self, table: ScoreTable | str | Path) -> None:
        if not isinstance(table, ScoreTable):
            table = read_score_table(table)
        self._scores = table.scores
        self._source = table.system_name

    def score_batch(self, requests: Sequence[ScoreRequest]) -> list[float]:
        _check_homogeneous(requests)
        if len(requests) > len(self._scores):
            raise ScorerError(
                f"precomputed table {self._source} has {len(self._scores)} scores but index {len(requests) - 1} was requested"
            )
        if len(requests) < len(self._scores):
            raise ScorerError(
                f"precomputed table {self._source} has {len(self._scores)} scores but only {len(requests)} were requested"
            )
        return list(self._scores)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _kill_group(proc: subprocess.Popen) -> None:
    """SIGKILL a child's whole process group, so its own children die with it."""
    if not hasattr(os, "killpg"):  # no process groups on this platform
        proc.kill()
        return
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # every member has already exited


# How often a shard's thread checks whether its shard was cancelled. It
# bounds the wait when a killed child's pipes are still held open by a
# grandchild that left the child's process group (e.g. through setsid).
_CANCEL_POLL_S = 0.1


class _Terminated(BaseException):
    """SIGTERM or SIGHUP arrived while external children were running."""


@contextmanager
def _unwind_on_termination():
    """Turns SIGTERM and SIGHUP into ``_Terminated`` inside the block.

    The children lead their own process groups, so a signal sent to this
    process or its group no longer reaches them. Raising lets the block's
    cleanup kill and reap them; on leaving the block the signal is sent
    again and ends the process as it would have without this handler.
    Only signals left at their default action are taken over (one ignored
    under nohup stays ignored), and only from the main thread, the one
    place where handlers can be set.
    """
    signums = [getattr(signal, name) for name in ("SIGTERM", "SIGHUP") if hasattr(signal, name)]
    if threading.current_thread() is not threading.main_thread():
        signums = []
    received: list[int] = []

    def unwind(signum, frame):
        if not received:  # a repeated signal must not interrupt the cleanup
            received.append(signum)
            raise _Terminated

    taken = [signum for signum in signums if signal.getsignal(signum) is signal.SIG_DFL]
    for signum in taken:
        signal.signal(signum, unwind)
    try:
        yield
    except _Terminated:
        pass
    finally:
        for signum in taken:
            signal.signal(signum, signal.SIG_DFL)
    if received:
        os.kill(os.getpid(), received[0])
        raise SystemExit(128 + received[0])  # not reached where the default action ends the process


# Fewest items worth a chunk of their own. Forking, feeding and reaping a
# worker takes 3-5 ms; two chunks first beat one at 80-100 surrogate
# requests or language IDs of 70-character segments on a 2-core host.
_MIN_CHUNK = 50
# Chunks per process. Past its first chunk each process takes the next
# unclaimed one, so a process that gets less CPU time than the others (a
# busy neighbour on its core) works fewer chunks instead of leaving the
# batch to wait on the last of a fixed share.
_CHUNKS_PER_PROCESS = 8
# Chunk numbers are one byte each in the queue, and all of them fit into
# a pipe at once: POSIX promises at least 512 bytes.
_MAX_CHUNKS = 256


def map_chunks(work: Callable[[Sequence], list], items: Sequence) -> list:
    """``work(items)``, computed over contiguous chunks on every usable CPU.

    ``work`` maps a chunk of items to a list of one result per item, the
    same in any process; it is never pickled, only its results are. The
    batch is worked by K = min(usable CPUs, len(items) // ``_MIN_CHUNK``)
    processes: this one and K - 1 forked workers. The items are split into
    up to ``_CHUNKS_PER_PROCESS`` contiguous chunks per process; process j
    works chunk j, and then each takes the lowest chunk no process has
    taken yet from a queue, until none is left. The workers' results come
    back pickled over pipes and all are joined in chunk order, so the
    result depends neither on K nor on which process worked which chunk.
    The whole batch runs here when K < 2, where there is no ``os.fork``,
    and while another thread is alive, since a forked child would inherit
    the locks that thread may hold.

    A failing chunk fails the batch with the error of the earliest failing
    chunk, as a serial run would; a process whose chunk fails empties the
    queue, so no further chunk is started. An error that cannot be pickled
    comes back as a ``ScorerError`` with its message. Every worker is
    killed and reaped, and every pipe closed, before this returns or
    raises, including on ``KeyboardInterrupt`` and on SIGTERM or SIGHUP.
    """
    k = min(_usable_cpus(), len(items) // _MIN_CHUNK, _MAX_CHUNKS)
    if k < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return work(items)
    import pickle  # here: only a forking run pays for the import

    n = min(k * _CHUNKS_PER_PROCESS, len(items) // _MIN_CHUNK, _MAX_CHUNKS)
    bounds = [len(items) * i // n for i in range(n + 1)]
    chunks = [items[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    queue, queue_w = os.pipe()
    try:
        os.write(queue_w, bytes(range(k, n)))  # under 256 bytes: written whole
    finally:
        os.close(queue_w)
    workers: dict[int, BinaryIO] = {}  # pid -> the read end of its pipe, until reaped
    with _unwind_on_termination():
        try:
            for first in range(1, k):
                # no signal handler may run between the fork and the child's reset
                mask = signal.pthread_sigmask(signal.SIG_BLOCK, signal.valid_signals())
                try:
                    read_fd, write_fd = os.pipe()
                    pid = os.fork()
                    if pid == 0:
                        _work_in_worker(work, chunks, first, queue, write_fd, mask)
                    os.close(write_fd)
                    workers[pid] = open(read_fd, "rb")
                finally:
                    signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            done, failure = _work_claims(work, chunks, 0, queue)
            if failure is not None and failure[0] == 0:
                raise failure[1]  # the batch's first chunk: no error can come before it
            for pid, pipe in list(workers.items()):
                with pipe:
                    data = pipe.read()
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                del workers[pid]
                if status != 0:
                    raise ScorerError(f"worker process {pid} exited with status {status}")
                worker_done, worker_failure = pickle.loads(data)  # written by our own child
                done.update(worker_done)
                if worker_failure is not None and (failure is None or worker_failure[0] < failure[0]):
                    failure = worker_failure
            if failure is not None:
                raise failure[1]
            return [result for i in range(n) for result in done[i]]
        finally:
            for pid, pipe in workers.items():
                os.kill(pid, signal.SIGKILL)
                pipe.close()
                os.waitpid(pid, 0)
            os.close(queue)


def _work_claims(
    work: Callable[[Sequence], list], chunks: Sequence[Sequence], first: int, queue: int
) -> tuple[dict[int, list], tuple[int, Exception] | None]:
    """Works chunk ``first``, then each chunk taken from ``queue``.

    Returns the results by chunk number and the failing chunk's number and
    error, if one failed. After a failure the queue is emptied: chunks are
    taken in order, so every chunk before the failing one has been taken
    already, and no process starts another chunk.
    """
    done: dict[int, list] = {}
    i = first
    while True:
        try:
            done[i] = work(chunks[i])
        except Exception as exc:
            while os.read(queue, _MAX_CHUNKS):
                pass
            return done, (i, exc)
        claim = os.read(queue, 1)
        if not claim:
            return done, None
        i = claim[0]


def _work_in_worker(
    work: Callable[[Sequence], list], chunks: Sequence[Sequence], first: int, queue: int, write_fd: int, mask
) -> NoReturn:
    """Runs in a forked worker: writes the pickled outcome of its chunks.

    The worker leaves only through ``os._exit``, so it never returns into
    its parent's stack, runs no atexit hook and flushes no stdio buffer
    it inherited. It resets every Python signal handler it inherited, so
    SIGINT, SIGTERM and SIGHUP end it at once.
    """
    import pickle

    status = 1
    try:
        for signum in signal.valid_signals():
            if callable(signal.getsignal(signum)):
                signal.signal(signum, signal.SIG_DFL)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        done, failure = _work_claims(work, chunks, first, queue)
        if failure is not None:
            i, exc = failure
            try:
                pickle.loads(pickle.dumps(exc, pickle.HIGHEST_PROTOCOL))  # an exception may pickle but fail to rebuild
            except Exception:
                failure = i, ScorerError(f"{type(exc).__name__}: {exc}")
        data = pickle.dumps((done, failure), pickle.HIGHEST_PROTOCOL)
        with open(write_fd, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


class ExternalBackend:
    """Scores via child processes speaking the wire protocol.

    Each batch (or each shard of ``shard_size`` requests) is served by
    one child process. Shards run concurrently, at most one child per
    CPU this process may use, started in request order and reassembled
    in it, so results do not depend on scheduling. Any shortfall in a
    child's output is an error — never a silent truncation. A failing
    shard stops further shards from starting and kills those after it;
    the error raised is that of the earliest failing shard, as a serial
    run would give. A child still running ``timeout`` seconds after it
    started is killed and its shard fails; with no timeout the backend
    waits for as long as it takes.

    Each child leads its own process group, and every kill (timeout,
    failed sibling, any exception leaving ``score_batch`` such as
    ``KeyboardInterrupt``, or SIGTERM or SIGHUP to this process) goes to
    the whole group, so grandchildren of a wrapper such as ``sh -c`` die
    too. Every child is reaped before ``score_batch`` returns; a killed
    child's pipes are closed without waiting for a grandchild that left
    the group to close its copies.
    """

    def __init__(self, command: Sequence[str], shard_size: int | None = None, timeout: float | None = None) -> None:
        if not command:
            raise ValueError("external backend needs a non-empty command")
        if shard_size is not None and shard_size < 1:
            raise ValueError("shard_size must be at least 1")
        if timeout is not None and not (timeout > 0 and math.isfinite(timeout)):
            raise ValueError("timeout must be positive and finite")
        self.command = tuple(command)
        self.shard_size = shard_size
        self.timeout = timeout

    def _finish_shard(self, proc: subprocess.Popen, count: int, start: int, cancelled: threading.Event) -> list[float]:
        """Collects a spawned child's answers for its ``count`` requests, reaps it and parses them."""
        span = f"requests {start}..{start + count - 1}"
        deadline = None if self.timeout is None else time.monotonic() + self.timeout
        try:
            while True:
                wait_s = _CANCEL_POLL_S if deadline is None else min(_CANCEL_POLL_S, deadline - time.monotonic())
                try:  # a repeated communicate resumes reading where the last one stopped
                    stdout, stderr = proc.communicate(timeout=max(wait_s, 0.0))
                    break
                except subprocess.TimeoutExpired:
                    pass
                if cancelled.is_set():
                    raise ScorerError(f"external scorer for {span} was killed after another shard failed")
                if deadline is not None and time.monotonic() >= deadline:
                    raise ScorerError(
                        f"external scorer for {span} did not finish within {self.timeout:g} s and was killed"
                    )
        finally:
            if proc.returncode is None:  # cancelled, timed out or interrupted: end the whole group
                _kill_group(proc)
                proc.wait()
                proc.stdout.close()
                proc.stderr.close()
        if proc.returncode != 0:
            message = stderr.decode("utf-8", errors="replace").strip()
            detail = f": {message}" if message else ""
            raise ScorerError(f"external scorer for {span} exited with status {proc.returncode}{detail}")
        try:
            out_lines = stdout.decode("utf-8").split("\n")
        except UnicodeDecodeError as exc:
            raise ScorerError(f"external scorer output for {span} is not valid UTF-8 ({exc.reason})") from None
        if out_lines and out_lines[-1] == "":
            out_lines.pop()
        if len(out_lines) != count:
            raise ScorerError(f"external scorer for {span} answered {len(out_lines)} lines for {count} requests")
        scores: list[float] = []
        # number lines across the whole batch, as an unsharded run would
        for lineno, line in enumerate(out_lines, start=start + 1):
            try:
                score = float(line.strip())
            except ValueError:
                score = None
            if score is None or "_" in line:  # float() also accepts digit groups such as 1_0
                raise ScorerError(f"external scorer output line {lineno} is not a number: {line!r}")
            if not math.isfinite(score):
                raise ScorerError(f"external scorer output line {lineno} is not finite: {line!r}")
            scores.append(score)
        return scores

    def score_batch(self, requests: Sequence[ScoreRequest]) -> list[float]:
        _check_homogeneous(requests)
        lines = [format_request_line(req) for req in requests]
        if not lines:
            return []
        from concurrent.futures import ThreadPoolExecutor, wait  # here: CLI start-up does not pay for it

        size = self.shard_size or len(lines)
        starts = range(0, len(lines), size)
        running: dict[int, threading.Event] = {}  # cancels the shards with a child in flight
        lock = threading.Lock()  # guards running and stopped
        stopped = False

        def stop(after: int) -> None:
            """Starts no further shard and cancels every running shard after ``after``."""
            nonlocal stopped
            stopped = True
            for start, cancelled in running.items():
                if start > after:
                    cancelled.set()

        def run_shard(start: int) -> list[float] | None:
            shard = lines[start : start + size]
            try:
                # The child reads its shard from a file, not a pipe: nothing has to
                # be written while it runs, so waiting for it can stop at any time.
                with tempfile.TemporaryFile() as stdin:
                    stdin.write("".join(line + "\n" for line in shard).encode("utf-8"))
                    stdin.seek(0)
                    with lock:  # spawning under the lock: no child starts after a failure
                        if stopped:
                            return None
                        try:
                            proc = subprocess.Popen(
                                self.command,
                                stdin=stdin,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE,
                                start_new_session=True,
                            )
                        except OSError as exc:
                            raise ScorerError(f"could not run external scorer {self.command[0]!r}: {exc}") from None
                        cancelled = running[start] = threading.Event()
                return self._finish_shard(proc, len(shard), start, cancelled)
            except BaseException:
                with lock:
                    stop(start)
                raise
            finally:
                with lock:
                    running.pop(start, None)

        with _unwind_on_termination(), ThreadPoolExecutor(max_workers=min(_usable_cpus(), len(starts))) as pool:
            try:
                shards = [pool.submit(run_shard, start) for start in starts]
                wait(shards)
            finally:  # after an exception such as KeyboardInterrupt: cancel every child in flight
                with lock:
                    stop(-1)
        # leaving the pool joined its threads, so every child has been reaped
        for shard in shards:
            error = shard.exception()
            if error is not None:  # the earliest failure, as a serial run would report
                raise error
        return [score for shard in shards for score in shard.result()]


def requests_from_evalset(evalset: EvalSet) -> list[ScoreRequest]:
    """Plain single-pass requests: first reference if any, else QE."""
    if evalset.n_references > 1:
        raise ValueError("evalset has multiple references; pick a multi-reference strategy instead of plain scoring")
    return [
        ScoreRequest(
            source=seg.source,
            hypothesis=seg.hypothesis,
            reference=seg.references[0] if seg.references else None,
        )
        for seg in evalset.segments
    ]


def score_evalset(backend, evalset: EvalSet) -> ScoreTable:
    scores = backend.score_batch(requests_from_evalset(evalset))
    return ScoreTable(system_name=evalset.system_name, scores=tuple(scores))
