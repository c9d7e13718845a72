"""Pluggable segment scorers.

Two backends share one batch interface: an external process spoken to
over a bit-exact line-oriented wire protocol, and a built-in
deterministic lexical surrogate for tests and demos. Real neural
metrics stay out of process by design; this module only moves triples
in and scores out. (Precomputed scores are not a backend: they are a
score table, read and checked by the CLI.)
"""

from __future__ import annotations

import math
import operator
import os
import signal
import threading
import time
from bisect import bisect_right
from collections import Counter
from contextlib import contextmanager, suppress
from functools import cache, lru_cache
from typing import TYPE_CHECKING, BinaryIO, Callable, NoReturn, Sequence

from .evalset import EvalSet, Record, ScoreTable, parse_score, split_lines

if TYPE_CHECKING:
    import subprocess


class ScorerError(ValueError):
    """A backend failed to produce one finite score per request."""


class ScoreRequest(Record):
    """One (source, hypothesis, reference) triple; reference None = QE."""

    __slots__ = ("source", "hypothesis", "reference")
    source: str
    hypothesis: str
    reference: str | None

    def __init__(self, source: str, hypothesis: str, reference: str | None = None) -> None:
        super().__init__(source, hypothesis, reference)


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


def char_ngrams(text: str, orders: Sequence[int]) -> list[str]:
    """The character n-grams of ``text`` for each n in the ascending
    ``orders``, order by order, each order's in text order.

    Each n-gram is one of order n - 1 with the next character added, so
    no n-gram is joined from its characters one by one.
    """
    grams: Sequence[str] = text
    found: list[str] = []
    for n in range(1, orders[-1] + 1):
        if n > 1:
            grams = list(map(operator.add, grams, text[n - 1 :]))
        if n in orders:
            found += grams
    return found


def _similarity(hyp: str, hyp_grams: Counter, other: str) -> float:
    """Mean char n-gram F1 of ``hyp`` and ``other`` over NGRAM_ORDERS,
    skipping orders absent on both sides; ``hyp_grams`` counts hyp's n-grams.

    Only the n-grams of ``other`` that ``hyp`` has too are counted, as no
    other one can add to an overlap. They arrive order by order, so the
    shared n-grams of each length form one run of keys. All counting is
    integer; the division and fsum are the only float steps, in order
    n = 1..4, so equal inputs give bit-identical scores.
    """
    shared = Counter(filter(hyp_grams.__contains__, char_ngrams(other, NGRAM_ORDERS)))
    keys, counts = list(shared), list(shared.values())
    values = []
    hi = 0
    for n in NGRAM_ORDERS:
        total = max(len(hyp) - n + 1, 0) + max(len(other) - n + 1, 0)
        lo, hi = hi, bisect_right(keys, n, hi, key=len)
        if total:
            values.append(2.0 * sum(map(min, counts[lo:hi], map(hyp_grams.__getitem__, keys[lo:hi]))) / total)
    if not values:
        return 0.0
    return math.fsum(values) / len(values)


# Reference-mode weights of hypothesis↔reference and hypothesis↔source
# similarity; the source term makes a swap of reference and source
# visibly change the score. QE mode is hypothesis↔source only.
W_REF = 0.9
W_SRC = 0.1


def _blend(request: ScoreRequest, similarity: Callable[[str, str], float]) -> float:
    if request.reference is None:
        return similarity(request.hypothesis, request.source)
    return W_REF * similarity(request.hypothesis, request.reference) + W_SRC * similarity(request.hypothesis, request.source)


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
    # Each (hypothesis, other text) similarity is computed once per chunk and
    # kept as a float. The only n-gram counts kept across requests are the
    # latest hypothesis's, since a segment's requests arrive together, so
    # memory grows with the distinct pairs, not with every text's n-grams.
    hyp_grams = lru_cache(maxsize=1)(lambda hyp: Counter(char_ngrams(hyp, NGRAM_ORDERS)))
    similarity = cache(lambda hyp, other: _similarity(hyp, hyp_grams(hyp), other))
    return [_blend(req, similarity) for req in requests]


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# While a running child has no pidfd to wait on, the longest the calling
# thread waits between two checks of its running children; each check is
# one non-blocking wait per child.
_POLL_S = 0.002
# The longest single wait select.poll accepts, in ms (about 24.8 days); a
# longer timeout is waited out in several.
_POLL_MAX_MS = 2**31 - 1


class _Child(Record):
    """A running external scorer: its process, the files holding its
    stdout and stderr, its deadline, and its pidfd, which is readable once
    it exits (None where ``os.pidfd_open`` is missing or refused)."""

    __slots__ = ("proc", "stdout", "stderr", "deadline", "pidfd")

    def __init__(self, proc: subprocess.Popen, stdout: BinaryIO, stderr: BinaryIO, deadline: float) -> None:
        try:
            pidfd = os.pidfd_open(proc.pid)
        except (AttributeError, OSError):
            pidfd = None
        super().__init__(proc, stdout, stderr, deadline, pidfd)


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
    place where handlers can be set. Both signals exist wherever a caller
    gets here: on a platform with ``os.fork`` or with process groups.
    """
    signums = [signal.SIGTERM, signal.SIGHUP]
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
# worker takes 3-5 ms. On a 2-core host, two chunks first beat one at
# 40-60 surrogate requests of 70-character segments in a 16 MB process
# and at 50-80 in a 39 MB one, and at 50-60 language IDs of such
# segments in an 18 MB process and 80-120 in a 40 MB one. So the
# smallest batch that forks (100 items) gains, language IDs in a large
# process least (4 of 6 passes).
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

    The calling thread runs the whole pool. Each wait is one
    ``select.poll`` on the running children's pidfds, until one of them
    exits or its deadline comes; while a child without a pidfd runs (the
    platform gives none, or refused it), the wait lasts at most
    ``_POLL_S`` seconds. A child's stdin, stdout and stderr are
    unlinked temporary files, not pipes, so a child is done when it has
    exited, and a grandchild that left the child's process group (e.g.
    through setsid) is never waited for, also when the child succeeds.
    Each child leads its own process group, and every kill (timeout,
    failed earlier shard, any exception leaving ``score_batch`` such as
    ``KeyboardInterrupt``, or SIGTERM or SIGHUP to this process) goes to
    the whole group, so grandchildren of a wrapper such as ``sh -c`` die
    too. Every child is reaped before ``score_batch`` returns. A platform
    without process groups or ``select.poll`` is refused by the
    constructor, before any child starts.
    """

    def __init__(self, command: Sequence[str], shard_size: int | None = None, timeout: float | None = None) -> None:
        import select  # here and in score_batch: only a run with an external scorer needs it

        if not (hasattr(os, "killpg") and hasattr(select, "poll")):
            raise ValueError("an external backend needs process groups (os.killpg) and select.poll, which this platform lacks")
        if not command:
            raise ValueError("external backend needs a non-empty command")
        if shard_size is not None and shard_size < 1:
            raise ValueError(f"shard size must be at least 1, got {shard_size}")
        if timeout is not None and not (timeout > 0 and math.isfinite(timeout)):
            raise ValueError(f"timeout must be positive and finite, got {timeout}")
        self.command = tuple(command)
        self.shard_size = shard_size
        self.timeout = timeout

    def _answers(self, status: int, stdout: BinaryIO, stderr: BinaryIO, count: int, start: int) -> list[float]:
        """Parses the answers of an exited child to its ``count`` requests from the files it wrote."""
        span = f"requests {start}..{start + count - 1}"
        if status != 0:
            stderr.seek(0)  # the child's writes moved the offset it shares with this file
            message = stderr.read().decode("utf-8", errors="replace").strip()
            detail = f": {message}" if message else ""
            raise ScorerError(f"external scorer for {span} exited with status {status}{detail}")
        stdout.seek(0)
        try:
            out_lines = split_lines(stdout.read().decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise ScorerError(f"external scorer output for {span} is not valid UTF-8 ({exc.reason})") from None
        if len(out_lines) != count:
            raise ScorerError(f"external scorer for {span} answered {len(out_lines)} lines for {count} requests")
        scores: list[float] = []
        # number lines across the whole batch, as an unsharded run would
        for lineno, line in enumerate(out_lines, start=start + 1):
            try:
                scores.append(parse_score(line))
            except ValueError as exc:
                raise ScorerError(f"external scorer output line {lineno} {exc}: {line!r}") from None
        return scores

    def score_batch(self, requests: Sequence[ScoreRequest]) -> list[float]:
        import select  # here, with the two below: only a run with an external scorer needs them
        import subprocess
        import tempfile

        _check_homogeneous(requests)
        lines = [format_request_line(req) for req in requests]
        if not lines:
            return []
        size = self.shard_size or len(lines)
        starts = range(0, len(lines), size)
        slots = min(_usable_cpus(), len(starts))
        unstarted = iter(starts)
        running: dict[int, _Child] = {}  # by a shard's first request
        results: dict[int, list[float]] = {}
        failures: dict[int, ScorerError] = {}

        def end(start: int) -> None:
            """Kills the shard's child's whole process group if the child still
            runs, so its own children die with it; reaps the child, and closes
            its files and its pidfd."""
            child = running[start]
            if child.proc.returncode is None:
                with suppress(ProcessLookupError):  # every member has already exited
                    os.killpg(child.proc.pid, signal.SIGKILL)
            child.proc.wait()
            del running[start]
            child.stdout.close()
            child.stderr.close()
            if child.pidfd is not None:
                os.close(child.pidfd)

        with _unwind_on_termination():
            try:
                while True:
                    while len(running) < slots and not failures and (start := next(unstarted, None)) is not None:
                        with tempfile.TemporaryFile() as stdin:
                            stdin.write("".join(line + "\n" for line in lines[start : start + size]).encode("utf-8"))
                            stdin.seek(0)
                            stdout, stderr = tempfile.TemporaryFile(), tempfile.TemporaryFile()
                            deadline = math.inf if self.timeout is None else time.monotonic() + self.timeout
                            try:  # stored as it returns: the cleanup below must see every child
                                running[start] = _Child(subprocess.Popen(
                                    self.command, stdin=stdin, stdout=stdout, stderr=stderr, start_new_session=True
                                ), stdout, stderr, deadline)
                            except OSError as exc:
                                stdout.close()
                                stderr.close()
                                failures[start] = ScorerError(f"could not run external scorer {self.command[0]!r}: {exc}")
                    if not running:
                        break
                    exits = select.poll()  # not select.select, which fails on descriptors past 1023
                    for child in running.values():
                        if child.pidfd is not None:
                            exits.register(child.pidfd, select.POLLIN)
                    # until a child with a pidfd exits or its deadline comes; one without is checked every _POLL_S
                    now = time.monotonic()
                    wait = min(child.deadline - now if child.pidfd is not None else _POLL_S for child in running.values())
                    exits.poll(None if wait == math.inf else min(max(wait, 0.0) * 1000, _POLL_MAX_MS))
                    for start, child in list(running.items()):
                        count = min(size, len(lines) - start)
                        if child.proc.poll() is not None:
                            try:
                                results[start] = self._answers(child.proc.returncode, child.stdout, child.stderr, count, start)
                            except ScorerError as exc:
                                failures[start] = exc
                        elif not failures or min(failures) > start:  # else an earlier shard failed: this result is unusable
                            if time.monotonic() < child.deadline:
                                continue
                            failures[start] = ScorerError(
                                f"external scorer for requests {start}..{start + count - 1}"
                                f" did not finish within {self.timeout:g} s and was killed"
                            )
                        end(start)
            finally:  # after an exception such as KeyboardInterrupt: end every child in flight
                for start in list(running):
                    end(start)
        if failures:
            raise failures[min(failures)]  # the earliest failure, as a serial run would report
        return [score for start in starts for score in results[start]]


def score_evalset(backend, evalset: EvalSet) -> ScoreTable:
    """Plain single-pass scoring: one request per segment, against its
    reference if it has one, else reference-free (QE)."""
    if evalset.n_references > 1:
        raise ValueError("evalset has multiple references; pick a multi-reference strategy instead of plain scoring")
    requests = [ScoreRequest(seg.source, seg.hypothesis, *seg.references) for seg in evalset.segments]
    return ScoreTable(_score_each(backend, requests))


def _score_each(backend, requests: Sequence[ScoreRequest]) -> list[float]:
    """``backend.score_batch(requests)``, which must hold one score per request."""
    scores = backend.score_batch(requests)
    if len(scores) != len(requests):
        raise ScorerError(f"backend answered {len(scores)} scores for {len(requests)} requests")
    return scores
