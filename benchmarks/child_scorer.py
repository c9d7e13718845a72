"""External scorer for the benchmark: stdlib only, deterministic, cheap.

Reads the mtharness wire protocol on stdin (one request per line,
fields joined by TAB, with ``\\\\``, ``\\t`` and ``\\n`` escaped) and
prints one score per line: the Jaccard overlap of the character sets
of hypothesis and reference (or source, for two-field QE lines).

If the environment variable named by ``SPAWN_LOG_ENV`` is set, each
spawn appends one ``pid<TAB>bytes_read<TAB>lines`` line to that file,
so the benchmark counts spawns and wire bytes instead of inferring
them.
"""

from __future__ import annotations

import os
import sys

SPAWN_LOG_ENV = "MTHARNESS_BENCH_SPAWN_LOG"
_ESCAPES = {"\\": "\\", "t": "\t", "n": "\n"}


def unescape(field: str) -> str:
    out: list[str] = []
    chars = iter(field)
    for ch in chars:
        if ch == "\\":
            nxt = next(chars, "")
            if nxt not in _ESCAPES:
                raise ValueError(f"invalid wire escape \\{nxt}")
            ch = _ESCAPES[nxt]
        out.append(ch)
    return "".join(out)


def score(fields: list[str]) -> float:
    """Character-set Jaccard of the hypothesis and the last other field."""
    hyp, other = set(fields[1]), set(fields[-1])
    union = hyp | other
    return len(hyp & other) / len(union) if union else 0.0


def main() -> int:
    payload = sys.stdin.buffer.read()
    lines = payload.decode("utf-8").split("\n")
    if lines[-1] == "":
        lines.pop()
    scores = [score([unescape(field) for field in line.split("\t")]) for line in lines]
    sys.stdout.write("".join(f"{value!r}\n" for value in scores))
    log = os.environ.get(SPAWN_LOG_ENV)
    if log:
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()}\t{len(payload)}\t{len(lines)}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
