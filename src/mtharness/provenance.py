"""Provenance: scoring signatures, model citations, reporting checks.

The signature is a single pipe-separated line that pins down how scores
were produced (interpreter, scoring framework, numeric precision,
model). Citations come from a small database shipped as a data file;
looking up an unknown model is a hard error with suggestions — never a
silent fallback to the base-framework paper.
"""

from __future__ import annotations

import re
from functools import lru_cache
from pathlib import Path

from .evalset import Record

PRECISIONS = ("fp32", "fp16", "qint8", "unk")
UNKNOWN = "unk"

_CITATIONS_PATH = Path(__file__).parent / "data" / "citations.json"

# All reporting patterns in one alternation so overlapping hits resolve
# leftmost-first (e.g. "wmt22-comet-da" yields "wmt22-comet" once, not
# an extra "comet-da" from inside it).
_REPORTING_RE = re.compile(
    r"xcomet-|wmt(?:20|21|22|23)-comet|wmt-da-estimator|comet[ -](?:da|20|21|22|23)",
    re.IGNORECASE,
)


class Signature(Record):
    """The four provenance fields behind one scoring run.

    "Python" and "Comet" in the rendered form are fixed wire-format
    tokens, regardless of what produced the scores.
    """

    __slots__ = ("model", "interpreter_version", "framework_version", "precision")
    model: str
    interpreter_version: str
    framework_version: str
    precision: str

    def __init__(
        self,
        model: str,
        interpreter_version: str = UNKNOWN,
        framework_version: str = UNKNOWN,
        precision: str = UNKNOWN,
    ) -> None:
        if not model:
            raise ValueError("signature needs a non-empty model identifier")
        for name, value in (("interpreter_version", interpreter_version), ("framework_version", framework_version)):
            if not value:
                raise ValueError(f"signature field {name} must not be empty; {UNKNOWN!r} marks an unknown version")
        if precision not in PRECISIONS:
            raise ValueError(f"precision must be one of {', '.join(PRECISIONS)}, got {precision!r}")
        for name, value in zip(self._fields, (model, interpreter_version, framework_version, precision)):
            if "|" in value:
                raise ValueError(f"signature field {name} must not contain '|'")
        super().__init__(model, interpreter_version, framework_version, precision)

    def render(self) -> str:
        return f"Python{self.interpreter_version}|Comet{self.framework_version}|{self.precision}|{self.model}"


def make_signature(
    model: str,
    interpreter_version: str = UNKNOWN,
    framework_version: str = UNKNOWN,
    precision: str = UNKNOWN,
) -> str:
    return Signature(model, interpreter_version, framework_version, precision).render()


def parse_signature(text: str) -> Signature:
    parts = text.split("|")
    if len(parts) != 4:
        raise ValueError(f"signature must have exactly four |-separated fields, got {len(parts)}")
    interp, framework, precision, model = parts
    if not interp.startswith("Python") or not framework.startswith("Comet"):
        raise ValueError(f"malformed signature {text!r}")
    return Signature(
        model=model,
        interpreter_version=interp[len("Python") :],
        framework_version=framework[len("Comet") :],
        precision=precision,
    )


# --- citations ----------------------------------------------------------


class CitationRecord(Record):
    """The URL and BibTeX of one entry of the shipped citation database,
    answered for its key and each alias (its entries are checked by the
    tests, not on every lookup)."""

    __slots__ = ("url", "bibtex")
    url: str
    bibtex: str

    def __init__(self, url: str, bibtex: str) -> None:
        super().__init__(url, bibtex)


def _normalize(identifier: str) -> str:
    # organization prefix is optional; matching is case-insensitive
    return identifier.rsplit("/", 1)[-1].strip().lower()


@lru_cache(maxsize=1)
def _database() -> dict[str, CitationRecord]:
    import json  # here: only a citation lookup reads the database

    raw = json.loads(_CITATIONS_PATH.read_text(encoding="utf-8"))
    table: dict[str, CitationRecord] = {}
    for entry in raw["entries"]:
        record = CitationRecord(url=entry["url"], bibtex=entry["bibtex"])
        for name in [entry["key"], *entry.get("aliases", [])]:
            table[_normalize(name)] = record
    return table


def cite(model_identifier: str) -> CitationRecord:
    """Look up the citation record for a model identifier.

    Unknown identifiers raise, naming the three closest known keys by
    ``difflib``'s similarity ratio; the base-framework record is returned
    only when asked for explicitly.
    """
    name = _normalize(model_identifier)
    record = _database().get(name)
    if record is not None:
        return record
    from difflib import get_close_matches  # here: only an unknown name needs it

    nearest = get_close_matches(name, _database(), n=3, cutoff=0.0)
    raise KeyError(f"no citation for model {model_identifier!r}; nearest known keys: {', '.join(nearest)}")


def check_reporting(document_text: str) -> list[str]:
    """All substrings of the text that name a concrete scoring model."""
    return [match.group(0) for match in _REPORTING_RE.finditer(document_text)]
