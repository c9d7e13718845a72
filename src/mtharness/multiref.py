"""Multi-reference scoring strategies: max, avg, and six-pass agg.

max and avg score the hypothesis against each reference separately and
take the maximum or mean. agg runs six passes that permute the source
and the two references through the input slots and returns the mean
discounted by the spread, mu * (1 - sigma).
"""

from __future__ import annotations

import math
from typing import Sequence

from .evalset import EvalSet, ScoreTable
from .scorer import ScoreRequest, _score_each


def _agg_requests(src: str, hyp: str, ref: str, altref: str) -> list[ScoreRequest]:
    # the six (source, reference) arrangements, in fixed order
    return [
        ScoreRequest(src, hyp, ref),
        ScoreRequest(ref, hyp, src),
        ScoreRequest(src, hyp, altref),
        ScoreRequest(altref, hyp, src),
        ScoreRequest(ref, hyp, altref),
        ScoreRequest(altref, hyp, ref),
    ]


def _combine_agg(scores: Sequence[float]) -> float:
    if max(scores) == min(scores):
        # zero spread: mu * (1 - 0) is the common value, exactly
        return scores[0]
    try:
        mu = math.fsum(scores) / len(scores)
        variance = math.fsum((s - mu) ** 2 for s in scores) / len(scores)
    except OverflowError:  # float ** raises one whose message is its errno
        raise OverflowError(f"agg: the mean or variance of the scores {', '.join(map(repr, scores))} overflows") from None
    return mu * (1.0 - math.sqrt(variance))


# How each strategy combines one segment's per-request scores.
_COMBINERS = {
    "max": max,
    "avg": lambda scores: math.fsum(scores) / len(scores),
    "agg": _combine_agg,
}
STRATEGIES = tuple(_COMBINERS)


def multiref_agg(backend, src: str, hyp: str, ref: str, altref: str | None) -> float:
    """Six-pass aggregate over two references.

    Scores [src,hyp,ref], [ref,hyp,src], [src,hyp,altref],
    [altref,hyp,src], [ref,hyp,altref] and [altref,hyp,ref], then
    returns mu * (1 - sigma) with sigma the population standard
    deviation of the six scores. Symmetric in ref and altref.
    """
    if altref is None:
        raise ValueError("agg requires exactly two references")
    return _combine_agg(_score_each(backend, _agg_requests(src, hyp, ref, altref)))


def evaluate_system_multiref(strategy: str, evalset: EvalSet, backend) -> ScoreTable:
    """Per-segment strategy scores for a whole evaluation set.

    All passes for all segments go to the backend as one batch (sliced
    back per segment afterwards), so external scorers are spawned once,
    not per segment.
    """
    combine = _COMBINERS.get(strategy)
    if combine is None:
        raise ValueError(f"unknown multi-reference strategy {strategy!r}; pick one of {', '.join(STRATEGIES)}")
    if len(evalset) > 0:  # an empty evalset has no reference count: its n_references reads 0
        if strategy == "agg" and evalset.n_references != 2:
            raise ValueError("agg requires exactly two references")
        if evalset.n_references < 1:
            raise ValueError("multi-reference scoring needs at least one reference")
    per_segment = [
        _agg_requests(seg.source, seg.hypothesis, *seg.references)
        if strategy == "agg"
        else [ScoreRequest(seg.source, seg.hypothesis, ref) for ref in seg.references]
        for seg in evalset.segments
    ]
    flat = iter(_score_each(backend, [req for requests in per_segment for req in requests]))
    scores = [combine([next(flat) for _ in requests]) for requests in per_segment]
    return ScoreTable(scores)
