"""Reasoning-output evaluation: category accuracy, ROUGE-L and a
simplified exact-match METEOR ("meteor_lite", no stemming or synonyms, so
its absolute values are not comparable to resource-backed METEOR scores).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

from .dataset import DistortionCategory, RegionAnnotation

_TOKEN_RE = re.compile(r"[a-z0-9]+")


@dataclass(frozen=True)
class Diagnosis:
    region_id: str
    category: DistortionCategory
    description: str
    severity: float

    def __post_init__(self):
        if not self.description:
            raise ValueError("description must be non-empty")
        if not 0.0 <= self.severity <= 1.0:
            raise ValueError("severity must lie in [0, 1]")


@dataclass(frozen=True, slots=True)
class ReasoningReport:
    accuracy: float
    rouge_l: float
    meteor_lite: float

    def as_tsv(self) -> str:
        return "accuracy\trouge_l\tmeteor_lite\n%.6f\t%.6f\t%.6f" % (
            self.accuracy,
            self.rouge_l,
            self.meteor_lite,
        )


def tokenize(text: str) -> list[str]:
    """Lowercase and split on non-alphanumerics."""
    return _TOKEN_RE.findall(text.lower())


def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    # Allison & Dix's bit-vector LCS in Hyyro's form, one len(b)-bit
    # integer step per token of a: bit j of v is clear iff the LCS of the
    # part of a read so far with b[:j+1] is one longer than with b[:j]
    positions: dict[str, int] = {}
    for j, tok in enumerate(b):
        positions[tok] = positions.get(tok, 0) | 1 << j
    full = (1 << len(b)) - 1
    v = full
    for tok in a:
        m = positions.get(tok)
        if m is not None:
            u = v & m
            v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def _nonempty_tokens(candidate: str, reference: str) -> tuple[list[str], list[str]]:
    cand = tokenize(candidate)
    ref = tokenize(reference)
    if not cand or not ref:
        raise ValueError("empty tokenization")
    return cand, ref


def rouge_l(candidate: str, reference: str) -> float:
    """LCS F-measure: 2PR/(P+R) with P = LCS/|cand|, R = LCS/|ref|."""
    return _rouge_l(*_nonempty_tokens(candidate, reference))


def _rouge_l(cand: Sequence[str], ref: Sequence[str]) -> float:
    lcs = _lcs_length(cand, ref)
    if lcs == 0:
        return 0.0
    p = lcs / len(cand)
    r = lcs / len(ref)
    return 2.0 * p * r / (p + r)


def meteor_lite(candidate: str, reference: str) -> float:
    """Exact-unigram METEOR: greedy left-to-right alignment (each reference
    token used at most once), F = 10PR/(R+9P), fragmentation penalty
    0.5*(chunks/matches)^3."""
    return _meteor_lite(*_nonempty_tokens(candidate, reference))


def _meteor_lite(cand: Sequence[str], ref: Sequence[str]) -> float:
    # each token's reference positions, highest first, so pop() hands out
    # its first unused one: the greedy left-to-right alignment, in
    # O(len(cand) + len(ref))
    unused: dict[str, list[int]] = {}
    for j in range(len(ref) - 1, -1, -1):
        unused.setdefault(ref[j], []).append(j)
    # a chunk is a maximal run of matched candidate tokens whose reference
    # positions are consecutive and increasing
    matches = chunks = 0
    prev = None
    for tok in cand:
        stack = unused.get(tok)
        if not stack:
            prev = None
            continue
        j = stack.pop()
        matches += 1
        if prev is None or j != prev + 1:
            chunks += 1
        prev = j
    if matches == 0:
        return 0.0
    p = matches / len(cand)
    r = matches / len(ref)
    f = 10.0 * p * r / (r + 9.0 * p)
    penalty = 0.5 * (chunks / matches) ** 3
    return f * (1.0 - penalty)


def _by_region_id(items: Sequence, side: str) -> dict:
    by_id = {}
    for item in items:
        if item.region_id in by_id:
            raise ValueError("duplicate %s region id %r" % (side, item.region_id))
        by_id[item.region_id] = item
    return by_id


def _matched_pairs(
    preds: Sequence[Diagnosis], truths: Sequence[RegionAnnotation]
) -> list[tuple[Diagnosis, RegionAnnotation]]:
    """Each prediction with the truth region of the same region_id. An id
    may appear once among the predictions and once among the truths;
    truths without an id match nothing."""
    if not preds:
        raise ValueError("no predictions")
    truth_by_id = _by_region_id([t for t in truths if t.region_id is not None], "truth")
    pairs = []
    for region_id, pred in _by_region_id(preds, "prediction").items():
        truth = truth_by_id.get(region_id)
        if truth is None:
            raise ValueError("no truth region with id %r" % region_id)
        pairs.append((pred, truth))
    return pairs


def _accuracy(pairs: Sequence[tuple[Diagnosis, RegionAnnotation]]) -> float:
    return sum(pred.category is truth.category for pred, truth in pairs) / len(pairs)


def _description_tokens(text: str, side: str, region_id: str) -> list[str]:
    tokens = tokenize(text)
    if not tokens:
        raise ValueError(
            "region %r: %s description %r has no a-z or 0-9 token" % (region_id, side, text)
        )
    return tokens


def category_accuracy(preds: Sequence[Diagnosis], truths: Sequence[RegionAnnotation]) -> float:
    """Fraction of predictions whose category matches the truth region with
    the same region_id."""
    return _accuracy(_matched_pairs(preds, truths))


def evaluate_reasoning(
    preds: Sequence[Diagnosis], truths: Sequence[RegionAnnotation]
) -> ReasoningReport:
    """Accuracy over matched pairs; ROUGE-L / METEOR-lite means over pairs.
    Each description is tokenized once, and one with no token is an error
    naming its region and side."""
    pairs = _matched_pairs(preds, truths)
    rouges = []
    meteors = []
    for pred, truth in pairs:
        cand = _description_tokens(pred.description, "prediction", pred.region_id)
        ref = _description_tokens(truth.description, "truth", pred.region_id)
        rouges.append(_rouge_l(cand, ref))
        meteors.append(_meteor_lite(cand, ref))
    return ReasoningReport(
        accuracy=_accuracy(pairs),
        rouge_l=sum(rouges) / len(rouges),
        meteor_lite=sum(meteors) / len(meteors),
    )
