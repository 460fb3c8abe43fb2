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
    # classic O(len(a)*len(b)) dynamic program, rolling rows
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[-1]))
        prev = cur
    return prev[-1]


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
    used = [False] * len(ref)
    align: list[int | None] = []
    for tok in cand:
        hit = None
        for j, rtok in enumerate(ref):
            if not used[j] and rtok == tok:
                hit = j
                used[j] = True
                break
        align.append(hit)
    matches = sum(1 for a in align if a is not None)
    if matches == 0:
        return 0.0
    # a chunk is a maximal run of matched candidate tokens whose reference
    # positions are consecutive and increasing
    chunks = 0
    prev = None
    for a in align:
        if a is None:
            prev = None
            continue
        if prev is None or a != prev + 1:
            chunks += 1
        prev = a
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
