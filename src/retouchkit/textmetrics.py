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


@dataclass(frozen=True)
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


def rouge_l(candidate: str, reference: str) -> float:
    """LCS F-measure: 2PR/(P+R) with P = LCS/|cand|, R = LCS/|ref|."""
    cand = tokenize(candidate)
    ref = tokenize(reference)
    if not cand or not ref:
        raise ValueError("empty tokenization")
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
    cand = tokenize(candidate)
    ref = tokenize(reference)
    if not cand or not ref:
        raise ValueError("empty tokenization")
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


def category_accuracy(preds: Sequence[Diagnosis], truths: Sequence[RegionAnnotation]) -> float:
    """Fraction of predictions whose category matches the truth region with
    the same region_id."""
    truth_by_id = {t.region_id: t for t in truths if t.region_id is not None}
    if not preds:
        raise ValueError("no predictions")
    correct = 0
    for pred in preds:
        truth = truth_by_id.get(pred.region_id)
        if truth is None:
            raise ValueError("no truth region with id %r" % pred.region_id)
        if truth.category is pred.category:
            correct += 1
    return correct / len(preds)


def evaluate_reasoning(
    preds: Sequence[Diagnosis], truths: Sequence[RegionAnnotation]
) -> ReasoningReport:
    """Accuracy over matched pairs; ROUGE-L / METEOR-lite means over pairs."""
    truth_by_id = {t.region_id: t for t in truths if t.region_id is not None}
    if not preds:
        raise ValueError("no matched pairs")
    rouges = []
    meteors = []
    for pred in preds:
        truth = truth_by_id.get(pred.region_id)
        if truth is None:
            raise ValueError("no truth region with id %r" % pred.region_id)
        rouges.append(rouge_l(pred.description, truth.description))
        meteors.append(meteor_lite(pred.description, truth.description))
    return ReasoningReport(
        accuracy=category_accuracy(preds, truths),
        rouge_l=sum(rouges) / len(rouges),
        meteor_lite=sum(meteors) / len(meteors),
    )
