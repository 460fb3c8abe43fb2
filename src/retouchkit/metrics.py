"""Saliency evaluation metrics: AUC-Judd, NSS, CC, SIM, KLD.

Fixations are integer pixel coordinates (in this toolkit, annotated
distortion-region centers); density ground truth for CC/SIM/KLD is the
rasterized region mask, optionally Gaussian-blurred.
"""

from __future__ import annotations

import operator
from dataclasses import astuple, dataclass, fields
from typing import Iterable, Sequence

import numpy as np

from .saliency import SaliencyMap, _float64_pair, _kld_term


@dataclass(frozen=True)
class FixationSet:
    points: tuple[tuple[int, int], ...]  # (x, y) pixel coordinates

    def __init__(self, points: Iterable[tuple[int, int]]):
        # operator.index, so a float or a str coordinate is a TypeError
        xy = tuple((operator.index(x), operator.index(y)) for x, y in points)
        object.__setattr__(self, "points", xy)

    def __len__(self) -> int:
        return len(self.points)

    def validate_bounds(self, width: int, height: int) -> None:
        for x, y in self.points:
            if not (0 <= x < width and 0 <= y < height):
                raise ValueError("fixation (%d, %d) outside %dx%d map" % (x, y, width, height))


@dataclass(frozen=True, slots=True)
class MetricReport:
    auc_judd: float
    nss: float
    cc: float
    sim: float
    kld: float

    def as_tsv_row(self) -> str:
        return "\t".join("%.6f" % v for v in astuple(self))


TSV_HEADER = "\t".join(["image", *(f.name for f in fields(MetricReport))])


def cc(pred: SaliencyMap, truth: SaliencyMap) -> float:
    """Pearson correlation of the two pixel populations."""
    p, g = _float64_pair(pred, truth)
    pc = p - p.mean()
    gc = g - g.mean()
    denom = np.sqrt((pc**2).sum() * (gc**2).sum())
    if denom == 0.0:
        raise ValueError("cc undefined for a constant map")
    return float((pc * gc).sum() / denom)


def sim(pred: SaliencyMap, truth: SaliencyMap) -> float:
    """Histogram intersection of the sum-normalized maps."""
    p, g = _float64_pair(pred, truth)
    psum, gsum = p.sum(), g.sum()
    if psum <= 0.0 or gsum <= 0.0:
        raise ValueError("sim undefined for a zero-sum map")
    return float(np.minimum(p / psum, g / gsum).sum())


def kld(pred: SaliencyMap, truth: SaliencyMap) -> float:
    """KL(truth || pred) over sum-normalized maps; shared with the hybrid
    training loss so evaluation and training agree exactly."""
    return _kld_term(*_float64_pair(pred, truth))


def _flat_indices(pred: SaliencyMap, fix: FixationSet, metric: str) -> list[int]:
    """The raster index of each fixation, in order and with repeats."""
    if len(fix) == 0:
        raise ValueError("%s needs at least one fixation" % metric)
    fix.validate_bounds(pred.width, pred.height)
    return [y * pred.width + x for x, y in fix.points]


def nss(pred: SaliencyMap, fix: FixationSet) -> float:
    """Mean z-scored saliency at fixation points (population std). A
    repeated fixation counts once per occurrence, so it weighs its pixel
    more; `auc_judd` counts it once."""
    flat = _flat_indices(pred, fix, "nss")
    p = pred.float64
    mu = p.mean()
    # the population std, bit-equal to p.std(), which would sum p again
    sigma = np.sqrt(((p - mu) ** 2).sum() / p.size)
    if sigma == 0.0:
        raise ValueError("nss undefined for a constant map")
    return float(np.mean((p.ravel()[flat] - mu) / sigma))


def auc_judd(pred: SaliencyMap, fix: FixationSet) -> float:
    """ROC area with fixated pixels as positives, all other pixels as
    negatives; ties get half credit (Mann-Whitney convention), so a
    constant map scores 0.5. A repeated fixation counts once; `nss`
    counts it once per occurrence.

    One sort of the N pixel values, then each of the P fixated values is
    ranked in it with two binary searches. The negatives strictly below a
    positive are the pixels below it less the positives below it, and
    likewise for those at or below it; their sum is what the positive adds
    to twice the Mann-Whitney count. That count is an integer and the
    result a single correctly-rounded division, bit-equal to the pairwise
    statistic."""
    flat = _flat_indices(pred, fix, "auc_judd")
    # float32 orders exactly as its float64 widening would; -0.0 == 0.0
    values = pred.to_array().ravel()
    is_pos = np.zeros(values.size, dtype=bool)
    is_pos[flat] = True
    pos = np.sort(values[is_pos])
    npos = pos.size
    nneg = values.size - npos
    if nneg == 0:
        raise ValueError("auc_judd needs at least one non-fixated pixel")
    ranked = np.sort(values)
    below = np.searchsorted(ranked, pos, "left") - np.searchsorted(pos, pos, "left")
    at_or_below = np.searchsorted(ranked, pos, "right") - np.searchsorted(pos, pos, "right")
    return (int(below.sum()) + int(at_or_below.sum())) / (2 * npos * nneg)


def evaluate_all(pred: SaliencyMap, truth: SaliencyMap, fix: FixationSet) -> MetricReport:
    """The five metrics for one image. Each map is widened to float64 once,
    by its cached `SaliencyMap.float64`, and shared by NSS, CC, SIM and KLD."""
    return MetricReport(
        auc_judd=auc_judd(pred, fix),
        nss=nss(pred, fix),
        cc=cc(pred, truth),
        sim=sim(pred, truth),
        kld=kld(pred, truth),
    )


def aggregate_reports(reports: Sequence[MetricReport]) -> MetricReport:
    """Unweighted mean of per-image reports."""
    if not reports:
        raise ValueError("nothing to aggregate")
    return MetricReport(*(float(np.mean(column)) for column in zip(*map(astuple, reports))))
