"""Distortion-saliency data model, hybrid training loss, and the
binarize -> dilate -> connected-components pipeline that turns a saliency
map into region proposals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .media_io import FloatGrid

# 8-connectivity structuring element for component labeling
_CONN8 = np.ones((3, 3), dtype=bool)


@dataclass(frozen=True)
class SaliencyMap:
    """A FloatGrid whose values all lie in [0, 1]."""

    grid: FloatGrid

    def __post_init__(self):
        arr = self.grid.to_array()
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise ValueError("saliency values must lie in [0, 1]")

    @property
    def width(self) -> int:
        return self.grid.width

    @property
    def height(self) -> int:
        return self.grid.height

    def to_array(self) -> np.ndarray:
        return self.grid.to_array()

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "SaliencyMap":
        return cls(FloatGrid.from_array(arr))


@dataclass(frozen=True)
class HybridLossConfig:
    alpha: float = 0.5
    epsilon: float = 1e-7

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")


@dataclass(frozen=True)
class RegionProposal:
    """One candidate distortion region: mask, tight bbox, peak score, area."""

    mask: np.ndarray  # bool, same dims as the source map
    bbox: tuple[int, int, int, int]  # (x0, y0, x1, y1) inclusive
    peak_saliency: float
    area: int

    def __post_init__(self):
        object.__setattr__(self, "mask", np.asarray(self.mask, dtype=bool))
        self.mask.setflags(write=False)
        if self.area < 1 or self.area != np.count_nonzero(self.mask):
            raise ValueError("area must equal the set-pixel count (>= 1)")


def _check_same_dims(a: SaliencyMap, b: SaliencyMap) -> None:
    if (a.width, a.height) != (b.width, b.height):
        raise ValueError(
            "dimension mismatch: %dx%d vs %dx%d" % (a.width, a.height, b.width, b.height)
        )


def _kld_term(pred: np.ndarray, truth: np.ndarray, epsilon: float) -> float:
    # Both maps sum-normalized; KL(truth || pred) with epsilon stabilization.
    gsum = truth.sum()
    if gsum <= 0.0:
        raise ValueError("truth map sums to 0; KLD undefined")
    psum = pred.sum()
    g = truth / gsum
    s = pred / psum if psum > 0.0 else np.zeros_like(pred)
    return float(np.sum(g * np.log(g / (s + epsilon) + epsilon)))


def hybrid_loss(pred: SaliencyMap, truth: SaliencyMap, cfg: HybridLossConfig) -> float:
    """alpha * MSE(pred, truth) + (1 - alpha) * KL(truth || pred)."""
    _check_same_dims(pred, truth)
    p = pred.to_array().astype(np.float64)
    g = truth.to_array().astype(np.float64)
    mse = float(np.mean((p - g) ** 2))
    if cfg.alpha == 1.0:
        return cfg.alpha * mse
    return cfg.alpha * mse + (1.0 - cfg.alpha) * _kld_term(p, g, cfg.epsilon)


def hybrid_loss_gradient(pred: SaliencyMap, truth: SaliencyMap, cfg: HybridLossConfig) -> FloatGrid:
    """Analytic d(hybrid_loss)/d(pred pixel), including the normalization
    chain rule inside the KLD term."""
    _check_same_dims(pred, truth)
    p = pred.to_array().astype(np.float64)
    g = truth.to_array().astype(np.float64)
    n = p.size
    grad = cfg.alpha * 2.0 * (p - g) / n
    if cfg.alpha < 1.0:
        gsum = g.sum()
        if gsum <= 0.0:
            raise ValueError("truth map sums to 0; KLD undefined")
        psum = p.sum()
        eps = cfg.epsilon
        gn = g / gsum
        if psum > 0.0:
            sn = p / psum
            u = gn / (sn + eps) + eps
            # d/dp_i of sum_j gn_j ln(u_j) with sn_j = p_j / sum(p)
            c = gn**2 / (u * (sn + eps) ** 2)
            kgrad = -(c - (c * sn).sum()) / psum
        else:
            kgrad = np.zeros_like(p)
        grad = grad + (1.0 - cfg.alpha) * kgrad
    return FloatGrid.from_array(grad.astype(np.float32))


def binarize(smap: SaliencyMap, tau: float) -> np.ndarray:
    """Pixel set iff value >= tau."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError("tau must lie in [0, 1]")
    return smap.to_array() >= tau


def dilate(mask: np.ndarray, radius: int) -> np.ndarray:
    """Morphological dilation with a (2r+1)x(2r+1) square element."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    # scipy is imported where it is used (here and in extract_regions):
    # loading scipy.ndimage adds ~18 MB of RSS, and the metrics path never
    # needs it
    from scipy import ndimage

    se = np.ones((2 * radius + 1, 2 * radius + 1), dtype=bool)
    return ndimage.binary_dilation(mask, structure=se)


def extract_regions(mask: np.ndarray, source: SaliencyMap, min_area: int = 4) -> list[RegionProposal]:
    """8-connected components of `mask` with area >= min_area, sorted by
    peak saliency descending (ties by (y0, x0) ascending)."""
    from scipy import ndimage

    mask = np.asarray(mask, dtype=bool)
    src = source.to_array()
    if mask.shape != src.shape:
        raise ValueError("mask and source dimensions differ")
    labels, _ = ndimage.label(mask, structure=_CONN8)
    proposals = []
    # each component is scanned inside its bounding box only, so the cost
    # grows with pixels plus region areas, not with pixels x regions
    for lbl, (ys, xs) in enumerate(ndimage.find_objects(labels), start=1):
        crop = labels[ys, xs] == lbl
        area = int(crop.sum())
        if area < min_area:
            continue
        comp = np.zeros(mask.shape, dtype=bool)
        comp[ys, xs] = crop
        bbox = (xs.start, ys.start, xs.stop - 1, ys.stop - 1)
        peak = float(src[ys, xs][crop].max())
        proposals.append(RegionProposal(mask=comp, bbox=bbox, peak_saliency=peak, area=area))
    proposals.sort(key=lambda r: (-r.peak_saliency, r.bbox[1], r.bbox[0]))
    return proposals


def propose_masks(
    smap: SaliencyMap, tau: float, dilation_radius: int = 1, min_area: int = 4
) -> list[RegionProposal]:
    """binarize -> dilate -> extract_regions."""
    return extract_regions(dilate(binarize(smap, tau), dilation_radius), smap, min_area)
