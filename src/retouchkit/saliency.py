"""Distortion-saliency data model, hybrid training loss, and the
binarize -> dilate -> connected-components pipeline that turns a saliency
map into region proposals.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .media_io import FloatGrid, check_size, frozen

KLD_EPSILON = 1e-7  # the stabilizer of KL(truth || pred) in the hybrid loss and metrics.kld


@dataclass(frozen=True)
class SaliencyMap:
    """A FloatGrid whose values all lie in [0, 1]."""

    grid: FloatGrid

    def __post_init__(self):
        arr = self.grid.to_array()
        if not (arr.min() >= 0.0 and arr.max() <= 1.0):  # also rejects NaN
            raise ValueError("saliency values must lie in [0, 1]")

    width = property(lambda self: self.grid.width)
    height = property(lambda self: self.grid.height)

    def to_array(self) -> np.ndarray:
        return self.grid.to_array()

    @cached_property
    def float64(self) -> np.ndarray:
        """A read-only float64 copy of the map, built on first use; not a
        field, so `==` and `hash` see only the grid."""
        arr = self.to_array().astype(np.float64)
        arr.setflags(write=False)
        return arr

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "SaliencyMap":
        return cls(FloatGrid.from_array(arr))


@dataclass(frozen=True, eq=False)
class RegionProposal:
    """One candidate distortion region: mask, tight bbox, peak score, area.

    `mask` is stored at the size of the bbox; `union_mask` builds a frame.
    A full-frame mask, as a region decoded from the wire arrives, is also
    accepted and cropped to the bbox. Regions are equal when their bbox,
    peak, area and mask are."""

    mask: np.ndarray  # bool, shape (y1 - y0 + 1, x1 - x0 + 1): the bbox crop
    bbox: tuple[int, int, int, int]  # (x0, y0, x1, y1) inclusive
    peak_saliency: float
    area: int

    def __post_init__(self):
        mask = np.asarray(self.mask, dtype=bool)
        x0, y0, x1, y1 = self.bbox
        dims = (y1 - y0 + 1, x1 - x0 + 1)
        if min(x0, y0) < 0:  # a negative index would wrap around the frame
            raise ValueError("bbox origin must be >= 0")
        if mask.shape != dims:
            crop = mask[y0 : y1 + 1, x0 : x1 + 1]
            if crop.shape != dims:
                raise ValueError("mask of shape %s holds no %s bbox crop" % (mask.shape, dims))
            if np.count_nonzero(crop) != np.count_nonzero(mask):
                raise ValueError("mask has set pixels outside the bbox")
            mask = crop.copy()  # a view would keep the whole frame alive
        if self.area < 1 or self.area != np.count_nonzero(mask):
            raise ValueError("area must equal the set-pixel count (>= 1)")
        object.__setattr__(self, "mask", frozen(mask))

    @classmethod
    def _checked(cls, mask, bbox, peak_saliency, area) -> "RegionProposal":
        """A region built without `__post_init__`, for a caller that has made
        its checks: `mask` is the read-only bool crop of the bbox (x0, y0 >=
        0) and holds `area` >= 1 set pixels."""
        region = object.__new__(cls)
        region.__dict__.update(mask=mask, bbox=bbox, peak_saliency=peak_saliency, area=area)
        return region

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and (self.bbox, self.peak_saliency, self.area)
            == (other.bbox, other.peak_saliency, other.area)
            and np.array_equal(self.mask, other.mask)
        )

    def __hash__(self):
        return hash((self.bbox, self.peak_saliency, self.area))  # equal regions share these


def union_mask(regions: Sequence[RegionProposal], height: int, width: int) -> np.ndarray:
    """The union of `regions` as a bool mask of a height x width frame."""
    frame = np.zeros((height, width), dtype=bool)
    for region in regions:
        x0, y0, x1, y1 = region.bbox
        # OR, not assignment: the bboxes of disjoint regions can overlap
        frame[y0 : y1 + 1, x0 : x1 + 1] |= region.mask
    return frame


def _float64_pair(pred: SaliencyMap, truth: SaliencyMap) -> tuple[np.ndarray, np.ndarray]:
    """The float64 views of two maps of the same dimensions."""
    check_size("prediction", (pred.width, pred.height), "truth", (truth.width, truth.height))
    return pred.float64, truth.float64


def _normalized(pred: np.ndarray, truth: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """truth / sum(truth), pred / sum(pred) (zeros when that sum is not
    positive) and sum(pred); a truth map that sums to 0 has no KLD."""
    gsum = truth.sum()
    if gsum <= 0.0:
        raise ValueError("truth map sums to 0; KLD undefined")
    psum = pred.sum()
    return truth / gsum, (pred / psum if psum > 0.0 else np.zeros_like(pred)), psum


def _kld_term(pred: np.ndarray, truth: np.ndarray) -> float:
    # Both maps sum-normalized; KL(truth || pred) with KLD_EPSILON stabilization.
    g, s, _ = _normalized(pred, truth)
    return float(np.sum(g * np.log(g / (s + KLD_EPSILON) + KLD_EPSILON)))


def _check_alpha(alpha: float) -> None:
    if not 0.0 <= alpha <= 1.0:  # also rejects NaN
        raise ValueError("alpha must lie in [0, 1]")


def hybrid_loss(pred: SaliencyMap, truth: SaliencyMap, alpha: float) -> float:
    """alpha * MSE(pred, truth) + (1 - alpha) * KL(truth || pred)."""
    _check_alpha(alpha)
    p, g = _float64_pair(pred, truth)
    mse = float(np.mean((p - g) ** 2))
    if alpha == 1.0:
        return alpha * mse
    return alpha * mse + (1.0 - alpha) * _kld_term(p, g)


def hybrid_loss_gradient(pred: SaliencyMap, truth: SaliencyMap, alpha: float) -> np.ndarray:
    """Analytic d(hybrid_loss)/d(pred pixel) as a float32 (H, W) array,
    including the normalization chain rule inside the KLD term."""
    _check_alpha(alpha)
    p, g = _float64_pair(pred, truth)
    n = p.size
    grad = alpha * 2.0 * (p - g) / n
    if alpha < 1.0:
        gn, sn, psum = _normalized(p, g)
        eps = KLD_EPSILON
        if psum > 0.0:
            u = gn / (sn + eps) + eps
            # d/dp_i of sum_j gn_j ln(u_j) with sn_j = p_j / sum(p)
            c = gn**2 / (u * (sn + eps) ** 2)
            kgrad = -(c - (c * sn).sum()) / psum
        else:
            kgrad = np.zeros_like(p)
        grad = grad + (1.0 - alpha) * kgrad
    return grad.astype(np.float32)


def binarize(smap: SaliencyMap, tau: float) -> np.ndarray:
    """Pixel set iff value >= tau, decided exactly as run_loop's peak test
    decides it: the float32 map is compared with the smallest float32 that
    is >= tau (numpy would round tau to the nearest float32)."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError("tau must lie in [0, 1]")
    t = np.float32(tau)
    if float(t) < tau:
        t = np.nextafter(t, np.float32(np.inf))
    return smap.to_array() >= t


def dilate(mask: np.ndarray, radius: int) -> np.ndarray:
    """Morphological dilation with a (2r+1)x(2r+1) square element; pixels
    beyond the border count as unset."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    src = np.asarray(mask, dtype=bool)
    # the square element is separable: OR shifted slices along y, then along
    # x; a shift of a whole side or more moves every pixel out of the frame
    rows = src.copy()
    for s in range(1, min(radius, src.shape[0] - 1) + 1):
        rows[s:] |= src[:-s]
        rows[:-s] |= src[s:]
    out = rows.copy()
    for s in range(1, min(radius, src.shape[1] - 1) + 1):
        out[:, s:] |= rows[:, :-s]
        out[:, :-s] |= rows[:, s:]
    return out


def _label_runs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The row runs of a 2-D bool mask in raster order and their 8-connected
    components: each run's start and stop key, where pixel (y, x) has key
    y * (w + 1) + x and a run covers keys [start, stop); each run's 1-based
    int32 label; and the number of components. Components are numbered by
    the raster position of their first pixel, as `scipy.ndimage.label`
    numbers them.

    Row runs (He, Chao & Suzuki, IEEE TIP 17(5), 2008) are joined by hooking
    and pointer jumping (Shiloach & Vishkin, J. Algorithms 3, 1982); the
    cost is O(pixels) for the run scan plus O(r log r) per hooking round for
    r runs, and a round beyond the first is needed only where a run touches
    two or more runs above."""
    h, w = mask.shape
    # each row ends in one unset column, so no run crosses a row, and one
    # bool scan finds the starts and stops, which alternate (buf[0] is the
    # unset pixel before the first)
    buf = np.zeros(h * (w + 1) + 1, dtype=bool)
    buf[1:].reshape(h, w + 1)[:, :w] = mask
    edges = np.flatnonzero(buf[1:] != buf[:-1])
    starts, stops = edges[0::2], edges[1::2]
    r = starts.size
    if not r:
        return starts, stops, np.zeros(0, dtype=np.int32), 0
    # run [s, e) touches the runs [s', e') of the row above with x(s') <= x(e)
    # and x(e') >= x(s), that is s' < e - w and e' > s - w - 2 in keys: one
    # range lo:hi of the sorted runs, which the padding column keeps clear of
    # the run's own row and of the row two above
    lo = np.searchsorted(stops, starts - (w + 2), side="right")
    hi = np.searchsorted(starts, stops - w, side="left")
    # each run hooks to the leftmost run that touches it above; parents point
    # to smaller indices, so the runs form a forest and jumping finds roots
    parent = np.arange(r)
    touch = hi > lo
    parent[touch] = lo[touch]
    steps = (r - 1).bit_length()  # ceil(log2 r) jumps reach any root

    def jump(parent):
        for _ in range(steps):
            parent = parent[parent]
        return parent

    parent = jump(parent)
    # a run that touches two or more runs above also joins their trees
    extra = np.flatnonzero(hi - lo > 1)
    if extra.size:
        # pairs (lo, k) for k in lo + 1 .. hi - 1 of each such run
        width = (hi - lo)[extra] - 1
        a = np.repeat(lo[extra], width)
        b = a + np.arange(width.sum()) - np.repeat(np.cumsum(width) - width, width) + 1
        while True:
            ra, rb = parent[a], parent[b]
            split = ra != rb
            if not split.any():
                break
            # the larger root hooks to the smaller, so parents still decrease
            a, b, ra, rb = a[split], b[split], ra[split], rb[split]
            np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
            parent = jump(parent)
    # every root is its component's first run in raster order
    count = np.cumsum(parent == np.arange(r), dtype=np.int32)
    return starts, stops, count[parent], int(count[-1])


def label_set_pixels(mask: np.ndarray) -> tuple[np.ndarray, int]:
    """8-connected components of a 2-D bool mask: the 1-based int32 label of
    each set pixel in raster order (the order of `np.flatnonzero(mask)`), and
    the number of components, numbered as `scipy.ndimage.label` numbers
    them. The cost is O(pixels) plus O(r log r) for r row runs."""
    starts, stops, labels, n = _label_runs(np.asarray(mask, dtype=bool))
    return np.repeat(labels, stops - starts), n


def _run_pixels(firsts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The indices first, first + 1, ..., first + length - 1 of each run,
    concatenated: a running count over all pixels, plus one offset per run."""
    index = np.repeat(firsts - (np.cumsum(lengths) - lengths), lengths)
    index += np.arange(index.size)
    return index


def extract_regions(mask: np.ndarray, source: SaliencyMap, min_area: int) -> list[RegionProposal]:
    """8-connected components of `mask` with area >= min_area, sorted by
    peak saliency descending (ties by (y0, x0) ascending)."""
    if operator.index(min_area) < 1:  # a float, NaN too, is a TypeError
        raise ValueError("min_area must be >= 1")
    mask = np.asarray(mask, dtype=bool)
    values = source.to_array().ravel()
    check_size("mask", mask.shape[::-1], "saliency map", (source.width, source.height))
    starts, stops, lab, n = _label_runs(mask)
    # the runs stand for the set pixels: one stable sort of the runs groups
    # them by label, each group in raster order
    ys, xs = np.divmod(starts, mask.shape[1] + 1)
    lengths = stops - starts
    order = np.argsort(lab, kind="stable")
    runs = np.bincount(lab)[1:]  # labels run 1..n, none empty
    group = np.cumsum(runs) - runs
    areas = np.add.reduceat(lengths[order], group)
    x0 = np.minimum.reduceat(xs[order], group)
    y0 = ys[order[group]]
    x1 = np.maximum.reduceat((xs + lengths - 1)[order], group)
    y1 = ys[order[group + runs - 1]]
    # a run's first pixel has map index key - y; the values of every
    # component's pixels, gathered in raster order, give its peak
    vals = values[_run_pixels((starts - ys)[order], lengths[order])]
    first = np.cumsum(areas) - areas  # each component's first value in vals
    peaks = np.maximum.reduceat(vals, first)
    # saliency is never negative, so a zero peak means a component of +-0
    # values; it peaks at the last one in raster order, as a pixel-by-pixel
    # maximum does, where reduceat's vector loop may return either zero
    peaks = np.where(peaks == 0, vals[first + areas - 1], peaks)
    keep = np.flatnonzero(areas >= min_area)
    keep = keep[np.lexsort((x0[keep], y0[keep], -peaks[keep]))]
    if not keep.size:
        return []
    x0, y0, x1, y1, peaks, areas = (a[keep] for a in (x0, y0, x1, y1, peaks, areas))
    # the crops of the kept components are drawn into one buffer, each at
    # the size of its bounding box, by one scatter of their runs' pixels
    widths = x1 - x0 + 1
    sizes = (y1 - y0 + 1) * widths
    ends = np.cumsum(sizes)
    crop_at = np.full(n, -1)
    crop_at[keep] = np.arange(keep.size)
    at = crop_at[lab - 1]  # the crop of each run, or -1
    kept = np.flatnonzero(at >= 0)
    at = at[kept]
    offsets = ends[at] - sizes[at] + (ys[kept] - y0[at]) * widths[at] + xs[kept] - x0[at]
    buf = np.zeros(ends[-1], dtype=bool)
    buf[_run_pixels(offsets, lengths[kept])] = True
    # the constructor's checks, made once for the batch: each crop's shape
    # follows from its bbox, whose origin is >= 0, so it must hold its area
    # (>= 1) of set pixels
    if not np.array_equal(np.add.reduceat(buf, ends - sizes), areas):
        raise ValueError("area must equal the set-pixel count (>= 1)")
    buf.setflags(write=False)  # so the regions hold its views, not copies
    return [
        RegionProposal._checked(buf[end - size : end].reshape(size // width, width), bbox, peak, area)
        for bbox, peak, area, end, size, width in zip(
            zip(x0.tolist(), y0.tolist(), x1.tolist(), y1.tolist()),
            peaks.tolist(),
            areas.tolist(),
            ends.tolist(),
            sizes.tolist(),
            widths.tolist(),
        )
    ]


def propose_masks(smap: SaliencyMap, tau: float, dilation_radius: int, min_area: int) -> list[RegionProposal]:
    """binarize -> dilate -> extract_regions."""
    return extract_regions(dilate(binarize(smap, tau), dilation_radius), smap, min_area)
