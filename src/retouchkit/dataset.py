"""Annotation schema, parsing, region geometry, majority-vote
reconciliation and statistics for distortion-region datasets.

Dataset files are JSON-lines: one record per line with fields
``image_id, image, prompt, width, height, regions`` where each region is
``{x, y, category, description, annotator}``.
"""

from __future__ import annotations

import json
import math
import statistics
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

from .metrics import FixationSet
from .saliency import SaliencyMap

T = TypeVar("T")

# The widest kernel radius R = int(4 * blur_sigma + 0.5) that
# ground_truth_map accepts (blur_sigma < 64.125). gaussian_blur runs 2R + 1
# full-frame taps per axis on a frame padded by R, so its time and memory
# grow with R even once the kernel is far wider than the map.
MAX_BLUR_RADIUS = 256


class DistortionCategory(Enum):
    """12 fine-grained categories.

    Declaration order is the fixed category-code order used for vote
    tiebreaks.
    """

    LIMB_HAND_DEFORMITY = "limb_hand_deformity"
    FACE_DISTORTION = "face_distortion"
    COLOR_ATTRIBUTE_MISMATCH = "color_attribute_mismatch"
    COUNT_MISMATCH = "count_mismatch"
    PERSPECTIVE_ERROR = "perspective_error"
    OCCLUSION_ERROR = "occlusion_error"
    OBJECT_DEFORMATION = "object_deformation"
    OBJECT_REDUNDANCY = "object_redundancy"
    ACTION_IMPLAUSIBILITY = "action_implausibility"
    INTERACTION_ERROR = "interaction_error"
    TEXT_ANOMALY = "text_anomaly"
    OTHER_ARTIFACT = "other_artifact"


class DatasetError(ValueError):
    """Parse/validation failure, carrying the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__("line %s: %s" % (line, message) if line else message)


@dataclass(frozen=True)
class RegionAnnotation:
    center: tuple[int, int]  # (x, y)
    category: DistortionCategory
    description: str
    annotator: str
    region_id: str | None = None

    def __post_init__(self):
        if not self.description:
            raise ValueError("description must be non-empty")


@dataclass(frozen=True)
class AnnotationRecord:
    image_id: str
    image_ref: str
    prompt: str
    width: int
    height: int
    regions: tuple[RegionAnnotation, ...]

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("width/height must be >= 1")
        for r in self.regions:
            x, y = r.center
            if not (0 <= x < self.width and 0 <= y < self.height):
                raise ValueError(
                    "region center (%d, %d) outside %dx%d image" % (x, y, self.width, self.height)
                )


@dataclass(frozen=True)
class DatasetStats:
    image_count: int
    region_count: int
    regions_per_image: float
    mean_description_words: float
    category_histogram: dict[str, float]


def read_jsonl(data: bytes, parse: Callable[[dict], T]) -> list[T]:
    """Build one item per non-blank line of a JSON-lines byte string with
    `parse`, which receives the line's object. Any failure, in the JSON or
    in `parse`, becomes a DatasetError carrying the 1-based line number.
    The bytes are split into lines before decoding, so a raw U+2028, U+2029
    or U+0085 in a string is not a line break, and a line that is not UTF-8
    is reported with its number."""
    items = []
    for lineno, raw in enumerate(data.splitlines(), start=1):
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DatasetError("not UTF-8: %s" % exc, lineno)
        if not text.strip():
            continue
        try:
            obj = json.loads(text)
        # also an integer past int()'s digit limit, and nesting past the
        # recursion limit
        except (ValueError, RecursionError) as exc:
            raise DatasetError("malformed JSON: %s" % exc, lineno)
        if not isinstance(obj, dict):
            raise DatasetError("record is not a JSON object", lineno)
        try:
            items.append(parse(obj))
        except KeyError as exc:
            raise DatasetError("missing field %s" % exc, lineno)
        except (TypeError, ValueError, OverflowError) as exc:  # float() of a huge int overflows
            raise DatasetError(str(exc), lineno)
    return items


# the types json.loads gives a JSON integer, number, string, array and object
_JSON_KINDS = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
    list: ((list,), "a list"),
    dict: ((dict,), "an object"),
}


def typed(value, kind: type, name: str):
    """`value`, the field `name` of a JSON record, which must be a JSON
    integer (kind int), number (float), string (str), array (list) or
    object (dict), else TypeError. A JSON true or false is a bool, an int
    subclass, so type() is tested."""
    types, noun = _JSON_KINDS[kind]
    if type(value) not in types:
        raise TypeError("%s must be %s, not %s" % (name, noun, json.dumps(value)))
    return value


def _parse_record(obj: dict) -> AnnotationRecord:
    regions = []
    for reg in typed(obj.get("regions", []), list, "regions"):
        typed(reg, dict, "region")
        try:
            category = DistortionCategory(reg["category"])
        except ValueError:
            raise ValueError("unknown category code %r" % reg.get("category"))
        regions.append(
            RegionAnnotation(
                center=(typed(reg["x"], int, "x"), typed(reg["y"], int, "y")),
                category=category,
                description=typed(reg["description"], str, "description"),
                annotator=typed(reg["annotator"], str, "annotator"),
                region_id=typed(reg["id"], str, "id") if "id" in reg else None,
            )
        )
    return AnnotationRecord(
        image_id=typed(obj["image_id"], str, "image_id"),
        image_ref=typed(obj["image"], str, "image"),
        prompt=typed(obj["prompt"], str, "prompt"),
        width=typed(obj["width"], int, "width"),
        height=typed(obj["height"], int, "height"),
        regions=tuple(regions),
    )


def parse_dataset(data: bytes) -> list[AnnotationRecord]:
    """Parse a JSON-lines dataset; errors carry the offending line number."""
    return read_jsonl(data, _parse_record)


def region_radius(image_height: int) -> float:
    """Annotation disc radius: 1/20 of the image height."""
    return image_height / 20.0


def _window(c: int, k: int, dim: int) -> tuple[int, int]:
    """[c - k, c + k + 1) clamped to [0, dim] at both ends, so a centre off
    the frame gives an empty window."""
    return min(max(c - k, 0), dim), min(max(c + k + 1, 0), dim)


def _disc(
    center: tuple[int, int], image_height: int, image_width: int
) -> tuple[tuple[slice, slice], np.ndarray]:
    """The disc of radius height/20 around `center`, computed only inside
    its window of half-width floor(r), as (rows, cols) slices of the frame
    and the bool disc over them. Pixel (i, j) is set iff its squared
    distance from the center is <= r^2; no pixel outside the window is."""
    r = region_radius(image_height)
    k = int(r)
    cx, cy = center
    y0, y1 = _window(cy, k, image_height)
    x0, x1 = _window(cx, k, image_width)
    ys = np.arange(y0 - cy, y1 - cy)[:, None]
    xs = np.arange(x0 - cx, x1 - cx)[None, :]
    return (slice(y0, y1), slice(x0, x1)), xs**2 + ys**2 <= r * r


def _discs(centers: Iterable[tuple[int, int]], image_height: int, image_width: int) -> np.ndarray:
    """The union of the discs around `centers` as a bool frame mask."""
    mask = np.zeros((image_height, image_width), dtype=bool)
    for center in centers:
        window, disc = _disc(center, image_height, image_width)
        mask[window] |= disc
    return mask


def rasterize_region(center: tuple[int, int], image_height: int, image_width: int) -> np.ndarray:
    """Disc mask of radius height/20 around `center`, clipped at borders.

    Pixel (i, j) is set iff its squared distance from the center is <= r^2.
    The center may lie off the frame.
    """
    if image_height < 1 or image_width < 1:
        raise ValueError("image dimensions must be >= 1")
    return _discs([center], image_height, image_width)


def reconcile_majority(
    per_annotator: Sequence[Sequence[RegionAnnotation]], match_radius: float
) -> list[RegionAnnotation]:
    """Cluster regions across annotators (single linkage on center distance
    <= match_radius); keep clusters backed by a strict majority of
    annotators. Category = modal (ties to the lower category-code), center =
    coordinate-wise median, description = longest contributed (ties to the
    lowest in code-point order)."""
    n_annotators = len(per_annotator)
    if n_annotators < 2:
        raise ValueError("need at least 2 annotators")
    if not match_radius >= 0.0:  # also rejects NaN
        raise ValueError("match_radius must be >= 0, got %r" % match_radius)
    items = [
        (ann_idx, region)
        for ann_idx, regions in enumerate(per_annotator)
        for region in regions
    ]
    # single linkage: every item carries its cluster's label, and a merge
    # relabels the whole of one cluster
    label = list(range(len(items)))
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            (x1, y1), (x2, y2) = items[i][1].center, items[j][1].center
            if label[i] != label[j] and math.hypot(x1 - x2, y1 - y2) <= match_radius:
                old, new = label[j], label[i]
                label = [new if k == old else k for k in label]

    survivors = []
    for cluster in set(label):
        voters, regions = zip(*(item for item, k in zip(items, label) if k == cluster))
        if len(set(voters)) * 2 <= n_annotators:  # strict majority required
            continue
        votes = Counter(r.category for r in regions)
        cx = statistics.median(r.center[0] for r in regions)
        cy = statistics.median(r.center[1] for r in regions)
        survivors.append(
            RegionAnnotation(
                center=(int(round(cx)), int(round(cy))),
                # declaration order is the code order, and max keeps the first
                category=max(DistortionCategory, key=votes.__getitem__),
                description=max(sorted(r.description for r in regions), key=len),
                annotator="consensus",
            )
        )
    codes = list(DistortionCategory)
    survivors.sort(
        key=lambda r: (r.center[1], r.center[0], codes.index(r.category), r.description)
    )
    return survivors


def compute_stats(records: Sequence[AnnotationRecord]) -> DatasetStats:
    """Exact means and category shares over a non-empty record list."""
    if not records:
        raise ValueError("empty dataset")
    region_count = sum(len(r.regions) for r in records)
    word_total = sum(len(reg.description.split()) for r in records for reg in r.regions)
    histogram = Counter(reg.category.value for r in records for reg in r.regions)
    return DatasetStats(
        image_count=len(records),
        region_count=region_count,
        regions_per_image=region_count / len(records),
        mean_description_words=word_total / region_count if region_count else 0.0,
        category_histogram={cat: n / region_count for cat, n in sorted(histogram.items())},
    )


def gaussian_blur(image: np.ndarray, sigma: float) -> np.ndarray:
    """`scipy.ndimage.gaussian_filter(image, sigma)` of a 2-D float32 array,
    bit for bit: its kernel, its `reflect` border, and its float64 sums in
    its order (the centre tap, then each mirrored pair from the outermost
    inward), cast to float32 after each axis."""
    radius = int(4.0 * sigma + 0.5)
    if not radius:
        # sigma < 0.125: one tap of weight 1 changes no pixel, and a tiny
        # sigma would square to 0 and be divided by
        return image
    x = np.arange(-radius, radius + 1)
    taps = np.exp(-0.5 / (sigma * sigma) * x**2)
    taps = taps / taps.sum()
    for _ in range(2):  # axis 0, then axis 1; each pass transposes
        n = image.shape[0]
        padded = np.pad(image.astype(np.float64), ((radius, radius), (0, 0)), "symmetric")
        acc = padded[radius : radius + n] * taps[radius]
        for j in range(radius, 0, -1):
            acc += (padded[radius - j : radius - j + n] + padded[radius + j : radius + j + n]) * taps[radius - j]
        image = acc.astype(np.float32).T
    return image


def ground_truth_map(
    record: AnnotationRecord, blur_sigma: float = 0.0
) -> tuple[SaliencyMap, FixationSet]:
    """Union of rasterized region discs as a {0,1} saliency map plus the
    region centers as fixations. With blur_sigma > 0 the union mask is
    Gaussian-blurred and renormalized to peak 1."""
    if not blur_sigma >= 0.0:  # also rejects NaN
        raise ValueError("blur_sigma must be >= 0, got %r" % blur_sigma)
    # int() of gaussian_blur's kernel radius would overflow
    if not math.isfinite(4.0 * blur_sigma + 0.5):
        raise ValueError("blur_sigma gives an infinite kernel radius, got %r" % blur_sigma)
    if int(4.0 * blur_sigma + 0.5) > MAX_BLUR_RADIUS:
        raise ValueError(
            "blur_sigma gives a kernel radius above %d, got %r" % (MAX_BLUR_RADIUS, blur_sigma)
        )
    mask = _discs((reg.center for reg in record.regions), record.height, record.width)
    dense = mask.astype(np.float32)
    if blur_sigma > 0.0 and mask.any():
        dense = gaussian_blur(dense, blur_sigma)
        dense = dense / dense.max()
    fixations = FixationSet(reg.center for reg in record.regions)
    return SaliencyMap.from_array(dense), fixations
